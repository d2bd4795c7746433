"""Tabular surrogate datasets for the four benchmark graphs.

Feature channels are Gaussian bumps keyed to discrete states: a core channel
carries the label signal, an auxiliary channel carries the group factor (or,
for the entangled graph, the OR of label and group), and graph C adds a
channel for a second factor V.  Channel means are orthogonal one-hot blocks,
so the causal structure of the benchmark graphs is preserved while everything
stays learnable by a small linear or one-hidden-layer model.

One law per graph: the graph's builder in ``templates`` (``template_a`` to
``template_d``) with the spec's parameters and noise-free channel flips;
``label_noise`` is the core flip for A and D and part of the label
mechanism for C; B's label mechanism is ``x_effect`` and
``confounder_effect`` alone, so a B spec rejects ``label_noise``.  A
``GenSpec`` fills its graph's defaults and builds its law once when
constructed, so a law parameter out of the template's range raises SpecError
there, and every set below is drawn from ``spec.law``.  Every set is one
categorical draw from an exact table over the discrete keys (Y, Z, X_core,
X_aux or X_ent, and V with X_v for graph C), followed by one Gaussian
channel per key: core <- X_core, aux <- X_aux, ent <- X_ent, v <- X_v.

  source  the template's joint over the keys;
  ideal   the joint of ``mutilate(net, GraphEdit(template.undesired))``: Z
          keeps its source marginal but not its tie to Y, B's label keeps
          only its X_core mechanism (the confounder averaged out), C's
          P(V=0 | z) is the source P(V=0 | y, z) averaged over P(y), and D's
          X_ent takes its source marginal, independent of Y and Z;
  shift   ``ShiftFamily(source, grid).member(k)``: P(Z | Y) replaced by
          grid point k, P(Y) and the keys given (Y, Z) unchanged.

All generation is deterministic given the spec seed; test-set draws derive
independent sub-streams.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .bayesnet import Cbn, GraphEdit, joint, mutilate
from .checks import ShiftFamily
from .errors import ArgumentError, SpecError
from .rng import spawn
from .tables import JointTable, _draw_states, marginal_probs, marginalize
from .templates import GRAPH_IDS, GraphTemplate, graph_template, template_a, template_b, template_c

_STREAM_SOURCE = 0
_STREAM_IDEAL = 1
_STREAM_SHIFT = 2
# the law defaults live in the template builders' signatures
_A_LAW = inspect.signature(template_a).parameters
_B_LAW = inspect.signature(template_b).parameters
_C_LAW = inspect.signature(template_c).parameters


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one synthetic data-generating process.

    ``confounding`` is (P(Y=0|Z=0), P(Y=0|Z=1)) and applies, with
    ``z_marginal``, to graphs A and D; graph B derives its label-group
    coupling from ``x_effect``, ``confounder_effect`` and ``z_flip``, graph C
    from ``confounder_strength`` and ``z_flip``.  Fields that only apply to
    some graphs default to None; construction fills those that apply to
    ``graph`` with its defaults, and the others stay None.  ``law`` is the
    graph's template with these parameters, built once at construction.
    """

    graph: str
    n: int
    seed: int = 0
    confounding: tuple[float, float] = _A_LAW["confounding"].default
    z_marginal: float = _A_LAW["z_marginal"].default
    dim_core: int = 6
    dim_aux: int = 6
    sep_core: float = 2.0
    sep_aux: float = 2.0
    noise_core: float = 1.0
    noise_aux: float = 1.0
    label_noise: float | None = None  # graphs A, C and D
    # graph C
    dim_v: int | None = None
    sep_v: float | None = None
    noise_v: float | None = None
    v_flip: tuple[float, float] | None = None
    v_z_pull: float | None = None
    confounder_strength: float | None = None
    # graphs B and C
    z_flip: float | None = None
    # graph B
    x_effect: float | None = None
    confounder_effect: float | None = None

    # A and D flip X_core with C's default label noise
    _GRAPH_DEFAULTS = {
        "A": {"label_noise": _C_LAW["label_noise"].default},
        "B": {name: _B_LAW[name].default for name in ("x_effect", "confounder_effect", "z_flip")},
        "C": {"dim_v": 4, "sep_v": 2.0, "noise_v": 1.0}
        | {n: _C_LAW[n].default for n in ("label_noise", "v_flip", "v_z_pull", "confounder_strength", "z_flip")},
        "D": {"label_noise": _C_LAW["label_noise"].default},
    }

    def __post_init__(self) -> None:
        if self.graph not in GRAPH_IDS:
            raise SpecError(f"unknown graph {self.graph!r}; expected one of {GRAPH_IDS}")
        if self.n < 1:
            raise SpecError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise SpecError(f"seed must be non-negative, got {self.seed}")
        if self.dim_core < 1 or self.dim_aux < 1:
            raise SpecError("channel dimensions must be >= 1")
        for name in ("label_noise", "z_marginal"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise SpecError(f"{name} must lie in [0, 1], got {v}")
        for name, lo, hi in (("confounding", 0.0, 1.0),):
            a, b = getattr(self, name)
            if not (lo < a < hi and lo < b < hi):
                raise SpecError(f"{name} entries must lie in ({lo}, {hi})")
        for name in sorted(set().union(*self._GRAPH_DEFAULTS.values())):
            graphs = [g for g, defaults in self._GRAPH_DEFAULTS.items() if name in defaults]
            if getattr(self, name) is not None and self.graph not in graphs:
                raise SpecError(f"{name} only applies to graph {' or '.join(graphs)}, not {self.graph}")
        for name, value in self._GRAPH_DEFAULTS[self.graph].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        try:
            object.__setattr__(self, "_law", _build_law(self))
        except ArgumentError as exc:
            raise SpecError(f"graph {self.graph} law: {exc}") from exc

    @property
    def law(self) -> GraphTemplate:
        """The graph's template with this spec's parameters."""
        return self._law

    def to_dict(self) -> dict:
        out = asdict(self)
        out["confounding"] = list(self.confounding)
        if self.v_flip is not None:
            out["v_flip"] = list(self.v_flip)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GenSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise SpecError(f"unknown GenSpec fields {sorted(unknown)}")
        data = dict(data)
        data["confounding"] = tuple(data["confounding"])
        if data.get("v_flip") is not None:
            data["v_flip"] = tuple(data["v_flip"])
        return cls(**data)


@dataclass(frozen=True)
class Dataset:
    """Weighted rows with binary label y, group z, optional second factor v,
    and a real feature matrix partitioned into named channels."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    weights: np.ndarray
    channel_slices: dict[str, tuple[int, int]]
    v: np.ndarray | None = None
    spec: GenSpec | None = None

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=np.int64)
        z = np.asarray(self.z, dtype=np.int64)
        x = np.asarray(self.x, dtype=float)
        n = y.shape[0]
        if not (z.shape == (n,) and x.ndim == 2 and x.shape[0] == n):
            raise ArgumentError("column lengths disagree")
        w = _checked_weights(self.weights, n)
        if not np.all((y == 0) | (y == 1)):
            raise ArgumentError("labels y must be 0 or 1")
        v = None if self.v is None else np.asarray(self.v, dtype=np.int64)
        if v is not None and v.shape != (n,):
            raise ArgumentError("v column length disagrees")
        covered = sorted(self.channel_slices.values())
        edges = [0] + [stop for _, stop in covered]
        starts = [start for start, _ in covered]
        if starts != edges[:-1] or edges[-1] != x.shape[1]:
            raise ArgumentError(
                f"channel slices {self.channel_slices} do not partition {x.shape[1]} columns"
            )
        for arr in (y, z, x, w) + ((v,) if v is not None else ()):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "channel_slices", dict(self.channel_slices))

    def __len__(self) -> int:
        return self.y.shape[0]

    def channel(self, name: str) -> np.ndarray:
        start, stop = self.channel_slices[name]
        return self.x[:, start:stop]

    def take(self, idx: np.ndarray, weights: np.ndarray | None = None) -> "Dataset":
        """The rows ``idx`` (a 1-D index array or slice) of this validated
        set, with their own weights or new ``weights``, which are checked."""
        y = self.y[idx]
        if y.ndim != 1:
            raise ArgumentError("row index must be one-dimensional")
        w = self.weights[idx] if weights is None else _checked_weights(weights, y.shape[0])
        v = None if self.v is None else self.v[idx]
        out = object.__new__(Dataset)
        cols = {"y": y, "z": self.z[idx], "x": self.x[idx], "weights": w, "v": v}
        cols |= {"channel_slices": dict(self.channel_slices), "spec": self.spec}
        for name, value in cols.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(out, name, value)
        return out

    def with_weights(self, weights: np.ndarray) -> "Dataset":
        return self.take(slice(None), weights)


def _checked_weights(weights, n: int) -> np.ndarray:
    """``weights`` as a float array of one finite, non-negative value per row."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ArgumentError(f"weights must have shape ({n},), got {w.shape}")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ArgumentError("weights must be finite and non-negative")
    return w


def _block_means(dim: int, sep: float) -> np.ndarray:
    """Two orthogonal one-hot-block mean vectors with ||m1 - m0|| = sep*sqrt(2)."""
    b0 = max(dim // 2, 1)
    b1 = max(dim - b0, 1) if dim > 1 else 1
    means = np.zeros((2, dim))
    means[0, :b0] = sep / np.sqrt(b0)
    if dim > 1:
        means[1, b0:] = sep / np.sqrt(b1)
    else:
        means[1, 0] = -sep
    return means


def _gaussian_channel(states: np.ndarray, dim: int, sep: float, noise: float, gen) -> np.ndarray:
    means = _block_means(dim, sep)
    return means[states] + gen.normal(0.0, noise, size=(states.shape[0], dim))


_CHANNEL_KEYS = {"core": "X_core", "aux": "X_aux", "ent": "X_ent", "v": "X_v"}


def _channels(spec: GenSpec) -> dict[str, tuple[int, float, float]]:
    """(dim, sep, noise) of each feature channel, in column order."""
    out = {"core": (spec.dim_core, spec.sep_core, spec.noise_core)}
    out["ent" if spec.graph == "D" else "aux"] = (spec.dim_aux, spec.sep_aux, spec.noise_aux)
    if spec.graph == "C":
        out["v"] = (spec.dim_v, spec.sep_v, spec.noise_v)
    return out


def _dataset(spec: GenSpec, gen, y, z, keys: dict, v=None) -> Dataset:
    """Attach one Gaussian channel per ``_channels`` entry, keyed by ``keys``."""
    parts, slices, start = [], {}, 0
    for name, (dim, sep, noise) in _channels(spec).items():
        parts.append(_gaussian_channel(keys[name], dim, sep, noise, gen))
        slices[name] = (start, start + dim)
        start += dim
    return Dataset(y, z, np.concatenate(parts, axis=1), np.ones(y.shape[0]), slices, v, spec)


def _build_law(spec: GenSpec) -> GraphTemplate:
    """The graph's template with the spec's parameters.  Channel flips are
    zero because the Gaussian channels add the feature noise."""
    if spec.graph == "B":
        names = ("x_effect", "confounder_effect", "z_flip")
        flips = {"aux_flip": 0.0}
    elif spec.graph == "C":
        names = ("confounder_strength", "label_noise", "z_flip", "v_flip", "v_z_pull")
        flips = {"core_flip": 0.0, "aux_flip": 0.0, "v_channel_flip": 0.0}
    else:
        names = ("confounding", "z_marginal")
        flips = {"core_flip": spec.label_noise}
        flips |= {"aux_flip": 0.0} if spec.graph == "A" else {"ent_p": 1.0, "ent_q": 0.0}
    return graph_template(spec.graph, **{name: getattr(spec, name) for name in names}, **flips)


def _key_table(net: Cbn) -> JointTable:
    """The exact joint over the label, the group and the channel keys."""
    return marginalize(joint(net), {"Y", "Z", "V", *_CHANNEL_KEYS.values()} & set(net.names))


def _draw(spec: GenSpec, table: JointTable, n: int, gen) -> Dataset:
    cols = dict(zip(table.names, _draw_states(table, n, gen)))
    keys = {name: cols[node] for name, node in _CHANNEL_KEYS.items() if node in cols}
    return _dataset(spec, gen, cols["Y"], cols["Z"], keys, cols.get("V"))


def generate(spec: GenSpec) -> Dataset:
    """Draw the training distribution of the spec's graph."""
    return _draw(spec, _key_table(spec.law.net), spec.n, spawn(spec.seed, _STREAM_SOURCE))


def ideal_testset(spec: GenSpec, n: int, seed: int) -> Dataset:
    """The law with the undesired dependencies absent: the group factor is
    independent of the label, graph C additionally decouples V from the
    label, and graph D's entangled channel carries neither label nor group."""
    law = spec.law
    return _draw(spec, _key_table(mutilate(law.net, GraphEdit(law.undesired))), n, spawn(seed, _STREAM_IDEAL))


def shift_testsets(
    spec: GenSpec, grid: Sequence[np.ndarray], n: int, seed: int
) -> list[Dataset]:
    """One dataset per grid point, varying only the group-given-label
    conditional; the label marginal and the channel mechanisms stay fixed.

    Grid entries follow the exact-table convention: a (2, 2) row-stochastic
    array whose [y, 0] entry is P'(Z=0 | Y=y).
    """
    family = ShiftFamily(_key_table(spec.law.net), grid)
    return [_draw(spec, family.member(k), n, spawn(seed, _STREAM_SHIFT, k)) for k in range(len(family))]


def implied_y_given_z(spec: GenSpec) -> np.ndarray:
    """Exact P(Y=y | Z=z) of the source law, as a (2, 2) array [y, z]."""
    arr = marginal_probs(_key_table(spec.law.net), ("Y", "Z"))
    return arr / arr.sum(axis=0, keepdims=True)


# -- Serialization -------------------------------------------------------------
# Delimited text with a header row; floats use repr() so numeric columns
# round-trip exactly.  A JSON sidecar carries the GenSpec and channel slices.

def _meta_path(path: str) -> str:
    return path + ".meta.json"


def save_dataset(dataset: Dataset, path: str) -> None:
    dim = dataset.x.shape[1]
    cols = ["y", "z"] + (["v"] if dataset.v is not None else []) + ["weight"]
    cols += [f"x{i}" for i in range(dim)]
    lines = [",".join(cols)]
    for i in range(len(dataset)):
        row = [str(int(dataset.y[i])), str(int(dataset.z[i]))]
        if dataset.v is not None:
            row.append(str(int(dataset.v[i])))
        row.append(repr(float(dataset.weights[i])))
        row.extend(repr(float(val)) for val in dataset.x[i])
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    meta = {
        "columns": cols,
        "channel_slices": {k: list(vs) for k, vs in dataset.channel_slices.items()},
        "genspec": None if dataset.spec is None else dataset.spec.to_dict(),
    }
    with open(_meta_path(path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path: str) -> Dataset:
    with open(_meta_path(path), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != meta["columns"]:
            raise ArgumentError(f"header {header} does not match metadata columns")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    has_v = "v" in header
    arr = np.array(rows, dtype=object)
    y = arr[:, 0].astype(np.int64)
    z = arr[:, 1].astype(np.int64)
    off = 3 if has_v else 2
    v = arr[:, 2].astype(np.int64) if has_v else None
    weights = arr[:, off].astype(float)
    x = arr[:, off + 1 :].astype(float)
    spec = None if meta["genspec"] is None else GenSpec.from_dict(meta["genspec"])
    slices = {k: tuple(vs) for k, vs in meta["channel_slices"].items()}
    return Dataset(y, z, x, weights, slices, v, spec)
