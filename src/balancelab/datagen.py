"""Tabular surrogate datasets for the four benchmark graphs.

Feature channels are Gaussian bumps keyed to discrete states: a core channel
carries the label signal, an auxiliary channel carries the group factor (or,
for the entangled graph, the OR of label and group), and graph C adds a
channel for a second factor V.  Channel means are orthogonal one-hot blocks,
so the causal structure of the benchmark graphs is preserved while everything
stays learnable by a small linear or one-hidden-layer model.

One law per graph.  For A, C and D the law is the graph's builder in
``templates`` (``template_a``, ``template_c``, ``template_d``) with the
spec's parameters and noise-free channel flips; label noise is the core flip
for A and D and part of the label mechanism for C.  Every set is one
categorical draw from an exact table over the discrete keys (Y, Z, X_core,
X_aux or X_ent, and V with X_v for graph C), followed by one Gaussian
channel per key: core <- X_core, aux <- X_aux, ent <- X_ent, v <- X_v.

  source  the template's joint over the keys;
  ideal   the joint of ``mutilate(net, GraphEdit(template.undesired))``: Z
          keeps its source marginal but not its tie to Y, C's P(V=0 | z) is
          the source P(V=0 | y, z) averaged over P(y), and D's X_ent takes
          its source marginal, independent of Y and Z;
  shift   ``ShiftFamily(source, grid).member(k)``: P(Z | Y) replaced by
          grid point k, P(Y) and the keys given (Y, Z) unchanged.

Graph B keeps a continuous sampler: the core channel causes the label through
a logistic link, with a hidden confounder feeding both the label and z; its
shifted sets reweight a source pool to the same ``ShiftFamily`` members.

All generation is deterministic given the spec seed; test-set draws derive
independent sub-streams.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .bayesnet import Cbn, GraphEdit, joint, mutilate
from .checks import ShiftFamily
from .errors import ArgumentError, SpecError
from .rng import spawn
from .tables import JointTable, Variable, _draw_states, marginalize
from .templates import GRAPH_IDS, GraphTemplate, graph_template, template_c

_STREAM_SOURCE = 0
_STREAM_IDEAL = 1
_STREAM_SHIFT = 2
_STREAM_POOL = 3
_C_LAW = inspect.signature(template_c).parameters  # graph C's law defaults live there


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one synthetic data-generating process.

    ``confounding`` is (P(Y=0|Z=0), P(Y=0|Z=1)) and applies to graphs A and
    D; graph C derives its label-group coupling from ``confounder_strength``
    and ``z_flip``; graph B from ``core_gain``/``conf_gain``/``conf_mix``.
    Fields that only apply to one graph default to None and are filled with
    per-graph defaults by ``resolved()``.
    """

    graph: str
    n: int
    seed: int = 0
    confounding: tuple[float, float] = (0.95, 0.10)
    z_marginal: float = 0.5
    dim_core: int = 6
    dim_aux: int = 6
    sep_core: float = 2.0
    sep_aux: float = 2.0
    noise_core: float = 1.0
    noise_aux: float = 1.0
    label_noise: float = 0.02
    # graph C
    dim_v: int | None = None
    sep_v: float | None = None
    noise_v: float | None = None
    v_flip: tuple[float, float] | None = None
    v_z_pull: float | None = None
    confounder_strength: float | None = None
    z_flip: float | None = None
    # graph B
    core_gain: float | None = None
    conf_gain: float | None = None
    conf_mix: float | None = None

    _C_DEFAULTS = {"dim_v": 4, "sep_v": 2.0, "noise_v": 1.0} | {
        name: _C_LAW[name].default for name in ("v_flip", "v_z_pull", "confounder_strength", "z_flip")
    }
    _B_DEFAULTS = {"core_gain": 2.0, "conf_gain": 1.2, "conf_mix": 0.8}

    def __post_init__(self) -> None:
        if self.graph not in GRAPH_IDS:
            raise SpecError(f"unknown graph {self.graph!r}; expected one of {GRAPH_IDS}")
        if self.n < 1:
            raise SpecError(f"n must be >= 1, got {self.n}")
        if self.dim_core < 1 or self.dim_aux < 1:
            raise SpecError("channel dimensions must be >= 1")
        for name in ("label_noise", "z_marginal"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SpecError(f"{name} must lie in [0, 1], got {v}")
        for name, lo, hi in (("confounding", 0.0, 1.0),):
            a, b = getattr(self, name)
            if not (lo < a < hi and lo < b < hi):
                raise SpecError(f"{name} entries must lie in ({lo}, {hi})")
        c_fields = set(self._C_DEFAULTS)
        b_fields = set(self._B_DEFAULTS)
        for name in sorted(c_fields | b_fields):
            value = getattr(self, name)
            if value is None:
                continue
            if name in c_fields and self.graph != "C":
                raise SpecError(f"{name} only applies to graph C, not {self.graph}")
            if name in b_fields and self.graph != "B":
                raise SpecError(f"{name} only applies to graph B, not {self.graph}")

    def resolved(self) -> "GenSpec":
        """Fill per-graph defaults for the fields that apply."""
        updates: dict[str, object] = {}
        if self.graph == "C":
            for name, default in self._C_DEFAULTS.items():
                if getattr(self, name) is None:
                    updates[name] = default
        if self.graph == "B":
            for name, default in self._B_DEFAULTS.items():
                if getattr(self, name) is None:
                    updates[name] = default
        return replace(self, **updates) if updates else self

    def to_dict(self) -> dict:
        out = asdict(self)
        out["confounding"] = list(self.confounding)
        if self.v_flip is not None:
            out["v_flip"] = list(self.v_flip)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GenSpec":
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
        w = np.asarray(self.weights, dtype=float)
        n = y.shape[0]
        if not (z.shape == (n,) and w.shape == (n,) and x.ndim == 2 and x.shape[0] == n):
            raise ArgumentError("column lengths disagree")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise ArgumentError("weights must be finite and non-negative")
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
        """The rows ``idx`` (a 1-D index array or slice).  New ``weights`` are
        validated; without them the rows of this validated set are kept as is."""
        v = None if self.v is None else self.v[idx]
        cols = {"y": self.y[idx], "z": self.z[idx], "x": self.x[idx], "v": v}
        if weights is not None:
            return Dataset(weights=weights, channel_slices=self.channel_slices, spec=self.spec, **cols)
        if cols["y"].ndim != 1:
            raise ArgumentError("row index must be one-dimensional")
        out = object.__new__(Dataset)
        cols |= {"weights": self.weights[idx], "channel_slices": dict(self.channel_slices), "spec": self.spec}
        for name, value in cols.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(out, name, value)
        return out

    def with_weights(self, weights: np.ndarray) -> "Dataset":
        return Dataset(self.y, self.z, self.x, weights, self.channel_slices, self.v, self.spec)


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


def _dataset(spec: GenSpec, gen, y, z, keys: dict, v=None, x_core=None) -> Dataset:
    """Attach one Gaussian channel per ``_channels`` entry, keyed by ``keys``;
    graph B passes its continuous core block as ``x_core`` instead."""
    parts, slices, start = [], {}, 0
    for name, (dim, sep, noise) in _channels(spec).items():
        if name == "core" and x_core is not None:
            parts.append(x_core)
        else:
            parts.append(_gaussian_channel(keys[name], dim, sep, noise, gen))
        slices[name] = (start, start + dim)
        start += dim
    return Dataset(y, z, np.concatenate(parts, axis=1), np.ones(y.shape[0]), slices, v, spec)


def _law(spec: GenSpec) -> GraphTemplate:
    """Graph A, C or D's template with the spec's parameters.  Channel flips
    are zero because the Gaussian channels add the feature noise."""
    if spec.graph == "C":
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


def _generate_b(spec: GenSpec, n: int, gen, mode: str) -> Dataset:
    """Graph B: the core channel causes the label; a hidden confounder links
    the label and z unless the ideal law cuts it."""
    x_core = gen.normal(0.0, spec.noise_core, size=(n, spec.dim_core))
    s = x_core[:, 0] / spec.noise_core
    u = (gen.random(n) < 0.5).astype(np.int64)
    logits = spec.core_gain * s
    if mode != "ideal":
        logits = logits + spec.conf_gain * (2 * u - 1)
    y = (gen.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    if mode == "ideal":
        z = (gen.random(n) < 0.5).astype(np.int64)
    else:
        keep = gen.random(n) < spec.conf_mix
        z = np.where(keep, u, (gen.random(n) < 0.5).astype(np.int64))
    return _dataset(spec, gen, y, z, {"aux": z}, x_core=x_core)


def generate(spec: GenSpec) -> Dataset:
    """Draw the training distribution of the spec's graph."""
    spec = spec.resolved()
    gen = spawn(spec.seed, _STREAM_SOURCE)
    if spec.graph == "B":
        return _generate_b(spec, spec.n, gen, "source")
    return _draw(spec, _key_table(_law(spec).net), spec.n, gen)


def ideal_testset(spec: GenSpec, n: int, seed: int) -> Dataset:
    """The law with the undesired dependencies absent: the group factor is
    independent of the label, graph C additionally decouples V from the
    label, and graph D's entangled channel carries neither label nor group."""
    spec = spec.resolved()
    gen = spawn(seed, _STREAM_IDEAL)
    if spec.graph == "B":
        return _generate_b(spec, n, gen, "ideal")
    law = _law(spec)
    return _draw(spec, _key_table(mutilate(law.net, GraphEdit(law.undesired))), n, gen)


def shift_testsets(
    spec: GenSpec, grid: Sequence[np.ndarray], n: int, seed: int
) -> list[Dataset]:
    """One dataset per grid point, varying only the group-given-label
    conditional; the label marginal and the channel mechanisms stay fixed.

    Grid entries follow the exact-table convention: a (2, 2) row-stochastic
    array whose [y, 0] entry is P'(Z=0 | Y=y).
    """
    spec = spec.resolved()
    if spec.graph != "B":
        family = ShiftFamily(_key_table(_law(spec).net), grid)
        return [_draw(spec, family.member(k), n, spawn(seed, _STREAM_SHIFT, k)) for k in range(len(family))]
    pool_n = min(max(25 * n, 20_000), 200_000)
    pool = _generate_b(spec, pool_n, spawn(seed, _STREAM_POOL), "source")
    counts = np.bincount(2 * pool.y + pool.z, minlength=4).reshape(2, 2)
    source = JointTable((Variable("Y", 2), Variable("Z", 2)), counts / counts.sum())
    family = ShiftFamily(source, grid)
    out = []
    for k in range(len(family)):
        w = (family.member(k).probs / source.probs)[pool.y, pool.z]
        idx = spawn(seed, _STREAM_SHIFT, k).choice(pool_n, size=n, replace=True, p=w / w.sum())
        out.append(pool.take(idx, weights=np.ones(n)))
    return out


def implied_y_given_z(spec: GenSpec) -> np.ndarray:
    """Exact P(Y=y | Z=z) of the source law, as a (2, 2) array [y, z].

    Graph B has no closed form here and is estimated by the callers that
    need it.
    """
    spec = spec.resolved()
    if spec.graph == "B":
        raise ArgumentError("graph B's label-group conditional has no closed form here")
    pair = marginalize(_key_table(_law(spec).net), {"Y", "Z"})
    arr = np.transpose(pair.probs, pair.axes(("Y", "Z")))
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
