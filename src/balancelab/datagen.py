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
  ideal   the joint of ``mutilate(net, template.undesired)``: Z
          keeps its source marginal but not its tie to Y, B's label keeps
          only its X_core mechanism (the confounder averaged out), C's
          P(V=0 | z) is the source P(V=0 | y, z) averaged over P(y), and D's
          X_ent takes its source marginal, independent of Y and Z;
  shift   ``ShiftFamily(source, grid).member(k)``: P(Z | Y) replaced by
          grid point k, P(Y) and the keys given (Y, Z) unchanged.  The
          members are drawn together, coupled: every set shares Y, and one
          uniform per row sets each member's Z against its grid point, so
          the sets share their keys and feature noise wherever their Z
          agrees.  Each set is an exact i.i.d. draw of its member, but the
          sets are not independent of each other.

All generation is deterministic given the spec seed; test-set draws derive
independent sub-streams.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .bayesnet import Cbn, joint, mutilate
from .checks import ShiftFamily
from .errors import ArgumentError, SpecError
from .rng import is_int, spawn
from .tables import JointTable, _checked_weights, _draw_states, _frozen, marginal_probs, marginalize
from .templates import GRAPH_IDS, GraphTemplate, graph_template, template_a, template_b, template_c

# each channel's dim_*, sep_* and noise_* knob: a test and the rule it states
_CHANNEL_RULES = {
    "dim": (lambda v: v >= 1, ">= 1"),
    "sep": (np.isfinite, "finite"),
    "noise": (lambda v: np.isfinite(v) and v >= 0, "finite and >= 0"),
}

_STREAM_SOURCE = 0
_STREAM_IDEAL = 1
_STREAM_SHIFT = 2
# the law defaults live in the template builders' signatures
_A_LAW = inspect.signature(template_a).parameters
_B_LAW = inspect.signature(template_b).parameters
_C_LAW = inspect.signature(template_c).parameters
_V_CHANNEL = {"dim_v": 4, "sep_v": 2.0, "noise_v": 1.0}  # C's v feature channel, not part of its law
# A and D share the confounded (Y, Z) law and flip X_core with C's default label noise
_PAIR_LAW = {n: _A_LAW[n].default for n in ("confounding", "z_marginal")} | {"label_noise": _C_LAW["label_noise"].default}
# the channel settings each law gets: noise-free, since the Gaussian channels add the feature noise
_CLEAN_CHANNELS = {
    "A": {"aux_flip": 0.0},
    "B": {"aux_flip": 0.0},
    "C": {"core_flip": 0.0, "aux_flip": 0.0, "v_channel_flip": 0.0},
    "D": {"ent_p": 1.0, "ent_q": 0.0},
}


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
    confounding: tuple[float, float] | None = None  # graphs A and D
    z_marginal: float | None = None  # graphs A and D
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

    # each graph's own fields and their defaults; all but C's v channel are law parameters
    _GRAPH_DEFAULTS = {
        "A": _PAIR_LAW,
        "B": {name: _B_LAW[name].default for name in ("x_effect", "confounder_effect", "z_flip")},
        "C": _V_CHANNEL
        | {n: _C_LAW[n].default for n in ("label_noise", "v_flip", "v_z_pull", "confounder_strength", "z_flip")},
        "D": _PAIR_LAW,
    }

    def __post_init__(self) -> None:
        if self.graph not in GRAPH_IDS:
            raise SpecError(f"unknown graph {self.graph!r}; expected one of {GRAPH_IDS}")
        if not (is_int(self.n) and is_int(self.seed)):
            raise SpecError(f"n and seed must be integers, got n={self.n!r}, seed={self.seed!r}")
        if self.n < 1:
            raise SpecError(f"n must be >= 1, got {self.n}")
        if self.seed < 0:
            raise SpecError(f"seed must be non-negative, got {self.seed}")
        for part in ("core", "aux", "v"):
            for knob, (valid, rule) in _CHANNEL_RULES.items():
                value = getattr(self, f"{knob}_{part}")
                if value is not None and not valid(value):
                    raise SpecError(f"{knob}_{part} must be {rule}, got {value}")
        for name in ("label_noise", "z_marginal"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise SpecError(f"{name} must lie in [0, 1], got {v}")
        pair = self.confounding
        if pair is not None and not (np.shape(pair) == (2,) and all(0.0 < p < 1.0 for p in pair)):
            raise SpecError(f"confounding must be two entries in (0.0, 1.0), got {pair!r}")
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
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GenSpec":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise SpecError(f"unknown GenSpec fields {sorted(unknown)}")
        data = dict(data)
        for name in ("confounding", "v_flip"):
            if data.get(name) is not None:
                data[name] = tuple(data[name])
        return cls(**data)


def _int_column(values, name: str) -> np.ndarray:
    """``values`` as int64, refusing any value that the cast would change."""
    arr = np.asarray(values)
    with np.errstate(invalid="ignore"):  # NaN and inf are caught below
        out = arr.astype(np.int64, copy=False)
    if out is not arr and not np.array_equal(out, arr):
        raise ArgumentError(f"{name} must hold whole numbers; a {arr.dtype} value would change as int64")
    return out


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
        y, z = _int_column(self.y, "y"), _int_column(self.z, "z")
        x = np.asarray(self.x, dtype=float)
        n = y.shape[0]
        if not (z.shape == (n,) and x.ndim == 2 and x.shape[0] == n):
            raise ArgumentError("column lengths disagree")
        w = _checked_weights(self.weights, n)
        if not np.all((y == 0) | (y == 1)):
            raise ArgumentError("labels y must be 0 or 1")
        v = None if self.v is None else _int_column(self.v, "v")
        if v is not None and v.shape != (n,):
            raise ArgumentError("v column length disagrees")
        covered = sorted(self.channel_slices.values())
        edges = [0] + [stop for _, stop in covered]
        starts = [start for start, _ in covered]
        if starts != edges[:-1] or edges[-1] != x.shape[1]:
            raise ArgumentError(
                f"channel slices {self.channel_slices} do not partition {x.shape[1]} columns"
            )
        for name, arr in {"y": y, "z": z, "x": x, "weights": w, "v": v}.items():
            if arr is not None:
                arr = _frozen(arr)
            object.__setattr__(self, name, arr)
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
        w = self.weights[idx] if weights is None else _frozen(_checked_weights(weights, y.shape[0]))
        v = None if self.v is None else self.v[idx]
        # np.take gathers whole rows faster than x[idx], but would read a mask's True/False as rows 1/0
        plain = isinstance(idx, slice) or np.asarray(idx).dtype == bool
        x = self.x[idx] if plain else np.take(self.x, idx, axis=0)
        out = object.__new__(Dataset)
        cols = {"y": y, "z": self.z[idx], "x": x, "weights": w, "v": v}
        cols |= {"channel_slices": dict(self.channel_slices), "spec": self.spec}
        for name, value in cols.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(out, name, value)
        return out

    def with_weights(self, weights: np.ndarray) -> "Dataset":
        return self.take(slice(None), weights)


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


def _gaussian_channel(out: np.ndarray, states: np.ndarray, sep: float, noise: float, gen) -> None:
    """Write each row's state mean plus Gaussian noise into the block ``out``."""
    means = _block_means(out.shape[1], sep)
    np.add(means.take(states, axis=0), gen.normal(0.0, noise, size=out.shape), out=out)


_CHANNEL_KEYS = {"core": "X_core", "aux": "X_aux", "ent": "X_ent", "v": "X_v"}


def _channels(spec: GenSpec) -> dict[str, tuple[int, float, float]]:
    """(dim, sep, noise) of each feature channel, in column order."""
    out = {"core": (spec.dim_core, spec.sep_core, spec.noise_core)}
    out["ent" if spec.graph == "D" else "aux"] = (spec.dim_aux, spec.sep_aux, spec.noise_aux)
    if spec.graph == "C":
        out["v"] = (spec.dim_v, spec.sep_v, spec.noise_v)
    return out


def _dataset(spec: GenSpec, gen, y, z, keys: dict, v=None) -> Dataset:
    """Attach one Gaussian channel per ``_channels`` entry, keyed by ``keys``:
    ``x`` is allocated once and each channel is written into its own block of
    columns, in ``_channels`` order."""
    channels = _channels(spec)
    x = np.empty((y.shape[0], sum(dim for dim, _, _ in channels.values())))
    slices, start = {}, 0
    for name, (dim, sep, noise) in channels.items():
        slices[name] = (start, start + dim)
        _gaussian_channel(x[:, start : start + dim], keys[name], sep, noise, gen)
        start += dim
    return Dataset(y, z, x, np.ones(y.shape[0]), slices, v, spec)


def _member_features(spec: GenSpec, gen, keys: dict, z: np.ndarray) -> tuple[list[np.ndarray], dict]:
    """Every member's ``x`` and the channel slices.  ``keys`` holds each
    channel's key under every Z value, as (Z values, rows); member k's row i
    takes the key drawn under its own Z value ``z[k, i]``, and each channel's
    noise is drawn once for all members.  Each ``x`` is allocated on its
    own: one stacked array for all members raised the peak resident memory
    of a loop of ``paper-grid`` tasks."""
    channels = _channels(spec)
    n = z.shape[1]
    x = [np.empty((n, sum(dim for dim, _, _ in channels.values()))) for _ in z]
    picks = z * n + np.arange(n)  # each member's row among the (Z value, row) keys
    slices, start = {}, 0
    for name, (dim, sep, noise) in channels.items():
        slices[name] = (start, start + dim)
        means, key, shared = _block_means(dim, sep), keys[name].ravel(), gen.normal(0.0, noise, size=(n, dim))
        for member_x, pick in zip(x, picks):
            np.add(means.take(key.take(pick), axis=0), shared, out=member_x[:, start : start + dim])
        start += dim
    return x, slices


def _build_law(spec: GenSpec) -> GraphTemplate:
    """The graph's template with the spec's law fields and clean channels;
    A's and D's ``label_noise`` is their core flip."""
    rename = {"label_noise": "core_flip"} if spec.graph in ("A", "D") else {}
    law = {rename.get(n, n): getattr(spec, n) for n in spec._GRAPH_DEFAULTS[spec.graph] if n not in _V_CHANNEL}
    return graph_template(spec.graph, **law, **_CLEAN_CHANNELS[spec.graph])


def _key_table(net: Cbn) -> JointTable:
    """The exact joint over the label, the group and the channel keys."""
    return marginalize(joint(net), {"Y", "Z", "V", *_CHANNEL_KEYS.values()} & set(net.names))


def _check_size(n) -> None:
    if not (is_int(n) and n >= 1):
        raise ArgumentError(f"n must be an integer >= 1, got {n!r}")


def _channel_keys(cols: dict) -> dict:
    return {name: cols[node] for name, node in _CHANNEL_KEYS.items() if node in cols}


def _draw(spec: GenSpec, table: JointTable, n: int, gen) -> Dataset:
    _check_size(n)
    cols = dict(zip(table.names, _draw_states(table, n, gen)))
    return _dataset(spec, gen, cols["Y"], cols["Z"], _channel_keys(cols), cols.get("V"))


def _pick(masses: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """Per row r, the state of ``masses[rows]`` (states on the last axis)
    whose bin of the cumulative masses holds ``u[r]`` (in [0, 1)) times
    their total: an exact draw by inversion.  A state after the last one with
    mass is never picked, and a row without mass picks state 0; nothing is
    divided, and no (rows, states) array is built."""
    cdf = np.cumsum(masses, axis=-1)
    total = cdf[..., -1]
    edges = np.where(cdf < total[..., None], cdf, np.inf)
    scaled = u * total[rows]
    state = np.zeros(scaled.shape, dtype=np.int64)
    for edge in np.moveaxis(edges[..., :-1], -1, 0):  # the last edge is inf
        state += scaled >= edge[rows]
    return state


def generate(spec: GenSpec) -> Dataset:
    """Draw the training distribution of the spec's graph."""
    return _draw(spec, _key_table(spec.law.net), spec.n, spawn(spec.seed, _STREAM_SOURCE))


def ideal_testset(spec: GenSpec, n: int, seed: int) -> Dataset:
    """The law with the undesired dependencies absent: the group factor is
    independent of the label, graph C additionally decouples V from the
    label, and graph D's entangled channel carries neither label nor group."""
    law = spec.law
    return _draw(spec, _key_table(mutilate(law.net, law.undesired)), n, spawn(seed, _STREAM_IDEAL))


def shift_testsets(
    spec: GenSpec, grid: Sequence[np.ndarray], n: int, seed: int
) -> list[Dataset]:
    """One dataset per grid point, varying only the group-given-label
    conditional; the label marginal and the channel mechanisms stay fixed.

    Grid entries follow the exact-table convention: a (2, 2) row-stochastic
    array whose [y, 0] entry is P'(Z=0 | Y=y).

    The sets are one coupled draw.  Row i of every set has the same Y, drawn
    from the source P(y); one uniform per row sets each member's Z against
    its grid point; the keys (and C's V) are drawn once under each value of
    Z from the source P(keys | y, z), with one uniform per row shared by the
    Z values, and each channel's Gaussian noise is drawn once.  Member k's
    row i is the row drawn under its own Z.  So each set is an exact i.i.d.
    draw of its member, but the sets are not independent of each other: two
    members that agree on a row's Z have the same keys and features there,
    and a model's risk differences across the family carry little noise.
    """
    _check_size(n)
    table = _key_table(spec.law.net)
    family = ShiftFamily(table, grid)  # checks the grid; raises if a member weights an empty (Y, Z) cell
    names = ("Y", "Z") + tuple(name for name in table.names if name not in ("Y", "Z"))
    probs = np.transpose(table.probs, table.axes(names))
    cells = probs.reshape(probs.shape[:2] + (-1,))  # P(y, z, keys)
    gen = spawn(seed, _STREAM_SHIFT)
    y = _pick(cells.sum(axis=(1, 2)), ..., gen.random(n))
    z = _pick(np.stack(family.grid), (slice(None), y), gen.random(n))  # (members, rows)
    keys = np.unravel_index(_pick(cells.swapaxes(0, 1), (slice(None), y), gen.random(n)), probs.shape[2:])
    cols = dict(zip(names[2:], keys))  # each key under every Z value, as (Z values, rows)
    x, slices = _member_features(spec, gen, _channel_keys(cols), z)
    v, rows, ones = cols.get("V"), np.arange(n), np.ones(n)
    return [
        Dataset(y, member_z, member_x, ones, slices, None if v is None else v[member_z, rows], spec)
        for member_z, member_x in zip(z, x)
    ]


def implied_y_given_z(spec: GenSpec) -> np.ndarray:
    """Exact P(Y=y | Z=z) of the source law, as a (2, 2) array [y, z]."""
    arr = marginal_probs(_key_table(spec.law.net), ("Y", "Z"))
    return arr / arr.sum(axis=0, keepdims=True)
