"""Exact finite discrete joint distributions.

A ``JointTable`` is a dense probability tensor over named discrete variables.
All proposition checking in this package reduces to exact arithmetic on these
tables: marginalization, conditioning, independence gaps (one kernel, shared
with ``bayesnet``), and sampling.  Tables derived from valid ones skip
re-validation.  The chi-squared p-value is computed here with ``math``
alone, so no path through the package loads SciPy.

Values are immutable after construction and safe for concurrent reads.
Because they never change, a pure exact result is computed once per
object: ``is_independent`` stores its report on the table it reads and
``balancing.balance_exact`` its balanced table on the source table, both
through ``_once``.  A stored result lives as long as the object that holds it, and
equal but distinct objects share nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DegenerateContingency,
    DegenerateEvidence,
    NumericsError,
    UnknownVariableError,
)
from .rng import is_int, is_real, spawn

PROB_TOL = 1e-12
MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class Variable:
    """A named discrete variable with states ``0 .. cardinality-1``."""

    name: str
    cardinality: int

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ArgumentError(f"variable name must be a non-empty string, got {self.name!r}")
        if isinstance(self.cardinality, bool) or not isinstance(self.cardinality, (int, np.integer)):
            raise ArgumentError(f"variable {self.name!r} needs an integer cardinality, got {self.cardinality!r}")
        if self.cardinality < 2:
            raise ArgumentError(
                f"variable {self.name!r} needs cardinality >= 2, got {self.cardinality}"
            )


def _dense_shape(variables: Sequence[Variable]) -> tuple[int, ...]:
    """The variables' cardinalities, checked against the dense cap."""
    shape = tuple(v.cardinality for v in variables)
    if prod(shape) > MAX_CELLS:
        raise ArgumentError(f"joint size {prod(shape)} exceeds the dense cap of {MAX_CELLS} cells")
    return shape


def _check_unique(variables: Sequence[Variable]) -> None:
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ArgumentError(f"duplicate variable names: {names}")


class _Named:
    """Name lookup for a value whose ``__post_init__`` stores the tuple of its
    variables' names as ``_names``."""

    @property
    def names(self) -> tuple[str, ...]:
        return self._names  # type: ignore[attr-defined]

    def axis(self, name: str) -> int:
        try:
            return self._names.index(name)  # type: ignore[attr-defined]
        except ValueError:
            raise UnknownVariableError(f"unknown variable {name!r}; have {self.names}") from None


@dataclass(frozen=True)
class JointTable(_Named):
    """An exact joint distribution over an ordered tuple of variables."""

    variables: tuple[Variable, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        _check_unique(variables)
        shape = _dense_shape(variables)
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != shape:
            raise ArgumentError(f"probs shape {probs.shape} does not match variables {shape}")
        if not np.all(probs >= 0):  # also catches NaN, which every comparison fails
            raise ArgumentError("probabilities must be non-negative numbers")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ArgumentError(f"cells must sum to 1 within {PROB_TOL}, got {total!r}")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_names", tuple(v.name for v in variables))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    def axes(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.axis(n) for n in names)

    def variable(self, name: str) -> Variable:
        return self.variables[self.axis(name)]


def _once(owner, key, compute):
    """``compute()``, run on the first request for ``key`` and stored in the
    instance ``__dict__`` of the immutable ``owner``, which it then lives as
    long as.  ``compute`` must be pure, so a stored result is bit for bit a
    fresh one; one that raises stores nothing.  Two concurrent first
    requests may both compute, with equal results.  The call sites use keys
    of distinct types, so they share one dict without clashing."""
    memo = owner.__dict__.setdefault("_memo", {})
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _derived(variables: tuple[Variable, ...], probs: np.ndarray) -> JointTable:
    """A table whose ``probs`` come from a valid table: made C-contiguous
    and read-only, not re-validated."""
    out = object.__new__(JointTable)
    object.__setattr__(out, "variables", variables)
    object.__setattr__(out, "probs", _frozen(np.ascontiguousarray(probs)))
    object.__setattr__(out, "_names", tuple(v.name for v in variables))
    return out


def marginalize(table: JointTable, keep: Iterable[str]) -> JointTable:
    """Sum out every variable not in ``keep``, preserving variable order."""
    if not (keep := set(keep)):
        raise ArgumentError("keep must be non-empty")
    axes = sorted(table.axes(keep))
    return _derived(tuple(table.variables[i] for i in axes), _marginal(table.probs, axes))


def marginal_probs(table: JointTable, names: Sequence[str]) -> np.ndarray:
    """P(names) as a bare array with one axis per name, in the given order."""
    names = tuple(names)
    if len(set(names)) != len(names):
        raise ArgumentError(f"duplicate variable names: {names}")
    return _marginal(table.probs, table.axes(names))


def _marginal(probs: np.ndarray, axes: Sequence[int], lead: int = 0) -> np.ndarray:
    """The marginal kernel: the table ``axes``, counted after the ``lead``
    draw axes of ``probs``, kept in the given order, the others summed out."""
    drop = tuple(i for i in range(lead, probs.ndim) if i - lead not in axes)
    probs = probs.sum(axis=drop) if drop else probs
    kept = sorted(axes)
    return probs.transpose([*range(lead), *(lead + kept.index(a) for a in axes)])


def condition(table: JointTable, evidence: Mapping[str, int]) -> JointTable:
    """Condition on ``evidence`` and return the table over the remaining variables.

    Raises DegenerateEvidence when the evidence event has zero probability.
    Conditioning on all variables is allowed only through open slots, so at
    least one variable must remain.
    """
    if not evidence:
        return table
    index: list[object] = [slice(None)] * len(table.variables)
    for name, state in evidence.items():
        ax = table.axis(name)
        card = table.variables[ax].cardinality
        if isinstance(state, bool) or not isinstance(state, (int, np.integer)) or not 0 <= state < card:
            raise ArgumentError(f"state {state!r} of {name!r} is not an integer in [0, {card})")
        index[ax] = int(state)
    sliced = table.probs[tuple(index)]
    mass = float(sliced.sum())
    if mass == 0.0:
        raise DegenerateEvidence(f"evidence {dict(evidence)} has zero probability")
    remaining = tuple(v for v in table.variables if v.name not in evidence)
    if not remaining:
        raise ArgumentError("conditioning on every variable leaves an empty table")
    return _derived(remaining, sliced / mass)


@dataclass(frozen=True)
class IndependenceReport:
    """Outcome of a conditional-independence check on an exact table.

    ``max_gap`` is the largest |P(a,b|g) - P(a|g)P(b|g)| over joint states of
    the two sets and every conditioning state with positive probability;
    ``argmax_state`` names the state attaining it.
    """

    independent: bool
    max_gap: float
    argmax_state: dict[str, int] | None
    tol: float

    def __bool__(self) -> bool:
        return self.independent


def is_independent(
    table: JointTable,
    a: Iterable[str],
    b: Iterable[str],
    given: Iterable[str] = (),
    tol: float = 1e-9,
) -> IndependenceReport:
    """Check a ⊥ b | given on an exact table.

    Conditioning states with zero probability are skipped.  ``tol`` must be
    finite and positive; exact tables usually use the 1e-9 default while
    empirical tables pass something wider.  Of several states attaining the
    largest gap the last wins, and within it the first (a, b) cell.  The
    report is computed once per table and (a, b, given, tol) and stored on
    the table; each call gets its own ``argmax_state`` dict.
    """
    a, b, given = tuple(a), tuple(b), tuple(given)
    if not (is_real(tol) and tol > 0):
        raise ArgumentError(f"tol must be a finite positive real, got {tol!r}")
    if not a or not b:
        raise ArgumentError("a and b must be non-empty")
    groups = (set(a), set(b), set(given))
    if (groups[0] & groups[1]) or (groups[0] & groups[2]) or (groups[1] & groups[2]):
        raise ArgumentError(f"a, b, given must be disjoint, got {a}, {b}, {given}")
    report = _once(table, (a, b, given, tol), lambda: _independence(table, a, b, given, tol))
    return IndependenceReport(report.independent, report.max_gap, dict(report.argmax_state), report.tol)


def _independence(table: JointTable, a: tuple, b: tuple, given: tuple, tol: float) -> IndependenceReport:
    """``is_independent``'s report on validated arguments."""
    arr = marginal_probs(table, a + b + given)
    shapes = (arr.shape[: len(a)], arr.shape[len(a) : len(a) + len(b)], arr.shape[len(a) + len(b) :])
    live, diff = _state_gaps(arr.reshape(prod(shapes[0]), prod(shapes[1]), -1))
    gaps = np.where(live, diff.max(axis=1), -1.0)  # a state without mass never attains the largest gap
    k = len(gaps) - 1 - int(gaps[::-1].argmax())
    max_gap = float(gaps[k])

    ai, bi = np.unravel_index(int(diff[k].argmax()), (prod(shapes[0]), prod(shapes[1])))
    argmax_state: dict[str, int] = {}
    for names, shape, index in zip((a, b, given), shapes, (ai, bi, k)):
        for name, state in zip(names, np.unravel_index(int(index), shape)):
            argmax_state[name] = int(state)
    return IndependenceReport(max_gap <= tol, max_gap, argmax_state, tol)


def _state_gaps(flat: np.ndarray, lead: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The gap kernel.  ``flat`` is P(a, b, given) after ``lead`` draw axes,
    reshaped to one axis of a's joint states, one of b's and one of given's.
    Per draw and given state g it returns whether g has mass and
    |P(a, b | g) - P(a | g) P(b | g)| of every (a, b) cell in row-major order
    (0 without mass), as its table alone gives.  Every sum runs in the
    memory order of the table's slice, as numpy's sum of the slice does: one
    ulp off moves the gaps and can break exact ties."""
    gab = flat.transpose(*range(lead), lead + 2, lead, lead + 1)
    outer = flat.strides[lead] >= flat.strides[lead + 1]  # a's axis is the outer one in memory
    slices = np.ascontiguousarray(gab if outer else gab.swapaxes(-1, -2))
    mass = np.add.reduce(slices.reshape(slices.shape[:-2] + (-1,)), axis=-1)
    live = mass > 0  # a state without mass has only zero cells, which divide to 0
    pab = slices / np.where(live, mass, 1.0)[..., None, None]
    pab = pab if outer else pab.swapaxes(-1, -2)  # (a, b) cells in the memory order of the table's slices
    diff = np.abs(pab - np.add.reduce(pab, axis=-1, keepdims=True) * np.add.reduce(pab, axis=-2, keepdims=True))
    return live, diff.reshape(diff.shape[:-2] + (-1,))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``; ``arr`` itself, which may be the
    caller's own array, stays as it was."""
    view = arr.view()
    view.setflags(write=False)
    return view


def _checked_weights(weights, n: int) -> np.ndarray:
    """``weights`` as a float array of one finite, non-negative value per row."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ArgumentError(f"weights must have shape ({n},), got {w.shape}")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ArgumentError("weights must be finite and non-negative")
    return w


def _scale_exponent(top: float) -> int:
    """The exponent e that puts ``top``, the largest of some non-negative
    weight sums, times 2^-e in [0.5, 1).  Scaling by a power of two is
    exact, so sums scaled by 2^-e give the bits of the unscaled ones in any
    product or ratio that neither overflows nor underflows unscaled, and
    none that does scaled.  A sum past the float range raises NumericsError."""
    if not math.isfinite(top):
        raise NumericsError("the weights sum past the float range")
    return math.frexp(top)[1]


@dataclass(frozen=True)
class SampleBatch(_Named):
    """Finite weighted samples of a joint distribution.

    ``rows`` holds one joint state per row as integer state indices in the
    order of ``variables``; ``weights`` are non-negative reals (1.0 by
    default).
    """

    variables: tuple[Variable, ...]
    rows: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        _check_unique(variables)
        rows = np.array(self.rows, dtype=np.int64, order="C")
        if rows.ndim != 2 or rows.shape[1] != len(variables):
            raise ArgumentError(f"rows must be (n, {len(variables)}), got {rows.shape}")
        # one pass over every state, a column at a time (a long inner loop against
        # one cardinality); a negative state wraps to a huge unsigned one
        cards = np.array([v.cardinality for v in variables], dtype=np.uint64)
        inside = np.less(rows.view(np.uint64).T, cards[:, None], order="C")
        if not inside.all():
            bad = variables[int(np.flatnonzero(~inside.all(axis=1))[0])]
            raise ArgumentError(f"state index out of range for variable {bad.name!r}")
        weights = _checked_weights(np.array(self.weights, dtype=float), rows.shape[0])
        rows.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_names", tuple(v.name for v in variables))

    def __len__(self) -> int:
        return self.rows.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.axis(name)]

    def with_rows(self, rows: np.ndarray, weights: np.ndarray) -> "SampleBatch":
        """A batch of ``rows`` taken from this validated batch, kept as they
        are (no copy, no range check), with new ``weights``, which are checked."""
        return _trusted_batch(self.variables, rows, _checked_weights(weights, rows.shape[0]))

    def empirical_table(self) -> JointTable:
        """Weighted empirical frequencies as an exact table."""
        if len(self) == 0:
            raise ArgumentError("cannot build an empirical table from an empty batch")
        shape = _dense_shape(self.variables)
        flat = np.ravel_multi_index(tuple(self.rows.T), shape)
        counts = np.bincount(flat, weights=self.weights, minlength=prod(shape))
        counts = np.ldexp(counts, -_scale_exponent(counts.max()))
        total = counts.sum()
        if total == 0:
            raise ArgumentError("total weight is zero")
        return JointTable(self.variables, (counts / total).reshape(shape))


def _trusted_batch(variables: tuple[Variable, ...], rows: np.ndarray, weights: np.ndarray) -> SampleBatch:
    """A batch of int64, C-contiguous ``rows`` that are in range by
    construction and checked ``weights``, both kept as they are (no copy, no
    check) and made read-only."""
    out = object.__new__(SampleBatch)
    object.__setattr__(out, "variables", variables)
    object.__setattr__(out, "rows", _frozen(rows))
    object.__setattr__(out, "weights", _frozen(weights))
    object.__setattr__(out, "_names", tuple(v.name for v in variables))
    return out


def _draw_states(table: JointTable, n: int, gen: np.random.Generator) -> tuple[np.ndarray, ...]:
    """One categorical draw of ``n`` joint states: a state column per variable.

    Only cells with positive mass enter the search; the states of each
    variable are then read off per drawn cell.
    """
    cells = np.flatnonzero(table.probs)
    cdf = np.cumsum(table.probs.ravel()[cells])
    cdf[-1] = 1.0
    pick = np.searchsorted(cdf, gen.random(n), side="right")
    return tuple(states[pick] for states in np.unravel_index(cells, table.shape))


def _pick(masses: np.ndarray, rows, u: np.ndarray) -> np.ndarray:
    """Per row r, the state of ``masses[rows]`` (at least two states, on the
    last axis) whose bin of the cumulative masses holds ``u[r]`` (in [0, 1))
    times their total: an exact draw by inversion.  A state after the last
    one with mass is never picked, and a row without mass picks state 0;
    nothing is divided, and no (rows, states) array is built."""
    cdf = np.cumsum(masses, axis=-1)
    total = cdf[..., -1]
    edges = np.where(cdf < total[..., None], cdf, np.inf)
    scaled = u * total[rows]
    first, *rest = np.moveaxis(edges[..., :-1], -1, 0)  # the last edge is inf
    state = (scaled >= first[rows]).astype(np.int64)  # a fresh np.zeros would fault its pages in on the first add
    for edge in rest:
        state += scaled >= edge[rows]
    return state


def sample(table: JointTable, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` i.i.d. rows from the table; deterministic given ``seed``."""
    if not (is_int(n) and n >= 1):
        raise ArgumentError(f"n must be an integer >= 1, got {n!r}")
    return _trusted_batch(table.variables, np.column_stack(_draw_states(table, n, spawn(seed))), np.ones(n))


def chi2_independence(batch: SampleBatch, a: str, b: str) -> tuple[float, float]:
    """Pearson chi-squared test of a ⊥ b on the weighted contingency table.

    Returns (statistic, p_value) with (|a|-1)(|b|-1) degrees of freedom.
    The p-value is ``_chi2_sf``'s upper tail, which agrees with
    ``scipy.special.chdtrc`` within a relative 1e-12 wherever p >= 1e-300,
    for up to 1000 degrees of freedom.
    A contingency row or column with zero total raises DegenerateContingency;
    weights that sum past the float range, or lie so far apart that the
    statistic is not finite, raise NumericsError.
    """
    if len(batch) == 0:
        raise ArgumentError("batch is empty")
    ca = batch.variables[batch.axis(a)].cardinality
    cb = batch.variables[batch.axis(b)].cardinality
    if a == b:
        raise ArgumentError(f"cannot test {a!r} against itself")
    # bincount sums each cell's weights in row order; the statistic scales
    # with the table, so it is taken on the scaled table and scaled back
    cells = batch.column(a) * cb + batch.column(b)
    table = np.bincount(cells, weights=batch.weights, minlength=ca * cb).reshape(ca, cb)
    shift = _scale_exponent(table.max())
    table = np.ldexp(table, -shift)
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    if np.any(rows == 0) or np.any(cols == 0):
        raise DegenerateContingency(
            f"zero-total row/column in the ({a}, {b}) contingency table (zero, or too small "
            "against its largest cell to represent)"
        )
    with np.errstate(all="ignore"):  # weights far apart can underflow an expected cell; checked below
        expected = np.outer(rows, cols) / table.sum()
        statistic = float(np.ldexp(((table - expected) ** 2 / expected).sum(), shift))
    if not math.isfinite(statistic):
        raise NumericsError(f"the chi-squared statistic of ({a}, {b}) is not finite: its weights span too much of the float range")
    return statistic, _chi2_sf((ca - 1) * (cb - 1), statistic)


def _chi2_sf(dof: int, statistic: float) -> float:
    """P(chi-squared with ``dof`` degrees > ``statistic``): the regularized
    upper incomplete gamma Q(dof/2, statistic/2).  A power series gives the
    lower tail below dof/2 + 1 and Lentz's continued fraction the upper tail
    above it (Numerical Recipes, 6.2)."""
    x = statistic / 2
    if not x > 0:
        return 1.0
    if dof == 1:
        return math.erfc(math.sqrt(x))
    if dof == 2:
        return math.exp(-x)
    a = dof / 2
    log_front = a * math.log(x) - x - math.lgamma(a)  # log of x^a e^-x / Gamma(a)
    if x < a + 1:
        term = total = 1 / a
        n = a
        while term > total * 1e-17:
            n += 1
            term *= x / n
            total += term
        return 1.0 - total * math.exp(log_front)
    tiny = 1e-300  # keeps a vanishing denominator from dividing by zero
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    fraction, i, delta = d, 0, 0.0
    while abs(delta - 1) > 1e-16:
        i += 1
        an, b = i * (a - i), b + 2
        d = 1 / (an * d + b or tiny)
        c = b + an / c or tiny
        delta = c * d
        fraction *= delta
    return math.exp(log_front + math.log(fraction))
