"""Exact finite discrete joint distributions.

A ``JointTable`` is a dense probability tensor over named discrete variables.
All proposition checking in this package reduces to exact arithmetic on these
tables: marginalization, conditioning, independence gaps, and sampling.

Values are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import stats

from .errors import (
    ArgumentError,
    DegenerateContingency,
    DegenerateEvidence,
    UnknownVariableError,
    text_line,
)
from .rng import spawn

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
        if self.cardinality < 2:
            raise ArgumentError(
                f"variable {self.name!r} needs cardinality >= 2, got {self.cardinality}"
            )


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
        shape = tuple(v.cardinality for v in variables)
        if int(np.prod(shape)) > MAX_CELLS:
            raise ArgumentError(
                f"joint size {int(np.prod(shape))} exceeds the dense cap of {MAX_CELLS} cells"
            )
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

    def states(self) -> Iterable[tuple[int, ...]]:
        """All joint states in row-major order."""
        return product(*(range(c) for c in self.shape))


def uniform_table(variables: Sequence[Variable]) -> JointTable:
    shape = tuple(v.cardinality for v in variables)
    return JointTable(tuple(variables), np.full(shape, 1.0 / float(np.prod(shape))))


def product_table(*marginals: JointTable) -> JointTable:
    """Outer product of single-variable (or disjoint multi-variable) tables."""
    variables: list[Variable] = []
    probs = np.array(1.0)
    for marg in marginals:
        variables.extend(marg.variables)
        probs = np.multiply.outer(probs, marg.probs)
    return JointTable(tuple(variables), probs.reshape([v.cardinality for v in variables]))


def marginalize(table: JointTable, keep: Iterable[str]) -> JointTable:
    """Sum out every variable not in ``keep``, preserving variable order."""
    keep = set(keep)
    if not keep:
        raise ArgumentError("keep must be non-empty")
    axes_keep = table.axes(keep)
    drop = tuple(i for i in range(len(table.variables)) if i not in axes_keep)
    probs = table.probs.sum(axis=drop) if drop else table.probs
    variables = tuple(v for i, v in enumerate(table.variables) if i not in drop)
    return JointTable(variables, probs)


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
        if not 0 <= int(state) < card:
            raise ArgumentError(f"state {state} out of range for {name!r} (cardinality {card})")
        index[ax] = int(state)
    sliced = table.probs[tuple(index)]
    mass = float(sliced.sum())
    if mass == 0.0:
        raise DegenerateEvidence(f"evidence {dict(evidence)} has zero probability")
    remaining = tuple(v for v in table.variables if v.name not in evidence)
    if not remaining:
        raise ArgumentError("conditioning on every variable leaves an empty table")
    return JointTable(remaining, np.asarray(sliced) / mass)


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
    positive; exact tables usually use the 1e-9 default while empirical
    tables pass something wider.
    """
    a, b, given = tuple(a), tuple(b), tuple(given)
    if tol <= 0:
        raise ArgumentError(f"tol must be positive, got {tol}")
    if not a or not b:
        raise ArgumentError("a and b must be non-empty")
    groups = (set(a), set(b), set(given))
    if (groups[0] & groups[1]) or (groups[0] & groups[2]) or (groups[1] & groups[2]):
        raise ArgumentError(f"a, b, given must be disjoint, got {a}, {b}, {given}")

    sub = marginalize(table, set(a) | set(b) | set(given))
    arr = np.transpose(sub.probs, sub.axes(a) + sub.axes(b) + sub.axes(given))
    shape_a = arr.shape[: len(a)]
    shape_b = arr.shape[len(a) : len(a) + len(b)]
    shape_g = arr.shape[len(a) + len(b) :]
    flat = arr.reshape(prod(shape_a), prod(shape_b), -1)

    # Each conditioning state's mass is summed from its own slice: numpy's
    # summation order follows the slice's memory layout, and a one-ulp change
    # in the mass moves the gaps and can change which of several exactly tied
    # cells attains the maximum.  The rest is one broadcast over the states
    # with positive mass; the last of them attaining the largest gap wins, and
    # within a state the first (a, b) cell in row-major order.
    mass = np.array([flat[:, :, g].sum() for g in range(flat.shape[2])])
    live = np.flatnonzero(mass)
    pab = flat.transpose(2, 0, 1)[live] / mass[live, None, None]
    diff = np.abs(pab - pab.sum(axis=2, keepdims=True) * pab.sum(axis=1, keepdims=True))
    diff = diff.reshape(len(live), -1)
    gaps = diff.max(axis=1)
    k = len(live) - 1 - int(gaps[::-1].argmax())
    max_gap = float(gaps[k])

    ai, bi = np.unravel_index(int(diff[k].argmax()), flat.shape[:2])
    argmax_state: dict[str, int] = {}
    for names, shape, index in ((a, shape_a, ai), (b, shape_b, bi), (given, shape_g, live[k])):
        for name, state in zip(names, np.unravel_index(int(index), shape)):
            argmax_state[name] = int(state)
    return IndependenceReport(max_gap <= tol, max_gap, argmax_state, tol)


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
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(variables):
            raise ArgumentError(f"rows must be (n, {len(variables)}), got {rows.shape}")
        for j, v in enumerate(variables):
            if rows.shape[0] and (rows[:, j].min() < 0 or rows[:, j].max() >= v.cardinality):
                raise ArgumentError(f"state index out of range for variable {v.name!r}")
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (rows.shape[0],):
            raise ArgumentError(f"weights must be ({rows.shape[0]},), got {weights.shape}")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ArgumentError("weights must be finite and non-negative")
        rows = rows.copy()
        rows.setflags(write=False)
        weights = weights.copy()
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
        return SampleBatch(self.variables, rows, weights)

    def empirical_table(self) -> JointTable:
        """Weighted empirical frequencies as an exact table."""
        if len(self) == 0:
            raise ArgumentError("cannot build an empirical table from an empty batch")
        shape = tuple(v.cardinality for v in self.variables)
        flat = np.ravel_multi_index(tuple(self.rows.T), shape)
        counts = np.bincount(flat, weights=self.weights, minlength=int(np.prod(shape)))
        total = counts.sum()
        if total == 0:
            raise ArgumentError("total weight is zero")
        return JointTable(self.variables, (counts / total).reshape(shape))


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


def sample(table: JointTable, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` i.i.d. rows from the table; deterministic given ``seed``."""
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    rows = np.column_stack(_draw_states(table, n, spawn(seed)))
    return SampleBatch(table.variables, rows, np.ones(n))


def chi2_independence(batch: SampleBatch, a: str, b: str) -> tuple[float, float]:
    """Pearson chi-squared test of a ⊥ b on the weighted contingency table.

    Returns (statistic, p_value) with (|a|-1)(|b|-1) degrees of freedom.
    A contingency row or column with zero total raises DegenerateContingency.
    """
    if len(batch) == 0:
        raise ArgumentError("batch is empty")
    ca = batch.variables[batch.axis(a)].cardinality
    cb = batch.variables[batch.axis(b)].cardinality
    table = np.zeros((ca, cb))
    np.add.at(table, (batch.column(a), batch.column(b)), batch.weights)
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    if np.any(rows == 0) or np.any(cols == 0):
        raise DegenerateContingency(
            f"zero-total row/column in the ({a}, {b}) contingency table"
        )
    expected = np.outer(rows, cols) / table.sum()
    statistic = float(((table - expected) ** 2 / expected).sum())
    dof = (ca - 1) * (cb - 1)
    p_value = float(stats.chi2.sf(statistic, dof))
    return statistic, p_value


# Text serialization: 'var <name> <cardinality>' lines followed by one
# 'cell <i0> ... <ik> <prob>' line per cell in row-major order.  repr() round
# trips Python floats exactly, which covers the 17-significant-digit contract.

def dumps_table(table: JointTable) -> str:
    lines = [f"var {v.name} {v.cardinality}" for v in table.variables]
    for state, p in zip(table.states(), table.probs.ravel()):
        lines.append("cell " + " ".join(str(s) for s in state) + f" {float(p)!r}")
    return "\n".join(lines) + "\n"


def loads_table(text: str) -> JointTable:
    variables: list[Variable] = []
    cells: list[float] = []
    expected_state = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "var":
            if cells:
                raise ArgumentError(f"line {lineno}: var line after cell lines")
            if len(parts) != 3:
                raise ArgumentError(f"line {lineno}: expected 'var <name> <cardinality>'")
            with text_line(lineno):
                variables.append(Variable(parts[1], int(parts[2])))
        elif parts[0] == "cell":
            if len(parts) != len(variables) + 2:
                raise ArgumentError(f"line {lineno}: expected {len(variables)} indices and a value")
            shape = tuple(v.cardinality for v in variables)
            with text_line(lineno):
                state = int(np.ravel_multi_index(tuple(int(s) for s in parts[1:-1]), shape))
                cells.append(float(parts[-1]))
            if state != expected_state:
                raise ArgumentError(f"line {lineno}: cells must appear in row-major order")
            expected_state += 1
        else:
            raise ArgumentError(f"line {lineno}: unknown record {parts[0]!r}")
    if not variables:
        raise ArgumentError("no variables found")
    shape = tuple(v.cardinality for v in variables)
    if len(cells) != int(np.prod(shape)):
        raise ArgumentError(f"expected {int(np.prod(shape))} cells, got {len(cells)}")
    return JointTable(tuple(variables), np.asarray(cells).reshape(shape))


def save_table(table: JointTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_table(table))


def load_table(path: str) -> JointTable:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_table(fh.read())
