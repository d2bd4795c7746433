"""Balancing operators on exact tables and on finite samples.

Every exact operator is one reweight, ``reweight_marginal``: the marginal of
some variables is replaced by a target while every conditional given them is
kept, Q = P · target / P(names).  Joint balancing targets P(y)P(z), so the
two target variables become independent; single-variable balancing targets a
uniform marginal; ``checks.ShiftFamily`` targets P(y) times a grid of
P(z | y).  What these reweights do to fairness, invariance and bias is
tabulated by ``checks.claims``.  On finite samples the balancing targets are
reached by importance weights, subsampling the majority cells, or
upsampling the minority cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .bayesnet import broadcast_axes
from .errors import ArgumentError, NumericsError, UnbalanceableSupport, enum_member
from .rng import is_int, spawn
from .tables import PROB_TOL, JointTable, SampleBatch, _derived, _marginal, _once, _scale_exponent, _trusted_batch


class Mechanism(str, Enum):
    EXACT_REWEIGHT = "exact_reweight"
    IMPORTANCE_WEIGHTS = "importance_weights"
    SUBSAMPLE_MAJORITY = "subsample_majority"
    UPSAMPLE_MINORITY = "upsample_minority"


_RESAMPLING = {Mechanism.SUBSAMPLE_MAJORITY, Mechanism.UPSAMPLE_MINORITY}


@dataclass(frozen=True)
class JointTarget:
    """Balance the pair (y_var, z_var) toward marginal independence."""

    y_var: str
    z_var: str

    def __post_init__(self) -> None:
        if self.y_var == self.z_var:
            raise ArgumentError("joint balancing needs two distinct variables")


@dataclass(frozen=True)
class SingleTarget:
    """Balance one variable toward a uniform marginal."""

    var: str


@dataclass(frozen=True)
class BalanceSpec:
    target: JointTarget | SingleTarget
    mechanism: Mechanism = Mechanism.EXACT_REWEIGHT
    seed: int | None = None

    def __post_init__(self) -> None:
        mechanism = enum_member(Mechanism, self.mechanism)
        object.__setattr__(self, "mechanism", mechanism)
        if mechanism in _RESAMPLING and self.seed is None:
            raise ArgumentError(f"mechanism {mechanism.value} resamples and needs a seed")
        if mechanism not in _RESAMPLING and self.seed is not None:
            raise ArgumentError(f"mechanism {mechanism.value} is deterministic; seed must be None")
        if self.seed is not None and not (is_int(self.seed) and self.seed >= 0):
            raise ArgumentError(f"seed must be a non-negative integer, got {self.seed!r}")


def reweight_marginal(table: JointTable, names: Sequence[str], target: np.ndarray) -> JointTable:
    """Replace the marginal of ``names`` by ``target`` and keep every
    conditional given them: Q = P · target / P(names), cellwise.

    ``target`` is an array over ``names``, one axis per name in the given
    order, that sums to 1.  A cell of ``names`` empty in the table and in the
    target stays empty; one that is empty in the table only makes the reweight
    undefined and raises UnbalanceableSupport naming the cell.  The result is
    not re-validated: the checks here cover it.
    """
    names = tuple(names)
    return _derived(table.variables, _reweight(table.probs, table.axes(names), np.asarray(target, dtype=float), names))


def _reweight(probs: np.ndarray, axes: Sequence[int], target: np.ndarray, names: tuple[str, ...], lead: int = 0) -> np.ndarray:
    """``reweight_marginal``'s kernel and checks on ``probs`` and ``target``
    with ``lead`` shared draw axes, after which ``axes`` count the axes of
    ``names``.  Each draw gives and raises what its table alone would."""
    cards = tuple(probs.shape[lead + a] for a in axes)
    if target.shape[lead:] != cards or not (target >= 0).all():
        raise ArgumentError(f"target must be a non-negative {cards} array over {names}")
    total = target.sum(axis=tuple(range(lead, target.ndim)))
    if (off := np.abs(total - 1.0) > PROB_TOL).any():
        raise ArgumentError(f"cells must sum to 1 within {PROB_TOL}, got {float(total[off][0])!r}")
    drop = tuple(i for i in range(lead, probs.ndim) if i - lead not in axes)
    current = probs.sum(axis=drop, keepdims=True)
    wanted = broadcast_axes(target, [*range(lead), *(lead + a for a in axes)], probs.ndim)
    if not current.all():  # a cell empty in the table must stay empty in the target
        bad = (current == 0) & (wanted > 0)
        if bad.any():
            cell = np.argwhere(bad)[0]
            raise UnbalanceableSupport(
                f"cell ({', '.join(f'{n}={cell[lead + a]}' for n, a in zip(names, axes))}) has zero "
                "probability but target mass; the reweight is undefined"
            )
    with np.errstate(over="ignore"):  # a cell too small for its target mass overflows
        ratio = np.divide(wanted, current, out=np.zeros(current.shape), where=current > 0)
    if not np.isfinite(ratio).all():
        raise ArgumentError(f"reweighting {names} overflows: a cell's probability is too small for its target")
    return probs * ratio


def _balance_pair(probs: np.ndarray, axes: Sequence[int], names: tuple[str, str], lead: int = 0) -> np.ndarray:
    """``_reweight`` of the pair at ``axes`` to the product of its marginals."""
    pyz = _marginal(probs, axes, lead)
    return _reweight(probs, axes, pyz.sum(axis=-1, keepdims=True) * pyz.sum(axis=-2, keepdims=True), names, lead)


def balance_exact(table: JointTable, spec: BalanceSpec) -> JointTable:
    """Exact balancing by one ``reweight_marginal``.

    A JointTarget makes the (y, z) marginal P(y)P(z): marginals of the
    targets are preserved, the targets become independent, and conditionals
    given the target pair are untouched.  A SingleTarget makes the marginal
    of its variable uniform and keeps every conditional given it.  A target
    cell with zero probability but target mass makes the reweight undefined
    and raises UnbalanceableSupport.  The balanced table is computed once per
    source table and target and stored on the source, so it lives as long as
    the source does; a repeated call returns the same table.
    """
    if spec.mechanism is not Mechanism.EXACT_REWEIGHT:
        raise ArgumentError("exact tables only support the exact_reweight mechanism")
    target = spec.target
    if isinstance(target, SingleTarget):
        card = table.variable(target.var).cardinality
        return _once(table, target, lambda: reweight_marginal(table, (target.var,), np.full(card, 1.0 / card)))
    names = (target.y_var, target.z_var)
    axes = table.axes(names)
    return _once(table, target, lambda: _derived(table.variables, _balance_pair(table.probs, axes, names)))


def _target_codes(batch: SampleBatch, spec: BalanceSpec) -> tuple[np.ndarray, int, list[str]]:
    """Flat cell code per row plus the number of target cells."""
    if isinstance(spec.target, JointTarget):
        names = [spec.target.y_var, spec.target.z_var]
    else:
        names = [spec.target.var]
    cards = [batch.variables[batch.axis(n)].cardinality for n in names]
    cols = tuple(batch.column(n) for n in names)
    codes = np.ravel_multi_index(cols, tuple(cards))
    return codes, int(np.prod(cards)), names


def _cell_label(flat: int, names: list[str], batch: SampleBatch) -> str:
    cards = [batch.variables[batch.axis(n)].cardinality for n in names]
    states = np.unravel_index(flat, tuple(cards))
    return ", ".join(f"{n}={int(s)}" for n, s in zip(names, states))


def balance_batch(batch: SampleBatch, spec: BalanceSpec) -> SampleBatch:
    """Balance a finite sample with the spec's mechanism.

    importance_weights (and exact_reweight, its alias on batches) multiplies
    row weights so the weighted target table becomes the product of its
    marginals.  subsample_majority keeps each target cell at the minimum cell
    row count, drawing uniformly without replacement.  upsample_minority
    keeps all rows and pads each cell to the maximum cell row count with
    replacement.  Any empty target cell raises UnbalanceableSupport.  The
    resampling mechanisms balance row counts and keep each row's weight, so
    they need a batch whose weights are all equal.
    """
    if len(batch) == 0:
        raise ArgumentError("batch is empty")
    if spec.mechanism in _RESAMPLING and np.any(batch.weights != batch.weights[0]):
        raise ArgumentError(
            f"{spec.mechanism.value} balances row counts and keeps row weights, so the batch "
            "weights must all be equal; use importance_weights for a weighted batch"
        )
    codes, ncells, names = _target_codes(batch, spec)
    counts = np.bincount(codes, minlength=ncells)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise UnbalanceableSupport(
            f"target cell ({_cell_label(missing, names, batch)}) has no rows"
        )

    if spec.mechanism in (Mechanism.IMPORTANCE_WEIGHTS, Mechanism.EXACT_REWEIGHT):
        wsum = np.bincount(codes, weights=batch.weights, minlength=ncells)
        if np.any(wsum == 0):
            empty = int(np.flatnonzero(wsum == 0)[0])
            raise UnbalanceableSupport(
                f"target cell ({_cell_label(empty, names, batch)}) has rows but zero total weight"
            )
        with np.errstate(all="ignore"):  # weights near the float range's edge or far apart; checked below
            total = batch.weights.sum()
            # the ratios do not change with the weights' scale, so the sums are scaled into range
            shift = _scale_exponent(total)
            wsum, total = np.ldexp(wsum, -shift), math.ldexp(total, -shift)
            if isinstance(spec.target, JointTarget):
                cy = batch.variables[batch.axis(spec.target.y_var)].cardinality
                cz = batch.variables[batch.axis(spec.target.z_var)].cardinality
                grid = wsum.reshape(cy, cz)
                ratio = (
                    grid.sum(axis=1, keepdims=True) * grid.sum(axis=0, keepdims=True) / (total * grid)
                ).reshape(-1)
            else:
                ratio = total / (ncells * wsum)
            balanced = batch.weights * ratio.take(codes)
        if not np.isfinite(balanced).all():
            raise NumericsError("a balanced weight is not finite: the batch's weights lie too near the float range's edge or too far apart")
        return _trusted_batch(batch.variables, batch.rows, balanced)

    gen = spawn(spec.seed, 17)
    picked: list[np.ndarray] = []
    if spec.mechanism is Mechanism.SUBSAMPLE_MAJORITY:
        m = int(counts.min())
        for cell in range(ncells):
            idx = np.flatnonzero(codes == cell)
            picked.append(gen.choice(idx, size=m, replace=False) if len(idx) > m else idx)
    else:  # upsample: originals plus replacement draws up to the max count
        m = int(counts.max())
        for cell in range(ncells):
            idx = np.flatnonzero(codes == cell)
            extra = m - len(idx)
            picked.append(np.concatenate([idx, gen.choice(idx, size=extra, replace=True)]) if extra else idx)
    sel = np.concatenate(picked)
    return batch.with_rows(np.take(batch.rows, sel, axis=0), batch.weights.take(sel))
