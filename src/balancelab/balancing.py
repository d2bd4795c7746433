"""Balancing operators on exact tables and on finite samples.

Every exact operator is one reweight, ``reweight_marginal``: the marginal of
some variables is replaced by a target while every conditional given them is
kept, Q = P · target / P(names).  Joint balancing targets P(y)P(z), so the
two target variables become independent; single-variable balancing targets a
uniform marginal; ``checks.ShiftFamily`` targets P(y) times a grid of
P(z | y).  On finite samples the balancing targets are reached by importance
weights, subsampling the majority cells, or upsampling the minority cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .bayesnet import broadcast_axes
from .errors import ArgumentError, UnbalanceableSupport
from .rng import spawn
from .tables import JointTable, SampleBatch, marginal_probs


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
        mechanism = Mechanism(self.mechanism)
        object.__setattr__(self, "mechanism", mechanism)
        if mechanism in _RESAMPLING and self.seed is None:
            raise ArgumentError(f"mechanism {mechanism.value} resamples and needs a seed")
        if mechanism not in _RESAMPLING and self.seed is not None:
            raise ArgumentError(f"mechanism {mechanism.value} is deterministic; seed must be None")


def reweight_marginal(table: JointTable, names: Sequence[str], target: np.ndarray) -> JointTable:
    """Replace the marginal of ``names`` by ``target`` and keep every
    conditional given them: Q = P · target / P(names), cellwise.

    ``target`` is an array over ``names``, one axis per name in the given
    order.  A cell of ``names`` empty in the table and in the target stays
    empty; one that is empty in the table only makes the reweight undefined
    and raises UnbalanceableSupport naming the cell.
    """
    names = tuple(names)
    axes = table.axes(names)
    target = np.asarray(target, dtype=float)
    cards = tuple(table.variables[a].cardinality for a in axes)
    if target.shape != cards or not (target >= 0).all():
        raise ArgumentError(f"target must be a non-negative {cards} array over {names}")
    drop = tuple(i for i in range(table.probs.ndim) if i not in axes)
    current = table.probs.sum(axis=drop, keepdims=True)
    wanted = broadcast_axes(target, axes, table.probs.ndim)
    if not current.all():  # a cell empty in the table must stay empty in the target
        bad = (current == 0) & (wanted > 0)
        if bad.any():
            cell = np.argwhere(bad)[0]
            raise UnbalanceableSupport(
                f"cell ({', '.join(f'{n}={cell[a]}' for n, a in zip(names, axes))}) has zero "
                "probability but target mass; the reweight is undefined"
            )
    ratio = np.divide(wanted, current, out=np.zeros(current.shape), where=current > 0)
    return JointTable(table.variables, table.probs * ratio)


def balance_exact(table: JointTable, spec: BalanceSpec) -> JointTable:
    """Exact balancing by one ``reweight_marginal``.

    A JointTarget makes the (y, z) marginal P(y)P(z): marginals of the
    targets are preserved, the targets become independent, and conditionals
    given the target pair are untouched.  A SingleTarget makes the marginal
    of its variable uniform and keeps every conditional given it.  A target
    cell with zero probability but target mass makes the reweight undefined
    and raises UnbalanceableSupport.
    """
    if spec.mechanism is not Mechanism.EXACT_REWEIGHT:
        raise ArgumentError("exact tables only support the exact_reweight mechanism")
    if isinstance(spec.target, SingleTarget):
        card = table.variable(spec.target.var).cardinality
        return reweight_marginal(table, (spec.target.var,), np.full(card, 1.0 / card))
    names = (spec.target.y_var, spec.target.z_var)
    pyz = marginal_probs(table, names)
    return reweight_marginal(table, names, pyz.sum(axis=1, keepdims=True) * pyz.sum(axis=0, keepdims=True))


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
        total = float(batch.weights.sum())
        if isinstance(spec.target, JointTarget):
            cy = batch.variables[batch.axis(spec.target.y_var)].cardinality
            cz = batch.variables[batch.axis(spec.target.z_var)].cardinality
            grid = wsum.reshape(cy, cz)
            ratio = (
                grid.sum(axis=1, keepdims=True) * grid.sum(axis=0, keepdims=True) / (total * grid)
            ).reshape(-1)
        else:
            ratio = total / (ncells * wsum)
        return batch.with_rows(batch.rows, batch.weights * ratio[codes])

    gen = spawn(int(spec.seed), 17)
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
    return batch.with_rows(batch.rows[sel], batch.weights[sel])


@dataclass(frozen=True)
class BiasShift:
    """Effect of uniformizing a binary label on the other binary marginal.

    ``before``/``after`` are E[Z] - 1/2 before and after balancing; ``bound``
    is |P(Y=1) - 1/2| · |E[Z|Y=1] - E[Z|Y=0]|, which bounds the change in
    |bias| exactly.
    """

    before: float | np.ndarray
    after: float | np.ndarray
    bound: float | np.ndarray
    worsens: bool | np.ndarray


def bias_shift_single(p_y1, e_z_given_y1, e_z_given_y0) -> BiasShift:
    """Bias of E[Z] around 1/2 before and after uniformizing Y.

    Accepts scalars or broadcastable arrays in [0, 1].  ``worsens`` reports
    |after| > |before|; the identity after = before - (P(Y=1)-1/2)(E[Z|Y=1]-E[Z|Y=0])
    holds exactly.
    """
    p = np.asarray(p_y1, dtype=float)
    e1 = np.asarray(e_z_given_y1, dtype=float)
    e0 = np.asarray(e_z_given_y0, dtype=float)
    for name, arr in (("p_y1", p), ("e_z_given_y1", e1), ("e_z_given_y0", e0)):
        if np.any(arr < 0) or np.any(arr > 1):
            raise ArgumentError(f"{name} must lie in [0, 1]")
    before = p * e1 + (1 - p) * e0 - 0.5
    after = 0.5 * (e1 + e0) - 0.5
    bound = np.abs(p - 0.5) * np.abs(e1 - e0)
    worsens = np.abs(after) > np.abs(before)
    if before.ndim == 0:
        return BiasShift(float(before), float(after), float(bound), bool(worsens))
    return BiasShift(before, after, bound, worsens)


def balanced_pair_gap(table: JointTable, y_var: str, z_var: str) -> float:
    """Max deviation of the (y, z) marginal from the product of its marginals."""
    arr = marginal_probs(table, (y_var, z_var))
    return float(np.abs(arr - arr.sum(1, keepdims=True) * arr.sum(0, keepdims=True)).max())
