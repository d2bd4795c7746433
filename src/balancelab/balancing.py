"""Balancing operators on exact tables and on finite samples.

Joint balancing reweights a distribution by P(y)P(z)/P(y,z) so the two target
variables become independent while every conditional given (y, z) is
preserved.  Single-variable balancing uniformizes one marginal.  On finite
samples the same targets are reached by importance weights, subsampling the
majority cells, or upsampling the minority cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArgumentError, UnbalanceableSupport
from .rng import spawn
from .tables import JointTable, SampleBatch, marginalize


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


def balance_exact(table: JointTable, spec: BalanceSpec) -> JointTable:
    """Exact joint balancing: Q = P · P(y)P(z) / P(y,z), cellwise.

    Marginals of the targets are preserved, the targets become independent,
    and conditionals given the target pair are untouched.  A zero-probability
    (y, z) cell with positive marginals makes the reweight undefined and
    raises UnbalanceableSupport.
    """
    if not isinstance(spec.target, JointTarget):
        raise ArgumentError("balance_exact needs a JointTarget spec")
    if spec.mechanism is not Mechanism.EXACT_REWEIGHT:
        raise ArgumentError("exact tables only support the exact_reweight mechanism")
    ay, az = table.axis(spec.target.y_var), table.axis(spec.target.z_var)
    other = tuple(i for i in range(len(table.variables)) if i not in (ay, az))
    pyz = table.probs.sum(axis=other, keepdims=True) if other else table.probs
    py = pyz.sum(axis=az, keepdims=True)
    pz = pyz.sum(axis=ay, keepdims=True)
    target_mass = py * pz
    bad = (pyz == 0) & (target_mass > 0)
    if np.any(bad):
        cell = np.argwhere(bad)[0]
        raise UnbalanceableSupport(
            f"cell ({spec.target.y_var}={cell[ay]}, {spec.target.z_var}={cell[az]}) has zero "
            "probability but positive marginals; the joint reweight is undefined"
        )
    ratio = np.divide(target_mass, pyz, out=np.zeros_like(pyz), where=pyz > 0)
    return JointTable(table.variables, table.probs * ratio)


def balance_single_exact(table: JointTable, spec: BalanceSpec) -> JointTable:
    """Uniformize the marginal of one variable, preserving conditionals given it."""
    if not isinstance(spec.target, SingleTarget):
        raise ArgumentError("balance_single_exact needs a SingleTarget spec")
    if spec.mechanism is not Mechanism.EXACT_REWEIGHT:
        raise ArgumentError("exact tables only support the exact_reweight mechanism")
    ax = table.axis(spec.target.var)
    card = table.variables[ax].cardinality
    other = tuple(i for i in range(len(table.variables)) if i != ax)
    pv = table.probs.sum(axis=other, keepdims=True) if other else table.probs
    if np.any(pv == 0):
        state = int(np.flatnonzero(pv.reshape(-1) == 0)[0])
        raise UnbalanceableSupport(
            f"state {spec.target.var}={state} has zero probability; cannot uniformize"
        )
    return JointTable(table.variables, table.probs * (1.0 / card) / pv)


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
    replacement.  Any empty target cell raises UnbalanceableSupport.
    """
    if len(batch) == 0:
        raise ArgumentError("batch is empty")
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
    pair = marginalize(table, {y_var, z_var})
    arr = np.transpose(pair.probs, pair.axes((y_var, z_var)))
    return float(np.abs(arr - arr.sum(1, keepdims=True) * arr.sum(0, keepdims=True)).max())
