"""Numeric verification of what joint balancing does to a distribution.

Everything here works on exact tables, so each claim is checked by direct
enumeration rather than simulation: sufficient conditions for balanced
training to yield an invariant model, risk invariance of predictors across a
correlation-shift family, the closed form for entangled channels, fairness
implications of balancing, and seeded searches for balanced distributions
that violate the independencies of an edge-dropped graph.

A shift family builds all its members as one reweight (balancing's, with
target P(y) · P'(z | y)) stacked on a member axis.  The risk checks take
every member's P(covariates..., y) from it in one marginal, check that
the predictor is defined on every reachable input state, and take every risk
and E[Y | core] by array operations.  A predictor is two arrays with one
axis per input: the score P(Y=1 | state) and where that score is defined.
The counterexample networks C1-C4 are rows of one table: nodes, parents, latents and the observed edges the
edge-dropped skeleton loses, with that skeleton built by
``bayesnet.observed_dag``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, product
from math import isfinite
from numbers import Real
from typing import Iterable, Mapping, Sequence

import numpy as np

from .balancing import BalanceSpec, JointTarget, _balance_pair, _reweight, balance_exact
from .bayesnet import (
    Dag,
    FactorizationReport,
    Violation,
    _gaps,
    _local_statements,
    _product,
    broadcast_axes,
    factorizes_according_to,
    observed_dag,
)
from .errors import (
    ArgumentError,
    CounterexampleNotFound,
    CoverageError,
    LabelError,
)
from .rng import is_int, spawn
from .tables import JointTable, Variable, _derived, _frozen, _marginal, is_independent, marginal_probs
from .templates import GraphTemplate, random_instance

GENERIC_GAP = 1e-6  # separates structural violations from float noise


def _finite_real(value) -> bool:
    """Whether ``value`` is a finite real number; a bool is not one."""
    return isinstance(value, Real) and not isinstance(value, bool) and isfinite(value)


class Role(str, Enum):
    """What a covariate is causally tied to."""

    CORE = "core"                  # the label only
    SPURIOUS = "spurious"          # the group factor only
    ENTANGLED = "entangled"        # both label and group factor
    OTHER_FACTOR = "other_factor"  # a second auxiliary factor


@dataclass(frozen=True)
class DecompositionLabel:
    """Role assignment for every covariate in a table."""

    assignment: Mapping[str, Role]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "assignment", {k: Role(v) for k, v in dict(self.assignment).items()}
        )

    def vars_with(self, *roles: Role) -> tuple[str, ...]:
        return tuple(n for n, r in self.assignment.items() if r in roles)

    @property
    def core(self) -> tuple[str, ...]:
        return self.vars_with(Role.CORE)

    @property
    def rest(self) -> tuple[str, ...]:
        """Everything that is not core: the set the sufficiency condition quantifies over."""
        return self.vars_with(Role.SPURIOUS, Role.ENTANGLED, Role.OTHER_FACTOR)


def labels_for(template: GraphTemplate) -> DecompositionLabel:
    assignment: dict[str, Role] = {}
    for name in template.core:
        assignment[name] = Role.CORE
    for name in template.spurious:
        assignment[name] = Role.SPURIOUS
    for name in template.entangled:
        assignment[name] = Role.ENTANGLED
    for name in template.other_factor:
        assignment[name] = Role.OTHER_FACTOR
    return DecompositionLabel(assignment)


def _check_coverage(table: JointTable, labels: DecompositionLabel, y: str, z: str) -> None:
    covariates = set(table.names) - {y, z}
    labelled = set(labels.assignment)
    if labelled != covariates:
        missing = sorted(covariates - labelled)
        extra = sorted(labelled - covariates)
        raise LabelError(
            f"labels must cover the covariates exactly; missing {missing}, extra {extra} "
            "(marginalize latents out first)"
        )
    if not labels.core:
        raise LabelError("at least one covariate must carry the core role")


@dataclass(frozen=True)
class ConditionReport:
    """The two sufficiency conditions for balanced training to be invariant.

    cond1: non-core covariates ⊥ {label, core} | group factor.
    cond2: core ⊥ group factor | label.
    """

    holds: bool
    cond1_gap: float
    cond2_gap: float
    tol: float


def check_invariance_conditions(
    table: JointTable,
    labels: DecompositionLabel,
    y: str = "Y",
    z: str = "Z",
    tol: float = 1e-9,
) -> ConditionReport:
    """Check the training-distribution conditions under which balancing
    provably yields a risk-invariant, optimal predictor."""
    _check_coverage(table, labels, y, z)
    rest = labels.rest
    if rest:
        cond1 = is_independent(table, rest, (y, *labels.core), (z,), tol)
        cond1_gap = cond1.max_gap
    else:
        cond1_gap = 0.0
    cond2 = is_independent(table, labels.core, (z,), (y,), tol)
    return ConditionReport(
        holds=cond1_gap <= tol and cond2.max_gap <= tol,
        cond1_gap=cond1_gap,
        cond2_gap=cond2.max_gap,
        tol=tol,
    )


@dataclass(frozen=True, eq=False)
class TablePredictor:
    """A score function on discrete covariate states.

    ``scores`` holds P(Y=1 | state) with one axis per input, in input order;
    ``defined`` is False on the states that carry zero probability in the
    source table, where the score means nothing.  Equality and hashing are
    by identity, since the fields hold arrays.
    """

    inputs: tuple[str, ...]
    scores: np.ndarray
    defined: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        defined = np.asarray(self.defined, dtype=bool)
        inputs = tuple(self.inputs)
        if scores.shape != defined.shape or scores.ndim != len(inputs):
            raise ArgumentError(f"scores {scores.shape} and defined {defined.shape} need one axis per input {inputs}")
        if not np.all((scores >= 0.0) & (scores <= 1.0)):  # also catches NaN
            raise ArgumentError("scores must lie in [0, 1]")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "scores", _frozen(scores))
        object.__setattr__(self, "defined", _frozen(defined))

    def perturbed(self, delta: np.ndarray) -> "TablePredictor":
        """The scores moved by ``delta`` (one entry per state) and clipped to [0, 1]."""
        delta = np.asarray(delta, dtype=float)
        if delta.shape != self.scores.shape:
            raise ArgumentError(f"delta must have shape {self.scores.shape}, got {delta.shape}")
        return TablePredictor(self.inputs, np.clip(self.scores + delta, 0.0, 1.0), self.defined)


def bayes_predictor(table: JointTable, inputs: Iterable[str], y: str = "Y") -> TablePredictor:
    """Exact P(label = 1 | input state), defined wherever the state has mass."""
    inputs = tuple(inputs)
    if not inputs:
        raise ArgumentError("inputs must be non-empty")
    if y in inputs:
        raise ArgumentError(f"label {y!r} cannot be one of the inputs")
    arr = marginal_probs(table, inputs + (y,))
    mass = arr.sum(axis=-1)
    scores = np.divide(arr[..., 1], mass, out=np.zeros_like(mass), where=mass > 0)
    return TablePredictor(inputs, scores, mass > 0)


def entangled_joint(p: float, q: float) -> JointTable:
    """Three-variable table with uniform independent (Y, Z) and a single
    channel X with P(X=1 | y, z) = p when y or z, else q."""
    for name, v in (("p", p), ("q", q)):
        if not 0.0 <= v <= 1.0:
            raise ArgumentError(f"{name} must lie in [0, 1], got {v}")
    probs = np.zeros((2, 2, 2))  # (x, y, z)
    for y_state in range(2):
        for z_state in range(2):
            px1 = p if (y_state or z_state) else q
            probs[1, y_state, z_state] = 0.25 * px1
            probs[0, y_state, z_state] = 0.25 * (1.0 - px1)
    return JointTable((Variable("X", 2), Variable("Y", 2), Variable("Z", 2)), probs)


def entangled_gap(p: float, q: float) -> tuple[float, float]:
    """Closed-form conditional means of the optimal score given the group factor.

    Returns (E[f(X) | Z=1], E[f(X) | Z=0]) where f is the exact posterior of
    the label from the single entangled channel.  Terms whose channel state
    has zero probability under the relevant conditional drop out.
    """
    for name, v in (("p", p), ("q", q)):
        if not 0.0 <= v <= 1.0:
            raise ArgumentError(f"{name} must lie in [0, 1], got {v}")
    px1 = 0.75 * p + 0.25 * q
    f1 = 0.5 * p / px1 if px1 > 0 else 0.0
    f0 = 0.5 * (1.0 - p) / (1.0 - px1) if px1 < 1 else 0.0
    e_given_z1 = p * f1 + (1.0 - p) * f0
    px1_z0 = 0.5 * (p + q)
    e_given_z0 = px1_z0 * f1 + (1.0 - px1_z0) * f0
    return float(e_given_z1), float(e_given_z0)


@dataclass(frozen=True, eq=False)
class ShiftFamily:
    """Correlation-shift family: the group-given-label conditional varies
    over ``grid`` while the label marginal and all covariate mechanisms given
    (label, group) stay pinned to ``base``.  ``probs[k]`` is member k's table;
    all are built here by one stacked reweight, so an undefined one raises.
    Equality and hashing are by identity, since the fields hold arrays."""

    base: JointTable
    grid: tuple[np.ndarray, ...]
    y: str = "Y"
    z: str = "Z"
    probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        y_card = self.base.variable(self.y).cardinality
        z_card = self.base.variable(self.z).cardinality
        grid = tuple(np.asarray(g, dtype=float) for g in self.grid)
        if not grid:
            raise ArgumentError("grid must be non-empty")
        for g in grid:
            if g.shape != (y_card, z_card):
                raise ArgumentError(f"grid entries must be ({y_card}, {z_card}), got {g.shape}")
            if not np.isfinite(g).all():
                raise ArgumentError("grid entries must be finite")
            if np.any(g < 0) or np.any(np.abs(g.sum(axis=1) - 1.0) > 1e-12):
                raise ArgumentError("each grid entry must have rows that sum to 1")
        object.__setattr__(self, "grid", grid)
        names = (self.y, self.z)
        target = marginal_probs(self.base, names).sum(axis=1, keepdims=True) * np.stack(grid)  # P(y) · P'(z | y)
        stacked = np.broadcast_to(self.base.probs, (len(grid),) + self.base.shape)
        object.__setattr__(self, "probs", _frozen(_reweight(stacked, self.base.axes(names), target, names, 1)))

    def __len__(self) -> int:
        return len(self.grid)

    def member(self, i: int) -> JointTable:
        return _derived(self.base.variables, self.probs[i])

    def members(self) -> Iterable[JointTable]:
        return (self.member(i) for i in range(len(self.grid)))


def correlation_grid(n_points: int = 7, lo: float = 0.05, hi: float = 0.95) -> tuple[np.ndarray, ...]:
    """Binary-group confounder-strength sweep.

    Point r sets P'(Z=0|Y=0) = r and P'(Z=0|Y=1) = 1 - r, so the sweep runs
    from a strong coupling one way (r near 0), through independence at 1/2,
    to a strong coupling the other way (r near 1).
    """
    if not (is_int(n_points) and n_points >= 1):
        raise ArgumentError(f"n_points must be an integer >= 1, got {n_points!r}")
    if not all(_finite_real(v) and 0 <= v <= 1 for v in (lo, hi)):
        raise ArgumentError(f"lo and hi must be finite numbers in [0, 1], got {lo!r} and {hi!r}")
    out = []
    for r in np.linspace(lo, hi, n_points):
        out.append(np.array([[r, 1.0 - r], [1.0 - r, r]]))
    return tuple(out)


# each loss as (loss if y = 0, loss if y = 1), elementwise in the score
_LOSS_PAIRS = {
    "squared": lambda s: (s**2, (s - 1.0) ** 2),
    "zero_one": lambda s: ((s >= 0.5).astype(float), (s < 0.5).astype(float)),
    "logloss": lambda s: (
        -np.log(1.0 - np.clip(s, 1e-12, 1.0 - 1e-12)),
        -np.log(np.clip(s, 1e-12, 1.0 - 1e-12)),
    ),
}
LOSSES = tuple(_LOSS_PAIRS)


def _covariate_axes(family: ShiftFamily, names: Sequence[str]) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The family's covariates in table order, and the position of each of ``names`` among them."""
    covariates = tuple(n for n in family.base.names if n not in (family.y, family.z))
    if len(set(names)) != len(names):
        raise ArgumentError(f"{tuple(names)} names a variable twice")
    for name in names:
        if name not in covariates:
            raise ArgumentError(f"{name!r} is not a covariate of the table")
    return covariates, tuple(covariates.index(n) for n in names)


def _scored_members(predictor: TablePredictor, family: ShiftFamily) -> tuple[np.ndarray, np.ndarray]:
    """P(covariates..., y) of every family member, stacked on a leading axis,
    and the predictor's score on every covariate state (0 on input states
    that no member reaches), both in table order."""
    covariates, axes = _covariate_axes(family, predictor.inputs)
    cards = tuple(family.base.variable(n).cardinality for n in predictor.inputs)
    if predictor.scores.shape != cards:
        raise ArgumentError(f"predictor scores have shape {predictor.scores.shape}, its inputs take {cards} states")
    probs = _marginal(family.probs, family.base.axes(covariates + (family.y,)), 1)
    others = tuple(i for i in range(len(covariates)) if i not in axes)
    reached = np.transpose(probs.sum(axis=-1).any(axis=0), axes + others)
    reached = reached.reshape(cards + (-1,)).any(axis=-1)
    undefined = np.argwhere(reached & ~predictor.defined)
    if undefined.size:
        state = tuple(int(s) for s in undefined[0])
        raise CoverageError(f"predictor undefined on reachable state {dict(zip(predictor.inputs, state))}")
    scores = np.where(reached, predictor.scores, 0.0)
    return probs, broadcast_axes(scores, axes, len(covariates))


def _sum_in_order(arr: np.ndarray, lead: int) -> np.ndarray:
    """Sum over every axis after the first ``lead`` as one running total over
    the cells in row-major order, the order of a state-by-state sweep
    (numpy's pairwise ``sum`` rounds differently)."""
    return np.cumsum(arr.reshape(arr.shape[:lead] + (-1,)), axis=-1)[..., -1]


@dataclass(frozen=True)
class RiskInvarianceResult:
    risks: tuple[float, ...]
    sup_gap: float
    argmax_pair: tuple[int, int]


def risk_invariance_gap(
    predictor: TablePredictor, family: ShiftFamily, loss: str = "squared"
) -> RiskInvarianceResult:
    """Exact risk of the predictor on every family member and the largest
    pairwise risk difference (the first pair attaining it)."""
    return _risk_gap(family, *_scored_members(predictor, family), loss)


def _risk_gap(family: ShiftFamily, probs: np.ndarray, scores: np.ndarray, loss: str) -> RiskInvarianceResult:
    """``risk_invariance_gap`` from the members and scores of ``_scored_members``."""
    if loss not in LOSSES:
        raise ArgumentError(f"unknown loss {loss!r}; expected one of {LOSSES}")
    if family.base.variable(family.y).cardinality != 2:
        raise ArgumentError("risk computations assume a binary label")
    loss_y0, loss_y1 = _LOSS_PAIRS[loss](scores)
    risks = _sum_in_order(probs[..., 0] * loss_y0 + probs[..., 1] * loss_y1, 1)
    first, second = np.triu_indices(len(risks), 1)
    gaps = np.abs(risks[first] - risks[second])
    k = int(gaps.argmax()) if gaps.size else 0
    if not gaps.size or gaps[k] == 0.0:
        return RiskInvarianceResult(tuple(map(float, risks)), 0.0, (0, 0))
    return RiskInvarianceResult(tuple(map(float, risks)), float(gaps[k]), (int(first[k]), int(second[k])))


@dataclass(frozen=True)
class EpsilonBoundReport:
    epsilon: float
    gap: float
    bound_holds: bool
    loss: str


def check_epsilon_risk_bound(
    fitted: TablePredictor,
    family: ShiftFamily,
    core: Sequence[str],
    loss: str = "squared",
    slack: float = 1e-9,
) -> EpsilonBoundReport:
    """Bound the risk-invariance gap by twice the largest deviation between
    the fitted score and the label mean given the core covariates, over
    family members and reachable states.

    Valid for losses whose risk is characterized by conditional means and is
    score-Lipschitz (squared, logloss).  Zero-one loss jumps at the decision
    threshold, so no score-deviation bound can control it.
    """
    core = tuple(core)
    if loss == "zero_one":
        raise ArgumentError("the risk bound does not apply to the zero_one loss")
    if not (_finite_real(slack) and slack >= 0):
        raise ArgumentError(f"slack must be a finite number >= 0, got {slack!r}")
    _, axes = _covariate_axes(family, core)
    probs, scores = _scored_members(fitted, family)
    mass = probs.sum(axis=-1)
    core_first = ([1 + a for a in axes], list(range(1, 1 + len(core))))  # member axis, core axes, the rest
    core_mass = _sum_in_order(np.moveaxis(mass, *core_first), 1 + len(core))
    core_ymass = _sum_in_order(np.moveaxis(probs[..., 1], *core_first), 1 + len(core))
    e_core = np.divide(core_ymass, core_mass, out=np.zeros_like(core_mass), where=core_mass > 0)
    e_core = broadcast_axes(e_core, (0,) + tuple(1 + a for a in axes), mass.ndim)
    deviation = np.where(mass > 0, np.abs(scores - e_core), 0.0)
    epsilon = 2.0 * float(deviation.max())
    gap = _risk_gap(family, probs, scores, loss).sup_gap
    return EpsilonBoundReport(epsilon, gap, gap <= epsilon + slack, loss)


# -- Balanced distributions versus edge-dropped graphs -----------------------

# id: (binary nodes in CPT draw order, parents, latents, dropped observed edges)
_COUNTEREXAMPLES = {
    # Z -> X -> Y with a hidden common cause of (Y, Z)
    "C1": (("U", "Z", "X", "Y"), {"Z": ("U",), "X": ("Z",), "Y": ("X", "U")}, ("U",), ()),
    # X -> Y with a hidden common cause of (Y, Z); Z ends up isolated
    "C2": (("U", "X", "Y", "Z"), {"Y": ("X", "U"), "Z": ("U",)}, ("U",), ()),
    # pure causal chain Z -> X -> Y; dropping Z -> X isolates Z
    "C3": (("Z", "X", "Y"), {"X": ("Z",), "Y": ("X",)}, (), (("Z", "X"),)),
    # anti-causal with an observed mediator W between Z and X
    "C4": (("U", "Y", "Z", "W", "X"), {"Y": ("U",), "Z": ("U",), "W": ("Z",), "X": ("Y", "W")}, ("U",), ()),
}
_COUNTEREXAMPLE_IDS = tuple(_COUNTEREXAMPLES)


def _counterexample_cpts(example_id: str, seed: int, attempts: range) -> dict[str, np.ndarray]:
    """Each attempt's random positive CPTs of the named construction, stacked
    on a leading axis.  Attempt k draws every node's rows in node order as one
    ``uniform(0.1, 0.9)`` array from ``spawn(seed, 61, k)`` (the doubles of
    ``templates._random_rows`` per node) and normalizes them at once."""
    nodes, parents = _COUNTEREXAMPLES[example_id][:2]
    shapes = [(len(attempts),) + (2,) * (len(parents.get(n, ())) + 1) for n in nodes]
    starts = [0, *accumulate(2 ** (len(s) - 2) for s in shapes)]  # each node's first row
    draws = np.array([spawn(seed, 61, attempt).uniform(0.1, 0.9, (starts[-1], 2)) for attempt in attempts])
    draws /= draws.sum(axis=-1, keepdims=True)
    return {n: draws[:, a:b].reshape(s) for n, s, a, b in zip(nodes, shapes, starts, starts[1:])}


@dataclass(frozen=True)
class NonfactorizationResult:
    example_id: str
    balanced: JointTable
    skeleton: Dag
    violations: tuple[Violation, ...]
    seed_used: int


def find_nonfactorizing_balance(
    example_id: str, seed: int, retries: int = 16, min_gap: float = GENERIC_GAP
) -> NonfactorizationResult:
    """Search seeded random instances of the named construction for a
    balanced distribution that violates its edge-dropped skeleton.

    Attempt k draws the CPTs of ``_counterexample_cpts``.  The attempts run
    in two chunks, attempt 0 alone and then the rest together, each as one
    joint, latent marginal and (Y, Z) reweight with a leading draw axis.  In
    the second chunk the skeleton's local Markov statements screen all draws
    at once: only a draw with a local gap above the tolerance can fail to
    factorize, so only those get the full ``factorizes_according_to`` report,
    in attempt order.  Each gap and table is bit for bit that of its attempt
    alone.  Violations are generic for the constructions that have them, so
    failing all ``retries`` draws raises CounterexampleNotFound.
    """
    if example_id not in _COUNTEREXAMPLE_IDS:
        raise ArgumentError(f"unknown example id {example_id!r}; expected one of {_COUNTEREXAMPLE_IDS}")
    if not (is_int(retries) and retries >= 1):
        raise ArgumentError(f"retries must be an integer >= 1, got {retries!r}")
    if not (_finite_real(min_gap) and min_gap >= 0):
        raise ArgumentError(f"min_gap must be a finite number >= 0, got {min_gap!r}")
    nodes, parents, latents, dropped = _COUNTEREXAMPLES[example_id]
    dag = Dag(nodes, parents)
    skeleton = observed_dag(dag, latents, dropped)
    variables = tuple(Variable(n, 2) for n in skeleton.nodes)
    observed = [nodes.index(n) for n in skeleton.nodes]
    pair = (skeleton.nodes.index("Y"), skeleton.nodes.index("Z"))
    tol = 1e-9
    for chunk in filter(None, (range(1), range(1, retries))):
        probs = _marginal(_product(dag, _counterexample_cpts(example_id, seed, chunk), 1), observed, 1)
        balanced = _balance_pair(probs, pair, ("Y", "Z"), 1)
        hits = range(1)  # one draw: its report runs the local statements itself
        if len(chunk) > 1:
            local = [_gaps(balanced, skeleton.nodes, s, 1) for s in _local_statements(skeleton)]
            hits = np.flatnonzero(np.max(local, axis=0) > tol)
        for k in hits:
            table = _derived(variables, balanced[k])
            strong = tuple(v for v in factorizes_according_to(table, skeleton, tol).violations if v.gap > min_gap)
            if strong:
                return NonfactorizationResult(example_id, table, skeleton, strong, chunk[k])
    raise CounterexampleNotFound(
        f"no violation above {min_gap} found for {example_id} in {retries} seeded draws"
    )


@dataclass(frozen=True)
class ControlResult:
    factorizes: bool
    max_gap: float
    report: FactorizationReport = field(repr=False)


def anticausal_control(seed: int, tol: float = 1e-9) -> ControlResult:
    """Balance a random purely spurious anti-causal instance and confirm the
    result still factorizes according to the edge-dropped skeleton."""
    tpl = random_instance("A", seed)
    balanced = balance_exact(tpl.observed(), BalanceSpec(JointTarget(tpl.y, tpl.z)))
    report = factorizes_according_to(balanced, tpl.mutilated_skeleton(), tol=tol)
    return ControlResult(report.factorizes, report.max_gap(), report)


# -- Fairness implications of balancing ---------------------------------------

class FairnessCriterion(str, Enum):
    DEMOGRAPHIC_PARITY = "demographic_parity"
    PREDICTIVE_PARITY = "predictive_parity"
    EQUALIZED_ODDS = "equalized_odds"


@dataclass(frozen=True)
class FairnessReport:
    criterion: FairnessCriterion
    premise_gap: float
    premise_holds: bool
    conclusion_gap: float
    conclusion_holds: bool
    tol: float


def _criterion_gap(
    table: JointTable, criterion: FairnessCriterion, w: Sequence[str], y: str, z: str
) -> float:
    if criterion is FairnessCriterion.DEMOGRAPHIC_PARITY:
        return is_independent(table, tuple(w), (z,), (), tol=1.0).max_gap
    if criterion is FairnessCriterion.PREDICTIVE_PARITY:
        return is_independent(table, (y,), (z,), tuple(w), tol=1.0).max_gap
    return is_independent(table, tuple(w), (z,), (y,), tol=1.0).max_gap


def check_fairness_implication(
    table: JointTable,
    labels: DecompositionLabel,
    criterion: FairnessCriterion,
    y: str = "Y",
    z: str = "Z",
    tol: float = 1e-9,
) -> FairnessReport:
    """If the core covariates are independent of the group factor given the
    label, balancing makes the named fairness criterion hold for any score
    computed from the core covariates.  Reports the premise gap in the input
    distribution and the conclusion gap in its balanced version."""
    _check_coverage(table, labels, y, z)
    criterion = FairnessCriterion(criterion)
    premise = is_independent(table, labels.core, (z,), (y,), tol)
    balanced = balance_exact(table, BalanceSpec(JointTarget(y, z)))
    conclusion_gap = _criterion_gap(balanced, criterion, labels.core, y, z)
    return FairnessReport(
        criterion=criterion,
        premise_gap=premise.max_gap,
        premise_holds=premise.independent,
        conclusion_gap=conclusion_gap,
        conclusion_holds=conclusion_gap <= tol,
        tol=tol,
    )


@dataclass(frozen=True)
class RegularizedFairnessReport:
    criterion: FairnessCriterion
    mode: str
    balanced_gap: float
    regularizer_gap: float
    premise_holds: bool
    conclusion_gap: float
    conclusion_holds: bool
    tol: float


def check_fairness_with_regularizer(
    balanced_table: JointTable,
    w: str,
    mode: str,
    criterion: FairnessCriterion,
    y: str = "Y",
    z: str = "Z",
    tol: float = 1e-9,
) -> RegularizedFairnessReport:
    """Fairness of a regularized representation in an already-balanced table.

    ``w`` is a representation variable assumed regularized toward
    independence of the group factor, marginally (``mode="marginal"``) or
    given the label (``mode="conditional"``).  Premise: the table is balanced
    (label ⊥ group) and ``w`` satisfies its regularization target.  The
    conditional mode is sufficient for all three criteria; the marginal mode
    is not (predictive parity and equalized odds can fail; see the
    parity-of-three construction)."""
    if mode not in ("marginal", "conditional"):
        raise ArgumentError(f"mode must be 'marginal' or 'conditional', got {mode!r}")
    criterion = FairnessCriterion(criterion)
    balanced_gap = is_independent(balanced_table, (y,), (z,), (), tol=1.0).max_gap
    given = (y,) if mode == "conditional" else ()
    reg_gap = is_independent(balanced_table, (w,), (z,), given, tol=1.0).max_gap
    conclusion_gap = _criterion_gap(balanced_table, criterion, (w,), y, z)
    return RegularizedFairnessReport(
        criterion=criterion,
        mode=mode,
        balanced_gap=balanced_gap,
        regularizer_gap=reg_gap,
        premise_holds=balanced_gap <= tol and reg_gap <= tol,
        conclusion_gap=conclusion_gap,
        conclusion_holds=conclusion_gap <= tol,
        tol=tol,
    )


def xor_representation_table() -> JointTable:
    """Three pairwise-independent bits whose parity is even: W, Y, Z.

    W ⊥ Z and Y ⊥ Z hold exactly, yet given W the other two determine each
    other, so label-given-representation independence of the group fails.
    """
    probs = np.zeros((2, 2, 2))  # (w, y, z)
    for a, b_, c in product(range(2), repeat=3):
        w, y, z = int(a == b_), int(a == c), int(b_ == c)
        probs[w, y, z] += 1.0 / 8.0
    return JointTable((Variable("W", 2), Variable("Y", 2), Variable("Z", 2)), probs)


@dataclass(frozen=True)
class DependenceShift:
    """Dependence gap between the core covariates and the group factor,
    before and after balancing."""

    gap_before: float
    gap_after: float


def causal_task_dependence(
    table: JointTable, labels: DecompositionLabel, y: str = "Y", z: str = "Z"
) -> DependenceShift:
    """Measure how balancing changes the marginal dependence between the core
    covariates and the group factor.  For causal tasks with a purely spurious
    label-group dependence the gap is zero before balancing and generically
    positive after."""
    _check_coverage(table, labels, y, z)
    before = is_independent(table, labels.core, (z,), (), tol=1.0).max_gap
    balanced = balance_exact(table, BalanceSpec(JointTarget(y, z)))
    after = is_independent(balanced, labels.core, (z,), (), tol=1.0).max_gap
    return DependenceShift(before, after)
