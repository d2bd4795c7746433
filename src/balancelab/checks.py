"""The paper's claims about joint balancing, checked on exact tables.

Everything here works on exact tables, so each claim is checked by direct
enumeration rather than simulation.  The public checks each answer one
question: the sufficient conditions for balanced training to yield an
invariant model, risk invariance of a predictor across a correlation-shift
family and its epsilon bound, the fairness criteria that balancing implies,
and seeded searches for balanced distributions that violate the
independencies of an edge-dropped graph.  ``claims(template)`` puts every
proposition of one template in one table, a premise gap, a conclusion gap
and a verdict per row, and computes the balanced table, the premise
core ⊥ Z | Y and the shift family's scoring once for all of them.

A shift family changes only P'(z | y), so each member is its (Y, Z) law
P(y) · P'(z | y), and a predictor's risk on it is Σ_{y,z} law(y, z) · R(y, z),
with R(y, z) = E[loss | y, z] read once from the base; no member table is
built.  A predictor is two arrays with one axis per input: the score
P(Y=1 | state) and where that score is defined.
The counterexample networks C1-C4 are rows of one table: nodes, parents, latents and the observed edges the
edge-dropped skeleton loses, with that skeleton built by
``bayesnet.observed_dag``.

Every check reads the label as the variable ``"Y"`` and the group factor as
``"Z"``, and gives its verdicts with the one tolerance ``CLAIM_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

import numpy as np

from .balancing import BalanceSpec, JointTarget, _balance_pair, _reweight, balance_exact, reweight_marginal
from .bayesnet import (
    Dag,
    FactorizationReport,
    Violation,
    _local_statements,
    _product,
    _statement_gaps,
    broadcast_axes,
    factorizes_according_to,
    observed_dag,
)
from .errors import (
    ArgumentError,
    CounterexampleNotFound,
    CoverageError,
    LabelError,
    enum_member,
)
from .rng import is_int, is_real, spawn
from .tables import JointTable, Variable, _derived, _frozen, _independence, _marginal, is_independent, marginal_probs, marginalize
from .templates import GraphTemplate, random_instance

CLAIM_TOL = 1e-9  # every check's verdict tolerance
GENERIC_GAP = 1e-6  # separates structural violations from float noise


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
            self, "assignment", {k: enum_member(Role, v) for k, v in dict(self.assignment).items()}
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


def _check_coverage(table: JointTable, labels: DecompositionLabel) -> None:
    table.axes(("Y", "Z"))  # an absent label or group factor raises UnknownVariableError
    covariates = set(table.names) - {"Y", "Z"}
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

    cond1: non-core covariates ⊥ {Y, core} | Z.
    cond2: core ⊥ Z | Y.
    """

    holds: bool
    cond1_gap: float
    cond2_gap: float


def check_invariance_conditions(table: JointTable, labels: DecompositionLabel) -> ConditionReport:
    """Check the training-distribution conditions under which balancing
    provably yields a risk-invariant, optimal predictor."""
    _check_coverage(table, labels)
    rest = labels.rest
    if rest:
        cond1 = is_independent(table, rest, ("Y", *labels.core), ("Z",), CLAIM_TOL)
        cond1_gap = cond1.max_gap
    else:
        cond1_gap = 0.0
    cond2 = is_independent(table, labels.core, ("Z",), ("Y",), CLAIM_TOL)
    return ConditionReport(
        holds=cond1_gap <= CLAIM_TOL and cond2.max_gap <= CLAIM_TOL,
        cond1_gap=cond1_gap,
        cond2_gap=cond2.max_gap,
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


def bayes_predictor(table: JointTable, inputs: Iterable[str]) -> TablePredictor:
    """Exact P(Y = 1 | input state), defined wherever the state has mass."""
    inputs = tuple(inputs)
    if not inputs:
        raise ArgumentError("inputs must be non-empty")
    if "Y" in inputs:
        raise ArgumentError("label 'Y' cannot be one of the inputs")
    arr = marginal_probs(table, inputs + ("Y",))
    mass = arr.sum(axis=-1)
    scores = np.divide(arr[..., 1], mass, out=np.zeros_like(mass), where=mass > 0)
    return TablePredictor(inputs, scores, mass > 0)


@dataclass(frozen=True, eq=False)
class ShiftFamily:
    """Correlation-shift family: P(Z | Y) varies over ``grid`` while P(Y)
    and all covariate mechanisms given (Y, Z) stay pinned to ``base``, whose
    label is ``"Y"`` and group factor ``"Z"``.  So member k is its (Y, Z)
    law, ``laws[k]`` = P(y) · grid[k] over (Y, Z).  One reweight of the
    base's (Y, Z) marginal checks every law and raises what a member table's
    own reweight would; ``member(k)`` builds that table when asked for it.
    Equality and hashing are by identity, since the fields hold arrays.
    """

    base: JointTable
    grid: tuple[np.ndarray, ...]
    laws: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        y_card = self.base.variable("Y").cardinality
        z_card = self.base.variable("Z").cardinality
        grid = tuple(np.asarray(g, dtype=float) for g in self.grid)
        if not grid:
            raise ArgumentError("grid must be non-empty")
        shaped = all(g.shape == (y_card, z_card) for g in grid)
        stack = np.stack(grid) if shaped else None
        if not (shaped and stack.min() >= 0 and np.abs(stack.sum(axis=-1) - 1.0).max() <= 1e-12):  # NaN, inf fail
            for g in grid:  # name the first bad entry, with the same tests
                if g.shape != (y_card, z_card):
                    raise ArgumentError(f"grid entries must be ({y_card}, {z_card}), got {g.shape}")
                if not np.isfinite(g).all():
                    raise ArgumentError("grid entries must be finite")
                if np.any(g < 0) or np.any(np.abs(g.sum(axis=1) - 1.0) > 1e-12):
                    raise ArgumentError("each grid entry must have rows that sum to 1")
        object.__setattr__(self, "grid", grid)
        names = ("Y", "Z")
        pair = marginalize(self.base, names)  # in the base's axis order, so a bad cell is named as a member names it
        laws = marginal_probs(pair, names).sum(axis=1, keepdims=True) * stack  # P(y) · P'(z | y)
        _reweight(np.broadcast_to(pair.probs, (len(grid),) + pair.shape), pair.axes(names), laws, names, 1)
        object.__setattr__(self, "laws", _frozen(laws))

    def member(self, i: int) -> JointTable:
        if not (is_int(i) and 0 <= i < len(self.grid)):
            raise ArgumentError(f"member index must be an integer in [0, {len(self.grid)}), got {i!r}")
        return reweight_marginal(self.base, ("Y", "Z"), self.laws[i])


def correlation_grid(n_points: int = 7, lo: float = 0.05, hi: float = 0.95) -> tuple[np.ndarray, ...]:
    """Binary-group confounder-strength sweep.

    Point r sets P'(Z=0|Y=0) = r and P'(Z=0|Y=1) = 1 - r, so the sweep runs
    from a strong coupling one way (r near 0), through independence at 1/2,
    to a strong coupling the other way (r near 1).
    """
    if not (is_int(n_points) and n_points >= 1):
        raise ArgumentError(f"n_points must be an integer >= 1, got {n_points!r}")
    if not all(is_real(v) and 0 <= v <= 1 for v in (lo, hi)):
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
    covariates = tuple(n for n in family.base.names if n not in ("Y", "Z"))
    if len(set(names)) != len(names):
        raise ArgumentError(f"{tuple(names)} names a variable twice")
    for name in names:
        if name not in covariates:
            raise ArgumentError(f"{name!r} is not a covariate of the table")
    return covariates, tuple(covariates.index(n) for n in names)


def _scored(predictor: TablePredictor, family: ShiftFamily) -> tuple[np.ndarray, np.ndarray]:
    """The base's P(covariates..., y, z) / P(y, z), 0 where (y, z) has no
    mass, and the predictor's score broadcast over the covariate axes, both
    in table order, after checking that the predictor is defined on every
    input state that some member reaches."""
    covariates, axes = _covariate_axes(family, predictor.inputs)
    cards = tuple(family.base.variable(n).cardinality for n in predictor.inputs)
    if predictor.scores.shape != cards:
        raise ArgumentError(f"predictor scores have shape {predictor.scores.shape}, its inputs take {cards} states")
    joint = marginal_probs(family.base, covariates + ("Y", "Z"))
    pyz = joint.sum(axis=tuple(range(len(covariates))))
    conditional = np.divide(joint, pyz, out=np.zeros_like(joint), where=pyz > 0)
    others = tuple(i for i in range(len(covariates)) if i not in axes)
    reached = np.transpose(((conditional > 0) & family.laws.any(axis=0)).any(axis=(-2, -1)), axes + others)
    reached = reached.reshape(cards + (-1,)).any(axis=-1)
    undefined = np.argwhere(reached & ~predictor.defined)
    if undefined.size:
        state = tuple(int(s) for s in undefined[0])
        raise CoverageError(f"predictor undefined on reachable state {dict(zip(predictor.inputs, state))}")
    return conditional, broadcast_axes(predictor.scores, axes, len(covariates))


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
    return _risk_gap(family, *_scored(predictor, family), loss)


def _risk_gap(family: ShiftFamily, conditional: np.ndarray, scores: np.ndarray, loss: str) -> RiskInvarianceResult:
    """``risk_invariance_gap`` on the predictor's scoring of the base: member
    k's risk is Σ_{y,z} laws[k] · R(y, z), with R(y, z) = E[loss | y, z]."""
    if loss not in LOSSES:
        raise ArgumentError(f"unknown loss {loss!r}; expected one of {LOSSES}")
    if family.base.variable("Y").cardinality != 2:
        raise ArgumentError("risk computations assume a binary label")
    losses = np.stack(_LOSS_PAIRS[loss](scores), axis=-1)[..., None]  # the loss at each covariate state and y
    cell_risks = (conditional * losses).sum(axis=tuple(range(scores.ndim)))
    risks = (family.laws * cell_risks).sum(axis=(1, 2))
    hi, lo = int(risks.argmax()), int(risks.argmin())  # the first pair of ``max - min`` is the first maximal pair
    pair = (min(hi, lo), max(hi, lo)) if risks[hi] > risks[lo] else (0, 0)
    return RiskInvarianceResult(tuple(map(float, risks)), float(risks[hi] - risks[lo]), pair)


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
) -> EpsilonBoundReport:
    """Bound the risk-invariance gap by twice the largest deviation between
    the fitted score and the label mean given the core covariates, over
    family members and reachable states; the bound holds when the gap is at
    most epsilon + ``CLAIM_TOL``.  Both come from one scoring of the base.

    Valid for losses whose risk is characterized by conditional means and is
    score-Lipschitz (squared, logloss).  Zero-one loss jumps at the decision
    threshold, so no score-deviation bound can control it.
    """
    core = tuple(core)
    if loss == "zero_one":
        raise ArgumentError("the risk bound does not apply to the zero_one loss")
    _, axes = _covariate_axes(family, core)
    conditional, scores = _scored(fitted, family)
    epsilon = _epsilon(family, axes, conditional, scores)
    gap = _risk_gap(family, conditional, scores, loss).sup_gap
    return EpsilonBoundReport(epsilon, gap, gap <= epsilon + CLAIM_TOL, loss)


def _epsilon(family: ShiftFamily, axes: Sequence[int], conditional: np.ndarray, scores: np.ndarray) -> float:
    """``check_epsilon_risk_bound``'s epsilon on the predictor's scoring of the base, the core at covariate ``axes``."""
    members = np.einsum("...yz,kyz->k...y", conditional, family.laws)  # each member's P(covariates..., y)
    mass = members.sum(axis=-1)
    others = tuple(1 + i for i in range(scores.ndim) if i not in axes)
    core_mass = mass.sum(axis=others, keepdims=True)
    core_ymass = members[..., 1].sum(axis=others, keepdims=True)
    e_core = np.divide(core_ymass, core_mass, out=np.zeros_like(core_mass), where=core_mass > 0)
    return 2.0 * float(np.where(mass > 0, np.abs(scores - e_core), 0.0).max())


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
    at once, in one ``_statement_gaps`` call over the draw axis: only a draw
    with a local gap above the tolerance can fail to factorize, so only
    those get the full ``factorizes_according_to`` report, in attempt order.
    Each gap and table is bit for bit that of its attempt alone.  Violations
    are generic for the constructions that have them, so failing all
    ``retries`` draws raises CounterexampleNotFound.
    """
    if example_id not in _COUNTEREXAMPLE_IDS:
        raise ArgumentError(f"unknown example id {example_id!r}; expected one of {_COUNTEREXAMPLE_IDS}")
    if not (is_int(retries) and retries >= 1):
        raise ArgumentError(f"retries must be an integer >= 1, got {retries!r}")
    if not (is_real(min_gap) and min_gap >= 0):
        raise ArgumentError(f"min_gap must be a finite number >= 0, got {min_gap!r}")
    nodes, parents, latents, dropped = _COUNTEREXAMPLES[example_id]
    dag = Dag(nodes, parents)
    skeleton = observed_dag(dag, latents, dropped)
    variables = tuple(Variable(n, 2) for n in skeleton.nodes)
    observed = [nodes.index(n) for n in skeleton.nodes]
    pair = (skeleton.nodes.index("Y"), skeleton.nodes.index("Z"))
    for chunk in filter(None, (range(1), range(1, retries))):
        probs = _marginal(_product(dag, _counterexample_cpts(example_id, seed, chunk), 1), observed, 1)
        balanced = _balance_pair(probs, pair, ("Y", "Z"), 1)
        hits = range(1)  # one draw: its report runs the local statements itself
        if len(chunk) > 1:
            local = _statement_gaps(balanced, skeleton.nodes, _local_statements(skeleton), 1)
            hits = np.flatnonzero((local > CLAIM_TOL).any(axis=-1))
        for k in hits:
            table = _derived(variables, balanced[k])
            strong = tuple(v for v in factorizes_according_to(table, skeleton, CLAIM_TOL).violations if v.gap > min_gap)
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


def anticausal_control(seed: int) -> ControlResult:
    """Balance a random purely spurious anti-causal instance and confirm the
    result still factorizes according to the edge-dropped skeleton, within
    ``factorizes_according_to``'s default 1e-9."""
    tpl = random_instance("A", seed)
    balanced = balance_exact(tpl.observed(), BalanceSpec(JointTarget("Y", "Z")))
    report = factorizes_according_to(balanced, tpl.mutilated_skeleton())
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


def _criteria(w: tuple[str, ...]) -> dict[FairnessCriterion, tuple[tuple[str, ...], ...]]:
    """The independence (a, b, given) that each criterion asks of a score computed from ``w``."""
    return {
        FairnessCriterion.DEMOGRAPHIC_PARITY: (w, ("Z",), ()),
        FairnessCriterion.PREDICTIVE_PARITY: (("Y",), ("Z",), w),
        FairnessCriterion.EQUALIZED_ODDS: (w, ("Z",), ("Y",)),
    }


def check_fairness_implication(
    table: JointTable, labels: DecompositionLabel, criterion: FairnessCriterion
) -> FairnessReport:
    """If the core covariates are independent of Z given Y, balancing makes
    the named fairness criterion hold for any score computed from the core
    covariates.  Reports the premise gap in the input distribution and the
    conclusion gap in its balanced version."""
    _check_coverage(table, labels)
    criterion = enum_member(FairnessCriterion, criterion)
    premise = is_independent(table, labels.core, ("Z",), ("Y",), CLAIM_TOL)
    balanced = balance_exact(table, BalanceSpec(JointTarget("Y", "Z")))
    conclusion_gap = _independence(balanced, *_criteria(labels.core)[criterion], CLAIM_TOL).max_gap
    return FairnessReport(
        criterion=criterion,
        premise_gap=premise.max_gap,
        premise_holds=premise.independent,
        conclusion_gap=conclusion_gap,
        conclusion_holds=conclusion_gap <= CLAIM_TOL,
    )


# -- The claims table ----------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One proposition on one template: premise ⇒ conclusion.  Each side is
    a gap and holds when it is at most ``tol``; ``holds`` is the verdict, the
    premise failing or the conclusion holding.  A bound row states
    gap ≤ bound: its premise gap is the bound and its ``tol`` the bound plus
    ``CLAIM_TOL``, so its premise holds and its verdict is the bound."""

    name: str
    premise_gap: float
    conclusion_gap: float
    tol: float

    @property
    def premise_holds(self) -> bool:
        return self.premise_gap <= self.tol

    @property
    def conclusion_holds(self) -> bool:
        return self.conclusion_gap <= self.tol

    @property
    def holds(self) -> bool:
        return not self.premise_holds or self.conclusion_holds


def claims(template: GraphTemplate) -> tuple[Claim, ...]:
    """The paper's propositions on the template's observed law P and its
    (Y, Z)-balanced law Q, one row each, as premise ⇒ conclusion:

      invariance               cond1 and cond2 on P ⇒ the squared-loss risk gap, over
                               ``correlation_grid()`` members of Q, of Q's Bayes
                               predictor on every covariate
      epsilon_bound            that gap ≤ the same predictor's epsilon (a bound row)
      one row per criterion    core ⊥ Z | Y on P ⇒ the criterion's gap on Q
      conditional_regularizer  Y ⊥ Z and core ⊥ Z | Y on Q ⇒ the largest criterion gap
      causal_dependence        Y ⊥ Z on P ⇒ the core ⊥ Z gap is the same on Q
      bias_shift               making Y uniform moves E[Z] by the closed form
                               |P(Y=1) − ½| · |E[Z | Y=1] − E[Z | Y=0]| (a bound row)
      entangled_gap            with entangled covariates only: entangled ⊥ Z | Y on Q
                               ⇒ E[f | Z] is the same in every group, f being Q's
                               Bayes predictor on the entangled covariates
      factorization            cond1 and cond2 on P ⇒ Q obeys ``mutilated_skeleton()``

    Q, the premise core ⊥ Z | Y and the Bayes predictor's scoring on Q are
    computed once each and shared by the rows that read them.
    """
    observed, labels = template.observed(), labels_for(template)
    _check_coverage(observed, labels)
    core, rest, entangled = labels.core, labels.rest, template.entangled

    def gap(table: JointTable, a: tuple[str, ...], b: tuple[str, ...], given: tuple[str, ...] = ()) -> float:
        return _independence(table, a, b, given, CLAIM_TOL).max_gap

    balanced = _derived(observed.variables, _balance_pair(observed.probs, observed.axes(("Y", "Z")), ("Y", "Z")))
    cond2 = gap(observed, core, ("Z",), ("Y",))
    conditions = max(gap(observed, rest, ("Y", *core), ("Z",)) if rest else 0.0, cond2)
    family = ShiftFamily(balanced, correlation_grid())
    covariates = tuple(n for n in observed.names if n not in ("Y", "Z"))
    conditional, scores = _scored(bayes_predictor(balanced, covariates), family)
    risk_gap = _risk_gap(family, conditional, scores, "squared").sup_gap
    epsilon = _epsilon(family, _covariate_axes(family, core)[1], conditional, scores)
    fairness = [Claim(c.value, cond2, gap(balanced, *s), CLAIM_TOL) for c, s in _criteria(core).items()]
    representation = max(gap(balanced, ("Y",), ("Z",)), gap(balanced, core, ("Z",), ("Y",)))  # regularized given Y
    moved = abs(gap(balanced, core, ("Z",)) - gap(observed, core, ("Z",)))
    pyz, uniform_y = marginal_probs(observed, ("Y", "Z")), reweight_marginal(observed, ("Y",), np.full(2, 0.5))
    bias_bound = float(abs(pyz[1].sum() - 0.5) * abs(pyz[1, 1] / pyz[1].sum() - pyz[0, 1] / pyz[0].sum()))
    bias_shift = float(abs(marginal_probs(uniform_y, ("Z",))[1] - marginal_probs(observed, ("Z",))[1]))
    rows = [
        Claim("invariance", conditions, risk_gap, CLAIM_TOL),
        Claim("epsilon_bound", epsilon, risk_gap, epsilon + CLAIM_TOL),
        *fairness,
        Claim("conditional_regularizer", representation, max(c.conclusion_gap for c in fairness), CLAIM_TOL),
        Claim("causal_dependence", gap(observed, ("Y",), ("Z",)), moved, CLAIM_TOL),
        Claim("bias_shift", bias_bound, bias_shift, bias_bound + CLAIM_TOL),
    ]
    if entangled:
        pxz, score = marginal_probs(balanced, (*entangled, "Z")), bayes_predictor(balanced, entangled).scores
        means = np.tensordot(score, pxz, len(entangled)) / _marginal(pxz, (len(entangled),))  # E[f | z] per z
        rows.append(Claim("entangled_gap", gap(balanced, entangled, ("Z",), ("Y",)), float(np.ptp(means)), CLAIM_TOL))
    skeleton_gap = factorizes_according_to(balanced, template.mutilated_skeleton(), CLAIM_TOL).max_gap()
    return (*rows, Claim("factorization", conditions, skeleton_gap, CLAIM_TOL))
