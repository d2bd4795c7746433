"""Exact verification routines: conditions, closed forms, risk bounds,
non-factorization searches, fairness implications and the claims table.

The entangled-channel table, its closed form, the parity-of-three table and
the regularized-fairness and causal-dependence checks are test data here:
plain references that the rows of ``claims`` are compared with."""

from __future__ import annotations

import gc
import hashlib
import inspect
import re
import sys
import threading
import weakref
from dataclasses import dataclass, fields
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancelab import balancing, checks, tables
from balancelab.balancing import BalanceSpec, JointTarget, balance_exact, reweight_marginal
from balancelab.checks import (
    DecompositionLabel,
    FairnessCriterion,
    Role,
    ShiftFamily,
    TablePredictor,
    anticausal_control,
    bayes_predictor,
    check_epsilon_risk_bound,
    check_fairness_implication,
    check_invariance_conditions,
    claims,
    LOSSES,
    correlation_grid,
    find_nonfactorizing_balance,
    labels_for,
    risk_invariance_gap,
)
from balancelab.errors import (
    ArgumentError,
    CounterexampleNotFound,
    CoverageError,
    LabelError,
    UnbalanceableSupport,
    UnknownVariableError,
)
from balancelab.datagen import GenSpec, _key_table
from balancelab.rng import spawn
from balancelab.bayesnet import factorizes_according_to
from balancelab.tables import JointTable, Variable, condition, is_independent, marginal_probs, marginalize
from balancelab.templates import GRAPH_IDS, graph_template, random_instance, template_d


def balanced(table):
    return balance_exact(table, BalanceSpec(JointTarget("Y", "Z")))


def perturbed(predictor: TablePredictor, delta: np.ndarray) -> TablePredictor:
    """The scores moved by ``delta`` (one entry per state) and clipped to [0, 1]."""
    return TablePredictor(predictor.inputs, np.clip(predictor.scores + delta, 0.0, 1.0), predictor.defined)


# -- References for the claims table -------------------------------------------

def entangled_joint(p: float, q: float) -> JointTable:
    """Three-variable table with uniform independent (Y, Z) and a single
    channel X with P(X=1 | y, z) = p when y or z, else q."""
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
    px1 = 0.75 * p + 0.25 * q
    f1 = 0.5 * p / px1 if px1 > 0 else 0.0
    f0 = 0.5 * (1.0 - p) / (1.0 - px1) if px1 < 1 else 0.0
    e_given_z1 = p * f1 + (1.0 - p) * f0
    px1_z0 = 0.5 * (p + q)
    e_given_z0 = px1_z0 * f1 + (1.0 - px1_z0) * f0
    return float(e_given_z1), float(e_given_z0)


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


def criterion_gap(table, criterion, w, y, z) -> float:
    if criterion is FairnessCriterion.DEMOGRAPHIC_PARITY:
        return is_independent(table, tuple(w), (z,), (), tol=1.0).max_gap
    if criterion is FairnessCriterion.PREDICTIVE_PARITY:
        return is_independent(table, (y,), (z,), tuple(w), tol=1.0).max_gap
    return is_independent(table, tuple(w), (z,), (y,), tol=1.0).max_gap


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


def check_fairness_with_regularizer(balanced_table, w, mode, criterion, y="Y", z="Z", tol=1e-9):
    """Fairness of a regularized representation ``w`` (a tuple of names) in
    an already-balanced table, regularized toward independence of the group
    factor marginally (``mode="marginal"``) or given the label
    (``mode="conditional"``).  The conditional mode is sufficient for all
    three criteria; the marginal mode is not (see the parity-of-three
    table)."""
    balanced_gap = is_independent(balanced_table, (y,), (z,), (), tol=1.0).max_gap
    given = (y,) if mode == "conditional" else ()
    reg_gap = is_independent(balanced_table, w, (z,), given, tol=1.0).max_gap
    conclusion_gap = criterion_gap(balanced_table, criterion, w, y, z)
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


def causal_task_dependence(table, labels, y="Y", z="Z") -> tuple[float, float]:
    """The core-group dependence gap before and after balancing."""
    before = is_independent(table, labels.core, (z,), (), tol=1.0).max_gap
    after = is_independent(balanced(table), labels.core, (z,), (), tol=1.0).max_gap
    return before, after


def group_means(table, predictor, z="Z") -> list[float]:
    """E[f | Z = z] of each group by state-by-state enumeration."""
    means = []
    for z_state in range(table.variable(z).cardinality):
        px = marginalize(condition(table, {z: z_state}), set(predictor.inputs))
        px = np.transpose(px.probs, px.axes(predictor.inputs))
        means.append(sum(px[x] * predictor.scores[x] for x in np.ndindex(px.shape) if px[x] > 0))
    return means


def reference_claims(tpl) -> dict[str, tuple[float, float, float]]:
    """(premise gap, conclusion gap, tol) of every row of ``claims`` but the
    bias shift (``test_balancing`` holds its closed form), from the public
    checks and the references above."""
    observed, labels, y, z = tpl.observed(), labels_for(tpl), tpl.y, tpl.z
    conditions = check_invariance_conditions(observed, labels)
    premise = max(conditions.cond1_gap, conditions.cond2_gap)
    bal = balanced(observed)
    covariates = tuple(n for n in observed.names if n not in (y, z))
    bound = check_epsilon_risk_bound(bayes_predictor(bal, covariates), ShiftFamily(bal, correlation_grid()), tpl.core)
    rows = {"invariance": (premise, bound.gap, 1e-9), "epsilon_bound": (bound.epsilon, bound.gap, bound.epsilon + 1e-9)}
    for criterion in FairnessCriterion:
        report = check_fairness_implication(observed, labels, criterion)
        rows[criterion.value] = (report.premise_gap, report.conclusion_gap, 1e-9)
    regularized = [check_fairness_with_regularizer(bal, tpl.core, "conditional", c) for c in FairnessCriterion]
    reg_premise = max(regularized[0].balanced_gap, regularized[0].regularizer_gap)  # the same for every criterion
    rows["conditional_regularizer"] = (reg_premise, max(r.conclusion_gap for r in regularized), 1e-9)
    before, after = causal_task_dependence(observed, labels)
    rows["causal_dependence"] = (is_independent(observed, (y,), (z,), tol=1.0).max_gap, abs(after - before), 1e-9)
    if tpl.entangled:
        means = group_means(bal, bayes_predictor(bal, tpl.entangled))
        rows["entangled_gap"] = (is_independent(bal, tpl.entangled, (z,), (y,)).max_gap, max(means) - min(means), 1e-9)
    rows["factorization"] = (premise, factorizes_according_to(bal, tpl.mutilated_skeleton()).max_gap(), 1e-9)
    return rows


class TestFixedNames:
    """Every check reads the label "Y" and the group factor "Z" and gives its verdicts with ``CLAIM_TOL``."""

    def test_signatures_take_no_names_and_no_tolerance(self):
        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert params(check_invariance_conditions) == ["table", "labels"]
        assert params(check_fairness_implication) == ["table", "labels", "criterion"]
        assert params(check_epsilon_risk_bound) == ["fitted", "family", "core", "loss"]
        assert params(ShiftFamily) == ["base", "grid"]
        assert [f.name for f in fields(checks.ConditionReport)] == ["holds", "cond1_gap", "cond2_gap"]
        names = ["criterion", "premise_gap", "premise_holds", "conclusion_gap", "conclusion_holds"]
        assert [f.name for f in fields(checks.FairnessReport)] == names
        assert checks.CLAIM_TOL == 1e-9

    def test_a_table_without_y_is_an_unknown_variable(self):
        tpl = graph_template("A")
        observed = tpl.observed()
        renamed = JointTable(tuple(Variable("L" if v.name == "Y" else v.name, v.cardinality) for v in observed.variables), observed.probs)
        labels = labels_for(tpl)
        with pytest.raises(UnknownVariableError, match="'Y'"):
            check_invariance_conditions(renamed, labels)
        for criterion in FairnessCriterion:
            with pytest.raises(UnknownVariableError, match="'Y'"):
                check_fairness_implication(renamed, labels, criterion)
        with pytest.raises(UnknownVariableError, match="'Y'"):
            ShiftFamily(renamed, correlation_grid(3))


class TestInvarianceConditions:
    def test_template_a_satisfies_both(self):
        tpl = graph_template("A")
        rep = check_invariance_conditions(tpl.observed(), labels_for(tpl))
        assert rep.holds
        assert rep.cond1_gap < 1e-12 and rep.cond2_gap < 1e-12

    def test_template_b_fails_second_condition(self):
        tpl = graph_template("B")
        rep = check_invariance_conditions(tpl.observed(), labels_for(tpl))
        assert not rep.holds
        assert rep.cond1_gap < 1e-12
        assert rep.cond2_gap > 1e-6
        # C's collider T -> Y <- U -> Z couples X_core to Z given Y; its
        # V channel tracks the label, so cond1 fails there too
        tpl = graph_template("C")
        rep = check_invariance_conditions(tpl.observed(), labels_for(tpl))
        assert rep.cond1_gap > 1e-6 and rep.cond2_gap > 1e-6

    def test_template_d_fails_first_condition(self):
        tpl = graph_template("D")
        rep = check_invariance_conditions(tpl.observed(), labels_for(tpl))
        assert not rep.holds
        assert rep.cond1_gap > 1e-6
        assert rep.cond2_gap < 1e-12

    def test_unlabelled_covariate_rejected(self):
        tpl = graph_template("A")
        with pytest.raises(LabelError, match="X_aux"):
            check_invariance_conditions(
                tpl.observed(), DecompositionLabel({"X_core": Role.CORE})
            )

    def test_unknown_role_names_the_valid_ones(self):
        with pytest.raises(ArgumentError, match="unknown Role 'bogus'; expected one of .*'core'"):
            DecompositionLabel({"X": "bogus"})
        assert DecompositionLabel({"X": "core"}).assignment == {"X": Role.CORE}


class TestBayesPredictor:
    def test_uninformative_inputs_give_marginal(self):
        tpl = graph_template("A")
        obs = tpl.observed()
        pred = bayes_predictor(obs, ("X_aux",))
        marginal = marginalize(obs, {"Y"}).probs[1]
        aux_then_y = marginalize(obs, {"X_aux", "Y"})
        # X_aux does carry label information here, so compare against the
        # exact conditional instead
        for state in range(2):
            expected = condition(aux_then_y, {"X_aux": state}).probs[1]
            assert pred.scores[state] == pytest.approx(expected, abs=1e-12)
        # tower property: averaging the scores recovers the label marginal
        assert abs(sum(pred.scores[s] * marginalize(obs, {"X_aux"}).probs[s] for s in range(2)) - marginal) < 1e-12

    def test_deterministic_entangled_channel(self):
        t = entangled_joint(1.0, 0.0)
        pred = bayes_predictor(t, ("X",))
        assert pred.scores[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert pred.scores[0] == pytest.approx(0.0, abs=1e-15)

    def test_unreachable_states_flagged(self):
        t = entangled_joint(1.0, 1.0)  # X ends up constant 1
        pred = bayes_predictor(t, ("X",))
        assert pred.defined.tolist() == [False, True]
        assert pred.scores.tolist() == [0.0, 0.5]

    @pytest.mark.parametrize(
        "scores, defined",
        [
            (np.zeros(2), np.ones(3, dtype=bool)),
            (np.zeros((2, 2)), np.ones((2, 2), dtype=bool)),
            (np.array([0.5, 1.5]), np.ones(2, dtype=bool)),
            (np.array([-0.1, 0.5]), np.ones(2, dtype=bool)),
            (np.array([np.nan, 0.5]), np.ones(2, dtype=bool)),
        ],
    )
    def test_constructor_rejects_bad_arrays(self, scores, defined):
        with pytest.raises(ArgumentError):
            TablePredictor(("X",), scores, defined)


class TestEntangledGap:
    def test_deterministic_or_channel(self):
        assert entangled_gap(1.0, 0.0) == pytest.approx((2.0 / 3.0, 1.0 / 3.0), abs=1e-15)

    def test_equal_probabilities_carry_no_signal(self):
        e1, e0 = entangled_gap(0.4, 0.4)
        assert e1 == pytest.approx(e0, abs=1e-15)

    def test_matches_enumeration_on_grid(self):
        for p in np.linspace(0.0, 1.0, 21):
            for q in np.linspace(0.0, 1.0, 21):
                e1, e0 = entangled_gap(float(p), float(q))
                t = entangled_joint(float(p), float(q))
                pred = bayes_predictor(t, ("X",))
                for z_state, closed in ((1, e1), (0, e0)):
                    px = marginalize(condition(t, {"Z": z_state}), {"X"}).probs
                    brute = sum(px[x] * pred.scores[x] for x in range(2) if px[x] > 0)
                    assert abs(brute - closed) <= 1e-12


class TestCorrelationGrid:
    @pytest.mark.parametrize("n_points", [0, -1, 2.5, True, "7", None])
    def test_needs_an_integer_of_at_least_one(self, n_points):
        with pytest.raises(ArgumentError, match="n_points"):
            correlation_grid(n_points)

    def test_one_point_and_numpy_integers(self):
        assert [g.tolist() for g in correlation_grid(1)] == [[[0.05, 0.95], [0.95, 0.05]]]
        for got, want in zip(correlation_grid(np.int64(4)), correlation_grid(4), strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bound", ["lo", "hi"])
    @pytest.mark.parametrize("value", [-0.5, 1.5, float("nan"), float("inf"), True, False, "0.1", None])
    def test_ends_must_be_finite_in_unit_interval(self, bound, value):
        with pytest.raises(ArgumentError, match="lo and hi must be finite numbers in \\[0, 1\\]"):
            correlation_grid(3, **{bound: value})

    def test_ends_accept_unit_interval_and_numpy_floats(self):
        assert [g.tolist() for g in correlation_grid(2, 0, 1)] == [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]
        for got, want in zip(correlation_grid(3, np.float64(0.2), np.float32(0.5)), correlation_grid(3, 0.2, 0.5)):
            assert got.tobytes() == want.tobytes()


class TestShiftFamily:
    def test_non_finite_grid_entry_rejected(self):
        q = balanced(random_instance("A", 1).observed())
        for bad in (np.full((2, 2), np.nan), np.array([[0.5, 0.5], [np.inf, 0.0]])):
            with pytest.raises(ArgumentError, match="finite"):
                ShiftFamily(q, correlation_grid(3) + (bad,))

    @pytest.mark.parametrize("order", [("Y", "Z", "X"), ("X", "Z", "Y")])
    def test_pair_marginal_family_raises_what_the_member_tables_would(self, order):
        """The family on the (y, z) marginal alone gives the member tables'
        support and overflow errors; with two empty cells the error names the
        first in the table's own axis order, as the whole reweight does."""
        cards = {"Y": 2, "Z": 2, "X": 3}
        probs = spawn(7, 60).uniform(0.1, 1.0, [cards[name] for name in order])
        tiny = probs.copy()
        tiny[tuple(0 if name in "YZ" else slice(None) for name in order)] = 1e-320
        for y, z in ((0, 1), (1, 0)):
            probs[tuple(y if name == "Y" else z if name == "Z" else slice(None) for name in order)] = 0.0
        tables = [JointTable(tuple(Variable(name, cards[name]) for name in order), p / p.sum()) for p in (probs, tiny)]
        grids = (correlation_grid(3), correlation_grid(3, 0.0, 1.0), (np.eye(2),), (np.eye(2)[::-1],))
        raised = 0
        for table in tables:
            for grid in grids:
                try:
                    want = ShiftFamily(table, grid)
                except (UnbalanceableSupport, ArgumentError) as exc:
                    raised += 1
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        ShiftFamily(marginalize(table, ("Y", "Z")), grid)
                else:
                    got = ShiftFamily(marginalize(table, ("Y", "Z")), grid).grid
                    assert all(np.array_equal(a, b) for a, b in zip(got, want.grid, strict=True))
        assert raised == 6  # every grid but the identity on the empty-cell table, every grid on the tiny one

    def test_first_bad_grid_entry_named_with_its_own_message(self):
        q = balanced(random_instance("A", 1).observed())
        good, nan, wide = np.array([[0.3, 0.7], [0.6, 0.4]]), np.full((2, 2), np.nan), np.full((2, 3), 1 / 3)
        for grid, message in (
            ((good, nan, wide), "grid entries must be finite"),
            ((good, wide, nan), re.escape("grid entries must be (2, 2), got (2, 3)")),
            ((good, np.array([[1.5, -0.5], [0.5, 0.5]]), nan), "rows that sum to 1"),
            ((np.array([[0.5, 0.5], [0.5, 0.5 + 2e-12]]), good), "rows that sum to 1"),
            ((np.array([[np.inf, -np.inf], [0.5, 0.5]]),), "grid entries must be finite"),
        ):
            with pytest.raises(ArgumentError, match=message):
                ShiftFamily(q, grid)

    @pytest.mark.parametrize("index", [-1, 3, 1.5, True, np.int64(-1), "0"])
    def test_member_index_must_be_an_integer_in_range(self, index):
        fam = ShiftFamily(balanced(random_instance("A", 1).observed()), correlation_grid(3))
        with pytest.raises(ArgumentError, match=re.escape("member index must be an integer in [0, 3)")):
            fam.member(index)
        assert fam.member(np.int64(2)).probs.tobytes() == fam.member(2).probs.tobytes()

    def test_laws_are_read_only_and_members_their_reweights(self):
        q = balanced(random_instance("B", 3).observed())
        grid = correlation_grid(4)
        fam = ShiftFamily(q, grid)
        py = marginal_probs(q, ("Y", "Z")).sum(axis=1, keepdims=True)
        assert fam.laws.shape == (4, 2, 2) and not fam.laws.flags.writeable
        for k in range(len(grid)):
            member = fam.member(k)
            assert fam.laws[k].tobytes() == (py * grid[k]).tobytes()
            assert member.variables == q.variables
            assert member.probs.tobytes() == reweight_marginal(q, ("Y", "Z"), fam.laws[k]).probs.tobytes()
            assert np.abs(marginal_probs(member, ("Y", "Z")) - fam.laws[k]).max() <= 1e-15


class TestIdentityEquality:
    def test_family_and_predictor_compare_and_hash_by_identity(self):
        q = random_instance("A", 1).observed()
        for make in (lambda: ShiftFamily(q, correlation_grid(3)), lambda: bayes_predictor(q, ("X_core",))):
            a, b = make(), make()
            assert a == a and a != b and not a == b
            assert len({a, b, a}) == 2 and hash(a) == hash(a)


class TestRiskInvariance:
    def test_core_predictor_invariant_on_balanced_anticausal(self):
        for seed in range(5):
            tpl = random_instance("A", seed)
            q = balanced(tpl.observed())
            fam = ShiftFamily(q, correlation_grid(7))
            pred = bayes_predictor(q, tpl.core)
            for loss in ("squared", "zero_one", "logloss"):
                res = risk_invariance_gap(pred, fam, loss)
                assert res.sup_gap < 1e-12, (seed, loss)

    def test_constant_predictor_with_fixed_label_marginal(self):
        tpl = random_instance("A", 9)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(5))
        covs = tuple(n for n in q.names if n not in ("Y", "Z"))
        pred = TablePredictor(covs, np.full((2, 2), 0.37), np.ones((2, 2), dtype=bool))
        res = risk_invariance_gap(pred, fam, "squared")
        assert res.sup_gap < 1e-12

    def test_entangled_full_input_predictor_varies(self):
        tpl = random_instance("D", 5)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(5))
        pred = bayes_predictor(q, tpl.core + tpl.entangled)
        res = risk_invariance_gap(pred, fam, "squared")
        assert res.sup_gap > 1e-6
        i, j = res.argmax_pair
        assert abs(res.risks[i] - res.risks[j]) == pytest.approx(res.sup_gap)

    def test_missing_state_raises(self):
        tpl = random_instance("A", 1)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(3))
        pred = TablePredictor(("X_core",), np.array([0.5, 0.0]), np.array([True, False]))
        with pytest.raises(CoverageError, match="'X_core': 1"):
            risk_invariance_gap(pred, fam)

    def test_shape_disagreeing_with_inputs_raises(self):
        tpl = random_instance("A", 1)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(3))
        pred = TablePredictor(("X_core",), np.full(3, 0.5), np.ones(3, dtype=bool))
        with pytest.raises(ArgumentError, match="shape"):
            risk_invariance_gap(pred, fam)


def loop_loss(score: float, y_value: int, loss: str) -> float:
    if loss == "squared":
        return (score - y_value) ** 2
    if loss == "zero_one":
        return float((score >= 0.5) != bool(y_value))
    s = min(max(score, 1e-12), 1.0 - 1e-12)
    return -(y_value * np.log(s) + (1 - y_value) * np.log(1.0 - s))


def loop_flat(member, cov_names, y):
    sub = marginalize(member, set(cov_names) | {y})
    arr = np.transpose(sub.probs, sub.axes(cov_names) + (sub.axis(y),))
    return arr.reshape(-1, arr.shape[-1]), arr.shape[:-1]


def loop_risk_invariance_gap(predictor, family, loss):
    """State-by-state reference: the risk of every member, then the largest pairwise gap."""
    cov_names = tuple(n for n in family.base.names if n not in ("Y", "Z"))
    input_pos = tuple(cov_names.index(n) for n in predictor.inputs)
    risks = []
    for member in map(family.member, range(len(family.grid))):
        flat, cards = loop_flat(member, cov_names, "Y")
        risk = 0.0
        for idx, row in enumerate(flat):
            if row.sum() == 0.0:
                continue
            state = tuple(int(s) for s in np.unravel_index(idx, cards))
            key = tuple(state[p] for p in input_pos)
            if not predictor.defined[key]:
                raise CoverageError(f"undefined on {key}")
            score = predictor.scores[key]
            risk += sum(row[yv] * loop_loss(score, yv, loss) for yv in range(len(row)))
        risks.append(float(risk))
    sup_gap, argmax = 0.0, (0, 0)
    for i in range(len(risks)):
        for j in range(i + 1, len(risks)):
            if abs(risks[i] - risks[j]) > sup_gap:
                sup_gap, argmax = abs(risks[i] - risks[j]), (i, j)
    return tuple(risks), sup_gap, argmax


def loop_epsilon(fitted, family, core):
    """State-by-state reference: twice the largest |score - E[Y | core]| over
    members and reachable states."""
    cov_names = tuple(n for n in family.base.names if n not in ("Y", "Z"))
    input_pos = tuple(cov_names.index(n) for n in fitted.inputs)
    core_pos = tuple(cov_names.index(n) for n in core)
    half_eps = 0.0
    for member in map(family.member, range(len(family.grid))):
        flat, cards = loop_flat(member, cov_names, "Y")
        masses = flat.sum(axis=1)
        reachable = np.flatnonzero(masses > 0)
        core_mass, core_ymass, scores, core_keys = {}, {}, {}, {}
        for idx in reachable:
            state = tuple(int(s) for s in np.unravel_index(idx, cards))
            scores[idx] = fitted.scores[tuple(state[p] for p in input_pos)]
            ck = core_keys[idx] = tuple(state[p] for p in core_pos)
            core_mass[ck] = core_mass.get(ck, 0.0) + masses[idx]
            core_ymass[ck] = core_ymass.get(ck, 0.0) + flat[idx, 1]
        for idx in reachable:
            half_eps = max(half_eps, abs(scores[idx] - core_ymass[core_keys[idx]] / core_mass[core_keys[idx]]))
    return 2.0 * half_eps


def loop_grids(n_points: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The sweep, the sweep out to its zero-entry ends, and the two one-member families with zero entries."""
    return correlation_grid(n_points), correlation_grid(n_points, 0.0, 1.0), (np.eye(2),), (np.eye(2)[::-1],)


def key_tables() -> list[JointTable]:
    """The datagen key tables of ``test_bitwise.shift_bases``: deterministic channels leave states empty."""
    specs = [GenSpec(g, 10) for g in "ABCD"] + [GenSpec("A", 10, confounding=(0.9, 0.1)), GenSpec("D", 10, z_marginal=0.2)]
    return [_key_table(spec.law.net) for spec in specs]


def assert_matches_loop(family, predictors, cores, tag):
    """Every risk, gap, pair, epsilon and verdict of the array checks against the loop."""
    for pred in predictors:
        for loss in LOSSES:
            res = risk_invariance_gap(pred, family, loss)
            risks, sup_gap, argmax = loop_risk_invariance_gap(pred, family, loss)
            rel = max(abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in zip(res.risks, risks, strict=True))
            assert rel <= 1e-15, (tag, loss, rel)
            assert abs(res.sup_gap - sup_gap) <= 1e-15, (tag, loss)
            if sup_gap > 1e-12:  # below this, rounding picks the pair
                assert res.argmax_pair == argmax, (tag, loss)
            if loss == "zero_one":
                continue
            for core in cores:
                rep = check_epsilon_risk_bound(pred, family, core, loss)
                epsilon = loop_epsilon(pred, family, core)
                assert abs(rep.epsilon - epsilon) <= 1e-15, (tag, loss, core)
                assert rep.bound_holds == (sup_gap <= epsilon + 1e-9), (tag, loss, core)


class TestLoopReference:
    """The array risk checks against a state-by-state loop on the same family."""

    @pytest.mark.parametrize("gid", ["A", "B", "C", "D"])
    def test_risks_and_epsilon_match_loop(self, gid):
        for seed in range(6):
            tpl = random_instance(gid, seed)
            for base in (tpl.observed(), balanced(tpl.observed())):
                covs = tuple(n for n in base.names if n not in ("Y", "Z"))
                full = bayes_predictor(base, covs[::-1])
                pert = perturbed(full, spawn(seed, 7).uniform(-0.05, 0.05, full.scores.shape))
                for grid in loop_grids(5 + seed % 3):
                    fam = ShiftFamily(base, grid)
                    assert_matches_loop(fam, (bayes_predictor(base, tpl.core), full, pert), (tpl.core, covs[::-1]), (gid, seed))

    def test_key_tables_match_loop(self):
        for i, table in enumerate(key_tables()):
            covs = tuple(n for n in table.names if n not in ("Y", "Z"))
            predictors = (bayes_predictor(table, covs[:1]), bayes_predictor(table, covs[::-1]))
            for grid in loop_grids(5):
                assert_matches_loop(ShiftFamily(table, grid), predictors, (covs[:1], covs), i)

    def test_a_removed_state_raises_exactly_when_the_loop_does(self):
        bases = key_tables() + [balanced(random_instance(g, seed).observed()) for g in "ABCD" for seed in range(2)]
        raised = kept = 0
        for i, table in enumerate(bases):
            covs = tuple(n for n in table.names if n not in ("Y", "Z"))
            full = bayes_predictor(table, covs)
            for state in map(tuple, np.argwhere(full.defined)):
                defined = full.defined.copy()
                defined[state] = False
                partial = TablePredictor(covs, full.scores, defined)
                for grid in loop_grids(5):
                    fam = ShiftFamily(table, grid)
                    try:
                        loop_risk_invariance_gap(partial, fam, "squared")
                    except CoverageError:
                        raised += 1
                        named = f"predictor undefined on reachable state {dict(zip(covs, map(int, state)))}"
                        with pytest.raises(CoverageError, match=re.escape(named)):
                            risk_invariance_gap(partial, fam)
                    else:
                        kept += 1
                        assert_matches_loop(fam, (partial,), (covs,), (i, state))
        assert raised and kept

    def test_outputs_pinned_bit_for_bit(self):
        # SHA-256 of the risks, gap and pair of every risk check and of the
        # epsilon, gap and verdict of every bound check on A-D instances, for
        # core, all and reversed inputs and a perturbed predictor
        digest = hashlib.sha256()
        for gid in "ABCD":
            for seed in range(6):
                tpl = random_instance(gid, seed)
                for base in (tpl.observed(), balanced(tpl.observed())):
                    fam = ShiftFamily(base, correlation_grid(5 + seed % 3))
                    covs = tuple(n for n in base.names if n not in ("Y", "Z"))
                    preds = [bayes_predictor(base, inputs) for inputs in (tpl.core, covs, covs[::-1])]
                    preds.append(perturbed(preds[2], spawn(seed, 7).uniform(-0.05, 0.05, preds[2].scores.shape)))
                    for pred in preds:
                        for loss in LOSSES:
                            res = risk_invariance_gap(pred, fam, loss)
                            digest.update(np.array(res.risks + (res.sup_gap,)).tobytes())
                            digest.update(np.array(res.argmax_pair).tobytes())
                            if loss == "zero_one":
                                continue
                            rep = check_epsilon_risk_bound(pred, fam, tpl.core, loss)
                            digest.update(np.array([rep.epsilon, rep.gap, float(rep.bound_holds)]).tobytes())
        assert digest.hexdigest() == "11b30fa17b1cbf81e7e5124d1dc851645aa84f6c8b90b1bb1f1fdbf7ebb2c05b"

    @pytest.mark.parametrize("graph", GRAPH_IDS)
    def test_sweep_gap_is_the_line_form_of_the_cell_risks(self, graph):
        # a member's risk is Σ P(y) P'(z | y) R(y, z), and the sweep moves P'(Z=0 | Y) along
        # (r, 1 - r) for r in [0.05, 0.95], so its gap is 0.9 · |P(y=0) ΔR_0 − P(y=1) ΔR_1|
        for seed in range(50):
            q = balanced(random_instance(graph, seed).observed())
            covs = tuple(n for n in q.names if n not in ("Y", "Z"))
            pred = bayes_predictor(q, covs)
            fam = ShiftFamily(q, correlation_grid())
            py = marginalize(q, ("Y",)).probs
            for loss in LOSSES:
                cell = np.zeros((2, 2))  # R(y, z) = E[loss | y, z], state by state
                for y, z in np.ndindex(2, 2):
                    px = condition(q, {"Y": y, "Z": z}).probs
                    cell[y, z] = sum(px[x] * loop_loss(pred.scores[x], y, loss) for x in np.ndindex(px.shape))
                line = 0.9 * abs(py[0] * (cell[0, 0] - cell[0, 1]) - py[1] * (cell[1, 0] - cell[1, 1]))
                assert abs(risk_invariance_gap(pred, fam, loss).sup_gap - line) <= 1e-12, (seed, loss)

    def test_repeated_names_rejected(self):
        tpl = random_instance("A", 1)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(3))
        with pytest.raises(ArgumentError, match="twice"):
            check_epsilon_risk_bound(bayes_predictor(q, tpl.core), fam, ("X_core", "X_core"))
        twice = TablePredictor(("X_core", "X_core"), np.diag([0.3, 0.6]), np.eye(2, dtype=bool))
        with pytest.raises(ArgumentError, match="twice"):
            risk_invariance_gap(twice, fam)

    def test_uncovered_state_raises_like_loop(self):
        tpl = random_instance("C", 2)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(3))
        pred = bayes_predictor(q, ("X_aux", "X_core"))
        defined = pred.defined.copy()
        defined[1, 0] = False
        partial = TablePredictor(pred.inputs, pred.scores, defined)
        for check in (risk_invariance_gap, loop_risk_invariance_gap):
            with pytest.raises(CoverageError):
                check(partial, fam, "squared")


class TestEpsilonBound:
    def test_core_bayes_has_zero_epsilon_and_gap(self):
        tpl = random_instance("A", 3)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(7))
        rep = check_epsilon_risk_bound(bayes_predictor(q, tpl.core), fam, tpl.core)
        assert rep.epsilon < 1e-12
        assert rep.gap < 1e-12
        assert rep.bound_holds

    @pytest.mark.parametrize("loss", ["squared", "logloss"])
    def test_perturbed_and_full_predictors_respect_bound(self, loss):
        for seed in range(20):
            gid = "AD"[seed % 2]
            tpl = random_instance(gid, seed)
            q = balanced(tpl.observed())
            fam = ShiftFamily(q, correlation_grid(7))
            covs = tuple(n for n in q.names if n not in ("Y", "Z"))
            core_pred = bayes_predictor(q, tpl.core)
            full_pred = bayes_predictor(q, covs)
            gen = spawn(seed, 7)
            pert = perturbed(full_pred, gen.uniform(-0.05, 0.05, full_pred.scores.shape))
            for pred in (core_pred, full_pred, pert):
                rep = check_epsilon_risk_bound(pred, fam, tpl.core, loss)
                assert rep.bound_holds, (gid, seed, loss, rep.epsilon, rep.gap)

    def test_entangled_full_input_has_large_epsilon(self):
        tpl = random_instance("D", 5)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(5))
        rep = check_epsilon_risk_bound(bayes_predictor(q, tpl.core + tpl.entangled), fam, tpl.core)
        assert rep.epsilon > 1e-3
        assert rep.bound_holds

    def test_zero_one_loss_rejected(self):
        tpl = random_instance("A", 1)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(3))
        with pytest.raises(ArgumentError, match="zero_one"):
            check_epsilon_risk_bound(bayes_predictor(q, tpl.core), fam, tpl.core, "zero_one")

    def test_reweights_the_pair_marginal_once_and_builds_no_member(self, monkeypatch):
        tpl = random_instance("D", 4)
        q = balanced(tpl.observed())
        pred = bayes_predictor(q, tpl.core + tpl.entangled)
        calls = []
        for module in (checks, balancing):
            counting(monkeypatch, module, "_reweight", calls)
        fam = ShiftFamily(q, correlation_grid(5))
        expected = risk_invariance_gap(pred, fam, "logloss").sup_gap
        rep = check_epsilon_risk_bound(pred, fam, tpl.core, "logloss")
        assert [c[0].shape for c in calls] == [(5, 2, 2)]  # the laws' reweight, when the family is built
        assert rep.gap == expected

    def test_epsilon_and_gap_share_one_scoring(self, monkeypatch):
        tpl = random_instance("D", 4)
        q = balanced(tpl.observed())
        pred = bayes_predictor(q, tpl.core + tpl.entangled)
        reads = []
        counting(monkeypatch, checks, "_scored", reads)
        rep = check_epsilon_risk_bound(pred, ShiftFamily(q, correlation_grid(5)), tpl.core)
        assert len(reads) == 1
        assert rep.bound_holds and rep.gap <= rep.epsilon + checks.CLAIM_TOL


class TestNonfactorization:
    @pytest.mark.parametrize("example_id", ["C1", "C2", "C3"])
    def test_violations_found_quickly(self, example_id):
        for seed in range(10):
            result = find_nonfactorizing_balance(example_id, seed)
            assert result.violations
            assert max(v.gap for v in result.violations) > 1e-6

    def test_mediated_anticausal_construction_factorizes(self):
        # The balanced joint of the mediator construction equals the
        # edge-dropped network's own factorization, so the search cannot
        # succeed; see the chain/fork algebra in the module docstring.
        with pytest.raises(CounterexampleNotFound):
            find_nonfactorizing_balance("C4", seed=0, retries=4)

    def test_c2_violates_group_isolation(self):
        result = find_nonfactorizing_balance("C2", seed=1)
        pairs = {(v.a, v.b) for v in result.violations} | {(v.b, v.a) for v in result.violations}
        assert any("Z" in a + b and "X" in a + b for a, b in pairs)

    def test_c3_violates_label_group_given_channel(self):
        result = find_nonfactorizing_balance("C3", seed=1)
        assert any(
            set(v.a + v.b) == {"Y", "Z"} and v.given == ("X",) for v in result.violations
        ) or any(set(v.a + v.b) >= {"Z"} for v in result.violations)

    def test_control_never_violates(self):
        for seed in range(10):
            ctrl = anticausal_control(seed)
            assert ctrl.factorizes
            assert ctrl.max_gap < 1e-9

    def test_unknown_id(self):
        with pytest.raises(ArgumentError):
            find_nonfactorizing_balance("C9", seed=0)

    @pytest.mark.parametrize("retries", [0, -1, 2.5, True, "16", None])
    def test_retries_must_be_an_integer_of_at_least_one(self, retries):
        with pytest.raises(ArgumentError, match="retries"):
            find_nonfactorizing_balance("C4", seed=0, retries=retries)

    @pytest.mark.parametrize("min_gap", [-1e-9, float("nan"), float("inf"), True, "0.1", None])
    def test_min_gap_must_be_finite_and_non_negative(self, min_gap):
        with pytest.raises(ArgumentError, match="min_gap"):
            find_nonfactorizing_balance("C1", seed=0, min_gap=min_gap)

    def test_numpy_counts_and_integer_gap_accepted(self):
        plain = find_nonfactorizing_balance("C2", seed=3, retries=2, min_gap=0)
        other = find_nonfactorizing_balance("C2", seed=np.int64(3), retries=np.int64(2), min_gap=np.float64(0.0))
        assert plain.balanced.probs.tobytes() == other.balanced.probs.tobytes()
        assert plain.violations == other.violations and plain.seed_used == other.seed_used == 0
        with pytest.raises(CounterexampleNotFound, match="in 1 seeded draws"):
            find_nonfactorizing_balance("C4", seed=0, retries=1)


class TestFairnessImplications:
    @pytest.mark.parametrize(
        "criterion",
        [
            FairnessCriterion.DEMOGRAPHIC_PARITY,
            FairnessCriterion.PREDICTIVE_PARITY,
            FairnessCriterion.EQUALIZED_ODDS,
        ],
    )
    def test_premise_implies_conclusion_on_anticausal_instances(self, criterion):
        for seed in range(15):
            tpl = random_instance("A", seed)
            rep = check_fairness_implication(tpl.observed(), labels_for(tpl), criterion)
            assert rep.premise_holds and rep.premise_gap <= 1e-12, (seed, criterion, rep.premise_gap)
            assert rep.conclusion_holds and rep.conclusion_gap <= 1e-12, (seed, criterion, rep.conclusion_gap)

    def test_causal_premise_failure_breaks_demographic_parity(self):
        tpl = graph_template("B")
        rep = check_fairness_implication(
            tpl.observed(), labels_for(tpl), FairnessCriterion.DEMOGRAPHIC_PARITY
        )
        assert not rep.premise_holds
        assert rep.conclusion_gap > 1e-6

    def test_xor_counterexample(self):
        q = xor_representation_table()
        # premises hold exactly
        assert is_independent(q, {"W"}, {"Z"}).max_gap < 1e-15
        assert is_independent(q, {"Y"}, {"Z"}).max_gap < 1e-15
        rep_pp = check_fairness_with_regularizer(
            q, ("W",), "marginal", FairnessCriterion.PREDICTIVE_PARITY
        )
        assert rep_pp.premise_holds
        assert not rep_pp.conclusion_holds
        assert rep_pp.conclusion_gap == pytest.approx(0.25, abs=1e-12)
        rep_eo = check_fairness_with_regularizer(
            q, ("W",), "marginal", FairnessCriterion.EQUALIZED_ODDS
        )
        assert not rep_eo.conclusion_holds

    def test_unknown_criterion_names_the_valid_ones(self):
        tpl = random_instance("A", 0)
        with pytest.raises(ArgumentError, match="unknown FairnessCriterion 'parity'; expected one of .*'demographic_parity'"):
            check_fairness_implication(tpl.observed(), labels_for(tpl), "parity")
        rep = check_fairness_implication(tpl.observed(), labels_for(tpl), "equalized_odds")
        assert rep.criterion is FairnessCriterion.EQUALIZED_ODDS

    def test_conditional_regularizer_is_sufficient(self):
        # X_core as a representation regularized given the label on balanced anti-causal instances
        for seed in range(10):
            tpl = random_instance("A", seed)
            row = claim(tpl, "conditional_regularizer")
            assert row.premise_holds
            assert row.conclusion_holds, (seed, row.conclusion_gap)
            for criterion in FairnessCriterion:
                rep = check_fairness_with_regularizer(balanced(tpl.observed()), tpl.core, "conditional", criterion)
                assert rep.premise_holds and rep.conclusion_holds, (seed, criterion, rep.conclusion_gap)


def claim(tpl, name):
    (row,) = (r for r in claims(tpl) if r.name == name)
    return row


class TestCausalTaskDependence:
    def test_balancing_induces_core_group_dependence(self):
        tpl = graph_template("B")
        before, after = causal_task_dependence(tpl.observed(), labels_for(tpl))
        assert before < 1e-9
        assert after > 1e-6
        row = claim(tpl, "causal_dependence")  # the source is not balanced, and balancing moves the core
        assert not row.premise_holds and row.conclusion_gap > 1e-6 and row.holds

    def test_no_dependence_when_already_balanced(self):
        tpl = graph_template("B", confounder_effect=1e-9)
        before, after = causal_task_dependence(tpl.observed(), labels_for(tpl))
        assert after < 1e-6
        assert claim(tpl, "causal_dependence").conclusion_gap < 1e-6


class TestClaims:
    """``claims`` against the plain references, bit for bit where a row and
    its reference share the kernels."""

    @pytest.mark.parametrize("graph", GRAPH_IDS)
    def test_rows_equal_the_reference(self, graph):
        for tpl in [graph_template(graph)] + [random_instance(graph, seed) for seed in range(50)]:
            rows = [r for r in claims(tpl) if r.name != "bias_shift"]
            want = reference_claims(tpl)
            assert [r.name for r in rows] == list(want)
            for row in rows:
                premise, conclusion, tol = want[row.name]
                assert row.premise_gap.hex() == premise.hex(), row
                assert row.tol == tol, row
                if row.name == "entangled_gap":  # summed in another order than the enumeration
                    assert abs(row.conclusion_gap - conclusion) <= 1e-12, row
                else:
                    assert row.conclusion_gap.hex() == conclusion.hex(), row

    def test_entangled_row_is_the_closed_form(self):
        for p, q in product(np.linspace(0.0, 1.0, 11), repeat=2):
            tpl = template_d(confounding=(0.5, 0.5), ent_p=float(p), ent_q=float(q))  # uniform, independent (Y, Z)
            e1, e0 = entangled_gap(float(p), float(q))
            assert abs(claim(tpl, "entangled_gap").conclusion_gap - abs(e1 - e0)) <= 1e-12, (p, q)
        assert all(r.name != "entangled_gap" for g in "ABC" for r in claims(graph_template(g)))

    @settings(max_examples=40)
    @given(graph=st.sampled_from(GRAPH_IDS), seed=st.integers(0, 10_000))
    def test_no_premise_holds_while_its_conclusion_fails(self, graph, seed):
        for row in claims(random_instance(graph, seed)):
            assert row.holds, row

    def test_skipping_balancing_fails_the_invariance_row_of_a(self, monkeypatch):
        tpl = graph_template("A")
        assert claim(tpl, "invariance").holds
        monkeypatch.setattr(checks, "_balance_pair", lambda probs, axes, names, lead=0: probs)
        row = claim(tpl, "invariance")
        assert row.premise_holds and row.conclusion_gap > 1e-3 and not row.holds

    def test_the_skeleton_misses_the_path_through_the_latent_v_of_c(self):
        # with no confounding and V keyed to Z alone the conditions hold, yet
        # Z -> V -> X_v runs through the latent V, which the skeleton drops
        rows = claims(graph_template("C", confounder_strength=0.0, v_flip=(0.5, 0.5)))
        broken = [r for r in rows if not r.holds]
        assert [r.name for r in broken] == ["factorization"]
        assert broken[0].premise_holds and broken[0].conclusion_gap > 0.1

    def test_one_balance_one_scoring_and_no_memo(self, monkeypatch):
        pairs, scored, lookups = [], [], []
        counting(monkeypatch, checks, "_balance_pair", pairs)
        counting(monkeypatch, checks, "_scored", scored)
        for module in (tables, balancing):
            counting(monkeypatch, module, "_once", lookups)
        claims(random_instance("D", 3))
        assert (len(pairs), len(scored), len(lookups)) == (1, 1, 0)

    def test_claims_takes_only_the_template(self):
        assert list(inspect.signature(claims).parameters) == ["template"]
        assert all(type(r.premise_gap) is float and type(r.conclusion_gap) is float for r in claims(graph_template("C")))


def instance_run(observed, tpl):
    """The exact checks of one instance on its observed table, in the order
    the benchmark runs them: every float output, the argmax states, and the
    balanced table."""
    labels = labels_for(tpl)
    conditions = check_invariance_conditions(observed, labels)
    bal = balance_exact(observed, BalanceSpec(JointTarget(tpl.y, tpl.z)))
    family = ShiftFamily(bal, correlation_grid())
    predictor = bayes_predictor(bal, tpl.core)
    gap = risk_invariance_gap(predictor, family)
    bound = check_epsilon_risk_bound(predictor, family, tpl.core)
    fairness = [check_fairness_implication(observed, labels, c) for c in FairnessCriterion]
    values = [conditions.cond1_gap, conditions.cond2_gap, *gap.risks, gap.sup_gap, bound.epsilon, bound.gap]
    values += [v for f in fairness for v in (f.premise_gap, f.conclusion_gap)]
    states = [is_independent(observed, tpl.core, (tpl.z,), (tpl.y,)).argmax_state]
    return [float(v).hex() for v in values], states, bal


def counting(monkeypatch, module, name, calls: list):
    """Replace ``module.name`` by a wrapper that appends each call's arguments to ``calls``."""
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


def copy_of(table: JointTable) -> JointTable:
    return JointTable(table.variables, table.probs)


class TestOncePerObject:
    """Exact results are computed once per immutable table and stored on it;
    a stored result is bit for bit a fresh one."""

    @pytest.mark.parametrize("graph", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("seed", range(5))
    def test_stored_results_equal_fresh_ones(self, monkeypatch, graph, seed):
        tpl = random_instance(graph, seed)
        observed = tpl.observed()
        first, second = instance_run(observed, tpl), instance_run(observed, tpl)  # the second run only hits
        assert second[2] is first[2]
        with monkeypatch.context() as m:
            for module in (tables, balancing):
                m.setattr(module, "_once", lambda owner, key, compute: compute())
            fresh = instance_run(copy_of(observed), tpl)
        for run in (first, second):
            assert run[:2] == fresh[:2]
            assert run[2].probs.tobytes() == fresh[2].probs.tobytes()

    def test_an_instance_balances_once_and_reads_its_premise_once(self, monkeypatch):
        pairs, statements, scored = [], [], []
        counting(monkeypatch, balancing, "_balance_pair", pairs)
        counting(monkeypatch, tables, "_independence", statements)
        counting(monkeypatch, checks, "_scored", scored)
        tpl = random_instance("D", 3)
        observed = tpl.observed()
        instance_run(observed, tpl)
        assert len(pairs) == 1
        premise = [s for s in statements if s[0] is observed and s[1:4] == (tpl.core, (tpl.z,), (tpl.y,))]
        assert len(premise) == 1
        assert len(scored) == 2  # the gap and the bound each score the base; nothing is stored on the family

    def test_equal_but_distinct_tables_share_nothing(self, monkeypatch):
        pairs, statements = [], []
        counting(monkeypatch, balancing, "_balance_pair", pairs)
        counting(monkeypatch, tables, "_independence", statements)
        table = random_instance("A", 2).observed()
        twin = copy_of(table)
        assert balanced(table) is balanced(table)
        assert "_memo" not in twin.__dict__
        assert balanced(twin) is not balanced(table)
        is_independent(table, ("X_core",), ("Z",), ("Y",))
        is_independent(twin, ("X_core",), ("Z",), ("Y",))
        assert len(pairs) == 2 and len(statements) == 2

    def test_a_different_tol_gets_its_own_entry(self, monkeypatch):
        statements = []
        counting(monkeypatch, tables, "_independence", statements)
        table = random_instance("A", 1).observed()
        loose, strict = (is_independent(table, ("X_core",), ("Z",), (), tol) for tol in (1.0, 1e-9))
        assert (loose.tol, strict.tol) == (1.0, 1e-9)
        assert loose.independent and not strict.independent
        assert loose.max_gap == strict.max_gap
        assert is_independent(table, ("X_core",), ("Z",), (), 1.0) == loose
        assert len(statements) == 2

    def test_a_caller_changing_its_argmax_state_reaches_no_other_caller(self):
        table = random_instance("C", 4).observed()
        first = is_independent(table, ("X_core",), ("Z",), ("Y",))
        expected = dict(first.argmax_state)
        first.argmax_state.clear()
        second = is_independent(table, ("X_core",), ("Z",), ("Y",))
        assert second.argmax_state == expected
        second.argmax_state["Y"] = 7
        assert is_independent(table, ("X_core",), ("Z",), ("Y",)).argmax_state == expected

    def test_bad_input_raises_each_time_and_stores_nothing(self):
        table = random_instance("A", 0).observed()
        split = JointTable((Variable("Y", 2), Variable("Z", 2)), np.array([[0.5, 0.0], [0.0, 0.5]]))
        fam = ShiftFamily(balanced(table), correlation_grid(3))
        undefined = TablePredictor(("X_core",), np.array([0.5, 0.0]), np.array([True, False]))
        for _ in range(2):
            with pytest.raises(UnknownVariableError):
                is_independent(table, ("nope",), ("Z",))
            with pytest.raises(ArgumentError, match="duplicate"):
                is_independent(table, ("X_core", "X_core"), ("Z",))
            with pytest.raises(UnbalanceableSupport):
                balanced(split)
            with pytest.raises(CoverageError):
                risk_invariance_gap(undefined, fam)
        assert set(table.__dict__["_memo"]) == {JointTarget("Y", "Z")}  # the family's base, balanced above
        assert not split.__dict__.get("_memo") and not fam.__dict__.get("_memo")

    def test_concurrent_first_requests_agree(self):
        tpl = random_instance("C", 6)
        expected = instance_run(tpl.observed(), tpl)
        table = tpl.observed()
        results, errors = [], []

        def work():
            try:
                results.append(instance_run(table, tpl))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and not errors and len(results) == 8
        for run in results:
            assert run[:2] == expected[:2]
            assert run[2].probs.tobytes() == expected[2].probs.tobytes()
        assert len({id(run[1][0]) for run in results}) == 8  # every caller its own argmax_state

    def test_a_stored_balanced_table_lives_as_long_as_its_source(self):
        table = random_instance("A", 5).observed()
        ref = weakref.ref(balanced(table))
        gc.collect()
        assert ref() is balanced(table)
        del table
        gc.collect()
        assert ref() is None
