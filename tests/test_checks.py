"""Exact verification routines: conditions, closed forms, risk bounds,
non-factorization searches, fairness implications."""

from __future__ import annotations

import numpy as np
import pytest

from balancelab.balancing import BalanceSpec, JointTarget, balance_exact
from balancelab.checks import (
    DecompositionLabel,
    FairnessCriterion,
    RegularizerSurrogate,
    Role,
    ShiftFamily,
    TablePredictor,
    anticausal_control,
    bayes_predictor,
    causal_task_dependence,
    check_epsilon_risk_bound,
    check_fairness_implication,
    check_fairness_with_regularizer,
    check_invariance_conditions,
    correlation_grid,
    entangled_gap,
    entangled_joint,
    find_nonfactorizing_balance,
    labels_for,
    risk_invariance_gap,
    xor_representation_table,
)
from balancelab.errors import (
    ArgumentError,
    CounterexampleNotFound,
    CoverageError,
    LabelError,
)
from balancelab.rng import spawn
from balancelab.tables import Variable, condition, is_independent, marginalize
from balancelab.templates import graph_template, random_instance


def balanced(table):
    return balance_exact(table, BalanceSpec(JointTarget("Y", "Z")))


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
            assert pred.score((state,)) == pytest.approx(expected, abs=1e-12)
        # tower property: averaging the posterior recovers the label marginal
        assert abs(sum(pred.score((s,)) * marginalize(obs, {"X_aux"}).probs[s] for s in range(2)) - marginal) < 1e-12

    def test_deterministic_entangled_channel(self):
        t = entangled_joint(1.0, 0.0)
        pred = bayes_predictor(t, ("X",))
        assert pred.score((1,)) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert pred.score((0,)) == pytest.approx(0.0, abs=1e-15)

    def test_unreachable_states_flagged(self):
        t = entangled_joint(1.0, 1.0)  # X ends up constant 1
        pred = bayes_predictor(t, ("X",))
        assert (0,) in pred.unreachable
        assert (0,) not in pred.posterior


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
                    brute = sum(px[x] * pred.score((x,)) for x in range(2) if px[x] > 0)
                    assert abs(brute - closed) <= 1e-12


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
        states = [s for s in np.ndindex(2, 2)]
        pred = TablePredictor.from_scores(covs, {s: 0.37 for s in states})
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
        pred = TablePredictor.from_scores(("X_core",), {(0,): 0.5})
        with pytest.raises(CoverageError):
            risk_invariance_gap(pred, fam)


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
            pert = full_pred.perturbed(
                {s: float(d) for s, d in zip(full_pred.posterior, gen.uniform(-0.05, 0.05, len(full_pred.posterior)))}
            )
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
            rep = check_fairness_implication(tpl.observed(), labels_for(tpl), criterion, tol=1e-12)
            assert rep.premise_holds
            assert rep.conclusion_holds, (seed, criterion, rep.conclusion_gap)

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
            q, RegularizerSurrogate("W", "marginal"), FairnessCriterion.PREDICTIVE_PARITY
        )
        assert rep_pp.premise_holds
        assert not rep_pp.conclusion_holds
        assert rep_pp.conclusion_gap == pytest.approx(0.25, abs=1e-12)
        rep_eo = check_fairness_with_regularizer(
            q, RegularizerSurrogate("W", "marginal"), FairnessCriterion.EQUALIZED_ODDS
        )
        assert not rep_eo.conclusion_holds

    def test_conditional_regularizer_is_sufficient(self):
        # any balanced table where W satisfies the conditional constraint
        for seed in range(10):
            tpl = random_instance("A", seed)
            q = balanced(tpl.observed())
            sub = marginalize(q, {"X_core", "Y", "Z"})
            renamed = sub  # X_core plays the representation role
            for criterion in FairnessCriterion:
                rep = check_fairness_with_regularizer(
                    renamed, RegularizerSurrogate("X_core", "conditional"), criterion, tol=1e-9
                )
                assert rep.premise_holds
                assert rep.conclusion_holds, (seed, criterion, rep.conclusion_gap)


class TestCausalTaskDependence:
    def test_balancing_induces_core_group_dependence(self):
        tpl = graph_template("B")
        shift = causal_task_dependence(tpl.observed(), labels_for(tpl))
        assert shift.gap_before < 1e-9
        assert shift.gap_after > 1e-6

    def test_no_dependence_when_already_balanced(self):
        tpl = graph_template("B", confounder_effect=1e-9)
        shift = causal_task_dependence(tpl.observed(), labels_for(tpl))
        assert shift.gap_after < 1e-6
