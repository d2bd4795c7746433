"""Exact verification routines: conditions, closed forms, risk bounds,
non-factorization searches, fairness implications."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from balancelab import checks
from balancelab.balancing import BalanceSpec, JointTarget, balance_exact
from balancelab.checks import (
    DecompositionLabel,
    FairnessCriterion,
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
    LOSSES,
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

    def test_perturbed_clips_and_keeps_defined(self):
        pred = TablePredictor(("X",), np.array([0.0, 0.5, 0.98]), np.array([False, True, True]))
        moved = pred.perturbed(np.array([0.3, -0.1, 0.05]))
        assert moved.scores.tolist() == [0.3, 0.4, 1.0]
        assert moved.defined.tolist() == [False, True, True]
        with pytest.raises(ArgumentError, match="shape"):
            pred.perturbed(np.zeros(2))


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

    def test_members_are_read_only_views_of_the_stack(self):
        q = balanced(random_instance("B", 3).observed())
        fam = ShiftFamily(q, correlation_grid(4))
        assert fam.probs.shape == (4,) + q.shape and not fam.probs.flags.writeable
        for k, member in enumerate(fam.members()):
            assert member.variables == q.variables
            assert np.shares_memory(member.probs, fam.probs) and member.probs.tobytes() == fam.probs[k].tobytes()


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
    cov_names = tuple(n for n in family.base.names if n not in (family.y, family.z))
    input_pos = tuple(cov_names.index(n) for n in predictor.inputs)
    risks = []
    for member in family.members():
        flat, cards = loop_flat(member, cov_names, family.y)
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
    cov_names = tuple(n for n in family.base.names if n not in (family.y, family.z))
    input_pos = tuple(cov_names.index(n) for n in fitted.inputs)
    core_pos = tuple(cov_names.index(n) for n in core)
    half_eps = 0.0
    for member in family.members():
        flat, cards = loop_flat(member, cov_names, family.y)
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


class TestLoopReference:
    """The array risk checks against a state-by-state loop on the same family."""

    @pytest.mark.parametrize("gid", ["A", "B", "C", "D"])
    def test_risks_and_epsilon_match_loop(self, gid):
        for seed in range(6):
            tpl = random_instance(gid, seed)
            for base in (tpl.observed(), balanced(tpl.observed())):
                fam = ShiftFamily(base, correlation_grid(5 + seed % 3))
                covs = tuple(n for n in base.names if n not in ("Y", "Z"))
                full = bayes_predictor(base, covs[::-1])
                gen = spawn(seed, 7)
                pert = full.perturbed(gen.uniform(-0.05, 0.05, full.scores.shape))
                for pred in (bayes_predictor(base, tpl.core), full, pert):
                    for loss in ("squared", "zero_one", "logloss"):
                        res = risk_invariance_gap(pred, fam, loss)
                        risks, sup_gap, argmax = loop_risk_invariance_gap(pred, fam, loss)
                        rel = max(abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in zip(res.risks, risks))
                        assert rel <= 1e-15, (gid, seed, loss, rel)
                        assert res.argmax_pair == argmax and abs(res.sup_gap - sup_gap) <= 1e-15
                        if loss == "zero_one":
                            continue
                        for core in (tpl.core, covs[::-1]):
                            rep = check_epsilon_risk_bound(pred, fam, core, loss)
                            epsilon = loop_epsilon(pred, fam, core)
                            assert abs(rep.epsilon - epsilon) <= 1e-15, (gid, seed, loss, core)
                            assert rep.bound_holds == (sup_gap <= epsilon + 1e-9)

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
                    preds.append(preds[2].perturbed(spawn(seed, 7).uniform(-0.05, 0.05, preds[2].scores.shape)))
                    for pred in preds:
                        for loss in LOSSES:
                            res = risk_invariance_gap(pred, fam, loss)
                            digest.update(np.array(res.risks + (res.sup_gap,)).tobytes())
                            digest.update(np.array(res.argmax_pair).tobytes())
                            if loss == "zero_one":
                                continue
                            rep = check_epsilon_risk_bound(pred, fam, tpl.core, loss)
                            digest.update(np.array([rep.epsilon, rep.gap, float(rep.bound_holds)]).tobytes())
        assert digest.hexdigest() == "2aabb6dc54557224c47bef396f48eca85271a99edb093ab47b71b0f3dd8c4d2a"

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
            pert = full_pred.perturbed(gen.uniform(-0.05, 0.05, full_pred.scores.shape))
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

    def test_builds_each_member_once(self, monkeypatch):
        tpl = random_instance("D", 4)
        q = balanced(tpl.observed())
        pred = bayes_predictor(q, tpl.core + tpl.entangled)
        calls = []
        real = checks._reweight

        def counting(probs, *args):
            calls.append(probs.shape)
            return real(probs, *args)

        monkeypatch.setattr(checks, "_reweight", counting)
        fam = ShiftFamily(q, correlation_grid(5))
        expected = risk_invariance_gap(pred, fam, "logloss").sup_gap
        rep = check_epsilon_risk_bound(pred, fam, tpl.core, "logloss")
        assert calls == [(5,) + q.shape]  # one stacked reweight, when the family is built
        assert rep.gap == expected

    @pytest.mark.parametrize("slack", [-1.0, float("nan"), float("inf"), True, "0.1", None])
    def test_slack_must_be_finite_and_non_negative(self, slack):
        tpl = random_instance("A", 2)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(3))
        with pytest.raises(ArgumentError, match="slack"):
            check_epsilon_risk_bound(bayes_predictor(q, tpl.core), fam, tpl.core, slack=slack)

    def test_slack_accepts_zero_and_numpy_floats(self):
        tpl = random_instance("A", 2)
        q = balanced(tpl.observed())
        fam = ShiftFamily(q, correlation_grid(3))
        pred = bayes_predictor(q, tpl.core)
        plain = check_epsilon_risk_bound(pred, fam, tpl.core, slack=0)
        assert check_epsilon_risk_bound(pred, fam, tpl.core, slack=np.float64(0.0)) == plain


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
            q, "W", "marginal", FairnessCriterion.PREDICTIVE_PARITY
        )
        assert rep_pp.premise_holds
        assert not rep_pp.conclusion_holds
        assert rep_pp.conclusion_gap == pytest.approx(0.25, abs=1e-12)
        rep_eo = check_fairness_with_regularizer(
            q, "W", "marginal", FairnessCriterion.EQUALIZED_ODDS
        )
        assert not rep_eo.conclusion_holds

    def test_unknown_regularizer_mode_rejected(self):
        with pytest.raises(ArgumentError, match="mode"):
            check_fairness_with_regularizer(xor_representation_table(), "W", "joint", FairnessCriterion.EQUALIZED_ODDS)

    def test_conditional_regularizer_is_sufficient(self):
        # any balanced table where W satisfies the conditional constraint
        for seed in range(10):
            tpl = random_instance("A", seed)
            q = balanced(tpl.observed())
            sub = marginalize(q, {"X_core", "Y", "Z"})
            renamed = sub  # X_core plays the representation role
            for criterion in FairnessCriterion:
                rep = check_fairness_with_regularizer(
                    renamed, "X_core", "conditional", criterion, tol=1e-9
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
