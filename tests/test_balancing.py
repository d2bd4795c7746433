"""Balancing operators: exact reweighting, batch mechanisms, single-variable bias."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balancelab.balancing import (
    BalanceSpec,
    JointTarget,
    Mechanism,
    SingleTarget,
    balance_batch,
    balance_exact,
    reweight_marginal,
)
from balancelab.bayesnet import joint, sample_cbn
from balancelab.checks import ShiftFamily, claims
from balancelab.errors import ArgumentError, UnbalanceableSupport
from balancelab.rng import spawn
from balancelab.tables import JointTable, SampleBatch, Variable, condition, is_independent, marginal_probs, marginalize
from balancelab.templates import GRAPH_IDS, graph_template, random_instance

Y = Variable("Y", 2)
Z = Variable("Z", 2)
JOINT_YZ = BalanceSpec(JointTarget("Y", "Z"))


def random_positive_joint(seed: int, cards=(2, 2, 2), names=("X", "Y", "Z")) -> JointTable:
    gen = spawn(seed, 77)
    probs = gen.uniform(0.05, 1.0, size=cards)
    return JointTable(tuple(Variable(n, c) for n, c in zip(names, cards)), probs / probs.sum())


class TestBalanceExact:
    def test_already_independent_is_identity(self):
        t = JointTable((Y, Z), np.outer([0.3, 0.7], [0.6, 0.4]))
        q = balance_exact(t, JOINT_YZ)
        assert np.allclose(q.probs, t.probs, atol=1e-15)

    def test_hand_computed_uniform_result(self):
        # weights P(y)P(z)/P(y,z): 0.25/0.4 on the diagonal, 0.25/0.1 off it
        t = JointTable((Y, Z), np.array([[0.4, 0.1], [0.1, 0.4]]))
        q = balance_exact(t, JOINT_YZ)
        assert np.allclose(q.probs, 0.25, atol=1e-15)

    def test_template_a_conditionals_equalized(self):
        obs = graph_template("A", confounding=(0.95, 0.10)).observed()
        q = balance_exact(obs, JOINT_YZ)
        p0 = condition(q, {"Z": 0})
        p1 = condition(q, {"Z": 1})
        y0 = marginalize(p0, {"Y"}).probs
        y1 = marginalize(p1, {"Y"}).probs
        assert np.allclose(y0, y1, atol=1e-12)

    def test_marginals_preserved_and_targets_independent(self):
        for seed in range(25):
            t = random_positive_joint(seed)
            q = balance_exact(t, JOINT_YZ)
            for var in ("Y", "Z"):
                assert np.allclose(
                    marginalize(q, {var}).probs, marginalize(t, {var}).probs, atol=1e-12
                )
            assert is_independent(q, ("Y",), ("Z",)).max_gap < 1e-12

    def test_conditionals_given_pair_preserved(self):
        for seed in range(25):
            t = random_positive_joint(seed)
            q = balance_exact(t, JOINT_YZ)
            for y in range(2):
                for z in range(2):
                    before = condition(t, {"Y": y, "Z": z})
                    after = condition(q, {"Y": y, "Z": z})
                    assert np.abs(before.probs - after.probs).max() < 1e-12

    def test_idempotent(self):
        for seed in range(25):
            q = balance_exact(random_positive_joint(seed), JOINT_YZ)
            q2 = balance_exact(q, JOINT_YZ)
            assert np.abs(q.probs - q2.probs).max() < 1e-12

    def test_zero_cell_with_positive_marginals_rejected(self):
        t = JointTable((Y, Z), np.array([[0.5, 0.0], [0.2, 0.3]]))
        with pytest.raises(UnbalanceableSupport, match="Y=0, Z=1"):
            balance_exact(t, JOINT_YZ)


@st.composite
def positive_tables(draw):
    """A strictly positive table over 3-5 variables of cardinality 2-3, with
    Y and Z at random positions."""
    cards = draw(st.lists(st.integers(2, 3), min_size=3, max_size=5))
    cells = draw(st.lists(st.floats(0.01, 1.0), min_size=prod(cards), max_size=prod(cards)))
    order = draw(st.permutations(["Y", "Z", "A", "B", "C"][: len(cards)]))
    probs = np.array(cells).reshape(cards)
    return JointTable(tuple(Variable(n, c) for n, c in zip(order, cards)), probs / probs.sum())


def rest_given_pair(table: JointTable) -> np.ndarray:
    """P(rest | y, z) with Y and Z as the first two axes."""
    rest = tuple(n for n in table.names if n not in ("Y", "Z"))
    arr = marginal_probs(table, ("Y", "Z") + rest)
    return arr / arr.sum(axis=tuple(range(2, arr.ndim)), keepdims=True)


@st.composite
def conditional_grids(draw, table: JointTable):
    """A strictly positive P(Z | Y) shaped like the table's (Y, Z) pair."""
    cy, cz = table.variable("Y").cardinality, table.variable("Z").cardinality
    rows = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=cy * cz, max_size=cy * cz))).reshape(cy, cz)
    return rows / rows.sum(axis=1, keepdims=True)


class TestExactInvariants:
    @given(positive_tables())
    def test_balance_keeps_marginals_and_conditionals(self, table):
        q = balance_exact(table, JOINT_YZ)
        for var in ("Y", "Z"):
            assert np.abs(marginal_probs(q, (var,)) - marginal_probs(table, (var,))).max() < 1e-12
        assert np.abs(rest_given_pair(q) - rest_given_pair(table)).max() < 1e-12
        assert is_independent(q, ("Y",), ("Z",)).max_gap < 1e-12

    @given(st.data())
    def test_shift_member_sets_group_given_label(self, data):
        table = data.draw(positive_tables())
        grid = data.draw(conditional_grids(table))
        member = ShiftFamily(table, (grid,)).member(0)
        assert np.abs(marginal_probs(member, ("Y",)) - marginal_probs(table, ("Y",))).max() < 1e-12
        assert np.abs(rest_given_pair(member) - rest_given_pair(table)).max() < 1e-12
        pair = marginal_probs(member, ("Y", "Z"))
        assert np.abs(pair / pair.sum(axis=1, keepdims=True) - grid).max() < 1e-12

    @given(positive_tables(), st.integers(0, 2**16))
    def test_importance_weights_equal_exact_balance_of_empirical(self, table, seed):
        gen = spawn(seed, 5)
        states = np.array(list(np.ndindex(*table.shape)))  # every cell has a row
        rows = np.concatenate([states, states[gen.integers(0, len(states), size=50)]])
        batch = SampleBatch(table.variables, rows, gen.uniform(0.1, 2.0, size=len(rows)))
        out = balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism.IMPORTANCE_WEIGHTS))
        exact = balance_exact(batch.empirical_table(), JOINT_YZ)
        assert np.abs(out.empirical_table().probs - exact.probs).max() < 1e-12

    def test_shift_member_on_empty_pair_cell_rejected(self):
        t = JointTable((Y, Z), np.array([[0.5, 0.2], [0.3, 0.0]]))
        with pytest.raises(UnbalanceableSupport, match="Y=1, Z=1"):
            ShiftFamily(t, (np.array([[0.5, 0.5], [0.5, 0.5]]),))  # every member is built with the family

    @pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-11, np.inf])
    def test_reweight_target_must_sum_to_one(self, scale):
        t = JointTable((Y, Z), np.array([[0.5, 0.2], [0.3, 0.0]]))
        with pytest.raises(ArgumentError, match="sum to 1"):
            reweight_marginal(t, ("Y",), np.array([0.4, 0.6]) * scale)

    def test_reweight_overflow_rejected(self):
        # a cell of 5e-324 asked to carry mass 0.25 overflows the ratio
        t = JointTable((Y, Z), np.array([[5e-324, 0.5], [0.25, 0.25 - 5e-324]]))
        with pytest.raises(ArgumentError, match="overflows"):
            reweight_marginal(t, ("Y", "Z"), np.full((2, 2), 0.25))

    def test_shift_member_may_keep_an_empty_cell_empty(self):
        t = JointTable((Y, Z), np.array([[0.5, 0.2], [0.3, 0.0]]))
        member = ShiftFamily(t, (np.array([[0.4, 0.6], [1.0, 0.0]]),)).member(0)
        assert np.allclose(member.probs, [[0.7 * 0.4, 0.7 * 0.6], [0.3, 0.0]], atol=1e-15)


class TestBalanceSingleExact:
    def test_uniform_target_is_identity(self):
        t = random_positive_joint(1)
        q = balance_exact(balance_exact(t, BalanceSpec(SingleTarget("Y"))), BalanceSpec(SingleTarget("Y")))
        q2 = balance_exact(q, BalanceSpec(SingleTarget("Y")))
        assert np.abs(q.probs - q2.probs).max() < 1e-14

    def test_worked_binary_example(self):
        # P(Y=1)=1/4, E[Z|Y=1]=1, E[Z|Y=0]=1/3: uniformizing Y moves E[Z] to 2/3
        probs = np.array([[0.5, 0.25], [0.0, 0.25]])  # [y, z]
        t = JointTable((Y, Z), probs)
        q = balance_exact(t, BalanceSpec(SingleTarget("Y")))
        assert np.allclose(marginalize(q, {"Y"}).probs, [0.5, 0.5], atol=1e-15)
        e_z = float(marginalize(q, {"Z"}).probs[1])
        assert e_z == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_independent_leaves_other_marginal(self):
        t = JointTable((Y, Z), np.outer([0.25, 0.75], [0.4, 0.6]))
        q = balance_exact(t, BalanceSpec(SingleTarget("Y")))
        assert np.allclose(marginalize(q, {"Z"}).probs, [0.4, 0.6], atol=1e-12)

    def test_zero_state_rejected(self):
        t = JointTable((Y, Z), np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(UnbalanceableSupport):
            balance_exact(t, BalanceSpec(SingleTarget("Y")))


def counts_batch(counts: dict[tuple[int, int], int]) -> SampleBatch:
    rows = np.concatenate([np.tile([y, z], (n, 1)) for (y, z), n in counts.items()])
    return SampleBatch((Y, Z), rows, np.ones(rows.shape[0]))


class TestBalanceBatch:
    def test_subsample_min_cell_count(self):
        batch = counts_batch({(0, 0): 40, (0, 1): 10, (1, 0): 10, (1, 1): 40})
        out = balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism.SUBSAMPLE_MAJORITY, seed=5))
        assert len(out) == 40
        codes = out.column("Y") * 2 + out.column("Z")
        assert np.array_equal(np.bincount(codes), [10, 10, 10, 10])

    def test_subsample_balanced_batch_preserves_multiset(self):
        batch = counts_batch({(0, 0): 7, (0, 1): 7, (1, 0): 7, (1, 1): 7})
        out = balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism.SUBSAMPLE_MAJORITY, seed=1))
        before = sorted(map(tuple, batch.rows))
        after = sorted(map(tuple, out.rows))
        assert before == after

    def test_importance_weights_formula(self):
        batch = counts_batch({(0, 0): 40, (0, 1): 10, (1, 0): 10, (1, 1): 40})
        out = balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism.IMPORTANCE_WEIGHTS))
        w00 = out.weights[(out.column("Y") == 0) & (out.column("Z") == 0)][0]
        w01 = out.weights[(out.column("Y") == 0) & (out.column("Z") == 1)][0]
        assert w00 == pytest.approx(50 * 50 / (100 * 40))
        assert w01 == pytest.approx(50 * 50 / (100 * 10))
        # weighted cell masses equal
        emp = marginalize(out.empirical_table(), {"Y", "Z"})
        assert np.allclose(emp.probs, 0.25, atol=1e-12)

    def test_upsample_to_max_count_keeps_originals(self):
        batch = counts_batch({(0, 0): 40, (0, 1): 10, (1, 0): 10, (1, 1): 40})
        out = balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism.UPSAMPLE_MINORITY, seed=2))
        codes = out.column("Y") * 2 + out.column("Z")
        assert np.array_equal(np.bincount(codes), [40, 40, 40, 40])

    def test_weighted_pair_table_is_marginal_product(self):
        tpl = graph_template("A")
        batch = sample_cbn(tpl.net, 4000, seed=3)
        for mechanism, seed in [
            (Mechanism.IMPORTANCE_WEIGHTS, None),
            (Mechanism.SUBSAMPLE_MAJORITY, 4),
            (Mechanism.UPSAMPLE_MINORITY, 4),
        ]:
            out = balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), mechanism, seed=seed))
            gap = is_independent(out.empirical_table(), ("Y",), ("Z",)).max_gap
            assert gap <= 1.0 / len(out) + 1e-9, (mechanism, gap)

    def test_resampling_rejects_unequal_weights(self):
        # resampling balances row counts only; with unequal weights the
        # weighted pair table would stay dependent (gaps of 1e-3 to 1e-2)
        batch = sample_cbn(graph_template("A").net, 4000, seed=3)
        batch = batch.with_rows(batch.rows, spawn(3, 5).uniform(0.1, 2.0, len(batch)))
        for mechanism in (Mechanism.SUBSAMPLE_MAJORITY, Mechanism.UPSAMPLE_MINORITY):
            with pytest.raises(ArgumentError, match="weights must all be equal"):
                balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), mechanism, seed=4))
        out = balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism.IMPORTANCE_WEIGHTS))
        assert is_independent(out.empirical_table(), ("Y",), ("Z",)).max_gap < 1e-12
        scaled = batch.with_rows(batch.rows, np.full(len(batch), 0.5))  # equal weights need not be 1
        out = balance_batch(scaled, BalanceSpec(JointTarget("Y", "Z"), Mechanism.UPSAMPLE_MINORITY, seed=4))
        assert np.all(out.weights == 0.5)

    def test_importance_weights_match_exact_balance_of_empirical(self):
        tpl = graph_template("A")
        batch = sample_cbn(tpl.net, 100_000, seed=6)
        out = balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism.IMPORTANCE_WEIGHTS))
        emp_balanced = out.empirical_table()
        exact_balanced = balance_exact(batch.empirical_table(), JOINT_YZ)
        # the two routes agree to float precision, far inside the 0.02 budget
        assert np.abs(emp_balanced.probs - exact_balanced.probs).max() < 1e-10

    def test_empty_cell_named_in_error(self):
        batch = counts_batch({(0, 0): 5, (0, 1): 5, (1, 0): 5})
        with pytest.raises(UnbalanceableSupport, match="Y=1, Z=1"):
            balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), Mechanism.IMPORTANCE_WEIGHTS))

    def test_zero_weight_cell_rejected(self):
        batch = counts_batch({(0, 0): 5, (0, 1): 5, (1, 0): 5, (1, 1): 5})
        cell = (batch.column("Y") == 1) & (batch.column("Z") == 1)
        batch = batch.with_rows(batch.rows, np.where(cell, 0.0, 1.0))
        with pytest.raises(UnbalanceableSupport, match="Y=1, Z=1"):
            balance_batch(batch, JOINT_YZ)

    def test_outputs_pinned_bit_for_bit(self):
        # SHA-256 of every output's rows and weights, as produced when each
        # result was copied and range-checked again; with_rows keeps the bits
        digest = hashlib.sha256()
        for g in ("A", "B", "C", "D"):
            batch = sample_cbn(graph_template(g).net, 3000, seed=3)
            for target in (JointTarget("Y", "Z"), SingleTarget("Y")):
                for mechanism, seed in [
                    (Mechanism.IMPORTANCE_WEIGHTS, None),
                    (Mechanism.SUBSAMPLE_MAJORITY, 4),
                    (Mechanism.UPSAMPLE_MINORITY, 4),
                ]:
                    out = balance_batch(batch, BalanceSpec(target, mechanism, seed=seed))
                    assert out.rows.dtype == np.int64 and out.rows.flags.c_contiguous
                    assert not out.rows.flags.writeable and not out.weights.flags.writeable
                    digest.update(out.rows.tobytes())
                    digest.update(out.weights.tobytes())
        assert digest.hexdigest() == "592c3c401323b7d009bbb9204672f92ceaaf16727411546523fabbc65ed8687e"

    def test_reweighting_shares_rows(self):
        batch = sample_cbn(graph_template("A").net, 1000, seed=3)
        out = balance_batch(batch, JOINT_YZ)
        assert np.shares_memory(out.rows, batch.rows)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_with_rows_checks_new_weights(self, bad):
        batch = counts_batch({(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2})
        with pytest.raises(ArgumentError, match="finite and non-negative"):
            batch.with_rows(batch.rows, np.where(np.arange(8) == 3, bad, 1.0))
        with pytest.raises(ArgumentError, match="shape"):
            batch.with_rows(batch.rows, np.ones(7))

    def test_seed_contract(self):
        with pytest.raises(ArgumentError, match="seed"):
            BalanceSpec(JointTarget("Y", "Z"), Mechanism.SUBSAMPLE_MAJORITY)
        with pytest.raises(ArgumentError, match="deterministic"):
            BalanceSpec(JointTarget("Y", "Z"), Mechanism.IMPORTANCE_WEIGHTS, seed=3)

    def test_unknown_mechanism_names_the_valid_ones(self):
        with pytest.raises(ArgumentError, match="unknown Mechanism 'bogus'; expected one of .*'exact_reweight'"):
            BalanceSpec(JointTarget("Y", "Z"), "bogus")
        assert BalanceSpec(JointTarget("Y", "Z"), "importance_weights").mechanism is Mechanism.IMPORTANCE_WEIGHTS

    @pytest.mark.parametrize("mechanism", [Mechanism.SUBSAMPLE_MAJORITY, Mechanism.UPSAMPLE_MINORITY])
    @pytest.mark.parametrize("bad", [1.5, 1.7, 2.0, True, -1, "1"])
    def test_seed_must_be_a_non_negative_integer(self, mechanism, bad):
        with pytest.raises(ArgumentError, match="non-negative integer"):
            BalanceSpec(JointTarget("Y", "Z"), mechanism, seed=bad)

    def test_numpy_integer_seed_picks_the_rows_of_the_plain_int(self):
        batch = sample_cbn(graph_template("A").net, 2000, seed=3)
        for mechanism in (Mechanism.SUBSAMPLE_MAJORITY, Mechanism.UPSAMPLE_MINORITY):
            a, b = (balance_batch(batch, BalanceSpec(JointTarget("Y", "Z"), mechanism, seed=s)) for s in (np.int64(5), 5))
            assert np.array_equal(a.rows, b.rows)


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
    """The closed form of the bias of E[Z] around 1/2 before and after
    uniformizing Y, the reference for the ``bias_shift`` row of ``claims``.

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


class TestBiasShift:
    def test_worked_example(self):
        shift = bias_shift_single(0.25, 1.0, 1.0 / 3.0)
        assert shift.before == pytest.approx(0.0, abs=1e-15)
        assert shift.after == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert shift.bound == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert shift.worsens

    def test_already_uniform_label(self):
        shift = bias_shift_single(0.5, 0.9, 0.2)
        assert shift.after == shift.before
        assert shift.bound == 0.0
        assert not shift.worsens

    def test_identity_and_bound_on_grid(self):
        grid = np.linspace(0.0, 1.0, 100)
        p, e1, e0 = np.meshgrid(grid, grid, grid, indexing="ij")
        shift = bias_shift_single(p, e1, e0)
        lhs = shift.after - shift.before
        rhs = -(p - 0.5) * (e1 - e0)
        assert np.abs(lhs - rhs).max() <= 1e-12
        assert np.all(np.abs(np.abs(shift.after) - np.abs(shift.before)) <= shift.bound + 1e-12)

    def test_sign_condition_implies_worsening(self):
        # whenever the worsening condition holds strictly, |after| >= |before|
        gen = spawn(0, 123)
        p = gen.uniform(0.01, 0.99, 2000)
        e1 = gen.uniform(0, 1, 2000)
        e0 = gen.uniform(0, 1, 2000)
        shift = bias_shift_single(p, e1, e0)
        ez = p * e1 + (1 - p) * e0
        cond = np.sign((ez - 0.5) / (p - 0.5)) == np.sign(e0 - e1)
        strict = cond & (np.abs(ez - 0.5) > 1e-9)
        assert np.all(np.abs(shift.after[strict]) >= np.abs(shift.before[strict]) - 1e-12)

    def test_domain_checked(self):
        with pytest.raises(ArgumentError):
            bias_shift_single(1.5, 0.5, 0.5)

    @pytest.mark.parametrize("graph", GRAPH_IDS)
    def test_claims_row_is_the_closed_form_against_the_exact_balance(self, graph):
        for tpl in [graph_template(graph)] + [random_instance(graph, seed) for seed in range(50)]:
            observed = tpl.observed()
            (row,) = (r for r in claims(tpl) if r.name == "bias_shift")
            pyz = marginal_probs(observed, ("Y", "Z"))
            closed = bias_shift_single(pyz[1].sum(), pyz[1, 1] / pyz[1].sum(), pyz[0, 1] / pyz[0].sum())
            uniform_y = balance_exact(observed, BalanceSpec(SingleTarget("Y")))
            before, after = (marginal_probs(t, ("Z",))[1] - 0.5 for t in (observed, uniform_y))
            assert row.premise_gap.hex() == closed.bound.hex() and row.tol == closed.bound + 1e-9
            assert row.conclusion_gap == abs(marginal_probs(uniform_y, ("Z",))[1] - marginal_probs(observed, ("Z",))[1])
            assert abs(after - closed.after) <= 1e-15 and abs(before - closed.before) <= 1e-15
            assert abs(row.conclusion_gap - row.premise_gap) <= 1e-15 and row.holds
