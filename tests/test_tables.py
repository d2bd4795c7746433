"""Exact-table operations: marginals, conditionals, independence, sampling."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import chdtrc

from balancelab import artifacts
from balancelab.balancing import (
    BalanceSpec,
    JointTarget,
    Mechanism,
    SingleTarget,
    balance_batch,
    balance_exact,
    reweight_marginal,
)
from balancelab.errors import (
    ArgumentError,
    BalanceLabError,
    DegenerateContingency,
    DegenerateEvidence,
)
from balancelab.rng import is_real, spawn
from balancelab.tables import (
    MAX_CELLS,
    JointTable,
    SampleBatch,
    Variable,
    chi2_independence,
    condition,
    is_independent,
    marginalize,
    sample,
    _chi2_sf,
)

Y = Variable("Y", 2)
Z = Variable("Z", 2)


@pytest.mark.parametrize(
    "value, real",
    [(0.5, True), (3, True), (np.float32(0.1), True), (np.int64(2), True), (-1e300, True),
     (True, False), (np.bool_(True), False), (np.nan, False), (np.inf, False), ("0.5", False), (None, False),
     (10**400, False), (-(10**400), False)],
)
def test_is_real(value, real):
    assert is_real(value) is real


def skewed_yz() -> JointTable:
    return JointTable((Y, Z), np.array([[0.4, 0.1], [0.1, 0.4]]))


def random_table(seed: int, cards: tuple[int, ...], names: tuple[str, ...] | None = None) -> JointTable:
    gen = spawn(seed, 99)
    names = names or tuple(f"V{i}" for i in range(len(cards)))
    probs = gen.uniform(0.05, 1.0, size=cards)
    return JointTable(tuple(Variable(n, c) for n, c in zip(names, cards)), probs / probs.sum())


class TestJointTable:
    def test_rejects_negative_cells(self):
        with pytest.raises(ArgumentError, match="non-negative"):
            JointTable((Y,), np.array([1.2, -0.2]))

    def test_rejects_nan_cells(self):
        with pytest.raises(ArgumentError, match="non-negative"):
            JointTable((Y,), np.array([np.nan, np.nan]))

    def test_rejects_bad_total(self):
        with pytest.raises(ArgumentError, match="sum to 1"):
            JointTable((Y,), np.array([0.6, 0.5]))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ArgumentError, match="duplicate"):
            JointTable((Y, Variable("Y", 2)), np.full((2, 2), 0.25))

    @pytest.mark.parametrize("card", [2.5, "3", True])
    def test_rejects_non_integer_cardinality(self, card):
        with pytest.raises(ArgumentError, match="integer cardinality"):
            Variable("A", card)

    def test_accepts_numpy_integer_cardinality(self):
        assert Variable("A", np.int64(3)).cardinality == 3

    def test_rejects_small_cardinality(self):
        with pytest.raises(ArgumentError, match="cardinality"):
            Variable("W", 1)

    def test_probs_are_immutable(self):
        t = skewed_yz()
        with pytest.raises(ValueError):
            t.probs[0, 0] = 0.9


class TestMarginalize:
    def test_uniform_symmetry(self):
        t = JointTable((Y, Z), np.full((2, 2), 0.25))
        m = marginalize(t, {"Y"})
        assert np.allclose(m.probs, [0.5, 0.5])

    def test_hand_summed_rows(self):
        # rows of [[0.4, 0.1], [0.1, 0.4]] sum to (0.5, 0.5)
        m = marginalize(skewed_yz(), {"Y"})
        assert np.allclose(m.probs, [0.5, 0.5], atol=1e-15)

    def test_keep_all_is_identity(self):
        t = skewed_yz()
        m = marginalize(t, {"Y", "Z"})
        assert m.names == t.names
        assert np.array_equal(m.probs, t.probs)

    def test_marginal_of_marginal(self):
        t = random_table(3, (2, 3, 2))
        direct = marginalize(t, {"V0"})
        chained = marginalize(marginalize(t, {"V0", "V2"}), {"V0"})
        assert np.allclose(direct.probs, chained.probs, atol=1e-15)

    def test_unknown_name(self):
        with pytest.raises(NameError):
            marginalize(skewed_yz(), {"Q"})

    def test_empty_keep(self):
        with pytest.raises(ArgumentError):
            marginalize(skewed_yz(), set())

    def test_derived_tables_are_read_only_and_own_their_cells(self):
        # marginalize, condition and the reweights build tables without validation or its copy
        raw = spawn(4, 2).random((2, 3, 2))
        raw /= raw.sum()
        t = JointTable((Variable("A", 2), Variable("B", 3), Variable("C", 2)), raw)
        target = np.full((2, 2), 0.25)
        derived = (
            marginalize(t, {"A", "C"}),
            marginalize(t, {"A", "B", "C"}),
            condition(t, {"B": 2}),
            reweight_marginal(t, ("A", "C"), target),
            balance_exact(t, BalanceSpec(JointTarget("A", "C"))),
            balance_exact(t, BalanceSpec(SingleTarget("B"))),
        )
        for out in derived:
            assert not out.probs.flags.writeable and out.probs.flags.c_contiguous
            assert not np.shares_memory(out.probs, raw) and not np.shares_memory(out.probs, target)
            with pytest.raises(ValueError):
                out.probs[(0,) * out.probs.ndim] = 0.5


class TestCondition:
    def test_independent_table_unchanged(self):
        t = JointTable((Y, Z), np.outer([0.3, 0.7], [0.6, 0.4]))
        c = condition(t, {"Z": 0})
        assert np.allclose(c.probs, [0.3, 0.7], atol=1e-15)

    def test_hand_computed_conditional(self):
        # P(Y|Z=0) = (0.4, 0.1)/0.5
        c = condition(skewed_yz(), {"Z": 0})
        assert np.allclose(c.probs, [0.8, 0.2], atol=1e-15)

    def test_zero_probability_evidence(self):
        t = JointTable((Y, Z), np.array([[0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(DegenerateEvidence):
            condition(t, {"Z": 1})

    @pytest.mark.parametrize("state", [1.5, 1.0, "1", np.nan, None, True, np.float64(1), -1, 2])
    def test_non_integer_or_out_of_range_state_rejected(self, state):
        with pytest.raises(ArgumentError, match="not an integer in"):
            condition(skewed_yz(), {"Z": state})

    def test_integer_states_accepted(self):
        expected = condition(skewed_yz(), {"Z": 1}).probs.tobytes()
        for state in (np.int64(1), np.uint8(1)):
            assert condition(skewed_yz(), {"Z": state}).probs.tobytes() == expected

    def test_bayes_consistency_on_random_tables(self):
        for seed in range(8):
            t = random_table(seed, (2, 3, 2), ("A", "B", "C"))
            direct = condition(marginalize(t, {"A", "B"}), {"B": 1})
            chained = marginalize(condition(t, {"B": 1}), {"A"})
            assert np.allclose(direct.probs, chained.probs, atol=1e-12)

    def test_point_mass_after_full_conditioning(self):
        t = random_table(5, (2, 2), ("A", "B"))
        c = condition(t, {"B": 1})
        assert abs(c.probs.sum() - 1.0) < 1e-12
        assert c.names == ("A",)


def loop_is_independent(table: JointTable, a, b, given=(), tol: float = 1e-9):
    """Reference: one conditioning state at a time, as a plain loop.

    Returns (independent, max_gap, argmax_state).  Zero-mass states are
    skipped, the last state attaining the largest gap wins (``>=``), and
    within a state the first flat argmax wins.
    """
    a, b, given = tuple(a), tuple(b), tuple(given)
    sub = marginalize(table, set(a) | set(b) | set(given))
    arr = np.transpose(sub.probs, sub.axes(a) + sub.axes(b) + sub.axes(given))
    shape_a = arr.shape[: len(a)]
    shape_b = arr.shape[len(a) : len(a) + len(b)]
    shape_g = arr.shape[len(a) + len(b) :]
    flat = arr.reshape(int(np.prod(shape_a)), int(np.prod(shape_b)), -1)
    max_gap, argmax = 0.0, None
    for g in range(flat.shape[2]):
        mass = float(flat[:, :, g].sum())
        if mass == 0.0:
            continue
        pab = flat[:, :, g] / mass
        diff = np.abs(pab - pab.sum(axis=1, keepdims=True) * pab.sum(axis=0, keepdims=True))
        i, j = np.unravel_index(int(diff.argmax()), diff.shape)
        if float(diff[i, j]) >= max_gap:
            max_gap, argmax = float(diff[i, j]), (i, j, g)
    state = {}
    for names, shape, index in zip((a, b, given), (shape_a, shape_b, shape_g), argmax):
        state.update(zip(names, (int(s) for s in np.unravel_index(index, shape))))
    return max_gap <= tol, max_gap, state


def sweep_table(seed: int) -> tuple[JointTable, tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """A random table with zero cells or tied gaps, and a random (a, b, given) split."""
    gen = spawn(seed, 98)
    k = int(gen.integers(2, 6))
    cards = tuple(int(c) for c in gen.integers(2, 4, size=k))
    probs = gen.random(cards)
    if seed % 3 == 1:
        probs[probs < 0.4] = 0.0  # zero-mass conditioning states
    elif seed % 3 == 2:
        probs = np.round(probs * 3) + 1  # few distinct values: tied gaps
    names = tuple(f"V{i}" for i in range(k))
    table = JointTable(tuple(Variable(n, c) for n, c in zip(names, cards)), probs / probs.sum())
    order = [names[i] for i in gen.permutation(k)]
    na = int(gen.integers(1, k))
    nb = int(gen.integers(1, k - na + 1))
    ng = int(gen.integers(0, k - na - nb + 1))
    return table, tuple(order[:na]), tuple(order[na : na + nb]), tuple(order[na + nb : na + nb + ng])


class TestIsIndependent:
    def test_matches_state_loop(self):
        for seed in range(300):
            table, a, b, given = sweep_table(seed)
            rep = is_independent(table, a, b, given)
            independent, max_gap, state = loop_is_independent(table, a, b, given)
            assert rep.independent == independent, seed
            assert rep.argmax_state == state, seed
            assert abs(rep.max_gap - max_gap) <= 1e-15, seed

    def test_tie_goes_to_last_live_state_and_first_cell(self):
        # Y and Z are independent within every state of G, and every cell is
        # a dyadic fraction, so each gap is exactly 0; G=2 has zero mass.
        probs = np.zeros((2, 2, 3))
        probs[:, :, 0] = np.outer([0.25, 0.75], [0.5, 0.5]) / 2
        probs[:, :, 1] = np.outer([0.5, 0.5], [0.25, 0.75]) / 2
        t = JointTable((Y, Z, Variable("G", 3)), probs)
        rep = is_independent(t, {"Y"}, {"Z"}, {"G"})
        assert rep.max_gap == 0.0
        assert rep.argmax_state == {"Y": 0, "Z": 0, "G": 1}

    def test_product_table_gap_is_tiny(self):
        for seed in range(10):
            a = random_table(seed, (3,), ("A",))
            b = random_table(seed + 100, (2,), ("B",))
            rep = is_independent(JointTable(a.variables + b.variables, np.outer(a.probs, b.probs)), {"A"}, {"B"})
            assert rep.independent
            assert rep.max_gap < 1e-14

    def test_hand_computed_gap(self):
        rep = is_independent(skewed_yz(), {"Y"}, {"Z"}, tol=1e-9)
        assert not rep.independent
        assert rep.max_gap == pytest.approx(0.15, abs=1e-15)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ArgumentError, match="disjoint"):
            is_independent(skewed_yz(), {"Y"}, {"Y"})

    def test_zero_probability_conditioning_states_skipped(self):
        probs = np.zeros((2, 2, 2))
        probs[:, :, 0] = [[0.1, 0.2], [0.3, 0.4]]
        t = JointTable((Y, Z, Variable("G", 2)), probs)
        rep = is_independent(t, {"Y"}, {"Z"}, {"G"})
        assert rep.argmax_state is not None
        assert rep.argmax_state["G"] == 0

    def test_report_is_truthy(self):
        t = JointTable((Y, Z), np.full((2, 2), 0.25))
        assert is_independent(t, {"Y"}, {"Z"})

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ArgumentError, match="tol"):
            is_independent(skewed_yz(), {"Y"}, {"Z"}, tol=tol)

    @pytest.mark.parametrize("tol", [True, False, "1e-9", None])
    def test_tol_must_be_a_real_number(self, tol):
        with pytest.raises(ArgumentError, match="tol"):
            is_independent(skewed_yz(), {"Y"}, {"Z"}, tol=tol)


class TestSample:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_batch_rejects_bad_weight(self, bad):
        with pytest.raises(ArgumentError, match="weights"):
            SampleBatch((Y, Z), np.zeros((3, 2)), np.array([1.0, bad, 1.0]))

    def test_negative_seed_is_argument_error(self):
        for draw in (lambda: spawn(-1), lambda: spawn(-3, 2), lambda: sample(skewed_yz(), 5, seed=-1)):
            with pytest.raises(ArgumentError, match="seed"):
                draw()
        assert issubclass(ArgumentError, ValueError)

    @pytest.mark.parametrize("bad", [-1, 1.5, 2.0, True, np.float64(1.0), "1", None])
    def test_seed_and_path_must_be_non_negative_integers(self, bad):
        draws = (lambda: spawn(bad), lambda: spawn(1, bad), lambda: spawn(1, 2, bad), lambda: sample(skewed_yz(), 5, seed=bad))
        for draw in draws:
            with pytest.raises(ArgumentError, match="integer"):
                draw()

    def test_numpy_integer_seed_draws_the_plain_int_stream(self):
        assert np.array_equal(spawn(np.int64(7), np.int32(3), np.uint8(1)).random(8), spawn(7, 3, 1).random(8))
        assert np.array_equal(sample(skewed_yz(), 50, seed=np.int64(4)).rows, sample(skewed_yz(), 50, seed=4).rows)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, 3.0, True])
    def test_size_must_be_a_positive_integer(self, bad):
        with pytest.raises(ArgumentError, match="n must be an integer >= 1"):
            sample(skewed_yz(), bad, seed=1)

    def test_point_mass_rows_constant(self):
        t = JointTable((Y, Z), np.array([[0.0, 0.0], [1.0, 0.0]]))
        batch = sample(t, 50, seed=1)
        assert np.all(batch.rows == [1, 0])

    def test_same_seed_same_batch(self):
        t = skewed_yz()
        b1, b2 = sample(t, 1000, seed=7), sample(t, 1000, seed=7)
        assert np.array_equal(b1.rows, b2.rows)
        assert not np.array_equal(b1.rows, sample(t, 1000, seed=8).rows)

    def test_law_of_large_numbers_uniform(self):
        # binomial SE at n=1e5 is ~0.0014, so 0.01 is beyond 3 SE
        t = JointTable((Y, Z), np.full((2, 2), 0.25))
        emp = sample(t, 100_000, seed=3).empirical_table()
        assert np.abs(emp.probs - 0.25).max() < 0.01

    def test_empirical_independence_matches_exact(self):
        for seed, (make, expect) in enumerate(
            [
                (lambda: JointTable((Variable("A", 2), Variable("B", 2), Variable("C", 2)), np.multiply.outer(
                    random_table(11, (2,), ("A",)).probs, random_table(12, (2, 2), ("B", "C")).probs)), True),
                (lambda: JointTable((Y, Z), np.array([[0.45, 0.05], [0.05, 0.45]])), False),
            ]
        ):
            t = make()
            emp = sample(t, 100_000, seed=seed).empirical_table()
            exact = is_independent(t, {t.names[0]}, {t.names[1]}, tol=0.02)
            sampled = is_independent(emp, {t.names[0]}, {t.names[1]}, tol=0.02)
            assert exact.independent == sampled.independent == expect


ABC = (Variable("A", 2), Variable("B", 3), Variable("C", 4))


class TestSampleBatchRange:
    @pytest.mark.parametrize("col", [0, 1, 2])
    @pytest.mark.parametrize("bad", ["negative", "cardinality"])
    def test_out_of_range_state_names_its_variable(self, col, bad):
        rows = np.array([[1, 2, 3], [0, 0, 0], [1, 1, 2]])
        rows[1, col] = -1 if bad == "negative" else ABC[col].cardinality
        with pytest.raises(ArgumentError, match=f"variable {ABC[col].name!r}"):
            SampleBatch(ABC, rows, np.ones(3))

    def test_message_names_first_offending_variable(self):
        rows = np.array([[0, 0, 4], [0, 3, 0], [1, 2, 3]])
        with pytest.raises(ArgumentError, match="variable 'B'"):
            SampleBatch(ABC, rows, np.ones(3))

    @pytest.mark.parametrize("layout", ["transposed", "int32"])
    def test_layout_and_dtype_handled_alike(self, layout):
        good = np.array([[1, 2, 3], [0, 0, 0], [1, 1, 2]])
        bad = good.copy()
        bad[2, 1] = -1
        convert = (lambda r: np.ascontiguousarray(r.T).T) if layout == "transposed" else (lambda r: r.astype(np.int32))
        batch = SampleBatch(ABC, convert(good), np.ones(3))
        assert batch.rows.dtype == np.int64 and batch.rows.flags.c_contiguous
        assert np.array_equal(batch.rows, good)
        with pytest.raises(ArgumentError, match="variable 'B'"):
            SampleBatch(ABC, convert(bad), np.ones(3))

    def test_empty_batch_passes(self):
        assert len(SampleBatch(ABC, np.zeros((0, 3), dtype=np.int64), np.ones(0))) == 0


class TestDenseCap:
    def test_empirical_table_checks_cap_before_counting(self):
        variables = tuple(Variable(f"V{i}", 2) for i in range(24))
        assert 2**24 > MAX_CELLS
        batch = SampleBatch(variables, np.zeros((3, 24), dtype=np.int64), np.ones(3))
        tracemalloc.start()
        try:
            with pytest.raises(ArgumentError, match="dense cap"):
                batch.empirical_table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_joint_table_shares_the_cap(self):
        with pytest.raises(ArgumentError, match="dense cap"):
            JointTable(tuple(Variable(f"V{i}", 2) for i in range(24)), np.zeros(1))


def add_at_chi2(batch: SampleBatch, a: str, b: str) -> tuple[float, float]:
    """Reference: the former chi-squared, which scattered the weights with np.add.at."""
    ca = batch.variables[batch.axis(a)].cardinality
    cb = batch.variables[batch.axis(b)].cardinality
    table = np.zeros((ca, cb))
    np.add.at(table, (batch.column(a), batch.column(b)), batch.weights)
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    if np.any(rows == 0) or np.any(cols == 0):
        raise DegenerateContingency("zero-total row/column")
    expected = np.outer(rows, cols) / table.sum()
    statistic = float(((table - expected) ** 2 / expected).sum())
    return statistic, float(stats.chi2.sf(statistic, (ca - 1) * (cb - 1)))


class TestChi2:
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(1, 300), st.integers(0, 2**16))
    def test_matches_add_at_on_weighted_batches(self, ca, cb, n, seed):
        gen = spawn(seed, 3)
        variables = (Variable("Y", ca), Variable("W", 3), Variable("Z", cb))
        rows = np.column_stack([gen.integers(0, c, n) for c in (ca, 3, cb)])
        batch = SampleBatch(variables, rows, gen.uniform(0.0, 5.0, n) * (gen.random(n) > 0.1))
        try:
            expected = add_at_chi2(batch, "Z", "Y")
        except DegenerateContingency:
            with pytest.raises(DegenerateContingency):
                chi2_independence(batch, "Z", "Y")
            return
        statistic, p = chi2_independence(batch, "Z", "Y")
        assert statistic == expected[0]
        assert p == pytest.approx(expected[1], rel=1e-12, abs=0.0)

    def test_variable_against_itself(self):
        batch = sample(skewed_yz(), 50, seed=2)
        with pytest.raises(ArgumentError, match="itself"):
            chi2_independence(batch, "Y", "Y")

    def test_perfect_correlation(self):
        rows = np.repeat([[0, 0], [1, 1]], 500, axis=0)
        batch = SampleBatch((Y, Z), rows, np.ones(1000))
        stat, p = chi2_independence(batch, "Y", "Z")
        assert stat == pytest.approx(1000.0)
        assert p < 1e-10

    def test_independent_uniform_columns(self):
        t = JointTable((Y, Z), np.full((2, 2), 0.25))
        batch = sample(t, 10_000, seed=21)
        _, p = chi2_independence(batch, "Y", "Z")
        assert p > 0.001

    def test_exactly_balanced_batch_has_p_value_one(self):
        w = Variable("W", 3)
        rows = np.array([[a, b] for a in range(3) for b in range(2)] * 4)
        statistic, p = chi2_independence(SampleBatch((w, Z), rows, np.ones(len(rows))), "W", "Z")
        assert statistic == 0.0
        assert p == 1.0 == stats.chi2.sf(0.0, 2)

    def test_degenerate_column(self):
        rows = np.array([[0, 0], [1, 0]])
        batch = SampleBatch((Y, Z), rows, np.ones(2))
        with pytest.raises(DegenerateContingency):
            chi2_independence(batch, "Y", "Z")

    def test_row_too_small_against_the_largest_cell(self):
        rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        batch = SampleBatch((Y, Z), rows, [1e300, 1e300, 1e-300, 1e-300])
        with pytest.raises(DegenerateContingency, match="too small against its largest cell"):
            chi2_independence(batch, "Y", "Z")


TAIL_DOFS = [*range(1, 101), 150, 200, 400, 1000]
TAIL_STATISTICS = np.unique(np.concatenate([
    [0.0, 5e-324, 1e-300, 1e-100, 1e-20, 1e-10, 1e-5],
    np.geomspace(1e-3, 3000.0, 300),
    np.linspace(0.0, 3000.0, 301),
]))


class TestChi2Tail:
    """``_chi2_sf`` against SciPy's ``chdtrc`` over dof 1-100 and a few large dof."""

    @pytest.mark.parametrize("dof", TAIL_DOFS)
    def test_matches_scipy(self, dof):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array([_chi2_sf(dof, float(x)) for x in TAIL_STATISTICS])
        want = chdtrc(dof, TAIL_STATISTICS)
        shown = want >= 1e-300
        np.testing.assert_allclose(got[shown], want[shown], rtol=1e-12, atol=0.0)
        assert np.all(got[~shown] < 1e-299)
        assert got[0] == 1.0  # statistic 0
        assert np.all(np.diff(got) <= 0.0)  # the statistics are sorted, so p never increases

    def test_non_positive_statistic_has_p_value_one(self):
        assert [_chi2_sf(dof, x) for dof in (1, 2, 5) for x in (0.0, -0.0, -1.0)] == [1.0] * 9


def finite_or_rejected(call):
    """``call()``'s value, which must be finite, or None if it raised a
    BalanceLabError; a RuntimeWarning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = call()
        except BalanceLabError:
            return None
    assert np.all(np.isfinite(value))
    return value


SCALED_WEIGHT = st.builds(lambda v, k: v * 10.0**k, st.floats(0.0, 1.0), st.integers(-330, 308))


class TestFloatEdges:
    """Finite weights across the float range give the sampled path finite
    values or a BalanceLabError, never a warning or NaN."""

    @given(st.lists(SCALED_WEIGHT, min_size=2, max_size=40), st.integers(0, 2**16))
    @example(weights=[1e200] * 12, seed=0)
    @example(weights=[1e308] * 12, seed=0)
    @example(weights=[1e-320] * 12, seed=0)
    @example(weights=[1e200, 1e-320] * 6, seed=0)
    def test_sampled_path(self, weights, seed):
        gen = spawn(seed, 8)
        rows = np.column_stack([gen.integers(0, 2, len(weights)), gen.integers(0, 3, len(weights))])
        batch = SampleBatch((Y, Variable("W", 3)), rows, weights)
        equal = batch.with_rows(rows, np.full(len(weights), weights[0]))
        chi2 = finite_or_rejected(lambda: chi2_independence(batch, "Y", "W"))
        assert chi2 is None or (chi2[0] >= 0.0 and 0.0 <= chi2[1] <= 1.0)
        finite_or_rejected(lambda: batch.empirical_table().probs)
        for target in (JointTarget("Y", "W"), SingleTarget("W")):
            out = finite_or_rejected(lambda: balance_batch(batch, BalanceSpec(target, Mechanism.IMPORTANCE_WEIGHTS)).weights)
            assert out is None or np.all(out >= 0.0)
            for mechanism in (Mechanism.SUBSAMPLE_MAJORITY, Mechanism.UPSAMPLE_MINORITY):
                finite_or_rejected(lambda: balance_batch(equal, BalanceSpec(target, mechanism, seed=1)).weights)

    @given(st.integers(-900, 900), st.integers(0, 2**16))
    def test_power_of_two_scale_keeps_the_bits(self, k, seed):
        gen = spawn(seed, 9)
        rows = np.column_stack([gen.integers(0, 2, 60), gen.integers(0, 3, 60)])
        batch = SampleBatch((Y, Variable("W", 3)), rows, gen.uniform(0.5, 2.0, 60))
        scaled = batch.with_rows(rows, np.ldexp(batch.weights, k))
        assert chi2_independence(scaled, "Y", "W")[0] == np.ldexp(chi2_independence(batch, "Y", "W")[0], k)
        assert scaled.empirical_table().probs.tobytes() == batch.empirical_table().probs.tobytes()
        spec = BalanceSpec(JointTarget("Y", "W"), Mechanism.IMPORTANCE_WEIGHTS)
        assert balance_batch(scaled, spec).weights.tobytes() == np.ldexp(balance_batch(batch, spec).weights, k).tobytes()


class TestSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        t = random_table(13, (2, 3, 2), ("A", "B", "C"))
        path = str(tmp_path / "table")
        artifacts.save(t, path)
        again = artifacts.load(path)
        assert again.variables == t.variables
        assert again.probs.tobytes() == t.probs.tobytes()

    def test_total_renormalizes_within_tolerance(self):
        # every operation returns tables whose cells sum to 1 within 1e-12
        t = random_table(2, (3, 3, 2))
        for op in (
            lambda x: marginalize(x, {"V0", "V1"}),
            lambda x: condition(x, {"V2": 1}),
        ):
            assert abs(op(t).probs.sum() - 1.0) < 1e-12
