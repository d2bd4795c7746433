"""Exact-table operations: marginals, conditionals, independence, sampling."""

from __future__ import annotations

import numpy as np
import pytest

from balancelab.errors import (
    ArgumentError,
    DegenerateContingency,
    DegenerateEvidence,
)
from balancelab.rng import spawn
from balancelab.tables import (
    JointTable,
    SampleBatch,
    Variable,
    chi2_independence,
    condition,
    dumps_table,
    is_independent,
    load_table,
    loads_table,
    marginalize,
    product_table,
    sample,
    save_table,
    uniform_table,
)

Y = Variable("Y", 2)
Z = Variable("Z", 2)


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

    def test_rejects_small_cardinality(self):
        with pytest.raises(ArgumentError, match="cardinality"):
            Variable("W", 1)

    def test_probs_are_immutable(self):
        t = skewed_yz()
        with pytest.raises(ValueError):
            t.probs[0, 0] = 0.9


class TestMarginalize:
    def test_uniform_symmetry(self):
        t = uniform_table((Y, Z))
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


class TestCondition:
    def test_independent_table_unchanged(self):
        t = product_table(JointTable((Y,), np.array([0.3, 0.7])), JointTable((Z,), np.array([0.6, 0.4])))
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
            rep = is_independent(product_table(a, b), {"A"}, {"B"})
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
        t = uniform_table((Y, Z))
        assert is_independent(t, {"Y"}, {"Z"})


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
        t = uniform_table((Y, Z))
        emp = sample(t, 100_000, seed=3).empirical_table()
        assert np.abs(emp.probs - 0.25).max() < 0.01

    def test_empirical_independence_matches_exact(self):
        for seed, (make, expect) in enumerate(
            [
                (lambda: product_table(random_table(11, (2,), ("A",)), random_table(12, (2, 2), ("B", "C"))), True),
                (lambda: JointTable((Y, Z), np.array([[0.45, 0.05], [0.05, 0.45]])), False),
            ]
        ):
            t = make()
            emp = sample(t, 100_000, seed=seed).empirical_table()
            exact = is_independent(t, {t.names[0]}, {t.names[1]}, tol=0.02)
            sampled = is_independent(emp, {t.names[0]}, {t.names[1]}, tol=0.02)
            assert exact.independent == sampled.independent == expect


class TestChi2:
    def test_perfect_correlation(self):
        rows = np.repeat([[0, 0], [1, 1]], 500, axis=0)
        batch = SampleBatch((Y, Z), rows, np.ones(1000))
        stat, p = chi2_independence(batch, "Y", "Z")
        assert stat == pytest.approx(1000.0)
        assert p < 1e-10

    def test_independent_uniform_columns(self):
        t = uniform_table((Y, Z))
        batch = sample(t, 10_000, seed=21)
        _, p = chi2_independence(batch, "Y", "Z")
        assert p > 0.001

    def test_degenerate_column(self):
        rows = np.array([[0, 0], [1, 0]])
        batch = SampleBatch((Y, Z), rows, np.ones(2))
        with pytest.raises(DegenerateContingency):
            chi2_independence(batch, "Y", "Z")


class TestSerialization:
    def test_round_trip_is_bitwise(self, tmp_path):
        t = random_table(13, (2, 3, 2), ("A", "B", "C"))
        again = loads_table(dumps_table(t))
        assert again.names == t.names
        assert np.array_equal(again.probs, t.probs)
        path = tmp_path / "table.txt"
        save_table(t, str(path))
        assert np.array_equal(load_table(str(path)).probs, t.probs)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("var A x\n", 1),
            ("var A 2\ncell 0 0.5\ncell 1 half\n", 3),
            ("var A 2\n\ncell 0 0.5\ncell 2 0.5\n", 4),
            ("# header\ncell\n", 2),
        ],
    )
    def test_malformed_line_is_argument_error(self, text, line):
        with pytest.raises(ArgumentError, match=f"line {line}:"):
            loads_table(text)

    def test_rejects_out_of_order_cells(self):
        text = "var Y 2\ncell 1 0.5\ncell 0 0.5\n"
        with pytest.raises(ArgumentError, match="row-major"):
            loads_table(text)

    def test_total_renormalizes_within_tolerance(self):
        # every operation returns tables whose cells sum to 1 within 1e-12
        t = random_table(2, (3, 3, 2))
        for op in (
            lambda x: marginalize(x, {"V0", "V1"}),
            lambda x: condition(x, {"V2": 1}),
        ):
            assert abs(op(t).probs.sum() - 1.0) < 1e-12
