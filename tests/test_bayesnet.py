"""Network construction, exact joints, d-separation, mutilation, factorization."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from balancelab import bayesnet
from balancelab.bayesnet import (
    Cbn,
    Dag,
    FactorizationReport,
    GraphEdit,
    Violation,
    d_separated,
    dumps_cbn,
    factorizes_according_to,
    joint,
    loads_cbn,
    mutilate,
    sample_cbn,
)
from balancelab.checks import find_nonfactorizing_balance
from balancelab.errors import ArgumentError, CycleError, EdgeError
from balancelab.rng import spawn
from balancelab.tables import JointTable, Variable, is_independent, marginalize
from balancelab.templates import causal_collider_net, graph_template


def collider_net() -> Cbn:
    # X -> Y <- Z with soft CPTs
    return Cbn(
        (Variable("X", 2), Variable("Z", 2), Variable("Y", 2)),
        {"Y": ("X", "Z")},
        {
            "X": np.array([0.4, 0.6]),
            "Z": np.array([0.7, 0.3]),
            "Y": np.array([[[0.9, 0.1], [0.6, 0.4]], [[0.3, 0.7], [0.2, 0.8]]]),
        },
    )


def random_net(seed: int, n_nodes: int) -> Cbn:
    """Random DAG on binary nodes with strictly positive CPTs."""
    gen = spawn(seed, 5)
    names = [f"N{i}" for i in range(n_nodes)]
    parents: dict[str, tuple[str, ...]] = {}
    for i, name in enumerate(names):
        pool = names[:i]
        k = int(gen.integers(0, min(len(pool), 3) + 1))
        chosen = sorted(gen.choice(len(pool), size=k, replace=False)) if k else []
        parents[name] = tuple(pool[j] for j in chosen)
    cpts = {}
    for name in names:
        shape = tuple(2 for _ in parents[name]) + (2,)
        rows = gen.uniform(0.1, 0.9, size=shape)
        cpts[name] = rows / rows.sum(axis=-1, keepdims=True)
    return Cbn(tuple(Variable(n, 2) for n in names), parents, cpts)


def random_dag(seed: int, names: tuple[str, ...]) -> Dag:
    """Random DAG over ``names``: a random order, up to two earlier parents each."""
    gen = spawn(seed, 6)
    order = [names[i] for i in gen.permutation(len(names))]
    parents = {}
    for i, name in enumerate(order):
        k = int(gen.integers(0, min(i, 2) + 1))
        parents[name] = tuple(order[j] for j in sorted(gen.choice(i, size=k, replace=False))) if k else ()
    return Dag(names, parents)


def full_sweep(table: JointTable, dag: Dag, tol: float = 1e-9) -> FactorizationReport:
    """Reference: test every d-separated pair under every conditioning set,
    then every local Markov statement, whatever the verdict."""
    violations = []
    names = list(dag.nodes)
    for x, y in combinations(names, 2):
        rest = [n for n in names if n not in (x, y)]
        for mask in range(1 << len(rest)):
            cond = tuple(r for i, r in enumerate(rest) if mask >> i & 1)
            if d_separated(dag, {x}, {y}, cond):
                rep = is_independent(table, (x,), (y,), cond, tol)
                if not rep:
                    violations.append(Violation((x,), (y,), cond, rep.max_gap, "pairwise"))
    for v in names:
        parents = dag.parents[v]
        nondesc = tuple(n for n in names if n != v and n not in parents and n not in dag.descendants(v))
        if nondesc:
            rep = is_independent(table, (v,), nondesc, parents, tol)
            if not rep:
                violations.append(Violation((v,), nondesc, parents, rep.max_gap, "local-markov"))
    return FactorizationReport(not violations, tuple(violations), tol)


class TestConstruction:
    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            Dag(("A", "B"), {"A": ("B",), "B": ("A",)})

    def test_cpt_shape_checked(self):
        with pytest.raises(ArgumentError, match="shape"):
            Cbn(
                (Variable("A", 2), Variable("B", 2)),
                {"B": ("A",)},
                {"A": np.array([0.5, 0.5]), "B": np.array([0.5, 0.5])},
            )

    def test_cpt_rows_must_normalize(self):
        with pytest.raises(ArgumentError, match="sum to 1"):
            Cbn((Variable("A", 2),), {}, {"A": np.array([0.6, 0.6])})

    def test_nan_cpt_rejected(self):
        with pytest.raises(ArgumentError, match="NaN"):
            Cbn((Variable("A", 2),), {}, {"A": np.array([np.nan, np.nan])})


class TestJoint:
    def test_single_node_marginal(self):
        net = Cbn((Variable("A", 2),), {}, {"A": np.array([0.3, 0.7])})
        assert np.allclose(joint(net).probs, [0.3, 0.7], atol=1e-15)

    def test_deterministic_fork_agrees(self):
        # U uniform driving Y = U and Z = U exactly: P(Y = Z) = 1
        eye = np.eye(2)
        net = Cbn(
            (Variable("U", 2), Variable("Y", 2), Variable("Z", 2)),
            {"Y": ("U",), "Z": ("U",)},
            {"U": np.array([0.5, 0.5]), "Y": eye, "Z": eye},
        )
        yz = marginalize(joint(net), {"Y", "Z"})
        assert yz.probs[0, 0] + yz.probs[1, 1] == pytest.approx(1.0)

    def test_collider_sim_joint_matches_sampling_oracle(self):
        net = causal_collider_net()
        exact = joint(net)
        emp = sample_cbn(net, 1_000_000, seed=11).empirical_table()
        assert np.abs(exact.probs - emp.probs).max() < 0.005


class TestDSeparation:
    def test_collider_rules(self):
        net = collider_net()
        assert d_separated(net, {"X"}, {"Z"}, set())
        assert not d_separated(net, {"X"}, {"Z"}, {"Y"})

    def test_template_a_channel_blocked_by_label(self):
        tpl = graph_template("A")
        assert d_separated(tpl.net, {"X_core"}, {"Z"}, {"Y"})
        assert not d_separated(tpl.net, {"X_core"}, {"Z"}, set())

    def test_template_b_channel_marginally_separated(self):
        tpl = graph_template("B")
        assert d_separated(tpl.net, {"X_core"}, {"Z"}, set())
        assert not d_separated(tpl.net, {"X_core"}, {"Z"}, {"Y"})

    def test_unknown_node(self):
        with pytest.raises(NameError):
            d_separated(collider_net(), {"X"}, {"Q"}, set())

    def test_soundness_on_random_networks(self):
        # every d-separation statement must hold as exact independence
        for seed in range(200):
            net = random_net(seed, n_nodes=3 + seed % 3)
            table = joint(net)
            names = list(net.names)
            for x, y in combinations(names, 2):
                rest = [n for n in names if n not in (x, y)]
                for mask in range(1 << len(rest)):
                    cond = {r for i, r in enumerate(rest) if mask >> i & 1}
                    if d_separated(net, {x}, {y}, cond):
                        rep = is_independent(table, {x}, {y}, cond, tol=1e-9)
                        assert rep.independent, (seed, x, y, cond, rep.max_gap)


class TestMutilate:
    def test_removed_parent_replaced_by_prior_mixture(self):
        tpl = graph_template("A")
        cut = mutilate(tpl.net, GraphEdit([("U", "Z")]))
        pz = marginalize(joint(tpl.net), {"Z"}).probs
        assert cut.parents["Z"] == ()
        assert np.allclose(cut.cpts["Z"], pz, atol=1e-12)

    def test_empty_edit_is_identity(self):
        net = collider_net()
        assert mutilate(net, GraphEdit([])) is net

    def test_cutting_both_confounder_edges_separates(self):
        tpl = graph_template("A")
        cut = mutilate(tpl.net, GraphEdit([("U", "Y"), ("U", "Z")]))
        assert d_separated(cut, {"Y"}, {"Z"}, set())
        rep = is_independent(joint(cut), {"Y"}, {"Z"})
        assert rep.independent

    def test_node_set_and_other_edges_unchanged(self):
        tpl = graph_template("A")
        cut = mutilate(tpl.net, GraphEdit([("U", "Z")]))
        assert cut.names == tpl.net.names
        assert cut.parents["X_aux"] == ("Z",)
        assert np.array_equal(cut.cpts["X_core"], tpl.net.cpts["X_core"])

    def test_missing_edge_rejected(self):
        with pytest.raises(EdgeError):
            mutilate(collider_net(), GraphEdit([("Y", "X")]))


class TestFactorization:
    def test_own_joint_always_factorizes(self):
        for seed in range(20):
            net = random_net(seed, 4)
            report = factorizes_according_to(joint(net), net)
            assert report == FactorizationReport(True, (), 1e-9), report.violations

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**16), st.integers(0, 2**16), st.integers(2, 5))
    def test_report_matches_full_sweep(self, net_seed, dag_seed, n_nodes):
        net = random_net(net_seed, n_nodes)
        table = joint(net)
        assert factorizes_according_to(table, net) == FactorizationReport(True, (), 1e-9)
        other = random_dag(dag_seed, net.names)
        assert factorizes_according_to(table, other) == full_sweep(table, other)

    def test_counterexample_reports_match_full_sweep(self):
        for example_id in ("C1", "C2", "C3"):
            for seed in range(10):
                found = find_nonfactorizing_balance(example_id, seed)
                report = factorizes_according_to(found.balanced, found.skeleton)
                assert report == full_sweep(found.balanced, found.skeleton), (example_id, seed)
                assert not report.factorizes

    def test_factorizing_chain_runs_no_pairwise_sweep(self, monkeypatch):
        calls = {"d_separated": 0, "is_independent": 0}

        def counted(name):
            inner = getattr(bayesnet, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        names = tuple(f"N{i}" for i in range(8))
        gen = spawn(3, 7)
        cpts = {n: gen.uniform(0.1, 0.9, size=(2, 2) if i else (2,)) for i, n in enumerate(names)}
        chain = Cbn(
            tuple(Variable(n, 2) for n in names),
            {n: (names[i - 1],) for i, n in enumerate(names) if i},
            {n: c / c.sum(axis=-1, keepdims=True) for n, c in cpts.items()},
        )
        table = joint(chain)
        for name in calls:
            monkeypatch.setattr(bayesnet, name, counted(name))
        assert factorizes_according_to(table, chain).factorizes
        assert calls["d_separated"] == 0
        assert calls["is_independent"] <= 8

    def test_own_joint_within_rounding_of_tolerance_factorizes(self):
        # Three independent nodes, C almost always 0.  Moving 1e-11 of mass
        # between two cells leaves every local Markov gap near 1e-11, but
        # A _||_ B | C=1 divides by P(C=1) = 1e-5 and magnifies the noise
        # past tol.  The verdict follows local Markov, so the table factorizes.
        names = ("A", "B", "C")
        net = Cbn(
            tuple(Variable(n, 2) for n in names),
            {},
            {"A": np.array([0.4, 0.6]), "B": np.array([0.7, 0.3]), "C": np.array([1 - 1e-5, 1e-5])},
        )
        probs = joint(net).probs.copy()
        probs[0, 0, 1] += 1e-11
        probs[1, 1, 0] -= 1e-11
        table = JointTable(net.nodes, probs)
        sweep = full_sweep(table, net.dag)
        assert not sweep.factorizes
        assert {v.kind for v in sweep.violations} == {"pairwise"}
        assert all("C" in v.given for v in sweep.violations)
        assert 1e-9 < sweep.max_gap() < 1e-5
        assert factorizes_according_to(table, net) == FactorizationReport(True, (), 1e-9)

    def test_dependent_table_fails_isolated_node_skeleton(self):
        net = collider_net()
        skeleton = Dag(("X", "Z", "Y"), {"Y": ("X",)})  # drops Z -> Y
        report = factorizes_according_to(joint(net), skeleton)
        assert report == full_sweep(joint(net), skeleton)
        assert not report.factorizes
        assert report.max_gap() > 1e-6
        assert any("Z" in v.a + v.b for v in report.violations)

    def test_variable_mismatch(self):
        with pytest.raises(NameError):
            factorizes_according_to(joint(collider_net()), Dag(("A",), {}))


class TestSampling:
    def test_deterministic_chain_constant_rows(self):
        eye = np.eye(2)
        net = Cbn(
            (Variable("A", 2), Variable("B", 2)),
            {"B": ("A",)},
            {"A": np.array([0.0, 1.0]), "B": eye},
        )
        batch = sample_cbn(net, 25, seed=0)
        assert np.all(batch.rows == [1, 1])

    def test_same_seed_identical(self):
        net = collider_net()
        assert np.array_equal(sample_cbn(net, 500, 3).rows, sample_cbn(net, 500, 3).rows)

    def test_template_a_confounding_rate(self):
        # P(Y=0 | Z=0) should sit near 0.95 at n=1e5
        tpl = graph_template("A", confounding=(0.95, 0.10))
        batch = sample_cbn(tpl.net, 100_000, seed=9)
        y, z = batch.column("Y"), batch.column("Z")
        rate = np.mean(y[z == 0] == 0)
        assert abs(rate - 0.95) < 0.01


class TestCbnSerialization:
    @pytest.mark.parametrize(
        "text, line",
        [
            ("[nodes]\nA\n", 2),
            ("[nodes]\nA two\n", 2),
            ("[nodes]\nA 2\n[edges]\nA B\n", 4),
            ("[nodes]\nA 2\n[edges]\nB -> A\n[cpt A]\n0.5 0.5\n", 4),
            ("[nodes]\nA 2\n[cpt A]\n0.5 x\n", 4),
            ("[nodes]\nA 2\n[cpt A]\n0.2 0.3 0.5\n", 3),
            ("[nodes]\nA 2\n[cpt A]\n0.5\n0.5 0.5\n", 3),
        ],
    )
    def test_malformed_line_is_argument_error(self, text, line):
        with pytest.raises(ArgumentError, match=f"line {line}:"):
            loads_cbn(text)

    def test_round_trip(self):
        net = graph_template("C").net
        again = loads_cbn(dumps_cbn(net))
        assert again.names == net.names
        for name in net.names:
            assert again.parents[name] == net.parents[name]
            assert np.array_equal(again.cpts[name], net.cpts[name])
