"""Network construction, exact joints, d-separation, mutilation, factorization."""

from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from balancelab import artifacts, bayesnet
from balancelab.bayesnet import (
    Cbn,
    Dag,
    FactorizationReport,
    Violation,
    d_separated,
    factorizes_according_to,
    joint,
    mutilate,
    observed_dag,
    sample_cbn,
)
from balancelab.balancing import BalanceSpec, JointTarget, balance_exact
from balancelab.checks import (
    _COUNTEREXAMPLE_IDS,
    _COUNTEREXAMPLES,
    _counterexample_cpts,
    anticausal_control,
    find_nonfactorizing_balance,
)
from balancelab.errors import ArgumentError, CycleError, EdgeError
from balancelab.rng import spawn
from balancelab.tables import JointTable, Variable, is_independent, marginalize
from balancelab.templates import graph_template, random_instance
from test_tables import sweep_table


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
        net = graph_template("B").net  # X_core -> Y <- U -> Z, plus Z -> X_aux
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
        cut = mutilate(tpl.net, [("U", "Z")])
        pz = marginalize(joint(tpl.net), {"Z"}).probs
        assert cut.parents["Z"] == ()
        assert np.allclose(cut.cpts["Z"], pz, atol=1e-12)

    def test_empty_edit_is_identity(self):
        net = collider_net()
        assert mutilate(net, []) is net

    def test_cutting_both_confounder_edges_separates(self):
        tpl = graph_template("A")
        cut = mutilate(tpl.net, [("U", "Y"), ("U", "Z")])
        assert d_separated(cut, {"Y"}, {"Z"}, set())
        rep = is_independent(joint(cut), {"Y"}, {"Z"})
        assert rep.independent

    def test_node_set_and_other_edges_unchanged(self):
        tpl = graph_template("A")
        cut = mutilate(tpl.net, [("U", "Z")])
        assert cut.names == tpl.net.names
        assert cut.parents["X_aux"] == ("Z",)
        assert np.array_equal(cut.cpts["X_core"], tpl.net.cpts["X_core"])

    def test_missing_edge_rejected(self):
        with pytest.raises(EdgeError):
            mutilate(collider_net(), [("Y", "X")])

    def test_trusted_build_equals_validated_build(self):
        """``mutilate`` and the C1-C4 draws skip the CPT checks; the network
        they build must equal the validating constructor's, frozen arrays and
        all."""

        def assert_same(trusted: Cbn) -> None:
            valid = Cbn(trusted.nodes, trusted.parents, trusted.cpts)
            assert trusted.nodes == valid.nodes and trusted.parents == valid.parents
            assert list(trusted.cpts) == list(valid.cpts)
            for name, cpt in trusted.cpts.items():
                want = valid.cpts[name]
                assert cpt.dtype == want.dtype and cpt.shape == want.shape
                assert cpt.tobytes() == want.tobytes()
                assert not cpt.flags.writeable and cpt.flags.c_contiguous
            assert trusted.dag.nodes == valid.dag.nodes and trusted.dag.parents == valid.dag.parents
            assert trusted.dag.topo_order == valid.dag.topo_order
            assert joint(trusted).probs.tobytes() == joint(valid).probs.tobytes()

        for gid in "ABCD":
            for tpl in (graph_template(gid), random_instance(gid, 3)):
                assert_same(bayesnet._trusted_cbn(tpl.net.nodes, tpl.net.parents, tpl.net.cpts))
                assert_same(mutilate(tpl.net, tpl.undesired))
        for example_id in _COUNTEREXAMPLE_IDS:
            nodes, parents = _COUNTEREXAMPLES[example_id][:2]
            stacked = _counterexample_cpts(example_id, 5, range(4))
            for attempt in range(4):
                cpts = {n: cpt[attempt] for n, cpt in stacked.items()}
                assert_same(bayesnet._trusted_cbn(tuple(Variable(n, 2) for n in nodes), parents, cpts))

    def test_observed_dag_drops_latents_and_listed_edges(self):
        net = graph_template("C").net
        dag = observed_dag(net, ("T", "U", "V"))
        assert dag.nodes == ("Y", "Z", "X_core", "X_aux", "X_v")
        assert dag.edges == (("Z", "X_aux"),)
        assert observed_dag(net, ("T", "U", "V"), [("Z", "X_aux")]).edges == ()
        assert observed_dag(net, ()).parents == net.parents


class TestFactorization:
    def test_own_joint_always_factorizes(self):
        for seed in range(20):
            net = random_net(seed, 4)
            report = factorizes_according_to(joint(net), net)
            assert report == FactorizationReport(True, (), 1e-9), report.violations

    @settings(max_examples=60)
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
        calls = {"d_separated": 0, "_state_gaps": 0}  # _state_gaps: the gap kernel

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
        assert 0 < calls["_state_gaps"] <= 8  # one per local Markov statement

    def test_exact_outputs_pinned_bit_for_bit(self):
        # SHA-256 of every verdict and violation (statement, kind, gap bits) of
        # the C1-C3 counterexamples, the anti-causal control and the balanced
        # A-D instances against their skeletons, of the balanced tables' bits,
        # and of the is_independent reports over the sweep tables
        digest = hashlib.sha256()

        def add(report, table=None):
            if table is not None:
                digest.update(table.probs.tobytes())
            digest.update(repr(report.factorizes).encode())
            for v in report.violations:
                digest.update(repr((v.a, v.b, v.given, v.kind, v.gap.hex())).encode())

        for example_id in ("C1", "C2", "C3"):
            for seed in range(10):
                found = find_nonfactorizing_balance(example_id, seed)
                add(factorizes_according_to(found.balanced, found.skeleton), found.balanced)
        for seed in range(6):
            add(anticausal_control(seed).report)
            for gid in "ABCD":
                tpl = random_instance(gid, seed)
                balanced = balance_exact(tpl.observed(), BalanceSpec(JointTarget(tpl.y, tpl.z)))
                add(factorizes_according_to(balanced, tpl.mutilated_skeleton()), balanced)
        for seed in range(100):
            rep = is_independent(*sweep_table(seed))
            digest.update(repr((rep.independent, rep.max_gap.hex(), rep.argmax_state, rep.tol)).encode())
        assert digest.hexdigest() == "6372d2588966339f0f7d9283b31fc35e5908a3e0e299fab0f3d0467373f0c0b3"

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

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a complete DAG implies no statement, so no statement would catch the tol
        complete = Dag(("X", "Z", "Y"), {"Z": ("X",), "Y": ("X", "Z")})
        with pytest.raises(ArgumentError, match="tol"):
            factorizes_according_to(joint(collider_net()), complete, tol=tol)

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


def loop_sample_cbn(net: Cbn, n: int, seed: int) -> np.ndarray:
    """Reference: the former ancestral sampler, which built an (n, card) CDF
    per node by gathering every row's CPT row."""
    gen = spawn(seed)
    pos = {v.name: i for i, v in enumerate(net.nodes)}
    rows = np.zeros((n, len(net.nodes)), dtype=np.int64)
    for name in net.dag.topo_order:
        card = net.variable(name).cardinality
        cpt = net.cpts[name]
        ps = net.parents[name]
        if ps:
            parent_cols = tuple(rows[:, pos[p]] for p in ps)
            row_probs = cpt.reshape(-1, card)[np.ravel_multi_index(parent_cols, cpt.shape[:-1])]
        else:
            row_probs = np.broadcast_to(cpt, (n, card))
        cdf = np.cumsum(row_probs, axis=1)
        u = gen.random(n) * cdf[:, -1]
        rows[:, pos[name]] = (u[:, None] >= cdf[:, :-1]).sum(axis=1)
    return rows


@st.composite
def mixed_cardinality_nets(draw) -> Cbn:
    """A root of cardinality 4, a node with two parents, then up to three more
    nodes with up to two earlier parents each; cardinalities 2-4, CPT rows
    with zero cells, nodes listed in a shuffled order."""
    cards = [4] + draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))
    names = [f"N{i}" for i in range(len(cards))]
    parents = {names[0]: (), names[1]: (), names[2]: (names[0], names[1])}
    for i in range(3, len(names)):
        parents[names[i]] = tuple(draw(st.lists(st.sampled_from(names[:i]), max_size=2, unique=True)))
    gen = spawn(draw(st.integers(0, 2**16)), 7)
    cpts = {}
    for name, card in zip(names, cards):
        shape = tuple(cards[names.index(p)] for p in parents[name]) + (card,)
        raw = gen.uniform(0.0, 1.0, size=shape) * (gen.random(shape) > 0.3)
        raw[..., -1] += raw.sum(axis=-1) == 0
        cpts[name] = raw / raw.sum(axis=-1, keepdims=True)
    order = draw(st.permutations(range(len(names))))
    return Cbn(tuple(Variable(names[i], cards[i]) for i in order), parents, cpts)


class TestSamplingParity:
    @given(mixed_cardinality_nets(), st.integers(1, 400), st.integers(0, 2**16))
    def test_matches_per_row_cdf_loop(self, net, n, seed):
        batch = sample_cbn(net, n, seed)
        expected = loop_sample_cbn(net, n, seed)
        assert batch.rows.dtype == expected.dtype
        assert np.array_equal(batch.rows, expected)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, 3.0, True])
    def test_row_count_must_be_a_positive_integer(self, bad):
        with pytest.raises(ArgumentError, match="n must be an integer >= 1"):
            sample_cbn(collider_net(), bad, seed=1)

    def test_templates_match_per_row_cdf_loop(self):
        for g in ("A", "B", "C", "D"):
            net = graph_template(g).net
            assert np.array_equal(sample_cbn(net, 5000, 4).rows, loop_sample_cbn(net, 5000, 4))


class TestCbnSerialization:
    def test_round_trip(self, tmp_path):
        net = graph_template("C").net
        path = str(tmp_path / "net")
        artifacts.save(net, path)
        again = artifacts.load(path)
        assert again.nodes == net.nodes
        for name in net.names:
            assert again.parents[name] == net.parents[name]
            assert again.cpts[name].tobytes() == net.cpts[name].tobytes()
