"""Network construction, exact joints, d-separation, mutilation, factorization."""

from __future__ import annotations

import hashlib
import tracemalloc
from collections import deque
from itertools import combinations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from balancelab import artifacts, bayesnet, tables
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
from balancelab.checks import anticausal_control, find_nonfactorizing_balance
from balancelab.errors import ArgumentError, CycleError, EdgeError, UnknownVariableError
from balancelab.rng import spawn
from balancelab.tables import JointTable, SampleBatch, Variable, is_independent, marginalize
from balancelab.templates import GraphTemplate, graph_template, random_instance
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


def edges(dag: Dag) -> tuple[tuple[str, str], ...]:
    """Each (parent, child) pair of ``dag``, children in node order."""
    return tuple((p, c) for c in dag.nodes for p in dag.parents[c])


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


def mixed_net(seed: int, n_nodes: int) -> Cbn:
    """Random DAG whose nodes have 2 or 3 states, with strictly positive CPTs."""
    gen = spawn(seed, 8)
    names = [f"N{i}" for i in range(n_nodes)]
    cards = {n: int(gen.integers(2, 4)) for n in names}
    parents = {n: tuple(p for p in names[:i] if gen.random() < 0.4) for i, n in enumerate(names)}
    cpts = {}
    for n in names:
        rows = gen.uniform(0.1, 0.9, size=tuple(cards[p] for p in parents[n]) + (cards[n],))
        cpts[n] = rows / rows.sum(axis=-1, keepdims=True)
    return Cbn(tuple(Variable(n, cards[n]) for n in names), parents, cpts)


def set_d_separated(dag: Dag, a: set[str], b: set[str], given: set[str]) -> bool:
    """Reference: the set-based moralized ancestral graph search."""
    relevant, queue = set(), deque(a | b | given)
    while queue:
        n = queue.popleft()
        if n not in relevant:
            relevant.add(n)
            queue.extend(dag.parents[n])
    adjacency: dict[str, set[str]] = {n: set() for n in relevant}
    for child in relevant:
        ps = [p for p in dag.parents[child] if p in relevant]
        for p in ps:
            adjacency[p].add(child)
            adjacency[child].add(p)
        for p, q in combinations(ps, 2):
            adjacency[p].add(q)
            adjacency[q].add(p)
    seen: set[str] = set()
    queue = deque(a - given)
    while queue:
        n = queue.popleft()
        if n in seen:
            continue
        seen.add(n)
        if n in b:
            return False
        queue.extend(m for m in adjacency[n] if m not in given and m not in seen)
    return True


def pairwise_statements(dag: Dag) -> list[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]]:
    """Every d-separated x ⊥ y | S, in the sweep's order, through the public ``d_separated``."""
    out = []
    for x, y in combinations(dag.nodes, 2):
        rest = [n for n in dag.nodes if n not in (x, y)]
        for mask in range(1 << len(rest)):
            cond = tuple(r for i, r in enumerate(rest) if mask >> i & 1)
            if d_separated(dag, {x}, {y}, cond):
                out.append(((x,), (y,), cond))
    return out


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


def kahn_order(nodes: tuple[str, ...], parents: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Reference: first-in-first-out Kahn order from the parentless nodes in
    node order, each node's children released in node order."""
    children: dict[str, list[str]] = {n: [] for n in nodes}
    for c in nodes:
        for p in parents[c]:
            children[p].append(c)
    indeg = {n: len(parents[n]) for n in nodes}
    queue = deque(n for n in nodes if indeg[n] == 0)
    out: list[str] = []
    while queue:
        n = queue.popleft()
        out.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return tuple(out)


def shuffled_dag(seed: int) -> tuple[tuple[str, ...], dict[str, tuple[str, ...]]]:
    """1-10 nodes listed in a random order; edges follow a second random
    order, and each node's parents are listed in a random order."""
    gen = spawn(seed, 9)
    names = tuple(f"N{i}" for i in gen.permutation(1 + seed % 10))
    ranked = [names[i] for i in gen.permutation(len(names))]
    parents = {}
    for i, name in enumerate(ranked):
        pool = [p for p in ranked[:i] if gen.random() < 0.4]
        parents[name] = tuple(pool[j] for j in gen.permutation(len(pool)))
    return names, parents


class TestConstruction:
    def test_cycle_detected(self):
        with pytest.raises(CycleError):
            Dag(("A", "B"), {"A": ("B",), "B": ("A",)})

    def test_cycle_error_lists_the_nodes_left_over(self):
        # A feeds the cycle B -> C -> D -> B, and E hangs off it; only A leaves the queue
        with pytest.raises(CycleError, match=r"\['B', 'C', 'D', 'E'\]"):
            Dag(("E", "D", "C", "B", "A"), {"B": ("A", "D"), "C": ("B",), "D": ("C",), "E": ("C",)})

    def test_topo_order_is_the_fifo_kahn_order(self):
        for seed in range(240):
            names, parents = shuffled_dag(seed)
            dag = Dag(names, parents)
            assert dag.topo_order == kahn_order(names, parents), seed
            for n in names:  # the ancestor masks, built in the same pass
                assert dag.ancestors([n]) == {n} | {a for a in names if n in dag.descendants(a)}

    def test_each_error_names_the_node(self):
        nodes = (Variable("A", 2), Variable("B", 3))
        good = {"A": np.array([0.25, 0.75]), "B": np.full((2, 3), 1 / 3)}
        cases = [
            ({"A": good["A"]}, "missing CPT for node 'B'"),
            ({**good, "B": np.full((3, 2), 0.5)}, r"CPT for 'B' has shape \(3, 2\), expected \(2, 3\)"),
            ({**good, "B": np.array([[0.5, 0.5, 0.0], [1.2, -0.2, 0.0]])}, "CPT for 'B' has negative or NaN"),
            ({**good, "B": np.array([[0.5, 0.5, 0.0], [np.nan, 0.5, 0.5]])}, "CPT for 'B' has negative or NaN"),
            ({**good, "B": np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 2e-12]])}, "CPT rows for 'B' must sum to 1 within 1e-12"),
            ({**good, "A": np.array([0.5, 0.5 - 2e-12])}, "CPT rows for 'A' must sum to 1"),
        ]
        for cpts, message in cases:
            with pytest.raises(ArgumentError, match=message):
                Cbn(nodes, {"B": ("A",)}, cpts)
        with pytest.raises(ArgumentError, match="at least one node"):
            Cbn((), {}, {})
        # a row off by less than the tolerance passes
        Cbn(nodes, {"B": ("A",)}, {**good, "B": np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 5e-13]])})

    def test_first_bad_node_named_and_structure_checked_before_values(self):
        nodes = (Variable("A", 2), Variable("B", 2), Variable("C", 2))
        bad, good = np.array([-0.5, 1.5]), np.array([0.5, 0.5])
        with pytest.raises(ArgumentError, match="'B' has negative"):
            Cbn(nodes, {}, {"A": good, "B": bad, "C": np.array([0.6, 0.6])})
        with pytest.raises(ArgumentError, match="rows for 'A'"):
            Cbn(nodes, {}, {"A": np.array([0.6, 0.6]), "B": bad, "C": good})
        with pytest.raises(ArgumentError, match="missing CPT for node 'C'"):
            Cbn(nodes, {}, {"A": bad, "B": good})
        with pytest.raises(ArgumentError, match="CPT for 'C' has shape"):
            Cbn(nodes, {}, {"A": bad, "B": good, "C": np.full(3, 1 / 3)})

    def test_cpts_are_read_only_views_of_one_copy(self):
        for net in (collider_net(), mixed_net(3, 6), random_instance("C", 3).net, graph_template("D").net):
            inputs = {n: np.array(c, order="F") for n, c in net.cpts.items()}  # writable, the caller's own
            built = Cbn(net.nodes, net.parents, inputs)
            before = joint(built).probs.tobytes()
            base = next(iter(built.cpts.values())).base
            for name, cpt in built.cpts.items():
                assert not cpt.flags.writeable and cpt.flags.c_contiguous and cpt.dtype == np.float64
                assert cpt.base is base and not np.shares_memory(cpt, inputs[name])
                assert cpt.tobytes() == net.cpts[name].tobytes()
                with pytest.raises(ValueError):
                    cpt[...] = 0.5
                inputs[name][...] = 0.5
            assert joint(built).probs.tobytes() == before
        for gid in "ABCD":  # the derived networks come from the same constructor
            tpl = graph_template(gid)
            for net in (mutilate(tpl.net, tpl.undesired), random_instance(gid, 3).net):
                assert all(not c.flags.writeable and c.flags.c_contiguous for c in net.cpts.values())

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

    def test_joint_beyond_the_dense_cap_is_refused_before_allocating(self):
        # 2**48 cells: building them would raise MemoryError or exhaust the memory
        names = tuple(f"N{i}" for i in range(48))
        net = Cbn(
            tuple(Variable(n, 2) for n in names),
            {n: (names[i - 1],) for i, n in enumerate(names) if i},
            {n: np.full((2, 2) if i else (2,), 0.5) for i, n in enumerate(names)},
        )
        tpl = GraphTemplate("A", net, (), (), (), (), (), ())
        for build in (lambda: joint(net), lambda: mutilate(net, [("N0", "N1")]), tpl.observed):
            with pytest.raises(ArgumentError, match="dense cap"):
                build()
        assert sample_cbn(net, 5, seed=0).rows.shape == (5, 48)

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

    @settings(max_examples=40)
    @given(st.integers(0, 2**16), st.integers(1, 8), st.lists(st.integers(0, 3), min_size=8, max_size=8))
    def test_matches_set_based_moralization(self, seed, n_nodes, roles):
        dag = mixed_net(seed, n_nodes).dag
        for x, y in combinations(dag.nodes, 2):
            rest = [n for n in dag.nodes if n not in (x, y)]
            for mask in range(1 << len(rest)):
                cond = {r for i, r in enumerate(rest) if mask >> i & 1}
                assert d_separated(dag, {x}, {y}, cond) == set_d_separated(dag, {x}, {y}, cond), (x, y, cond)
        # set-valued a and b: each node is in a, b, given or none of them by its role
        a, b, given = ({n for n, r in zip(dag.nodes, roles) if r == k} for k in range(3))
        if a and b:
            assert d_separated(dag, a, b, given) == set_d_separated(dag, a, b, given)
            assert d_separated(dag, a, b, given) == d_separated(dag, b, a, given)

    def test_ancestors_and_descendants(self):
        dag = graph_template("C").net.dag
        for n in dag.nodes:
            assert dag.ancestors([n]) == {n} | {m for m in dag.nodes if n in dag.descendants(m)}
        assert dag.ancestors(["Y", "Z"]) == dag.ancestors(["Y"]) | dag.ancestors(["Z"])
        with pytest.raises(NameError):
            dag.descendants("Q")

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

    def test_observed_dag_drops_latents_and_listed_edges(self):
        net = graph_template("C").net
        dag = observed_dag(net, ("T", "U", "V"))
        assert dag.nodes == ("Y", "Z", "X_core", "X_aux", "X_v")
        assert edges(dag) == (("Z", "X_aux"),)
        assert edges(observed_dag(net, ("T", "U", "V"), [("Z", "X_aux")])) == ()
        assert observed_dag(net, ()).parents == net.parents

    def test_observed_dag_rejects_an_unknown_latent(self):
        net = graph_template("A").net
        with pytest.raises(UnknownVariableError, match="'Q'"):
            observed_dag(net, ["Q"])
        with pytest.raises(UnknownVariableError, match="'Q'"):
            observed_dag(net.dag, ["U", "Q"])

    @pytest.mark.parametrize("edge", [("Y", "X_aux"), ("X_aux", "Z"), ("U", "Z"), ("Q", "Y"), ("Y", "Q")])
    def test_observed_dag_rejects_a_dropped_pair_that_is_not_an_observed_edge(self, edge):
        net = graph_template("A").net
        with pytest.raises(EdgeError, match=f"{edge[0]!r} -> {edge[1]!r}"):
            observed_dag(net, ["U"], [edge])
        assert edges(observed_dag(net, ["U"], [("Z", "X_aux")])) == (("Y", "X_core"),)


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
        calls = {"_pairwise_statements": 0, "_state_gaps": 0}  # _state_gaps: the gap kernel

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
        assert calls["_pairwise_statements"] == 0
        # N2..N7 each have one local statement, each with its own slice shape: one kernel call apiece
        assert calls["_state_gaps"] == len(bayesnet._local_statements(chain.dag)) == 6

    @settings(max_examples=60)
    @given(st.integers(0, 2**16), st.integers(2, 5), st.integers(0, 2**16))
    def test_grouped_sweep_matches_per_statement_gaps(self, net_seed, n_nodes, order_seed):
        # mixed cardinalities and a permuted table: slices of several shapes, in both memory orders
        net = mixed_net(net_seed, n_nodes)
        perm = spawn(order_seed, 9).permutation(n_nodes)
        table = JointTable(tuple(net.nodes[i] for i in perm), joint(net).probs.transpose(perm))
        for dag in (random_dag(order_seed, net.names), Dag(net.names, {})):
            statements = bayesnet._pairwise_statements(dag)
            assert statements == pairwise_statements(dag)
            for s, gap in zip(statements, bayesnet._statement_gaps(table.probs, table.names, statements)):
                assert gap.hex() == is_independent(table, *s).max_gap.hex(), s
            if not factorizes_according_to(table, dag):
                assert factorizes_according_to(table, dag) == full_sweep(table, dag)

    def test_sweep_reduces_each_kept_set_once_and_groups_the_gap_kernel(self, monkeypatch):
        tpl = random_instance("C", 0)
        balanced = balance_exact(tpl.observed(), BalanceSpec(JointTarget(tpl.y, tpl.z)))
        skeleton = tpl.mutilated_skeleton()
        statements = pairwise_statements(skeleton)
        kept_sets = {tuple(sorted(balanced.axes(x + y + s))) for x, y, s in statements}
        local = bayesnet._local_statements(skeleton)
        local_sets = {tuple(sorted(balanced.axes(x + y + s))) for x, y, s in local}
        assert (len(statements), len(kept_sets), len(local), len(local_sets)) == (72, 25, 5, 2)
        calls = {"_marginal": [], "_state_gaps": []}

        def recorded(name):
            inner = getattr(bayesnet, name)

            def wrapper(arr, *args):
                calls[name].append((arr.shape, *args))
                return inner(arr, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(bayesnet, name, recorded(name))
        report = factorizes_according_to(balanced, skeleton)
        assert not report.factorizes and report.violations  # the read runs the sweep, still recorded
        sums = [tuple(sorted(args[1])) for args in calls["_marginal"]]
        n_local = len(local_sets)  # each kept set summed once, the local statements' then the sweep's
        assert sorted(sums[:n_local]) == sorted(local_sets) and sorted(sums[n_local:]) == sorted(kept_sets)
        # one kernel call per statement, the local ones first; every pairwise statement of C is binary
        assert len(calls["_state_gaps"]) == len(local) + len(statements) == 5 + 72
        assert calls["_state_gaps"][len(local) :] == [((2, 2, 2 ** len(s)), 0) for _, _, s in statements]

    def test_verdict_alone_runs_no_sweep(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the pairwise sweep ran")

        monkeypatch.setattr(bayesnet, "_pairwise_statements", refuse)
        for gid in "BC":
            for seed in range(3):
                tpl = random_instance(gid, seed)
                balanced = balance_exact(tpl.observed(), BalanceSpec(JointTarget(tpl.y, tpl.z)))
                report = factorizes_according_to(balanced, tpl.mutilated_skeleton())
                assert report.factorizes is False and not bool(report), (gid, seed)
                with pytest.raises(AssertionError, match="sweep ran"):
                    report.violations

    def test_explanation_computed_once_on_first_read(self, monkeypatch):
        tpl = random_instance("C", 0)
        balanced = balance_exact(tpl.observed(), BalanceSpec(JointTarget(tpl.y, tpl.z)))
        skeleton = tpl.mutilated_skeleton()
        eager = full_sweep(balanced, skeleton)
        inner, calls = bayesnet._pairwise_statements, []

        def counted(dag):
            calls.append(dag)
            return inner(dag)

        monkeypatch.setattr(bayesnet, "_pairwise_statements", counted)
        report = factorizes_according_to(balanced, skeleton)
        assert calls == []
        first = report.violations
        assert report.violations is first and len(calls) == 1
        assert report.max_gap() == eager.max_gap() > 0
        assert report == eager and hash(report) == hash(eager) and repr(report) == repr(eager)
        assert len(calls) == 1
        assert not hasattr(report, "_missing") and not hasattr(eager, "_missing")

    def test_lazy_violations_match_the_eager_reference(self):
        failing = 0
        for seed in range(200):
            n_nodes = 2 + seed % 4
            net = mixed_net(seed, n_nodes)
            perm = spawn(seed, 9).permutation(n_nodes)
            table = JointTable(tuple(net.nodes[i] for i in perm), joint(net).probs.transpose(perm))
            dag = random_dag(seed, net.names)
            report, eager = factorizes_according_to(table, dag), full_sweep(table, dag)
            assert (report.factorizes, report.tol) == (eager.factorizes, eager.tol), seed
            fields = [[(v.a, v.b, v.given, v.kind, v.gap.hex()) for v in r.violations] for r in (report, eager)]
            assert fields[0] == fields[1], seed
            failing += not report.factorizes
        assert failing >= 100

    def test_factorizing_table_never_enters_the_sweep(self, monkeypatch):
        # no sweep and no d-separation search; the gap kernel runs at most once per local Markov statement
        def refuse(*args):
            raise AssertionError("the pairwise sweep ran")

        shapes = []
        inner = bayesnet._state_gaps

        def recorded(arr, *args):
            shapes.append(arr.shape)
            return inner(arr, *args)

        for name in ("_pairwise_statements", "_separated", "d_separated"):
            monkeypatch.setattr(bayesnet, name, refuse)
        monkeypatch.setattr(bayesnet, "_state_gaps", recorded)
        for seed in range(6):
            net = random_net(seed, 6)
            shapes.clear()
            assert factorizes_according_to(joint(net), net).factorizes
            assert 0 < len(shapes) <= len(bayesnet._local_statements(net.dag)), seed

    def test_dag_without_local_statements_runs_no_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the gap kernel ran")

        monkeypatch.setattr(bayesnet, "_state_gaps", refuse)
        net = random_net(2, 3)
        complete = Dag(net.names, {n: net.names[:i] for i, n in enumerate(net.names)})
        assert bayesnet._local_statements(complete) == []
        assert factorizes_according_to(joint(net), complete) == FactorizationReport(True, (), 1e-9)
        assert bayesnet._statement_gaps(np.ones((4, 2, 2)) / 4, ("A", "B"), [], 1).shape == (4, 0)

    def test_grouped_sweep_holds_several_shapes_and_both_memory_orders(self, monkeypatch):
        cards = {"A": 3, "B": 2, "C": 3, "D": 2}
        gen = spawn(4, 9)
        probs = gen.uniform(0.1, 1.0, size=tuple(cards.values()))
        table = JointTable(tuple(Variable(n, c) for n, c in cards.items()), probs / probs.sum())
        dag = Dag(("D", "B", "C", "A"), {})  # pairs in an order against the table's axes
        shapes = []
        inner = bayesnet._state_gaps

        def recorded(arr, *args):
            shapes.append((arr.shape[:2], arr.strides[0] >= arr.strides[1]))  # (a, b) shape, a's axis outer
            return inner(arr, *args)

        monkeypatch.setattr(bayesnet, "_state_gaps", recorded)
        statements = bayesnet._pairwise_statements(dag)
        got = bayesnet._statement_gaps(table.probs, table.names, statements)
        assert len(statements) == len(shapes) == 6 * 4
        assert {c for _, c in shapes} == {True, False} and len({s for s, _ in shapes}) >= 3
        for s, gap in zip(statements, got):
            assert gap.hex() == is_independent(table, *s).max_gap.hex(), s

    def test_full_sweep_holds_no_stack_of_statement_tables(self):
        # one kernel call per statement peaks near 0.3 MB here; a kernel that stacks the
        # statements' slices into shared blocks peaks near 3.5 MB and fails the bound
        names = tuple(f"N{i}" for i in range(8))
        probs = spawn(8, 9).uniform(0.1, 1.0, size=(2,) * 8)
        statements = bayesnet._pairwise_statements(Dag(names, {}))
        assert len(statements) == 28 * 2**6
        tracemalloc.start()
        try:
            bayesnet._statement_gaps(probs / probs.sum(), names, statements)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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

    @pytest.mark.parametrize("tol", [True, False, "1e-9", None])
    def test_tol_must_be_a_real_number(self, tol):
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

    @pytest.mark.parametrize("graph", ["A", "B", "C", "D"])
    def test_drawn_rows_are_in_range_int64_and_read_only(self, graph):
        # both samplers skip the batch checks: their rows must pass them anyway
        for tpl in [graph_template(graph)] + [random_instance(graph, seed) for seed in range(20)]:
            for batch in (sample_cbn(tpl.net, 300, 5), tables.sample(tpl.observed(), 300, 5)):
                checked = SampleBatch(batch.variables, batch.rows, batch.weights)
                assert batch.rows.dtype == np.int64 and batch.rows.flags.c_contiguous
                assert not (batch.rows.flags.writeable or batch.weights.flags.writeable)
                assert checked.rows.tobytes() == batch.rows.tobytes()
                assert batch.weights.tobytes() == np.ones(300).tobytes() and batch.names == checked.names

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
        cpt = net.cpts[name]
        card = cpt.shape[-1]
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
