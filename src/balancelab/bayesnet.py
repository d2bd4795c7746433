"""Causal Bayesian networks over discrete variables.

A ``Cbn`` couples a DAG with one conditional probability table per node and
supports exact joint computation, ancestral sampling, d-separation, edge
removal (``mutilate(net, [(parent, child), ...])``), and checking whether an
exact table obeys every conditional independence a DAG implies.
``Cbn(...)`` is the one, validating, way to build a network.  D-separation
runs on the node bitmasks a ``Dag`` builds with its topological order.
Every independence statement's gap, the local Markov ones and the pairwise
sweep's alike, goes through ``_statement_gaps``, which sums each kept set
once and calls the gap kernel once per statement, also on stacked tables
of several draws.  A factorization verdict costs only the local Markov
statements; the exponential pairwise sweep that explains a failing one
runs on the first read of the report's ``violations``.

Networks are immutable; sampling takes explicit seeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, CycleError, EdgeError, UnknownVariableError
from .rng import is_int, is_real, spawn
from .tables import PROB_TOL, JointTable, SampleBatch, Variable, _dense_shape, _derived, _marginal, _pick, _state_gaps, _trusted_batch, marginal_probs

Statement = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]  # (a, b, given): a ⊥ b | given


@dataclass(frozen=True)
class Dag:
    """A bare DAG skeleton: node names plus an ordered parent map.

    One pass over the nodes and edges checks the parent map and builds, per
    node bit (its index in ``nodes``), the bitmasks of its parents, of its
    children and of itself with its ancestors, and ``topo_order``: Kahn's
    first-in-first-out order from the parentless nodes in node order, each
    node's children released in node order.  ``sample_cbn`` draws its
    columns in that order, so it fixes every sampled bit.
    """

    nodes: tuple[str, ...]
    parents: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        if len(set(nodes)) != len(nodes):
            raise ArgumentError(f"duplicate node names: {nodes}")
        parents = {n: tuple(self.parents.get(n, ())) for n in nodes}
        bit = {n: i for i, n in enumerate(nodes)}
        par, kids, anc = ([0] * len(nodes) for _ in range(3))
        children: list[list[int]] = [[] for _ in nodes]
        for i, (child, ps) in enumerate(parents.items()):
            for p in ps:
                if (j := bit.get(p)) is None:
                    raise UnknownVariableError(f"parent {p!r} of {child!r} is not a node")
                par[i] |= 1 << j
                kids[j] |= 1 << i
                children[j].append(i)
            if len(set(ps)) != len(ps):
                raise ArgumentError(f"duplicate parents for {child!r}: {ps}")
        indeg = [len(ps) for ps in parents.values()]
        queue = deque(i for i, d in enumerate(indeg) if not d)
        order: list[str] = []
        while queue:
            i = queue.popleft()
            order.append(nodes[i])
            anc[i] |= 1 << i  # every parent's ancestors are in already
            for c in children[i]:
                anc[c] |= anc[i]
                indeg[c] -= 1
                if not indeg[c]:
                    queue.append(c)
        if len(order) != len(nodes):
            raise CycleError(f"parent relation is cyclic among {sorted(set(nodes) - set(order))}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "topo_order", tuple(order))
        object.__setattr__(self, "_bits", (bit, par, kids, anc))

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple((p, c) for c in self.nodes for p in self.parents[c])

    def ancestors(self, targets: Iterable[str]) -> set[str]:
        """Targets plus all their ancestors."""
        mask = _union(self._bits[3], self._mask(targets))
        return {n for j, n in enumerate(self.nodes) if mask >> j & 1}

    def descendants(self, node: str) -> set[str]:
        """Strict descendants of ``node``."""
        i, anc = self._bits[0][self._require([node])[0]], self._bits[3]
        return {n for j, n in enumerate(self.nodes) if j != i and anc[j] >> i & 1}

    def _require(self, names: Iterable[str]) -> tuple[str, ...]:
        names = tuple(names)
        for n in names:
            if n not in self.parents:
                raise UnknownVariableError(f"unknown node {n!r}; have {self.nodes}")
        return names

    def _mask(self, names: Iterable[str]) -> int:
        return sum({1 << self._bits[0][n] for n in self._require(names)})


def _union(masks: Sequence[int], mask: int) -> int:
    """The union of ``masks[i]`` over the set bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


def d_separated(graph: "Dag | Cbn", a: Iterable[str], b: Iterable[str], given: Iterable[str] = ()) -> bool:
    """Standard d-separation of node sets ``a`` and ``b`` given ``given``.

    Uses the moralized ancestral graph: restrict to ancestors of a ∪ b ∪ given,
    connect co-parents, drop edge directions, delete ``given``, and test
    undirected separation, all on bitmasks of the nodes.
    """
    dag = graph.dag if isinstance(graph, Cbn) else graph
    a, b, given = dag._mask(a), dag._mask(b), dag._mask(given)
    if not a or not b:
        raise ArgumentError("a and b must be non-empty")
    if (a & b) or (a & given) or (b & given):
        raise ArgumentError("a, b, given must be disjoint")
    return _separated(dag, a, b, given)


def _separated(dag: Dag, a: int, b: int, given: int) -> bool:
    """The d-separation kernel on disjoint node bitmasks, ``a`` and ``b``
    non-empty: a search from ``a`` through the moralized ancestral graph,
    whose neighbours of a node are its parents, its relevant children and
    their parents, never entering ``given``."""
    _, par, kids, anc = dag._bits
    relevant = _union(anc, a | b | given)  # closed under parents
    reach = frontier = a
    while frontier:
        kid = _union(kids, frontier) & relevant
        frontier = (_union(par, frontier) | kid | _union(par, kid)) & ~(given | reach)
        if frontier & b:
            return False
        reach |= frontier
    return True


@dataclass(frozen=True)
class Cbn:
    """A causal Bayesian network: DAG plus per-node CPTs.

    ``cpts[name]`` has shape (parent cardinalities..., own cardinality) with
    parent axes in the order of ``parents[name]``; each row along the last
    axis sums to 1 within ``PROB_TOL``.  The constructor, the only way to
    build a network, checks each CPT's presence and shape, copies all of
    them into one float buffer, and checks that buffer at once for negative
    or NaN entries and rows off 1, naming the first bad node only on
    failure; so a missing or misshapen CPT is reported before any bad
    value.  Each ``cpts[name]`` is a read-only, C-contiguous view of that
    buffer; the caller's arrays stay theirs.
    """

    nodes: tuple[Variable, ...]
    parents: Mapping[str, tuple[str, ...]]
    cpts: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        names = [v.name for v in nodes]
        if not names:
            raise ArgumentError("a network needs at least one node")
        card = {v.name: v.cardinality for v in nodes}
        dag = Dag(tuple(names), self.parents)  # checks the names and the parent map
        tables, rows, ends = [], [], [0]  # each node's CPT; the buffer offsets of every CPT row, of every CPT's end
        for v in nodes:
            if v.name not in self.cpts:
                raise ArgumentError(f"missing CPT for node {v.name!r}")
            cpt = np.asarray(self.cpts[v.name], dtype=float)
            expected = tuple(card[p] for p in dag.parents[v.name]) + (v.cardinality,)
            if cpt.shape != expected:
                raise ArgumentError(f"CPT for {v.name!r} has shape {cpt.shape}, expected {expected}")
            tables.append(cpt)
            rows.extend(range(ends[-1], ends[-1] + cpt.size, v.cardinality))
            ends.append(ends[-1] + cpt.size)
        flat = np.concatenate(tables, axis=None)  # the one defensive copy
        if not (flat.min() >= 0 and _rows_sum_to_one(flat, rows)):  # NaN fails both
            for v, cpt in zip(nodes, tables):  # name the first bad node, with the same tests
                if not cpt.min() >= 0:
                    raise ArgumentError(f"CPT for {v.name!r} has negative or NaN entries")
                if not _rows_sum_to_one(cpt.ravel(), range(0, cpt.size, v.cardinality)):
                    raise ArgumentError(f"CPT rows for {v.name!r} must sum to 1 within {PROB_TOL}")
        flat.setflags(write=False)
        cpts = {v.name: flat[a:b].reshape(t.shape) for v, t, a, b in zip(nodes, tables, ends, ends[1:])}
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "parents", dag.parents)
        object.__setattr__(self, "cpts", cpts)
        object.__setattr__(self, "_dag", dag)

    @property
    def dag(self) -> Dag:
        return self._dag  # type: ignore[attr-defined]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.nodes)

    def variable(self, name: str) -> Variable:
        for v in self.nodes:
            if v.name == name:
                return v
        raise UnknownVariableError(f"unknown node {name!r}")


def _rows_sum_to_one(flat: np.ndarray, starts: Sequence[int]) -> bool:
    """Whether the rows of ``flat`` that begin at ``starts`` each sum to 1 within ``PROB_TOL``."""
    return bool(np.abs(np.add.reduceat(flat, starts) - 1.0).max() <= PROB_TOL)


def broadcast_axes(arr: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """Place arr's dimensions at ``axes`` of an ndim-dim view, ones elsewhere."""
    order = sorted(range(len(axes)), key=axes.__getitem__)
    arr_sorted = np.transpose(arr, order)
    shape = [1] * ndim
    for ax, size in zip(sorted(axes), arr_sorted.shape):
        shape[ax] = size
    return arr_sorted.reshape(shape)


def joint(net: Cbn) -> JointTable:
    """The exact joint distribution: the product of node-given-parents CPTs,
    refused before anything is allocated when it exceeds the dense cap."""
    _dense_shape(net.nodes)
    return _derived(net.nodes, _product(net.dag, net.cpts))


def _product(dag: Dag, cpts: Mapping[str, np.ndarray], lead: int = 0) -> np.ndarray:
    """The joint kernel: the normalized product of the node-given-parents
    CPTs, one axis per node in node order after the CPTs' ``lead`` draw axes."""
    pos = {n: lead + i for i, n in enumerate(dag.nodes)}
    probs = np.ones(cpts[dag.nodes[0]].shape[:lead] + tuple(cpts[n].shape[-1] for n in dag.nodes))
    for n in dag.nodes:
        axes = [*range(lead), *(pos[p] for p in dag.parents[n]), pos[n]]
        probs = probs * broadcast_axes(cpts[n], axes, probs.ndim)
    return probs / probs.sum(axis=tuple(range(lead, probs.ndim)), keepdims=True)


def mutilate(net: Cbn, removed: Iterable[tuple[str, str]]) -> Cbn:
    """Remove the listed (parent, child) edges, averaging each affected CPT
    over the removed parents under their current joint marginal.

    This replaces the severed mechanisms with their prior mixtures, so the
    result is a concrete network whose skeleton is the mutilated graph.
    """
    removed = {tuple(e) for e in removed}
    for p, c in removed:
        if c not in net.parents or p not in net.parents.get(c, ()):
            raise EdgeError(f"edge {p!r} -> {c!r} does not exist")
    if not removed:
        return net
    full = joint(net)
    cpts: dict[str, np.ndarray] = {}
    parents: dict[str, tuple[str, ...]] = {}
    for v in net.nodes:
        plist = net.parents[v.name]
        rem_idx = [i for i, p in enumerate(plist) if (p, v.name) in removed]
        parents[v.name] = tuple(p for i, p in enumerate(plist) if i not in rem_idx)
        cpt = net.cpts[v.name]
        if rem_idx:
            rem_names = [plist[i] for i in rem_idx]
            weights = marginal_probs(full, rem_names)
            moved = np.moveaxis(cpt, rem_idx, range(len(rem_idx)))
            cpt = np.tensordot(weights, moved, axes=(tuple(range(len(rem_idx))),) * 2)
        cpts[v.name] = cpt
    return Cbn(net.nodes, parents, cpts)


def observed_dag(graph: Dag | Cbn, latents: Iterable[str], dropped: Iterable[tuple[str, str]] = ()) -> Dag:
    """The DAG over the observed nodes: each keeps its observed parents,
    minus the ``dropped`` edges."""
    hidden, dropped = set(latents), set(dropped)
    observed = tuple(n for n in graph.parents if n not in hidden)  # both parent maps run in node order
    parents = {c: tuple(p for p in graph.parents[c] if p not in hidden and (p, c) not in dropped) for c in observed}
    return Dag(observed, parents)


def sample_cbn(net: Cbn, n: int, seed: int) -> SampleBatch:
    """Ancestral sampling; deterministic given ``seed``.

    Columns are drawn in ``net.dag.topo_order``, one uniform per row and
    node, each by inversion (``tables._pick``) of the CPT row that the row's
    parent states select, so that order fixes every sampled bit.  Columns
    stay 1-D until the final stack.
    """
    if not (is_int(n) and n >= 1):
        raise ArgumentError(f"n must be an integer >= 1, got {n!r}")
    gen = spawn(seed)
    cols: dict[str, np.ndarray] = {}
    for name in net.dag.topo_order:
        cpt, row = net.cpts[name], 0
        for p, size in zip(net.parents[name], cpt.shape):  # the flat index of the parents' states
            row = row * size + cols[p]
        cols[name] = _pick(cpt.reshape(-1, cpt.shape[-1]), row, gen.random(n))
    return _trusted_batch(net.nodes, np.column_stack([cols[v.name] for v in net.nodes]), np.ones(n))


@dataclass(frozen=True)
class Violation:
    """One conditional independence implied by a DAG but absent in a table."""

    a: tuple[str, ...]
    b: tuple[str, ...]
    given: tuple[str, ...]
    gap: float
    kind: str  # "pairwise" or "local-markov"


@dataclass(frozen=True)
class FactorizationReport:
    """Whether a table factorizes according to a DAG, and if not, why.

    The verdict comes from the local Markov statements alone.  ``violations``
    is empty when the table factorizes; otherwise it lists every failing
    pairwise statement (``kind="pairwise"``) followed by every failing local
    Markov statement (``kind="local-markov"``).  A failing report from
    ``factorizes_according_to`` keeps the table, the DAG and its local
    violations, and runs the exponential pairwise sweep on the first read of
    ``violations`` (which ``==``, hashing, ``repr`` and ``max_gap`` make);
    two concurrent first reads may both run it, with equal results.
    """

    factorizes: bool
    violations: tuple[Violation, ...]
    tol: float

    def __bool__(self) -> bool:
        return self.factorizes

    def __getattr__(self, name: str):
        # normal lookup failed: compute a lazy report's unread ``violations``, refuse anything else
        if name != "violations" or "_explain" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        table, dag, local = self._explain
        violations = _failing(table, _pairwise_statements(dag), "pairwise", self.tol) + local
        object.__setattr__(self, "violations", violations)
        return violations

    def max_gap(self) -> float:
        return max((v.gap for v in self.violations), default=0.0)


def _local_statements(dag: Dag) -> list[Statement]:
    """The local Markov statements (node,) ⊥ nondescendants | parents, in
    node order, of every node with a nondescendant outside its parents."""
    _, par, _, anc = dag._bits
    nodes, out = dag.nodes, []
    for i, v in enumerate(nodes):  # skip each node j that is v, a descendant of v or a parent of v
        bit, parents = 1 << i, par[i]
        if nondesc := tuple([n for j, n in enumerate(nodes) if not (anc[j] & bit or parents >> j & 1)]):
            out.append(((v,), nondesc, dag.parents[v]))
    return out


def _pairwise_statements(dag: Dag) -> list[Statement]:
    """Every d-separated x ⊥ y | S of the DAG, pairs in node order and S by
    the bits of the other nodes."""
    node, out = dag.nodes, []
    for i, j in combinations(range(len(node)), 2):
        rest = [k for k in range(len(node)) if k not in (i, j)]
        for mask in range(1 << len(rest)):
            cond = [k for t, k in enumerate(rest) if mask >> t & 1]
            if _separated(dag, 1 << i, 1 << j, sum(1 << k for k in cond)):
                out.append(((node[i],), (node[j],), tuple(node[k] for k in cond)))
    return out


def _statement_gaps(probs: np.ndarray, names: Sequence[str], statements: Sequence[Statement], lead: int = 0) -> np.ndarray:
    """The largest gap of each statement a ⊥ b | given, as ``is_independent``
    reports it, per draw of ``probs``: a table over ``names`` after ``lead``
    draw axes.  The result has shape (*draws, statements).  Each kept set
    a ∪ b ∪ given is summed once; each statement's table, flattened to
    (a, b, given) states, goes through one ``_state_gaps`` call, and its gap
    is the largest over its given states."""
    out = np.empty(probs.shape[:lead] + (len(statements),))
    sums, draws = {}, range(lead)  # kept axes: (their sum, its axis order)
    for k, (a, b, given) in enumerate(statements):
        axes = [names.index(n) for n in a + b + given]
        if (kept := frozenset(axes)) in sums:
            first, order = sums[kept]
            arr = first.transpose(*draws, *[lead + order.index(x) for x in axes])
        else:
            arr = _marginal(probs, axes, lead)
            sums[kept] = arr, axes
        na, nab = lead + len(a), lead + len(a) + len(b)
        flat = arr.reshape(*arr.shape[:lead], prod(arr.shape[lead:na]), prod(arr.shape[na:nab]), -1)
        out[..., k] = _state_gaps(flat, lead)[1].max(axis=(-2, -1))
    return out


def _failing(table: JointTable, statements: list[Statement], kind: str, tol: float) -> tuple[Violation, ...]:
    """The statements whose gap in ``table`` exceeds ``tol``, as violations of ``kind``, in order."""
    gaps = _statement_gaps(table.probs, table.names, statements).tolist()
    return tuple(Violation(*s, gap, kind) for s, gap in zip(statements, gaps) if gap > tol)


def factorizes_according_to(table: JointTable, graph: Dag | Cbn, tol: float = 1e-9) -> FactorizationReport:
    """Check that the table factorizes according to the DAG.

    The verdict comes from the local Markov statements
    node ⊥ nondescendants | parents, one per node: a table satisfying all of
    them factorizes, and then every other statement the DAG implies holds
    too.  The report is returned as soon as they decide.  When one fails,
    the explanation, the pairwise statements x ⊥ y | S over every
    d-separating subset S of the remaining nodes, which says which finer
    independences break, is tested only on the first read of the report's
    ``violations``.  That sweep is still exponential in the number of
    nodes; a caller that reads only the verdict never pays for it.  Both
    lists of statements go through ``_statement_gaps``: each kept set is
    summed once and the gap kernel runs once per statement.  Each gap is
    ``is_independent``'s ``max_gap``, bit for bit; ``tol`` must be a finite
    real > 0.
    """
    if not (is_real(tol) and tol > 0):
        raise ArgumentError(f"tol must be a finite positive real, got {tol!r}")
    dag = graph.dag if isinstance(graph, Cbn) else graph
    if set(dag.nodes) != set(table.names):
        raise UnknownVariableError(
            f"graph nodes {sorted(dag.nodes)} do not match table variables {sorted(table.names)}"
        )
    if not (local := _failing(table, _local_statements(dag), "local-markov", tol)):
        return FactorizationReport(True, (), tol)
    report = object.__new__(FactorizationReport)  # its violations are computed on first read
    report.__dict__.update(factorizes=False, tol=tol, _explain=(table, dag, local))
    return report
