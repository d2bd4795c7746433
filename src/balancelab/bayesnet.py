"""Causal Bayesian networks over discrete variables.

A ``Cbn`` couples a DAG with one conditional probability table per node and
supports exact joint computation, ancestral sampling, d-separation, edge
removal (``mutilate(net, [(parent, child), ...])``), and checking whether an
exact table obeys every conditional independence a DAG implies.

Networks are immutable; sampling takes explicit seeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import isfinite
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, CycleError, EdgeError, UnknownVariableError
from .rng import is_int, spawn
from .tables import JointTable, SampleBatch, Variable, _derived, _marginal, _state_gaps, marginal_probs

CPT_ROW_TOL = 1e-12
Statement = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]  # (a, b, given): a ⊥ b | given


def _children(nodes: Sequence[str], parents: Mapping[str, tuple[str, ...]]) -> dict[str, tuple[str, ...]]:
    """Each node's children, in node order."""
    children: dict[str, list[str]] = {n: [] for n in nodes}
    for c in nodes:
        for p in parents[c]:
            children[p].append(c)
    return {n: tuple(cs) for n, cs in children.items()}


def _toposort(nodes: Sequence[str], children: Mapping[str, tuple[str, ...]]) -> tuple[str, ...]:
    indeg = {n: 0 for n in nodes}
    for cs in children.values():
        for c in cs:
            indeg[c] += 1
    queue = deque(n for n in nodes if indeg[n] == 0)
    out: list[str] = []
    while queue:
        n = queue.popleft()
        out.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    if len(out) != len(nodes):
        raise CycleError(f"parent relation is cyclic among {sorted(set(nodes) - set(out))}")
    return tuple(out)


@dataclass(frozen=True)
class Dag:
    """A bare DAG skeleton: node names plus an ordered parent map."""

    nodes: tuple[str, ...]
    parents: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        if len(set(nodes)) != len(nodes):
            raise ArgumentError(f"duplicate node names: {nodes}")
        parents = {n: tuple(self.parents.get(n, ())) for n in nodes}
        for child, ps in parents.items():
            for p in ps:
                if p not in parents:
                    raise UnknownVariableError(f"parent {p!r} of {child!r} is not a node")
            if len(set(ps)) != len(ps):
                raise ArgumentError(f"duplicate parents for {child!r}: {ps}")
        children = _children(nodes, parents)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_topo", _toposort(nodes, children))

    @property
    def topo_order(self) -> tuple[str, ...]:
        return self._topo  # type: ignore[attr-defined]

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple((p, c) for c in self.nodes for p in self.parents[c])

    def children(self, node: str) -> tuple[str, ...]:
        if node not in self.parents:
            raise UnknownVariableError(f"unknown node {node!r}")
        return self._children[node]  # type: ignore[attr-defined]

    def ancestors(self, targets: Iterable[str]) -> set[str]:
        """Targets plus all their ancestors."""
        seen: set[str] = set()
        queue = deque(self._require(targets))
        while queue:
            n = queue.popleft()
            if n in seen:
                continue
            seen.add(n)
            queue.extend(self.parents[n])
        return seen

    def descendants(self, node: str) -> set[str]:
        """Strict descendants of ``node``."""
        self._require([node])
        children = self._children  # type: ignore[attr-defined]
        seen: set[str] = set()
        queue = deque(children[node])
        while queue:
            n = queue.popleft()
            if n in seen:
                continue
            seen.add(n)
            queue.extend(children[n])
        return seen

    def _require(self, names: Iterable[str]) -> tuple[str, ...]:
        names = tuple(names)
        for n in names:
            if n not in self.parents:
                raise UnknownVariableError(f"unknown node {n!r}; have {self.nodes}")
        return names


def d_separated(graph: "Dag | Cbn", a: Iterable[str], b: Iterable[str], given: Iterable[str] = ()) -> bool:
    """Standard d-separation of node sets ``a`` and ``b`` given ``given``.

    Uses the moralized ancestral graph: restrict to ancestors of a ∪ b ∪ given,
    connect co-parents, drop edge directions, delete ``given``, and test
    undirected separation.
    """
    dag = graph.dag if isinstance(graph, Cbn) else graph
    a, b, given = set(dag._require(a)), set(dag._require(b)), set(dag._require(given))
    if not a or not b:
        raise ArgumentError("a and b must be non-empty")
    if (a & b) or (a & given) or (b & given):
        raise ArgumentError("a, b, given must be disjoint")

    relevant = dag.ancestors(a | b | given)
    adjacency: dict[str, set[str]] = {n: set() for n in relevant}
    for child in relevant:
        ps = [p for p in dag.parents[child] if p in relevant]
        for p in ps:
            adjacency[p].add(child)
            adjacency[child].add(p)
        for p, q in combinations(ps, 2):
            adjacency[p].add(q)
            adjacency[q].add(p)

    blocked = given
    seen: set[str] = set()
    queue = deque(a - blocked)
    while queue:
        n = queue.popleft()
        if n in seen:
            continue
        seen.add(n)
        if n in b:
            return False
        queue.extend(nb for nb in adjacency[n] if nb not in blocked and nb not in seen)
    return True


@dataclass(frozen=True)
class Cbn:
    """A causal Bayesian network: DAG plus per-node CPTs.

    ``cpts[name]`` has shape (parent cardinalities..., own cardinality) with
    parent axes in the order of ``parents[name]``; each row along the last
    axis sums to 1.
    """

    nodes: tuple[Variable, ...]
    parents: Mapping[str, tuple[str, ...]]
    cpts: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        names = [v.name for v in nodes]
        if len(set(names)) != len(names):
            raise ArgumentError(f"duplicate node names: {names}")
        card = {v.name: v.cardinality for v in nodes}
        dag = Dag(tuple(names), {n: tuple(self.parents.get(n, ())) for n in names})
        cpts: dict[str, np.ndarray] = {}
        for v in nodes:
            if v.name not in self.cpts:
                raise ArgumentError(f"missing CPT for node {v.name!r}")
            cpt = np.asarray(self.cpts[v.name], dtype=float)
            expected = tuple(card[p] for p in dag.parents[v.name]) + (v.cardinality,)
            if cpt.shape != expected:
                raise ArgumentError(
                    f"CPT for {v.name!r} has shape {cpt.shape}, expected {expected}"
                )
            if not np.all(cpt >= 0):  # also catches NaN
                raise ArgumentError(f"CPT for {v.name!r} has negative or NaN entries")
            rows = cpt.sum(axis=-1)
            if np.any(np.abs(rows - 1.0) > CPT_ROW_TOL):
                raise ArgumentError(f"CPT rows for {v.name!r} must sum to 1 within {CPT_ROW_TOL}")
            cpt = cpt.copy()
            cpt.setflags(write=False)
            cpts[v.name] = cpt
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


def _trusted_cbn(
    nodes: tuple[Variable, ...], parents: Mapping[str, tuple[str, ...]], cpts: Mapping[str, np.ndarray]
) -> Cbn:
    """A network from CPTs that are already valid (taken from a valid network
    or built as normalized positive rows): it builds the ``Dag`` but skips
    the CPT checks and copies of ``Cbn.__post_init__``, and freezes the
    given arrays in place."""
    dag = Dag(tuple(v.name for v in nodes), parents)
    out = object.__new__(Cbn)
    object.__setattr__(out, "nodes", tuple(nodes))
    object.__setattr__(out, "parents", dag.parents)
    object.__setattr__(out, "cpts", {v.name: cpts[v.name] for v in nodes})
    object.__setattr__(out, "_dag", dag)
    for cpt in out.cpts.values():
        cpt.setflags(write=False)
    return out


def broadcast_axes(arr: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """Place arr's dimensions at ``axes`` of an ndim-dim view, ones elsewhere."""
    order = sorted(range(len(axes)), key=axes.__getitem__)
    arr_sorted = np.transpose(arr, order)
    shape = [1] * ndim
    for ax, size in zip(sorted(axes), arr_sorted.shape):
        shape[ax] = size
    return arr_sorted.reshape(shape)


def joint(net: Cbn) -> JointTable:
    """The exact joint distribution: the product of node-given-parents CPTs."""
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
    return _trusted_cbn(net.nodes, parents, cpts)


def observed_dag(graph: Dag | Cbn, latents: Iterable[str], dropped: Iterable[tuple[str, str]] = ()) -> Dag:
    """The DAG over the observed nodes: each keeps its observed parents,
    minus the ``dropped`` edges."""
    hidden, dropped = set(latents), set(dropped)
    observed = tuple(n for n in graph.parents if n not in hidden)  # both parent maps run in node order
    parents = {c: tuple(p for p in graph.parents[c] if p not in hidden and (p, c) not in dropped) for c in observed}
    return Dag(observed, parents)


def sample_cbn(net: Cbn, n: int, seed: int) -> SampleBatch:
    """Ancestral sampling; deterministic given ``seed``.

    Each node's CDF is built once per parent state, as the running sums of its
    CPT rows; a row picks its CDF by the flat index of its parents' states and
    draws the state as the number of CDF entries below ``u``, one uniform
    scaled by that CDF's total.  Columns stay 1-D until the final stack.
    """
    if not (is_int(n) and n >= 1):
        raise ArgumentError(f"n must be an integer >= 1, got {n!r}")
    gen = spawn(seed)
    cols: dict[str, np.ndarray] = {}
    for name in net.dag.topo_order:
        cpt = net.cpts[name]
        cdf = np.cumsum(cpt.reshape(-1, cpt.shape[-1]), axis=1)
        ps = net.parents[name]
        pick = np.ravel_multi_index(tuple(cols[p] for p in ps), cpt.shape[:-1]) if ps else 0
        u = gen.random(n) * cdf[:, -1].take(pick)
        cols[name] = sum(u >= cdf[:, k].take(pick) for k in range(cdf.shape[1] - 1))
    return SampleBatch(net.nodes, np.column_stack([cols[v.name] for v in net.nodes]), np.ones(n))


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
    Markov statement (``kind="local-markov"``).
    """

    factorizes: bool
    violations: tuple[Violation, ...]
    tol: float

    def __bool__(self) -> bool:
        return self.factorizes

    def max_gap(self) -> float:
        return max((v.gap for v in self.violations), default=0.0)


def _gaps(probs: np.ndarray, names: Sequence[str], statement: Statement, lead: int = 0) -> np.ndarray:
    """The largest gap of the statement, as ``is_independent`` reports it,
    per draw of ``probs``: a table over ``names`` after ``lead`` draw axes."""
    arr = _marginal(probs, [names.index(n) for part in statement for n in part], lead)
    return _state_gaps(arr, len(statement[0]), len(statement[1]), lead)[1].max(axis=(-2, -1))


def _local_statements(dag: Dag) -> list[Statement]:
    """The local Markov statements (node,) ⊥ nondescendants | parents, in
    node order, of every node with a nondescendant outside its parents."""
    out = []
    for v in dag.nodes:
        excluded = dag.descendants(v) | set(dag.parents[v]) | {v}
        if nondesc := tuple(n for n in dag.nodes if n not in excluded):
            out.append(((v,), nondesc, dag.parents[v]))
    return out


def factorizes_according_to(table: JointTable, graph: Dag | Cbn, tol: float = 1e-9) -> FactorizationReport:
    """Check that the table factorizes according to the DAG.

    The verdict comes from the local Markov statements
    node ⊥ nondescendants | parents, one per node: a table satisfying all of
    them factorizes, and then every other statement the DAG implies holds
    too.  Only when one of them fails are the pairwise statements
    x ⊥ y | S, over every d-separating subset S of the remaining nodes,
    tested as well, to say which finer independences break.  That sweep is
    exponential in the number of nodes.  Each gap is ``is_independent``'s
    ``max_gap``, bit for bit, from its kernel; ``tol`` must be finite and > 0.
    """
    if not (isfinite(tol) and tol > 0):
        raise ArgumentError(f"tol must be finite and positive, got {tol}")
    dag = graph.dag if isinstance(graph, Cbn) else graph
    if set(dag.nodes) != set(table.names):
        raise UnknownVariableError(
            f"graph nodes {sorted(dag.nodes)} do not match table variables {sorted(table.names)}"
        )
    probs, names = table.probs, table.names
    local = [
        Violation(*s, gap, "local-markov")
        for s in _local_statements(dag)
        if (gap := float(_gaps(probs, names, s))) > tol
    ]
    if not local:
        return FactorizationReport(True, (), tol)
    violations: list[Violation] = []
    for x, y in combinations(dag.nodes, 2):
        rest = [n for n in dag.nodes if n not in (x, y)]
        for mask in range(1 << len(rest)):
            cond = tuple(r for i, r in enumerate(rest) if mask >> i & 1)
            if d_separated(dag, {x}, {y}, cond) and (gap := float(_gaps(probs, names, ((x,), (y,), cond)))) > tol:
                violations.append(Violation((x,), (y,), cond, gap, "pairwise"))
    return FactorizationReport(False, tuple(violations + local), tol)
