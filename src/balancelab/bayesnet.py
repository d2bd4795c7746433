"""Causal Bayesian networks over discrete variables.

A ``Cbn`` couples a DAG with one conditional probability table per node and
supports exact joint computation, ancestral sampling, d-separation, edge
removal, and checking whether an exact table obeys every conditional
independence a DAG implies.

Networks are immutable; sampling takes explicit seeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, CycleError, EdgeError, UnknownVariableError, text_line
from .rng import spawn
from .tables import (
    JointTable,
    SampleBatch,
    Variable,
    is_independent,
    marginalize,
)

CPT_ROW_TOL = 1e-12


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
class GraphEdit:
    """A set of directed edges to remove from a network."""

    removed_edges: frozenset[tuple[str, str]]

    def __init__(self, removed_edges: Iterable[tuple[str, str]]) -> None:
        object.__setattr__(self, "removed_edges", frozenset(tuple(e) for e in removed_edges))


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


def broadcast_axes(arr: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """Place arr's dimensions at ``axes`` of an ndim-dim view, ones elsewhere."""
    order = np.argsort(axes)
    arr_sorted = np.transpose(arr, order)
    shape = [1] * ndim
    for ax, size in zip(sorted(axes), arr_sorted.shape):
        shape[ax] = size
    return arr_sorted.reshape(shape)


def joint(net: Cbn) -> JointTable:
    """The exact joint distribution: the product of node-given-parents CPTs."""
    pos = {v.name: i for i, v in enumerate(net.nodes)}
    shape = tuple(v.cardinality for v in net.nodes)
    probs = np.ones(shape)
    for v in net.nodes:
        axes = [pos[p] for p in net.parents[v.name]] + [pos[v.name]]
        probs = probs * broadcast_axes(net.cpts[v.name], axes, len(shape))
    return JointTable(net.nodes, probs / probs.sum())


def mutilate(net: Cbn, edit: GraphEdit) -> Cbn:
    """Remove the listed edges, averaging each affected CPT over the removed
    parents under their current joint marginal.

    This replaces the severed mechanisms with their prior mixtures, so the
    result is a concrete network whose skeleton is the mutilated graph.
    """
    removed = set(edit.removed_edges)
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
            marg = marginalize(full, rem_names)
            weights = np.transpose(marg.probs, marg.axes(rem_names))
            moved = np.moveaxis(cpt, rem_idx, range(len(rem_idx)))
            cpt = np.tensordot(weights, moved, axes=(tuple(range(len(rem_idx))),) * 2)
        cpts[v.name] = cpt
    return Cbn(net.nodes, parents, cpts)


def sample_cbn(net: Cbn, n: int, seed: int) -> SampleBatch:
    """Ancestral sampling; deterministic given ``seed``."""
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    gen = spawn(seed)
    pos = {v.name: i for i, v in enumerate(net.nodes)}
    rows = np.zeros((n, len(net.nodes)), dtype=np.int64)
    for name in net.dag.topo_order:
        card = net.variable(name).cardinality
        cpt = net.cpts[name]
        ps = net.parents[name]
        if ps:
            parent_cols = tuple(rows[:, pos[p]] for p in ps)
            row_probs = cpt.reshape(-1, card)[
                np.ravel_multi_index(parent_cols, cpt.shape[:-1])
            ]
        else:
            row_probs = np.broadcast_to(cpt, (n, card))
        cdf = np.cumsum(row_probs, axis=1)
        u = gen.random(n) * cdf[:, -1]
        rows[:, pos[name]] = (u[:, None] >= cdf[:, :-1]).sum(axis=1)
    return SampleBatch(net.nodes, rows, np.ones(n))


@dataclass(frozen=True)
class Violation:
    """One conditional independence implied by a DAG but absent in a table."""

    a: tuple[str, ...]
    b: tuple[str, ...]
    given: tuple[str, ...]
    gap: float
    kind: str  # "pairwise" or "local-markov"

    def describe(self) -> str:
        cond = f" | {','.join(self.given)}" if self.given else ""
        return f"{','.join(self.a)} _||_ {','.join(self.b)}{cond} fails with gap {self.gap:.3g}"


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


def factorizes_according_to(table: JointTable, graph: Dag | Cbn, tol: float = 1e-9) -> FactorizationReport:
    """Check that the table factorizes according to the DAG.

    The verdict comes from the local Markov statements
    node ⊥ nondescendants | parents, one per node: a table satisfying all of
    them factorizes, and then every other statement the DAG implies holds
    too.  Only when one of them fails are the pairwise statements
    x ⊥ y | S, over every d-separating subset S of the remaining nodes,
    tested as well, to say which finer independences break.  That sweep is
    exponential in the number of nodes.
    """
    dag = graph.dag if isinstance(graph, Cbn) else graph
    if set(dag.nodes) != set(table.names):
        raise UnknownVariableError(
            f"graph nodes {sorted(dag.nodes)} do not match table variables {sorted(table.names)}"
        )
    names = list(dag.nodes)
    local: list[Violation] = []
    for v in names:
        parents = dag.parents[v]
        excluded = dag.descendants(v) | set(parents) | {v}
        nondesc = tuple(n for n in names if n not in excluded)
        if nondesc:
            rep = is_independent(table, (v,), nondesc, parents, tol)
            if not rep:
                local.append(Violation((v,), nondesc, parents, rep.max_gap, "local-markov"))
    if not local:
        return FactorizationReport(True, (), tol)
    violations: list[Violation] = []
    for x, y in combinations(names, 2):
        rest = [n for n in names if n not in (x, y)]
        for mask in range(1 << len(rest)):
            cond = tuple(r for i, r in enumerate(rest) if mask >> i & 1)
            if d_separated(dag, {x}, {y}, cond):
                rep = is_independent(table, (x,), (y,), cond, tol)
                if not rep:
                    violations.append(Violation((x,), (y,), cond, rep.max_gap, "pairwise"))
    return FactorizationReport(False, tuple(violations + local), tol)


# Graph text format: a [nodes] block of 'name cardinality' lines, an [edges]
# block of 'parent -> child' lines (per child, in CPT parent order), and one
# [cpt <node>] block per node listing 'p0 p1 ...' rows in row-major parent
# order (roots have a single row).

def dumps_cbn(net: Cbn) -> str:
    lines = ["[nodes]"]
    lines += [f"{v.name} {v.cardinality}" for v in net.nodes]
    lines.append("[edges]")
    for v in net.nodes:
        lines += [f"{p} -> {v.name}" for p in net.parents[v.name]]
    for v in net.nodes:
        lines.append(f"[cpt {v.name}]")
        rows = net.cpts[v.name].reshape(-1, v.cardinality)
        lines += [" ".join(repr(float(x)) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def loads_cbn(text: str) -> Cbn:
    section: str | None = None
    variables: list[Variable] = []
    parents: dict[str, list[str]] = {}
    rows: dict[str, list[list[float]]] = {}
    opened: dict[str, int] = {}  # the line of each node's [cpt] header
    edges: list[tuple[int, str, str]] = []
    cpt_node: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if line == "[nodes]":
                section = "nodes"
            elif line == "[edges]":
                section = "edges"
            elif line.startswith("[cpt ") and line.endswith("]"):
                section = "cpt"
                cpt_node = line[len("[cpt ") : -1].strip()
                rows.setdefault(cpt_node, [])
                opened.setdefault(cpt_node, lineno)
            else:
                raise ArgumentError(f"line {lineno}: unknown section {line!r}")
            continue
        if section == "nodes":
            with text_line(lineno):
                name, card = line.split()
                variables.append(Variable(name, int(card)))
            parents.setdefault(name, [])
        elif section == "edges":
            with text_line(lineno):
                src, arrow, dst = line.split()
            if arrow != "->":
                raise ArgumentError(f"line {lineno}: expected 'parent -> child'")
            edges.append((lineno, src, dst))
            parents.setdefault(dst, []).append(src)
        elif section == "cpt" and cpt_node is not None:
            with text_line(lineno):
                rows[cpt_node].append([float(x) for x in line.split()])
        else:
            raise ArgumentError(f"line {lineno}: content outside any section")
    card = {v.name: v.cardinality for v in variables}
    for lineno, src, dst in edges:
        if src not in card or dst not in card:
            raise ArgumentError(f"line {lineno}: edge {src} -> {dst} names a node missing from [nodes]")
    cpts: dict[str, np.ndarray] = {}
    for v in variables:
        shape = tuple(card[p] for p in parents[v.name]) + (v.cardinality,)
        if v.name not in rows:
            raise ArgumentError(f"missing [cpt {v.name}] block")
        with text_line(opened[v.name]):
            cpts[v.name] = np.asarray(rows[v.name]).reshape(shape)
    return Cbn(tuple(variables), {n: tuple(ps) for n, ps in parents.items()}, cpts)


def save_cbn(net: Cbn, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_cbn(net))


def load_cbn(path: str) -> Cbn:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_cbn(fh.read())
