"""Asserted subsumption graphs and the quantities structural features use.

Hierarchies connect named entities only; complex expressions never become
nodes.  Depth is measured on the strongly-connected-component condensation,
so asserted cycles cannot make it unbounded.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain

from .model import EquivalentClasses, NamedClass, Ontology, SubClassOf, SubObjectPropertyOf


@dataclass(frozen=True)
class Hierarchy:
    """Direct child-to-parent subsumption edges over a fixed node set."""

    nodes: frozenset[str]
    direct_edges: frozenset[tuple[str, str]]
    ndhc: int = field(init=False, compare=False)
    nidhc: int = field(init=False, compare=False)
    scc_map: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        comp = _scc_map(self.nodes, self.direct_edges)
        object.__setattr__(self, "scc_map", comp)
        object.__setattr__(self, "ndhc", len(self.direct_edges))
        closure_size = _count_reachable_pairs(self.direct_edges, comp)
        object.__setattr__(self, "nidhc", closure_size - len(self.direct_edges))

    def parents(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = defaultdict(set)
        for child, parent in self.direct_edges:
            out[child].add(parent)
        return out

    def children(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = defaultdict(set)
        for child, parent in self.direct_edges:
            out[parent].add(child)
        return out


def _adjacency(edges) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = defaultdict(set)
    for u, v in edges:
        adj[u].add(v)
    return adj


def _count_reachable_pairs(edges, comp: dict[str, int]) -> int:
    """Number of (u, v) pairs with a directed path of length >= 1 from u to v.

    Counted on the condensation `comp` from `_scc_map` without materializing
    the closure (Purdom 1970; Nuutila 1995). Tarjan numbers a component only
    after every component it reaches, so one pass in ascending id order sees
    successors first. With the nodes laid out contiguously by component, a
    component's reach is a Python-int bitset, the OR of its successors' reach
    and members; each member of component c reaches its popcount, plus all of
    c when c is cyclic (two or more members, or a self-loop). A component
    with one successor d whose bitset no branching component reads keeps no
    bitset: it reaches what d reaches plus d. So a tree costs memory linear
    in its node count; on other graphs a bitset holds at most one bit per
    node and is dropped after its last reader.
    """
    if not edges:
        return 0
    n = max(comp.values()) + 1
    size = [0] * n
    for c in comp.values():
        size[c] += 1
    succ: list[set[int]] = [set() for _ in range(n)]
    cyclic = [False] * n
    for u, v in edges:
        cu, cv = comp[u], comp[v]
        if cu == cv:
            cyclic[cu] = True
        else:
            succ[cu].add(cv)
    # readers[d]: components that OR d's bitset into their own, i.e. the
    # predecessors of d that branch or whose own bitset is read.
    readers = [0] * n
    for c in range(n - 1, -1, -1):
        if len(succ[c]) >= 2 or readers[c]:
            for d in succ[c]:
                readers[d] += 1
    reached = [0] * n  # nodes outside c that c's members reach
    closed: dict[int, int] = {}  # bitset of c's reach and members, while read
    total = offset = 0
    for c in range(n):
        targets = succ[c]
        if len(targets) >= 2 or readers[c]:
            reach = 0
            for d in targets:
                reach |= closed[d]
                readers[d] -= 1
                if not readers[d]:
                    del closed[d]
            reached[c] = reach.bit_count()
            if readers[c]:
                closed[c] = reach | ((1 << size[c]) - 1) << offset
        elif targets:
            (d,) = targets
            reached[c] = reached[d] + size[d]
        offset += size[c]
        total += size[c] * (reached[c] + (size[c] if cyclic[c] else 0))
    return total


def _scc_map(nodes, edges) -> dict[str, int]:
    """Tarjan's algorithm, iterative, over `nodes` and every edge endpoint.

    Component ids follow completion order, so every component a component
    reaches has a smaller id.
    """
    adj = _adjacency(edges)
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp: dict[str, int] = {}
    counter = 0
    n_comps = 0

    for root in chain(sorted(nodes), sorted(adj.keys() - nodes)):
        if root in index:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = n_comps
                    if w == v:
                        break
                n_comps += 1
    return comp


def build_class_hierarchy(o: Ontology) -> Hierarchy:
    """Edges from named-to-named SubClassOf plus mutual edges for all-named
    equivalences; axioms with any complex side contribute nothing."""
    edges: set[tuple[str, str]] = set()
    for ax in o.tbox:
        if isinstance(ax, SubClassOf):
            if isinstance(ax.sub, NamedClass) and isinstance(ax.sup, NamedClass):
                edges.add((ax.sub.iri, ax.sup.iri))
        elif isinstance(ax, EquivalentClasses):
            if all(isinstance(op, NamedClass) for op in ax.operands):
                names = [op.iri for op in ax.operands]
                for a in names:
                    for b in names:
                        if a != b:
                            edges.add((a, b))
    return Hierarchy(nodes=o.signature.classes, direct_edges=frozenset(edges))


def build_property_hierarchy(o: Ontology) -> Hierarchy:
    """Edges only from named-to-named SubObjectPropertyOf; chains and all
    characteristic axioms are ignored."""
    edges: set[tuple[str, str]] = set()
    for ax in o.rbox:
        if isinstance(ax, SubObjectPropertyOf) and not ax.is_chain:
            if isinstance(ax.sub, str) and isinstance(ax.sup, str):
                edges.add((ax.sub, ax.sup))
    return Hierarchy(nodes=o.signature.object_properties, direct_edges=frozenset(edges))


def max_depth(h: Hierarchy) -> int:
    """Longest path (in edges) through the condensation of the direct graph.

    Every edge between components leads to a smaller id (see `_scc_map`),
    so with the edges sorted by their source component each component's
    height is final before any edge reads it.
    """
    comp = h.scc_map
    n = len(comp)
    height = [0] * n
    for key in sorted(comp[child] * n + comp[parent] for child, parent in h.direct_edges):
        c, d = divmod(key, n)
        if c != d and height[d] >= height[c]:
            height[c] = height[d] + 1
    return max(height, default=0)


def fanout_stats(h: Hierarchy) -> tuple[int, float]:
    """(max direct children per node, direct edges divided by node count)."""
    if not h.nodes:
        return 0, 0.0
    children = h.children()
    msb = max((len(c) for c in children.values()), default=0)
    return msb, len(h.direct_edges) / len(h.nodes)


def tangledness(h: Hierarchy) -> tuple[int, int]:
    """(nodes with two or more direct parents, max direct-parent count)."""
    parents = h.parents()
    if not h.nodes:
        return 0, 0
    count = sum(1 for p in parents.values() if len(p) >= 2)
    max_parents = max((len(p) for p in parents.values()), default=0)
    return count, max_parents


def cyclic_classes(o: Ontology) -> frozenset[str]:
    """Named classes on an explicit definition cycle.

    A depends on B when B occurs anywhere in the defining sides of A's
    SubClassOf or EquivalentClasses axioms; cycles are self-loops or
    components of size two or more in that dependency graph.
    """
    deps = o.census.dependencies
    nodes = set(deps).union(*deps.values())
    edges = {(a, b) for a, targets in deps.items() for b in targets}
    comp = _scc_map(nodes, edges)
    sizes: dict[int, int] = defaultdict(int)
    for c in comp.values():
        sizes[c] += 1
    cyclic = {n for n in nodes if sizes[comp[n]] >= 2}
    cyclic |= {a for a, b in edges if a == b}
    return frozenset(cyclic)
