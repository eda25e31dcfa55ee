"""Asserted subsumption graphs and the quantities structural features use.

Hierarchies connect named entities only; complex expressions never become
nodes.  Depth is measured on the strongly-connected-component condensation,
so asserted cycles cannot make it unbounded.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain

from .model import FrozenRecord, Ontology


class Hierarchy(FrozenRecord):
    """Direct child-to-parent subsumption edges over a fixed node set, with
    the direct and indirect link counts and the SCC map derived from them."""

    _fields = ("nodes", "direct_edges")

    def __init__(self, nodes: frozenset[str], direct_edges: frozenset[tuple[str, str]]):
        comp = _scc_map(nodes, direct_edges)
        ndhc = len(direct_edges)
        vars(self).update(nodes=nodes, direct_edges=direct_edges, ndhc=ndhc, scc_map=comp,
                          nidhc=_count_reachable_pairs(direct_edges, comp) - ndhc)


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


def _components(roots, adj) -> list[list]:
    """Tarjan's algorithm, iterative: the strongly connected components
    reachable from `roots` over the successor lists in `adj` (a node missing
    from it has none), each after every component it reaches."""
    num: dict = {}  # DFS number while on the stack, `done` after
    stack: list = []
    components: list[list] = []
    done = float("inf")
    counter = 0
    for root in roots:
        if root in num:
            continue
        num[root] = counter
        stack.append(root)
        work = [[root, iter(adj.get(root, ())), counter]]  # node, successors, lowlink
        counter += 1
        while work:
            frame = work[-1]
            v, it, low = frame
            for w in it:
                nw = num.get(w)
                if nw is None:
                    num[w] = counter
                    stack.append(w)
                    frame[2] = low
                    work.append([w, iter(adj.get(w, ())), counter])
                    counter += 1
                    break
                if nw < low:
                    low = nw
            else:
                work.pop()
                if work and low < work[-1][2]:
                    work[-1][2] = low
                if low == num[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        num[w] = done
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


def _scc_map(nodes, edges) -> dict[str, int]:
    """Component id per node, over `nodes` and every edge endpoint.

    Ids follow completion order, so every component a component reaches has
    a smaller id. That holds for any visiting order, and nothing reads more
    of the ids, so the nodes are not sorted first.
    """
    adj = _adjacency(edges)
    roots = chain(nodes, adj.keys() - nodes)
    return {v: c for c, members in enumerate(_components(roots, adj)) for v in members}


def build_class_hierarchy(o: Ontology) -> Hierarchy:
    """Edges from named-to-named SubClassOf plus mutual edges for all-named
    equivalences, as the census collects them; axioms with any complex side
    contribute nothing."""
    return Hierarchy(nodes=o.signature.classes, direct_edges=o.census.class_edges)


def build_property_hierarchy(o: Ontology) -> Hierarchy:
    """Edges only from named-to-named SubObjectPropertyOf, as the census
    collects them; chains and all characteristic axioms are ignored."""
    return Hierarchy(nodes=o.signature.object_properties, direct_edges=o.census.property_edges)


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
    children = Counter(parent for _, parent in h.direct_edges)
    return max(children.values(), default=0), len(h.direct_edges) / len(h.nodes)


def tangledness(h: Hierarchy) -> tuple[int, int]:
    """(nodes with two or more direct parents, max direct-parent count)."""
    if not h.nodes:
        return 0, 0
    parents = Counter(child for child, _ in h.direct_edges).values()
    return sum(n >= 2 for n in parents), max(parents, default=0)


def cyclic_classes(o: Ontology) -> frozenset[str]:
    """Named classes on an explicit definition cycle.

    A depends on B when B occurs anywhere in the defining sides of A's
    SubClassOf or EquivalentClasses axioms; cycles are self-loops or
    components of size two or more in that dependency graph.
    """
    deps = o.census.dependencies
    # A class no definition mentions is on no cycle, so no search starts there.
    mentioned = set().union(*deps.values())
    cyclic: set[str] = set()
    for members in _components([a for a in deps if a in mentioned], deps):
        if len(members) > 1 or members[0] in deps.get(members[0], ()):
            cyclic.update(members)
    return frozenset(cyclic)
