"""Asserted subsumption graphs and the quantities structural features use.

Hierarchies connect named entities only; complex expressions never become
nodes.  Depth is measured on the strongly-connected-component condensation,
so asserted cycles cannot make it unbounded.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import countOf, itemgetter

from .model import FrozenRecord, Ontology


class Hierarchy(FrozenRecord):
    """Direct child-to-parent subsumption edges over a fixed node set, with
    derived fields: the direct and indirect link counts `ndhc` and `nidhc`,
    the component id per node `scc_map`, `depth` (the longest path, in
    edges, through the condensation), `max_children` (most direct children
    of a node), `tangled` (nodes with two or more direct parents) and
    `max_parents` (most direct parents of a node)."""

    _fields = ("nodes", "direct_edges")

    def __init__(self, nodes: frozenset[str], direct_edges: frozenset[tuple[str, str]]):
        # Each per-node map is dropped once its counts are taken, so no two
        # are held at once.
        parents = Counter(map(itemgetter(0), direct_edges)).values()
        tangled, max_parents = len(parents) - countOf(parents, 1), max(parents, default=0)
        del parents
        children: dict[str, list[str]] = {}
        for u, v in direct_edges:
            children.setdefault(v, []).append(u)
        max_children = max(map(len, children.values()), default=0)
        comp, size = _scc_map(nodes, children)
        del children
        pairs, depth = _condensation_counts(direct_edges, comp, size)
        ndhc = len(direct_edges)
        vars(self).update(nodes=nodes, direct_edges=direct_edges, ndhc=ndhc, nidhc=pairs - ndhc,
                          scc_map=comp, depth=depth, max_children=max_children,
                          tangled=tangled, max_parents=max_parents)


def _condensation_counts(edges, comp: dict[str, int], size: list[int]) -> tuple[int, int]:
    """The number of (u, v) pairs with a directed path of length >= 1 from u
    to v, and the longest path (in edges) through the condensation.

    Counted on the condensation `comp`, with `size` members per component,
    from `_scc_map` without materializing the closure (Purdom 1970; Nuutila
    1995). Every component a component reaches has a smaller id, so one pass
    in ascending id order sees successors first. With the nodes laid out
    contiguously by component, a component's reach is a Python-int bitset,
    the OR of its successors' reach and members; each member of component c
    reaches its popcount, plus all of c when c is cyclic (two or more
    members, or a self-loop). A component with one successor d whose bitset
    no branching component reads keeps no bitset: it reaches what d reaches
    plus d. So a tree costs memory linear in its node count; on other graphs
    a bitset holds at most one bit per node and is dropped after its last
    reader. Heights come in the same pass.
    """
    if not edges:
        return 0, 0
    n = len(size)
    succ, cyclic = _successors(edges, comp, n)
    # readers[d]: components that OR d's bitset into their own, i.e. the
    # predecessors of d that branch or whose own bitset is read.
    readers = [0] * n
    for c in range(n - 1, -1, -1):
        targets = succ[c]
        if type(targets) is set:
            for d in targets:
                readers[d] += 1
        elif targets is not None and readers[c]:
            readers[targets] += 1
    reached, height = [0] * n, [0] * n  # reached: nodes outside c that c's members reach
    closed: dict[int, int] = {}  # bitset of c's reach and members, while read
    total = offset = 0
    for c in range(n):
        targets = succ[c]
        if type(targets) is set or readers[c]:
            if type(targets) is not set:
                targets = () if targets is None else (targets,)
            reach = 0
            for d in targets:
                reach |= closed[d]
                readers[d] -= 1
                if not readers[d]:
                    del closed[d]
                if height[d] >= height[c]:
                    height[c] = height[d] + 1
            reached[c] = reach.bit_count()
            if readers[c]:
                closed[c] = reach | ((1 << size[c]) - 1) << offset
        elif targets is not None:
            reached[c] = reached[targets] + size[targets]
            height[c] = height[targets] + 1
        offset += size[c]
        total += size[c] * (reached[c] + (size[c] if cyclic[c] else 0))
    return total, max(height)


def _successors(edges, comp: dict[str, int], n: int) -> tuple[list, list[bool]]:
    """Per component of `comp` (ids 0..n-1): its successors in the
    condensation of `edges`, and whether an edge stays inside it. The
    successors are None, one bare id, or a set once there are two distinct
    ones, so a taxonomy keeps no container per component."""
    succ: list = [None] * n
    cyclic = [False] * n
    for u, v in edges:
        cu, cv = comp[u], comp[v]
        if cu == cv:
            cyclic[cu] = True
            continue
        targets = succ[cu]
        if targets is None:
            succ[cu] = cv
        elif type(targets) is set:
            targets.add(cv)
        elif targets != cv:
            succ[cu] = {targets, cv}
    return succ, cyclic


def _components(roots, adj) -> list:
    """Tarjan's algorithm, iterative: the strongly connected components
    reachable from `roots` over the successor lists in `adj` (a node missing
    from it has none), each after every component it reaches. A component is
    a list of its members, or the bare node for a node without successors,
    which is a component at once and gets no frame; in a taxonomy most nodes
    are leaves."""
    num: dict = {}  # DFS number while on the stack, `done` after
    stack: list = []
    components: list = []
    done = float("inf")
    counter = 0
    work = [[None, iter(roots), -1]]  # node, successors, lowlink; the roots' frame first
    while True:
        frame = work[-1]
        v, it, low = frame
        for w in it:
            nw = num.get(w)
            if nw is None:
                successors = adj.get(w)
                if not successors:
                    num[w] = done
                    components.append(w)
                    continue
                num[w] = counter
                stack.append(w)
                frame[2] = low
                work.append([w, iter(successors), counter])
                counter += 1
                break
            if nw < low:
                low = nw
        else:
            if v is None:
                return components
            work.pop()
            if low < work[-1][2]:
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


def _scc_map(nodes, children) -> tuple[dict[str, int], list[int]]:
    """Component id per node, over `nodes` and every edge endpoint, such that
    every component a component reaches has a smaller id (nothing reads more),
    and the size of each component.

    Tarjan's algorithm runs over the parent-to-child lists, where it finishes
    a component after every component below it, so the ids are that order
    reversed. That holds for any visiting order, so the nodes are not sorted.
    A child is reached from its parent, so only parents join `nodes` as roots.
    """
    components = _components(chain(nodes, children), children)[::-1]
    comp: dict[str, int] = {}
    size = [1] * len(components)
    for c, members in enumerate(components):
        if type(members) is list:
            size[c] = len(members)
            for v in members:
                comp[v] = c
        else:
            comp[members] = c
    return comp, size


def build_class_hierarchy(o: Ontology) -> Hierarchy:
    """Edges from named-to-named SubClassOf plus mutual edges for all-named
    equivalences, as the census collects them; axioms with any complex side
    contribute nothing."""
    return Hierarchy(nodes=o.signature.classes, direct_edges=o.census.class_edges)


def build_property_hierarchy(o: Ontology) -> Hierarchy:
    """Edges only from named-to-named SubObjectPropertyOf, as the census
    collects them; chains and all characteristic axioms are ignored."""
    return Hierarchy(nodes=o.signature.object_properties, direct_edges=o.census.property_edges)


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
        # A bare node has no dependencies, so it is on no cycle.
        if type(members) is list and (len(members) > 1 or members[0] in deps[members[0]]):
            cyclic.update(members)
    return frozenset(cyclic)
