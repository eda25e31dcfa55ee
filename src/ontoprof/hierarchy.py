"""Asserted subsumption graphs and the quantities structural features use.

Hierarchies connect named entities only; complex expressions never become
nodes.  Depth is measured on the strongly-connected-component condensation,
so asserted cycles cannot make it unbounded.

This is the one module that numbers names: `Hierarchy` numbers its edge
endpoints and nodes once, the edges become two array('i') columns of ids,
and whatever is kept per node or per component is a list indexed by id.
The census hands it IRI pairs as they were met, repeats and all.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import add, countOf, eq, floordiv, mod, mul, ne

from .model import FrozenRecord, Ontology


class Hierarchy(FrozenRecord):
    """Direct child-to-parent subsumption edges over a fixed node set, with
    derived fields: the direct and indirect link counts `ndhc` and `nidhc`,
    the component id per node `scc_map`, `depth` (the longest path, in
    edges, through the condensation), `max_children` (most direct children
    of a node), `tangled` (nodes with two or more direct parents) and
    `max_parents` (most direct parents of a node).

    `direct_edges` is any iterable of (sub, sup) name pairs; an endpoint
    need not be in `nodes`, and a repeated pair is one edge.  The endpoints
    are numbered in the order met, then the other nodes.  The hierarchy
    keeps the name per id, the edges and the component id per id, and the
    condensation's successors and cyclic flags for `cyclic_classes`;
    `direct_edges` and `scc_map` are spelled out by name when first read."""

    _fields = ("nodes", "direct_edges")

    def __init__(self, nodes: frozenset[str], direct_edges):
        # The id map, the sort keys, the parent counts and the child lists
        # are dropped once read.
        ends = list(chain.from_iterable(direct_edges))  # sub, sup, sub, sup, ...
        names = list(dict.fromkeys(chain(ends, nodes)))
        n = len(names)
        ids = array("i", map(dict(zip(names, count())).__getitem__, ends))
        del ends
        subs, sups = ids[::2], ids[1::2]
        del ids
        # Repeats are found by sorting one int key per edge, which takes less
        # memory than a set of them or of pairs.
        keys = sorted(map(add, map(mul, subs, repeat(n)), sups))
        if any(map(eq, keys, islice(keys, 1, None))):
            keys = array("q", compress(keys, map(ne, keys, chain((-1,), keys))))  # run starts
            subs = array("i", map(floordiv, keys, repeat(n)))
            sups = array("i", map(mod, keys, repeat(n)))
        del keys
        parents = [0] * n
        children: list = [None] * n  # per parent: None, one child id, or a list of them
        for u, v in zip(subs, sups):
            parents[u] += 1
            kids = children[v]
            if kids is None:
                children[v] = u
            elif type(kids) is list:
                kids.append(u)
            else:
                children[v] = [kids, u]
        tangled = n - countOf(parents, 0) - countOf(parents, 1)
        max_parents = max(parents, default=0)
        del parents
        max_children = max((len(kids) for kids in children if type(kids) is list),
                           default=1 if subs else 0)
        comp, size = _scc_map(children)
        del children
        succ, cyclic = _successors(subs, sups, comp, len(size))
        ndhc = len(subs)
        pairs, depth = _condensation_counts(succ, cyclic, size) if ndhc else (0, 0)
        vars(self).update(nodes=nodes, ndhc=ndhc, nidhc=pairs - ndhc, depth=depth,
                          max_children=max_children, tangled=tangled,
                          max_parents=max_parents, _names=names, _edges=(subs, sups),
                          _comp=comp, _succ=succ, _cyclic=cyclic)

    @cached_property
    def direct_edges(self) -> frozenset[tuple[str, str]]:
        name = self._names.__getitem__
        subs, sups = self._edges
        return frozenset(zip(map(name, subs), map(name, sups)))

    @cached_property
    def scc_map(self) -> dict[str, int]:
        """Component id per node, over `nodes` and every edge endpoint, such
        that every component a component reaches has a smaller id."""
        return dict(zip(self._names, self._comp))


def _condensation_counts(succ: list, cyclic: bytearray, size: list[int]) -> tuple[int, int]:
    """The number of (u, v) pairs with a directed path of length >= 1 from u
    to v, and the longest path (in edges) through the condensation.

    Counted on the condensation, as `_successors` gives it over the
    components of `_scc_map` with `size` members each, without materializing
    the closure (Purdom 1970; Nuutila 1995). Every component a component
    reaches has a smaller id, so one pass in ascending id order sees
    successors first. With the nodes laid out
    contiguously by component, a component's reach is a Python-int bitset,
    the OR of its successors' reach and members; each member of component c
    reaches its popcount, plus all of c when c is cyclic (two or more
    members, or a self-loop). A component with one successor d whose bitset
    no branching component reads keeps no bitset: it reaches what d reaches
    plus d. So a tree costs memory linear in its node count; on other graphs
    a bitset holds at most one bit per node and is dropped after its last
    reader. Heights come in the same pass.
    """
    n = len(size)
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


def _successors(subs, sups, comp: list[int], n: int) -> tuple[list, bytearray]:
    """Per component of `comp` (ids 0..n-1): its successors in the
    condensation of the edges `subs[i] -> sups[i]`, and whether an edge stays
    inside it. The successors are None, one bare id, or a set once there are
    two distinct ones, so a taxonomy keeps no container per component."""
    succ: list = [None] * n
    cyclic = bytearray(n)
    for u, v in zip(subs, sups):
        cu, cv = comp[u], comp[v]
        if cu == cv:
            cyclic[cu] = 1
            continue
        targets = succ[cu]
        if targets is None:
            succ[cu] = cv
        elif type(targets) is set:
            targets.add(cv)
        elif targets != cv:
            succ[cu] = {targets, cv}
    return succ, cyclic


def _components(roots, adj: list) -> list:
    """Tarjan's algorithm, iterative: the strongly connected components
    reachable from `roots` over the ids whose successors are `adj[v]`: None,
    one bare id, or a collection of ids. Each component comes after every
    component it reaches. A component is a list of its members, or the bare
    node for a node without successors, which is a component at once and
    gets no frame; in a taxonomy most nodes are leaves."""
    num: list = [None] * len(adj)  # DFS number while on the stack, `done` after
    stack: list = []
    components: list = []
    done = float("inf")
    counter = 0
    work = [[None, iter(roots), -1]]  # node, successors, lowlink; the roots' frame first
    while True:
        frame = work[-1]
        v, it, low = frame
        for w in it:
            nw = num[w]
            if nw is None:
                successors = adj[w]
                if successors is None:
                    num[w] = done
                    components.append(w)
                    continue
                num[w] = counter
                stack.append(w)
                frame[2] = low
                work.append([w, iter((successors,) if type(successors) is int else successors),
                             counter])
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


def _scc_map(children: list) -> tuple[list[int], list[int]]:
    """Component id per id, such that every component a component reaches
    has a smaller id (nothing reads more), and the size of each component.

    Tarjan's algorithm runs over the parent-to-child lists, where it
    finishes a component after every component below it, so the ids are
    that order reversed. That holds for any visiting order.
    """
    components = _components(range(len(children)), children)
    components.reverse()
    comp = [0] * len(children)
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
    return Hierarchy(o.signature.classes, zip(*o.census.class_edges))


def build_property_hierarchy(o: Ontology) -> Hierarchy:
    """Edges only from named-to-named SubObjectPropertyOf, as the census
    collects them; chains and all characteristic axioms are ignored."""
    return Hierarchy(o.signature.object_properties, zip(*o.census.property_edges))


def cyclic_classes(o: Ontology, ch: Hierarchy | None = None) -> frozenset[str]:
    """Named classes on an explicit definition cycle.

    A depends on B when B occurs anywhere in the defining sides of A's
    SubClassOf or EquivalentClasses axioms; cycles are self-loops or
    components of size two or more in that dependency graph.

    That graph is the class edges plus `census.dependencies`, so its cycles
    are read off `ch`, the class hierarchy of `o` (built here when not
    given). Contracting the hierarchy's components keeps the components of
    the whole graph (Cormen et al., Introduction to Algorithms, §22.5). So a
    class is on a cycle when its hierarchy component is cyclic, when a
    dependency stays inside that component, or when Tarjan's algorithm over
    the condensation, with the dependencies mapped onto component ids, puts
    it in one component with others.
    """
    if ch is None:
        ch = build_class_hierarchy(o)
    elif ch.nodes is not o.signature.classes:
        raise ValueError("cyclic_classes takes the class hierarchy of the same ontology")
    comp, succ = ch.scc_map, ch._succ
    cyclic = bytearray(ch._cyclic)
    extra = {}  # component -> the components its dependencies lead to
    for u, v in zip(*o.census.dependencies):
        cu, cv = comp[u], comp[v]
        if cu == cv:
            cyclic[cu] = 1  # a self-loop, or an edge inside a cyclic component
        else:
            extra.setdefault(cu, []).append(cv)
    if extra:
        adj = succ[:]
        for c, targets in extra.items():
            d = succ[c]
            if d is not None:
                targets.extend(d if type(d) is set else (d,))
            adj[c] = targets
        # A cycle that joins components takes a dependency, so it is found
        # from the dependencies' sources.
        for members in _components(extra, adj):
            if type(members) is list and len(members) > 1:
                for c in members:
                    cyclic[c] = 1
    return frozenset(name for name, c in comp.items() if cyclic[c])
