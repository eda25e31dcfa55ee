"""Hierarchy construction and graph quantities against hand-traced cases."""

import random

import pytest

from ontoprof.features import extract_all
from ontoprof.hierarchy import (
    Hierarchy, build_class_hierarchy, build_property_hierarchy, cyclic_classes,
)
from ontoprof.model import (
    EquivalentClasses, NamedClass, ObjectIntersectionOf, ObjectSomeValuesFrom,
    ObjectUnionOf, Ontology, PropertyChain, SubClassOf, SubObjectPropertyOf,
    TransitiveObjectProperty,
)

import oracles
from gen import random_ontology

NS = "http://example.org/h#"


def c(name):
    return NamedClass(NS + name)


def onto(*axioms):
    return Ontology(axioms=tuple(axioms))


def test_chain_direct_and_indirect():
    h = build_class_hierarchy(onto(SubClassOf(c("Man"), c("Human")),
                                   SubClassOf(c("Human"), c("Animal"))))
    assert h.ndhc == 2
    assert h.nidhc == 1  # Man -> Animal


def test_empty_ontology_hierarchy():
    h = build_class_hierarchy(onto())
    assert h.ndhc == 0 and h.nidhc == 0
    assert h.depth == 0
    assert (h.max_children, h.tangled, h.max_parents) == (0, 0, 0)


def test_complex_superclass_contributes_no_edge():
    h = build_class_hierarchy(onto(SubClassOf(c("A"), ObjectUnionOf((c("B"), c("C"))))))
    assert h.ndhc == 0


def test_equivalence_gives_mutual_edges():
    h = build_class_hierarchy(onto(EquivalentClasses((c("A"), c("B")))))
    assert h.direct_edges == {(NS + "A", NS + "B"), (NS + "B", NS + "A")}
    # mutual edges make each node reach itself
    assert h.nidhc == 2


def test_property_hierarchy_rules():
    h = build_property_hierarchy(onto(SubObjectPropertyOf(NS + "hasDaughter",
                                                          NS + "hasChild")))
    assert h.ndhc == 1
    h = build_property_hierarchy(onto(TransitiveObjectProperty(NS + "ancestor")))
    assert h.ndhc == 0
    chain = SubObjectPropertyOf(PropertyChain((NS + "p", NS + "q")), NS + "r")
    assert build_property_hierarchy(onto(chain)).ndhc == 0


def test_max_depth_chain():
    h = build_class_hierarchy(onto(SubClassOf(c("A"), c("B")),
                                   SubClassOf(c("B"), c("C"))))
    assert h.depth == 2


def test_max_depth_single_node():
    h = Hierarchy(nodes=frozenset({NS + "A"}), direct_edges=frozenset())
    assert h.depth == 0


def test_max_depth_cycle_collapses():
    h = build_class_hierarchy(onto(SubClassOf(c("A"), c("B")),
                                   SubClassOf(c("B"), c("A")),
                                   SubClassOf(c("B"), c("C"))))
    assert h.depth == 1


def test_fanout_examples():
    v = extract_all(onto(SubClassOf(c("B"), c("A")),
                         SubClassOf(c("C"), c("A")),
                         SubClassOf(c("D"), c("A"))))
    assert (v["C_MSB"], v["C_ASB"]) == (3, 3 / 4)
    chain = extract_all(onto(SubClassOf(c("A"), c("B")),
                             SubClassOf(c("B"), c("C"))))
    assert (chain["C_MSB"], chain["C_ASB"]) == (1, 2 / 3)


def test_tangledness_examples():
    v = extract_all(onto(SubClassOf(c("A"), c("B")),
                         SubClassOf(c("A"), c("C"))))
    assert (v["C_Tangledness"], v["C_MTangledness"]) == (1, 2)
    tree = extract_all(onto(SubClassOf(c("B"), c("A")),
                            SubClassOf(c("C"), c("A"))))
    assert (tree["C_Tangledness"], tree["C_MTangledness"]) == (0, 1)
    v = extract_all(onto(SubClassOf(c("A"), c("B")),
                         SubClassOf(c("A"), c("C")),
                         SubClassOf(c("A"), c("D")),
                         SubClassOf(c("E"), c("B")),
                         SubClassOf(c("E"), c("C"))))
    assert (v["C_Tangledness"], v["C_MTangledness"]) == (2, 3)


def test_cyclic_classes_examples():
    o = onto(SubClassOf(c("C"), ObjectSomeValuesFrom(NS + "P", c("C"))))
    assert cyclic_classes(o) == {NS + "C"}
    assert cyclic_classes(onto(SubClassOf(c("Man"), c("Human")))) == frozenset()
    o = onto(EquivalentClasses((c("A"), ObjectSomeValuesFrom(NS + "r", c("B")))),
             EquivalentClasses((c("B"), ObjectSomeValuesFrom(NS + "s", c("A")))))
    assert cyclic_classes(o) == {NS + "A", NS + "B"}


def test_cyclic_classes_order_invariant():
    axioms = [
        SubClassOf(c("C"), ObjectSomeValuesFrom(NS + "P", c("C"))),
        EquivalentClasses((c("A"), ObjectSomeValuesFrom(NS + "r", c("B")))),
        EquivalentClasses((c("B"), ObjectSomeValuesFrom(NS + "s", c("A")))),
        SubClassOf(c("D"), c("E")),
    ]
    expected = cyclic_classes(Ontology(axioms=tuple(axioms)))
    rng = random.Random(5)
    for _ in range(10):
        rng.shuffle(axioms)
        assert cyclic_classes(Ontology(axioms=tuple(axioms))) == expected


def test_nidhc_matches_bruteforce_reachability():
    rng = random.Random(99)
    for _ in range(150):
        o = random_ontology(rng, max_axioms=15)
        for h in (build_class_hierarchy(o), build_property_hierarchy(o)):
            pairs = oracles.reachability(h.nodes, h.direct_edges)
            assert h.nidhc == len(pairs) - len(h.direct_edges)
            assert h.nidhc >= 0


def test_max_depth_matches_bruteforce_condensation():
    rng = random.Random(123)
    for _ in range(150):
        o = random_ontology(rng, max_axioms=12)
        h = build_class_hierarchy(o)
        assert h.depth == oracles.longest_condensation_path(h.nodes, h.direct_edges)


def test_cyclic_classes_matches_bruteforce_cycles():
    rng = random.Random(321)
    for _ in range(150):
        o = random_ontology(rng, max_axioms=15)
        nodes, edges = oracles.dependency_edges(o)
        assert cyclic_classes(o) == oracles.nodes_on_cycles(nodes, edges)
    rng = random.Random(322)
    for _ in range(300):
        o = random_ontology(rng, max_axioms=15, every_form=True)
        nodes, edges = oracles.dependency_edges(o)
        assert cyclic_classes(o) == oracles.nodes_on_cycles(nodes, edges)
        assert cyclic_classes(o, build_class_hierarchy(o)) == cyclic_classes(o)


def test_tangledness_bounds_hold():
    rng = random.Random(654)
    for _ in range(200):
        o = random_ontology(rng, max_axioms=15)
        for h in (build_class_hierarchy(o), build_property_hierarchy(o)):
            count, max_parents = h.tangled, h.max_parents
            assert count <= len(h.nodes)
            if h.ndhc >= 1:
                assert max_parents >= 1
            assert h.depth >= 0  # finite on every input, cycles included


def _motif_edges(rng, names):
    """Shapes random graphs rarely produce: a self-loop, a 2-cycle, and an
    SCC with a nested 2-cycle between a diamond below it and one above."""
    edges = set()
    if len(names) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(names, 2)
        edges |= {(a, b), (b, a)}
    if rng.random() < 0.5:
        a = rng.choice(names)
        edges.add((a, a))
    if len(names) >= 11 and rng.random() < 0.7:
        d0, d1, d2, s0, s1, s2, s3, u0, u1, u2, u3 = rng.sample(names, 11)
        edges |= {(d0, d1), (d0, d2), (d1, s0), (d2, s0)}
        edges |= {(s0, s1), (s1, s2), (s2, s3), (s3, s0), (s1, s0)}
        edges |= {(s2, u0), (u0, u1), (u0, u2), (u1, u3), (u2, u3)}
    return edges


def _random_digraph(rng):
    n = rng.randint(1, 60)
    names = [f"{NS}n{i}" for i in range(n)]
    shape = rng.choice(("tree", "forest", "sparse", "medium", "dense"))
    if shape in ("tree", "forest"):
        keep = 1.0 if shape == "tree" else 0.6  # a forest leaves isolated nodes
        edges = {(names[i], names[rng.randrange(i)]) for i in range(1, n)
                 if rng.random() < keep}
    else:
        p = {"sparse": 1.0 / n, "medium": 4.0 / n, "dense": rng.uniform(0.3, 0.9)}[shape]
        edges = {(a, b) for a in names for b in names if rng.random() < p}
    edges |= _motif_edges(rng, names)
    return names, frozenset(edges)


def test_nidhc_matches_bruteforce_on_random_digraphs():
    rng = random.Random(2024)
    for _ in range(400):
        names, edges = _random_digraph(rng)
        pairs = oracles.reachability(names, edges)
        longest = oracles.longest_condensation_path(names, edges)
        # Edge endpoints missing from the node set still count.
        for nodes in (frozenset(names), frozenset(rng.sample(names, len(names) // 2))):
            h = Hierarchy(nodes=nodes, direct_edges=edges)
            assert h.ndhc == len(edges)
            assert h.nidhc == len(pairs) - len(edges)
            assert h.depth == longest


def _seeded_tree(rng, n, window):
    """Child-to-parent edges of a tree whose node i hangs below one of the
    `window` nodes before it, with every node's depth."""
    parent = [rng.randrange(max(0, i - window), i) for i in range(1, n)]
    depth = [0] * n
    for i, p in enumerate(parent, start=1):
        depth[i] = depth[p] + 1
    names = [f"{NS}t{i}" for i in range(n)]
    edges = frozenset((names[i], names[p]) for i, p in enumerate(parent, start=1))
    return Hierarchy(nodes=frozenset(names), direct_edges=edges), depth


def test_hundred_thousand_node_trees():
    n = 100_000
    for window, seed in ((n, 1), (200, 2)):  # shallow random tree, ~1000 deep
        h, depth = _seeded_tree(random.Random(seed), n, window)
        assert h.ndhc == n - 1
        assert h.nidhc == sum(depth) - (n - 1)
        assert h.depth == max(depth)
        if window == 200:
            assert max(depth) >= 900


def _partition(groups) -> set[frozenset]:
    return {frozenset(members) for members in groups}


def _components_by_name(h) -> set[frozenset]:
    by_id: dict = {}
    for n, c in h.scc_map.items():
        by_id.setdefault(c, set()).add(n)
    return _partition(by_id.values())


def _assert_ids_order_the_condensation(h, pairs):
    """Ids cover the nodes and edge endpoints and run 0..k-1; every edge
    leads to an id no larger, equal exactly within one oracle SCC; and the
    components are the oracle's SCCs."""
    comp = h.scc_map
    names = h.nodes | {n for edge in h.direct_edges for n in edge}
    assert comp.keys() == names
    assert set(comp.values()) == set(range(max(comp.values(), default=-1) + 1))
    same = {n: {m for m in names if m == n or ((n, m) in pairs and (m, n) in pairs)}
            for n in names}
    for u, v in h.direct_edges:
        assert comp[u] >= comp[v]
        assert (comp[u] == comp[v]) == (v in same[u])
    assert _components_by_name(h) == _partition(same.values())


def test_component_ids_order_the_condensation_on_random_digraphs():
    rng = random.Random(77)
    for _ in range(300):
        names, edges = _random_digraph(rng)
        pairs = oracles.reachability(names, edges)
        for nodes in (frozenset(names), frozenset(rng.sample(names, len(names) // 2))):
            _assert_ids_order_the_condensation(Hierarchy(nodes=nodes, direct_edges=edges), pairs)


def test_repeated_pairs_and_endpoints_outside_the_nodes():
    """Any iterable of pairs, with repeats and with endpoints outside
    `nodes`, makes the hierarchy of its deduplicated frozenset."""
    rng = random.Random(31)
    for _ in range(200):
        names, edges = _random_digraph(rng)
        nodes = frozenset(rng.sample(names, len(names) // 2))
        pairs = [*edges, *edges, *rng.sample(sorted(edges), len(edges) // 2)]
        rng.shuffle(pairs)
        h, once = Hierarchy(nodes, iter(pairs)), Hierarchy(nodes, edges)
        assert h == once and h.direct_edges == edges and h.ndhc == len(edges)
        for field in ("nidhc", "depth", "tangled", "max_parents", "max_children"):
            assert getattr(h, field) == getattr(once, field), field
        assert h.scc_map.keys() == once.scc_map.keys()
        assert _components_by_name(h) == _components_by_name(once)


def _cycle_between_dags(rng):
    """A cycle (or a self-loop) with a random DAG above it, which it reaches,
    and one below it, which reaches it; some nodes of each side stay apart."""
    names = [f"{NS}m{i}" for i in range(rng.randint(3, 36))]
    rng.shuffle(names)
    k = rng.randint(1, min(5, len(names) - 2))
    cycle, rest = names[:k], names[k:]
    cut = rng.randint(1, len(rest) - 1)
    above, below = rest[:cut], rest[cut:]
    edges = {(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    for side in (above, below):  # each node under one or two earlier ones
        for i in range(1, len(side)):
            for _ in range(rng.choice((0, 1, 1, 2))):
                edges.add((side[i], side[rng.randrange(i)]))
    edges |= {(rng.choice(cycle), rng.choice(above)) for _ in range(rng.randint(1, 3))}
    edges |= {(rng.choice(below), rng.choice(cycle)) for _ in range(rng.randint(1, 3))}
    return names, frozenset(edges)


def test_acyclic_parts_above_and_below_a_cycle():
    hand = frozenset({("b0", "b1"), ("b1", "c0"), ("b2", "c0"), ("c0", "c1"), ("c1", "c2"),
                      ("c2", "c0"), ("c1", "a0"), ("a0", "a1"), ("a0", "a2"), ("a2", "a3"),
                      ("a1", "a3")})
    names = sorted({n for e in hand for n in e})
    h = Hierarchy(nodes=frozenset(names), direct_edges=hand)
    assert h.depth == 5  # b0 b1 {c0 c1 c2} a0 a1 a3
    assert h.nidhc == len(oracles.reachability(names, hand)) - len(hand)
    rng = random.Random(4242)
    for _ in range(200):
        names, edges = _cycle_between_dags(rng)
        pairs = oracles.reachability(names, edges)
        h = Hierarchy(nodes=frozenset(names), direct_edges=edges)
        _assert_ids_order_the_condensation(h, pairs)
        assert h.nidhc == len(pairs) - len(edges)
        assert h.depth == oracles.longest_condensation_path(names, edges)
        most_children, most_parents, tangled = oracles.fanout_and_tangledness(names, edges)
        assert (h.max_children, h.ndhc / len(h.nodes)) == (most_children, len(edges) / len(names))
        assert (h.tangled, h.max_parents) == (tangled, most_parents)


def _chain_closed_at_top(n, k):
    """t0 -> t1 -> ... -> t(n-1), with an edge from the top back to t(n-k):
    the top k nodes form a cycle that every other node reaches."""
    names = [f"{NS}t{i}" for i in range(n)]
    edges = {(names[i], names[i + 1]) for i in range(n - 1)} | {(names[-1], names[n - k])}
    return names, frozenset(edges)


def _chain_closed_at_top_counts(n, k):
    """(nidhc, max depth): node i below the cycle reaches the n - 1 - i nodes
    above it, each cycle node reaches all k, and the condensation is a path
    of n - k edges."""
    pairs = n * (n - 1) // 2 - k * (k - 1) // 2 + k * k
    return pairs - n, n - k


def test_hundred_thousand_node_chain_closed_into_a_cycle_at_its_top():
    for n, k in ((2, 1), (7, 3), (12, 12), (30, 5)):  # the closed form against the oracle
        names, edges = _chain_closed_at_top(n, k)
        pairs = oracles.reachability(names, edges)
        longest = oracles.longest_condensation_path(names, edges)
        assert _chain_closed_at_top_counts(n, k) == (len(pairs) - len(edges), longest)
    names, edges = _chain_closed_at_top(100_000, 5)
    h = Hierarchy(nodes=frozenset(names), direct_edges=edges)
    assert h.ndhc == 100_000
    assert (h.nidhc, h.depth) == _chain_closed_at_top_counts(100_000, 5)
    assert len(set(h.scc_map.values())) == 100_000 - 5 + 1


def _compact_successors(names, edges):
    """The hierarchy over `edges` checked against the oracles, with its
    component ids by member name, and the successors and cyclic flags that
    `_successors` gave it per component id."""
    h = Hierarchy(nodes=frozenset(names), direct_edges=frozenset(edges))
    pairs = oracles.reachability(names, h.direct_edges)
    _assert_ids_order_the_condensation(h, pairs)
    assert h.nidhc == len(pairs) - len(h.direct_edges)
    assert h.depth == oracles.longest_condensation_path(names, h.direct_edges)
    return h.scc_map, h._succ, h._cyclic


def test_a_cycle_with_many_edges_into_one_parent_keeps_one_id():
    cycle = [("c0", "c1"), ("c1", "c2"), ("c2", "c0")]
    comp, succ, cyclic = _compact_successors(
        ["c0", "c1", "c2", "p", "q"], cycle + [("c0", "p"), ("c1", "p"), ("c2", "p"), ("p", "q")])
    assert succ[comp["c0"]] == comp["p"] and type(succ[comp["c0"]]) is int
    assert succ[comp["p"]] == comp["q"]
    assert succ[comp["q"]] is None
    assert cyclic[comp["c0"]] and not cyclic[comp["p"]]


def test_successors_grow_from_one_id_to_a_set():
    edges = [("x", "y"), ("y", "x"), ("x", "a"), ("y", "a"), ("y", "b"), ("a", "b"), ("t", "a")]
    comp, succ, _ = _compact_successors(["x", "y", "a", "b", "t"], edges)
    assert succ[comp["x"]] == {comp["a"], comp["b"]}
    assert succ[comp["t"]] == comp["a"] and succ[comp["a"]] == comp["b"]


def test_self_loop_and_chain_closed_into_a_cycle_in_the_compact_successors():
    comp, succ, cyclic = _compact_successors(["a", "b"], [("a", "a"), ("a", "b")])
    assert cyclic[comp["a"]] and not cyclic[comp["b"]]
    assert succ[comp["a"]] == comp["b"] and comp["a"] != comp["b"]
    names, edges = _chain_closed_at_top(6, 3)
    comp, succ, cyclic = _compact_successors(names, edges)
    top = comp[names[-1]]
    assert {comp[n] for n in names[3:]} == {top} and cyclic[top] and succ[top] is None
    for i in range(3):
        assert succ[comp[names[i]]] == comp[names[i + 1]] and not cyclic[comp[names[i]]]


def _cyclic_against_the_oracle(*axioms):
    o = onto(*axioms)
    nodes, edges = oracles.dependency_edges(o)
    assert cyclic_classes(o) == oracles.nodes_on_cycles(nodes, edges)
    return o


A, B, C, D = NS + "A", NS + "B", NS + "C", NS + "D"


def test_cyclic_classes_over_dependency_lists_with_repeats():
    twice = SubClassOf(c("A"), c("B"))
    o = _cyclic_against_the_oracle(twice, twice)
    assert o.census.class_edges == ([A, A], [B, B])  # kept twice
    assert o.census.dependencies == ([], [])  # a named edge is no dependency
    h = build_class_hierarchy(o)
    assert h.direct_edges == {(A, B)} and h.ndhc == 1  # counted once
    assert cyclic_classes(o) == frozenset()
    defined = EquivalentClasses((c("A"), ObjectIntersectionOf(
        (c("B"), ObjectSomeValuesFrom(NS + "r", c("B"))))))
    o = _cyclic_against_the_oracle(defined)
    assert o.census.dependencies == ([A, A], [B, B])  # kept twice
    assert cyclic_classes(o) == frozenset()
    o = _cyclic_against_the_oracle(defined, SubClassOf(c("B"), c("A")), twice)
    assert o.census.class_edges == ([B, A], [A, B])
    assert o.census.dependencies == ([A, A], [B, B])
    assert cyclic_classes(o) == {A, B}
    some = SubClassOf(c("C"), ObjectSomeValuesFrom(NS + "r", c("C")))
    o = _cyclic_against_the_oracle(some, some)
    assert o.census.dependencies == ([C, C], [C, C])
    assert cyclic_classes(o) == {C}


def test_cyclic_classes_self_subclass():
    o = _cyclic_against_the_oracle(SubClassOf(c("A"), c("A")), SubClassOf(c("B"), c("A")))
    assert o.census.class_edges == ([A, B], [A, A])
    assert o.census.dependencies == ([], [])
    assert cyclic_classes(o) == {A}
    o = _cyclic_against_the_oracle(EquivalentClasses((c("D"), c("D"))))
    assert o.census.class_edges == ([], [])  # the self-loop is only a dependency
    assert o.census.dependencies == ([D, D], [D, D])  # per operand
    assert cyclic_classes(o) == {D}


def some(prop, filler):
    return ObjectSomeValuesFrom(NS + prop, filler)


def test_cyclic_classes_cases_against_the_oracle():
    o = _cyclic_against_the_oracle(EquivalentClasses((c("A"), c("A"))))
    assert cyclic_classes(o) == {NS + "A"}
    # Named and complex operands: the named partners depend on each other,
    # though no hierarchy edge joins them.
    o = _cyclic_against_the_oracle(EquivalentClasses((c("A"), c("B"), some("r", c("C")))))
    assert build_class_hierarchy(o).ndhc == 0
    assert cyclic_classes(o) == {NS + "A", NS + "B"}
    o = _cyclic_against_the_oracle(EquivalentClasses((c("A"), some("r", c("A")))))
    assert cyclic_classes(o) == {NS + "A"}
    # Only through complex definitions.
    o = _cyclic_against_the_oracle(
        SubClassOf(c("A"), some("r", c("B"))),
        SubClassOf(c("B"), ObjectUnionOf((c("C"), c("E")))),
        EquivalentClasses((c("C"), ObjectIntersectionOf((c("D"), some("s", c("A")))))))
    assert cyclic_classes(o) == {NS + "A", NS + "B", NS + "C"}
    # Two such cycles that do not reach each other, each after a class that
    # reaches neither.
    o = _cyclic_against_the_oracle(
        SubClassOf(c("X"), some("r", c("Y"))),
        SubClassOf(c("A"), some("r", c("B"))), SubClassOf(c("B"), some("r", c("A"))),
        SubClassOf(c("Z"), some("r", c("Y"))),
        SubClassOf(c("C"), some("r", c("D"))), SubClassOf(c("D"), some("r", c("C"))))
    assert cyclic_classes(o) == {NS + "A", NS + "B", NS + "C", NS + "D"}
    # Only through named edges.
    o = _cyclic_against_the_oracle(SubClassOf(c("A"), c("B")), SubClassOf(c("B"), c("C")),
                                   SubClassOf(c("C"), c("A")), SubClassOf(c("C"), c("D")),
                                   SubClassOf(c("E"), some("r", c("A"))))
    assert cyclic_classes(o) == {NS + "A", NS + "B", NS + "C"}
    # A mix: a named chain closed by a complex definition, and a named
    # equivalence beside it.
    o = _cyclic_against_the_oracle(SubClassOf(c("A"), c("B")), SubClassOf(c("B"), c("C")),
                                   SubClassOf(c("C"), some("r", c("A"))),
                                   EquivalentClasses((c("D"), c("E"))),
                                   SubClassOf(c("E"), some("r", c("A"))))
    assert cyclic_classes(o) == {NS + "A", NS + "B", NS + "C", NS + "D", NS + "E"}


def test_cyclic_classes_join_hierarchy_components():
    """Two cyclic components of the class hierarchy, joined into one by two
    dependencies, and classes around them that stay off every cycle."""
    o = _cyclic_against_the_oracle(
        SubClassOf(c("A"), c("B")), SubClassOf(c("B"), c("A")),
        SubClassOf(c("C"), c("D")), SubClassOf(c("D"), c("C")),
        SubClassOf(c("B"), some("r", c("C"))), SubClassOf(c("D"), some("s", c("A"))),
        SubClassOf(c("E"), c("A")), SubClassOf(c("A"), some("r", c("F"))),
        SubClassOf(c("G"), some("r", c("H"))), SubClassOf(c("H"), c("I")))
    comp = build_class_hierarchy(o).scc_map
    assert comp[NS + "A"] == comp[NS + "B"] != comp[NS + "C"] == comp[NS + "D"]
    assert cyclic_classes(o) == {NS + "A", NS + "B", NS + "C", NS + "D"}
    # The same, with the second component acyclic in the hierarchy: the
    # dependencies alone close the cycle through it.
    o = _cyclic_against_the_oracle(
        SubClassOf(c("A"), c("B")), SubClassOf(c("B"), c("A")), SubClassOf(c("C"), c("D")),
        SubClassOf(c("B"), some("r", c("C"))), SubClassOf(c("D"), some("s", c("A"))))
    assert cyclic_classes(o) == {NS + "A", NS + "B", NS + "C", NS + "D"}


def test_cyclic_classes_takes_only_its_own_class_hierarchy():
    o = onto(SubClassOf(c("A"), some("r", c("A"))))
    other = onto(SubClassOf(c("A"), some("r", c("A"))))
    assert cyclic_classes(o, build_class_hierarchy(o)) == {NS + "A"}
    for wrong in (build_class_hierarchy(other), build_property_hierarchy(o)):
        with pytest.raises(ValueError):
            cyclic_classes(o, wrong)
