"""Hierarchy construction and graph quantities against hand-traced cases."""

import random

from ontoprof.hierarchy import (
    Hierarchy, build_class_hierarchy, build_property_hierarchy, cyclic_classes,
    fanout_stats, max_depth, tangledness,
)
from ontoprof.model import (
    EquivalentClasses, NamedClass, ObjectSomeValuesFrom, ObjectUnionOf,
    Ontology, PropertyChain, SubClassOf, SubObjectPropertyOf,
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
    assert max_depth(h) == 0
    assert fanout_stats(h) == (0, 0.0)
    assert tangledness(h) == (0, 0)


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
    assert max_depth(h) == 2


def test_max_depth_single_node():
    h = Hierarchy(nodes=frozenset({NS + "A"}), direct_edges=frozenset())
    assert max_depth(h) == 0


def test_max_depth_cycle_collapses():
    h = build_class_hierarchy(onto(SubClassOf(c("A"), c("B")),
                                   SubClassOf(c("B"), c("A")),
                                   SubClassOf(c("B"), c("C"))))
    assert max_depth(h) == 1


def test_fanout_examples():
    h = build_class_hierarchy(onto(SubClassOf(c("B"), c("A")),
                                   SubClassOf(c("C"), c("A")),
                                   SubClassOf(c("D"), c("A"))))
    assert fanout_stats(h) == (3, 3 / 4)
    chain = build_class_hierarchy(onto(SubClassOf(c("A"), c("B")),
                                       SubClassOf(c("B"), c("C"))))
    assert fanout_stats(chain) == (1, 2 / 3)


def test_tangledness_examples():
    h = build_class_hierarchy(onto(SubClassOf(c("A"), c("B")),
                                   SubClassOf(c("A"), c("C"))))
    assert tangledness(h) == (1, 2)
    tree = build_class_hierarchy(onto(SubClassOf(c("B"), c("A")),
                                      SubClassOf(c("C"), c("A"))))
    assert tangledness(tree) == (0, 1)
    h = build_class_hierarchy(onto(SubClassOf(c("A"), c("B")),
                                   SubClassOf(c("A"), c("C")),
                                   SubClassOf(c("A"), c("D")),
                                   SubClassOf(c("E"), c("B")),
                                   SubClassOf(c("E"), c("C"))))
    assert tangledness(h) == (2, 3)


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
        assert max_depth(h) == oracles.longest_condensation_path(h.nodes, h.direct_edges)


def test_cyclic_classes_matches_bruteforce_cycles():
    rng = random.Random(321)
    for _ in range(150):
        o = random_ontology(rng, max_axioms=15)
        nodes, edges = oracles.dependency_edges(o)
        assert cyclic_classes(o) == oracles.nodes_on_cycles(nodes, edges)


def test_tangledness_bounds_hold():
    rng = random.Random(654)
    for _ in range(200):
        o = random_ontology(rng, max_axioms=15)
        for h in (build_class_hierarchy(o), build_property_hierarchy(o)):
            count, max_parents = tangledness(h)
            assert count <= len(h.nodes)
            if h.ndhc >= 1:
                assert max_parents >= 1
            assert max_depth(h) >= 0  # finite on every input, cycles included


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
            assert max_depth(h) == longest


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
        assert max_depth(h) == max(depth)
        if window == 200:
            assert max(depth) >= 900
