"""Model semantics: node equality and immutability, categorization, depth and
constructor counts through the census, signature."""

import copy
import pickle

import pytest

from ontoprof.model import (
    _CHARACTERISTIC_STEMS, NODES, XSD,
    Category, ClassAssertion, ClassExpression, DataIntersectionOf, DataOneOf, DataRestriction,
    DataUnionOf, DatatypeRef, Declaration, DifferentIndividuals, DisjointClasses,
    DisjointUnion, Entity, EntityKind, EquivalentClasses, HasKey, Literal, NamedClass,
    ObjectAllValuesFrom, ObjectComplementOf, ObjectExactCardinality, ObjectHasSelf, ObjectIntersectionOf,
    ObjectMaxCardinality, ObjectMinCardinality, ObjectOneOf, ObjectSomeValuesFrom,
    ObjectUnionOf, Ontology, PropertyChain, SameIndividual, SubClassOf,
    TransitiveObjectProperty, axiom_category, class_expressions_of, iter_nodes,
)
from ontoprof.schema import CLASS_CONSTRUCTORS, LOGICAL_AXIOM_TYPES, PROPERTY_CHARACTERISTICS

import oracles

NS = "http://example.org/m#"


def c(name):
    return NamedClass(NS + name)


def test_frozen_enumerations():
    assert len(CLASS_CONSTRUCTORS) == 11
    assert len(LOGICAL_AXIOM_TYPES) == 32
    assert len(set(LOGICAL_AXIOM_TYPES)) == 32


def test_the_catalogue_names_the_node_types():
    """`schema` states these names without the model; they must match it."""
    logical = (Category.TBOX, Category.RBOX, Category.ABOX)
    assert sorted(LOGICAL_AXIOM_TYPES) == sorted(
        spec.name for spec in NODES.values() if spec.category in logical)
    assert sorted(CLASS_CONSTRUCTORS) == sorted(
        spec.name for t, spec in NODES.items() if issubclass(t, ClassExpression)
        and spec.name not in ("NamedClass", "DataRestriction"))
    assert [t.__name__ for t in _CHARACTERISTIC_STEMS] == [
        f"{c}ObjectProperty" for c in PROPERTY_CHARACTERISTICS[:7]]
    assert list(_CHARACTERISTIC_STEMS.values()) == list(PROPERTY_CHARACTERISTICS[:7])


@pytest.mark.parametrize("axiom,category", [
    (SubClassOf(c("Man"), c("Human")), Category.TBOX),
    (TransitiveObjectProperty(NS + "ancestor"), Category.RBOX),
    (ClassAssertion(c("Human"), NS + "Peter"), Category.ABOX),
    (Declaration(Entity(NS + "Man", EntityKind.CLASS)), Category.NON_LOGICAL),
])
def test_axiom_category_examples(axiom, category):
    assert axiom_category(axiom) is category


def test_axiom_category_total_over_all_logical_types():
    # Every one of the 32 logical types lands in TBox, RBox or ABox.
    names = {"TBox": 0, "RBox": 0, "ABox": 0}
    from gen import Vocabulary, random_axiom
    import random
    rng = random.Random(7)
    vocab = Vocabulary(rng)
    seen = set()
    for _ in range(3000):
        ax = random_axiom(rng, vocab)
        cat = axiom_category(ax)
        assert cat is not None
        if cat is not Category.NON_LOGICAL:
            names[cat.value] += 1
            seen.add(ax.axiom_type)
    assert all(v > 0 for v in names.values())
    assert seen <= set(LOGICAL_AXIOM_TYPES)


def census_of(*axioms):
    return Ontology(axioms=axioms).census


def expression_depth(e):
    """The census depth of `e` as the superclass of a one-axiom ontology."""
    return census_of(SubClassOf(c("X"), e)).depth_max


def test_expression_depth_examples():
    assert expression_depth(c("Human")) == 0
    assert expression_depth(ObjectSomeValuesFrom(NS + "r", c("C"))) == 1
    nested = ObjectIntersectionOf((
        c("A"), ObjectAllValuesFrom(NS + "r", ObjectUnionOf((c("B"), c("C"))))))
    # One level per constructor on the deepest path: intersection, universal,
    # union.
    assert expression_depth(nested) == 3
    assert oracles.expr_depth(nested) == 3


def test_expression_depth_zero_iff_named():
    assert expression_depth(ObjectMinCardinality(2, NS + "r")) == 1
    assert expression_depth(DataRestriction(kind="DataHasValue", props=(NS + "d",))) == 1


def test_axiom_depth_over_operands():
    ax = SubClassOf(c("A"), ObjectSomeValuesFrom(NS + "r",
                                                 ObjectSomeValuesFrom(NS + "r", c("B"))))
    assert census_of(ax).depth_max == oracles.axiom_depth(ax) == 2
    ax = TransitiveObjectProperty(NS + "r")
    assert census_of(ax).depth_max == oracles.axiom_depth(ax) == 0


def test_count_constructor_occurrences_examples():
    ax = SubClassOf(c("A"), ObjectIntersectionOf(
        (c("B"), ObjectIntersectionOf((c("C"), c("D"))))))
    assert census_of(ax).constructors["ObjectIntersectionOf"] == 2
    plain = census_of(SubClassOf(c("A"), c("B")))
    for constructor in CLASS_CONSTRUCTORS:
        assert plain.constructors[constructor] == 0
    equiv = EquivalentClasses((c("Man"), ObjectIntersectionOf((c("Human"), c("Male")))))
    assert census_of(equiv).constructors["ObjectIntersectionOf"] == 1


def test_constructor_sum_equals_non_leaf_non_data_nodes():
    ax = SubClassOf(
        ObjectUnionOf((c("A"), DataRestriction(kind="DataHasValue", props=(NS + "d",)))),
        ObjectIntersectionOf((c("B"), ObjectSomeValuesFrom(NS + "r", c("C")))))
    counts = census_of(ax).constructors
    total = sum(counts[cc] for cc in CLASS_CONSTRUCTORS)
    nodes = [n for top in class_expressions_of(ax) for n in iter_nodes(top)]
    non_leaf = [n for n in nodes
                if not isinstance(n, (NamedClass, DataRestriction))]
    assert total == len(non_leaf) == 3


def test_signature_closure_and_partition():
    axioms = (
        SubClassOf(c("A"), c("B")),
        TransitiveObjectProperty(NS + "r"),
        ClassAssertion(c("A"), NS + "i"),
        Declaration(Entity(NS + "Lonely", EntityKind.CLASS)),
    )
    o = Ontology(axioms=axioms)
    sig = o.signature
    assert {NS + "A", NS + "B", NS + "Lonely"} <= sig.classes
    assert NS + "r" in sig.object_properties
    assert NS + "i" in sig.individuals
    assert len(o.tbox) + len(o.rbox) + len(o.abox) == o.logical_axiom_count == 3
    assert len(o.axioms) == 4
    assert o.non_logical == (axioms[3],)


def test_arity_validation():
    with pytest.raises(ValueError):
        ObjectIntersectionOf((c("A"),))
    with pytest.raises(ValueError):
        ObjectMinCardinality(-1, NS + "r")
    with pytest.raises(ValueError):
        EquivalentClasses((c("A"),))


def test_constructor_sum_invariant_random():
    import random
    from gen import Vocabulary, random_axiom

    rng = random.Random(31)
    vocab = Vocabulary(rng)
    for _ in range(500):
        ax = random_axiom(rng, vocab)
        census = census_of(ax)
        assert census.depth_max == oracles.axiom_depth(ax)
        counted = {cc: oracles.constructor_count(ax, cc) for cc in CLASS_CONSTRUCTORS}
        if axiom_category(ax) is Category.TBOX:
            assert all(census.constructors[cc] == n for cc, n in counted.items())
        else:  # outside the TBox the census keeps which tags occur, not how often
            assert {cc for cc, n in counted.items() if n} <= census.tags
        nodes = [n for top in class_expressions_of(ax) for n in iter_nodes(top)]
        non_leaf = sum(1 for n in nodes
                       if not isinstance(n, (NamedClass, DataRestriction)))
        assert sum(counted.values()) == non_leaf


# ---------------------------------------------------------------------------
# Node semantics: nodes are tuples of their fields, typed for equality.

A, B = c("A"), c("B")
SAME_FIELD_PAIRS = [
    (ObjectSomeValuesFrom(NS + "r", A), ObjectAllValuesFrom(NS + "r", A)),
    (ObjectIntersectionOf((A, B)), ObjectUnionOf((A, B))),
    (DataIntersectionOf((DatatypeRef(XSD + "int"), DatatypeRef(XSD + "string"))),
     DataUnionOf((DatatypeRef(XSD + "int"), DatatypeRef(XSD + "string")))),
    (EquivalentClasses((A, B)), DisjointClasses((A, B))),
    (ObjectMinCardinality(2, NS + "r", A), ObjectMaxCardinality(2, NS + "r", A)),
    (ObjectMaxCardinality(2, NS + "r"), ObjectExactCardinality(2, NS + "r")),
    (ObjectMinCardinality(2, NS + "r"), ObjectExactCardinality(2, NS + "r")),
]


@pytest.mark.parametrize("left,right", SAME_FIELD_PAIRS,
                         ids=[type(a).__name__ + "-" + type(b).__name__
                              for a, b in SAME_FIELD_PAIRS])
def test_same_fields_of_different_types_differ(left, right):
    assert tuple(left) == tuple(right)
    assert left != right and not left == right
    assert hash(left) != hash(right)
    assert len({left, right}) == 2
    again = type(left)(*left)
    assert again == left and hash(again) == hash(left)
    assert left != tuple(left) and tuple(left) != left


def test_deep_chains_compare_within_the_recursion_limit():
    def chain(leaf, depth=2000):
        for _ in range(depth):
            leaf = ObjectComplementOf(leaf)
        return leaf

    assert chain(c("A")) == chain(c("A"))  # equal leaves, no node shared
    assert chain(c("A")) != chain(c("B"))
    assert not chain(c("A")) == chain(c("B"))
    assert ObjectUnionOf((A, chain(c("A")))) == ObjectUnionOf((A, chain(c("A"))))
    assert ObjectUnionOf((A, chain(c("A")))) != ObjectUnionOf((A, chain(c("B"))))


def test_nodes_are_immutable_and_have_no_dict():
    node = ObjectSomeValuesFrom(NS + "r", A)
    with pytest.raises(AttributeError):
        node.prop = NS + "s"
    with pytest.raises(AttributeError):
        node.extra = 1
    assert not hasattr(node, "__dict__")
    assert node.prop == NS + "r" and node.filler is A
    assert pickle.loads(pickle.dumps(node)) == node
    assert copy.deepcopy(node) == node


@pytest.mark.parametrize("build", [
    lambda: ObjectIntersectionOf((A,)),
    lambda: ObjectUnionOf(()),
    lambda: ObjectOneOf(()),
    lambda: ObjectMinCardinality(-1, NS + "r"),
    lambda: ObjectExactCardinality(-2, NS + "r", A),
    lambda: EquivalentClasses((A,)),
    lambda: DisjointClasses((A,)),
    lambda: DisjointUnion(NS + "U", (A,)),
    lambda: SameIndividual((NS + "i",)),
    lambda: DifferentIndividuals(()),
    lambda: PropertyChain((NS + "p",)),
    lambda: DataIntersectionOf((DatatypeRef(XSD + "int"),)),
    lambda: DataOneOf(()),
    lambda: HasKey(A, (), ()),
    lambda: Entity("", EntityKind.CLASS),
])
def test_arity_violations_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_keyword_and_default_construction():
    assert Literal("x") == Literal("x", None, None) == Literal(lexical="x")
    assert Literal("x", language="en").datatype is None
    restriction = DataRestriction(kind="DataHasValue", props=(NS + "d",))
    assert (restriction.range, restriction.value, restriction.n) == (None, None, None)
    assert ObjectMinCardinality(2, NS + "r") == ObjectMinCardinality(n=2, prop=NS + "r",
                                                                     filler=None)
    assert SubClassOf(sup=B, sub=A) == SubClassOf(A, B)
    assert repr(SubClassOf(A, B)) == (f"SubClassOf(sub=NamedClass(iri='{NS}A'), "
                                      f"sup=NamedClass(iri='{NS}B'))")
    with pytest.raises(TypeError):
        SubClassOf(A)
    with pytest.raises(TypeError):
        SubClassOf(A, B, C=A)
    with pytest.raises(TypeError):
        SubClassOf(A, B, sub=A)
    with pytest.raises(TypeError):
        ObjectHasSelf(NS + "r", NS + "s")


# Every keyword of the OWL 2 functional syntax the parser reads, hand-listed.
OWL_KEYWORDS = {
    "ObjectIntersectionOf", "ObjectUnionOf", "ObjectComplementOf", "ObjectOneOf",
    "ObjectSomeValuesFrom", "ObjectAllValuesFrom", "ObjectHasValue", "ObjectHasSelf",
    "ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality",
    "DataSomeValuesFrom", "DataAllValuesFrom", "DataHasValue", "DataMinCardinality",
    "DataMaxCardinality", "DataExactCardinality",
    "DataIntersectionOf", "DataUnionOf", "DataComplementOf", "DataOneOf",
    "DatatypeRestriction", "ObjectInverseOf", "ObjectPropertyChain",
    "Class", "Datatype", "ObjectProperty", "DataProperty", "AnnotationProperty",
    "NamedIndividual", "Annotation",
    *LOGICAL_AXIOM_TYPES, "Declaration", "AnnotationAssertion", "SubAnnotationPropertyOf",
    "AnnotationPropertyDomain", "AnnotationPropertyRange",
}


def test_every_keyword_has_one_table_entry():
    from ontoprof import parser

    keywords = [kw for spec in NODES.values() for kw in spec.forms]
    assert len(keywords) == len(set(keywords))
    assert set(keywords) == OWL_KEYWORDS
    parsed = (set(parser._CE_FORMS) | set(parser._DATA_RANGE_FORMS)
              | set(parser._AXIOM_FORMS) | set(parser._ENTITY_FORMS)
              | {"ObjectInverseOf", "ObjectPropertyChain", "Annotation"})
    assert parsed == OWL_KEYWORDS
