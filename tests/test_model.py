"""Model semantics: node equality and immutability, categorization, depth,
constructor counting, signature."""

import copy
import pickle

import pytest

from ontoprof.model import (
    CLASS_CONSTRUCTORS, LOGICAL_AXIOM_TYPES, NODES, XSD,
    Category, ClassAssertion, DataIntersectionOf, DataOneOf, DataRestriction,
    DataUnionOf, DatatypeRef, Declaration, DifferentIndividuals, DisjointClasses,
    DisjointUnion, Entity, EntityKind, EquivalentClasses, HasKey, Literal, NamedClass,
    ObjectAllValuesFrom, ObjectExactCardinality, ObjectHasSelf, ObjectIntersectionOf,
    ObjectMaxCardinality, ObjectMinCardinality, ObjectOneOf, ObjectSomeValuesFrom,
    ObjectUnionOf, Ontology, PropertyChain, SameIndividual, SubClassOf,
    TransitiveObjectProperty, axiom_category, axiom_depth, constructor_counts,
    count_constructor_occurrences, expression_depth, iter_nodes, class_expressions_of,
)

NS = "http://example.org/m#"


def c(name):
    return NamedClass(NS + name)


def test_frozen_enumerations():
    assert len(CLASS_CONSTRUCTORS) == 11
    assert len(LOGICAL_AXIOM_TYPES) == 32
    assert len(set(LOGICAL_AXIOM_TYPES)) == 32


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


def test_expression_depth_examples():
    assert expression_depth(c("Human")) == 0
    assert expression_depth(ObjectSomeValuesFrom(NS + "r", c("C"))) == 1
    nested = ObjectIntersectionOf((
        c("A"), ObjectAllValuesFrom(NS + "r", ObjectUnionOf((c("B"), c("C"))))))
    # One level per constructor on the deepest path: intersection, universal,
    # union.
    assert expression_depth(nested) == 3


def test_expression_depth_zero_iff_named():
    assert expression_depth(ObjectMinCardinality(2, NS + "r")) == 1
    assert expression_depth(DataRestriction(kind="DataHasValue", props=(NS + "d",))) == 1


def test_axiom_depth_over_operands():
    ax = SubClassOf(c("A"), ObjectSomeValuesFrom(NS + "r",
                                                 ObjectSomeValuesFrom(NS + "r", c("B"))))
    assert axiom_depth(ax) == 2
    assert axiom_depth(TransitiveObjectProperty(NS + "r")) == 0


def test_count_constructor_occurrences_examples():
    ax = SubClassOf(c("A"), ObjectIntersectionOf(
        (c("B"), ObjectIntersectionOf((c("C"), c("D"))))))
    assert count_constructor_occurrences(ax, "ObjectIntersectionOf") == 2
    plain = SubClassOf(c("A"), c("B"))
    for constructor in CLASS_CONSTRUCTORS:
        assert count_constructor_occurrences(plain, constructor) == 0
    equiv = EquivalentClasses((c("Man"), ObjectIntersectionOf((c("Human"), c("Male")))))
    assert count_constructor_occurrences(equiv, "ObjectIntersectionOf") == 1


def test_count_rejects_unknown_constructor():
    with pytest.raises(ValueError):
        count_constructor_occurrences(SubClassOf(c("A"), c("B")), "DataHasValue")


def test_constructor_sum_equals_non_leaf_non_data_nodes():
    ax = SubClassOf(
        ObjectUnionOf((c("A"), DataRestriction(kind="DataHasValue", props=(NS + "d",)))),
        ObjectIntersectionOf((c("B"), ObjectSomeValuesFrom(NS + "r", c("C")))))
    total = sum(constructor_counts(ax).values())
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
    from ontoprof.model import CLASS_CONSTRUCTORS

    rng = random.Random(31)
    vocab = Vocabulary(rng)
    for _ in range(500):
        ax = random_axiom(rng, vocab)
        total = sum(count_constructor_occurrences(ax, cc) for cc in CLASS_CONSTRUCTORS)
        nodes = [n for top in class_expressions_of(ax) for n in iter_nodes(top)]
        non_leaf = sum(1 for n in nodes
                       if not isinstance(n, (NamedClass, DataRestriction)))
        assert total == non_leaf


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
