"""Structural model of OWL 2 ontologies.

Entities, class expressions, property expressions, axioms and the Ontology
container, plus the tree walkers every analysis pass is built on.  All model
values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterator, Union

OWL = "http://www.w3.org/2002/07/owl#"
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"

OWL_THING = OWL + "Thing"
OWL_NOTHING = OWL + "Nothing"

# Built-in vocabulary kept in the signature (it is "mentioned") but excluded
# from the user-entity size counts.
BUILTIN_CLASSES = frozenset({OWL_THING, OWL_NOTHING})
BUILTIN_OBJECT_PROPERTIES = frozenset({OWL + "topObjectProperty", OWL + "bottomObjectProperty"})
BUILTIN_DATA_PROPERTIES = frozenset({OWL + "topDataProperty", OWL + "bottomDataProperty"})


class EntityKind(Enum):
    CLASS = "Class"
    DATATYPE = "Datatype"
    OBJECT_PROPERTY = "ObjectProperty"
    DATA_PROPERTY = "DataProperty"
    ANNOTATION_PROPERTY = "AnnotationProperty"
    NAMED_INDIVIDUAL = "NamedIndividual"


@dataclass(frozen=True)
class Entity:
    """A named term: (IRI, kind) pair."""

    iri: str
    kind: EntityKind

    def __post_init__(self):
        if not self.iri:
            raise ValueError("entity IRI must be non-empty")


@dataclass(frozen=True)
class AnonymousIndividual:
    node_id: str


# Named individuals are plain IRI strings; anonymous ones carry a node id.
Individual = Union[str, AnonymousIndividual]


@dataclass(frozen=True)
class ObjectInverseOf:
    """Inverse of a named object property (never nested)."""

    prop: str


ObjectPropertyExpression = Union[str, ObjectInverseOf]


def property_name(ope: ObjectPropertyExpression) -> str:
    """Named property underneath an (optional) inverse wrapper."""
    return ope.prop if isinstance(ope, ObjectInverseOf) else ope


@dataclass(frozen=True)
class Literal:
    lexical: str
    datatype: str | None = None
    language: str | None = None


# ---------------------------------------------------------------------------
# Data ranges (kept opaque: structure is preserved for round-tripping, only
# datatype IRIs are harvested for the signature).

class DataRange:
    __slots__ = ()


@dataclass(frozen=True)
class DatatypeRef(DataRange):
    iri: str


@dataclass(frozen=True)
class DataIntersectionOf(DataRange):
    operands: tuple[DataRange, ...]


@dataclass(frozen=True)
class DataUnionOf(DataRange):
    operands: tuple[DataRange, ...]


@dataclass(frozen=True)
class DataComplementOf(DataRange):
    operand: DataRange


@dataclass(frozen=True)
class DataOneOf(DataRange):
    literals: tuple[Literal, ...]


@dataclass(frozen=True)
class DatatypeRestriction(DataRange):
    datatype: str
    facets: tuple[tuple[str, Literal], ...]


# ---------------------------------------------------------------------------
# Class expressions.

class ClassExpression:
    __slots__ = ()


@dataclass(frozen=True)
class NamedClass(ClassExpression):
    iri: str


@dataclass(frozen=True)
class ObjectIntersectionOf(ClassExpression):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("ObjectIntersectionOf needs at least two operands")


@dataclass(frozen=True)
class ObjectUnionOf(ClassExpression):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("ObjectUnionOf needs at least two operands")


@dataclass(frozen=True)
class ObjectComplementOf(ClassExpression):
    operand: ClassExpression


@dataclass(frozen=True)
class ObjectOneOf(ClassExpression):
    individuals: tuple[Individual, ...]

    def __post_init__(self):
        if not self.individuals:
            raise ValueError("ObjectOneOf needs at least one individual")


@dataclass(frozen=True)
class ObjectSomeValuesFrom(ClassExpression):
    prop: ObjectPropertyExpression
    filler: ClassExpression


@dataclass(frozen=True)
class ObjectAllValuesFrom(ClassExpression):
    prop: ObjectPropertyExpression
    filler: ClassExpression


@dataclass(frozen=True)
class ObjectHasValue(ClassExpression):
    prop: ObjectPropertyExpression
    individual: Individual


@dataclass(frozen=True)
class ObjectHasSelf(ClassExpression):
    prop: ObjectPropertyExpression


@dataclass(frozen=True)
class ObjectMinCardinality(ClassExpression):
    n: int
    prop: ObjectPropertyExpression
    filler: ClassExpression | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")


@dataclass(frozen=True)
class ObjectMaxCardinality(ClassExpression):
    n: int
    prop: ObjectPropertyExpression
    filler: ClassExpression | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")


@dataclass(frozen=True)
class ObjectExactCardinality(ClassExpression):
    n: int
    prop: ObjectPropertyExpression
    filler: ClassExpression | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")


@dataclass(frozen=True)
class DataRestriction(ClassExpression):
    """Any data-property restriction, kept opaque behind a kind tag.

    kind is one of DataSomeValuesFrom, DataAllValuesFrom, DataHasValue,
    DataMinCardinality, DataMaxCardinality, DataExactCardinality.
    """

    kind: str
    props: tuple[str, ...]
    range: DataRange | None = None
    value: Literal | None = None
    n: int | None = None


# The counted class-constructor set: the eleven non-named object constructors.
# This tuple is a frozen constant; data restrictions are deliberately outside it.
CLASS_CONSTRUCTORS: tuple[str, ...] = (
    "ObjectIntersectionOf",
    "ObjectUnionOf",
    "ObjectComplementOf",
    "ObjectOneOf",
    "ObjectSomeValuesFrom",
    "ObjectAllValuesFrom",
    "ObjectHasValue",
    "ObjectHasSelf",
    "ObjectMinCardinality",
    "ObjectMaxCardinality",
    "ObjectExactCardinality",
)

_CONSTRUCTOR_TYPES = (
    ObjectIntersectionOf,
    ObjectUnionOf,
    ObjectComplementOf,
    ObjectOneOf,
    ObjectSomeValuesFrom,
    ObjectAllValuesFrom,
    ObjectHasValue,
    ObjectHasSelf,
    ObjectMinCardinality,
    ObjectMaxCardinality,
    ObjectExactCardinality,
)


# ---------------------------------------------------------------------------
# Axioms.

class Axiom:
    __slots__ = ()

    @property
    def axiom_type(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class PropertyChain:
    """Composition of object properties on the sub side of a property axiom."""

    operands: tuple[ObjectPropertyExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("property chain needs at least two operands")


# Class axioms -------------------------------------------------------------

@dataclass(frozen=True)
class SubClassOf(Axiom):
    sub: ClassExpression
    sup: ClassExpression


@dataclass(frozen=True)
class EquivalentClasses(Axiom):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("EquivalentClasses needs at least two operands")


@dataclass(frozen=True)
class DisjointClasses(Axiom):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("DisjointClasses needs at least two operands")


@dataclass(frozen=True)
class DisjointUnion(Axiom):
    cls: str
    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("DisjointUnion needs at least two union operands")


# Object property axioms ----------------------------------------------------

@dataclass(frozen=True)
class SubObjectPropertyOf(Axiom):
    sub: Union[ObjectPropertyExpression, PropertyChain]
    sup: ObjectPropertyExpression

    @property
    def is_chain(self) -> bool:
        return isinstance(self.sub, PropertyChain)


@dataclass(frozen=True)
class EquivalentObjectProperties(Axiom):
    operands: tuple[ObjectPropertyExpression, ...]


@dataclass(frozen=True)
class DisjointObjectProperties(Axiom):
    operands: tuple[ObjectPropertyExpression, ...]


@dataclass(frozen=True)
class InverseObjectProperties(Axiom):
    first: ObjectPropertyExpression
    second: ObjectPropertyExpression


@dataclass(frozen=True)
class ObjectPropertyDomain(Axiom):
    prop: ObjectPropertyExpression
    domain: ClassExpression


@dataclass(frozen=True)
class ObjectPropertyRange(Axiom):
    prop: ObjectPropertyExpression
    range: ClassExpression


@dataclass(frozen=True)
class FunctionalObjectProperty(Axiom):
    prop: ObjectPropertyExpression


@dataclass(frozen=True)
class InverseFunctionalObjectProperty(Axiom):
    prop: ObjectPropertyExpression


@dataclass(frozen=True)
class ReflexiveObjectProperty(Axiom):
    prop: ObjectPropertyExpression


@dataclass(frozen=True)
class IrreflexiveObjectProperty(Axiom):
    prop: ObjectPropertyExpression


@dataclass(frozen=True)
class SymmetricObjectProperty(Axiom):
    prop: ObjectPropertyExpression


@dataclass(frozen=True)
class AsymmetricObjectProperty(Axiom):
    prop: ObjectPropertyExpression


@dataclass(frozen=True)
class TransitiveObjectProperty(Axiom):
    prop: ObjectPropertyExpression


# Data property axioms ------------------------------------------------------

@dataclass(frozen=True)
class SubDataPropertyOf(Axiom):
    sub: str
    sup: str


@dataclass(frozen=True)
class EquivalentDataProperties(Axiom):
    operands: tuple[str, ...]


@dataclass(frozen=True)
class DisjointDataProperties(Axiom):
    operands: tuple[str, ...]


@dataclass(frozen=True)
class DataPropertyDomain(Axiom):
    prop: str
    domain: ClassExpression


@dataclass(frozen=True)
class DataPropertyRange(Axiom):
    prop: str
    range: DataRange


@dataclass(frozen=True)
class FunctionalDataProperty(Axiom):
    prop: str


# Other schema axioms --------------------------------------------------------

@dataclass(frozen=True)
class DatatypeDefinition(Axiom):
    datatype: str
    range: DataRange


@dataclass(frozen=True)
class HasKey(Axiom):
    ce: ClassExpression
    object_props: tuple[ObjectPropertyExpression, ...]
    data_props: tuple[str, ...]


# Assertions ------------------------------------------------------------------

@dataclass(frozen=True)
class SameIndividual(Axiom):
    individuals: tuple[Individual, ...]

    def __post_init__(self):
        if len(self.individuals) < 2:
            raise ValueError("SameIndividual needs at least two individuals")


@dataclass(frozen=True)
class DifferentIndividuals(Axiom):
    individuals: tuple[Individual, ...]

    def __post_init__(self):
        if len(self.individuals) < 2:
            raise ValueError("DifferentIndividuals needs at least two individuals")


@dataclass(frozen=True)
class ClassAssertion(Axiom):
    ce: ClassExpression
    individual: Individual


@dataclass(frozen=True)
class ObjectPropertyAssertion(Axiom):
    prop: ObjectPropertyExpression
    source: Individual
    target: Individual


@dataclass(frozen=True)
class NegativeObjectPropertyAssertion(Axiom):
    prop: ObjectPropertyExpression
    source: Individual
    target: Individual


@dataclass(frozen=True)
class DataPropertyAssertion(Axiom):
    prop: str
    source: Individual
    value: Literal


@dataclass(frozen=True)
class NegativeDataPropertyAssertion(Axiom):
    prop: str
    source: Individual
    value: Literal


# Non-logical axioms -----------------------------------------------------------

@dataclass(frozen=True)
class IriRef:
    """An IRI used as an annotation subject or value."""

    iri: str


AnnotationValue = Union[IriRef, Literal, AnonymousIndividual]


@dataclass(frozen=True)
class Declaration(Axiom):
    entity: Entity


@dataclass(frozen=True)
class AnnotationAssertion(Axiom):
    prop: str
    subject: Union[IriRef, AnonymousIndividual]
    value: AnnotationValue


@dataclass(frozen=True)
class SubAnnotationPropertyOf(Axiom):
    sub: str
    sup: str


@dataclass(frozen=True)
class AnnotationPropertyDomain(Axiom):
    prop: str
    domain: str


@dataclass(frozen=True)
class AnnotationPropertyRange(Axiom):
    prop: str
    range: str


@dataclass(frozen=True)
class UnknownAxiom(Axiom):
    """An unrecognized construct preserved verbatim (e.g. rules)."""

    name: str
    text: str


@dataclass(frozen=True)
class OntologyAnnotation:
    prop: str
    value: AnnotationValue


# The frozen enumeration of logical axiom types, in vector-schema order.
LOGICAL_AXIOM_TYPES: tuple[str, ...] = (
    "SubClassOf",
    "EquivalentClasses",
    "DisjointClasses",
    "DisjointUnion",
    "SubObjectPropertyOf",
    "EquivalentObjectProperties",
    "DisjointObjectProperties",
    "InverseObjectProperties",
    "ObjectPropertyDomain",
    "ObjectPropertyRange",
    "FunctionalObjectProperty",
    "InverseFunctionalObjectProperty",
    "ReflexiveObjectProperty",
    "IrreflexiveObjectProperty",
    "SymmetricObjectProperty",
    "AsymmetricObjectProperty",
    "TransitiveObjectProperty",
    "SubDataPropertyOf",
    "EquivalentDataProperties",
    "DisjointDataProperties",
    "DataPropertyDomain",
    "DataPropertyRange",
    "FunctionalDataProperty",
    "DatatypeDefinition",
    "HasKey",
    "SameIndividual",
    "DifferentIndividuals",
    "ClassAssertion",
    "ObjectPropertyAssertion",
    "NegativeObjectPropertyAssertion",
    "DataPropertyAssertion",
    "NegativeDataPropertyAssertion",
)

# Property characteristic axioms by the feature-name stem they count under.
CHARACTERISTIC_AXIOMS = {
    "Transitive": TransitiveObjectProperty,
    "Symmetric": SymmetricObjectProperty,
    "Asymmetric": AsymmetricObjectProperty,
    "Reflexive": ReflexiveObjectProperty,
    "Irreflexive": IrreflexiveObjectProperty,
    "Functional": FunctionalObjectProperty,
    "InverseFunctional": InverseFunctionalObjectProperty,
}
# Axioms about one object property expression, held in their `prop` field.
_PROPERTY_AXIOM_TYPES = (ObjectPropertyDomain, ObjectPropertyRange,
                         *CHARACTERISTIC_AXIOMS.values())
# Characteristics OWL 2 DL allows on simple properties only.
_SIMPLE_ROLE_AXIOMS = (FunctionalObjectProperty, InverseFunctionalObjectProperty,
                       IrreflexiveObjectProperty, AsymmetricObjectProperty)
_RESTRICTION_TYPES = (ObjectSomeValuesFrom, ObjectAllValuesFrom, ObjectHasValue,
                      ObjectHasSelf, ObjectMinCardinality, ObjectMaxCardinality,
                      ObjectExactCardinality)
_CARDINALITY_TYPES = (ObjectMinCardinality, ObjectMaxCardinality, ObjectExactCardinality)

_TBOX_TYPES = (SubClassOf, EquivalentClasses, DisjointClasses, DisjointUnion,
               HasKey, DatatypeDefinition)
_RBOX_TYPES = (SubObjectPropertyOf, EquivalentObjectProperties, DisjointObjectProperties,
               InverseObjectProperties, *_PROPERTY_AXIOM_TYPES, SubDataPropertyOf,
               EquivalentDataProperties, DisjointDataProperties, DataPropertyDomain,
               DataPropertyRange, FunctionalDataProperty)
_ABOX_TYPES = (SameIndividual, DifferentIndividuals, ClassAssertion,
               ObjectPropertyAssertion, NegativeObjectPropertyAssertion,
               DataPropertyAssertion, NegativeDataPropertyAssertion)


class Category(Enum):
    TBOX = "TBox"
    RBOX = "RBox"
    ABOX = "ABox"
    NON_LOGICAL = "NonLogical"


def axiom_category(axiom: Axiom) -> Category:
    """Total, deterministic TBox/RBox/ABox/NonLogical assignment."""
    if isinstance(axiom, _TBOX_TYPES):
        return Category.TBOX
    if isinstance(axiom, _RBOX_TYPES):
        return Category.RBOX
    if isinstance(axiom, _ABOX_TYPES):
        return Category.ABOX
    return Category.NON_LOGICAL


def is_logical(axiom: Axiom) -> bool:
    return axiom_category(axiom) is not Category.NON_LOGICAL


# ---------------------------------------------------------------------------
# Walkers.

def child_expressions(e: ClassExpression) -> tuple[ClassExpression, ...]:
    """Direct class-expression children of an expression node."""
    if isinstance(e, (ObjectIntersectionOf, ObjectUnionOf)):
        return e.operands
    if isinstance(e, ObjectComplementOf):
        return (e.operand,)
    if isinstance(e, (ObjectSomeValuesFrom, ObjectAllValuesFrom)):
        return (e.filler,)
    if isinstance(e, (ObjectMinCardinality, ObjectMaxCardinality, ObjectExactCardinality)):
        return () if e.filler is None else (e.filler,)
    return ()


def iter_nodes(e: ClassExpression) -> Iterator[ClassExpression]:
    """All nodes of an expression tree, pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(child_expressions(node)))


def class_expressions_of(axiom: Axiom) -> tuple[ClassExpression, ...]:
    """Top-level class-expression operands of an axiom."""
    if isinstance(axiom, SubClassOf):
        return (axiom.sub, axiom.sup)
    if isinstance(axiom, (EquivalentClasses, DisjointClasses)):
        return axiom.operands
    if isinstance(axiom, DisjointUnion):
        return (NamedClass(axiom.cls),) + axiom.operands
    if isinstance(axiom, ObjectPropertyDomain):
        return (axiom.domain,)
    if isinstance(axiom, ObjectPropertyRange):
        return (axiom.range,)
    if isinstance(axiom, DataPropertyDomain):
        return (axiom.domain,)
    if isinstance(axiom, HasKey):
        return (axiom.ce,)
    if isinstance(axiom, ClassAssertion):
        return (axiom.ce,)
    return ()


def expression_depth(e: ClassExpression) -> int:
    """Nesting depth: named classes are 0, every constructor adds a level."""
    if isinstance(e, NamedClass):
        return 0
    deepest = 0
    stack = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > deepest:
            deepest = depth
        for child in child_expressions(node):
            if not isinstance(child, NamedClass):
                stack.append((child, depth + 1))
    return deepest


def axiom_depth(axiom: Axiom) -> int:
    """Maximal expression depth over the axiom's class-expression operands."""
    operands = class_expressions_of(axiom)
    if not operands:
        return 0
    return max(expression_depth(e) for e in operands)


def constructor_counts(axiom: Axiom) -> Counter:
    """Occurrences of each counted constructor in the axiom's expressions."""
    counts: Counter = Counter()
    for top in class_expressions_of(axiom):
        for node in iter_nodes(top):
            if isinstance(node, _CONSTRUCTOR_TYPES):
                counts[type(node).__name__] += 1
    return counts


def count_constructor_occurrences(axiom: Axiom, constructor: str) -> int:
    """Occurrences of one constructor tag; repeated uses all count."""
    if constructor not in CLASS_CONSTRUCTORS:
        raise ValueError(f"not a counted class constructor: {constructor}")
    return constructor_counts(axiom)[constructor]


# ---------------------------------------------------------------------------
# Census.

def _is_top(ce: ClassExpression | None) -> bool:
    return type(ce) is NamedClass and ce.iri == OWL_THING


def _data_range_tags(dr: DataRange, tags: Counter, sizes: Counter) -> None:
    """Count a data range's node names into `tags` and its DataOneOf
    arities into `sizes`."""
    stack = [dr]
    while stack:
        node = stack.pop()
        t = type(node)
        tags[t.__name__] += 1
        if t is DataIntersectionOf or t is DataUnionOf:
            stack.extend(node.operands)
        elif t is DataComplementOf:
            stack.append(node.operand)
        elif t is DataOneOf:
            sizes["DataOneOf", len(node.literals)] += 1


class Census:
    """Counts, sets and maxima over the logical axioms, gathered in one
    iterative walk of each axiom; the syntactic features, the profile checks
    and the DL family name are arithmetic over it.

    A node's tag is its constructor name, or the kind of a data restriction.
    """

    __slots__ = (
        "axiom_types",       # logical axiom type names, plus SubObjectPropertyChain
        "depth_sum", "depth_max",       # over axiom_depth of each logical axiom
        "constructors",      # node tags (and data range names) in TBox axioms
        "constructor_max",   # most class constructors in one TBox axiom
        "tags",              # every tag and data range name, plus ObjectInverseOf
        "property_usage",    # TBox restriction and key occurrences per property
        "nominals",          # named-individual occurrences in TBox expressions
        "nominal_axioms",    # TBox axioms with such an occurrence
        "iu", "euvi", "cuvi",
        "pcd", "npcd", "gci",
        "nominal_defined",   # classes defined with a nominal
        "disjoint_classes",  # classes under DisjointClasses or DisjointUnion
        "dependencies",      # class -> named classes in its definitions
        "sizes",             # (tag, cardinality or OneOf arity) occurrences
        "simple_required",   # properties OWL 2 DL requires to be simple
        "dl_flags",          # DL family letters no axiom type or tag implies
    )

    def __init__(self, o: Ontology):
        axiom_types: Counter = Counter()
        constructors: Counter = Counter()
        other_tags: Counter = Counter()
        usage: Counter = Counter()       # property expressions in TBox axioms
        other_opes: Counter = Counter()  # and in RBox and ABox axioms
        sizes: Counter = Counter()
        pair_exist: Counter = Counter()  # (named class, property) per SubClassOf
        pair_univ: Counter = Counter()
        pair_card: Counter = Counter()
        simple: set = set()
        flags: set[str] = set()
        deps: dict[str, set[str]] = {}
        nominal_defined: set[str] = set()
        disjoint: set[str] = set()
        depth_sum = depth_max = constructor_max = nominals = nominal_axioms = 0
        iu = euvi = cuvi = pcd = npcd = gci = 0
        for tbox, axioms in ((True, o.tbox), (False, o.rbox), (False, o.abox)):
            tags, opes = (constructors, usage) if tbox else (other_tags, other_opes)
            for ax in axioms:
                t = type(ax)
                axiom_types[t.__name__] += 1
                parts = []  # (named classes, has a nominal) per top-level expression
                deepest = count = named = 0
                for top in class_expressions_of(ax):
                    if type(top) is NamedClass:
                        parts.append(((top.iri,), False))
                        continue
                    names: list[str] = []
                    nominal = False
                    stack = [(top, 1)]
                    while stack:
                        node, d = stack.pop()
                        nt = type(node)
                        if nt is NamedClass:
                            names.append(node.iri)
                            continue
                        if d > deepest:
                            deepest = d
                        if nt is DataRestriction:
                            tags[node.kind] += 1
                            if node.n is not None:
                                sizes[node.kind, node.n] += 1
                            if node.range is not None:
                                _data_range_tags(node.range, tags, sizes)
                            continue
                        tag = nt.__name__
                        tags[tag] += 1
                        count += 1
                        d += 1
                        if nt is ObjectIntersectionOf or nt is ObjectUnionOf:
                            ops = node.operands
                            for op in ops:
                                stack.append((op, d))
                            if not tbox:
                                continue
                            if nt is ObjectUnionOf:
                                iu += any(type(op) is ObjectIntersectionOf for op in ops)
                                continue
                            iu += any(type(op) is ObjectUnionOf for op in ops)
                            univ = {op.prop for op in ops if type(op) is ObjectAllValuesFrom}
                            if univ:
                                euvi += len(univ.intersection(
                                    op.prop for op in ops if type(op) is ObjectSomeValuesFrom))
                                cuvi += len(univ.intersection(
                                    op.prop for op in ops if type(op) in _CARDINALITY_TYPES))
                        elif nt is ObjectComplementOf:
                            stack.append((node.operand, d))
                        elif nt is ObjectOneOf:
                            nominal = True
                            sizes[tag, len(node.individuals)] += 1
                            named += sum(type(i) is str for i in node.individuals)
                        else:  # a restriction on an object property expression
                            opes[node.prop] += 1
                            if nt is ObjectSomeValuesFrom:
                                if not _is_top(node.filler):
                                    flags.add("C")
                                stack.append((node.filler, d))
                            elif nt is ObjectAllValuesFrom:
                                stack.append((node.filler, d))
                            elif nt is ObjectHasValue:
                                nominal = True
                                named += type(node.individual) is str
                            else:  # ObjectHasSelf or a cardinality restriction
                                simple.add(node.prop)
                                if nt is not ObjectHasSelf:
                                    sizes[tag, node.n] += 1
                                    filler = node.filler
                                    flags.add("N" if filler is None or _is_top(filler) else "Q")
                                    if filler is not None:
                                        stack.append((filler, d))
                    parts.append((names, nominal))
                depth_sum += deepest
                if deepest > depth_max:
                    depth_max = deepest
                if tbox:
                    if count > constructor_max:
                        constructor_max = count
                    nominals += named
                    nominal_axioms += named > 0
                    if t is SubClassOf:
                        sub, sup = ax.sub, ax.sup
                        if type(sub) is NamedClass:
                            pcd += 1
                            names, nominal = parts[1]
                            deps.setdefault(sub.iri, set()).update(names)
                            if nominal:
                                nominal_defined.add(sub.iri)
                            st = type(sup)
                            if st is ObjectSomeValuesFrom:
                                pair_exist[sub.iri, sup.prop] += 1
                            elif st is ObjectAllValuesFrom:
                                pair_univ[sub.iri, sup.prop] += 1
                            elif st in _CARDINALITY_TYPES:
                                pair_card[sub.iri, sup.prop] += 1
                        else:
                            gci += 1
                    elif t is EquivalentClasses:
                        defined = [(i, op.iri) for i, op in enumerate(ax.operands)
                                   if type(op) is NamedClass]
                        npcd += bool(defined)
                        gci += not defined
                        for i, iri in defined:
                            targets = deps.setdefault(iri, set())
                            for j, (names, nominal) in enumerate(parts):
                                if j != i:
                                    targets.update(names)
                                    if nominal:
                                        nominal_defined.add(iri)
                    elif t is DisjointClasses or t is DisjointUnion:
                        for names, _ in parts:
                            disjoint.update(names)
                    elif t is HasKey:
                        opes.update(ax.object_props)
                        if ax.data_props:
                            flags.add("D")
                    elif t is DatatypeDefinition:
                        _data_range_tags(ax.range, tags, sizes)
                elif t is SubObjectPropertyOf:
                    if type(ax.sub) is PropertyChain:
                        axiom_types["SubObjectPropertyChain"] += 1
                        opes.update(ax.sub.operands)
                    else:
                        flags.add("H")
                        opes[ax.sub] += 1
                    opes[ax.sup] += 1
                elif t is EquivalentObjectProperties or t is DisjointObjectProperties:
                    opes.update(ax.operands)
                    if t is DisjointObjectProperties:
                        simple.update(ax.operands)
                elif t is InverseObjectProperties:
                    opes.update((ax.first, ax.second))
                elif (t in _PROPERTY_AXIOM_TYPES or t is ObjectPropertyAssertion
                      or t is NegativeObjectPropertyAssertion):
                    opes[ax.prop] += 1
                    if t in _SIMPLE_ROLE_AXIOMS:
                        simple.add(ax.prop)
                elif t is DataPropertyRange:
                    _data_range_tags(ax.range, tags, sizes)
        for ax in o.non_logical:
            if type(ax) is Declaration and ax.entity.kind in (EntityKind.DATA_PROPERTY,
                                                              EntityKind.DATATYPE):
                flags.add("D")
        self.tags = set(constructors) | set(other_tags)
        if any(type(p) is ObjectInverseOf for p in chain(usage, other_opes)):
            self.tags.add("ObjectInverseOf")
        self.property_usage = Counter()
        for p, n in usage.items():
            self.property_usage[property_name(p)] += n
        self.axiom_types, self.constructors, self.sizes = axiom_types, constructors, sizes
        self.depth_sum, self.depth_max, self.constructor_max = depth_sum, depth_max, constructor_max
        self.nominals, self.nominal_axioms = nominals, nominal_axioms
        self.iu = iu
        self.euvi = euvi + sum(n * pair_univ[k] for k, n in pair_exist.items())
        self.cuvi = cuvi + sum(n * pair_univ[k] for k, n in pair_card.items())
        self.pcd, self.npcd, self.gci = pcd, npcd, gci
        self.nominal_defined, self.disjoint_classes = nominal_defined, disjoint
        self.dependencies = deps
        self.simple_required = {property_name(p) for p in simple}
        self.dl_flags = flags

    def largest(self, *tags: str) -> int:
        """Largest cardinality or OneOf arity under the given tags, 0 if none."""
        return max((n for tag, n in self.sizes if tag in tags), default=0)


# ---------------------------------------------------------------------------
# Signature and ontology.

@dataclass(frozen=True)
class Signature:
    classes: frozenset[str] = frozenset()
    object_properties: frozenset[str] = frozenset()
    data_properties: frozenset[str] = frozenset()
    individuals: frozenset[str] = frozenset()
    datatypes: frozenset[str] = frozenset()
    annotation_properties: frozenset[str] = frozenset()
    anonymous_individuals: frozenset[str] = frozenset()


class _SignatureBuilder:
    def __init__(self):
        self.classes: set[str] = set()
        self.object_properties: set[str] = set()
        self.data_properties: set[str] = set()
        self.individuals: set[str] = set()
        self.datatypes: set[str] = set()
        self.annotation_properties: set[str] = set()
        self.anonymous: set[str] = set()

    def build(self) -> Signature:
        return Signature(
            classes=frozenset(self.classes),
            object_properties=frozenset(self.object_properties),
            data_properties=frozenset(self.data_properties),
            individuals=frozenset(self.individuals),
            datatypes=frozenset(self.datatypes),
            annotation_properties=frozenset(self.annotation_properties),
            anonymous_individuals=frozenset(self.anonymous),
        )

    def individual(self, ind: Individual):
        if isinstance(ind, AnonymousIndividual):
            self.anonymous.add(ind.node_id)
        else:
            self.individuals.add(ind)

    def ope(self, ope: ObjectPropertyExpression):
        self.object_properties.add(property_name(ope))

    def literal(self, lit: Literal):
        if lit.datatype:
            self.datatypes.add(lit.datatype)

    def data_range(self, dr: DataRange):
        if isinstance(dr, DatatypeRef):
            self.datatypes.add(dr.iri)
        elif isinstance(dr, (DataIntersectionOf, DataUnionOf)):
            for op in dr.operands:
                self.data_range(op)
        elif isinstance(dr, DataComplementOf):
            self.data_range(dr.operand)
        elif isinstance(dr, DataOneOf):
            for lit in dr.literals:
                self.literal(lit)
        elif isinstance(dr, DatatypeRestriction):
            self.datatypes.add(dr.datatype)
            for _, lit in dr.facets:
                self.literal(lit)

    def expression(self, e: ClassExpression):
        for node in iter_nodes(e):
            if isinstance(node, NamedClass):
                self.classes.add(node.iri)
            elif isinstance(node, ObjectOneOf):
                for ind in node.individuals:
                    self.individual(ind)
            elif isinstance(node, ObjectHasValue):
                self.ope(node.prop)
                self.individual(node.individual)
            elif isinstance(node, _RESTRICTION_TYPES):
                self.ope(node.prop)
            elif isinstance(node, DataRestriction):
                self.data_properties.update(node.props)
                if node.range is not None:
                    self.data_range(node.range)
                if node.value is not None:
                    self.literal(node.value)

    def declaration(self, entity: Entity):
        target = {
            EntityKind.CLASS: self.classes,
            EntityKind.DATATYPE: self.datatypes,
            EntityKind.OBJECT_PROPERTY: self.object_properties,
            EntityKind.DATA_PROPERTY: self.data_properties,
            EntityKind.ANNOTATION_PROPERTY: self.annotation_properties,
            EntityKind.NAMED_INDIVIDUAL: self.individuals,
        }[entity.kind]
        target.add(entity.iri)

    def axiom(self, ax: Axiom):
        for e in class_expressions_of(ax):
            self.expression(e)
        if isinstance(ax, SubObjectPropertyOf):
            if isinstance(ax.sub, PropertyChain):
                for op in ax.sub.operands:
                    self.ope(op)
            else:
                self.ope(ax.sub)
            self.ope(ax.sup)
        elif isinstance(ax, (EquivalentObjectProperties, DisjointObjectProperties)):
            for op in ax.operands:
                self.ope(op)
        elif isinstance(ax, InverseObjectProperties):
            self.ope(ax.first)
            self.ope(ax.second)
        elif isinstance(ax, _PROPERTY_AXIOM_TYPES):
            self.ope(ax.prop)
        elif isinstance(ax, SubDataPropertyOf):
            self.data_properties.update((ax.sub, ax.sup))
        elif isinstance(ax, (EquivalentDataProperties, DisjointDataProperties)):
            self.data_properties.update(ax.operands)
        elif isinstance(ax, (DataPropertyDomain, FunctionalDataProperty)):
            self.data_properties.add(ax.prop)
        elif isinstance(ax, DataPropertyRange):
            self.data_properties.add(ax.prop)
            self.data_range(ax.range)
        elif isinstance(ax, DatatypeDefinition):
            self.datatypes.add(ax.datatype)
            self.data_range(ax.range)
        elif isinstance(ax, HasKey):
            for op in ax.object_props:
                self.ope(op)
            self.data_properties.update(ax.data_props)
        elif isinstance(ax, (SameIndividual, DifferentIndividuals)):
            for ind in ax.individuals:
                self.individual(ind)
        elif isinstance(ax, ClassAssertion):
            self.individual(ax.individual)
        elif isinstance(ax, (ObjectPropertyAssertion, NegativeObjectPropertyAssertion)):
            self.ope(ax.prop)
            self.individual(ax.source)
            self.individual(ax.target)
        elif isinstance(ax, (DataPropertyAssertion, NegativeDataPropertyAssertion)):
            self.data_properties.add(ax.prop)
            self.individual(ax.source)
            self.literal(ax.value)
        elif isinstance(ax, Declaration):
            self.declaration(ax.entity)
        elif isinstance(ax, AnnotationAssertion):
            self.annotation_properties.add(ax.prop)
            if isinstance(ax.subject, AnonymousIndividual):
                self.anonymous.add(ax.subject.node_id)
            if isinstance(ax.value, Literal):
                self.literal(ax.value)
            elif isinstance(ax.value, AnonymousIndividual):
                self.anonymous.add(ax.value.node_id)
        elif isinstance(ax, SubAnnotationPropertyOf):
            self.annotation_properties.update((ax.sub, ax.sup))
        elif isinstance(ax, (AnnotationPropertyDomain, AnnotationPropertyRange)):
            self.annotation_properties.add(ax.prop)


@dataclass(frozen=True)
class Ontology:
    """A parsed knowledge base: signature plus categorized axiom list."""

    axioms: tuple[Axiom, ...]
    iri: str | None = None
    version_iri: str | None = None
    imports: tuple[str, ...] = ()
    annotations: tuple[OntologyAnnotation, ...] = ()
    signature: Signature = field(init=False, compare=False, repr=False)
    tbox: tuple[Axiom, ...] = field(init=False, compare=False, repr=False)
    rbox: tuple[Axiom, ...] = field(init=False, compare=False, repr=False)
    abox: tuple[Axiom, ...] = field(init=False, compare=False, repr=False)
    non_logical: tuple[Axiom, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        builder = _SignatureBuilder()
        buckets: dict[Category, list[Axiom]] = {c: [] for c in Category}
        for ax in self.axioms:
            builder.axiom(ax)
            buckets[axiom_category(ax)].append(ax)
        for anno in self.annotations:
            builder.annotation_properties.add(anno.prop)
        object.__setattr__(self, "signature", builder.build())
        object.__setattr__(self, "tbox", tuple(buckets[Category.TBOX]))
        object.__setattr__(self, "rbox", tuple(buckets[Category.RBOX]))
        object.__setattr__(self, "abox", tuple(buckets[Category.ABOX]))
        object.__setattr__(self, "non_logical", tuple(buckets[Category.NON_LOGICAL]))

    @cached_property
    def census(self) -> Census:
        """One walk over the logical axioms, taken on first use."""
        return Census(self)

    @property
    def logical_axioms(self) -> tuple[Axiom, ...]:
        return self.tbox + self.rbox + self.abox

    @property
    def logical_axiom_count(self) -> int:
        return len(self.tbox) + len(self.rbox) + len(self.abox)
