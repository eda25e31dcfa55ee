"""Structural model of OWL 2 ontologies.

Entities, class expressions, property expressions, axioms and the Ontology
container, plus the signature walk.  All model values are immutable after
construction and safe to share across threads.

The grammar is stated once, in NODES: for every node type its
functional-syntax keyword, its KB category and its fields in syntax order,
each with a Shape, after the W3C OWL 2 Structural Specification
(https://www.w3.org/TR/owl2-syntax/).  The node classes are made from it by
`_node`, and the parser, the serializer, the signature walk and the census
(in `census`) all read it.

`signature_walk` is the one signature walk, and `census.Summary` its one
caller: an `Ontology` folds all its axioms into a Summary as one batch,
and a worker one parser window at a time, so that the worker never holds
a document's axioms.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from functools import partial
from operator import itemgetter

# LOGICAL_AXIOM_TYPES stays importable from here for perfbench/workloads.py.
from .schema import LOGICAL_AXIOM_TYPES

try:  # the C field accessor namedtuple uses; a property is the portable equivalent
    from _collections import _tuplegetter
except ImportError:
    def _tuplegetter(index, doc):
        return property(itemgetter(index), doc=doc)

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


class Category(Enum):
    TBOX = "TBox"
    RBOX = "RBox"
    ABOX = "ABox"
    NON_LOGICAL = "NonLogical"


# ---------------------------------------------------------------------------
# Shapes: how a field is written, and what it adds to the signature.

# The signature sets a bare IRI can feed, in Signature field order.
(CLASSES, OBJECT_PROPERTIES, DATA_PROPERTIES, INDIVIDUALS, DATATYPES,
 ANNOTATION_PROPERTIES, ANONYMOUS) = range(7)


class Shape:
    """One field's syntax.

    `kind` names the routine that parses and serializes one value: an IRI,
    a class or property expression, an individual, a literal, a data range,
    an integer, or one of the irregular pieces (entity, facets, annotation
    subject and value, ObjectPropertyChain, the leading data properties of
    DataSomeValuesFrom).  `what` is the value's name in diagnostics.  A bare
    IRI in the field feeds signature set `sig` (None: none).  A `many` field
    holds a tuple of at least `minimum` and at most `maximum` values, written
    in parentheses if `paren`; an `optional` field may be None.
    """

    __slots__ = ("kind", "what", "plural", "sig", "many", "minimum", "maximum",
                 "optional", "paren")

    def __init__(self, kind: str, what: str, sig: int | None = None, *,
                 plural: str | None = None, many: bool = False, minimum: int = 0,
                 maximum: int | None = None, optional: bool = False, paren: bool = False):
        self.kind, self.what, self.plural, self.sig = kind, what, plural or what + "s", sig
        self.many, self.minimum, self.maximum = many, minimum, maximum
        self.optional, self.paren = optional, paren

    def times(self, minimum: int, maximum: int | None = None, paren: bool = False) -> Shape:
        """A tuple of values of this shape."""
        return Shape(self.kind, self.what, self.sig, plural=self.plural, many=True,
                     minimum=minimum, maximum=maximum, paren=paren)

    def or_none(self) -> Shape:
        return Shape(self.kind, self.what, self.sig, plural=self.plural, optional=True)


def shortfall(keyword: str, shape: Shape) -> str:
    """The message for fewer values than a many-shape needs."""
    n = shape.minimum
    return f"{keyword} needs at least {n} {shape.what if n == 1 else shape.plural}"


CLASS_IRI = Shape("iri", "class", CLASSES)
DATATYPE_IRI = Shape("iri", "datatype IRI", DATATYPES)
OBJECT_PROPERTY = Shape("iri", "object property", OBJECT_PROPERTIES,
                        plural="object properties")
DATA_PROPERTY = Shape("iri", "data property", DATA_PROPERTIES, plural="data properties")
ANNOTATION_PROPERTY = Shape("iri", "annotation property", ANNOTATION_PROPERTIES,
                            plural="annotation properties")
IRI = Shape("iri", "IRI")
ENTITY_IRI = Shape("entity_iri", "entity IRI")  # feeds the set of its entity kind
CE = Shape("ce", "class expression")
OPE = Shape("ope", "object property", OBJECT_PROPERTIES, plural="object properties")
INDIVIDUAL = Shape("individual", "individual", INDIVIDUALS)
LITERAL = Shape("literal", "literal")
DATA_RANGE = Shape("data_range", "data range")
INTEGER = Shape("int", "non-negative integer")
NODE_ID = Shape("node_id", "anonymous individual", ANONYMOUS)
TEXT = Shape("text", "text")  # a plain string that is not an IRI
ENTITY = Shape("entity", "entity kind")
SUB_PROPERTY = Shape("sub_property", "object property", OBJECT_PROPERTIES)
FACETS = Shape("facets", "facet", many=True, minimum=1)
LEADING_DATA_PROPERTIES = Shape("leading_iris", "data property", DATA_PROPERTIES,
                                plural="data properties", many=True, minimum=1)
ANNOTATION_SUBJECT = Shape("annotation_subject", "annotation subject")
ANNOTATION_VALUE = Shape("annotation_value", "annotation value")


# ---------------------------------------------------------------------------
# The node table and the node classes made from it.

class NodeSpec:
    """One NODES entry.

    `forms` maps each keyword the node is written with to the value of its
    `kind` field (None for a node with one keyword) and the (field index,
    shape) steps in syntax order.  `check` states a constraint across fields
    and returns the message when it fails.
    """

    __slots__ = ("name", "keyword", "category", "fields", "shapes", "forms", "by_kind",
                 "check", "checked")

    def __init__(self, name, keyword, category, fields, forms, check):
        self.name, self.keyword, self.category, self.check = name, keyword, category, check
        self.fields = tuple(f for f, _ in fields)
        self.shapes = tuple(s for _, s in fields)
        if forms is None:
            steps = tuple(enumerate(self.shapes))
            forms = {} if keyword is None else {keyword: (None, steps)}
        else:
            forms = {kw: (kind, tuple((self.fields.index(f), s) for f, s in steps))
                     for kw, (kind, steps) in forms.items()}
        self.forms = forms
        self.by_kind = {kind: (kw, steps) for kw, (kind, steps) in forms.items()}
        self.checked = tuple((i, s) for i, s in enumerate(self.shapes)
                             if s.minimum or s.kind in ("int", "entity_iri"))

    def bind(self, args: tuple, kwargs: dict) -> list:
        """Positional and keyword arguments as the field values; an omitted
        optional field is None."""
        n = len(self.fields)
        if len(args) > n:
            raise TypeError(f"{self.name}() takes {n} arguments but {len(args)} were given")
        values = list(args) + [_MISSING] * (n - len(args))
        for key, value in kwargs.items():
            if key not in self.fields:
                raise TypeError(f"{self.name}() got an unexpected keyword argument {key!r}")
            i = self.fields.index(key)
            if values[i] is not _MISSING:
                raise TypeError(f"{self.name}() got multiple values for argument {key!r}")
            values[i] = value
        for i, value in enumerate(values):
            if value is _MISSING:
                if not self.shapes[i].optional:
                    raise TypeError(f"{self.name}() missing argument {self.fields[i]!r}")
                values[i] = None
        return values

    def validate(self, values) -> None:
        for i, shape in self.checked:
            v = values[i]
            if shape.minimum and len(v) < shape.minimum:
                raise ValueError(shortfall(self.name, shape))
            if shape.kind == "int" and v is not None and v < 0:
                raise ValueError("cardinality must be non-negative")
            if shape.kind == "entity_iri" and not v:
                raise ValueError("entity IRI must be non-empty")
        if self.check is not None:
            message = self.check(values)
            if message:
                raise ValueError(message)


_MISSING = object()
NODES: dict[type, NodeSpec] = {}


class Node(tuple):
    """A model value: the tuple of its fields, equal to another node only of
    the same type, immutable and without a __dict__."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = NODES[cls]
        if kwargs or len(args) != len(spec.fields):
            args = spec.bind(args, kwargs)
        spec.validate(args)
        return tuple.__new__(cls, args)

    def __eq__(self, other):
        # Field by field over a list of pairs, not by recursion, so equal
        # chains of any depth compare within the recursion limit.
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if type(b) is not type(a) or len(b) != len(a):
                return False
            for x, y in zip(a, b):
                if x is y:
                    continue
                if isinstance(x, Node) or type(x) is tuple:
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), tuple.__hash__(self)))

    def __repr__(self):
        fields = NODES[type(self)].fields
        return f"{type(self).__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, self))})"

    def __getnewargs__(self):
        return tuple(self)


class ClassExpression(Node):
    __slots__ = ()


class DataRange(Node):
    __slots__ = ()


class Axiom(Node):
    __slots__ = ()

    @property
    def axiom_type(self) -> str:
        return type(self).__name__


_SAME = object()


def _node(name, base, *fields, keyword=_SAME, category=None, forms=None, check=None):
    """A node class with one read-only property per field, and its NODES
    entry.  `keyword` defaults to the class name; None means the node is
    written without one (a bare IRI, a literal)."""
    namespace = {"__slots__": (), "__module__": __name__, "__qualname__": name}
    for i, (f, shape) in enumerate(fields):
        namespace[f] = _tuplegetter(i, f"field {i}: {shape.what}")
    cls = type(name, (base,), namespace)
    NODES[cls] = NodeSpec(name, name if keyword is _SAME else keyword, category, fields,
                          forms, check)
    return cls


# Entities and other leaves ------------------------------------------------------

Entity = _node("Entity", Node, ("iri", ENTITY_IRI), ("kind", TEXT), keyword=None,
               forms={k.value: (k, (("iri", ENTITY_IRI),)) for k in EntityKind})
# Named individuals are plain IRI strings; anonymous ones carry a node id.
AnonymousIndividual = _node("AnonymousIndividual", Node, ("node_id", NODE_ID), keyword=None)
# Inverse of a named object property (never nested).
ObjectInverseOf = _node("ObjectInverseOf", Node, ("prop", OBJECT_PROPERTY))
ObjectPropertyExpression = str | ObjectInverseOf
Literal = _node("Literal", Node, ("lexical", TEXT), ("datatype", DATATYPE_IRI.or_none()),
                ("language", TEXT.or_none()), keyword=None)
# Composition of object properties on the sub side of a property axiom.
PropertyChain = _node("PropertyChain", Node, ("operands", OPE.times(2)),
                      keyword="ObjectPropertyChain")
# An IRI used as an annotation subject or value.
IriRef = _node("IriRef", Node, ("iri", IRI), keyword=None)
OntologyAnnotation = _node("OntologyAnnotation", Node, ("prop", ANNOTATION_PROPERTY),
                           ("value", ANNOTATION_VALUE), keyword="Annotation")


def property_name(ope: ObjectPropertyExpression) -> str:
    """Named property underneath an (optional) inverse wrapper."""
    return ope.prop if isinstance(ope, ObjectInverseOf) else ope


# Data ranges: structure is kept for round-tripping; the signature takes
# their datatype IRIs and literal datatypes.

DatatypeRef = _node("DatatypeRef", DataRange, ("iri", DATATYPE_IRI), keyword=None)
DataIntersectionOf = _node("DataIntersectionOf", DataRange, ("operands", DATA_RANGE.times(2)))
DataUnionOf = _node("DataUnionOf", DataRange, ("operands", DATA_RANGE.times(2)))
DataComplementOf = _node("DataComplementOf", DataRange, ("operand", DATA_RANGE))
DataOneOf = _node("DataOneOf", DataRange, ("literals", LITERAL.times(1)))
DatatypeRestriction = _node("DatatypeRestriction", DataRange, ("datatype", DATATYPE_IRI),
                            ("facets", FACETS))

# Class expressions ---------------------------------------------------------------

NamedClass = _node("NamedClass", ClassExpression, ("iri", CLASS_IRI), keyword=None)
ObjectIntersectionOf = _node("ObjectIntersectionOf", ClassExpression, ("operands", CE.times(2)))
ObjectUnionOf = _node("ObjectUnionOf", ClassExpression, ("operands", CE.times(2)))
ObjectComplementOf = _node("ObjectComplementOf", ClassExpression, ("operand", CE))
ObjectOneOf = _node("ObjectOneOf", ClassExpression, ("individuals", INDIVIDUAL.times(1)))
ObjectSomeValuesFrom = _node("ObjectSomeValuesFrom", ClassExpression, ("prop", OPE),
                             ("filler", CE))
ObjectAllValuesFrom = _node("ObjectAllValuesFrom", ClassExpression, ("prop", OPE),
                            ("filler", CE))
ObjectHasValue = _node("ObjectHasValue", ClassExpression, ("prop", OPE),
                       ("individual", INDIVIDUAL))
ObjectHasSelf = _node("ObjectHasSelf", ClassExpression, ("prop", OPE))
_CARDINALITY = (("n", INTEGER), ("prop", OPE), ("filler", CE.or_none()))
ObjectMinCardinality = _node("ObjectMinCardinality", ClassExpression, *_CARDINALITY)
ObjectMaxCardinality = _node("ObjectMaxCardinality", ClassExpression, *_CARDINALITY)
ObjectExactCardinality = _node("ObjectExactCardinality", ClassExpression, *_CARDINALITY)
# Any data-property restriction, kept opaque behind a kind tag: its keyword.
_ONE_DATA_PROPERTY = DATA_PROPERTY.times(1, 1)
DataRestriction = _node(
    "DataRestriction", ClassExpression, ("kind", TEXT), ("props", DATA_PROPERTY.times(1)),
    ("range", DATA_RANGE.or_none()), ("value", LITERAL.or_none()), ("n", INTEGER.or_none()),
    keyword=None, forms={
        **{kw: (kw, (("props", LEADING_DATA_PROPERTIES), ("range", DATA_RANGE)))
           for kw in ("DataSomeValuesFrom", "DataAllValuesFrom")},
        "DataHasValue": ("DataHasValue", (("props", _ONE_DATA_PROPERTY), ("value", LITERAL))),
        **{kw: (kw, (("n", INTEGER), ("props", _ONE_DATA_PROPERTY),
                     ("range", DATA_RANGE.or_none())))
           for kw in ("DataMinCardinality", "DataMaxCardinality", "DataExactCardinality")},
    })

# Axioms, by KB category --------------------------------------------------------------

_T, _R, _A, _N = Category.TBOX, Category.RBOX, Category.ABOX, Category.NON_LOGICAL
_CES = CE.times(2)
_OPES = OPE.times(2)
_DATA_PROPERTIES = DATA_PROPERTY.times(2)
_INDIVIDUALS = INDIVIDUAL.times(2)

SubClassOf = _node("SubClassOf", Axiom, ("sub", CE), ("sup", CE), category=_T)
EquivalentClasses = _node("EquivalentClasses", Axiom, ("operands", _CES), category=_T)
DisjointClasses = _node("DisjointClasses", Axiom, ("operands", _CES), category=_T)
DisjointUnion = _node("DisjointUnion", Axiom, ("cls", CLASS_IRI), ("operands", _CES),
                      category=_T)
HasKey = _node("HasKey", Axiom, ("ce", CE), ("object_props", OPE.times(0, paren=True)),
               ("data_props", DATA_PROPERTY.times(0, paren=True)), category=_T,
               check=lambda v: "" if v[1] or v[2] else "HasKey needs at least one key property")
DatatypeDefinition = _node("DatatypeDefinition", Axiom, ("datatype", DATATYPE_IRI),
                           ("range", DATA_RANGE), category=_T)

SubObjectPropertyOf = _node("SubObjectPropertyOf", Axiom, ("sub", SUB_PROPERTY), ("sup", OPE),
                            category=_R)
EquivalentObjectProperties = _node("EquivalentObjectProperties", Axiom, ("operands", _OPES),
                                   category=_R)
DisjointObjectProperties = _node("DisjointObjectProperties", Axiom, ("operands", _OPES),
                                 category=_R)
InverseObjectProperties = _node("InverseObjectProperties", Axiom, ("first", OPE),
                                ("second", OPE), category=_R)
ObjectPropertyDomain = _node("ObjectPropertyDomain", Axiom, ("prop", OPE), ("domain", CE),
                             category=_R)
ObjectPropertyRange = _node("ObjectPropertyRange", Axiom, ("prop", OPE), ("range", CE),
                            category=_R)
FunctionalObjectProperty = _node("FunctionalObjectProperty", Axiom, ("prop", OPE), category=_R)
InverseFunctionalObjectProperty = _node("InverseFunctionalObjectProperty", Axiom,
                                        ("prop", OPE), category=_R)
ReflexiveObjectProperty = _node("ReflexiveObjectProperty", Axiom, ("prop", OPE), category=_R)
IrreflexiveObjectProperty = _node("IrreflexiveObjectProperty", Axiom, ("prop", OPE),
                                  category=_R)
SymmetricObjectProperty = _node("SymmetricObjectProperty", Axiom, ("prop", OPE), category=_R)
AsymmetricObjectProperty = _node("AsymmetricObjectProperty", Axiom, ("prop", OPE), category=_R)
TransitiveObjectProperty = _node("TransitiveObjectProperty", Axiom, ("prop", OPE), category=_R)
SubDataPropertyOf = _node("SubDataPropertyOf", Axiom, ("sub", DATA_PROPERTY),
                          ("sup", DATA_PROPERTY), category=_R)
EquivalentDataProperties = _node("EquivalentDataProperties", Axiom,
                                 ("operands", _DATA_PROPERTIES), category=_R)
DisjointDataProperties = _node("DisjointDataProperties", Axiom, ("operands", _DATA_PROPERTIES),
                               category=_R)
DataPropertyDomain = _node("DataPropertyDomain", Axiom, ("prop", DATA_PROPERTY),
                           ("domain", CE), category=_R)
DataPropertyRange = _node("DataPropertyRange", Axiom, ("prop", DATA_PROPERTY),
                          ("range", DATA_RANGE), category=_R)
FunctionalDataProperty = _node("FunctionalDataProperty", Axiom, ("prop", DATA_PROPERTY),
                               category=_R)

SameIndividual = _node("SameIndividual", Axiom, ("individuals", _INDIVIDUALS), category=_A)
DifferentIndividuals = _node("DifferentIndividuals", Axiom, ("individuals", _INDIVIDUALS),
                             category=_A)
ClassAssertion = _node("ClassAssertion", Axiom, ("ce", CE), ("individual", INDIVIDUAL),
                       category=_A)
_OBJECT_ASSERTION = (("prop", OPE), ("source", INDIVIDUAL), ("target", INDIVIDUAL))
ObjectPropertyAssertion = _node("ObjectPropertyAssertion", Axiom, *_OBJECT_ASSERTION,
                                category=_A)
NegativeObjectPropertyAssertion = _node("NegativeObjectPropertyAssertion", Axiom,
                                        *_OBJECT_ASSERTION, category=_A)
_DATA_ASSERTION = (("prop", DATA_PROPERTY), ("source", INDIVIDUAL), ("value", LITERAL))
DataPropertyAssertion = _node("DataPropertyAssertion", Axiom, *_DATA_ASSERTION, category=_A)
NegativeDataPropertyAssertion = _node("NegativeDataPropertyAssertion", Axiom, *_DATA_ASSERTION,
                                      category=_A)

Declaration = _node("Declaration", Axiom, ("entity", ENTITY), category=_N)
AnnotationAssertion = _node("AnnotationAssertion", Axiom, ("prop", ANNOTATION_PROPERTY),
                            ("subject", ANNOTATION_SUBJECT), ("value", ANNOTATION_VALUE),
                            category=_N)
SubAnnotationPropertyOf = _node("SubAnnotationPropertyOf", Axiom, ("sub", ANNOTATION_PROPERTY),
                                ("sup", ANNOTATION_PROPERTY), category=_N)
AnnotationPropertyDomain = _node("AnnotationPropertyDomain", Axiom,
                                 ("prop", ANNOTATION_PROPERTY), ("domain", IRI), category=_N)
AnnotationPropertyRange = _node("AnnotationPropertyRange", Axiom,
                                ("prop", ANNOTATION_PROPERTY), ("range", IRI), category=_N)
# An unrecognized construct preserved verbatim (e.g. rules).
UnknownAxiom = _node("UnknownAxiom", Axiom, ("name", TEXT), ("text", TEXT), keyword=None,
                     category=_N)

def axiom_category(axiom: Axiom) -> Category:
    """Total, deterministic TBox/RBox/ABox/NonLogical assignment."""
    spec = NODES.get(type(axiom))
    return spec.category if spec is not None and spec.category else Category.NON_LOGICAL


# ---------------------------------------------------------------------------
# Class-expression operands.

# Per node type, the (field index, how) of its class-expression fields: one
# expression, a tuple of them, or a class IRI that stands for a named class.
_ONE, _MANY, _NAMED = range(3)
_OPERANDS = {
    t: tuple((i, _MANY if s.many else _ONE) if s.kind == "ce" else (i, _NAMED)
             for i, s in enumerate(spec.shapes)
             if s.kind == "ce" or (s is CLASS_IRI and issubclass(t, Axiom)))
    for t, spec in NODES.items()}


def _operands(plan, node) -> tuple:
    out = ()
    for i, how in plan:
        v = node[i]
        if how == _MANY:
            out += v
        elif how == _NAMED:
            out += (NamedClass(v),)
        elif v is not None:
            out += (v,)
    return out


def _operand_getter(plan):
    """node -> its class-expression operands as `plan` says, with one
    itemgetter call where the operands are plain fields."""
    if len(plan) >= 2 and all(how == _ONE for _, how in plan):
        return itemgetter(*(i for i, _ in plan))
    if len(plan) == 1 and plan[0][1] == _MANY:
        return itemgetter(plan[0][0])
    return partial(_operands, plan)


_OPERAND_GETTERS = {t: _operand_getter(plan) for t, plan in _OPERANDS.items()}


# The census reads _OPERAND_GETTERS directly; these two stay for perfbench's
# traced pass, which counts model.expr_nodes with them.
def iter_nodes(e: ClassExpression) -> Iterator[ClassExpression]:
    """All nodes of an expression tree, pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_OPERAND_GETTERS[type(node)](node)))


def class_expressions_of(axiom: Axiom) -> tuple[ClassExpression, ...]:
    """Top-level class-expression operands of an axiom."""
    return _OPERAND_GETTERS[type(axiom)](axiom)


# ---------------------------------------------------------------------------
# Signature and ontology.

Signature = namedtuple("Signature", "classes object_properties data_properties individuals "
                       "datatypes annotation_properties anonymous_individuals",
                       defaults=(frozenset(),) * 7)


_ENTITY_SETS = {EntityKind.CLASS: CLASSES, EntityKind.DATATYPE: DATATYPES,
                EntityKind.OBJECT_PROPERTY: OBJECT_PROPERTIES,
                EntityKind.DATA_PROPERTY: DATA_PROPERTIES,
                EntityKind.ANNOTATION_PROPERTY: ANNOTATION_PROPERTIES,
                EntityKind.NAMED_INDIVIDUAL: INDIVIDUALS}
_CATEGORIES = tuple(Category)
# How the signature walk reads a field: one value, a tuple of values, a value
# that may be empty, a declared entity, or datatype facets.
_WALK_ONE, _WALK_MANY, _WALK_OPTIONAL, _WALK_ENTITY, _WALK_FACETS = range(5)


def _walk_plan(shape: Shape):
    """(how, signature set) for a field the signature walk reads, or None."""
    if shape.kind in ("text", "int", "entity_iri") or (shape.kind == "iri" and shape.sig is None):
        return None
    if shape.kind == "entity":
        return _WALK_ENTITY, None
    if shape.kind == "facets":
        return _WALK_FACETS, None
    how = _WALK_MANY if shape.many else _WALK_OPTIONAL if shape.optional else _WALK_ONE
    return how, shape.sig


# Per node type: its KB category index and the (field index, how, signature
# set) of each field the walk reads.
_SIGNATURE_PLANS = {
    t: (_CATEGORIES.index(spec.category or Category.NON_LOGICAL),
        tuple((i, *plan) for i, plan in enumerate(map(_walk_plan, spec.shapes)) if plan))
    for t, spec in NODES.items()}
# Node types that are one IRI or node id: it goes straight into its set.
_LEAVES = {t: spec.shapes[0].sig for t, spec in NODES.items()
           if len(spec.shapes) == 1 and not issubclass(t, Axiom)
           and spec.shapes[0].kind in ("iri", "node_id")}


def signature_walk(axioms, sets: list[set]) -> tuple[list, list, list, list]:
    """The signature walk: add every entity `axioms` mention to `sets`, in
    Signature field order, and return the axioms bucketed by category
    (TBox, RBox, ABox, non-logical).  Each node's fields are read as their
    shapes say, with an explicit stack for nested expressions and data
    ranges."""
    buckets = tuple([] for _ in _CATEGORIES)
    plans = _SIGNATURE_PLANS
    # IRIs that feed no signature set land in a set that is dropped.
    leaf_set = {t: set() if s is None else sets[s] for t, s in _LEAVES.items()}.get
    stack = []
    push = stack.append
    for ax in axioms:
        category, plan = plans[type(ax)]
        buckets[category].append(ax)
        node = ax
        while True:
            for i, how, sig in plan:
                v = node[i]
                if how == _WALK_ONE:
                    values = (v,)
                elif how == _WALK_MANY:
                    values = v
                elif how == _WALK_OPTIONAL:
                    if not v:
                        continue
                    values = (v,)
                elif how == _WALK_ENTITY:
                    sets[_ENTITY_SETS[v.kind]].add(v.iri)
                    continue
                else:  # _WALK_FACETS
                    stack.extend(literal for _, literal in v)
                    continue
                for x in values:
                    if type(x) is str:
                        sets[sig].add(x)
                    else:
                        target = leaf_set(type(x))
                        if target is None:
                            push(x)
                        else:
                            target.add(x[0])
            if not stack:
                break
            node = stack.pop()
            plan = plans[type(node)][1]
    return buckets


class Record:
    """Base of a plain record: equal to a record of its own type whose fields
    named in `_fields` are equal, and shown by them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A record whose __init__ fills its __dict__ once: setting or deleting an
    attribute raises AttributeError, and it hashes as its `_fields` values."""

    __slots__ = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())


class Ontology(FrozenRecord):
    """A parsed knowledge base: its axioms, header, signature and census."""

    _fields = ("axioms", "iri", "version_iri", "imports", "annotations")

    def __init__(self, axioms: tuple[Axiom, ...], iri: str | None = None,
                 version_iri: str | None = None, imports: tuple[str, ...] = (),
                 annotations: tuple[OntologyAnnotation, ...] = ()):
        """Fold the axioms into one `census.Summary`, as one batch, for the
        signature and the census."""
        from .census import Summary  # census imports this module

        summary = Summary()
        summary.add(axioms)
        summary.finish(annotations)
        vars(self).update(axioms=axioms, iri=iri, version_iri=version_iri, imports=imports,
                          annotations=annotations, signature=summary.signature,
                          census=summary.census)
