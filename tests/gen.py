"""Seeded random ontology generator over a constrained grammar.

Small signatures, bounded expression depth, every logical axiom type
reachable; all IRIs live in one example namespace so consistent renaming is
trivial.  With `every_form=True` the generator also builds the non-logical
axiom forms, every data range constructor and every data restriction kind;
without it, a seed draws exactly the stream it always has, because the
benchmark corpora are built from it.
"""

import random

from ontoprof.model import (
    AnnotationAssertion, AnnotationPropertyDomain, AnnotationPropertyRange,
    AnonymousIndividual, AsymmetricObjectProperty, ClassAssertion, DataComplementOf,
    DataIntersectionOf, DataOneOf, DataPropertyAssertion, DataPropertyDomain,
    DataPropertyRange, DataRestriction, DataUnionOf, DatatypeDefinition,
    DatatypeRef, DatatypeRestriction, Declaration, DifferentIndividuals,
    DisjointClasses, DisjointDataProperties, DisjointObjectProperties,
    DisjointUnion, Entity, EntityKind, EquivalentClasses, EquivalentDataProperties,
    EquivalentObjectProperties, FunctionalDataProperty, FunctionalObjectProperty,
    HasKey, InverseFunctionalObjectProperty, InverseObjectProperties, IriRef,
    IrreflexiveObjectProperty, Literal, NamedClass, NegativeDataPropertyAssertion,
    NegativeObjectPropertyAssertion, ObjectAllValuesFrom, ObjectComplementOf,
    ObjectExactCardinality, ObjectHasSelf, ObjectHasValue, ObjectIntersectionOf,
    ObjectInverseOf, ObjectMaxCardinality, ObjectMinCardinality, ObjectOneOf,
    ObjectPropertyAssertion, ObjectPropertyDomain, ObjectPropertyRange,
    ObjectSomeValuesFrom, ObjectUnionOf, Ontology, PropertyChain,
    ReflexiveObjectProperty, SameIndividual, SubAnnotationPropertyOf, SubClassOf,
    SubDataPropertyOf, SubObjectPropertyOf, SymmetricObjectProperty,
    TransitiveObjectProperty, UnknownAxiom,
)

NS = "http://example.org/gen#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
# Fixed pools for the every-form axioms, so they take no draws of their own.
USER_DATATYPES = [NS + "dt0", NS + "dt1"]
ANNOTATION_PROPERTIES = [NS + "note", NS + "source"]
FACETS = [XSD_NS + "minInclusive", XSD_NS + "maxExclusive", XSD_NS + "length"]
DATA_RESTRICTIONS = ("DataSomeValuesFrom", "DataAllValuesFrom", "DataHasValue",
                     "DataMinCardinality", "DataMaxCardinality", "DataExactCardinality")


class Vocabulary:
    def __init__(self, rng: random.Random):
        self.classes = [NS + f"C{i}" for i in range(rng.randint(2, 8))]
        self.props = [NS + f"p{i}" for i in range(rng.randint(1, 5))]
        self.dprops = [NS + f"d{i}" for i in range(rng.randint(1, 3))]
        self.individuals = [NS + f"i{i}" for i in range(rng.randint(1, 6))]
        self.datatypes = [XSD_NS + n for n in ("string", "integer", "boolean")]


def _cls(rng, vocab) -> NamedClass:
    return NamedClass(rng.choice(vocab.classes))


def _ope(rng, vocab):
    prop = rng.choice(vocab.props)
    return ObjectInverseOf(prop) if rng.random() < 0.15 else prop


def _individual(rng, vocab):
    if rng.random() < 0.1:
        return AnonymousIndividual(f"b{rng.randint(0, 3)}")
    return rng.choice(vocab.individuals)


def _literal(rng, vocab) -> Literal:
    if rng.random() < 0.5:
        return Literal(str(rng.randint(0, 9)), datatype=rng.choice(vocab.datatypes))
    return Literal("v" + str(rng.randint(0, 9)))


def random_expression(rng, vocab, depth: int, every_form: bool = False):
    if depth <= 0 or rng.random() < 0.45:
        return _cls(rng, vocab)
    kind = rng.randint(0, 11)
    if kind == 0:
        ops = tuple(random_expression(rng, vocab, depth - 1, every_form)
                    for _ in range(rng.randint(2, 3)))
        return ObjectIntersectionOf(ops)
    if kind == 1:
        ops = tuple(random_expression(rng, vocab, depth - 1, every_form)
                    for _ in range(rng.randint(2, 3)))
        return ObjectUnionOf(ops)
    if kind == 2:
        return ObjectComplementOf(random_expression(rng, vocab, depth - 1, every_form))
    if kind == 3:
        return ObjectOneOf(tuple(_individual(rng, vocab)
                                 for _ in range(rng.randint(1, 3))))
    if kind == 4:
        return ObjectSomeValuesFrom(_ope(rng, vocab),
                                    random_expression(rng, vocab, depth - 1, every_form))
    if kind == 5:
        return ObjectAllValuesFrom(_ope(rng, vocab),
                                   random_expression(rng, vocab, depth - 1, every_form))
    if kind == 6:
        return ObjectHasValue(_ope(rng, vocab), _individual(rng, vocab))
    if kind == 7:
        return ObjectHasSelf(_ope(rng, vocab))
    if kind in (8, 9, 10):
        cls = (ObjectMinCardinality, ObjectMaxCardinality, ObjectExactCardinality)[kind - 8]
        filler = None
        if rng.random() < 0.6:
            filler = random_expression(rng, vocab, depth - 1, every_form)
        return cls(rng.randint(0, 5), _ope(rng, vocab), filler)
    restriction = rng.choice(DATA_RESTRICTIONS if every_form else DATA_RESTRICTIONS[:4])
    prop = rng.choice(vocab.dprops)
    if restriction == "DataHasValue":
        return DataRestriction(kind=restriction, props=(prop,), value=_literal(rng, vocab))
    if restriction in DATA_RESTRICTIONS[3:]:
        rng_part = _data_range(rng, vocab, every_form) if rng.random() < 0.5 else None
        return DataRestriction(kind=restriction, props=(prop,), range=rng_part,
                               n=rng.randint(0, 3))
    props = (prop,)
    if every_form and rng.random() < 0.3:
        props = tuple(sorted({prop, rng.choice(vocab.dprops)}))
    return DataRestriction(kind=restriction, props=props,
                           range=_data_range(rng, vocab, every_form))


def _data_range(rng, vocab, every_form: bool):
    if every_form:
        return random_data_range(rng, vocab, 2)
    return DatatypeRef(rng.choice(vocab.datatypes))


def random_data_range(rng, vocab, depth: int):
    """Any data range constructor, nested up to `depth` levels."""
    kind = rng.randint(0, 5) if depth > 0 else 0
    if kind == 0:
        return DatatypeRef(rng.choice(vocab.datatypes + USER_DATATYPES))
    if kind in (1, 2):
        cls = DataIntersectionOf if kind == 1 else DataUnionOf
        return cls(tuple(random_data_range(rng, vocab, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    if kind == 3:
        return DataComplementOf(random_data_range(rng, vocab, depth - 1))
    if kind == 4:
        return DataOneOf(tuple(_literal(rng, vocab) for _ in range(rng.randint(1, 3))))
    facets = tuple((rng.choice(FACETS),
                    Literal(str(rng.randint(0, 9)), datatype=XSD_NS + "integer"))
                   for _ in range(rng.randint(1, 2)))
    return DatatypeRestriction(rng.choice(vocab.datatypes + USER_DATATYPES), facets)


def _annotation_subject(rng, vocab):
    if rng.random() < 0.3:
        return AnonymousIndividual(f"b{rng.randint(0, 3)}")
    return IriRef(rng.choice(vocab.classes))


def _annotation_value(rng, vocab):
    pick = rng.randint(0, 3)
    if pick == 0:
        return IriRef(rng.choice(vocab.individuals))
    if pick == 1:
        return AnonymousIndividual(f"b{rng.randint(0, 3)}")
    if pick == 2:
        return Literal("v" + str(rng.randint(0, 9)), language=rng.choice(("en", "de-CH")))
    return _literal(rng, vocab)


# The axiom forms only `every_form` builds: (rng, vocab, depth) -> axiom.
_EVERY_FORM_AXIOMS = (
    lambda rng, vocab, depth: DatatypeDefinition(rng.choice(USER_DATATYPES),
                                                 random_data_range(rng, vocab, depth)),
    lambda rng, vocab, depth: SubDataPropertyOf(rng.choice(vocab.dprops),
                                                rng.choice(vocab.dprops)),
    lambda rng, vocab, depth: EquivalentDataProperties(
        tuple(rng.choice(vocab.dprops) for _ in range(rng.randint(2, 3)))),
    lambda rng, vocab, depth: DisjointDataProperties(
        tuple(rng.choice(vocab.dprops) for _ in range(rng.randint(2, 3)))),
    lambda rng, vocab, depth: NegativeDataPropertyAssertion(
        rng.choice(vocab.dprops), _individual(rng, vocab), _literal(rng, vocab)),
    lambda rng, vocab, depth: SubAnnotationPropertyOf(rng.choice(ANNOTATION_PROPERTIES),
                                                      rng.choice(ANNOTATION_PROPERTIES)),
    lambda rng, vocab, depth: AnnotationPropertyDomain(rng.choice(ANNOTATION_PROPERTIES),
                                                       rng.choice(vocab.classes)),
    lambda rng, vocab, depth: AnnotationPropertyRange(rng.choice(ANNOTATION_PROPERTIES),
                                                      XSD_NS + "string"),
    lambda rng, vocab, depth: AnnotationAssertion(rng.choice(ANNOTATION_PROPERTIES),
                                                  _annotation_subject(rng, vocab),
                                                  _annotation_value(rng, vocab)),
    lambda rng, vocab, depth: UnknownAxiom(
        "DLSafeRule", f"DLSafeRule(Body(ClassAtom(<{rng.choice(vocab.classes)}> "
                      f"Variable(<{NS}x>))) Head())"),
)


def random_axiom(rng, vocab, every_form: bool = False):
    kind = rng.randint(0, 25 + len(_EVERY_FORM_AXIOMS) if every_form else 25)
    depth = rng.randint(0, 3)
    if kind <= 4:
        return SubClassOf(random_expression(rng, vocab, depth, every_form),
                          random_expression(rng, vocab, depth, every_form))
    if kind == 5:
        return EquivalentClasses(tuple(random_expression(rng, vocab, depth, every_form)
                                       for _ in range(rng.randint(2, 3))))
    if kind == 6:
        return DisjointClasses(tuple(random_expression(rng, vocab, depth, every_form)
                                     for _ in range(rng.randint(2, 3))))
    if kind == 7:
        return DisjointUnion(rng.choice(vocab.classes),
                             tuple(random_expression(rng, vocab, 1, every_form)
                                   for _ in range(2)))
    if kind == 8:
        if rng.random() < 0.3:
            chain = PropertyChain(tuple(_ope(rng, vocab) for _ in range(2)))
            return SubObjectPropertyOf(chain, _ope(rng, vocab))
        return SubObjectPropertyOf(_ope(rng, vocab), _ope(rng, vocab))
    if kind == 9:
        return EquivalentObjectProperties(tuple(_ope(rng, vocab) for _ in range(2)))
    if kind == 10:
        return InverseObjectProperties(_ope(rng, vocab), _ope(rng, vocab))
    if kind == 11:
        return ObjectPropertyDomain(_ope(rng, vocab),
                                    random_expression(rng, vocab, depth, every_form))
    if kind == 12:
        return ObjectPropertyRange(_ope(rng, vocab),
                                   random_expression(rng, vocab, depth, every_form))
    if kind == 13:
        cls = rng.choice((FunctionalObjectProperty, InverseFunctionalObjectProperty,
                          ReflexiveObjectProperty, IrreflexiveObjectProperty,
                          SymmetricObjectProperty, AsymmetricObjectProperty,
                          TransitiveObjectProperty))
        return cls(_ope(rng, vocab))
    if kind == 14:
        return DisjointObjectProperties(tuple(_ope(rng, vocab) for _ in range(2)))
    if kind == 15:
        return DataPropertyDomain(rng.choice(vocab.dprops),
                                  random_expression(rng, vocab, depth, every_form))
    if kind == 16:
        return DataPropertyRange(rng.choice(vocab.dprops),
                                 _data_range(rng, vocab, every_form))
    if kind == 17:
        return FunctionalDataProperty(rng.choice(vocab.dprops))
    if kind == 18:
        return HasKey(random_expression(rng, vocab, 1, every_form),
                      tuple(_ope(rng, vocab) for _ in range(rng.randint(0, 2))),
                      tuple({rng.choice(vocab.dprops)}))
    if kind == 19:
        return ClassAssertion(random_expression(rng, vocab, depth, every_form),
                              _individual(rng, vocab))
    if kind == 20:
        return ObjectPropertyAssertion(_ope(rng, vocab), _individual(rng, vocab),
                                       _individual(rng, vocab))
    if kind == 21:
        return NegativeObjectPropertyAssertion(_ope(rng, vocab), _individual(rng, vocab),
                                               _individual(rng, vocab))
    if kind == 22:
        return DataPropertyAssertion(rng.choice(vocab.dprops), _individual(rng, vocab),
                                     _literal(rng, vocab))
    if kind == 23:
        return SameIndividual(tuple(_individual(rng, vocab)
                                    for _ in range(rng.randint(2, 3))))
    if kind > 25:
        return _EVERY_FORM_AXIOMS[kind - 26](rng, vocab, depth)
    if kind == 24:
        return DifferentIndividuals(tuple(_individual(rng, vocab)
                                          for _ in range(rng.randint(2, 3))))
    pools = (
        (EntityKind.CLASS, vocab.classes),
        (EntityKind.OBJECT_PROPERTY, vocab.props),
        (EntityKind.DATA_PROPERTY, vocab.dprops),
        (EntityKind.NAMED_INDIVIDUAL, vocab.individuals),
    )
    if every_form:
        pools += ((EntityKind.DATATYPE, USER_DATATYPES),
                  (EntityKind.ANNOTATION_PROPERTY, ANNOTATION_PROPERTIES))
    entity_kind, pool = rng.choice(pools)
    return Declaration(Entity(rng.choice(pool), entity_kind))


def random_ontology(rng: random.Random, max_axioms: int = 30,
                    every_form: bool = False) -> Ontology:
    vocab = Vocabulary(rng)
    axioms = [random_axiom(rng, vocab, every_form) for _ in range(rng.randint(0, max_axioms))]
    if rng.random() < 0.15:
        axioms.append(AnnotationAssertion(
            NS + "note", IriRef(rng.choice(vocab.classes)), _literal(rng, vocab)))
    iri = NS.rstrip("#") if rng.random() < 0.5 else None
    return Ontology(axioms=tuple(axioms), iri=iri)


def rename_ontology(o: Ontology, suffix: str = "X") -> Ontology:
    """Consistent bijective IRI renaming (example.org namespaces only, so
    reserved vocabulary is never touched)."""

    def ren(iri: str) -> str:
        return iri + suffix if iri.startswith("http://example.org/") else iri

    def ren_ind(i):
        return i if isinstance(i, AnonymousIndividual) else ren(i)

    def ren_ope(ope):
        return ObjectInverseOf(ren(ope.prop)) if isinstance(ope, ObjectInverseOf) else ren(ope)

    def ren_range(r):
        name = type(r).__name__
        if name == "DatatypeRef":
            return DatatypeRef(ren(r.iri))
        if name in ("DataIntersectionOf", "DataUnionOf"):
            return type(r)(tuple(ren_range(op) for op in r.operands))
        if name == "DataComplementOf":
            return DataComplementOf(ren_range(r.operand))
        if name == "DataOneOf":
            return r
        if name == "DatatypeRestriction":
            return DatatypeRestriction(ren(r.datatype), r.facets)
        raise TypeError(name)

    def ren_expr(e):
        name = type(e).__name__
        if name == "NamedClass":
            return NamedClass(ren(e.iri))
        if name in ("ObjectIntersectionOf", "ObjectUnionOf"):
            return type(e)(tuple(ren_expr(op) for op in e.operands))
        if name == "ObjectComplementOf":
            return ObjectComplementOf(ren_expr(e.operand))
        if name == "ObjectOneOf":
            return ObjectOneOf(tuple(ren_ind(i) for i in e.individuals))
        if name in ("ObjectSomeValuesFrom", "ObjectAllValuesFrom"):
            return type(e)(ren_ope(e.prop), ren_expr(e.filler))
        if name == "ObjectHasValue":
            return ObjectHasValue(ren_ope(e.prop), ren_ind(e.individual))
        if name == "ObjectHasSelf":
            return ObjectHasSelf(ren_ope(e.prop))
        if name in ("ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality"):
            filler = None if e.filler is None else ren_expr(e.filler)
            return type(e)(e.n, ren_ope(e.prop), filler)
        if name == "DataRestriction":
            rng_part = None if e.range is None else ren_range(e.range)
            return DataRestriction(kind=e.kind, props=tuple(ren(p) for p in e.props),
                                   range=rng_part, value=e.value, n=e.n)
        raise TypeError(name)

    def ren_axiom(ax):
        name = type(ax).__name__
        if name == "SubClassOf":
            return SubClassOf(ren_expr(ax.sub), ren_expr(ax.sup))
        if name in ("EquivalentClasses", "DisjointClasses"):
            return type(ax)(tuple(ren_expr(op) for op in ax.operands))
        if name == "DisjointUnion":
            return DisjointUnion(ren(ax.cls), tuple(ren_expr(op) for op in ax.operands))
        if name == "SubObjectPropertyOf":
            if isinstance(ax.sub, PropertyChain):
                sub = PropertyChain(tuple(ren_ope(p) for p in ax.sub.operands))
            else:
                sub = ren_ope(ax.sub)
            return SubObjectPropertyOf(sub, ren_ope(ax.sup))
        if name in ("EquivalentObjectProperties", "DisjointObjectProperties"):
            return type(ax)(tuple(ren_ope(p) for p in ax.operands))
        if name == "InverseObjectProperties":
            return InverseObjectProperties(ren_ope(ax.first), ren_ope(ax.second))
        if name in ("ObjectPropertyDomain",):
            return ObjectPropertyDomain(ren_ope(ax.prop), ren_expr(ax.domain))
        if name in ("ObjectPropertyRange",):
            return ObjectPropertyRange(ren_ope(ax.prop), ren_expr(ax.range))
        if name in ("FunctionalObjectProperty", "InverseFunctionalObjectProperty",
                    "ReflexiveObjectProperty", "IrreflexiveObjectProperty",
                    "SymmetricObjectProperty", "AsymmetricObjectProperty",
                    "TransitiveObjectProperty"):
            return type(ax)(ren_ope(ax.prop))
        if name == "DataPropertyDomain":
            return DataPropertyDomain(ren(ax.prop), ren_expr(ax.domain))
        if name == "DataPropertyRange":
            return DataPropertyRange(ren(ax.prop), ren_range(ax.range))
        if name == "FunctionalDataProperty":
            return FunctionalDataProperty(ren(ax.prop))
        if name == "HasKey":
            return HasKey(ren_expr(ax.ce), tuple(ren_ope(p) for p in ax.object_props),
                          tuple(ren(p) for p in ax.data_props))
        if name in ("SameIndividual", "DifferentIndividuals"):
            return type(ax)(tuple(ren_ind(i) for i in ax.individuals))
        if name == "ClassAssertion":
            return ClassAssertion(ren_expr(ax.ce), ren_ind(ax.individual))
        if name in ("ObjectPropertyAssertion", "NegativeObjectPropertyAssertion"):
            return type(ax)(ren_ope(ax.prop), ren_ind(ax.source), ren_ind(ax.target))
        if name == "DataPropertyAssertion":
            return DataPropertyAssertion(ren(ax.prop), ren_ind(ax.source), ax.value)
        if name == "NegativeDataPropertyAssertion":
            return type(ax)(ren(ax.prop), ren_ind(ax.source), ax.value)
        if name == "SubDataPropertyOf":
            return type(ax)(ren(ax.sub), ren(ax.sup))
        if name == "EquivalentDataProperties" or name == "DisjointDataProperties":
            return type(ax)(tuple(ren(p) for p in ax.operands))
        if name == "DatatypeDefinition":
            return type(ax)(ren(ax.datatype), ren_range(ax.range))
        if name == "SubAnnotationPropertyOf":
            return type(ax)(ren(ax.sub), ren(ax.sup))
        if name == "AnnotationPropertyDomain":
            return type(ax)(ren(ax.prop), ren(ax.domain))
        if name == "AnnotationPropertyRange":
            return type(ax)(ren(ax.prop), ren(ax.range))
        if name == "UnknownAxiom":
            return ax
        if name == "Declaration":
            return Declaration(Entity(ren(ax.entity.iri), ax.entity.kind))
        if name == "AnnotationAssertion":
            subject = (ax.subject if isinstance(ax.subject, AnonymousIndividual)
                       else IriRef(ren(ax.subject.iri)))
            value = IriRef(ren(ax.value.iri)) if isinstance(ax.value, IriRef) else ax.value
            return AnnotationAssertion(ren(ax.prop), subject, value)
        raise TypeError(name)

    return Ontology(axioms=tuple(ren_axiom(ax) for ax in o.axioms), iri=o.iri,
                    version_iri=o.version_iri, imports=o.imports,
                    annotations=o.annotations)
