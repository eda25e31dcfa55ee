"""Canonical functional-style serialization of the ontology model.

The output always carries the four standard prefix declarations, one axiom
per line, and abbreviates IRIs only within those namespaces, so identical
models produce identical bytes.
"""

from __future__ import annotations

import re

from .model import (
    OWL, RDF, RDFS, XSD, CHARACTERISTIC_AXIOMS,
    AnnotationAssertion, AnnotationPropertyDomain, AnnotationPropertyRange,
    AnonymousIndividual, Axiom, ClassAssertion, ClassExpression,
    DataComplementOf, DataIntersectionOf, DataOneOf, DataPropertyAssertion,
    DataPropertyDomain, DataPropertyRange, DataRange, DataRestriction,
    DataUnionOf, DatatypeDefinition, DatatypeRef, DatatypeRestriction,
    Declaration, DifferentIndividuals, DisjointClasses, DisjointDataProperties,
    DisjointObjectProperties, DisjointUnion, EquivalentClasses,
    EquivalentDataProperties, EquivalentObjectProperties, FunctionalDataProperty,
    HasKey, Individual, InverseObjectProperties, IriRef, Literal, NamedClass,
    NegativeDataPropertyAssertion, NegativeObjectPropertyAssertion,
    ObjectAllValuesFrom, ObjectComplementOf, ObjectExactCardinality,
    ObjectHasSelf, ObjectHasValue, ObjectIntersectionOf, ObjectInverseOf,
    ObjectMaxCardinality, ObjectMinCardinality, ObjectOneOf,
    ObjectPropertyAssertion, ObjectPropertyDomain, ObjectPropertyExpression,
    ObjectPropertyRange, ObjectSomeValuesFrom, ObjectUnionOf, Ontology,
    PropertyChain, SameIndividual, SubAnnotationPropertyOf, SubClassOf,
    SubDataPropertyOf, SubObjectPropertyOf, UnknownAxiom,
)

_PREFIX_ORDER = (("owl:", OWL), ("rdf:", RDF), ("rdfs:", RDFS), ("xsd:", XSD))
_SAFE_LOCAL = re.compile(r"[A-Za-z0-9_.\-]*\Z")

def _iri(iri: str) -> str:
    for prefix, base in _PREFIX_ORDER:
        if iri.startswith(base):
            local = iri[len(base):]
            if _SAFE_LOCAL.match(local):
                return prefix + local
    return f"<{iri}>"


def _individual(ind: Individual) -> str:
    if isinstance(ind, AnonymousIndividual):
        return f"_:{ind.node_id}"
    return _iri(ind)


def _literal(lit: Literal) -> str:
    escaped = lit.lexical.replace("\\", "\\\\").replace('"', '\\"')
    if lit.datatype:
        return f'"{escaped}"^^{_iri(lit.datatype)}'
    if lit.language:
        return f'"{escaped}"@{lit.language}'
    return f'"{escaped}"'


def _ope(prop: ObjectPropertyExpression) -> str:
    if isinstance(prop, ObjectInverseOf):
        return f"ObjectInverseOf({_iri(prop.prop)})"
    return _iri(prop)


def _data_range(dr: DataRange) -> str:
    if isinstance(dr, DatatypeRef):
        return _iri(dr.iri)
    if isinstance(dr, DataIntersectionOf):
        return "DataIntersectionOf(" + " ".join(_data_range(o) for o in dr.operands) + ")"
    if isinstance(dr, DataUnionOf):
        return "DataUnionOf(" + " ".join(_data_range(o) for o in dr.operands) + ")"
    if isinstance(dr, DataComplementOf):
        return f"DataComplementOf({_data_range(dr.operand)})"
    if isinstance(dr, DataOneOf):
        return "DataOneOf(" + " ".join(_literal(l) for l in dr.literals) + ")"
    if isinstance(dr, DatatypeRestriction):
        facets = " ".join(f"{_iri(f)} {_literal(v)}" for f, v in dr.facets)
        return f"DatatypeRestriction({_iri(dr.datatype)} {facets})"
    raise TypeError(f"unknown data range: {dr!r}")


def _ce(e: ClassExpression) -> str:
    if isinstance(e, NamedClass):
        return _iri(e.iri)
    if isinstance(e, ObjectIntersectionOf):
        return "ObjectIntersectionOf(" + " ".join(_ce(o) for o in e.operands) + ")"
    if isinstance(e, ObjectUnionOf):
        return "ObjectUnionOf(" + " ".join(_ce(o) for o in e.operands) + ")"
    if isinstance(e, ObjectComplementOf):
        return f"ObjectComplementOf({_ce(e.operand)})"
    if isinstance(e, ObjectOneOf):
        return "ObjectOneOf(" + " ".join(_individual(i) for i in e.individuals) + ")"
    if isinstance(e, ObjectSomeValuesFrom):
        return f"ObjectSomeValuesFrom({_ope(e.prop)} {_ce(e.filler)})"
    if isinstance(e, ObjectAllValuesFrom):
        return f"ObjectAllValuesFrom({_ope(e.prop)} {_ce(e.filler)})"
    if isinstance(e, ObjectHasValue):
        return f"ObjectHasValue({_ope(e.prop)} {_individual(e.individual)})"
    if isinstance(e, ObjectHasSelf):
        return f"ObjectHasSelf({_ope(e.prop)})"
    if isinstance(e, (ObjectMinCardinality, ObjectMaxCardinality, ObjectExactCardinality)):
        parts = [str(e.n), _ope(e.prop)]
        if e.filler is not None:
            parts.append(_ce(e.filler))
        return f"{type(e).__name__}(" + " ".join(parts) + ")"
    if isinstance(e, DataRestriction):
        parts = []
        if e.n is not None:
            parts.append(str(e.n))
        parts.extend(_iri(p) for p in e.props)
        if e.value is not None:
            parts.append(_literal(e.value))
        if e.range is not None:
            parts.append(_data_range(e.range))
        return f"{e.kind}(" + " ".join(parts) + ")"
    raise TypeError(f"unknown class expression: {e!r}")


def _annotation_value(value) -> str:
    if isinstance(value, IriRef):
        return _iri(value.iri)
    if isinstance(value, Literal):
        return _literal(value)
    return _individual(value)


def _axiom(ax: Axiom) -> str:
    name = ax.axiom_type
    if isinstance(ax, SubClassOf):
        return f"SubClassOf({_ce(ax.sub)} {_ce(ax.sup)})"
    if isinstance(ax, (EquivalentClasses, DisjointClasses)):
        return f"{name}(" + " ".join(_ce(o) for o in ax.operands) + ")"
    if isinstance(ax, DisjointUnion):
        return f"DisjointUnion({_iri(ax.cls)} " + " ".join(_ce(o) for o in ax.operands) + ")"
    if isinstance(ax, SubObjectPropertyOf):
        if isinstance(ax.sub, PropertyChain):
            chain = "ObjectPropertyChain(" + " ".join(_ope(o) for o in ax.sub.operands) + ")"
            return f"SubObjectPropertyOf({chain} {_ope(ax.sup)})"
        return f"SubObjectPropertyOf({_ope(ax.sub)} {_ope(ax.sup)})"
    if isinstance(ax, (EquivalentObjectProperties, DisjointObjectProperties)):
        return f"{name}(" + " ".join(_ope(o) for o in ax.operands) + ")"
    if isinstance(ax, InverseObjectProperties):
        return f"InverseObjectProperties({_ope(ax.first)} {_ope(ax.second)})"
    if isinstance(ax, ObjectPropertyDomain):
        return f"ObjectPropertyDomain({_ope(ax.prop)} {_ce(ax.domain)})"
    if isinstance(ax, ObjectPropertyRange):
        return f"ObjectPropertyRange({_ope(ax.prop)} {_ce(ax.range)})"
    if type(ax) in CHARACTERISTIC_AXIOMS.values():
        return f"{name}({_ope(ax.prop)})"
    if isinstance(ax, SubDataPropertyOf):
        return f"SubDataPropertyOf({_iri(ax.sub)} {_iri(ax.sup)})"
    if isinstance(ax, (EquivalentDataProperties, DisjointDataProperties)):
        return f"{name}(" + " ".join(_iri(o) for o in ax.operands) + ")"
    if isinstance(ax, DataPropertyDomain):
        return f"DataPropertyDomain({_iri(ax.prop)} {_ce(ax.domain)})"
    if isinstance(ax, DataPropertyRange):
        return f"DataPropertyRange({_iri(ax.prop)} {_data_range(ax.range)})"
    if isinstance(ax, FunctionalDataProperty):
        return f"FunctionalDataProperty({_iri(ax.prop)})"
    if isinstance(ax, DatatypeDefinition):
        return f"DatatypeDefinition({_iri(ax.datatype)} {_data_range(ax.range)})"
    if isinstance(ax, HasKey):
        objs = " ".join(_ope(o) for o in ax.object_props)
        datas = " ".join(_iri(d) for d in ax.data_props)
        return f"HasKey({_ce(ax.ce)} ({objs}) ({datas}))"
    if isinstance(ax, (SameIndividual, DifferentIndividuals)):
        return f"{name}(" + " ".join(_individual(i) for i in ax.individuals) + ")"
    if isinstance(ax, ClassAssertion):
        return f"ClassAssertion({_ce(ax.ce)} {_individual(ax.individual)})"
    if isinstance(ax, (ObjectPropertyAssertion, NegativeObjectPropertyAssertion)):
        return (f"{name}({_ope(ax.prop)} {_individual(ax.source)}"
                f" {_individual(ax.target)})")
    if isinstance(ax, (DataPropertyAssertion, NegativeDataPropertyAssertion)):
        return f"{name}({_iri(ax.prop)} {_individual(ax.source)} {_literal(ax.value)})"
    if isinstance(ax, Declaration):
        return f"Declaration({ax.entity.kind.value}({_iri(ax.entity.iri)}))"
    if isinstance(ax, AnnotationAssertion):
        subject = (_individual(ax.subject) if isinstance(ax.subject, AnonymousIndividual)
                   else _iri(ax.subject.iri))
        return (f"AnnotationAssertion({_iri(ax.prop)} {subject}"
                f" {_annotation_value(ax.value)})")
    if isinstance(ax, SubAnnotationPropertyOf):
        return f"SubAnnotationPropertyOf({_iri(ax.sub)} {_iri(ax.sup)})"
    if isinstance(ax, AnnotationPropertyDomain):
        return f"AnnotationPropertyDomain({_iri(ax.prop)} {_iri(ax.domain)})"
    if isinstance(ax, AnnotationPropertyRange):
        return f"AnnotationPropertyRange({_iri(ax.prop)} {_iri(ax.range)})"
    if isinstance(ax, UnknownAxiom):
        return ax.text
    raise TypeError(f"unknown axiom: {ax!r}")


def serialize(o: Ontology) -> str:
    """Render an Ontology as canonical functional-style text."""
    lines = [f"Prefix({p}=<{base}>)" for p, base in _PREFIX_ORDER]
    header = "Ontology("
    if o.iri:
        header += f"<{o.iri}>"
        if o.version_iri:
            header += f" <{o.version_iri}>"
    lines.append(header)
    for imp in o.imports:
        lines.append(f"Import(<{imp}>)")
    for anno in o.annotations:
        lines.append(f"Annotation({_iri(anno.prop)} {_annotation_value(anno.value)})")
    for ax in o.axioms:
        lines.append(_axiom(ax))
    lines.append(")")
    return "\n".join(lines) + "\n"
