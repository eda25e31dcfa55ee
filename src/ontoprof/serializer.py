"""Canonical functional-style serialization of the ontology model.

The output always carries the four standard prefix declarations, one axiom
per line, and abbreviates IRIs only within those namespaces, so identical
models produce identical bytes.  Every node is written as the node table
says: its keyword, then its fields in syntax order, one routine per shape.
"""

from __future__ import annotations

import re

from .model import NODES, OWL, RDF, RDFS, XSD, Literal, Ontology, Shape, UnknownAxiom

_PREFIX_ORDER = (("owl:", OWL), ("rdf:", RDF), ("rdfs:", RDFS), ("xsd:", XSD))
_SAFE_LOCAL = re.compile(r"[A-Za-z0-9_.\-]*\Z")


def _iri(iri: str) -> str:
    for prefix, base in _PREFIX_ORDER:
        if iri.startswith(base):
            local = iri[len(base):]
            if _SAFE_LOCAL.match(local):
                return prefix + local
    return f"<{iri}>"


def _literal(lit: Literal) -> str:
    escaped = lit.lexical.replace("\\", "\\\\").replace('"', '\\"')
    if lit.datatype:
        return f'"{escaped}"^^{_iri(lit.datatype)}'
    if lit.language:
        return f'"{escaped}"@{lit.language}'
    return f'"{escaped}"'


def _value(value) -> str:
    """A bare IRI (a named property or individual) or a node."""
    if type(value) is str:
        return _iri(value)
    if type(value) is Literal:
        return _literal(value)
    spec = NODES[type(value)]
    if spec.keyword is None and not spec.forms:  # an IRI or node id
        return _field(spec.shapes[0], value[0])
    keyword, steps = spec.by_kind[value.kind if spec.keyword is None else None]
    parts = [_field(shape, value[i]) for i, shape in steps if value[i] is not None]
    return f"{keyword}({' '.join(parts)})"


def _facets(facets) -> str:
    return " ".join(f"{_iri(f)} {_literal(v)}" for f, v in facets)


# One routine per shape kind for a single value; the rest are nodes or IRIs.
_ONE = {"iri": _iri, "entity_iri": _iri, "leading_iris": _iri, "int": str,
        "node_id": "_:".__add__}


def _field(shape: Shape, value) -> str:
    if shape.kind == "facets":
        return _facets(value)
    one = _ONE.get(shape.kind, _value)
    if not shape.many:
        return one(value)
    text = " ".join(map(one, value))
    return f"({text})" if shape.paren else text


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
        lines.append(_value(anno))
    for ax in o.axioms:
        lines.append(ax.text if type(ax) is UnknownAxiom else _value(ax))
    lines.append(")")
    return "\n".join(lines) + "\n"
