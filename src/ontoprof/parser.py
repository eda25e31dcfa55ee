"""Recursive-descent parser for OWL 2 functional-style syntax.

Whole-document parse into an immutable Ontology.  On any error the parser
raises OntologyParseError carrying positioned diagnostics; no partial model
is ever returned.  Unknown top-level constructs (e.g. rules) are preserved
verbatim as non-logical axioms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    OWL, RDF, RDFS, XSD,
    AnnotationAssertion, AnnotationPropertyDomain, AnnotationPropertyRange,
    AnonymousIndividual, AsymmetricObjectProperty, Axiom, ClassAssertion,
    ClassExpression, DataComplementOf, DataIntersectionOf, DataOneOf,
    DataPropertyAssertion, DataPropertyDomain, DataPropertyRange, DataRange,
    DataRestriction, DataUnionOf, DatatypeDefinition, DatatypeRef,
    DatatypeRestriction, Declaration, DifferentIndividuals, DisjointClasses,
    DisjointDataProperties, DisjointObjectProperties, DisjointUnion, Entity,
    EntityKind, EquivalentClasses, EquivalentDataProperties,
    EquivalentObjectProperties, FunctionalDataProperty, FunctionalObjectProperty,
    HasKey, Individual, InverseFunctionalObjectProperty, InverseObjectProperties,
    IriRef, IrreflexiveObjectProperty, Literal, NamedClass,
    NegativeDataPropertyAssertion, NegativeObjectPropertyAssertion,
    ObjectAllValuesFrom, ObjectComplementOf, ObjectExactCardinality,
    ObjectHasSelf, ObjectHasValue, ObjectIntersectionOf, ObjectInverseOf,
    ObjectMaxCardinality, ObjectMinCardinality, ObjectOneOf,
    ObjectPropertyAssertion, ObjectPropertyDomain, ObjectPropertyExpression,
    ObjectPropertyRange, ObjectSomeValuesFrom, ObjectUnionOf, Ontology,
    OntologyAnnotation, PropertyChain, ReflexiveObjectProperty, SameIndividual,
    SubAnnotationPropertyOf, SubClassOf, SubDataPropertyOf, SubObjectPropertyOf,
    SymmetricObjectProperty, TransitiveObjectProperty, UnknownAxiom,
)

STANDARD_PREFIXES = {
    "owl:": OWL,
    "rdf:": RDF,
    "rdfs:": RDFS,
    "xsd:": XSD,
}


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str
    origin: str = "<string>"

    def format(self) -> str:
        return f"{self.origin}:{self.line}:{self.column}: {self.severity}: {self.message}"


class OntologyParseError(Exception):
    """Parse failure; .diagnostics holds at least one positioned error."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        super().__init__("; ".join(d.format() for d in diagnostics))
        self.diagnostics = diagnostics


def _diagnostic(text: str, offset: int, message: str, origin: str) -> ParseDiagnostic:
    """An error positioned at `offset`; line and column are 1-based and a
    column counts characters, so tabs and carriage returns count as one."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return ParseDiagnostic("error", line, column, message, origin)


# ---------------------------------------------------------------------------
# Lexer: one master regex, after the "Writing a Tokenizer" recipe of the
# `re` docs. A token is a (kind, value, start, end) tuple. Each match is one
# token plus the whitespace and comments after it, and the next match is
# tried exactly where it ended. Whitespace is exactly [ \t\r\n]: any other
# character outside a token is a lexical error. Matching is anchored rather
# than searched with finditer, because a search past a failed offset retries
# every later one, which is quadratic on a long line of unclosed '<'.

_TOKEN_RE = re.compile(r"""
    (?: (?P<LPAREN>\()
      | (?P<RPAREN>\))
      | (?P<EQUALS>=)
      | (?P<DTMARK>\^\^)
      | (?P<IRI><[^>\n]*>)
      | (?P<STRING>"[^"\\]*(?:\\["\\][^"\\]*)*")
      | (?P<LANGTAG>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
      | (?P<NODEID>_:[A-Za-z0-9_.\-]+)
      | (?P<PNAME>(?:[A-Za-z][A-Za-z0-9_.\-]*)?:[A-Za-z0-9_.\-]*)
      | (?P<IDENT>[A-Za-z][A-Za-z0-9]*)
      | (?P<INT>[0-9]+)
    ) (?:[ \t\r\n]+|\#[^\n]*)*
""", re.VERBOSE)
_SKIP_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
# A string literal up to its first invalid escape, or to the end of input.
_STRING_PREFIX_RE = re.compile(r'"[^"\\]*(?:\\["\\][^"\\]*)*')
# The value of a delimited token, without its delimiters.
_VALUE_SLICE = {"IRI": slice(1, -1), "STRING": slice(1, -1),
                "LANGTAG": slice(1, None), "NODEID": slice(2, None)}


def _unescape(raw: str) -> str:
    # Every backslash in a lexed string starts a \\ or \" escape, so the
    # \\ pairs split cleanly from the left and only \" is left inside parts.
    return "\\".join(part.replace('\\"', '"') for part in raw.split("\\\\"))


def _lexical_error(text: str, offset: int, origin: str):
    """Raise the diagnostic for the character at `offset`, where no token
    matches."""
    ch = text[offset]
    if ch == "<":
        message = "unterminated IRI"
    elif ch == '"':
        prefix_end = _STRING_PREFIX_RE.match(text, offset).end()
        message = ("unterminated string literal" if prefix_end == len(text)
                   else "invalid escape in string literal")
    elif ch == "@":
        message = "malformed language tag"
    elif text.startswith("_:", offset):
        message = "malformed anonymous individual"
    else:
        message = f"unexpected character {ch!r}"
    raise OntologyParseError([_diagnostic(text, offset, f"lexical error: {message}", origin)])


_Tok = tuple[str, str, int, int]  # (kind, value, start offset, end offset)


def _tokenize(text: str, origin: str) -> list[_Tok]:
    """All tokens of `text`, ending with an EOF token; raises
    OntologyParseError at the first character no token matches."""
    match = _TOKEN_RE.match
    pos = _SKIP_RE.match(text).end()
    size = len(text)
    tokens = []
    append = tokens.append
    while pos < size:
        m = match(text, pos)
        if m is None:
            _lexical_error(text, pos, origin)
        pos = m.end()
        kind = m.lastgroup
        start, end = m.span(kind)
        value = m[kind]
        cut = _VALUE_SLICE.get(kind)
        if cut is not None:
            value = value[cut]
            if kind == "STRING" and "\\" in value:
                value = _unescape(value)
        append((kind, value, start, end))
    append(("EOF", "", pos, pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser.

_ENTITY_KEYWORDS = {
    "Class": EntityKind.CLASS,
    "Datatype": EntityKind.DATATYPE,
    "ObjectProperty": EntityKind.OBJECT_PROPERTY,
    "DataProperty": EntityKind.DATA_PROPERTY,
    "AnnotationProperty": EntityKind.ANNOTATION_PROPERTY,
    "NamedIndividual": EntityKind.NAMED_INDIVIDUAL,
}

_DATA_RESTRICTION_KEYWORDS = {
    "DataSomeValuesFrom", "DataAllValuesFrom", "DataHasValue",
    "DataMinCardinality", "DataMaxCardinality", "DataExactCardinality",
}

_DATA_RANGE_KEYWORDS = {
    "DataIntersectionOf", "DataUnionOf", "DataComplementOf", "DataOneOf",
    "DatatypeRestriction",
}

# Keywords that are valid somewhere in the grammar but never as an axiom;
# seeing one at axiom level is a syntax error, not an unknown construct.
_NON_AXIOM_KEYWORDS = _DATA_RESTRICTION_KEYWORDS | _DATA_RANGE_KEYWORDS | set(_ENTITY_KEYWORDS) | {
    "ObjectIntersectionOf", "ObjectUnionOf", "ObjectComplementOf", "ObjectOneOf",
    "ObjectSomeValuesFrom", "ObjectAllValuesFrom", "ObjectHasValue", "ObjectHasSelf",
    "ObjectMinCardinality", "ObjectMaxCardinality", "ObjectExactCardinality",
    "ObjectInverseOf", "ObjectPropertyChain", "Prefix", "Ontology",
}


class _Parser:
    def __init__(self, text: str, origin: str):
        self.text = text
        self.origin = origin
        self.tokens = _tokenize(text, origin)
        self.i = 0
        self.prefixes = dict(STANDARD_PREFIXES)

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> _Tok:
        return self.tokens[self.i]

    def advance(self) -> _Tok:
        tok = self.tokens[self.i]
        if tok[0] != "EOF":
            self.i += 1
        return tok

    def fail(self, message: str, tok: _Tok | None = None, kind: str = "syntax error"):
        tok = tok or self.peek()
        raise OntologyParseError([_diagnostic(self.text, tok[2], f"{kind}: {message}",
                                              self.origin)])

    def expect(self, kind: str, what: str) -> _Tok:
        """Consume a token of `kind`, which is never EOF."""
        tok = self.tokens[self.i]
        if tok[0] != kind:
            self.fail(f"expected {what}, found {tok[1]!r}" if tok[0] != "EOF"
                      else f"expected {what}, found end of input")
        self.i += 1
        return tok

    def at_keyword(self, *names: str) -> bool:
        tok = self.peek()
        return tok[0] == "IDENT" and tok[1] in names

    # -- IRIs and prefixes --------------------------------------------------

    def resolve(self, tok: _Tok) -> str:
        if tok[0] == "IRI":
            return tok[1]
        name = tok[1]
        prefix, _, local = name.partition(":")
        prefix += ":"
        base = self.prefixes.get(prefix)
        if base is None:
            self.fail(f"prefix {prefix!r} is not declared", tok, kind="unresolved prefix")
        return base + local

    def parse_iri(self, what: str = "IRI") -> str:
        tok = self.tokens[self.i]
        if tok[0] not in ("IRI", "PNAME"):
            self.fail(f"expected {what}, found {tok[1]!r}")
        self.i += 1
        return self.resolve(tok)

    # -- document -----------------------------------------------------------

    def parse_document(self) -> Ontology:
        while self.at_keyword("Prefix"):
            self.parse_prefix_declaration()
        if not self.at_keyword("Ontology"):
            self.fail("expected Ontology(...) document")
        self.advance()
        self.expect("LPAREN", "'('")
        iri = version = None
        if self.peek()[0] in ("IRI", "PNAME"):
            iri = self.parse_iri("ontology IRI")
            if self.peek()[0] in ("IRI", "PNAME"):
                version = self.parse_iri("version IRI")
        imports: list[str] = []
        annotations: list[OntologyAnnotation] = []
        axioms: list[Axiom] = []
        while True:
            tok = self.peek()
            if tok[0] == "RPAREN":
                self.advance()
                break
            if tok[0] == "EOF":
                self.fail("unexpected end of input inside Ontology(...)")
            keyword = tok[1] if tok[0] == "IDENT" else None
            if keyword == "Import":
                self.advance()
                self.expect("LPAREN", "'('")
                imports.append(self.parse_iri("import IRI"))
                self.expect("RPAREN", "')'")
            elif keyword == "Annotation":
                annotations.append(self.parse_ontology_annotation())
            else:
                axioms.append(self.parse_axiom())
        tok = self.peek()
        if tok[0] != "EOF":
            self.fail(f"unexpected trailing content {tok[1]!r}")
        return Ontology(axioms=tuple(axioms), iri=iri, version_iri=version,
                        imports=tuple(imports), annotations=tuple(annotations))

    def parse_prefix_declaration(self):
        self.advance()
        self.expect("LPAREN", "'('")
        tok = self.expect("PNAME", "prefix name")
        name = tok[1]
        if not name.endswith(":"):
            self.fail("prefix declaration must end with ':'", tok)
        self.expect("EQUALS", "'='")
        target = self.expect("IRI", "full IRI")
        self.expect("RPAREN", "')'")
        self.prefixes[name] = target[1]

    # -- annotations ----------------------------------------------------------

    def parse_ontology_annotation(self) -> OntologyAnnotation:
        self.advance()  # Annotation
        self.expect("LPAREN", "'('")
        self.skip_inline_annotations()
        prop = self.parse_iri("annotation property")
        value = self.parse_annotation_value()
        self.expect("RPAREN", "')'")
        return OntologyAnnotation(prop=prop, value=value)

    def skip_inline_annotations(self):
        while self.at_keyword("Annotation"):
            self.parse_ontology_annotation()

    def parse_annotation_value(self):
        tok = self.peek()
        if tok[0] == "STRING":
            return self.parse_literal()
        if tok[0] == "NODEID":
            self.advance()
            return AnonymousIndividual(tok[1])
        return IriRef(self.parse_iri("annotation value"))

    # -- shared pieces ----------------------------------------------------------

    def parse_literal(self) -> Literal:
        tok = self.expect("STRING", "literal")
        nxt = self.peek()
        if nxt[0] == "DTMARK":
            self.advance()
            return Literal(tok[1], datatype=self.parse_iri("datatype IRI"))
        if nxt[0] == "LANGTAG":
            self.advance()
            return Literal(tok[1], language=nxt[1])
        return Literal(tok[1])

    def parse_individual(self) -> Individual:
        tok = self.peek()
        if tok[0] == "NODEID":
            self.advance()
            return AnonymousIndividual(tok[1])
        return self.parse_iri("individual")

    def parse_object_property(self) -> ObjectPropertyExpression:
        if self.at_keyword("ObjectInverseOf"):
            self.advance()
            self.expect("LPAREN", "'('")
            prop = self.parse_iri("object property")
            self.expect("RPAREN", "')'")
            return ObjectInverseOf(prop)
        return self.parse_iri("object property")

    def parse_data_range(self) -> DataRange:
        tok = self.peek()
        if tok[0] == "IDENT" and tok[1] in _DATA_RANGE_KEYWORDS:
            self.advance()
            self.expect("LPAREN", "'('")
            if tok[1] == "DataComplementOf":
                dr = DataComplementOf(self.parse_data_range())
                self.expect("RPAREN", "')'")
                return dr
            if tok[1] == "DataOneOf":
                literals = []
                while self.peek()[0] == "STRING":
                    literals.append(self.parse_literal())
                if not literals:
                    self.fail("DataOneOf needs at least one literal", tok, kind="arity violation")
                self.expect("RPAREN", "')'")
                return DataOneOf(tuple(literals))
            if tok[1] == "DatatypeRestriction":
                datatype = self.parse_iri("datatype IRI")
                facets = []
                while self.peek()[0] != "RPAREN":
                    facet = self.parse_iri("facet IRI")
                    facets.append((facet, self.parse_literal()))
                if not facets:
                    self.fail("DatatypeRestriction needs at least one facet", tok,
                              kind="arity violation")
                self.expect("RPAREN", "')'")
                return DatatypeRestriction(datatype, tuple(facets))
            operands = []
            while self.peek()[0] != "RPAREN":
                operands.append(self.parse_data_range())
            if len(operands) < 2:
                self.fail(f"{tok[1]} needs at least two operands", tok,
                          kind="arity violation")
            self.expect("RPAREN", "')'")
            cls = DataIntersectionOf if tok[1] == "DataIntersectionOf" else DataUnionOf
            return cls(tuple(operands))
        return DatatypeRef(self.parse_iri("data range"))

    # -- class expressions -------------------------------------------------------

    def parse_class_expression(self) -> ClassExpression:
        tok = self.peek()
        if tok[0] in ("IRI", "PNAME"):
            return NamedClass(self.parse_iri("class"))
        if tok[0] != "IDENT":
            self.fail(f"expected class expression, found {tok[1]!r}")
        name = tok[1]
        handler = _CE_HANDLERS.get(name)
        if name in _DATA_RESTRICTION_KEYWORDS:
            return self._parse_data_restriction(name)
        if handler is None:
            self.fail(f"unknown class expression constructor {name!r}", tok)
        self.advance()
        self.expect("LPAREN", "'('")
        result = handler(self, tok)
        self.expect("RPAREN", "')'")
        return result

    def _nary_expressions(self, tok: _Tok, minimum: int) -> tuple[ClassExpression, ...]:
        operands = []
        while self.peek()[0] != "RPAREN":
            operands.append(self.parse_class_expression())
        if len(operands) < minimum:
            self.fail(f"{tok[1]} needs at least {minimum} operands", tok,
                      kind="arity violation")
        return tuple(operands)

    def _ce_ObjectIntersectionOf(self, tok):
        return ObjectIntersectionOf(self._nary_expressions(tok, 2))

    def _ce_ObjectUnionOf(self, tok):
        return ObjectUnionOf(self._nary_expressions(tok, 2))

    def _ce_ObjectComplementOf(self, tok):
        return ObjectComplementOf(self.parse_class_expression())

    def _ce_ObjectOneOf(self, tok):
        individuals = []
        while self.peek()[0] != "RPAREN":
            individuals.append(self.parse_individual())
        if not individuals:
            self.fail("ObjectOneOf needs at least one individual", tok,
                      kind="arity violation")
        return ObjectOneOf(tuple(individuals))

    def _ce_ObjectSomeValuesFrom(self, tok):
        return ObjectSomeValuesFrom(self.parse_object_property(), self.parse_class_expression())

    def _ce_ObjectAllValuesFrom(self, tok):
        return ObjectAllValuesFrom(self.parse_object_property(), self.parse_class_expression())

    def _ce_ObjectHasValue(self, tok):
        return ObjectHasValue(self.parse_object_property(), self.parse_individual())

    def _ce_ObjectHasSelf(self, tok):
        return ObjectHasSelf(self.parse_object_property())

    def _cardinality(self, cls, tok):
        n_tok = self.expect("INT", "non-negative integer")
        prop = self.parse_object_property()
        filler = None
        if self.peek()[0] != "RPAREN":
            filler = self.parse_class_expression()
        return cls(int(n_tok[1]), prop, filler)

    def _ce_ObjectMinCardinality(self, tok):
        return self._cardinality(ObjectMinCardinality, tok)

    def _ce_ObjectMaxCardinality(self, tok):
        return self._cardinality(ObjectMaxCardinality, tok)

    def _ce_ObjectExactCardinality(self, tok):
        return self._cardinality(ObjectExactCardinality, tok)

    def _parse_data_restriction(self, name: str) -> DataRestriction:
        tok = self.advance()
        self.expect("LPAREN", "'('")
        if name in ("DataMinCardinality", "DataMaxCardinality", "DataExactCardinality"):
            n = int(self.expect("INT", "non-negative integer")[1])
            prop = self.parse_iri("data property")
            rng = None
            if self.peek()[0] != "RPAREN":
                rng = self.parse_data_range()
            self.expect("RPAREN", "')'")
            return DataRestriction(kind=name, props=(prop,), range=rng, n=n)
        if name == "DataHasValue":
            prop = self.parse_iri("data property")
            value = self.parse_literal()
            self.expect("RPAREN", "')'")
            return DataRestriction(kind=name, props=(prop,), value=value)
        # DataSomeValuesFrom / DataAllValuesFrom allow several data properties
        # followed by a data range; when the range is a bare datatype IRI it is
        # the last IRI before the closing paren.
        iris = [self.parse_iri("data property")]
        while self.peek()[0] in ("IRI", "PNAME"):
            iris.append(self.parse_iri("data property"))
        if self.peek()[0] == "RPAREN":
            if len(iris) < 2:
                self.fail(f"{name} needs a data property and a data range", tok,
                          kind="arity violation")
            props, rng = tuple(iris[:-1]), DatatypeRef(iris[-1])
        else:
            props, rng = tuple(iris), self.parse_data_range()
        self.expect("RPAREN", "')'")
        return DataRestriction(kind=name, props=props, range=rng)

    # -- axioms ----------------------------------------------------------------

    def parse_axiom(self) -> Axiom:
        tok = self.peek()
        if tok[0] != "IDENT":
            self.fail(f"expected axiom, found {tok[1]!r}")
        handler = _AX_HANDLERS.get(tok[1])
        if handler is None:
            if tok[1] in _NON_AXIOM_KEYWORDS:
                self.fail(f"{tok[1]!r} cannot appear as an axiom", tok)
            return self._unknown_construct()
        self.advance()
        self.expect("LPAREN", "'('")
        self.skip_inline_annotations()
        axiom = handler(self, tok)
        self.expect("RPAREN", "')'")
        return axiom

    def _unknown_construct(self) -> UnknownAxiom:
        name_tok = self.advance()
        open_tok = self.expect("LPAREN", "'('")
        depth = 1
        end = open_tok[3]
        while depth:
            tok = self.advance()
            if tok[0] == "EOF":
                self.fail(f"unterminated construct {name_tok[1]!r}", name_tok)
            if tok[0] == "LPAREN":
                depth += 1
            elif tok[0] == "RPAREN":
                depth -= 1
            end = tok[3]
        return UnknownAxiom(name=name_tok[1], text=self.text[name_tok[2]:end])

    def _class_operands(self, tok, minimum=2) -> tuple[ClassExpression, ...]:
        operands = []
        while self.peek()[0] != "RPAREN":
            operands.append(self.parse_class_expression())
        if len(operands) < minimum:
            self.fail(f"{tok[1]} needs at least {minimum} class expressions", tok,
                      kind="arity violation")
        return tuple(operands)

    def _property_operands(self, tok, minimum=2) -> tuple[ObjectPropertyExpression, ...]:
        operands = []
        while self.peek()[0] != "RPAREN":
            operands.append(self.parse_object_property())
        if len(operands) < minimum:
            self.fail(f"{tok[1]} needs at least {minimum} object properties", tok,
                      kind="arity violation")
        return tuple(operands)

    def _data_property_operands(self, tok, minimum=2) -> tuple[str, ...]:
        operands = []
        while self.peek()[0] != "RPAREN":
            operands.append(self.parse_iri("data property"))
        if len(operands) < minimum:
            self.fail(f"{tok[1]} needs at least {minimum} data properties", tok,
                      kind="arity violation")
        return tuple(operands)

    def _individual_operands(self, tok, minimum=2) -> tuple[Individual, ...]:
        operands = []
        while self.peek()[0] != "RPAREN":
            operands.append(self.parse_individual())
        if len(operands) < minimum:
            self.fail(f"{tok[1]} needs at least {minimum} individuals", tok,
                      kind="arity violation")
        return tuple(operands)

    # Class axioms.

    def _ax_SubClassOf(self, tok):
        operands = self._class_operands(tok, 2)
        if len(operands) != 2:
            self.fail("SubClassOf takes exactly two class expressions", tok,
                      kind="arity violation")
        return SubClassOf(operands[0], operands[1])

    def _ax_EquivalentClasses(self, tok):
        return EquivalentClasses(self._class_operands(tok, 2))

    def _ax_DisjointClasses(self, tok):
        return DisjointClasses(self._class_operands(tok, 2))

    def _ax_DisjointUnion(self, tok):
        cls = self.parse_iri("class")
        return DisjointUnion(cls, self._class_operands(tok, 2))

    # Object property axioms.

    def _ax_SubObjectPropertyOf(self, tok):
        if self.at_keyword("ObjectPropertyChain"):
            chain_tok = self.advance()
            self.expect("LPAREN", "'('")
            sub = PropertyChain(self._property_operands(chain_tok, 2))
            self.expect("RPAREN", "')'")
        else:
            sub = self.parse_object_property()
        return SubObjectPropertyOf(sub, self.parse_object_property())

    def _ax_EquivalentObjectProperties(self, tok):
        return EquivalentObjectProperties(self._property_operands(tok, 2))

    def _ax_DisjointObjectProperties(self, tok):
        return DisjointObjectProperties(self._property_operands(tok, 2))

    def _ax_InverseObjectProperties(self, tok):
        return InverseObjectProperties(self.parse_object_property(),
                                       self.parse_object_property())

    def _ax_ObjectPropertyDomain(self, tok):
        return ObjectPropertyDomain(self.parse_object_property(),
                                    self.parse_class_expression())

    def _ax_ObjectPropertyRange(self, tok):
        return ObjectPropertyRange(self.parse_object_property(),
                                   self.parse_class_expression())

    def _ax_FunctionalObjectProperty(self, tok):
        return FunctionalObjectProperty(self.parse_object_property())

    def _ax_InverseFunctionalObjectProperty(self, tok):
        return InverseFunctionalObjectProperty(self.parse_object_property())

    def _ax_ReflexiveObjectProperty(self, tok):
        return ReflexiveObjectProperty(self.parse_object_property())

    def _ax_IrreflexiveObjectProperty(self, tok):
        return IrreflexiveObjectProperty(self.parse_object_property())

    def _ax_SymmetricObjectProperty(self, tok):
        return SymmetricObjectProperty(self.parse_object_property())

    def _ax_AsymmetricObjectProperty(self, tok):
        return AsymmetricObjectProperty(self.parse_object_property())

    def _ax_TransitiveObjectProperty(self, tok):
        return TransitiveObjectProperty(self.parse_object_property())

    # Data property axioms.

    def _ax_SubDataPropertyOf(self, tok):
        return SubDataPropertyOf(self.parse_iri("data property"),
                                 self.parse_iri("data property"))

    def _ax_EquivalentDataProperties(self, tok):
        return EquivalentDataProperties(self._data_property_operands(tok, 2))

    def _ax_DisjointDataProperties(self, tok):
        return DisjointDataProperties(self._data_property_operands(tok, 2))

    def _ax_DataPropertyDomain(self, tok):
        return DataPropertyDomain(self.parse_iri("data property"),
                                  self.parse_class_expression())

    def _ax_DataPropertyRange(self, tok):
        return DataPropertyRange(self.parse_iri("data property"), self.parse_data_range())

    def _ax_FunctionalDataProperty(self, tok):
        return FunctionalDataProperty(self.parse_iri("data property"))

    # Other schema axioms.

    def _ax_DatatypeDefinition(self, tok):
        return DatatypeDefinition(self.parse_iri("datatype"), self.parse_data_range())

    def _ax_HasKey(self, tok):
        ce = self.parse_class_expression()
        self.expect("LPAREN", "'('")
        object_props = []
        while self.peek()[0] != "RPAREN":
            object_props.append(self.parse_object_property())
        self.expect("RPAREN", "')'")
        self.expect("LPAREN", "'('")
        data_props = []
        while self.peek()[0] != "RPAREN":
            data_props.append(self.parse_iri("data property"))
        self.expect("RPAREN", "')'")
        if not object_props and not data_props:
            self.fail("HasKey needs at least one key property", tok, kind="arity violation")
        return HasKey(ce, tuple(object_props), tuple(data_props))

    # Assertions.

    def _ax_SameIndividual(self, tok):
        return SameIndividual(self._individual_operands(tok, 2))

    def _ax_DifferentIndividuals(self, tok):
        return DifferentIndividuals(self._individual_operands(tok, 2))

    def _ax_ClassAssertion(self, tok):
        return ClassAssertion(self.parse_class_expression(), self.parse_individual())

    def _ax_ObjectPropertyAssertion(self, tok):
        return ObjectPropertyAssertion(self.parse_object_property(),
                                       self.parse_individual(), self.parse_individual())

    def _ax_NegativeObjectPropertyAssertion(self, tok):
        return NegativeObjectPropertyAssertion(self.parse_object_property(),
                                               self.parse_individual(),
                                               self.parse_individual())

    def _ax_DataPropertyAssertion(self, tok):
        return DataPropertyAssertion(self.parse_iri("data property"),
                                     self.parse_individual(), self.parse_literal())

    def _ax_NegativeDataPropertyAssertion(self, tok):
        return NegativeDataPropertyAssertion(self.parse_iri("data property"),
                                             self.parse_individual(), self.parse_literal())

    # Non-logical axioms.

    def _ax_Declaration(self, tok):
        kind_tok = self.peek()
        if kind_tok[0] != "IDENT" or kind_tok[1] not in _ENTITY_KEYWORDS:
            self.fail(f"expected entity kind, found {kind_tok[1]!r}")
        self.advance()
        self.expect("LPAREN", "'('")
        iri = self.parse_iri("entity IRI")
        self.expect("RPAREN", "')'")
        return Declaration(Entity(iri, _ENTITY_KEYWORDS[kind_tok[1]]))

    def _ax_AnnotationAssertion(self, tok):
        prop = self.parse_iri("annotation property")
        subject_tok = self.peek()
        if subject_tok[0] == "NODEID":
            self.advance()
            subject = AnonymousIndividual(subject_tok[1])
        else:
            subject = IriRef(self.parse_iri("annotation subject"))
        return AnnotationAssertion(prop, subject, self.parse_annotation_value())

    def _ax_SubAnnotationPropertyOf(self, tok):
        return SubAnnotationPropertyOf(self.parse_iri("annotation property"),
                                       self.parse_iri("annotation property"))

    def _ax_AnnotationPropertyDomain(self, tok):
        return AnnotationPropertyDomain(self.parse_iri("annotation property"),
                                        self.parse_iri("IRI"))

    def _ax_AnnotationPropertyRange(self, tok):
        return AnnotationPropertyRange(self.parse_iri("annotation property"),
                                       self.parse_iri("IRI"))


# Constructor and axiom keywords mapped to the methods that parse their
# arguments.
_CE_HANDLERS = {name[len("_ce_"):]: fn for name, fn in vars(_Parser).items()
                if name.startswith("_ce_")}
_AX_HANDLERS = {name[len("_ax_"):]: fn for name, fn in vars(_Parser).items()
                if name.startswith("_ax_")}


def parse_ontology(text: str, origin: str = "<string>") -> Ontology:
    """Parse one functional-syntax document; raises OntologyParseError."""
    parser = _Parser(text, origin)
    try:
        return parser.parse_document()
    except RecursionError:
        pass  # leave the except block so the deep traceback is freed first
    parser.fail("nesting is deeper than the parser's recursion limit",
                kind="limit exceeded")
