"""Recursive-descent parser for OWL 2 functional-style syntax.

Whole-document parse into an immutable Ontology.  On any error the parser
raises OntologyParseError carrying positioned diagnostics; no partial model
is ever returned.  Unknown top-level constructs (e.g. rules) are preserved
verbatim as non-logical axioms.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .model import (
    CE, NODES, OWL, RDF, RDFS, XSD, AnonymousIndividual, Axiom, ClassExpression,
    DataRange, DatatypeRef, Entity, IriRef, Literal, NamedClass, Node, ObjectInverseOf,
    Ontology, OntologyAnnotation, PropertyChain, Shape, UnknownAxiom, shortfall,
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
# Parser: one routine per field shape, driven by the node table. A routine
# takes the field's shape and the keyword token of the node being parsed,
# which positions its arity violations.

_new = tuple.__new__


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

    def parse_ontology_annotation(self) -> OntologyAnnotation:
        return self.parse_node(self.peek(), _ANNOTATION, annotated=True)

    def skip_inline_annotations(self):
        while self.at_keyword("Annotation"):
            self.parse_ontology_annotation()

    def parse_axiom(self) -> Axiom:
        tok = self.peek()
        if tok[0] != "IDENT":
            self.fail(f"expected axiom, found {tok[1]!r}")
        form = _AXIOM_FORMS.get(tok[1])
        if form is None:
            if tok[1] in _NON_AXIOM_KEYWORDS:
                self.fail(f"{tok[1]!r} cannot appear as an axiom", tok)
            return self._unknown_construct()
        return self.parse_node(tok, form, annotated=True)

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

    # -- nodes --------------------------------------------------------------

    def parse_node(self, tok: _Tok, form, annotated: bool = False):
        """The node written `keyword(...)`, where `tok` is the keyword and the
        current token: its fields parsed step by step as the form says.
        Axioms and annotations may open with annotations, which are skipped."""
        cls, template, steps, check = form
        self.i += 1
        self.expect("LPAREN", "'('")
        if annotated:
            self.skip_inline_annotations()
        args = template.copy()
        for where, parse, shape in steps:
            args[where] = parse(self, shape, tok)
        if check is not None:
            message = check(args)
            if message:
                self.fail(message, tok, kind="arity violation")
        self.expect("RPAREN", "')'")
        return _new(cls, args)

    def parse_many(self, shape: Shape, owner: _Tok) -> tuple:
        """Values of one shape up to ')' (or `shape.maximum` of them)."""
        item = _ITEM_ROUTINES[shape.kind]
        if shape.paren:
            self.expect("LPAREN", "'('")
        tokens = self.tokens
        maximum = shape.maximum
        values = []
        while tokens[self.i][0] != "RPAREN" and len(values) != maximum:
            values.append(item(self, shape, owner))
        if len(values) < shape.minimum:
            self.fail(shortfall(owner[1], shape), owner, kind="arity violation")
        if shape.paren:
            self.expect("RPAREN", "')'")
        return tuple(values)

    def parse_optional(self, shape: Shape, owner: _Tok):
        """A trailing value, or None before ')'."""
        if self.tokens[self.i][0] == "RPAREN":
            return None
        return _ITEM_ROUTINES[shape.kind](self, shape, owner)

    def parse_name(self, shape: Shape, owner: _Tok) -> str:
        return self.parse_iri(shape.what)

    def parse_entity_iri(self, shape: Shape, owner: _Tok) -> str:
        tok = self.peek()
        iri = self.parse_iri(shape.what)
        if not iri:
            self.fail("entity IRI must be non-empty", tok)
        return iri

    def parse_integer(self, shape: Shape, owner: _Tok) -> int:
        tok = self.expect("INT", "non-negative integer")
        try:
            return int(tok[1])
        except ValueError:
            pass
        # More digits than int() converts; failing outside the handler keeps
        # the ValueError out of the diagnostic's traceback.
        self.fail(f"integer has more than {sys.get_int_max_str_digits()} digits", tok,
                  kind="limit exceeded")

    def parse_class_expression(self, shape: Shape | None = None, owner: _Tok | None = None):
        tok = self.tokens[self.i]
        kind = tok[0]
        if kind == "IRI" or kind == "PNAME":
            self.i += 1
            return _new(NamedClass, (tok[1] if kind == "IRI" else self.resolve(tok),))
        if kind != "IDENT":
            self.fail(f"expected class expression, found {tok[1]!r}")
        form = _CE_FORMS.get(tok[1])
        if form is None:
            self.fail(f"unknown class expression constructor {tok[1]!r}", tok)
        return self.parse_node(tok, form)

    def parse_object_property(self, shape: Shape | None = None, owner: _Tok | None = None):
        tok = self.tokens[self.i]
        if tok[0] == "IDENT" and tok[1] == "ObjectInverseOf":
            return self.parse_node(tok, _INVERSE)
        return self.parse_iri("object property")

    def parse_sub_property(self, shape: Shape, owner: _Tok):
        tok = self.tokens[self.i]
        if tok[0] == "IDENT" and tok[1] == "ObjectPropertyChain":
            return self.parse_node(tok, _CHAIN)
        return self.parse_object_property()

    def parse_individual(self, shape: Shape | None = None, owner: _Tok | None = None):
        tok = self.tokens[self.i]
        if tok[0] == "NODEID":
            self.i += 1
            return _new(AnonymousIndividual, (tok[1],))
        return self.parse_iri("individual")

    def parse_literal(self, shape: Shape | None = None, owner: _Tok | None = None) -> Literal:
        tok = self.expect("STRING", "literal")
        nxt = self.tokens[self.i]
        if nxt[0] == "DTMARK":
            self.i += 1
            return _new(Literal, (tok[1], self.parse_iri("datatype IRI"), None))
        if nxt[0] == "LANGTAG":
            self.i += 1
            return _new(Literal, (tok[1], None, nxt[1]))
        return _new(Literal, (tok[1], None, None))

    def parse_data_range(self, shape: Shape | None = None, owner: _Tok | None = None):
        tok = self.tokens[self.i]
        if tok[0] == "IDENT":
            form = _DATA_RANGE_FORMS.get(tok[1])
            if form is not None:
                return self.parse_node(tok, form)
        return _new(DatatypeRef, (self.parse_iri("data range"),))

    def parse_facets(self, shape: Shape, owner: _Tok) -> tuple:
        facets = []
        while self.tokens[self.i][0] != "RPAREN":
            facet = self.parse_iri("facet IRI")
            facets.append((facet, self.parse_literal()))
        if len(facets) < shape.minimum:
            self.fail(shortfall(owner[1], shape), owner, kind="arity violation")
        return tuple(facets)

    def parse_leading_iris(self, shape: Shape, owner: _Tok) -> tuple:
        """The data properties of DataSomeValuesFrom/DataAllValuesFrom: every
        IRI up to the data range, which is the last IRI when it is a bare
        datatype."""
        tokens = self.tokens
        props = [self.parse_iri(shape.what)]
        while tokens[self.i][0] in ("IRI", "PNAME") and tokens[self.i + 1][0] != "RPAREN":
            props.append(self.parse_iri(shape.what))
        if tokens[self.i][0] == "RPAREN":
            self.fail(f"{owner[1]} needs a data property and a data range", owner,
                      kind="arity violation")
        return tuple(props)

    def parse_entity(self, shape: Shape, owner: _Tok) -> Entity:
        tok = self.peek()
        form = _ENTITY_FORMS.get(tok[1]) if tok[0] == "IDENT" else None
        if form is None:
            self.fail(f"expected entity kind, found {tok[1]!r}")
        return self.parse_node(tok, form)

    def parse_annotation_subject(self, shape: Shape, owner: _Tok):
        tok = self.peek()
        if tok[0] == "NODEID":
            self.i += 1
            return _new(AnonymousIndividual, (tok[1],))
        return _new(IriRef, (self.parse_iri(shape.what),))

    def parse_annotation_value(self, shape: Shape, owner: _Tok):
        if self.peek()[0] == "STRING":
            return self.parse_literal()
        return self.parse_annotation_subject(shape, owner)


_ITEM_ROUTINES = {
    "iri": _Parser.parse_name, "entity_iri": _Parser.parse_entity_iri,
    "int": _Parser.parse_integer, "ce": _Parser.parse_class_expression,
    "ope": _Parser.parse_object_property, "sub_property": _Parser.parse_sub_property,
    "individual": _Parser.parse_individual, "literal": _Parser.parse_literal,
    "data_range": _Parser.parse_data_range, "entity": _Parser.parse_entity,
    "annotation_subject": _Parser.parse_annotation_subject,
    "annotation_value": _Parser.parse_annotation_value,
}
# Shapes whose tuple of values is written irregularly.
_FIELD_ROUTINES = {"facets": _Parser.parse_facets, "leading_iris": _Parser.parse_leading_iris}


def _steps(steps) -> tuple:
    """(where, routine, shape) per parse step. Class expressions side by side
    are read as one list, so a missing one is counted, not expected."""
    out = []
    k = 0
    while k < len(steps):
        index, shape = steps[k]
        run = k
        while (run < len(steps) and steps[run][1].kind == "ce"
               and not (steps[run][1].many or steps[run][1].optional)):
            run += 1
        if run - k >= 2:
            out.append((slice(index, index + run - k), _Parser.parse_many,
                        CE.times(run - k, run - k)))
            k = run
            continue
        routine = _FIELD_ROUTINES.get(shape.kind)
        if routine is None:
            routine = (_Parser.parse_many if shape.many else
                       _Parser.parse_optional if shape.optional else
                       _ITEM_ROUTINES[shape.kind])
        out.append((index, routine, shape))
        k += 1
    return tuple(out)


def _forms(*bases: type) -> dict:
    """keyword -> (class, argument template, steps, check) for every node
    type under `bases` that is written with a keyword."""
    forms = {}
    for cls, spec in NODES.items():
        if issubclass(cls, bases):
            for keyword, (kind, steps) in spec.forms.items():
                template = [None] * len(spec.fields)
                if kind is not None:
                    template[spec.fields.index("kind")] = kind
                forms[keyword] = (cls, template, _steps(steps), spec.check)
    return forms


_CE_FORMS = _forms(ClassExpression)
_DATA_RANGE_FORMS = _forms(DataRange)
_AXIOM_FORMS = _forms(Axiom)
_ENTITY_FORMS = _forms(Entity)
_INVERSE = _forms(ObjectInverseOf)["ObjectInverseOf"]
_CHAIN = _forms(PropertyChain)["ObjectPropertyChain"]
_ANNOTATION = _forms(OntologyAnnotation)["Annotation"]
# Keywords that are valid somewhere in the grammar but never as an axiom;
# seeing one at axiom level is a syntax error, not an unknown construct.
_NON_AXIOM_KEYWORDS = (set(_forms(Node)) - set(_AXIOM_FORMS)) | {"Prefix", "Ontology"}


def parse_ontology(text: str, origin: str = "<string>") -> Ontology:
    """Parse one functional-syntax document; raises OntologyParseError."""
    parser = _Parser(text, origin)
    try:
        return parser.parse_document()
    except RecursionError:
        pass  # leave the except block so the deep traceback is freed first
    parser.fail("nesting is deeper than the parser's recursion limit",
                kind="limit exceeded")
