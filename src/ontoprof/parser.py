"""Recursive-descent parser for OWL 2 functional-style syntax.

On any error the parser raises OntologyParseError carrying positioned
diagnostics.  Unknown top-level constructs (e.g. rules) are preserved
verbatim as non-logical axioms.

The text is parsed one window of about 64 K characters at a time.  The
parser hands its `fold` the axioms completed so far each time it moves to
the next window, and the rest at the end, and keeps none of them:
`parse_ontology` collects them into one immutable Ontology, a worker folds
each batch into its census and lets the axioms go, and `ontoprof check`
only counts them.  A parse error still fails the whole document, and no
partial model is ever returned.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple

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


class ParseDiagnostic(namedtuple("ParseDiagnostic", "severity line column message origin",
                                 defaults=("<string>",))):
    """One positioned message; `severity` is "error" or "warning"."""

    __slots__ = ()

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
# Lexer, after the "Writing a Tokenizer" recipe of the `re` docs. A token is
# the text it is written as: the parser reads its kind from that text and
# cuts a value out of it only where it uses one. Whitespace is exactly
# [ \t\r\n]: any other character outside a token is a lexical error.
#
# The text is lexed one window at a time, each by one findall: from the
# first token after the last window to the line feed about _WINDOW
# characters on (or to the end of the text). Each match is one token plus
# the whitespace and comments after it or, where no token matches, the
# whole rest of the window, so matches are contiguous and the scan never
# searches past a failed offset (a search that did would be quadratic on a
# long line of unclosed '<'). Only a string literal can hold a line feed,
# so a window cuts no other token; a cut literal is the rest of the window
# and lexes again in a window twice as long. A window ends in the "" of the
# end of input, and the parser retries an item that runs into it (see
# `_Parser.more`). Token offsets are needed only for a syntax error or for
# an unknown construct's text; `_token_spans` lexes the whole document
# again, with one finditer, to find them.
#
# A keyword is tried before a prefixed name, so the common case is not
# scanned twice; its lookahead sends a word that runs on into a prefixed
# name (`a.b:c`) to the prefixed-name alternative, and one that stops at
# '_', '.' or '-' without a colon to the plain keyword after it.

_TOKEN = r"""
      \( | \) | = | \^\^
    | <[^>\n]*>                                        # IRI
    | [A-Za-z][A-Za-z0-9]*(?![A-Za-z0-9_.\-:])         # keyword
    | "[^"\\]*(?:\\["\\][^"\\]*)*"                     # string literal
    | @[A-Za-z]+(?:-[A-Za-z0-9]+)*                     # language tag
    | _:[A-Za-z0-9_.\-]+                               # anonymous individual
    | (?:[A-Za-z][A-Za-z0-9_.\-]*)?:[A-Za-z0-9_.\-]*   # prefixed name
    | [A-Za-z][A-Za-z0-9]*                             # keyword before _ . -
    | [0-9]+
"""
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
_TOKEN_RE = re.compile(f"({_TOKEN}){_SKIP}", re.VERBOSE)
_TOKENS_RE = re.compile(rf"({_TOKEN}|[\s\S]+){_SKIP}", re.VERBOSE)
_SKIP_RE = re.compile(_SKIP, re.VERBOSE)
# A string literal up to its first invalid escape, or to the end of input.
_STRING_PREFIX_RE = re.compile(r'"[^"\\]*(?:\\["\\][^"\\]*)*')

# A token's kind, by its first character; a letter starts a keyword, or a
# prefixed name if the token has a colon. "" is the end of input.
_KIND_OF = {"": "EOF", "(": "LPAREN", ")": "RPAREN", "=": "EQUALS", "^": "DTMARK",
            "<": "IRI", '"': "STRING", "@": "LANGTAG", "_": "NODEID", ":": "PNAME",
            **dict.fromkeys("0123456789", "INT")}
_NAMES = ("IRI", "PNAME")


def _kind(tok: str) -> str:
    return _KIND_OF.get(tok[:1]) or ("PNAME" if ":" in tok else "IDENT")


def _unescape(raw: str) -> str:
    # Every backslash in a lexed string starts a \\ or \" escape, so the
    # \\ pairs split cleanly from the left and only \" is left inside parts.
    return "\\".join(part.replace('\\"', '"') for part in raw.split("\\\\"))


def _value(tok: str) -> str:
    """What a token stands for: a string literal's text with its escapes
    undone, and an IRI, language tag or node id without its delimiters."""
    first = tok[:1]
    if first == '"':
        tok = tok[1:-1]
        return _unescape(tok) if "\\" in tok else tok
    if first == "<":
        return tok[1:-1]
    if first == "@":
        return tok[1:]
    if first == "_":
        return tok[2:]
    return tok


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


def _tokenize(text: str, origin: str, start: int = 0,
              stop: int | None = None) -> list[str] | None:
    """The tokens of text[start:stop], then "" for the end of input; raises
    OntologyParseError at the first character no token matches. A window
    (`stop` short of the end, just after a line feed) that cuts a string
    literal gives None."""
    if stop is None:
        stop = len(text)
    tokens = _TOKENS_RE.findall(text, _SKIP_RE.match(text, start).end(), stop)
    if tokens and not _TOKEN_RE.fullmatch(tokens[-1]):
        # The last match is the rest of the window, from the failed offset.
        at = stop - len(tokens[-1])
        if text[at] == '"' and stop < len(text):
            return None
        _lexical_error(text, at, origin)
    tokens.append("")
    return tokens


def _token_spans(text: str, origin: str) -> list[tuple[int, int]]:
    """The (start, end) offsets of every token of `text`, then an empty span
    at the end of input; raises OntologyParseError at the first character
    no token matches."""
    spans = [m.span(1) for m in _TOKENS_RE.finditer(text, _SKIP_RE.match(text).end())]
    if spans and not _TOKEN_RE.fullmatch(text, *spans[-1]):
        _lexical_error(text, spans[-1][0], origin)
    spans.append((len(text), len(text)))
    return spans


# ---------------------------------------------------------------------------
# Parser: one routine per field shape, driven by the node table. A routine
# takes the field's shape and the index of the keyword token of the node
# being parsed, which positions its arity violations.

_new = tuple.__new__
_WINDOW = 1 << 16  # characters lexed at a time, up to the next line feed
_HEAD, _BODY, _TAIL = "head", "body", "tail"  # where parse_document is


class _More(Exception):
    """The parse reached the end of the window with input left."""


class _Parser:
    def __init__(self, text: str, origin: str, fold):
        self.text = text
        self.origin = origin
        # The axioms parsed since `fold` was last handed a batch.
        self.axioms: list[Axiom] = []
        self.fold = fold
        # The window's tokens; the first is token `dropped` of the document
        # and lexing stopped at offset `end`.
        self.dropped = self.end = 0
        self.size = _WINDOW
        self.tokens = self.lex(_WINDOW)
        self.i = 0
        self.prefixes = dict(STANDARD_PREFIXES)
        # IRI or prefixed-name token -> its IRI. Every prefix is declared
        # before the first name is resolved, so an entry never goes stale,
        # and a name used again shares one IRI string.
        self.iris: dict[str, str] = {}
        # IRI -> its NamedClass, so a class named again is not built again.
        # Keyed by the memo's IRI, not by a token, so that a class first
        # declared and then used keeps no second copy of its name.
        self.classes: dict[str, NamedClass] = {}
        self.spans: list[tuple[int, int]] | None = None

    # -- token plumbing -----------------------------------------------------

    def lex(self, size: int) -> list[str]:
        """The tokens from offset `end` to a line feed about `size`
        characters after the first of them, then ""; moves `end` past them."""
        text = self.text
        start = _SKIP_RE.match(text, self.end).end()
        while True:
            self.end = text.find("\n", start + size) + 1 or len(text)
            tokens = _tokenize(text, self.origin, start, self.end)
            if tokens is not None:
                return tokens
            size *= 2  # a string literal runs on past the line feed

    def more(self, start: int):
        """Drop the tokens before `start`, where the current top-level item
        begins, and append the next window, to parse the item again from
        its first token. The window doubles while that item does not fit.
        The axioms completed before that item go to `fold` first."""
        if self.axioms:
            self.fold(self.axioms)
            self.axioms = []
        self.size = 2 * self.size if start == 0 else _WINDOW
        tokens = self.tokens
        del tokens[:start]
        tokens[-1:] = self.lex(self.size)
        self.dropped += start
        self.i = 0

    def at_window_end(self) -> bool:
        """Whether the parse may have read the "" that ends the window
        while input is left; it looks at most one token ahead."""
        return self.i >= len(self.tokens) - 2 and self.end < len(self.text)

    def span(self, at: int) -> tuple[int, int]:
        """The offsets of the window's token `at`; the first call lexes the
        whole document for all of them."""
        if self.spans is None:
            self.spans = _token_spans(self.text, self.origin)
        return self.spans[self.dropped + at]

    def fail(self, message: str, at: int | None = None, kind: str = "syntax error"):
        """Raise `message` positioned at token `at`, by default the current
        one, or _More if the parse may have failed on the window's end."""
        if self.at_window_end():
            raise _More
        offset = self.span(self.i if at is None else at)[0]
        raise OntologyParseError([_diagnostic(self.text, offset, f"{kind}: {message}",
                                              self.origin)])

    def expected(self, what: str):
        tok = self.tokens[self.i]
        self.fail(f"expected {what}, found {_value(tok)!r}" if tok
                  else f"expected {what}, found end of input")

    def expect(self, token: str, what: str):
        if self.tokens[self.i] != token:
            self.expected(what)
        self.i += 1

    # -- IRIs and prefixes --------------------------------------------------

    def parse_iri(self, what: str = "IRI") -> str:
        tok = self.tokens[self.i]
        iri = self.iris.get(tok)
        if iri is None:
            iri = self.resolve(tok, what)
        self.i += 1
        return iri

    def resolve(self, tok: str, what: str) -> str:
        """The IRI the current token `tok` names, which is not yet in the memo."""
        kind = _kind(tok)
        if kind == "IRI":
            iri = tok[1:-1]
        elif kind == "PNAME":
            prefix, _, local = tok.partition(":")
            prefix += ":"
            base = self.prefixes.get(prefix)
            if base is None:
                self.fail(f"prefix {prefix!r} is not declared", kind="unresolved prefix")
            iri = base + local
        else:
            self.fail(f"expected {what}, found {_value(tok)!r}")
        self.iris[tok] = iri
        return iri

    # -- document -----------------------------------------------------------

    def parse_document(self) -> tuple:
        """The document, one top-level item at a time: a Prefix(...), the
        `Ontology(` header, then Imports, Annotations and axioms up to ')'.
        An item that fails on the window's end is parsed again with the next
        window appended, so only the window's tokens are ever held. Returns
        the header: IRI, version IRI, imports and annotations; the axioms
        have all gone to `fold`."""
        iri = version = None
        imports: list[str] = []
        annotations: list[OntologyAnnotation] = []
        stage = _HEAD
        while True:
            tok = self.tokens[self.i]
            if not tok and self.end < len(self.text):  # the window is used up
                self.more(self.i)
                continue
            start = self.i
            try:
                if stage is _BODY:
                    if tok == ")":
                        self.i += 1
                        stage = _TAIL
                    elif not tok:
                        self.fail("unexpected end of input inside Ontology(...)")
                    elif tok == "Import":
                        self.i += 1
                        self.expect("(", "'('")
                        target = self.parse_iri("import IRI")
                        self.expect(")", "')'")
                        imports.append(target)  # only once whole: it may be parsed again
                    elif tok == "Annotation":
                        annotations.append(self.parse_node(_ANNOTATION, annotated=True))
                    else:
                        self.axioms.append(self.parse_axiom())
                elif stage is _TAIL:
                    if tok:
                        self.fail(f"unexpected trailing content {_value(tok)!r}")
                    self.fold(self.axioms)
                    return iri, version, tuple(imports), tuple(annotations)
                elif tok == "Prefix":
                    self.parse_prefix_declaration()
                else:
                    iri, version = self.parse_header()
                    stage = _BODY
            except _More:
                self.more(start)
            except RecursionError:
                # Reaching the window's end deep down may overrun the limit
                # where the whole document would not.
                if not self.at_window_end():
                    raise
                self.more(start)

    def parse_header(self) -> tuple[str | None, str | None]:
        """`Ontology(` and the ontology and version IRIs, if given."""
        tokens = self.tokens
        if tokens[self.i] != "Ontology":
            self.fail("expected Ontology(...) document")
        self.i += 1
        self.expect("(", "'('")
        iri = version = None
        if _kind(tokens[self.i]) in _NAMES:
            iri = self.parse_iri("ontology IRI")
            if _kind(tokens[self.i]) in _NAMES:
                version = self.parse_iri("version IRI")
        if not tokens[self.i]:  # an IRI may follow in the next window
            self.fail("unexpected end of input inside Ontology(...)")
        return iri, version

    def parse_prefix_declaration(self):
        self.i += 1
        self.expect("(", "'('")
        name = self.tokens[self.i]
        if _kind(name) != "PNAME":
            self.expected("prefix name")
        if not name.endswith(":"):
            self.fail("prefix declaration must end with ':'")
        self.i += 1
        self.expect("=", "'='")
        target = self.tokens[self.i]
        if _kind(target) != "IRI":
            self.expected("full IRI")
        self.i += 1
        self.expect(")", "')'")
        self.prefixes[name] = target[1:-1]

    def parse_axiom(self) -> Axiom:
        tok = self.tokens[self.i]
        form = _AXIOM_FORMS.get(tok)
        if form is not None:
            return self.parse_node(form, annotated=True)
        if _kind(tok) != "IDENT":
            self.fail(f"expected axiom, found {_value(tok)!r}")
        if tok in _NON_AXIOM_KEYWORDS:
            self.fail(f"{tok!r} cannot appear as an axiom")
        return self._unknown_construct()

    def _unknown_construct(self) -> UnknownAxiom:
        tokens = self.tokens
        at = self.i
        self.i += 1
        self.expect("(", "'('")
        depth = 1
        while depth:
            tok = tokens[self.i]
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
            elif not tok:
                self.fail(f"unterminated construct {tokens[at]!r}", at)
            self.i += 1
        text = self.text[self.span(at)[0]:self.span(self.i - 1)[1]]
        return UnknownAxiom(name=tokens[at], text=text)

    # -- nodes --------------------------------------------------------------

    def parse_node(self, form, annotated: bool = False):
        """The node written `keyword(...)`, where the keyword is the current
        token: its fields parsed step by step as the form says. Axioms and
        annotations may open with annotations, which are skipped."""
        cls, template, steps, check = form
        at = self.i
        self.i += 1
        self.expect("(", "'('")
        if annotated:
            while self.tokens[self.i] == "Annotation":
                self.parse_node(_ANNOTATION, annotated=True)
        args = template.copy()
        for where, parse, shape in steps:
            args[where] = parse(self, shape, at)
        if check is not None:
            message = check(args)
            if message:
                self.fail(message, at, kind="arity violation")
        self.expect(")", "')'")
        return _new(cls, args)

    def parse_many(self, shape: Shape, owner: int) -> tuple:
        """Values of one shape up to ')' (or `shape.maximum` of them)."""
        item = _ITEM_ROUTINES[shape.kind]
        if shape.paren:
            self.expect("(", "'('")
        tokens = self.tokens
        maximum = shape.maximum
        values = []
        while tokens[self.i] != ")" and len(values) != maximum:
            values.append(item(self, shape, owner))
        if len(values) < shape.minimum:
            self.fail(shortfall(tokens[owner], shape), owner, kind="arity violation")
        if shape.paren:
            self.expect(")", "')'")
        return tuple(values)

    def parse_optional(self, shape: Shape, owner: int):
        """A trailing value, or None before ')'."""
        if self.tokens[self.i] == ")":
            return None
        return _ITEM_ROUTINES[shape.kind](self, shape, owner)

    def parse_name(self, shape: Shape, owner: int) -> str:
        return self.parse_iri(shape.what)

    def parse_entity_iri(self, shape: Shape, owner: int) -> str:
        iri = self.parse_iri(shape.what)
        if not iri:
            self.fail("entity IRI must be non-empty", self.i - 1)
        return iri

    def parse_integer(self, shape: Shape, owner: int) -> int:
        tok = self.tokens[self.i]
        if _kind(tok) != "INT":
            self.expected("non-negative integer")
        self.i += 1
        try:
            return int(tok)
        except ValueError:
            pass
        # More digits than int() converts; failing outside the handler keeps
        # the ValueError out of the diagnostic's traceback.
        self.fail(f"integer has more than {sys.get_int_max_str_digits()} digits", self.i - 1,
                  kind="limit exceeded")

    def parse_class_expression(self, shape: Shape | None = None, owner: int | None = None):
        tok = self.tokens[self.i]
        iri = self.iris.get(tok)
        if iri is None:
            form = _CE_FORMS.get(tok)
            if form is not None:
                return self.parse_node(form)
            if _kind(tok) == "IDENT":
                self.fail(f"unknown class expression constructor {tok!r}")
            iri = self.resolve(tok, "class expression")
        node = self.classes.get(iri)
        if node is None:
            node = self.classes[iri] = _new(NamedClass, (iri,))
        self.i += 1
        return node

    def parse_object_property(self, shape: Shape | None = None, owner: int | None = None):
        if self.tokens[self.i] == "ObjectInverseOf":
            return self.parse_node(_INVERSE)
        return self.parse_iri("object property")

    def parse_sub_property(self, shape: Shape, owner: int):
        if self.tokens[self.i] == "ObjectPropertyChain":
            return self.parse_node(_CHAIN)
        return self.parse_object_property()

    def parse_individual(self, shape: Shape | None = None, owner: int | None = None):
        tok = self.tokens[self.i]
        if tok[:1] == "_":
            self.i += 1
            return _new(AnonymousIndividual, (tok[2:],))
        return self.parse_iri("individual")

    def parse_literal(self, shape: Shape | None = None, owner: int | None = None) -> Literal:
        tokens = self.tokens
        tok = tokens[self.i]
        if tok[:1] != '"':
            self.expected("literal")
        lexical = tok[1:-1]
        if "\\" in lexical:
            lexical = _unescape(lexical)
        self.i += 1
        nxt = tokens[self.i]
        if nxt == "^^":
            self.i += 1
            return _new(Literal, (lexical, self.parse_iri("datatype IRI"), None))
        if nxt[:1] == "@":
            self.i += 1
            return _new(Literal, (lexical, None, nxt[1:]))
        return _new(Literal, (lexical, None, None))

    def parse_data_range(self, shape: Shape | None = None, owner: int | None = None):
        form = _DATA_RANGE_FORMS.get(self.tokens[self.i])
        if form is not None:
            return self.parse_node(form)
        return _new(DatatypeRef, (self.parse_iri("data range"),))

    def parse_facets(self, shape: Shape, owner: int) -> tuple:
        facets = []
        while self.tokens[self.i] != ")":
            facet = self.parse_iri("facet IRI")
            facets.append((facet, self.parse_literal()))
        if len(facets) < shape.minimum:
            self.fail(shortfall(self.tokens[owner], shape), owner, kind="arity violation")
        return tuple(facets)

    def parse_leading_iris(self, shape: Shape, owner: int) -> tuple:
        """The data properties of DataSomeValuesFrom/DataAllValuesFrom: every
        IRI up to the data range, which is the last IRI when it is a bare
        datatype."""
        tokens = self.tokens
        props = [self.parse_iri(shape.what)]
        while _kind(tokens[self.i]) in _NAMES and tokens[self.i + 1] != ")":
            props.append(self.parse_iri(shape.what))
        if tokens[self.i] == ")":
            self.fail(f"{tokens[owner]} needs a data property and a data range", owner,
                      kind="arity violation")
        return tuple(props)

    def parse_entity(self, shape: Shape, owner: int) -> Entity:
        tok = self.tokens[self.i]
        form = _ENTITY_FORMS.get(tok)
        if form is None:
            self.fail(f"expected entity kind, found {_value(tok)!r}")
        return self.parse_node(form)

    def parse_annotation_subject(self, shape: Shape, owner: int):
        tok = self.tokens[self.i]
        if tok[:1] == "_":
            self.i += 1
            return _new(AnonymousIndividual, (tok[2:],))
        return _new(IriRef, (self.parse_iri(shape.what),))

    def parse_annotation_value(self, shape: Shape, owner: int):
        if self.tokens[self.i][:1] == '"':
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


def decode_source(data: bytes) -> str:
    """A document's text: strict UTF-8 without a leading byte-order mark."""
    return data.decode("utf-8-sig")


def _parse_fields(text: str, origin: str, fold) -> tuple:
    """The header of one functional-syntax document: IRI, version IRI,
    imports and annotations, the arguments of `Ontology` after its axioms.
    The axioms go to `fold` in batches as they are parsed (see
    `_Parser.more`). Raises OntologyParseError. The parser, with its name
    memos and token window, is freed on return."""
    parser = _Parser(text, origin, fold)
    try:
        return parser.parse_document()
    except RecursionError:
        pass  # leave the except block so the deep traceback is freed first
    parser.fail("nesting is deeper than the parser's recursion limit",
                kind="limit exceeded")


def parse_ontology(text: str, origin: str = "<string>") -> Ontology:
    """Parse one functional-syntax document; raises OntologyParseError."""
    axioms = []
    header = _parse_fields(text, origin, axioms.extend)
    axioms = tuple(axioms)  # the list goes before the model is built
    return Ontology(axioms, *header)
