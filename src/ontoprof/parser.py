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

The source is a str, held whole, or a binary file, which the parser reads
through an `io.TextIOWrapper` as it goes, strict UTF-8 with newlines as
written, so that it holds about one window of text: the lines from the
first window whose tokens it still holds to the end of the last one lexed
(only LF ends a line, so a document without one, such as a CR-only one,
is one line and one window).  The wrapper is detached when the parse ends,
so the caller's file stays open.  A file no longer than one read, or one
that cannot be read twice, is decoded whole like a str.  Token positions are
lexed per held window (see `lexer`), and only for a window where a
diagnostic or an unknown construct needs them.  Errors take precedence
in this order wherever they are in the document: a decode error, then a
lexical error, then a syntax error; after an error the rest of the
source is lexed a window at a time, or only decoded after a lexical
error, and none of it is kept.
"""

from __future__ import annotations

import io
import sys
from collections import namedtuple

from .lexer import (_NAMES, _SKIP_RE, OntologyParseError, ParseDiagnostic, _diagnostic, _kind,
                    _token_spans, _tokenize, _unescape, _value)
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


# ---------------------------------------------------------------------------
# Parser: one routine per field shape, driven by the node table. A routine
# takes the field's shape and the index of the keyword token of the node
# being parsed, which positions its arity violations.

_new = tuple.__new__
_WINDOW = 1 << 16  # characters lexed at a time, up to the next line feed
_READ = 1 << 16  # bytes read from a file at a time
_HEAD, _BODY, _TAIL = "head", "body", "tail"  # where parse_document is


class _More(Exception):
    """The parse reached the end of the window with input left."""


# A window's first token is token `first` of the document, and `count`
# tokens lie between document offsets `start` and `stop`.
_Window = namedtuple("_Window", "first count start stop")


def decode_source(data: bytes) -> str:
    """A document's text: strict UTF-8 without a leading byte-order mark."""
    return data.decode("utf-8-sig")


class _Parser:
    def __init__(self, source, origin: str, fold):
        # The held text: text[0] starts a line of the document, at offset
        # `base` after `lines` line feeds. A str is held whole. A file is
        # read on through a text wrapper while the lexer needs more, up to
        # a line feed, so the text held ends just after one until it
        # reaches the end of the document (`done`).
        self.text, self.done, self.file = source, True, None
        if not isinstance(source, str):
            data = source.read(_READ)
            if len(data) < _READ or not source.seekable():
                # A file no longer than one read is whole already, and a pipe
                # cannot be read again for a decode error's position, so each
                # is decoded whole, as standard input is.
                self.text = decode_source(data if len(data) < _READ else data + source.read())
            else:
                source.seek(0)
                self.text, self.done = "", False
                # Newlines as written: only LF ends a line.
                self.file = io.TextIOWrapper(source, encoding="utf-8-sig", newline="\n")
                self.file._CHUNK_SIZE = _READ
        self.base = self.lines = 0
        self.origin = origin
        # The axioms parsed since `fold` was last handed a batch.
        self.axioms: list[Axiom] = []
        self.fold = fold
        # The windows whose tokens are held, and the positions of those a
        # diagnostic or an unknown construct needed, as (base, spans). The
        # held tokens' first is token `dropped` of the document, `lexed`
        # tokens have been lexed, and lexing stopped at document offset `end`.
        self.windows: list[_Window] = []
        self.spans: dict[_Window, tuple[int, list[tuple[int, int]]]] = {}
        self.dropped = self.lexed = self.end = 0
        self.size = _WINDOW
        self.tokens: list[str] = []
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

    # -- text and token plumbing --------------------------------------------

    def read(self, upto: int, start: int):
        """Read on until the held text has a line feed at or after document
        offset `upto`, or holds the rest of the document. The text before
        the line of the first held window, or of `start` if none is held,
        is dropped first."""
        text = self.text
        if self.done or text.find("\n", upto - self.base) >= 0:
            return
        keep = (self.windows[0].start if self.windows else start) - self.base
        cut = text.rfind("\n", 0, keep) + 1
        self.lines += text.count("\n", 0, cut)
        self.base += cut
        self.text = text = text[cut:]  # the dropped text goes before the read
        self.text = text + self.decode(max(upto - self.base - len(text), 0))

    def decode(self, size: int) -> str:
        """The next `size` characters of the file and the rest of the line
        of the last; `done` once the file ends. A UnicodeDecodeError is the
        one `decode_source` gives for the whole file, with its position in
        the file, so the file is decoded whole once more on that path."""
        file = self.file
        try:
            text = file.read(size)
            line = file.readline() if len(text) == size else ""
        except UnicodeDecodeError:
            self.done = True
            file.buffer.seek(0)
            decode_source(file.buffer.read())
            raise  # the file changed under the parse
        self.done = not line.endswith("\n")
        return text + line

    def lex(self, size: int) -> list[str]:
        """The tokens from offset `end` to a line feed about `size`
        characters after the first of them, then ""; moves `end` past them
        and holds their window. Held text short of the document's end ends
        just after a line feed, outside any token or comment, so a skip that
        reaches its end leaves the rest to the tokenizer."""
        start = self.base + _SKIP_RE.match(self.text, self.end - self.base).end()
        while True:
            self.read(start + size, start)
            text, base = self.text, self.base
            stop = text.find("\n", start + size - base) + 1 or len(text)
            tokens = _tokenize(text, self.origin, start - base, stop, more=not self.done,
                               lines=self.lines)
            if tokens is not None:
                break
            size *= 2  # a string literal runs on past the line feed
        self.end = base + stop
        self.windows.append(_Window(self.lexed, len(tokens) - 1, start, self.end))
        self.lexed += len(tokens) - 1
        return tokens

    def more(self, start: int):
        """Drop the tokens before `start`, where the current top-level item
        begins, and the windows that held only them, and append the next
        window, to parse the item again from its first token. The window
        doubles while that item does not fit, but not past a window of only
        whitespace and comments. The axioms completed before that item go to
        `fold` first."""
        if self.axioms:
            self.fold(self.axioms)
            self.axioms = []
        tokens = self.tokens
        self.size = 2 * self.size if start == 0 and len(tokens) > 1 else _WINDOW
        del tokens[:start]
        self.dropped += start
        windows = self.windows
        while windows and windows[0].first + windows[0].count <= self.dropped:
            self.spans.pop(windows.pop(0), None)
        tokens[-1:] = self.lex(self.size)
        self.i = 0

    def input_left(self) -> bool:
        """Whether input may be left after the last window lexed."""
        return not self.done or self.end < self.base + len(self.text)

    def at_window_end(self) -> bool:
        """Whether the parse may have read the "" that ends the window
        while input is left; it looks at most one token ahead."""
        return self.i >= len(self.tokens) - 2 and self.input_left()

    def span(self, at: int) -> tuple[int, int]:
        """The document offsets of the held token `at`; the first call for a
        window lexes the positions of that window's tokens."""
        index = self.dropped + at
        window = next(w for w in reversed(self.windows) if w.first <= index)
        found = self.spans.get(window)
        if found is None:
            base = self.base
            found = self.spans[window] = base, _token_spans(
                self.text, self.origin, window.start - base, window.stop - base)
        base, spans = found
        start, end = spans[index - window.first]
        return base + start, base + end

    def read_rest(self, error: OntologyParseError):
        """Read the rest of the document after `error`, for an error there
        that takes precedence: a decode error anywhere, and a lexical error
        after a syntax error. Lexes a window at a time and keeps none."""
        self.tokens = self.axioms = []
        self.spans.clear()
        try:
            if not error.diagnostics[0].message.startswith("lexical error"):
                while self.input_left():
                    self.windows.clear()
                    self.lex(_WINDOW)
        finally:
            while not self.done:  # decode what is left
                self.decode(_READ)

    def fail(self, message: str, at: int | None = None, kind: str = "syntax error"):
        """Raise `message` positioned at token `at`, by default the current
        one, or _More if the parse may have failed on the window's end."""
        if self.at_window_end():
            raise _More
        offset = self.span(self.i if at is None else at)[0] - self.base
        raise OntologyParseError([_diagnostic(self.text, offset, f"{kind}: {message}",
                                              self.origin, self.lines)])

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
        self.tokens = self.lex(_WINDOW)
        while True:
            tok = self.tokens[self.i]
            if not tok and self.input_left():  # the window is used up
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
        start, end = self.span(at)[0], self.span(self.i - 1)[1]
        return UnknownAxiom(name=tokens[at], text=self.text[start - self.base:end - self.base])

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


def _parse_fields(source, origin: str, fold) -> tuple:
    """The header of one functional-syntax document: IRI, version IRI,
    imports and annotations, the arguments of `Ontology` after its axioms.
    `source` is the text, or a binary file that is read and decoded a
    window at a time (the caller closes it). The axioms go to `fold` in
    batches as they are parsed (see `_Parser.more`). Raises
    OntologyParseError, or UnicodeDecodeError for a file that is not UTF-8.
    The parser, with its name memos and token window, is freed on return."""
    parser = _Parser(source, origin, fold)
    try:
        try:
            return parser.parse_document()
        except RecursionError:
            pass  # leave the except block so the deep traceback is freed first
        parser.fail("nesting is deeper than the parser's recursion limit",
                    kind="limit exceeded")
    except OntologyParseError as error:
        parser.read_rest(error)
        raise
    finally:
        if parser.file is not None:
            parser.file.detach()  # leaves the caller's file open


def parse_ontology(text: str, origin: str = "<string>") -> Ontology:
    """Parse one functional-syntax document; raises OntologyParseError."""
    axioms = []
    header = _parse_fields(text, origin, axioms.extend)
    axioms = tuple(axioms)  # the list goes before the model is built
    return Ontology(axioms, *header)
