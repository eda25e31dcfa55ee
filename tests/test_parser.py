"""Parser and serializer: grammar coverage, diagnostics, round-trips."""

import gc
import io
import math
import random
import re
import string
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest

from ontoprof import OntologyParseError, extract_all, parse_ontology, parser, runner, serialize
from ontoprof.census import Summary
from ontoprof.model import (
    ANNOTATION_PROPERTIES, Signature, signature_walk,
    XSD, AnnotationAssertion, Category, DataPropertyAssertion, DataRestriction,
    Declaration, EquivalentClasses, IriRef, Literal, NamedClass,
    ObjectIntersectionOf, ObjectInverseOf, Ontology, PropertyChain,
    SubClassOf, SubObjectPropertyOf, UnknownAxiom, axiom_category,
)

import gen
import oracles
from gen import NS, random_ontology

HEADER = "Prefix(:=<http://example.org/t#>)\nOntology(\n"


def parse(body: str):
    return parse_ontology(HEADER + body + "\n)\n", origin="test.ofn")


def diagnostics_of(body: str):
    with pytest.raises(OntologyParseError) as exc:
        parse(body)
    return exc.value.diagnostics


def test_minimal_document():
    o = parse("SubClassOf(:Man :Human)")
    assert len(o.axioms) == 1
    assert o.census.category_sizes == [1, 0, 0, 0]
    ax = o.axioms[0]
    assert isinstance(ax, SubClassOf)
    assert ax.sub == NamedClass("http://example.org/t#Man")


def test_missing_operand_is_arity_violation_at_keyword():
    diags = diagnostics_of("SubClassOf(:Man)")
    assert len(diags) == 1
    assert "arity violation" in diags[0].message
    assert diags[0].line == 3
    assert diags[0].column == 1


def test_equivalent_intersection_is_one_tbox_axiom():
    o = parse("EquivalentClasses(:Man ObjectIntersectionOf(:Human :Male))")
    assert o.census.category_sizes == [1, 0, 0, 0]
    (ax,) = o.axioms
    assert axiom_category(ax) is Category.TBOX
    assert isinstance(ax, EquivalentClasses)
    inner = [op for op in ax.operands if isinstance(op, ObjectIntersectionOf)]
    assert len(inner) == 1


def test_prefix_resolution_and_unresolved_prefix():
    o = parse_ontology("Prefix(ex:=<http://x.org/>)\nOntology(SubClassOf(ex:A ex:B))")
    assert o.axioms[0].sub.iri == "http://x.org/A"
    diags = diagnostics_of("SubClassOf(miss:A :B)")
    assert "unresolved prefix" in diags[0].message
    o = parse_ontology("Prefix(:=<http://x/>)\nPrefix(p:=<http://x/>)\n"
                       "Ontology(SubClassOf(:A p:A) SubClassOf(<http://x/A> :A))")
    first, second = o.axioms
    assert first.sub == first.sup == second.sub == second.sup == NamedClass("http://x/A")
    # A prefix declared twice names the last target.
    o = parse_ontology("Prefix(p:=<http://a/>)\nPrefix(p:=<http://b/>)\n"
                       "Ontology(SubClassOf(p:A p:B))")
    assert o.axioms[0] == SubClassOf(NamedClass("http://b/A"), NamedClass("http://b/B"))


def test_standard_prefixes_predeclared():
    o = parse("DataPropertyRange(:d xsd:string)")
    assert "http://www.w3.org/2001/XMLSchema#string" in o.signature.datatypes


def test_document_order_preserved():
    o = parse("SubClassOf(:A :B)\nSubClassOf(:B :C)\nDeclaration(Class(:A))")
    types = [ax.axiom_type for ax in o.axioms]
    assert types == ["SubClassOf", "SubClassOf", "Declaration"]


def test_imports_recorded_not_resolved():
    o = parse_ontology(
        "Ontology(<http://x.org/o>\nImport(<http://x.org/other>)\nSubClassOf(<http://x.org/A> <http://x.org/B>))")
    assert o.imports == ("http://x.org/other",)
    assert len(o.axioms) == 1


def test_ontology_and_axiom_annotations():
    o = parse('Annotation(rdfs:comment "top")\n'
              'SubClassOf(Annotation(rdfs:comment "why") :A :B)\n'
              'AnnotationAssertion(rdfs:label :A "a label"@en)')
    assert len(o.annotations) == 1
    assert len(o.axioms) == 2
    assert o.census.category_sizes == [1, 0, 0, 1]


def test_anonymous_individuals_counted_separately():
    o = parse("ClassAssertion(:A _:blank1)\nSameIndividual(:i _:blank2)")
    assert o.signature.anonymous_individuals == {"blank1", "blank2"}
    assert o.signature.individuals == {"http://example.org/t#i"}


def test_chain_and_inverse_expressions():
    o = parse("SubObjectPropertyOf(ObjectPropertyChain(:p :q) :r)\n"
              "SubObjectPropertyOf(ObjectInverseOf(:p) :q)")
    first, second = o.axioms
    assert isinstance(first, SubObjectPropertyOf) and isinstance(first.sub, PropertyChain)
    assert isinstance(second.sub, ObjectInverseOf)


def test_data_restrictions_parse_opaquely():
    o = parse('SubClassOf(:A DataSomeValuesFrom(:d DataOneOf("1"^^xsd:integer "2"^^xsd:integer)))\n'
              "SubClassOf(:B DataMinCardinality(2 :d))\n"
              'SubClassOf(:C DataHasValue(:d "x"))')
    kinds = [ax.sup.kind for ax in o.axioms if isinstance(ax.sup, DataRestriction)]
    assert kinds == ["DataSomeValuesFrom", "DataMinCardinality", "DataHasValue"]


def test_haskey_and_datatype_definition():
    o = parse("HasKey(:A (:p) (:d))\n"
              "DatatypeDefinition(:Adult DatatypeRestriction(xsd:integer xsd:minInclusive \"18\"^^xsd:integer))")
    assert o.axioms[0].axiom_type == "HasKey"
    assert o.axioms[1].axiom_type == "DatatypeDefinition"


def test_unknown_construct_preserved_verbatim():
    o = parse('DLSafeRule(Body(ClassAtom(:A Variable(:x))) Head(ClassAtom(:B Variable(:x))))')
    ax = o.axioms[0]
    assert isinstance(ax, UnknownAxiom)
    assert ax.name == "DLSafeRule"
    assert ax.text.startswith("DLSafeRule(")
    assert axiom_category(ax) is Category.NON_LOGICAL
    assert o.census.category_sizes == [0, 0, 0, 1]
    # survives a serialization round-trip untouched
    again = parse_ontology(serialize(o))
    assert again == o


def test_comments_and_whitespace():
    o = parse("# a comment line\nSubClassOf(:A :B) # trailing\n")
    assert len(o.axioms) == 1


def test_determinism_same_bytes_same_model():
    text = HEADER + "SubClassOf(:A ObjectSomeValuesFrom(:r :B))\n)\n"
    assert parse_ontology(text) == parse_ontology(text)


def test_determinism_identical_diagnostics():
    bad = HEADER + "SubClassOf(:A miss:B)\n)\n"
    outcomes = []
    for _ in range(2):
        with pytest.raises(OntologyParseError) as exc:
            parse_ontology(bad, origin="same.ofn")
        outcomes.append([d.format() for d in exc.value.diagnostics])
    assert outcomes[0] == outcomes[1]


# Each case pairs a document with the exact diagnostic it must produce.
# The lexer runs over the whole document before the parser, so a lexical
# error anywhere wins over an earlier syntax error.
MALFORMED_CASES = [
    ("",                                             # empty input
     "bad.ofn:1:1: error: syntax error: expected Ontology(...) document"),
    ("Ontology",                                     # missing parens
     "bad.ofn:1:9: error: syntax error: expected '(', found end of input"),
    ("Ontology(",                                    # unterminated document
     "bad.ofn:1:10: error: syntax error: unexpected end of input inside Ontology(...)"),
    ("Ontology(\n# nothing else",                  # then only a comment
     "bad.ofn:2:15: error: syntax error: unexpected end of input inside Ontology(...)"),
    ("Ontology(SubClassOf(:Man :Human)",             # missing final paren
     "bad.ofn:1:21: error: unresolved prefix: prefix ':' is not declared"),
    ("Prefix(:=<http://x/>)",                        # prefix only, no ontology
     "bad.ofn:1:22: error: syntax error: expected Ontology(...) document"),
    ("Prefix(:=http://x/)\nOntology()",              # prefix target not an IRI
     "bad.ofn:1:15: error: lexical error: unexpected character '/'"),
    ("Ontology(SubClassOf(:Man))",                   # arity violation
     "bad.ofn:1:21: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(SubClassOf(:A :B :C))",               # too many operands
     "bad.ofn:1:21: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(SubClassOf(:A ObjectIntersectionOf(:B)))",  # unary intersection
     "bad.ofn:1:21: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(SubClassOf(:A ObjectUnionOf()))",     # empty union
     "bad.ofn:1:21: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(SubClassOf(:A ObjectOneOf()))",       # empty enumeration
     "bad.ofn:1:21: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(ObjectOneOf(:a))",                    # expression at axiom level
     "bad.ofn:1:10: error: syntax error: 'ObjectOneOf' cannot appear as an axiom"),
    ("Ontology(SubClassOf(:A ObjectMinCardinality(:r :B)))",  # missing number
     "bad.ofn:1:21: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(SubClassOf(:A ObjectMinCardinality(2)))",      # missing property
     "bad.ofn:1:21: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(SubClassOf(miss:A <http://x/B>))",    # unresolved prefix
     "bad.ofn:1:21: error: unresolved prefix: prefix 'miss:' is not declared"),
    # An undeclared prefix is reported at its first use.
    ("Prefix(:=<http://x/>)\nOntology(\nSubClassOf(:A miss:B)\nSubClassOf(miss:B :C)\n)",
     "bad.ofn:3:15: error: unresolved prefix: prefix 'miss:' is not declared"),
    ("Ontology(SubClassOf(:A <http://x/B))",         # unterminated IRI
     "bad.ofn:1:24: error: lexical error: unterminated IRI"),
    ('Ontology(AnnotationAssertion(rdfs:label :A "x))',  # unterminated string
     "bad.ofn:1:44: error: lexical error: unterminated string literal"),
    ('Ontology(DataPropertyAssertion(:d :i "x\\q"))',  # invalid escape
     "bad.ofn:1:38: error: lexical error: invalid escape in string literal"),
    ("Ontology(Declaration(Klass(:A)))",             # bad entity kind
     "bad.ofn:1:22: error: syntax error: expected entity kind, found 'Klass'"),
    ("Ontology(SubClassOf(:A :B) %)",                # stray character
     "bad.ofn:1:28: error: lexical error: unexpected character '%'"),
    ("Ontology(HasKey(:A () ()))",                   # key without properties
     "bad.ofn:1:17: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(DifferentIndividuals(:a))",           # singleton individuals
     "bad.ofn:1:31: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(SubObjectPropertyOf(ObjectPropertyChain(:p) :q))",  # short chain
     "bad.ofn:1:50: error: unresolved prefix: prefix ':' is not declared"),
    ("Ontology(Import(:A :B))",                      # malformed import
     "bad.ofn:1:17: error: unresolved prefix: prefix ':' is not declared"),
    # Positions after CRLF, tabs, comments and multi-line strings.
    ("Prefix(:=<http://x/>)\r\nOntology(\r\nSubClassOf(:A <http://x/B))",
     "bad.ofn:3:15: error: lexical error: unterminated IRI"),
    ("Ontology(\n\tSubClassOf(:A :B)\t%)",
     "bad.ofn:2:20: error: lexical error: unexpected character '%'"),
    ('# a comment ( with "quote\nOntology( # trailing <iri\n'
     '  SubClassOf(:A :B) DataPropertyAssertion(:d :i "x\\q"))',
     "bad.ofn:3:49: error: lexical error: invalid escape in string literal"),
    ("Ontology(SubClassOf(:A <http://x/\nB>))",      # newline inside <...>
     "bad.ofn:1:24: error: lexical error: unterminated IRI"),
    ('Ontology(\nAnnotationAssertion(rdfs:label :A "line one\nline two))',
     "bad.ofn:2:35: error: lexical error: unterminated string literal"),
    ('Ontology(\nAnnotationAssertion(rdfs:label :A "a\nb\r\nc")\n  %)',
     "bad.ofn:5:3: error: lexical error: unexpected character '%'"),
    ("Prefix(:=<http://x/>)\r\nOntology(\r\n  SubClassOf(:A)\r\n)",
     "bad.ofn:3:3: error: arity violation: SubClassOf needs at least 2 class expressions"),
    ("Prefix(:=<http://x/>)\nOntology(SubClassOf(:A :B))\n# end\n)",
     "bad.ofn:4:1: error: syntax error: unexpected trailing content ')'"),
    ("Prefix(:=<http://x/>)\nOntology(\n  ClassAssertion(:A _:b1 )\n"
     "  ObjectPropertyAssertion(:p :a)\n)",
     "bad.ofn:4:32: error: syntax error: expected individual, found ')'"),
    # One case per lexical message, and lexical errors after a syntax error.
    ('Ontology(DataPropertyAssertion(:d :i "x\\',     # backslash at end of input
     "bad.ofn:1:38: error: lexical error: invalid escape in string literal"),
    ('Ontology(AnnotationAssertion(rdfs:label :A "x"@))',
     "bad.ofn:1:47: error: lexical error: malformed language tag"),
    ('Ontology(AnnotationAssertion(rdfs:label :A "x"@-en))',
     "bad.ofn:1:47: error: lexical error: malformed language tag"),
    ("Ontology(ClassAssertion(:A _: ))",
     "bad.ofn:1:28: error: lexical error: malformed anonymous individual"),
    ("Ontology(ClassAssertion(:A _x))",
     "bad.ofn:1:28: error: lexical error: unexpected character '_'"),
    ('Ontology(DataPropertyAssertion(:d :i "1"^xsd:integer))',
     "bad.ofn:1:41: error: lexical error: unexpected character '^'"),
    ("Ontology(SubClassOf(:A \u00e9))",
     "bad.ofn:1:24: error: lexical error: unexpected character '\u00e9'"),
    ("Ontology(SubClassOf(:A)) %",
     "bad.ofn:1:26: error: lexical error: unexpected character '%'"),
    ("Ontology() %",                                 # after the document
     "bad.ofn:1:12: error: lexical error: unexpected character '%'"),
    # An empty string literal is a token, not the end of input.
    ('Ontology(Declaration(Class(<http://e.org/A>) ""))',
     "bad.ofn:1:46: error: syntax error: expected ')', found ''"),
    # Values the model cannot hold are positioned errors, not crashes.
    ("Ontology(Declaration(Class(<>)))",
     "bad.ofn:1:28: error: syntax error: entity IRI must be non-empty"),
    ("Ontology(SubClassOf(<http://x/A> ObjectMinCardinality(" + "9" * 5000 + " <http://x/p>)))",
     "bad.ofn:1:55: error: limit exceeded: integer has more than 4300 digits"),
    ("Ontology(SubClassOf(<http://x/A> DataMinCardinality(" + "9" * 5000 + " <http://x/d>)))",
     "bad.ofn:1:53: error: limit exceeded: integer has more than 4300 digits"),
]


MALFORMED = [text for text, _ in MALFORMED_CASES]
EXPECTED_DIAGNOSTIC = dict(MALFORMED_CASES)


def _short_id(text: str):
    """Long inputs get a short test id; the rest keep pytest's own."""
    return None if len(text) < 200 else f"{text[:40]}...{len(text)}-chars"


@pytest.mark.parametrize("text", MALFORMED, ids=_short_id)
def test_malformed_inputs_yield_positioned_diagnostics(text):
    with pytest.raises(OntologyParseError) as exc:
        parse_ontology(text, origin="bad.ofn")
    diags = exc.value.diagnostics
    assert diags, "at least one diagnostic"
    for d in diags:
        assert d.severity == "error"
        assert d.line >= 1 and d.column >= 1
        assert d.format().startswith("bad.ofn:")
    assert [d.format() for d in diags] == [EXPECTED_DIAGNOSTIC[text]]


# Printable ASCII characters that cannot start a token on their own, plus
# whitespace-like and non-ASCII characters outside the [ \t\r\n] set.
SWEEP = [c for c in string.punctuation if c not in '()=<"@:#'] + [
    "\f", "\v", "\u00a0", "\x00", "\u00e9"]


@pytest.mark.parametrize("char", SWEEP, ids=[f"U+{ord(c):04X}" for c in SWEEP])
def test_stray_character_at_axiom_level(char):
    text = HEADER + "SubClassOf(:A :B)\n  " + char + " SubClassOf(:B :C)\n)\n"
    with pytest.raises(OntologyParseError) as exc:
        parse_ontology(text, origin="sweep.ofn")
    assert [d.format() for d in exc.value.diagnostics] == [
        f"sweep.ofn:4:3: error: lexical error: unexpected character {char!r}"]


def test_malformed_suite_is_large_enough():
    assert len(MALFORMED) >= 20


def test_serialize_empty_ontology():
    o = parse_ontology("Ontology()")
    text = serialize(o)
    assert "Ontology(" in text
    assert text.count("Prefix(") == 4


def test_serialize_single_axiom():
    o = parse("SubClassOf(:A :B)")
    assert serialize(o).count("SubClassOf(") == 1


@pytest.mark.parametrize("name", ["family_kb", "cycles", "data_props", "nominals",
                                  "patterns", "el_chain", "gci_tangled"])
def test_round_trip_golden(name):
    from golden_data import GOLDEN_DIR
    text = (GOLDEN_DIR / f"{name}.ofn").read_text(encoding="utf-8")
    first = parse_ontology(text)
    second = parse_ontology(serialize(first))
    assert second == first


def test_round_trip_random_models():
    rng = random.Random(20240809)
    for _ in range(200):
        o = random_ontology(rng)
        assert parse_ontology(serialize(o)) == o


def test_round_trip_every_form_models():
    rng = random.Random(20240810)
    for _ in range(200):
        o = random_ontology(rng, every_form=True)
        assert parse_ontology(serialize(o)) == o


ESCAPE_LITERALS = [
    'say "hi"', "back\\slash", 'both \\\\" end', "# not a comment",
    "(paren) )(", "line one\nline two\r\n", "\u00dcn\u00efc\u00f6de \u2014 \u65e5\u672c",
    "", "\\", '"', '\\"\\\\"', 'x"@en', '"^^xsd:string',
]


def test_escaped_literals_round_trip():
    ex = "http://example.org/t#"
    axioms = []
    for i, value in enumerate(ESCAPE_LITERALS):
        axioms.append(DataPropertyAssertion(ex + "d", ex + f"i{i}", Literal(value)))
        axioms.append(DataPropertyAssertion(ex + "d", ex + f"i{i}",
                                            Literal(value, datatype=XSD + "string")))
        axioms.append(AnnotationAssertion(ex + "note", IriRef(ex + f"i{i}"),
                                          Literal(value, language="en")))
    o = Ontology(axioms=tuple(axioms))
    again = parse_ontology(serialize(o))
    assert again == o
    assert [ax.value.lexical for ax in again.axioms[::3]] == ESCAPE_LITERALS


def test_two_megabyte_literal_with_many_escapes():
    value = 'abcd"ef\\' * 200_000
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    assert len(escaped) == 2_000_000
    assert value.count('"') + value.count("\\") == 400_000  # one escape each
    o = parse(f'DataPropertyAssertion(:d :i "{escaped}")')
    assert o.axioms[0].value.lexical == value


def test_lexical_error_on_a_long_line_is_found_at_once():
    # Every later offset of the line would fail again; the lexer must stop
    # at the first instead of searching on.
    diags = diagnostics_of("<" * 200_000)
    assert diags[0].format() == "test.ofn:3:1: error: lexical error: unterminated IRI"
    diags = diagnostics_of(" " * 200_000 + "%")
    assert diags[0].format() == ("test.ofn:3:200001: error: lexical error: "
                                 "unexpected character '%'")


def test_two_megabyte_comment():
    o = parse("# " + 'x( "<\\' * 400_000 + "\nSubClassOf(:A :B)")
    assert len(o.axioms) == 1


def test_comment_after_the_document_holds_no_tokens():
    o = parse_ontology("Ontology()\n# ) SubClassOf(:A :B)")
    assert o.axioms == ()


# Characters that start, end or break tokens, for the mutants below.
MUTATION_ALPHABET = ["\f", "\x00", "\u00a0", "\r\n", "\n", " ", '"', "\\", "<", ">",
                     "#", "@", "_:", ":", "(", ")", "^^", "x", "7", "%"]


def mutant(text: str, rng: random.Random, alphabet=MUTATION_ALPHABET) -> str:
    """`text` after one to three random inserts (from `alphabet`), deletes,
    truncations or duplicated slices."""
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("insert", "insert", "delete", "duplicate", "truncate"))
        i = rng.randrange(len(text) + 1)
        if op == "insert":
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + rng.randint(1, 12):]
        elif op == "duplicate":
            j = i + rng.randint(1, 60)
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i]
    return text


def mutated_documents(n: int, seed: int, alphabet=MUTATION_ALPHABET):
    """`n` mutants of every-form documents; every other one names its
    entities by prefixed names."""
    rng = random.Random(seed)
    for k in range(n):
        text = serialize(random_ontology(rng, every_form=True))
        if k % 2:
            text = "Prefix(:=<" + NS + ">)\n" + re.sub(
                "<" + re.escape(NS) + r"([A-Za-z0-9]*)>", r":\1", text)
        yield mutant(text, rng, alphabet)


def _lexed(lex, text: str):
    try:
        return lex(text, "m.ofn"), None
    except OntologyParseError as exc:
        return None, [d.format() for d in exc.diagnostics]


def test_findall_lexer_agrees_with_the_positioned_lexer():
    accepted = rejected = 0
    for text in mutated_documents(1200, 20240811):
        tokens, error = _lexed(parser._tokenize, text)
        spans, span_error = _lexed(parser._token_spans, text)
        assert error == span_error, text
        if error is None:
            assert tokens == [text[start:end] for start, end in spans], text
            accepted += 1
        else:
            rejected += 1
    assert accepted > 300 and rejected > 300


# Words that run on into '_', '.', '-' or ':', where the lexer's keyword
# and prefixed-name alternatives part ways, plus line ends and comments.
LEXER_ALPHABET = MUTATION_ALPHABET + [
    "Foo_bar", "a.b:c", "ab-c:d", " a_b:c)", "(ab-c:d ", "Foo.", "Foo-", "x_:", "_", ".",
    "-", "\t", "\r", "# c ) <x\n"]
KEYWORD = re.compile("[A-Za-z][A-Za-z0-9]*")
RUN_ON_PREFIX = re.compile(r"[A-Za-z][A-Za-z0-9_.\-]*[_.\-][A-Za-z0-9_.\-]*:[A-Za-z0-9_.\-]*")


def test_lexer_agrees_with_the_reference_lexer():
    """Tokens, spans and the failed position all match `oracles.lex`, the
    pattern with the keyword tried after the prefixed name."""
    accepted = rejected = 0
    forks = Counter()
    for text in mutated_documents(1200, 20261018, LEXER_ALPHABET):
        spans, failed_at = oracles.lex(text)
        tokens, error = _lexed(parser._tokenize, text)
        positioned, span_error = _lexed(parser._token_spans, text)
        assert error == span_error, text
        if failed_at is None:
            assert error is None, text
            assert positioned == spans + [(len(text), len(text))], text
            assert tokens == [text[start:end] for start, end in spans] + [""], text
            accepted += 1
        else:
            line, column = failed_at
            assert error[0].startswith(f"m.ofn:{line}:{column}: error: lexical error: "), text
            rejected += 1
        for start, end in spans:
            if KEYWORD.fullmatch(text, start, end) and text[end:end + 1] in ("_", ".", "-"):
                forks["keyword before _ . -"] += 1
            elif RUN_ON_PREFIX.fullmatch(text, start, end):
                forks["prefix with _ . -"] += 1
    assert accepted > 300 and rejected > 300
    assert min(forks["keyword before _ . -"], forks["prefix with _ . -"]) > 50, forks


def test_unknown_constructs_lex_positions_once_per_window(monkeypatch):
    """Token positions are lexed for one held window at a time, at most once
    per window, and never for the whole document."""
    calls = []
    token_spans = parser._token_spans

    def spy(text, origin, start, stop):
        calls.append((start, stop))
        return token_spans(text, origin, start, stop)

    monkeypatch.setattr(parser, "_token_spans", spy)
    rules = [f"DLSafeRule(Body(ClassAtom(:A Variable(:x{i})))  # body\r\n"
             f"  Head(ClassAtom(:B\tVariable(:x{i}))))" for i in range(4000)]
    text = HEADER + " # rule\n".join(rules) + "\n)\n"
    windows = -(-len(text) // parser._WINDOW)
    assert windows >= 5

    def each_window_once():
        # A str is held whole, so its offsets are the document's.
        assert len(set(calls)) == len(calls) <= windows
        assert sum(stop - start for start, stop in calls) <= len(text)
        assert max(stop - start for start, stop in calls) < parser._WINDOW + 200
        calls.clear()

    o = parse_ontology(text)
    assert [ax.text for ax in o.axioms] == rules
    each_window_once()
    diags = diagnostics_of("\n".join(rules) + "\nSubClassOf(:A)")
    assert [d.format() for d in diags] == [
        "test.ofn:8003:1: error: arity violation: SubClassOf needs at least 2 class expressions"]
    each_window_once()


def test_one_unknown_construct_adds_about_one_window_of_positions():
    """An unknown construct at the end of a document of many windows costs
    the parse the positions of its window, not those of the document."""
    rng = random.Random(12)
    vocab = gen.Vocabulary(rng)
    text = serialize(Ontology(axioms=tuple(gen.random_axiom(rng, vocab) for _ in range(10500))))
    assert text.endswith("\n)\n") and len(text) > 15 * parser._WINDOW
    with_rule = text[:-2] + ("DLSafeRule(Body(ClassAtom(<http://x#A> Variable(<http://x#x>)))"
                             " Head(ClassAtom(<http://x#B> Variable(<http://x#x>))))\n)\n")

    def parse_peak(source: str) -> int:
        tracemalloc.start()
        try:
            parse_ontology(source)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tracemalloc.start()
    try:
        parser._token_spans(text, "<string>")
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    added = parse_peak(with_rule) - parse_peak(text)
    assert added < 2 * whole / 15, (added, whole)


# ---------------------------------------------------------------------------
# Windowed lexing: the parser holds one window of tokens at a time, and no
# window size may change a model or a diagnostic.

RULES = [f"DLSafeRule(Body(ClassAtom(:A Variable(:x{i})))  # body\r\n"
         f"  Head(ClassAtom(:B\tVariable(:x{i}))))" for i in range(4000)]


def complement_chain(depth: int, sep: str = "") -> str:
    """`SubClassOf(:A ...)` over `depth` nested ObjectComplementOf, with
    `sep` after each opening and closing parenthesis."""
    return (HEADER + "SubClassOf(:A" + sep + f"ObjectComplementOf({sep}" * depth + ":B" + sep
            + f"){sep}" * depth + ")\n)\n")


def outcome(text: str):
    """The model of `text`, or its formatted diagnostics."""
    try:
        return parse_ontology(text, origin="w.ofn")
    except OntologyParseError as exc:
        return [d.format() for d in exc.diagnostics]


def typed(vector) -> list:
    """A vector's values, each with its type and exact text."""
    return [(fid, type(value), repr(value)) for fid, value in vector.items()]


def streamed(text: str) -> tuple:
    """What a worker makes of `text`, which it folds one window at a time:
    its status, its typed values, and its formatted diagnostics."""
    out = runner._extract_file("w.ofn", text, False, (1 / 3, 1 / 3, 1 / 3))
    return out.status, out.vector and typed(out.vector), out.diagnostics


def streamed_from_file(text: str) -> tuple:
    """`streamed` for a file `w.ofn` holding `text`, in the current
    directory, which the worker reads and decodes `_READ` bytes at a time."""
    Path("w.ofn").write_bytes(text.encode())
    out = runner._extract_file("w.ofn", None, False, (1 / 3, 1 / 3, 1 / 3))
    return out.status, out.vector and typed(out.vector), out.diagnostics


def outcomes_under_window(monkeypatch, window: int, texts, run=outcome) -> list:
    with monkeypatch.context() as patch:
        patch.setattr(parser, "_WINDOW", window)
        return [run(text) for text in texts]


def window_corpus() -> list[str]:
    golden = sorted((Path(__file__).parent / "fixtures").glob("*/*.ofn"))
    assert len(golden) > 10
    return ([path.read_text(encoding="utf-8") for path in golden]
            + list(mutated_documents(300, 20261019))
            + [HEADER + " # rule\n".join(RULES) + "\n)\n"]
            + [complement_chain(depth, sep) for depth in (400, 700) for sep in ("", "\n")])


@pytest.mark.parametrize("window", [1, 7, 64])
def test_window_size_changes_no_model_or_diagnostic(window, monkeypatch, tmp_path):
    texts = window_corpus()
    # At the same stack depth, as the nesting limit counts the caller's frames.
    expected = outcomes_under_window(monkeypatch, parser._WINDOW, texts)
    assert sum(isinstance(o, list) for o in expected) > 60
    assert sum(isinstance(o, Ontology) for o in expected) > 60
    assert outcomes_under_window(monkeypatch, window, texts) == expected
    # A worker's batches are the windows: no vector or diagnostic may move
    # with them, and each vector is the library's, value by value and type.
    library = [("ok", typed(extract_all(o)), []) if isinstance(o, Ontology)
               else ("parse_error", None, o) for o in expected]
    assert outcomes_under_window(monkeypatch, parser._WINDOW, texts, streamed) == library
    assert outcomes_under_window(monkeypatch, window, texts, streamed) == library
    # Nor may they move when the worker streams the file in small reads.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(parser, "_READ", 61)
    assert outcomes_under_window(monkeypatch, window, texts, streamed_from_file) == library


def test_window_cutting_a_string_literal(monkeypatch):
    text = HEADER + 'AnnotationAssertion(:p :a "one\ntwo\n\nthree")\n)\n'
    cut = text.index("one") + 4
    assert parser._tokenize(text, "w.ofn", 0, cut) is None
    model = outcome(text)
    assert model.axioms[0].value.lexical == "one\ntwo\n\nthree"
    for window in (1, 7, len(HEADER) + 30):
        assert outcomes_under_window(monkeypatch, window, [text]) == [model]
    unterminated = HEADER + 'SubClassOf(:A :B)\nAnnotationAssertion(:p :a "one\ntwo)\n)\n'
    assert outcomes_under_window(monkeypatch, 1, [unterminated]) == [
        ["w.ofn:4:27: error: lexical error: unterminated string literal"]]


def test_items_longer_than_the_window(monkeypatch):
    texts = ["Prefix(\n:=\n<http://example.org/t#>\n)\nPrefix(\nx:\n=\n<http://x#>\n)\n"
             "Ontology(\n<http://o>\n<http://v>\nImport(\n<http://i>\n)\n"
             "Annotation(\n:p\n\"x\"\n)\n"
             "SubClassOf(\n:A\nObjectIntersectionOf(\nx:B\n:C\n)\n)\n)\n",
             "Ontology(\n<http://o>\n<http://v>\n)\n",
             "Ontology(\n<http://o>\n)\n",
             "Ontology(\n<http://o>\n",
             "Prefix(:=<http://x#>)\nOntology(\n" + "SubClassOf(:A :B)\n" * 30
             + "SubClassOf(\n" + ":B\n" * 200 + ")\n)\n"]
    expected = [outcome(text) for text in texts]
    assert expected[0].iri == "http://o" and expected[0].version_iri == "http://v"
    assert expected[0].imports == ("http://i",)
    for window in (1, 2, 3, 7, 16, 64):
        assert outcomes_under_window(monkeypatch, window, texts) == expected


def test_trailing_content_in_a_later_window(monkeypatch):
    texts = [HEADER + ")\n\n\n# done\n  \nSubClassOf(:A :B)\n", HEADER + ")\n\n\n# done\n  \n"]
    for window in (1, 7, 1 << 16):
        assert outcomes_under_window(monkeypatch, window, texts) == [
            ["w.ofn:8:1: error: syntax error: unexpected trailing content 'SubClassOf'"],
            Ontology(axioms=())]


def test_lexical_error_in_a_later_window_wins_over_a_syntax_error(monkeypatch):
    text = HEADER + "SubClassOf(:A)\n" + "SubClassOf(:A :B)\n" * 100 + "SubClassOf(:A %)\n)\n"
    for window in (1, 64, 1 << 16):
        assert outcomes_under_window(monkeypatch, window, [text]) == [
            ["w.ofn:104:15: error: lexical error: unexpected character '%'"]]


def test_nesting_limit_at_a_window_boundary(monkeypatch):
    text = complement_chain(700, "\n")
    [message] = outcome(text)
    assert "limit exceeded" in message
    line = int(message.split(":")[1])
    start = sum(len(row) + 1 for row in text.split("\n")[:line - 1])
    # Windows that end just before, at and just after the deepest token's line.
    for window in range(start - 45, start + 45):
        with monkeypatch.context() as patch:
            patch.setattr(parser, "_WINDOW", window)
            assert outcome(text) == [message], window


def test_carriage_return_only_document_is_one_window(monkeypatch):
    text = HEADER.replace("\n", "\r") + "SubClassOf(:A :B)\r" * 200 + ")\r"
    lexed = []
    tokenize = parser._tokenize

    def spy(*args, **kwargs):
        lexed.append(args[2:4])
        return tokenize(*args, **kwargs)

    monkeypatch.setattr(parser, "_tokenize", spy)
    assert len(outcomes_under_window(monkeypatch, 1, [text])[0].axioms) == 200
    assert lexed == [(0, len(text))]


# ---------------------------------------------------------------------------
# Streaming a file: the parser reads and decodes it `_READ` bytes at a time,
# and no window or read size may change a model, a diagnostic or a decode
# error, nor which of them a document gets.

STREAM_WINDOWS = (1, 7, 64)
STREAM_READS = (1, 3, 16, 256)


def outcome_of_text(data: bytes):
    """What a document whose bytes are `data` gives when decoded whole and
    parsed as a str: its model, its formatted diagnostics, or the text of
    its decode error."""
    try:
        text = parser.decode_source(data)
    except UnicodeDecodeError as exc:
        return str(exc)
    return outcome(text)


def outcome_of_file(path: Path):
    """`outcome_of_text` for the file at `path`, streamed through the
    parser as the worker and `ontoprof check` read it."""
    axioms = []
    try:
        with open(path, "rb") as source:
            header = parser._parse_fields(source, "w.ofn", axioms.extend)
    except UnicodeDecodeError as exc:
        return str(exc)
    except OntologyParseError as exc:
        return [d.format() for d in exc.diagnostics]
    return Ontology(tuple(axioms), *header)


def streamed_alike(monkeypatch, tmp_path, documents) -> list:
    """The outcome of each document in `documents` (bytes), after checking
    that it is the same decoded whole and streamed at every window and
    read size."""
    path = tmp_path / "w.ofn"
    expected = [outcome_of_text(data) for data in documents]
    for window in STREAM_WINDOWS:
        for read in STREAM_READS:
            with monkeypatch.context() as patch:
                patch.setattr(parser, "_WINDOW", window)
                patch.setattr(parser, "_READ", read)
                for data, want in zip(documents, expected):
                    path.write_bytes(data)
                    assert outcome_of_file(path) == want, (window, read, data)
                    assert outcome_of_text(data) == want, (window, data)
    return expected


def test_a_decode_error_wins_over_earlier_parse_errors(monkeypatch, tmp_path):
    body = "SubClassOf(:A :B)\n" * 40
    syntax, lexical = (HEADER + "SubClassOf(:A)\n" + body, HEADER + "SubClassOf(:%)\n" + body)
    data = syntax.encode() + b"\xff)\n"
    message, after_lexical = streamed_alike(monkeypatch, tmp_path,
                                            [data, lexical.encode() + b"\xff)\n"])
    assert message == after_lexical == ("'utf-8' codec can't decode byte 0xff in position "
                                        f"{len(data) - 3}: invalid start byte")
    # The position counts from after a leading byte-order mark, as decoding
    # the whole file does.
    assert streamed_alike(monkeypatch, tmp_path, [BOM + data]) == [message]
    truncated = (HEADER + body).encode() + "é".encode()[:1]
    assert streamed_alike(monkeypatch, tmp_path, [truncated]) == [
        f"'utf-8' codec can't decode byte 0xc3 in position {len(truncated) - 1}: "
        "unexpected end of data"]


def test_end_of_file_at_read_and_window_boundaries(monkeypatch, tmp_path):
    """Where the file ends, against the reads and the windows, decides
    nothing: the last read may be full or short, and the last line may
    lack its line feed."""
    text = HEADER + "SubClassOf(:A :B)\n" * 40 + ")"
    exact = text + " " * (-(len(text) + 1) % math.lcm(*STREAM_READS)) + "\n"
    assert all(len(exact) % read == 0 for read in STREAM_READS)
    documents = [exact, text, (text + "\n").replace("\n", "\r\n"), text + "\n# done"]
    models = streamed_alike(monkeypatch, tmp_path, [doc.encode() for doc in documents])
    assert models == [models[0]] * 4 and len(models[0].axioms) == 40


def test_the_parser_leaves_the_callers_file_open(monkeypatch, tmp_path):
    """The parser reads the file it is given, whether it parses, fails to
    parse or fails to decode, but neither closes it nor leaves it to be
    closed unclosed."""
    monkeypatch.setattr(parser, "_READ", 16)
    body = HEADER + "SubClassOf(:A :B)\n" * 40
    documents = [((body + ")\n").encode(), None),
                 ((body + "SubClassOf(:A)\n)\n").encode(), OntologyParseError),
                 (body.encode() + b"\xff)\n", UnicodeDecodeError)]
    path = tmp_path / "w.ofn"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for data, error in documents:
            path.write_bytes(data)
            with open(path, "rb") as source:
                raised = None
                try:
                    parser._parse_fields(source, "w.ofn", list)
                except (OntologyParseError, UnicodeDecodeError) as exc:
                    raised = type(exc)
                gc.collect()
                assert raised is error
                assert not source.closed
                source.seek(0)
                assert source.read() == data
            gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_an_unseekable_file_is_read_whole(monkeypatch):
    """A pipe cannot be read again for the position of a decode error, so
    it is decoded whole first, as standard input is."""

    class Pipe(io.BytesIO):
        def seekable(self):
            return False

        def seek(self, *args):
            raise io.UnsupportedOperation("seek")

    monkeypatch.setattr(parser, "_READ", 16)
    data = (HEADER + "SubClassOf(:A :B)\n" * 40).encode() + b"\xff)\n"
    with pytest.raises(UnicodeDecodeError) as whole:
        parser.decode_source(data)
    with pytest.raises(UnicodeDecodeError) as piped:
        parser._parse_fields(Pipe(data), "w.ofn", lambda axioms: None)
    assert str(piped.value) == str(whole.value)
    axioms = []
    parser._parse_fields(Pipe(data[:-3] + b")\n"), "w.ofn", axioms.extend)
    assert len(axioms) == 40


def test_errors_in_later_windows_when_streamed(monkeypatch, tmp_path):
    # Indented, so that a window's first token is not at the start of its line.
    body = "  SubClassOf(:A :B)\n" * 30
    documents = [HEADER + body + "  SubClassOf(:A)\n)\n",
                 HEADER + "  SubClassOf(:A)\n" + body + "  SubClassOf(:A %)\n)\n",
                 HEADER + "  SubClassOf(:A %)\n" + body + "  SubClassOf(:A)\n)\n"]
    assert streamed_alike(monkeypatch, tmp_path, [text.encode() for text in documents]) == [
        ["w.ofn:33:3: error: arity violation: SubClassOf needs at least 2 class expressions"],
        ["w.ofn:34:17: error: lexical error: unexpected character '%'"],
        ["w.ofn:3:17: error: lexical error: unexpected character '%'"]]


def test_multi_byte_characters_split_across_reads(monkeypatch, tmp_path):
    labels = ["é", "日本語", "𝔸𝔹", "a\u00e9\u20ac\U0001f600"]
    data = (HEADER + "".join(f'AnnotationAssertion(:p :a{i} "{label}")\n'
                             for i, label in enumerate(labels * 3)) + ")\n").encode()
    [model] = streamed_alike(monkeypatch, tmp_path, [data])
    assert [ax.value.lexical for ax in model.axioms] == labels * 3


BOM = "\ufeff".encode()


def test_byte_order_marks_split_across_reads(monkeypatch, tmp_path):
    text = HEADER + "SubClassOf(:A :B)\n)\n"
    plain, marked, doubled = streamed_alike(
        monkeypatch, tmp_path, [text.encode(), BOM + text.encode(), BOM + BOM + text.encode()])
    assert marked == plain and len(plain.axioms) == 1
    assert doubled == ["w.ofn:1:1: error: lexical error: unexpected character '\\ufeff'"]


def test_carriage_return_only_file_is_one_window(monkeypatch, tmp_path):
    text = HEADER.replace("\n", "\r") + "SubClassOf(:A :B)\r" * 200 + ")\r"
    [model] = streamed_alike(monkeypatch, tmp_path, [text.encode()])
    assert len(model.axioms) == 200
    lexed = []
    tokenize = parser._tokenize

    def spy(*args, **kwargs):
        lexed.append(args[2:4])
        return tokenize(*args, **kwargs)

    monkeypatch.setattr(parser, "_tokenize", spy)
    monkeypatch.setattr(parser, "_WINDOW", 1)
    monkeypatch.setattr(parser, "_READ", 5)
    path = tmp_path / "cr.ofn"
    path.write_bytes(text.encode())
    assert outcome_of_file(path) == model
    assert lexed == [(0, len(text))]


def test_a_string_literal_cut_by_a_window_when_streamed(monkeypatch, tmp_path):
    texts = [HEADER + 'AnnotationAssertion(:p :a "one\ntwo\n\nthree")\n)\n',
             HEADER + 'SubClassOf(:A :B)\nAnnotationAssertion(:p :a "one\ntwo)\n)\n',
             HEADER + 'AnnotationAssertion(:p :a "one\n' + "x\n" * 100 + '")\n)\n']
    model, unterminated, long = streamed_alike(monkeypatch, tmp_path,
                                               [text.encode() for text in texts])
    assert model.axioms[0].value.lexical == "one\ntwo\n\nthree"
    assert unterminated == ["w.ofn:4:27: error: lexical error: unterminated string literal"]
    assert long.axioms[0].value.lexical == "one\n" + "x\n" * 100


def test_streamed_file_holds_about_one_window_of_text(monkeypatch, tmp_path):
    """The parser never holds much more text than a window or two, however
    long the file."""
    lines = [f"SubClassOf(:C{i} :C{i + 1})" for i in range(20_000)]
    lines[100:100] = [f"# {i:<97}" for i in range(2000)]  # 50 windows of comments
    path = tmp_path / "long.ofn"
    path.write_text(HEADER + "\n".join(lines) + "\n)\n", encoding="utf-8")
    held = []
    read = parser._Parser.read

    def spy(self, upto, start):
        read(self, upto, start)
        held.append(len(self.text))

    monkeypatch.setattr(parser._Parser, "read", spy)
    monkeypatch.setattr(parser, "_WINDOW", 4096)
    monkeypatch.setattr(parser, "_READ", 4096)
    assert len(outcome_of_file(path).axioms) == 20_000
    assert len(held) > 50 and max(held) < 4 * 4096


def test_parse_holds_one_window_of_tokens():
    """The parse's peak memory beyond the model it returns stays far below
    the text's size: the tokens of the whole document are never held."""
    rng = random.Random(12)
    vocab = gen.Vocabulary(rng)
    model = Ontology(axioms=tuple(gen.random_axiom(rng, vocab) for _ in range(10500)))
    text = serialize(model)
    assert len(text.encode()) >= 1_000_000
    tracemalloc.start()
    try:
        parsed = parse_ontology(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == model
    assert peak - kept < 1.5 * 2**20


def test_a_class_named_again_is_one_node():
    text = HEADER + ("SubClassOf(:A :B)\nSubClassOf(:B :A)\n"
                     "EquivalentClasses(:A ObjectIntersectionOf(:B <http://example.org/t#A>))\n"
                     "ClassAssertion(:A :i)\n)\n")
    o = parse_ontology(text)
    first, second, third, fourth = o.axioms
    assert first.sub is second.sup is third.operands[0] is fourth.ce
    assert first.sup is second.sub is third.operands[1].operands[0]
    # A name spelled another way is an equal node of its own.
    assert third.operands[1].operands[1] == first.sub
    assert parse_ontology(serialize(o)) == o
    assert parse_ontology(text) == o


# ---------------------------------------------------------------------------
# The parser feeds the signature: each name joins its signature set as it is
# read, so a worker walks no axiom for it. The sets must be those the
# signature walk and the scratch oracle collect from the model.

def fed(source) -> Summary:
    """The Summary a worker folds `source`, a str or a binary file, into:
    the census of each batch, and the signature sets the parser fills."""
    summary = Summary()
    header = parser._parse_fields(source, "w.ofn", summary.add, summary.sets)
    return summary.finish(header[3])


def walked(model: Ontology) -> Signature:
    """The signature `signature_walk` collects from `model`'s axioms, plus
    its ontology annotations' properties."""
    sets = [set() for _ in Signature._fields]
    signature_walk(model.axioms, sets)
    sets[ANNOTATION_PROPERTIES].update(a.prop for a in model.annotations)
    return Signature(*map(frozenset, sets))


def assert_fed_as_walked(text: str) -> Ontology:
    model = parse_ontology(text, origin="w.ofn")
    assert fed(text).signature == walked(model) == oracles.signature_sets(model), text
    return model


LINE_BROKEN = ("SubClassOf(:A{k} DataSomeValuesFrom(:d{k}\nxsd:int\n))\n"
               "SubClassOf(:B{k} DataAllValuesFrom(:d{k} :e{k}\nxsd:string\n))\n"
               "SubClassOf(:C{k} DataSomeValuesFrom(:d{k}\n:e{k}\nxsd:decimal\n))\n"
               "SubObjectPropertyOf(ObjectPropertyChain(:p{k}\n:q{k}\n)\n:r{k})\n")


def test_a_datatype_before_a_windows_end_is_no_data_property(monkeypatch, tmp_path):
    """The last IRI of DataSomeValuesFrom or DataAllValuesFrom is the data
    range when no ')' follows it, so the parser looks one token ahead. Where
    a window ends just after the datatype, the first attempt at the item
    takes it for a data property; that attempt fails at the window's end
    and the item is parsed again, and only the second attempt's names may
    join a set. Windows of 20 to 400 characters end after every line."""
    text = (f"Prefix(:=<http://example.org/t#>)\nPrefix(xsd:=<{XSD}>)\nOntology(\n"
            + "".join(LINE_BROKEN.format(k=k) for k in range(3)) + ")\n")
    streamed_alike(monkeypatch, tmp_path, [text.encode()])
    library = assert_fed_as_walked(text)
    sig = library.signature
    assert {XSD + t for t in ("int", "string", "decimal")} == sig.datatypes
    assert len(sig.data_properties) == 6 and len(sig.object_properties) == 9
    expected = (sig, typed(extract_all(library)))
    path = tmp_path / "w.ofn"
    path.write_bytes(text.encode())

    def worker(source) -> tuple:
        if source is None:
            with open(path, "rb") as file:
                signature = fed(file).signature
        else:
            signature = fed(source).signature
        out = runner._extract_file(str(path), source, False, (1 / 3, 1 / 3, 1 / 3))
        assert out.status == "ok" and out.anonymous_individuals == 0
        return signature, typed(out.vector)

    for window in STREAM_WINDOWS:
        for read in STREAM_READS:
            with monkeypatch.context() as patch:
                patch.setattr(parser, "_WINDOW", window)
                patch.setattr(parser, "_READ", read)
                assert worker(None) == expected, (window, read)
    for window in range(20, 401):
        with monkeypatch.context() as patch:
            patch.setattr(parser, "_WINDOW", window)
            assert worker(text) == expected, window


def test_the_parser_fed_signature_is_the_walks():
    """On the fixtures, every-form documents and the mutants that parse."""
    golden = sorted((Path(__file__).parent / "fixtures").glob("*/*.ofn"))
    rng = random.Random(20261022)
    texts = [path.read_text(encoding="utf-8") for path in golden]
    texts += [serialize(random_ontology(rng, every_form=True)) for _ in range(300)]
    mutants = [text for text in mutated_documents(600, 20261022)
               if isinstance(outcome(text), Ontology)]
    assert len(golden) > 10 and len(mutants) > 60
    for text in texts + mutants:
        assert_fed_as_walked(text)


ANNOTATED = HEADER + """Annotation(:onto "v"^^:ontoType)
Annotation(Annotation(:nested _:n1) :onto2 _:n2)
Annotation(Annotation(:nested2 "w"^^:nestedType) :onto3 :ontoValue)
SubClassOf(Annotation(:note "x"^^:noteType) Annotation(Annotation(:deep _:deep) :note2 _:n3) :A :B)
AnnotationAssertion(Annotation(:meta _:n4) :label _:subject "l"^^:labelType)
AnnotationAssertion(:label :A :iriValue)
ClassAssertion(Annotation(:note3 :noteValue) :A _:x)
)
"""


def test_names_only_in_annotations_join_no_set():
    """Axiom annotations are dropped and an ontology annotation gives only
    its property, so no IRI, node id or literal datatype met only in an
    annotation joins the signature; an annotation assertion's own do."""
    model = assert_fed_as_walked(ANNOTATED)
    sig = fed(ANNOTATED).signature
    t = "http://example.org/t#"
    assert sig.classes == {t + "A", t + "B"}
    assert sig.annotation_properties == {t + "onto", t + "onto2", t + "onto3", t + "label"}
    assert sig.datatypes == {t + "labelType"}
    assert sig.anonymous_individuals == {"subject", "x"}
    assert sig.individuals == sig.object_properties == sig.data_properties == frozenset()
    out = runner._extract_file("w.ofn", ANNOTATED, False, (1 / 3, 1 / 3, 1 / 3))
    assert out.status == "ok" and out.anonymous_individuals == 2
    assert typed(out.vector) == typed(extract_all(model))
