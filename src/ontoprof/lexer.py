"""The lexer of OWL 2 functional-style syntax, and its diagnostics.

A token is the text it is written as, and a window of text is lexed by one
regular-expression `findall`; `parser` drives it a window at a time and
reads each token's kind from its text. Positions are lexed apart, for a
window that needs them.
"""

from __future__ import annotations

import re
from collections import namedtuple


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


def _diagnostic(text: str, offset: int, message: str, origin: str,
                lines: int = 0) -> ParseDiagnostic:
    """An error positioned at `offset` of `text`, which starts a line of the
    document after `lines` line feeds; line and column are 1-based and a
    column counts characters, so tabs and carriage returns count as one."""
    line = lines + text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return ParseDiagnostic("error", line, column, message, origin)


# ---------------------------------------------------------------------------
# Lexer, after the "Writing a Tokenizer" recipe of the `re` docs. A token is
# the text it is written as: the parser reads its kind from that text and
# cuts a value out of it only where it uses one. Whitespace is exactly
# [ \t\r\n]: any other character outside a token is a lexical error.
#
# The text is lexed one window at a time, each by one findall: from the
# first token after the last window to the line feed about
# `parser._WINDOW` characters on (or to the end of the text). Each match
# is one token plus the whitespace and comments after it or, where no
# token matches, the whole rest of the window, so matches are contiguous
# and the scan never searches past a failed offset (a search that did
# would be quadratic on a long line of unclosed '<'). Only a string literal
# can hold a line feed, so a window cuts no other token; a cut literal is
# the rest of the window and lexes again in a window twice as long. A
# window ends in the "" of the end of input, and the parser retries an
# item that runs into it (see `parser._Parser.more`). Token offsets are
# needed only for a syntax error or for an unknown construct's text;
# `_token_spans` lexes the window that holds the token again, with one
# finditer, to find them.
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


def _lexical_error(text: str, offset: int, origin: str, lines: int = 0):
    """Raise the diagnostic for the character at `offset`, where no token
    matches; `text` starts a line after `lines` line feeds."""
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
    raise OntologyParseError([_diagnostic(text, offset, f"lexical error: {message}", origin,
                                          lines)])


def _tokenize(text: str, origin: str, start: int = 0, stop: int | None = None, *,
              more: bool = False, lines: int = 0) -> list[str] | None:
    """The tokens of text[start:stop], then "" for the end of input; raises
    OntologyParseError at the first character no token matches, positioned
    as `_lexical_error` is. A window (`stop` just after a line feed, short
    of the end of the text, or with `more` text to follow) that cuts a
    string literal gives None."""
    if stop is None:
        stop = len(text)
    tokens = _TOKENS_RE.findall(text, _SKIP_RE.match(text, start).end(), stop)
    if tokens and not _TOKEN_RE.fullmatch(tokens[-1]):
        # The last match is the rest of the window, from the failed offset.
        at = stop - len(tokens[-1])
        if text[at] == '"' and (more or stop < len(text)):
            return None
        _lexical_error(text, at, origin, lines)
    tokens.append("")
    return tokens


def _token_spans(text: str, origin: str, start: int = 0,
                 stop: int | None = None) -> list[tuple[int, int]]:
    """The (start, end) offsets of every token of text[start:stop], then an
    empty span at `stop`; raises OntologyParseError at the first character
    no token matches."""
    if stop is None:
        stop = len(text)
    spans = [m.span(1) for m in _TOKENS_RE.finditer(text, _SKIP_RE.match(text, start).end(),
                                                     stop)]
    if spans and not _TOKEN_RE.fullmatch(text, *spans[-1]):
        _lexical_error(text, spans[-1][0], origin)
    spans.append((stop, stop))
    return spans
