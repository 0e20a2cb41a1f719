"""Tokenizer for the textual query language, and the statement probe.

:func:`tokenize` is the one lexer.  :func:`literal_spans`, what the
statement cache probes with before tokenizing, is one regex split into the
literal-free remainder and the literals; it knows no grammar, so it also
cuts literals out of ``--`` comments, cuts ``TAG`` values (structure) and
reads a signed number unsigned after its sign.  The executor trusts a
remainder only once the tokens confirmed it — literal for literal the same
start and the same :func:`literal_value`, the one decoding both use — so
those texts always take the token path.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from repro.errors import ReproError


class QuerySyntaxError(ReproError):
    """Raised for malformed query text (lexical or grammatical)."""


class Token(NamedTuple):
    """A single token: its kind, its value, and where it starts (for error messages)."""

    kind: str
    value: object
    position: int

    def describe(self) -> str:
        return "{}({!r}) at position {}".format(self.kind, self.value, self.position)


#: keywords are case-insensitive; they are emitted as their upper-case spelling
KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GUARD", "TAG", "UNION", "OUTER", "EXCEPT",
    "JOIN", "NATURAL", "ON", "AND", "OR", "NOT", "HAS", "IN", "TRUE", "FALSE", "NULL",
}

PUNCTUATION = {",": "COMMA", "(": "LPAREN", ")": "RPAREN", "*": "STAR"}

#: the token kinds that stand for a constant (what a statement template drops)
LITERAL_KINDS = frozenset({"NUMBER", "STRING", "TRUE", "FALSE", "NULL"})
_KEYWORD_VALUES = {"TRUE": True, "FALSE": False, "NULL": None}

#: a string literal and an unsigned number: the tokenizer and the probe match
#: them with the same pattern, so a literal both see at one start ends at one end
_STRING = r"'(?:[^']|'')*'"
_DIGITS = r"\d+(?:\.\d*)?"

#: one match per token: what is skipped before it (white space, ``--``
#: comments — tried before a signed number), then one alternative per token
#: class, multi-character operators before their one-character prefixes
_TOKEN = re.compile(r"""(?:\s+|--[^\n]*)*(?:
    (?P<STRING>{})
  | (?P<NUMBER>[+-]?{})
  | (?P<NAME>[^\W\d]\w*)
  | (?P<OP><=|>=|!=|<>|=|<|>)
  | (?P<PUNCT>[,()*])
  | (?P<EOF>\Z)
)""".format(_STRING, _DIGITS), re.VERBOSE)
_SKIPPED = re.compile(r"(?:\s+|--[^\n]*)*")
#: the probe's literals: a string, an unsigned number not inside a name, an
#: ASCII-spelled TRUE / FALSE / NULL standing alone (the leading class only
#: lets the scan skip every other character fast)
_LITERAL = re.compile(
    r"(?=['\dTtFfNn])({}|(?<!\w){}|(?<!\w)(?ai:TRUE|FALSE|NULL)(?!\w))".format(
        _STRING, _DIGITS))


def literal_value(raw: str, position: int):
    """The constant a literal's text stands for (``5.`` is malformed)."""
    if raw[0] == "'":
        return raw[1:-1].replace("''", "'")
    keyword = raw.upper()
    if keyword in _KEYWORD_VALUES:
        return _KEYWORD_VALUES[keyword]
    if raw.endswith("."):
        raise QuerySyntaxError("malformed number {!r} at position {}".format(raw, position))
    return float(raw) if "." in raw else int(raw)


def tokenize(text: str) -> List[Token]:
    """Turn query text into a list of tokens (ending with an ``EOF`` token)."""
    tokens: List[Token] = []
    append = tokens.append
    expected = 0
    for found in _TOKEN.finditer(text):
        if found.start() != expected:
            break  # the scanner had to skip something no alternative matches
        expected = found.end()
        kind = found.lastgroup
        index = found.start(kind)
        raw = found.group(kind)
        if kind == "NAME":
            upper = raw.upper()
            if upper in _KEYWORD_VALUES:
                append(Token(upper, literal_value(raw, index), index))
            elif upper in KEYWORDS:
                append(Token(upper, upper, index))
            else:
                append(Token("NAME", raw, index))
        elif kind == "NUMBER" or kind == "STRING":
            append(Token(kind, literal_value(raw, index), index))
        elif kind == "OP":
            append(Token("OP", raw, index))
        elif kind == "PUNCT":
            append(Token(PUNCTUATION[raw], raw, index))
        else:
            append(Token("EOF", None, index))
            return tokens
    index = _SKIPPED.match(text, expected).end()
    if text[index] == "'":
        raise QuerySyntaxError("unterminated string literal")
    raise QuerySyntaxError("unexpected character {!r} at position {}".format(
        text[index], index))


def strip_literals(tokens: List[Token]):
    """``(statement key, literals)``: the token stream with every constant
    taken out, and the constants in order.

    Two texts with the same key differ only in their constants, so they parse
    to the same tree shape.  The value after ``TAG name =`` stays in the key:
    it becomes an extension value, which is structure, not data.
    """
    key, literals = [], []
    tagged = False
    for kind, value, _position in tokens:
        if kind in LITERAL_KINDS and not tagged:
            literals.append(value)
            key.append(None)
        else:
            key.append(repr(value) if kind in LITERAL_KINDS else value)
        tagged = kind == "TAG" or (tagged and kind in ("NAME", "OP"))
    return tuple(key), literals


def literal_spans(text: str):
    """``(remainder, spans)``: the pieces of ``text`` between the probe's
    literals, and ``(start, text)`` per literal — no tokenizing, no decoding
    (see the module docstring)."""
    parts = _LITERAL.split(text)
    spans = []
    at = 0
    for index in range(1, len(parts), 2):
        at += len(parts[index - 1])
        raw = parts[index]
        spans.append((at, raw))
        at += len(raw)
    return tuple(parts[0::2]), spans
