"""Tokenizer for the textual query language."""

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

#: one match per token: what is skipped before it (white space, ``--``
#: comments — tried before a signed number), then one alternative per token
#: class, multi-character operators before their one-character prefixes
_TOKEN = re.compile(r"""(?:\s+|--[^\n]*)*(?:
    (?P<STRING>'(?:[^']|'')*')
  | (?P<NUMBER>[+-]?\d+(?:\.\d*)?)
  | (?P<NAME>[^\W\d]\w*)
  | (?P<OP><=|>=|!=|<>|=|<|>)
  | (?P<PUNCT>[,()*])
  | (?P<EOF>\Z)
)""", re.VERBOSE)
_SKIPPED = re.compile(r"(?:\s+|--[^\n]*)*")


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
            if upper in KEYWORDS:
                append(Token(upper, _KEYWORD_VALUES.get(upper, upper), index))
            else:
                append(Token("NAME", raw, index))
        elif kind == "NUMBER":
            if raw.endswith("."):
                raise QuerySyntaxError(
                    "malformed number {!r} at position {}".format(raw, index))
            append(Token("NUMBER", float(raw) if "." in raw else int(raw), index))
        elif kind == "STRING":
            append(Token("STRING", raw[1:-1].replace("''", "'"), index))
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
