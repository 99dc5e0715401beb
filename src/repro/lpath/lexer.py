"""Tokenizer for LPath queries.

The main lexical subtlety is that Penn Treebank tag names contain ``-``
(``-NONE-``, ``NP-SBJ``, ``ADVP-LOC-CLR``) while ``->`` and ``-->`` are
axes.  The lexer uses maximal-munch with lookahead: inside a name, ``-`` is
a name character unless it begins ``->`` or ``-->`` — one compiled master
regex encodes the whole priority ladder.  Genuinely ambiguous
tags (``PRP$``, punctuation tags like ``.``) can be written as quoted names
``'PRP$'``.

``<=`` is tokenized as the immediate-preceding-sibling axis; the parser
reinterprets it as a comparison operator when the left operand cannot start
a path continuation (e.g. ``position()<=3``).
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .axes import ARROWS, Axis
from .errors import LPathSyntaxError


class Token(NamedTuple):
    """A lexical token: kind, surface text, axis payload, source offset."""

    kind: str
    text: str
    axis: Optional[Axis]
    position: int


# Token kinds.
DSLASH = "DSLASH"          # //
SLASH = "SLASH"            # /
BACKSLASH = "BACKSLASH"    # \
ARROW = "ARROW"            # ->  -->  <-  <--  =>  ==>  <=  <==
DOT = "DOT"                # .
DDOT = "DDOT"              # ..
AT = "AT"                  # @
LBRACKET, RBRACKET = "LBRACKET", "RBRACKET"
LBRACE, RBRACE = "LBRACE", "RBRACE"
LPAREN, RPAREN = "LPAREN", "RPAREN"
CARET, DOLLAR = "CARET", "DOLLAR"
COLONCOLON = "COLONCOLON"  # ::
COMMA = "COMMA"
OP = "OP"                  # =  !=  <  >  >=
NAME = "NAME"
STRING = "STRING"          # quoted name or literal
EOF = "EOF"

#: Fixed-text tokens.  Order matters only between texts sharing a prefix
#: (the regex alternation tries them left to right): longest first.
_FIXED = {
    "//": DSLASH, "/": SLASH, "\\": BACKSLASH, "::": COLONCOLON,
    "..": DDOT, ".": DOT, "@": AT,
    "[": LBRACKET, "]": RBRACKET, "{": LBRACE, "}": RBRACE,
    "(": LPAREN, ")": RPAREN, "^": CARET, "$": DOLLAR, ",": COMMA,
    "!=": OP, ">=": OP, "=": OP, "<": OP, ">": OP,
}
_ARROW_AXES = dict(ARROWS)


def _alternation(texts) -> str:
    return "|".join(re.escape(text) for text in texts)


#: One master pattern, alternatives in the old ladder's priority order:
#: arrows (longest first, from the shared table) beat the operators they
#: start with, a name character is alphanumeric, ``_`` or a ``-`` that
#: does not begin ``->``/``-->``, and whatever nothing else matches is
#: the error character (an opening quote there never found its close;
#: the ``(?!...)`` after a closing quote keeps a string from backtracking
#: out of a doubled quote to find one — possessive ``*+`` needs 3.11).
_MASTER = re.compile(
    r"(?P<SPACE>\s+)"
    f"|(?P<ARROW>{_alternation(_ARROW_AXES)})"
    f"|(?P<FIXED>{_alternation(_FIXED)})"
    r"""|(?P<STRING>'(?:[^']|'')*'(?!')|"(?:[^"]|"")*"(?!"))"""
    r"|(?P<NAME>(?:\w|-(?!>|->))+)"
    r"|(?P<BAD>.)",
    re.DOTALL,
)


def tokenize(query: str) -> list[Token]:
    """Tokenize a full query; raises :class:`LPathSyntaxError`."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _MASTER.finditer(query):
        group, text, index = match.lastgroup, match.group(), match.start()
        if group == "NAME":
            append(Token(NAME, text, None, index))
        elif group == "FIXED":
            append(Token(_FIXED[text], text, None, index))
        elif group == "ARROW":
            append(Token(ARROW, text, _ARROW_AXES[text], index))
        elif group == "STRING":
            # A doubled quote escapes itself (``'o''clock'``).
            quote = text[0]
            append(Token(STRING, text[1:-1].replace(quote * 2, quote), None, index))
        elif group == "BAD":
            if text in "'\"":
                raise LPathSyntaxError("unterminated string literal", query, index)
            raise LPathSyntaxError(f"unexpected character {text!r}", query, index)
    append(Token(EOF, "", None, len(query)))
    return tokens
