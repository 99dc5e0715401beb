"""The regex lexer against the character ladder it replaced.

:func:`reference_tokens` is the old tokenizer, kept here verbatim as the
executable specification (the way ``reference_by_value`` outlives the
loop it specifies in ``tests/columnar/test_mmap_store.py``): one
``startswith`` ladder per character.  The master-regex lexer must yield
token-for-token identical streams — kind, text, axis, offset — and
identical ``LPathSyntaxError`` messages and positions.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.lpath import lexer as lx
from repro.lpath.axes import ARROWS, Axis
from repro.lpath.errors import LPathSyntaxError
from repro.lpath.lexer import Token, tokenize
from tests.strategies import lpath_queries, xpath_queries

_SIMPLE = {
    "[": lx.LBRACKET, "]": lx.RBRACKET, "{": lx.LBRACE, "}": lx.RBRACE,
    "(": lx.LPAREN, ")": lx.RPAREN, "^": lx.CARET, "$": lx.DOLLAR,
    ",": lx.COMMA,
}


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char in "_-"


def _name_boundary(text: str, index: int) -> bool:
    return text.startswith("->", index) or text.startswith("-->", index)


def reference_tokens(query: str) -> Iterator[Token]:
    index, length = 0, len(query)
    while index < length:
        char = query[index]
        if char.isspace():
            index += 1
            continue
        arrow = _match_arrow(query, index)
        if arrow is not None:
            text, axis = arrow
            yield Token(lx.ARROW, text, axis, index)
            index += len(text)
            continue
        if query.startswith("//", index):
            yield Token(lx.DSLASH, "//", None, index)
            index += 2
            continue
        if char == "/":
            yield Token(lx.SLASH, "/", None, index)
            index += 1
            continue
        if char == "\\":
            yield Token(lx.BACKSLASH, "\\", None, index)
            index += 1
            continue
        if query.startswith("::", index):
            yield Token(lx.COLONCOLON, "::", None, index)
            index += 2
            continue
        if query.startswith("..", index):
            yield Token(lx.DDOT, "..", None, index)
            index += 2
            continue
        if char == ".":
            yield Token(lx.DOT, ".", None, index)
            index += 1
            continue
        if char == "@":
            yield Token(lx.AT, "@", None, index)
            index += 1
            continue
        if char in _SIMPLE:
            yield Token(_SIMPLE[char], char, None, index)
            index += 1
            continue
        if query.startswith("!=", index):
            yield Token(lx.OP, "!=", None, index)
            index += 2
            continue
        if query.startswith(">=", index):
            yield Token(lx.OP, ">=", None, index)
            index += 2
            continue
        if char in "=<>":
            yield Token(lx.OP, char, None, index)
            index += 1
            continue
        if char in "'\"":
            text, advance = _read_string(query, index)
            yield Token(lx.STRING, text, None, index)
            index += advance
            continue
        if _is_name_char(char) and not (char == "-" and _name_boundary(query, index)):
            text, advance = _read_name(query, index)
            yield Token(lx.NAME, text, None, index)
            index += advance
            continue
        raise LPathSyntaxError(f"unexpected character {char!r}", query, index)
    yield Token(lx.EOF, "", None, length)


def _match_arrow(query: str, index: int) -> Optional[tuple[str, Axis]]:
    for text, axis in ARROWS:
        if query.startswith(text, index):
            return text, axis
    return None


def _read_string(query: str, index: int) -> tuple[str, int]:
    quote = query[index]
    parts: list[str] = []
    end = index + 1
    while end < len(query):
        char = query[end]
        if char == quote:
            if end + 1 < len(query) and query[end + 1] == quote:
                parts.append(quote)
                end += 2
                continue
            return "".join(parts), end - index + 1
        parts.append(char)
        end += 1
    raise LPathSyntaxError("unterminated string literal", query, index)


def _read_name(query: str, index: int) -> tuple[str, int]:
    end = index
    while end < len(query) and _is_name_char(query[end]):
        if query[end] == "-" and _name_boundary(query, end):
            break
        end += 1
    return query[index:end], end - index


def outcome(lexer, query: str):
    """The token stream, or the error's message (which embeds the query
    and the caret position) — comparable either way."""
    try:
        return [tuple(token) for token in lexer(query)]
    except LPathSyntaxError as error:
        return (type(error), str(error), error.args)


def assert_same(query: str) -> None:
    assert outcome(tokenize, query) == outcome(
        lambda text: list(reference_tokens(text)), query
    ), query


#: ``adhoc_lexical``'s shape: 12 axes x 3 forms of the last step.
ADHOC_AXES = (
    "/", "//", "\\", "\\ancestor::", "=>", "->", "<=", "<-",
    "==>", "-->", "<==", "<--",
)
ADHOC_LAST_FORMS = ("{axis}{tag}", "[{axis}{tag}]", "{{{axis}{tag}}}")


@pytest.mark.parametrize("axis", ADHOC_AXES)
@pytest.mark.parametrize("form", ADHOC_LAST_FORMS)
def test_adhoc_query_shapes(axis, form):
    for tag in ("NP", "NP-SBJ", "-NONE-", "ADVP-LOC-CLR", "_"):
        last = form.format(axis=axis, tag=tag)
        assert_same(f"//_[@lex=rapprochement]\\NP{axis}PP-TMP{last}")
        assert_same(f"//_[@lex=1929]{axis}{tag}{last}")


@pytest.mark.parametrize("query", [
    "", " ", "//S", "//VP{/NP$}", "//^VB->NP", "/descendant::NP", "..", ".",
    "//NP-SBJ-->VP", "//-NONE-->NP", "//A--->B", "//A-", "//A->", "//A-->",
    "//NP[position()<=3]", "//NP[count(//N)>=2]", "//NP[@lex!=dog]",
    "//'PRP$'", "//\"it''s\"", "//'o''clock'", "//''", "//'''", "//'a''",
    "//'a''b", "//'a'''b'", "//'a''''", "//\"a\"\"", "//'a'\"b\"", "//'a''b'/'c",
    "//'unterminated", "//NP[@lex='a b']", "//NP[@lex=\"x'y\"]",
    "//NP#", "//NP ? ", "//NP\t\n/N", "//é-ü/٣", "//A<==B<=C<--D<-E",
    "//A==>B=>C", "//A=B", "//A<B>C", "a-->b->c--d-e", "- -> -- --> ---",
    "//NP[->PP[//IN[@lex=of]]=>VP]", "//S[{//_[@lex=what]->_[@lex=building]}]",
])
def test_hand_picked_texts(query):
    assert_same(query)


def test_master_regex_needs_no_python_311_syntax():
    """Possessive quantifiers and atomic groups only compile from 3.11 on
    (CI also runs 3.10): a lookahead pins a string's closing quote."""
    assert not re.search(r"[*+?}]\+|\(\?>", lx._MASTER.pattern)


@given(lpath_queries())
@settings(max_examples=150, deadline=None)
def test_generated_lpath_queries(query):
    assert_same(query)
    # And the stream round-trips to the text it came from: offsets and
    # surface texts tile the query exactly (the generator quotes a string
    # with "..." and no quote inside, so its surface is its text quoted).
    position = 0
    for token in tokenize(query)[:-1]:
        surface = f'"{token.text}"' if token.kind == lx.STRING else token.text
        assert query.startswith(surface, token.position)
        assert query[position:token.position].strip() == ""
        position = token.position + len(surface)
    assert query[position:].strip() == ""


@given(xpath_queries())
@settings(max_examples=50, deadline=None)
def test_generated_xpath_queries(query):
    assert_same(query)


@given(st.text(
    alphabet=st.sampled_from(list("ab_-<>=/\\.:@[]{}()^$,!'\" \t\n1Aé٣#\x1c")),
    max_size=12,
))
@settings(max_examples=400, deadline=None)
def test_character_soup_including_errors(query):
    assert_same(query)
