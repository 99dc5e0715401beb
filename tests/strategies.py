"""Shared hypothesis strategies: random trees, corpora and *queries*.

The query generators emit surface-syntax LPath text constrained to the
fragment every execution path understands (the plan backend, the
emitted-SQL SQLite oracle and the tree-walk reference), so the
differential fuzz harness can assert exact agreement; the one exception
is a comparison of an element's string value, which the SQLite oracle
refuses (the harness then checks the others against the tree walk).  Axes, predicates
and scopes are sampled independently; predicate nesting is depth-bounded.
"""

from __future__ import annotations

import hypothesis.strategies as st

from repro.tree import Tree, TreeNode

LABELS = ["S", "NP", "VP", "PP", "N", "V", "Det", "Adj", "Prep", "ADVP", "X-Y"]
WORDS = ["saw", "dog", "man", "the", "a", "old", "with", "today", "I", "of"]

#: Leaf words: :data:`WORDS` and one number, so that a numeric comparison
#: of an element's string value (``[. > 1]``) can come out either way.
LEXICON = WORDS + ["2"]

labels = st.sampled_from(LABELS)
words = st.sampled_from(WORDS)


@st.composite
def tree_nodes(draw, max_depth: int = 5, max_children: int = 4) -> TreeNode:
    """A random ordered tree node, possibly with unary branches."""
    label = draw(labels)
    if max_depth <= 1 or draw(st.booleans()):
        want_word = draw(st.booleans())
        attrs = {"lex": draw(st.sampled_from(LEXICON))} if want_word else {}
        return TreeNode(label, attributes=attrs)
    n_children = draw(st.integers(min_value=1, max_value=max_children))
    children = [
        draw(tree_nodes(max_depth=max_depth - 1, max_children=max_children))
        for _ in range(n_children)
    ]
    return TreeNode(label, children=children)


@st.composite
def trees(draw, max_depth: int = 5, tid: int = 0) -> Tree:
    """A random indexed :class:`Tree`."""
    return Tree(draw(tree_nodes(max_depth=max_depth)), tid=tid)


@st.composite
def corpora(draw, max_trees: int = 4, max_depth: int = 4) -> list[Tree]:
    """A random list of trees with sequential tids."""
    count = draw(st.integers(min_value=1, max_value=max_trees))
    return [
        Tree(draw(tree_nodes(max_depth=max_depth)), tid=tid) for tid in range(count)
    ]


@st.composite
def sparse_corpora(draw, max_trees: int = 7, max_depth: int = 4):
    """``(trees, tag)``: a random corpus in which ``tag`` — one of
    :data:`LABELS` — survives only in a drawn subset of the trees (every
    other occurrence is relabelled to a tag no query names), so a corpus
    sharded one tree per segment has shards that provably lack it.  The
    pruning-biased twin of :func:`corpora`."""
    count = draw(st.integers(min_value=2, max_value=max_trees))
    tag = draw(labels)
    keep = draw(st.sets(st.integers(min_value=0, max_value=count - 1), max_size=2))
    built = []
    for tid in range(count):
        root = draw(tree_nodes(max_depth=max_depth))
        if tid not in keep:
            for node in root.preorder():
                if node.label == tag:
                    node.label = "ELSEWHERE"
        built.append(Tree(root, tid=tid))
    return built, tag


# -- random queries -----------------------------------------------------------

#: Step separators of the main chain (surface syntax -> axis):
#: child, descendant, parent, named vertical axes, and the horizontal /
#: sibling arrow axes.
_LPATH_SEPARATORS = [
    "/", "//", "\\",
    "\\ancestor::", "\\ancestor-or-self::",
    "->", "-->", "<-", "<--",
    "=>", "==>", "<=", "<==",
]

#: Separators usable inside predicate paths (relative paths).
_PRED_SEPARATORS = ["/", "//", "->", "=>", "==>", "<="]

#: The main-chain separators whose steps may carry ``position()``: child,
#: following-sibling and preceding-sibling.
_POSITIONAL_SEPARATORS = ["/", "==>", "<=="]

#: The subset expressible over start/end labels (the XPath engine with the
#: full [11] axis inventory: vertical axes + horizontal/sibling, but no
#: immediate-* axes, scopes or alignment).
_XPATH_SEPARATORS = ["/", "//", "\\", "\\ancestor::", "\\ancestor-or-self::"]
_XPATH_PRED_SEPARATORS = ["/", "//"]

_COMPARE_OPS = ["=", "!=", ">", ">=", "<"]

name_tests = st.sampled_from(LABELS + ["_"])


@st.composite
def _step_test(draw, edges: str = "{}") -> str:
    """A name test (``edges`` wraps it in a scope's ``^``/``$``), one time
    in four narrowed to a word: ``N[@lex=dog]``.  Past the first step of a
    path that is a *value-seeded* join — the candidates come from the
    value index, merged against their sorted row list or probed per
    binding — behind whatever separator (axis) precedes it."""
    text = edges.format(draw(name_tests))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        text += f"[@lex={draw(words)}]"
    return text


@st.composite
def _position(draw) -> str:
    """A step-level ``[position() op k]`` or ``[position()=last()]``."""
    if draw(st.booleans()):
        return "[position()=last()]"
    op = draw(st.sampled_from(_COMPARE_OPS))
    return f"[position(){op}{draw(st.integers(min_value=1, max_value=3))}]"


@st.composite
def _predicate(
    draw, depth: int, separators: list[str], element_values: bool = False
) -> str:
    """One ``[...]`` predicate body, nesting bounded by ``depth``;
    ``element_values`` also draws comparisons of an element's string
    value (a scheme with element string values only)."""
    # "path" is listed twice: existence subplans are the predicates the
    # batch executor runs as semi-joins, so they get the largest share.
    simple = [
        "path", "path", "attr-exists", "attr-cmp", "name-cmp", "count-cmp",
    ]
    if element_values:
        simple.append("value-cmp")
    nested = ["not", "and", "or"] if depth > 0 else []
    kind = draw(st.sampled_from(simple + nested))
    if kind == "path":
        return draw(_relative_path(separators))
    if kind == "attr-exists":
        return "@lex"
    if kind == "attr-cmp":
        # Against a word as text, or against a number: a word that is no
        # number reads as NaN, which only ``!=`` holds against.
        if draw(st.booleans()):
            op = draw(st.sampled_from(["=", "!="]))
            return f"@lex{op}{draw(words)}"
        op = draw(st.sampled_from(_COMPARE_OPS))
        return f"@lex{op}{draw(st.integers(min_value=0, max_value=3))}"
    if kind == "name-cmp":
        op = draw(st.sampled_from(["=", "!="]))
        return f"name(){op}{draw(labels)}"
    if kind == "count-cmp":
        op = draw(st.sampled_from(_COMPARE_OPS))
        target = draw(st.integers(min_value=0, max_value=3))
        return f"count({draw(_relative_path(separators))}){op}{target}"
    if kind == "value-cmp":
        # A path's string values against a word, or the context node's
        # own value read as a number.
        if draw(st.booleans()):
            op = draw(st.sampled_from(["=", "!="]))
            return f"{draw(_relative_path(separators))}{op}{draw(words)}"
        op = draw(st.sampled_from(_COMPARE_OPS))
        return f".{op}{draw(st.integers(min_value=0, max_value=3))}"
    inner = _predicate(depth - 1, separators, element_values)
    if kind == "not":
        return f"not({draw(inner)})"
    joiner = " and " if kind == "and" else " or "
    return joiner.join((draw(inner), draw(inner)))


@st.composite
def _relative_path(draw, separators: list[str]) -> str:
    """A 1-2 step relative path for use inside a predicate."""
    steps = draw(st.integers(min_value=1, max_value=2))
    first = draw(st.sampled_from(["/", "//"]))
    text = first + draw(_step_test())
    for _ in range(steps - 1):
        text += draw(st.sampled_from(separators)) + draw(_step_test())
    return text


@st.composite
def _scope(draw, max_pred_depth: int) -> str:
    """A trailing ``{...}`` scope with optional edge alignment on its
    final step."""
    sep = draw(st.sampled_from(["/", "//"]))
    caret = "^{}" if draw(st.booleans()) else "{}"
    dollar = "{}$" if draw(st.booleans()) else "{}"
    if draw(st.booleans()):
        body = sep + draw(_step_test(caret))
        body += draw(st.sampled_from(["/", "//", "->", "=>"])) + draw(_step_test(dollar))
    else:
        body = sep + draw(_step_test(dollar.format(caret)))
    return "{" + body + "}"


@st.composite
def lpath_queries(draw, max_steps: int = 3, max_pred_depth: int = 2) -> str:
    """A random LPath query supported by every execution path."""
    step_count = draw(st.integers(min_value=1, max_value=max_steps))
    text = draw(st.sampled_from(["/", "//"])) + draw(name_tests)
    for index in range(step_count):
        # One step in two carries a predicate, so about 7 texts in 10 do.
        if draw(st.booleans()):
            text += f"[{draw(_predicate(max_pred_depth, _PRED_SEPARATORS, True))}]"
        if index < step_count - 1:
            separator = draw(st.sampled_from(_LPATH_SEPARATORS))
            step = draw(_step_test())
            if separator in _POSITIONAL_SEPARATORS and draw(st.booleans()):
                # position() ranks among every sibling the name test
                # admits, so it goes before the step's own [@lex=...].
                name, bracket, seed = step.partition("[")
                step = name + draw(_position()) + bracket + seed
            text += separator + step
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        text += draw(_scope(max_pred_depth))
    return text


@st.composite
def xpath_queries(draw, max_steps: int = 3, max_pred_depth: int = 2) -> str:
    """A random query inside the start/end-expressible fragment (shared by
    the XPath baseline engine and the LPath engine)."""
    step_count = draw(st.integers(min_value=1, max_value=max_steps))
    text = draw(st.sampled_from(["/", "//"])) + draw(name_tests)
    for index in range(step_count):
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            text += f"[{draw(_predicate(max_pred_depth, _XPATH_PRED_SEPARATORS))}]"
        if index < step_count - 1:
            text += draw(st.sampled_from(_XPATH_SEPARATORS)) + draw(name_tests)
    return text
