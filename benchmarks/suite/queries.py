"""The benchmark's own query texts.

Frozen copies: the suite must not drift when ``repro.bench`` is
refactored, so nothing here imports from the product.
"""

from __future__ import annotations

import random
from typing import Iterator, Mapping, Sequence

#: The 23 LPath queries of Figure 6(c), in the paper's order (Q1..Q23).
PAPER_QUERIES: tuple[str, ...] = (
    "//S[//_[@lex=saw]]",
    "//VB->NP",
    "//VP/VB-->NN",
    "//VP{/VB-->NN}",
    "//VP{/NP$}",
    "//VP{//NP$}",
    "//VP[{//^VB->NP->PP$}]",
    "//S[//NP/ADJP]",
    "//NP[not(//JJ)]",
    "//NP[->PP[//IN[@lex=of]]=>VP]",
    "//S[{//_[@lex=what]->_[@lex=building]}]",
    "//_[@lex=rapprochement]",
    "//_[@lex=1929]",
    "//ADVP-LOC-CLR",
    "//WHPP",
    "//RRC/PP-TMP",
    "//UCP-PRD/ADJP-PRD",
    "//NP/NP/NP/NP/NP",
    "//VP/VP/VP",
    "//PP=>SBAR",
    "//ADVP=>ADJP",
    "//NP=>NP=>NP",
    "//VP=>VP",
)

#: The same queries for the comparison systems (``None`` = inexpressible),
#: used only by the paper-shape comparator probe.
TGREP2_QUERIES: tuple[str, ...] = (
    "S << saw",
    "NP , VB",
    "NN ,, (VB > VP)",
    "VP=v < (VB .. (NN >> =v))",
    "VP <- NP",
    "NP >> (VP=v) !. (__ >> =v)",
    "VP=v << (VB !, (__ >> =v) . (NP >> =v . (PP >> =v !. (__ >> =v))))",
    "S << (NP < ADJP)",
    "NP !<< JJ",
    "NP . (PP << of $. VP)",
    "S=s << (what . (building >> =s))",
    "rapprochement",
    "1929",
    "ADVP-LOC-CLR",
    "WHPP",
    "PP-TMP > RRC",
    "ADJP-PRD > UCP-PRD",
    "NP > (NP > (NP > (NP > NP)))",
    "VP > (VP > VP)",
    "SBAR $, PP",
    "ADJP $, ADVP",
    "NP $, (NP $, NP)",
    "VP $, VP",
)
CORPUSSEARCH_QUERIES: tuple[str, ...] = (
    "(S Doms saw)",
    "(VB iPrecedes NP)",
    "(VP iDoms VB) AND (VB Precedes NN)",
    "(VP iDoms VB) AND (VB Precedes NN) AND (VP Doms NN)",
    "(VP iDomsLast NP)",
    "(VP domsLast NP)",
    "(VP domsFirst VB) AND (VB iPrecedes NP) AND (NP iPrecedes PP) "
    "AND (VP Doms NP) AND (VP domsLast PP)",
    "(S Doms NP) AND (NP iDoms ADJP)",
    "NOT (NP Doms JJ)",
    "(NP iPrecedes PP) AND (PP Doms of) AND (PP iPrecedes VP) AND "
    "(PP hasSister VP)",
    "(S Doms what) AND (S Doms building) AND (what iPrecedes building)",
    "(* iDoms rapprochement)",
    "(* iDoms 1929)",
    "(ADVP-LOC-CLR iDoms *)",
    "(WHPP iDoms *)",
    "(RRC iDoms PP-TMP)",
    "(UCP-PRD iDoms ADJP-PRD)",
    "(a:NP iDoms b:NP) AND (b:NP iDoms c:NP) AND (c:NP iDoms d:NP) "
    "AND (d:NP iDoms e:NP)",
    "(a:VP iDoms b:VP) AND (b:VP iDoms c:VP)",
    "(PP iPrecedes SBAR) AND (PP hasSister SBAR)",
    "(ADVP iPrecedes ADJP) AND (ADVP hasSister ADJP)",
    "(a:NP iPrecedes b:NP) AND (a:NP hasSister b:NP) AND "
    "(b:NP iPrecedes c:NP) AND (b:NP hasSister c:NP)",
    "(a:VP iPrecedes b:VP) AND (a:VP hasSister b:VP)",
)
#: 0-based indexes of the 11 queries the XPath-labeling engine supports
#: (Figure 10's x-axis).
XPATH_SUPPORTED: tuple[int, ...] = (0, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18)

#: The cold fresh-process CLI query of ``paper_suite`` (Q19).
COLD_QUERY = "//VP/VP/VP"

#: ``serve_mixed``: the hot set (rare tags and words -> tiny results that
#: live in the daemon's result cache) and the paged query (Q2).
SERVE_HOT: tuple[str, ...] = (
    "//ADVP-LOC-CLR",
    "//WHPP",
    "//RRC/PP-TMP",
    "//UCP-PRD/ADJP-PRD",
    "//_[@lex=rapprochement]",
    "//_[@lex=1929]",
    "//ADVP=>ADJP",
    "//S[{//_[@lex=what]->_[@lex=building]}]",
)
SERVE_PAGE_QUERY = "//VB->NP"
SERVE_PAGE_ROWS = 1000

#: ``live_append_query``: the four tag-only reads that follow every append.
LIVE_READS: tuple[str, ...] = (
    "//WHPP",
    "//VP/VP/VP",
    "//PP=>SBAR",
    "//NP/NP/NP/NP/NP",
)

#: ``adhoc_lexical``: every text starts from a rare word's value-index
#: probe and walks two or three more steps, the last one plain, inside a
#: predicate or inside a scope: ``//_[@lex=w]\NP->PP``,
#: ``//_[@lex=w]<-JJ[\NP-SBJ]``, ``//_[@lex=w]\ancestor::VP==>PP{//NN}``.
#: ``//A[//_[@lex=w]]`` of the paper is ``//_[@lex=w]\ancestor::A`` here:
#: without that rewrite the engine scans every ``A`` first and the op is
#: execution-bound (12 ms on 5 000 sentences), which is ``paper_suite``'s
#: job, not this workload's.
ADHOC_AXES: tuple[str, ...] = (
    "/", "//", "\\", "\\ancestor::", "=>", "->", "<=", "<-",
    "==>", "-->", "<==", "<--",
)
ADHOC_FIRST_AXES = ADHOC_AXES[2:]  # the word's node has no children
ADHOC_SCOPED_AXES = ADHOC_AXES[:2]
ADHOC_LAST_FORMS: tuple[str, ...] = ("{axis}{tag}", "[{axis}{tag}]", "{{{axis}{tag}}}")
#: How many of the corpus's least frequent words feed the stream.  The
#: generator's vocabulary has 95 words and three of them occur five times
#: or less in 5 000 sentences, so "the tail" is the 12 rarest: 2 to about
#: 60 occurrences each.
ADHOC_RARE_WORDS = 12
#: Share of texts whose tags are read off a tree the anchor word is in,
#: step by step, so that the query matches something.  The rest draw
#: every tag from all labels and match nothing 49 times in 50: a
#: linguist's wrong guess, and the cheapest op the engine has.
ADHOC_AIMED_SHARE = 0.75


def related(node, axis: str) -> list:
    """The nodes of ``node``'s tree that ``axis`` reaches from it, by the
    paper's Definition 4.1 spans (``left``/``right``/parent).  It only
    aims generated texts at tags that are there; no answer is checked
    against it."""
    if axis == "/":
        return node.children
    if axis == "//":
        return list(node.descendants())
    if axis == "\\":
        return [node.parent] if node.parent is not None else []
    if axis == "\\ancestor::":
        return list(node.ancestors())
    if axis in ("=>", "==>", "<=", "<=="):
        pool = node.parent.children if node.parent is not None else []
    else:
        root = node
        while root.parent is not None:
            root = root.parent
        pool = root.preorder()
    if axis in ("=>", "->"):
        return [other for other in pool if other.left == node.right]
    if axis in ("==>", "-->"):
        return [other for other in pool if other.left >= node.right]
    if axis in ("<=", "<-"):
        return [other for other in pool if other.right == node.left]
    return [other for other in pool if other.right <= node.left]


def adhoc_stream(
    anchors: Mapping[str, Sequence], tags: Sequence[str], seed: int
) -> Iterator[tuple[str, str]]:
    """An endless seeded stream of distinct ``(text, word)`` pairs.

    ``anchors`` maps each rare word to the tree nodes that carry it,
    ``tags`` lists every plain node label of the corpus (sorted by the
    caller, so the stream depends only on the seed).  Aimed texts alone
    number several hundred thousand, so a window never runs out.
    """
    rng = random.Random(seed)
    words = sorted(anchors)
    plain = set(tags)
    seen: set[str] = set()

    def step(node, axes):
        """``(axis, tag, node reached)``: towards a node that is there
        when ``node`` is given, anywhere otherwise."""
        if node is not None:
            for axis in rng.sample(axes, len(axes)):
                reached = [other for other in related(node, axis)
                           if other.label in plain]
                if reached:
                    node = rng.choice(reached)
                    return axis, node.label, node
        return rng.choice(axes), rng.choice(tags), None

    while True:
        word = rng.choice(words)
        aimed = rng.random() < ADHOC_AIMED_SHARE
        node = rng.choice(anchors[word]) if aimed else None
        axis, tag, node = step(node, ADHOC_FIRST_AXES)
        text = f"//_[@lex={word}]{axis}{tag}"
        if rng.random() < 0.5:
            axis, tag, node = step(node, ADHOC_AXES)
            text += f"{axis}{tag}"
        # A scope needs something below the node it opens on.
        form = rng.choice(
            ADHOC_LAST_FORMS if node is None or node.children
            else ADHOC_LAST_FORMS[:2])
        axis, tag, node = step(
            node, ADHOC_SCOPED_AXES if form.startswith("{{") else ADHOC_AXES)
        text += form.format(axis=axis, tag=tag)
        if text not in seen:
            seen.add(text)
            yield text, word
