"""Golden snapshots of ``explain()`` output.

Pins the logical-IR + physical-plan rendering for a representative query
set in both dialects, so any optimizer or
compiler change shows up as a readable snapshot diff rather than a silent
plan regression.

Snapshots live in ``tests/plan/snapshots/``; regenerate after an
*intentional* plan change with::

    REPRO_UPDATE_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/plan/test_explain_snapshots.py
"""

from __future__ import annotations

import difflib
import os
import pathlib
import re

import pytest

from repro.lpath import LPathEngine
from repro.tree import iter_trees
from repro.xpath import XPathEngine

SNAPSHOT_DIR = pathlib.Path(__file__).parent / "snapshots"
UPDATE = os.environ.get("REPRO_UPDATE_SNAPSHOTS") == "1"

#: A small fixed corpus (never generated, so snapshots cannot drift with
#: the corpus generator).
CORPUS = """
( (S (NP (Det the) (N dog)) (VP (V saw) (NP (NP (Det a) (Adj old) (N man)) (PP (Prep with) (NP (N today)))))) )
( (S (NP I) (VP (V ran))) )
( (S (NP (Det the) (Adj old) (N man)) (VP (V saw) (NP (N dog)) (ADVP today))) )
"""

#: (slug, dialect, query, compile kwargs).
SNAPSHOTS = [
    ("lpath_descendant", "lpath", "//NP", {}),
    ("lpath_child_chain", "lpath", "//NP/N", {}),
    ("lpath_two_step_scan", "lpath", "//S//V", {}),
    ("lpath_two_step_scan_pivot", "lpath", "//S//V", {"pivot": True}),
    ("lpath_immediate_following", "lpath", "//V->NP", {}),
    ("lpath_sibling", "lpath", "//V==>NP", {}),
    ("lpath_parent", "lpath", "//N\\NP", {}),
    ("lpath_scope_aligned", "lpath", "//VP{//NP$}", {}),
    ("lpath_negated_exists", "lpath", "//NP[not(//Det) and not(//Adj)]", {}),
    ("lpath_count", "lpath", "//NP[count(//N)>1]", {}),
    ("lpath_value_comparison", "lpath", "//NP[//N=dog or not(/N=man)]", {}),
    ("lpath_position", "lpath", "//VP/_[position()=last()]", {}),
    ("lpath_name_function", "lpath", "//_[name()=NP]", {}),
    ("lpath_exists_pivot", "lpath", "//S[//NP/N]", {"pivot": True}),
    ("lpath_columnar_scan", "lpath", "//S//NP", {}),
    ("lpath_columnar_subplan", "lpath", "//S[//NP/N]", {}),
    ("lpath_columnar_nested_predicate", "lpath", "//NP[->PP[//N]=>ADVP]",
     {}),
    ("lpath_columnar_or_exists", "lpath", "//NP[//Adj or //PP]",
     {}),
    ("lpath_columnar_join_predicate", "lpath", "//S//NP[not(//PP)]/N",
     {}),
    # A value-seeded join is merge-eligible: costed and annotated like a
    # named step (three bindings: the per-binding probe wins).
    ("lpath_columnar_value_seed", "lpath", "//S[//_[@lex=saw]]",
     {}),
    ("lpath_columnar_deep_chain", "lpath", "//S//NP//N", {}),
    ("lpath_columnar_ancestor", "lpath", "//Det\\ancestor::S", {}),
    ("lpath_columnar_wildcard_child", "lpath", "//S/_", {}),
    ("lpath_topk", "lpath", "//S//NP//N", {"limit": 5}),
    ("lpath_topk_scan", "lpath", "//S//NP", {"limit": 3}),
    ("lpath_aggregate_count", "lpath", "//S//NP", {"agg": "count"}),
    ("lpath_aggregate_by_name", "lpath", "//S/_",
     {"agg": "count_by_name"}),
    ("lpath_aggregate_by_depth", "lpath", "//NP",
     {"agg": "count_by_depth"}),
    # One tree per segment: ADVP only lives in the last, PP in the first.
    ("lpath_segmented_pruned", "lpath_sharded", "//S//ADVP",
     {}),
    ("lpath_segmented_all_pruned", "lpath_sharded", "//S[//WHNP]",
     {}),
    ("xpath_child_chain", "xpath", "//NP/N", {}),
    ("xpath_two_step_scan_pivot", "xpath", "//S//V", {"pivot": True}),
    ("xpath_ancestor", "xpath", "//Det\\ancestor::S", {}),
    ("xpath_columnar_scan", "xpath", "//S//NP", {}),
    ("xpath_columnar_deep_chain", "xpath", "//S//NP//N", {}),
    ("xpath_topk", "xpath", "//S//NP", {"limit": 3}),
    ("xpath_aggregate_by_name", "xpath", "//NP/_",
     {"agg": "count_by_name"}),
]

#: (slug, dialect, batch entries) for ``explain_batch`` DAG snapshots.
#: The suites deliberately share scan/join prefixes so the reuse
#: annotations are exercised, and mix row, top-k and aggregate members.
BATCH_SNAPSHOTS = [
    ("lpath_batch_dag", "lpath", [
        "//S//NP",
        "//S//VP",
        {"query": "//S//NP//N", "limit": 3},
        {"query": "//S//NP", "agg": "count"},
        {"query": "//NP", "agg": "count_by_name"},
        "//NP/N",
    ]),
    ("xpath_batch_dag", "xpath", [
        "//S//NP",
        {"query": "//S//NP/N", "limit": 2},
        {"query": "//S//NP", "agg": "count_by_depth"},
    ]),
]

#: A merge join's description names the kernel backend that would run
#: it (``kernel=native`` / ``[merge/native`` vs ``...python``) — an
#: environment fact, not a plan fact, so snapshots neutralize it.
_KERNEL_TAG = re.compile(r"(kernel=|merge/)\w+")


def _neutral(rendered: str) -> str:
    return _KERNEL_TAG.sub(r"\1<backend>", rendered)


@pytest.fixture(scope="module")
def engines():
    trees = list(iter_trees(CORPUS))
    return {
        "lpath": LPathEngine(trees, keep_trees=False),
        "lpath_sharded": LPathEngine(trees, keep_trees=False, segments=3),
        "xpath": XPathEngine(trees),
    }


def _snapshot_path(slug: str) -> pathlib.Path:
    return SNAPSHOT_DIR / f"{slug}.txt"


def _assert_matches_snapshot(slug: str, actual: str, subject: str) -> None:
    path = _snapshot_path(slug)
    if UPDATE or not path.exists():
        SNAPSHOT_DIR.mkdir(exist_ok=True)
        path.write_text(actual)
        if not UPDATE:
            pytest.fail(
                f"snapshot {path.name} was missing and has been written; "
                "inspect and commit it"
            )
        return
    expected = path.read_text()
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                actual.splitlines(),
                fromfile=f"snapshots/{path.name}",
                tofile=subject,
                lineterm="",
            )
        )
        pytest.fail(
            f"{subject} drifted from the pinned snapshot:\n{diff}\n"
            "(REPRO_UPDATE_SNAPSHOTS=1 regenerates after an intentional change)"
        )


@pytest.mark.parametrize(
    "slug,dialect,query,kwargs",
    SNAPSHOTS,
    ids=[slug for slug, *_ in SNAPSHOTS],
)
def test_explain_snapshot(engines, slug, dialect, query, kwargs):
    actual = _neutral(engines[dialect].explain(query, **kwargs)) + "\n"
    _assert_matches_snapshot(slug, actual, f"explain() for {query!r}")


@pytest.mark.parametrize(
    "slug,dialect,entries",
    BATCH_SNAPSHOTS,
    ids=[slug for slug, *_ in BATCH_SNAPSHOTS],
)
def test_explain_batch_snapshot(engines, slug, dialect, entries):
    rendered = engines[dialect].explain_batch(entries)
    actual = _neutral(rendered) + "\n"
    _assert_matches_snapshot(slug, actual, "explain_batch()")


def test_snapshot_list_is_unique():
    slugs = [slug for slug, *_ in SNAPSHOTS]
    slugs += [slug for slug, *_ in BATCH_SNAPSHOTS]
    assert len(slugs) == len(set(slugs))
