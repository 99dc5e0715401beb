"""Tree lifetime and memory: trees are compact, acyclic object graphs.

A node holds its children and only a weak link to its parent, so a dropped
corpus is freed by reference counting and leaves nothing for the cyclic
collector, and corpora are built with the collector paused.  A leaf shares
one empty tuple as its children, and a node keeps its word in one slot, so
no leaf owns a list and no node a dict until ``attributes`` is read.  These
tests count objects, bytes and collections, never time.
"""

import copy
import gc
import hashlib
import io
import pickle
import tracemalloc

import pytest

from repro.corpus.generator import generate_corpus, replicate_corpus
from repro.labeling import label_columns, label_corpus, xpath_scheme
from repro.oracle import TreeWalkEvaluator
from repro.tree import (
    Tree, TreeError, TreeNode, figure1_tree, format_tree, iter_trees, validate,
    write_trees,
)

#: sha256 of the bracketed WSJ corpus below, one tree a line, pinned before
#: parent links became weak: the generator's output must not move.
WSJ_200_SEED_7 = "107e7b9137dedbb51e38e1f3a1d30903c6af7f48533417df93cffd9a7aeb21ef"

#: sha256 of ``repr(list(xpath_scheme.label_corpus(SOURCE)))``, pinned
#: while the labeller was still a recursive closure.
XPATH_ROWS_50_SEED_3 = (
    "e43c5d4417bfaec44694bdf1145ca3c031496fdff0bd474046475c568d4585c5"
)


def bracketed(trees) -> str:
    stream = io.StringIO()
    write_trees(trees, stream)
    return stream.getvalue()


SOURCE = generate_corpus("wsj", 50, 3)
TEXT = bracketed(SOURCE)
BUILDS = {
    "generated": lambda: generate_corpus("wsj", 50, 3),
    "replicated": lambda: replicate_corpus(SOURCE, 1.5),
    "parsed": lambda: list(iter_trees(TEXT)),
}


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_a_dropped_corpus_leaves_no_cyclic_garbage(kind):
    gc.collect()
    trees = BUILDS[kind]()
    assert len(trees) >= 50
    del trees
    assert gc.collect() == 0


def test_xpath_labelling_leaves_no_cyclic_garbage():
    """The start/end labeller walks each tree without a self-referencing
    closure, so labelling a corpus (the collector paused, as a build
    runs) leaves nothing for the collector; the rows do not move."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rows = list(xpath_scheme.label_corpus(SOURCE))
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert gc.collect() == 0
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == XPATH_ROWS_50_SEED_3


def collections_during(build) -> tuple[list, object]:
    """The generations collected while ``build()`` runs, from zeroed
    counts, and what it returned."""
    generations = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        built = build()
    finally:
        gc.callbacks.remove(record)
    return generations, built


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_a_corpus_is_built_without_a_collection(kind):
    """Paused while building; on resuming, at most the one young
    collection the new objects are owed."""
    generations, trees = collections_during(BUILDS[kind])
    assert trees and generations in ([], [0])


@pytest.mark.parametrize("enabled", [True, False])
def test_generation_restores_the_collector_state(enabled):
    """A large build with the collector on is moved to the old generation
    in one walk, leaving no young collection owed; with it off, nothing
    is collected.  Either way the state is restored."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        generations, trees = collections_during(
            lambda: generate_corpus("wsj", 1000, 1))
        assert gc.isenabled() is enabled
        assert generations == ([1] if enabled else [])
        if enabled:
            assert gc.get_count()[0] < gc.get_threshold()[0]
        replicate_corpus(trees[:2], 2)
        list(iter_trees("(S (NP (N dog)))"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_parent_links_hold_while_the_tree_is_reachable():
    tree = generate_corpus("wsj", 1, 5)[0]
    assert tree.root.parent is None
    assert all(
        any(child is node for child in node.parent.children)
        for node in tree.nodes[1:]
    )
    leaf = tree.leaves()[-1]
    parent = leaf.parent
    leaf.detach()
    assert leaf.parent is None
    assert all(child is not leaf for child in parent.children)


def test_a_node_keeps_its_subtree_alive_not_its_ancestors():
    tree = generate_corpus("wsj", 1, 5)[0]
    subtree = tree.root.children[0]
    del tree
    assert subtree.parent is None
    assert subtree.children
    assert all(child.parent is subtree for child in subtree.children)
    tree = generate_corpus("wsj", 1, 5)[0]
    leaf = max(tree.nodes, key=lambda node: node.depth)
    del tree
    assert leaf.parent is None


def test_node_by_id_is_the_preorder_position():
    tree = generate_corpus("wsj", 1, 5)[0]
    assert [tree.node_by_id(i) for i in range(1, len(tree) + 1)] == tree.nodes
    for node_id in (0, -1, len(tree) + 1):
        with pytest.raises(TreeError):
            tree.node_by_id(node_id)


def test_generated_corpus_is_pinned():
    text = "\n".join(format_tree(tree) for tree in generate_corpus("wsj", 200, 7))
    assert hashlib.sha256(text.encode()).hexdigest() == WSJ_200_SEED_7


@pytest.mark.parametrize("copy_tree", [
    copy.deepcopy, lambda tree: pickle.loads(pickle.dumps(tree)),
], ids=["deepcopy", "pickle"])
def test_a_copied_tree_links_to_its_own_nodes(copy_tree):
    tree = figure1_tree()
    copied = copy_tree(tree)
    validate(copied)
    assert format_tree(copied) == format_tree(tree)
    assert [node.node_id for node in copied.nodes] == list(range(1, len(tree) + 1))
    assert all(node is not twin for node, twin in zip(tree.nodes, copied.nodes))
    subtree = copy_tree(tree.root.children[1])
    assert subtree.parent is None
    assert all(child.parent is subtree for child in subtree.children)


def containers(trees) -> tuple[int, int]:
    """``(leaves owning a list, nodes owning a dict)`` over ``trees``."""
    nodes = [node for tree in trees for node in tree.nodes]
    return (
        sum(isinstance(node.children, list) for node in nodes if not node.children),
        sum(isinstance(node._attrs, dict) for node in nodes),
    )


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_a_corpus_holds_no_leaf_list_and_no_dict(kind):
    trees = BUILDS[kind]()
    assert all(node.word for tree in trees for node in tree.leaves())
    assert containers(trees) == (0, 0)


READERS = {
    "label_columns": label_columns,
    "label_corpus": lambda trees: list(label_corpus(trees)),
    "xpath_labeller": lambda trees: list(xpath_scheme.label_corpus(trees)),
    "format_tree": lambda trees: [format_tree(tree) for tree in trees],
    "treewalk": lambda trees: [
        TreeWalkEvaluator(trees).query(text)
        for text in ("//NP[//_[@lex!=the]]", "//VP[//NN=company]//_[@_]")
    ],
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reading_a_corpus_builds_no_dict(reader):
    trees = generate_corpus("wsj", 50, 3)
    assert READERS[reader](trees)
    assert containers(trees) == (0, 0)


def test_a_generated_corpus_costs_at_most_230_bytes_a_node():
    """``tracemalloc`` bytes held by the corpus per node (≈ 207 at the
    time of writing; ≈ 367 with a dict and a list on every node)."""
    generate_corpus("wsj", 5, 7)   # profiles and lexicons loaded
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        trees = generate_corpus("wsj", 500, 7)
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert held / sum(len(tree) for tree in trees) <= 230


def test_writes_through_attributes_persist_and_reach_the_rows():
    tree = figure1_tree()
    leaf, root = tree.leaves()[0], tree.root
    leaf.attributes["lex"] = "we"
    leaf.attributes["pos"] = "PRP"
    root.attributes["id"] = "s1"
    assert leaf.word == "we" and leaf.attributes == {"lex": "we", "pos": "PRP"}
    assert leaf.attribute_items() == (("lex", "we"), ("pos", "PRP"))
    rows = {(row.id, row.name, row.value) for row in label_corpus([tree])}
    assert {(leaf.node_id, "@lex", "we"), (leaf.node_id, "@pos", "PRP"),
            (root.node_id, "@id", "s1")} <= rows
    assert list(zip(*label_columns([tree]))) == [tuple(row) for row in label_corpus([tree])]
    walk = TreeWalkEvaluator([tree])
    assert walk.query("//_[@pos=PRP][@lex=we]") == [(tree.tid, leaf.node_id)]
    assert walk.query("/_[@id=s1]") == [(tree.tid, root.node_id)]


@pytest.mark.parametrize("given", [{"lex": "dog"}, {"lex": "dog", "pos": "NN"}])
def test_a_node_does_not_alias_its_attributes(given):
    node = TreeNode("N", attributes=given)
    given["lex"] = "cat"
    assert node.word == "dog" and node.attributes is not given


@pytest.mark.parametrize("assigned, kind", [
    ({}, type(None)), ({"lex": "we"}, str), ({"lex": "we", "pos": "PRP"}, dict),
])
def test_assigning_attributes_stores_a_copy_in_the_slot(assigned, kind):
    tree = figure1_tree()
    leaf = tree.leaves()[0]
    leaf.attributes = assigned
    expected = tuple(sorted(assigned.items()))
    assigned["lex"] = "they"
    assert type(leaf._attrs) is kind and leaf.attribute_items() == expected
    rows = {(row.name, row.value) for row in label_corpus([tree]) if row.id == leaf.node_id}
    assert {(f"@{name}", text) for name, text in expected} <= rows


@pytest.mark.parametrize("attributes", [
    None, {"lex": "dog"}, {"lex": "dog", "pos": "NN"}, {"pos": "NN"},
], ids=["none", "word", "dict", "dict-without-word"])
@pytest.mark.parametrize("copy_node", [
    copy.deepcopy, lambda node: pickle.loads(pickle.dumps(node)),
], ids=["deepcopy", "pickle"])
def test_copies_keep_every_attribute_kind(attributes, copy_node):
    node = TreeNode("NP", [TreeNode("N", attributes=attributes)], attributes=attributes)
    tree = copy_node(Tree(node))
    expected = tuple(sorted((attributes or {}).items()))
    for copied, original in zip(tree.nodes, (node, node.children[0])):
        assert type(copied._attrs) is type(original._attrs)
        assert copied.attribute_items() == expected
        assert copied.word == (attributes or {}).get("lex")
    assert type(tree.root.children[0].children) is tuple
    assert format_tree(tree) == format_tree(Tree(node))
