"""Tests for the Definition 4.1 labeling scheme, incl. the Figure 5 relation."""

from hypothesis import given, settings

from repro.labeling import Label, label_columns, label_corpus, label_tree
from repro.tree import figure1_tree, tree_from_spec
from tests.strategies import corpora, trees


class TestFigure5:
    """The label relation of Figure 5 (positional fields must match exactly).

    The paper's Skolem identifiers happen to start at 2 (S has id=2, pid=1);
    ours are document-order from 1 with root pid=0, which Definition 4.1
    permits ("assign a nonzero id via a Skolem function").  We therefore
    compare ids *relative* to the root rather than literally.
    """

    def setup_method(self):
        self.rows = label_tree(figure1_tree())
        self.by_name = {}
        for row in self.rows:
            self.by_name.setdefault(row.name, []).append(row)

    def find(self, name, left, right, depth):
        matches = [
            r for r in self.by_name.get(name, ())
            if (r.left, r.right, r.depth) == (left, right, depth)
        ]
        assert len(matches) == 1, f"{name} ({left},{right},{depth}): {matches}"
        return matches[0]

    def test_element_rows_match_figure5(self):
        s = self.find("S", 1, 10, 1)
        np_i = self.find("NP", 1, 2, 2)
        vp = self.find("VP", 2, 9, 2)
        v = self.find("V", 2, 3, 3)
        np_obj = self.find("NP", 3, 9, 3)
        np_man = self.find("NP", 3, 6, 4)
        det = self.find("Det", 3, 4, 5)
        # pid chains as in Figure 5: NP(I) and VP are children of S, etc.
        assert np_i.pid == s.id and vp.pid == s.id
        assert v.pid == vp.id and np_obj.pid == vp.id
        assert np_man.pid == np_obj.id and det.pid == np_man.id
        assert s.pid == 0

    def test_attribute_rows_share_positions(self):
        lex_i = self.find("@lex", 1, 2, 2)
        np_i = self.find("NP", 1, 2, 2)
        assert lex_i.value == "I"
        assert (lex_i.id, lex_i.pid) == (np_i.id, np_i.pid)
        lex_saw = self.find("@lex", 2, 3, 3)
        assert lex_saw.value == "saw"
        lex_the = self.find("@lex", 3, 4, 5)
        assert lex_the.value == "the"

    def test_row_counts(self):
        elements = [r for r in self.rows if not r.is_attribute]
        attributes = [r for r in self.rows if r.is_attribute]
        assert len(elements) == 16   # 16 nodes in the Figure 1 tree
        assert len(attributes) == 9  # 9 words

    def test_element_rows_have_no_value(self):
        for row in self.rows:
            if not row.is_attribute:
                assert row.value is None


class TestLabelingProperties:
    @given(trees())
    @settings(max_examples=50, deadline=None)
    def test_labels_mirror_node_annotations(self, tree):
        for row in label_tree(tree):
            node = tree.node_by_id(row.id)
            assert (row.left, row.right, row.depth) == (
                node.left, node.right, node.depth,
            )
            if row.is_attribute:
                assert node.attributes[row.name[1:]] == row.value
            else:
                assert row.name == node.label

    @given(trees())
    @settings(max_examples=50, deadline=None)
    def test_ids_unique_among_elements(self, tree):
        ids = [r.id for r in label_tree(tree) if not r.is_attribute]
        assert len(ids) == len(set(ids))

    @given(corpora())
    @settings(max_examples=30, deadline=None)
    def test_corpus_rows_carry_tids(self, corpus):
        rows = list(label_corpus(corpus))
        assert {r.tid for r in rows} == {t.tid for t in corpus}

    @given(corpora(max_trees=5, max_depth=5))
    @settings(max_examples=50, deadline=None)
    def test_rows_equal_the_columns_zipped(self, corpus):
        for tree in corpus:  # nodes with no, one and several attributes
            for node in tree.nodes[::3]:
                node.attributes["pos"] = node.label
        rows = list(label_corpus(corpus))
        assert rows == list(zip(*label_columns(corpus)))
        assert all(type(row) is Label for row in rows)
        parent_ids = {
            (tree.tid, node.node_id): 0 if node.parent is None else node.parent.node_id
            for tree in corpus for node in tree.nodes
        }
        assert [row.pid for row in rows] == [parent_ids[row.tid, row.id] for row in rows]
        assert rows == [row for tree in corpus for row in label_tree(tree)]

    def test_multiple_attributes_sorted(self):
        tree = tree_from_spec(("S", ("X", "w")))
        leaf = tree.root.children[0]
        leaf.attributes["pos"] = "NN"
        rows = [r for r in label_tree(tree) if r.is_attribute]
        assert [r.name for r in rows] == ["@lex", "@pos"]

    def test_label_is_named_tuple(self):
        row = label_tree(figure1_tree())[0]
        assert isinstance(row, Label)
        assert row._fields == ("tid", "left", "right", "depth", "id", "pid", "name", "value")
