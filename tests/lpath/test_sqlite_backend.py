"""The SQLite oracle: the Section 5 label relation loaded into SQLite.

:meth:`SQLiteBackend.query` runs the SQL that
:class:`repro.oracle.SQLGenerator` emits against this database.  These
tests pin the database itself — its rows, its quoted keyword columns and
its physical design — independently of any generated query.
"""

import sqlite3

import pytest

from repro.labeling import label_tree
from repro.oracle.sql import SQLiteBackend, _quote_identifier
from repro.tree import figure1_tree


@pytest.fixture
def backend():
    backend = SQLiteBackend(label_tree(figure1_tree()))
    yield backend
    backend.close()


class TestSQLiteBackend:
    def test_load_and_count(self, backend):
        # 16 elements + 9 attribute rows
        assert backend.execute('SELECT COUNT(*) FROM "node"') == [(25,)]

    def test_rows_round_trip(self, backend):
        rows = sorted(tuple(row) for row in label_tree(figure1_tree()))
        assert sorted(backend.execute('SELECT * FROM "node"')) == rows

    def test_element_rows_carry_null_values(self, backend):
        got = backend.execute('SELECT COUNT(*) FROM "node" WHERE "value" IS NULL')
        assert got == [(16,)]

    def test_quoted_keyword_columns(self, backend):
        got = backend.execute(
            'SELECT "left", "right" FROM "node" WHERE "name" = ?', ("S",)
        )
        assert got == [(1, 10)]

    def test_join_on_labels(self, backend):
        # NPs immediately following a V: x.left == v.right (Table 2).
        got = backend.execute(
            'SELECT DISTINCT x."id" FROM "node" v, "node" x '
            'WHERE v."name" = \'V\' AND x."name" = \'NP\' '
            'AND x."tid" = v."tid" AND x."left" = v."right"'
        )
        assert len(got) == 2

    def test_physical_design(self, backend):
        indexes = dict(backend.execute(
            "SELECT name, tbl_name FROM sqlite_master WHERE type = 'index'"
        ))
        assert indexes == {
            "idx_clustered": "node",
            "idx_tid_value_id": "node",
            "idx_value_tid_id": "node",
            "idx_tid_id": "node",
        }
        clustered = [row[2] for row in backend.execute("PRAGMA index_info(idx_clustered)")]
        assert clustered == ["name", "tid", "left", "right", "depth", "id", "pid"]

    def test_table_name_is_quoted(self):
        backend = SQLiteBackend(label_tree(figure1_tree()), table_name='label "rel"')
        try:
            assert backend.execute('SELECT COUNT(*) FROM "label ""rel"""') == [(25,)]
        finally:
            backend.close()

    def test_close_releases_the_connection(self):
        backend = SQLiteBackend(label_tree(figure1_tree()))
        backend.close()
        with pytest.raises(sqlite3.ProgrammingError):
            backend.execute('SELECT COUNT(*) FROM "node"')

    def test_query_runs_the_emitted_sql(self, backend):
        rows = backend.query("//NP")
        assert len(rows) == 5 and rows == sorted(rows)
        assert backend.query("//NP", limit=2) == rows[:2]

    def test_quote_identifier_escapes(self):
        assert _quote_identifier('a"b') == '"a""b"'
