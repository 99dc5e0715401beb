"""Table 2: the labeling scheme — construction cost and axis conditions.

Regenerates the axis-to-label-comparison mapping and benchmarks the single
depth-first labeling pass of Definition 4.1 over the benchmark corpus,
twice: into the columns stores are built from (``label_columns``: six
``array('q')`` integer columns, then the name and value lists) and as
``Label`` rows (``label_tree``, one tree at a time).
"""

import pytest

from repro.bench import datasets
from repro.labeling import label_columns, label_tree
from repro.lpath.axes import CONDITIONS, OR_SELF_BASES, Axis


def render_table2() -> str:
    lines = [
        "Table 2: Axes and Label Comparisons (x <axis> y)",
        f"{'Axis':<30}{'Conditions (plus x.tid = y.tid)'}",
    ]
    for axis in Axis:
        base = OR_SELF_BASES.get(axis)
        conditions = " AND ".join(
            f"x.{c.column} {c.op} y.{c.context_column}"
            for c in CONDITIONS[base if base is not None else axis]
        )
        if base is not None:
            conditions = f"({conditions}) OR x.id = y.id"
        lines.append(f"{axis.value:<30}{conditions}")
    return "\n".join(lines)


#: Each labeler returns the number of label rows it produced.
LABELERS = {
    "label_columns": lambda trees: len(label_columns(trees)[0]),
    "label_tree": lambda trees: sum(len(label_tree(tree)) for tree in trees),
}


@pytest.mark.parametrize("labeler", sorted(LABELERS))
def test_table2_labeling_pass(benchmark, write_result, labeler):
    write_result("table2_labeling.txt", render_table2())
    trees = list(datasets.corpus("wsj", sentences=500))
    benchmark.group = "table2 labeling pass"
    total = benchmark(LABELERS[labeler], trees)
    assert total == len(label_columns(trees)[0]) > 0
