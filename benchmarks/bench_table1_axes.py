"""Table 1: the LPath axis inventory, plus an axis-decision microbenchmark.

Regenerates the paper's Table 1 (axes, abbreviations, closures, Core XPath
support) from the implementation's single source of truth, and times how
fast the Table 2 label comparisons decide axes — the primitive operation
every join in the engine performs.
"""

import random

from repro.labeling import label_tree
from repro.lpath.axes import AXIS_INFO, TABLE_1
from repro.oracle import predicates
from repro.tree import figure1_tree


def render_table1() -> str:
    lines = [
        "Table 1: LPath Navigation Axes",
        f"{'Type':<12}{'Axis':<30}{'Abbrev':<15}{'Closure of':<28}{'Core XPath'}",
    ]
    for info in TABLE_1:
        closure = info.closure_of.value if info.closure_of else ""
        lines.append(
            f"{info.navigation.value:<12}{info.axis.value:<30}"
            f"{info.abbreviation or '':<15}{closure:<28}"
            f"{'yes' if info.core_xpath else 'no'}"
        )
    return "\n".join(lines)


def test_table1_axis_inventory(benchmark, write_result):
    write_result("table1_axes.txt", render_table1())
    rows = [r for r in label_tree(figure1_tree()) if not r.is_attribute]
    rng = random.Random(5)
    pairs = [(rng.choice(rows), rng.choice(rows)) for _ in range(512)]
    checks = [
        predicates.is_child,
        predicates.is_descendant,
        predicates.is_immediate_following,
        predicates.is_following,
        predicates.is_immediate_following_sibling,
        predicates.is_preceding_sibling,
    ]

    def decide_all() -> int:
        hits = 0
        for x, y in pairs:
            for check in checks:
                if check(x, y):
                    hits += 1
        return hits

    total = benchmark(decide_all)
    assert total > 0
    assert len(AXIS_INFO) == 14  # the Table 1 rows
