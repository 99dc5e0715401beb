#!/usr/bin/env python3
"""Quickstart: the paper's running example (Figures 1, 2 and 5).

Builds the Figure 1 syntax tree for "I saw the old man with a dog today",
shows its label relation (Figure 5), and runs every example query of
Figure 2 on the engine, checked against the tree walk and the SQL
translation run on SQLite (the references in ``repro.oracle``).

Run:  python examples/quickstart.py
"""

from repro import LPathEngine, figure1_tree
from repro.labeling import label_tree
from repro.lpath import parse
from repro.oracle import SQLGenerator, SQLiteBackend, TreeWalkEvaluator
from repro.tree import format_tree


def main() -> None:
    tree = figure1_tree()
    print("Figure 1 tree:")
    print(" ", format_tree(tree))
    print("\nSentence:", " ".join(tree.words()))

    print("\nFigure 5: the label relation (left right depth id pid name value)")
    for row in label_tree(tree):
        value = row.value if row.value is not None else ""
        print(f"  {row.left:>4} {row.right:>5} {row.depth:>5} {row.id:>3} "
              f"{row.pid:>3}  {row.name:<6} {value}")

    engine = LPathEngine([tree])
    references = (TreeWalkEvaluator([tree]), SQLiteBackend(label_tree(tree)))
    figure2 = [
        ("//S[//_[@lex=saw]]", "sentences containing the word 'saw'"),
        ("//V==>NP", "NPs that are immediate following siblings of a verb"),
        ("//V->NP", "NPs that immediately follow a verb"),
        ("//VP/V-->N", "nouns following a verb that is a child of a VP"),
        ("//VP{/V-->N}", "ditto, scoped inside the verb phrase"),
        ("//VP{/NP$}", "NPs that are the rightmost child of a VP"),
        ("//VP{//NP$}", "NPs that are the rightmost descendant of a VP"),
    ]
    print("\nFigure 2 queries:")
    for query, description in figure2:
        nodes = engine.nodes(query)
        rendered = ", ".join(f"{n.label}[{n.left},{n.right}]" for n in nodes)
        print(f"  {query:<22} {{{rendered}}}")
        print(f"    ({description})")
        for reference in references:
            assert reference.query(query) == engine.query(query)

    print("\nTranslated SQL for //V->NP:")
    print(SQLGenerator().generate(parse("//V->NP")))


if __name__ == "__main__":
    main()
