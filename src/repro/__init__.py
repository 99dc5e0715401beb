"""Reproduction of Bird et al., "Designing and Evaluating an XPath Dialect
for Linguistic Queries" (ICDE 2006): the LPath language, its labeling
scheme and query engine, the comparison baselines, and the evaluation
harness.

Quick start::

    from repro import LPathEngine, parse_tree

    tree = parse_tree("(S (NP (PRP I)) (VP (VBD saw) (NP (DT the) (NN dog))))")
    engine = LPathEngine([tree])
    engine.nodes("//VBD->NP")       # immediate-following axis
"""

from .lpath import LPathEngine, parse
from .tree import Tree, TreeNode, figure1_tree, iter_trees, parse_tree

__version__ = "1.0.0"


def __getattr__(name: str):
    """``repro.TreeWalkEvaluator``: the reference evaluator, imported from
    :mod:`repro.oracle` on first use and kept as a plain attribute."""
    if name != "TreeWalkEvaluator":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import TreeWalkEvaluator

    globals()[name] = TreeWalkEvaluator
    return TreeWalkEvaluator


__all__ = [
    "LPathEngine",
    "Tree",
    "TreeNode",
    "figure1_tree",
    "iter_trees",
    "parse",
    "parse_tree",
    "__version__",
]
