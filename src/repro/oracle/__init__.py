"""The references the engines are checked against, kept out of the product.

None of this runs when a query is answered; the tests, the examples and
the ``repro sql`` / ``repro query --engine treewalk|sqlite`` commands
import it.  ``import repro`` does not load it (``from repro import
TreeWalkEvaluator`` loads it on first use).

* :class:`TreeWalkEvaluator` — LPath by walking the trees, the
  reference semantics (:mod:`repro.oracle.treewalk`);
* :class:`SQLGenerator` / :class:`SQLiteBackend` — the paper's
  translation to SQL over the label relation, run by the standard
  library's SQLite (:mod:`repro.oracle.sql`);
* :mod:`repro.oracle.predicates` — Table 2, every axis decided by a pair
  of labels;
* :mod:`repro.oracle.traversal` — every axis decided from the tree
  structure alone, the ground truth for the predicates.
"""

from . import predicates, traversal
from .sql import SQLGenerator, SQLiteBackend
from .treewalk import TreeWalkEvaluator

__all__ = [
    "SQLGenerator",
    "SQLiteBackend",
    "TreeWalkEvaluator",
    "predicates",
    "traversal",
]
