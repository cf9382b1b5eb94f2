"""The physical algebra and predicates (Table 1 of the paper).

Table 1's logical operators are the parts of the optimizer's input, a
:class:`~repro.optimizer.query.QuerySpec`: its relations (Get-Set),
one selection predicate per relation (Select) and its equi-join
predicates (Join).  Physical operators describe the algorithms of the
execution engine.  The mapping between them is defined by the
implementation rules in :mod:`repro.optimizer.rules`:

====================  ==================================
Logical operator      Physical algorithms
====================  ==================================
Get-Set               File-Scan, B-tree-Scan
Select                Filter, Filter-B-tree-Scan
Join                  Hash-Join, Merge-Join, Index-Join
(sort order)          Sort                    (enforcer)
(plan robustness)     Choose-Plan             (enforcer)
====================  ==================================
"""

from repro.algebra.expressions import (
    Comparison,
    ComparisonOp,
    JoinPredicate,
    Literal,
    SelectionPredicate,
    UserVariable,
)
from repro.algebra.physical import (
    BTreeScan,
    ChoosePlan,
    FileScan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    IndexJoin,
    MergeJoin,
    PhysicalPlan,
    Project,
    Sort,
)
from repro.algebra.printer import count_plan_nodes, plan_to_text

__all__ = [
    "BTreeScan",
    "ChoosePlan",
    "Comparison",
    "ComparisonOp",
    "FileScan",
    "Filter",
    "FilterBTreeScan",
    "HashJoin",
    "IndexJoin",
    "JoinPredicate",
    "Literal",
    "Project",
    "MergeJoin",
    "PhysicalPlan",
    "SelectionPredicate",
    "Sort",
    "UserVariable",
    "count_plan_nodes",
    "plan_to_text",
]
