"""Catalog validation of stored plans ([CAK81], paper Section 2).

Activation of an access module begins by validating the plan against
the current catalogs — the I/O the paper's flat 0.1 s start-up charge
stands for.  A plan node is *infeasible* when a structure it depends
on no longer exists (an index was dropped, a relation removed).

* A **static** plan with an infeasible node cannot run;
  :func:`validate_plan` raises
  :class:`~repro.common.errors.InfeasiblePlanError` and the system
  must re-optimize (exactly System R's behaviour).
* A **dynamic** plan degrades gracefully: infeasible alternatives are
  dropped from their choose-plan operators, and the plan survives as
  long as every choose-plan keeps at least one feasible alternative —
  a robustness benefit of dynamic plans beyond parameter drift.
"""

from repro.algebra.physical import (
    BTreeScan,
    ChoosePlan,
    FileScan,
    FilterBTreeScan,
    IndexJoin,
    Materialized,
)
from repro.common.errors import InfeasiblePlanError
from repro.executor.startup import _rebuild


def node_is_feasible(node, catalog):
    """Whether one plan node's catalog dependencies still exist."""
    if isinstance(node, (FileScan, BTreeScan, FilterBTreeScan)):
        if not catalog.has_relation(node.relation_name):
            return False
    if isinstance(node, (BTreeScan, FilterBTreeScan)):
        return catalog.index_on(node.relation_name, node.attribute) is not None
    if isinstance(node, IndexJoin):
        if not catalog.has_relation(node.inner_relation):
            return False
        return (
            catalog.index_on(node.inner_relation, node.inner_attribute)
            is not None
        )
    if isinstance(node, Materialized):
        return True
    return True


def validate_plan(plan, catalog):
    """Validate a plan against the catalogs; returns the feasible plan.

    Choose-plan operators lose their infeasible alternatives (and
    collapse when a single alternative remains).  Raises
    :class:`InfeasiblePlanError` when nothing feasible is left — the
    signal that re-optimization is required.
    """
    validated = _validate(plan, catalog, {})
    if validated is None:
        raise InfeasiblePlanError(
            "plan is infeasible under the current catalogs; "
            "re-optimization required"
        )
    return validated


def _validate(node, catalog, cache):
    """``node``'s feasible part, or ``None``; ``cache`` maps ``id(node)``
    to ``(node, result)``."""
    cached = cache.get(id(node))
    if cached is not None:
        return cached[1]
    if isinstance(node, ChoosePlan):
        feasible = []
        for alternative in node.alternatives:
            validated = _validate(alternative, catalog, cache)
            if validated is not None:
                feasible.append(validated)
        if not feasible:
            result = None
        elif len(feasible) == 1:
            result = feasible[0]
        elif len(feasible) == len(node.alternatives) and all(
            new is old for new, old in zip(feasible, node.alternatives)
        ):
            result = node
        else:
            result = ChoosePlan(feasible)
    elif not node_is_feasible(node, catalog):
        result = None
    else:
        children = []
        feasible = True
        for child in node.inputs():
            validated = _validate(child, catalog, cache)
            if validated is None:
                feasible = False
                break
            children.append(validated)
        result = _rebuild(node, children) if feasible else None
    cache[id(node)] = (node, result)
    return result
