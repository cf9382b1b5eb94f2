"""Start-up-time machinery: plan activation and choose-plan decisions.

The paper's start-up sequence (Sections 4 and 6) for a dynamic plan:

1. read the access module (I/O proportional to its node count) and
   validate it against the catalogs — a flat 0.1 s either way;
2. evaluate every choose-plan decision procedure: re-evaluate the
   alternatives' original cost functions under the instantiated
   run-time bindings, with DAG-shared subplans costed only once;
3. execute the chosen, now fully static, plan.

:func:`resolve_dynamic_plan` implements step 2 and returns the chosen
static plan; :func:`activate_plan` wraps steps 1-2 and reports the
measured CPU time and modelled I/O time, the quantities of Figure 7.

Re-entrancy: resolution never mutates the plan DAG it is given.  All
working state (the resolved-subplan cache and the cost model's
memoization table) is local to one :func:`resolve_dynamic_plan` call,
so any number of threads may resolve the *same* shared dynamic plan
concurrently with independent bindings — the property the query
service's plan cache relies on (see :mod:`repro.service`).
"""

import time
from operator import is_

from repro.algebra.physical import (
    ChoosePlan,
    Filter,
    HashJoin,
    IndexJoin,
    MergeJoin,
    Project,
    Sort,
)
from repro.common.units import (
    CATALOG_VALIDATION_SECONDS,
    access_module_read_seconds,
)
from repro.cost.formulas import CostModel
from repro.cost.parameters import Valuation


class StartupReport:
    """Accounting of one plan activation."""

    def __init__(
        self,
        decisions,
        cost_evaluations,
        cpu_seconds,
        io_seconds,
        node_count,
        choices=(),
    ):
        self.decisions = decisions
        self.cost_evaluations = cost_evaluations
        self.cpu_seconds = cpu_seconds
        self.io_seconds = io_seconds
        self.node_count = node_count
        #: (choose_plan_node, chosen_original_alternative) pairs
        self.choices = list(choices)

    @property
    def total_seconds(self):
        """Catalog validation + module I/O + decision CPU (time ``f``)."""
        return CATALOG_VALIDATION_SECONDS + self.io_seconds + self.cpu_seconds

    def choice_signature(self):
        """Structural fingerprint of the decisions taken.

        Two activations of the same dynamic plan under the same
        bindings must produce equal choice signatures regardless of
        which thread — or which decision-procedure implementation —
        ran them; the invariant the concurrency and compiled-decision
        equivalence tests assert.  Order-insensitive, because the
        interpreted and compiled procedures visit choose-plan nodes in
        different (both deterministic) orders.  Linear in the plan DAG:
        one digest per distinct node, shared across the choices.
        """
        memo = {}
        return tuple(
            sorted(
                (node.digest(memo), chosen.digest(memo))
                for node, chosen in self.choices
                if chosen is not None
            )
        )

    def __repr__(self):
        return (
            "StartupReport(decisions=%d, evals=%d, cpu=%.4fs, io=%.4fs)"
            % (
                self.decisions,
                self.cost_evaluations,
                self.cpu_seconds,
                self.io_seconds,
            )
        )


def resolve_dynamic_plan(plan, catalog, parameter_space, bindings):
    """Resolve every choose-plan in a dynamic plan under bindings.

    Returns ``(static_plan, report)``.  The shared cost model caches
    each subplan's cost, so shared subexpressions are evaluated once.
    """
    valuation = Valuation.runtime(parameter_space, bindings)
    cost_model = CostModel(catalog, valuation)
    resolved_cache = {}
    decision_count = 0
    choices = []
    started = time.perf_counter()

    def resolve(node):
        nonlocal decision_count
        cached = resolved_cache.get(id(node))
        if cached is not None:
            return cached[1]
        if isinstance(node, ChoosePlan):
            # Decide on the *resolved* alternatives: nested choose-plan
            # decision overhead is paid for the whole DAG during this
            # very pass, so it must not bias the comparison (branches
            # contain different numbers of choose-plan operators).
            decision_count += 1
            best_plan = None
            best_original = None
            best_cost = None
            for alternative in node.alternatives:
                resolved_alternative = resolve(alternative)
                cost = cost_model.evaluate(resolved_alternative).cost.lower
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_plan = resolved_alternative
                    best_original = alternative
            choices.append((node, best_original))
            result = best_plan
        else:
            result = _rebuild(node, [resolve(child) for child in node.inputs()])
        resolved_cache[id(node)] = (node, result)
        return result

    chosen = resolve(plan)
    cpu_seconds = time.perf_counter() - started
    report = StartupReport(
        decisions=decision_count,
        cost_evaluations=cost_model.evaluations,
        cpu_seconds=cpu_seconds,
        io_seconds=access_module_read_seconds(plan.node_count()),
        node_count=plan.node_count(),
        choices=choices,
    )
    return chosen, report


def _rebuild(node, new_children):
    """Copy a node onto resolved children (identity when unchanged)."""
    if all(map(is_, new_children, node.inputs())):
        return node
    kind = type(node)
    if kind is HashJoin or kind is MergeJoin:
        return kind(new_children[0], new_children[1], node.predicates)
    if kind is Filter:
        return Filter(new_children[0], node.predicate)
    if kind is IndexJoin:
        return IndexJoin(
            new_children[0],
            node.inner_relation,
            node.inner_attribute,
            node.predicates,
            residual_predicate=node.residual_predicate,
        )
    if kind is Sort:
        return Sort(new_children[0], node.attribute)
    if kind is Project:
        return Project(new_children[0], node.attributes)
    # Leaves have no children and always hit the identity path above.
    return node


def activate_plan(
    plan,
    catalog,
    parameter_space,
    bindings,
    validate=True,
):
    """Activate a plan as the execution engine would at start-up time.

    Performs catalog validation first ([CAK81]): a static plan whose
    structures vanished raises
    :class:`~repro.common.errors.InfeasiblePlanError`, while a dynamic
    plan merely loses the infeasible alternatives.  Then, for a static
    plan this charges only the module read; for a dynamic plan it also
    runs the decision procedures.  Returns ``(static_plan, report)``.
    """
    if validate:
        from repro.executor.validation import validate_plan

        plan = validate_plan(plan, catalog)
    if plan.choose_plan_count() == 0:
        report = StartupReport(
            decisions=0,
            cost_evaluations=0,
            cpu_seconds=0.0,
            io_seconds=access_module_read_seconds(plan.node_count()),
            node_count=plan.node_count(),
        )
        return plan, report
    return resolve_dynamic_plan(plan, catalog, parameter_space, bindings)
