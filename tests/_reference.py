"""Shared test helpers: independent references for the library.

:func:`reference_rows` is an engine-independent query evaluator: it
filters every relation by its selection, then folds the joins one
relation at a time — semantically the textbook definition (select +
cartesian product + join predicates) but polynomial instead of
exponential, so it also serves the 4-way-join integration tests.

:func:`reference_resolve` is a decision-independent start-up
resolution: a depth-first walk of the dynamic plan that costs each
alternative through the interval :class:`~repro.cost.formulas.CostModel`
at the run-time bindings and keeps the first cheapest.  The library
decides with compiled programs
(:class:`~repro.executor.decision.CompiledDecision`) only; this walk
shares their cost kernels and node copy (``_rebuild``) but not their
linearization, ranks, row sharing or argmin, so the equivalence suites
compare the library against it (g_i = d_i, ties included).

:func:`reference_hash_join` is the hash-join kernel in its plain form:
one row per slot, and a page count and spill test on every row.  The
library's kernel, which both :class:`~repro.cost.formulas.CostModel`
and compiled programs run, hoists the spill test into one threshold per
pass and fills a commuted pair from one row, so it is held to this one
bit for bit (``tests/test_hash_join_pairs.py``).
"""

from math import ceil

from repro.algebra.physical import ChoosePlan
from repro.common.units import (
    CPU_COST_WEIGHT,
    RECORDS_PER_PAGE,
    access_module_read_seconds,
)
from repro.cost.formulas import SPILL_IO_TIME_PER_PAGE, CostModel
from repro.cost.parameters import Valuation
from repro.executor.decision import StartupReport, _rebuild


def reference_rows(workload, database, bindings):
    """Reference evaluation independent of the execution engine.

    Filters every relation by its selection, then folds the joins one
    relation at a time with naive dictionary lookups — semantically the
    textbook definition (select + cartesian product + join predicates)
    but polynomial instead of exponential.
    """
    query = workload.query
    filtered = {}
    for relation in query.relations:
        predicate = query.selection_for(relation)
        records = database.heap(relation).all_records()
        if predicate is not None:
            records = [
                record
                for record in records
                if predicate.evaluate(record, bindings)
            ]
        filtered[relation] = records

    remaining = list(query.relations)
    placed = {remaining.pop(0)}
    current = filtered[query.relations[0]]
    applied = set()
    while remaining:
        # Pick the next relation connected to what we've already joined.
        for index, candidate in enumerate(remaining):
            predicates = query.cross_predicates(placed, {candidate})
            if predicates:
                remaining.pop(index)
                break
        else:
            raise AssertionError("disconnected join graph in reference")
        # (joined-side attribute, candidate attribute) per predicate.
        pairs = [
            (p.right_attribute, p.left_attribute)
            if p.left_attribute.split(".", 1)[0] == candidate
            else (p.left_attribute, p.right_attribute)
            for p in predicates
        ]
        matches = {}
        for right_record in filtered[candidate]:
            key = tuple(right_record[mine] for _, mine in pairs)
            matches.setdefault(key, []).append(right_record)
        joined = [
            left_record.merged_with(right_record)
            for left_record in current
            for right_record in matches.get(
                tuple(left_record[theirs] for theirs, _ in pairs), ()
            )
        ]
        placed.add(candidate)
        applied.update(
            (p.left_attribute, p.right_attribute) for p in predicates
        )
        current = joined
    # Any predicates not yet applied (cycles) filter the final set.
    for predicate in query.join_predicates:
        key = (predicate.left_attribute, predicate.right_attribute)
        rkey = (predicate.right_attribute, predicate.left_attribute)
        if key not in applied and rkey not in applied:
            current = [
                record
                for record in current
                if record[predicate.left_attribute]
                == record[predicate.right_attribute]
            ]
    return current


def row_multiset(records, keys):
    return sorted(tuple(record[key] for key in keys) for record in records)


def reference_resolve(plan, catalog, parameter_space, bindings):
    """Resolve every choose-plan in a dynamic plan under bindings.

    Returns ``(static_plan, report)`` like
    :func:`~repro.executor.startup.resolve_dynamic_plan`.  The shared
    cost model caches each subplan's cost, so shared subexpressions are
    evaluated once; ``report.choices`` come children first, depth-first.
    """
    valuation = Valuation.runtime(parameter_space, bindings)
    cost_model = CostModel(catalog, valuation)
    choices = []
    chosen = _resolve(plan, cost_model, {}, choices)
    report = StartupReport(
        decisions=len(choices),
        cost_evaluations=cost_model.evaluations,
        cpu_seconds=0.0,
        io_seconds=access_module_read_seconds(plan.node_count()),
        node_count=plan.node_count(),
        choices=choices,
    )
    return chosen, report


def _resolve(node, cost_model, resolved, choices):
    """``node`` with every choose-plan under it decided; each decision
    appended to ``choices`` as ``(choose_plan, alternative)``, children
    first.  ``resolved`` maps ``id(node)`` to ``(node, result)``."""
    cached = resolved.get(id(node))
    if cached is not None:
        return cached[1]
    if isinstance(node, ChoosePlan):
        # Decide on the *resolved* alternatives: nested choose-plan
        # decision overhead is paid for the whole DAG during this
        # very pass, so it must not bias the comparison (branches
        # contain different numbers of choose-plan operators).
        best_plan = None
        best_original = None
        best_cost = None
        for alternative in node.alternatives:
            resolved_alternative = _resolve(alternative, cost_model, resolved, choices)
            cost = cost_model.evaluate(resolved_alternative).cost.lower
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_plan = resolved_alternative
                best_original = alternative
        choices.append((node, best_original))
        result = best_plan
    else:
        children = [
            _resolve(child, cost_model, resolved, choices) for child in node.inputs()
        ]
        result = _rebuild(node, children)
    resolved[id(node)] = (node, result)
    return result


def reference_hash_join(rows, costs, cards, values, decisions):
    """The hash-join kernel over ``(slot, build, probe, join_sel)`` rows."""
    memory = values[0]
    for slot, build, probe, join_sel in rows:
        build_card = cards[build]
        probe_card = cards[probe]
        output = build_card * probe_card * join_sel
        local = (
            build_card * 2.0 * CPU_COST_WEIGHT
            + probe_card * 2.0 * CPU_COST_WEIGHT
            + output * CPU_COST_WEIGHT
        )
        if build_card > 0:
            build_pages = ceil(build_card / RECORDS_PER_PAGE) or 1
            if not build_pages <= memory:
                # Partition spill I/O; only this branch reads the probe
                # side's pages.
                probe_pages = 0
                if probe_card > 0:
                    probe_pages = ceil(probe_card / RECORDS_PER_PAGE) or 1
                local += (
                    2.0
                    * (1.0 - memory / build_pages)
                    * (build_pages + probe_pages)
                    * SPILL_IO_TIME_PER_PAGE
                )
        costs[slot] = costs[build] + costs[probe] + local
        cards[slot] = output
