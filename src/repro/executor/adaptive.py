"""Run-time choose-plan decisions with observed cardinalities.

Section 7 of the paper sketches the generalization left to future
work: decisions "can also be delayed further into run-time ...  our
initial approach has been to handle inaccurate expected values by
evaluating subplans as part of choose-plan decision procedures.  When
a subplan has been evaluated into a temporary result, its logical and
physical properties (e.g., result cardinality ...) are known and
therefore may contribute to decisions with increased confidence."

This module implements that approach as a bottom-up adaptive executor:

1. Choose-plan operators are visited innermost-first.
2. Each decision uses a cost model in which already-materialized
   temporaries cost nothing further and report their *observed*
   cardinality instead of an estimate.
3. The winning alternative of every inner choose-plan is executed into
   a temporary result (a :class:`~repro.algebra.physical.Materialized`
   node); the root choose-plan's winner streams directly.

Because decisions above a temporary use actual rather than estimated
cardinalities, the executor recovers from *wrong selectivity
estimates* — a failure mode that defeats ordinary start-up-time
resolution, whose decision procedures can only trust the bindings they
are given.  The price is possible wasted work: a materialized
temporary may end up unused when a later decision picks an alternative
that does not consume it (reported as ``wasted_records``).
"""

import time

from repro.algebra.physical import ChoosePlan, Materialized
from repro.cost.formulas import CostModel
from repro.cost.parameters import Valuation
from repro.executor.engine import ExecutionContext, ExecutionResult
from repro.executor.startup import _rebuild
from repro.executor.vectorized import _drain, build_batch_iterator


class AdaptiveReport:
    """Accounting of one adaptive execution."""

    def __init__(self):
        self.decisions = 0
        self.materialized_subplans = 0
        self.materialized_records = 0
        self.wasted_records = 0
        self.decision_seconds = 0.0
        self.final_plan = None

    def __repr__(self):
        return (
            "AdaptiveReport(decisions=%d, materialized=%d/%d records, "
            "wasted=%d)"
            % (
                self.decisions,
                self.materialized_subplans,
                self.materialized_records,
                self.wasted_records,
            )
        )


class AdaptiveExecutor:
    """Executes dynamic plans with run-time (not just start-up) choices."""

    def __init__(self, database, parameter_space):
        self.database = database
        self.parameter_space = parameter_space

    def execute(self, plan, bindings):
        """Run a (possibly dynamic) plan adaptively.

        Returns ``(ExecutionResult, AdaptiveReport)``.
        """
        context = ExecutionContext(self.database, bindings, self.parameter_space)
        report = AdaptiveReport()
        #: id(choose_plan) -> Materialized temporary for its winner
        substitutions = {}

        before = context.io_stats.snapshot()
        started = time.perf_counter()

        # Materialize only the *minimal* choose-plans — those without
        # nested choose-plans, i.e. the relation-access decisions whose
        # results any join strategy would need anyway.  Their observed
        # cardinalities then drive one resolution pass over everything
        # above (join orders, build sides, sort-vs-index orders) without
        # materializing intermediate join results.
        for choose in self._minimal_choose_plans(plan):
            if choose is plan:
                continue
            self._decide_and_materialize(choose, context, substitutions, report)

        final_plan = self._resolve_remaining(
            plan, substitutions, context, report
        )
        report.final_plan = final_plan
        records = _drain(build_batch_iterator(final_plan, context))
        self._account_waste(final_plan, substitutions, report)

        elapsed = time.perf_counter() - started
        after = context.io_stats.snapshot()
        delta = {key: after[key] - before[key] for key in after}
        result = ExecutionResult(
            records, delta, list(context.decisions), elapsed
        )
        return result, report

    # ------------------------------------------------------------------
    # Decision machinery
    # ------------------------------------------------------------------

    def _minimal_choose_plans(self, plan):
        """Choose-plan nodes without nested choose-plans (scan level)."""
        return [
            node
            for node in plan.walk_unique()
            if isinstance(node, ChoosePlan)
            and not any(
                isinstance(inner, ChoosePlan)
                for inner in node.walk_unique()
                if inner is not node
            )
        ]

    def _decide(self, choose, substitutions, context, report):
        """Pick the cheapest alternative under current observations."""
        decision_started = time.perf_counter()
        valuation = Valuation.runtime(self.parameter_space, context.bindings)
        cost_model = CostModel(self.database.catalog, valuation)
        substituted = {}
        best_plan = best_candidate = best_cost = None
        for alternative in choose.alternatives:
            candidate = self._substitute(alternative, substitutions, substituted)
            cost = cost_model.evaluate(candidate).cost.lower
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_plan = alternative
                best_candidate = candidate
        report.decisions += 1
        report.decision_seconds += time.perf_counter() - decision_started
        context.record_decision(choose, best_plan)
        return best_candidate

    def _resolve_remaining(self, plan, substitutions, context, report):
        """Resolve every undecided choose-plan with observations.

        One bottom-up pass under the observed cost model: decided
        temporaries replay, undecided choose-plans pick the cheapest
        *resolved* alternative (no further materialization — join
        results stream as usual).
        """
        decision_started = time.perf_counter()
        valuation = Valuation.runtime(self.parameter_space, context.bindings)
        cost_model = CostModel(self.database.catalog, valuation)
        cache = {}

        def resolve(node):
            cached = cache.get(id(node))
            if cached is not None:
                return cached[1]
            substituted = substitutions.get(id(node))
            if substituted is not None:
                result = substituted
            elif isinstance(node, ChoosePlan):
                report.decisions += 1
                best = None
                best_cost = None
                best_original = None
                for alternative in node.alternatives:
                    candidate = resolve(alternative)
                    cost = cost_model.evaluate(candidate).cost.lower
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        best = candidate
                        best_original = alternative
                context.record_decision(node, best_original)
                result = best
            else:
                result = _rebuild(
                    node, [resolve(child) for child in node.inputs()]
                )
            cache[id(node)] = (node, result)
            return result

        final_plan = resolve(plan)
        report.decision_seconds += time.perf_counter() - decision_started
        return final_plan

    def _decide_and_materialize(self, choose, context, substitutions, report):
        """Decide an inner choose-plan and evaluate its winner into a
        temporary result whose observed properties feed later decisions."""
        executable = self._decide(choose, substitutions, context, report)
        records = _drain(build_batch_iterator(executable, context))
        # ``original`` is the decided executable (itself built over any
        # deeper temporaries), so a temporary can always be traced back
        # to the static plan that produced it.
        substitutions[id(choose)] = Materialized(records, executable)
        report.materialized_subplans += 1
        report.materialized_records += len(records)

    def _substitute(self, plan, substitutions, cache):
        """Rebuild a plan with decided choose-plans replaced by their
        temporaries (identity-preserving for untouched subtrees)."""
        cached = cache.get(id(plan))
        if cached is not None:
            return cached[1]
        substituted = substitutions.get(id(plan))
        if substituted is not None:
            result = substituted
        else:
            children = [
                self._substitute(child, substitutions, cache)
                for child in plan.inputs()
            ]
            result = _rebuild(plan, children)
        cache[id(plan)] = (plan, result)
        return result

    def _account_waste(self, final_plan, substitutions, report):
        """Count materialized records the final plan never consumed."""
        used = {
            id(node)
            for node in final_plan.walk_unique()
            if isinstance(node, Materialized)
        }
        for temporary in substitutions.values():
            if id(temporary) not in used:
                report.wasted_records += temporary.observed_cardinality


def execute_adaptively(plan, database, bindings, parameter_space):
    """Convenience wrapper around :class:`AdaptiveExecutor`."""
    executor = AdaptiveExecutor(database, parameter_space)
    return executor.execute(plan, bindings)
