"""Plan shrinking: the self-replacing access module of Section 4.

"During each invocation, the access module keeps statistics indicating
which components of the dynamic plan were actually used.  After a
number of invocations, say 100, the access module ... replaces itself
with a dynamic-plan access module that contains only those components
that have been used before."

The paper leaves the analysis of this heuristic to later research; we
implement it as an optional wrapper so its size/robustness trade-off
can be measured (see ``benchmarks/bench_shrinking.py``).
"""

from repro.algebra.physical import ChoosePlan
from repro.executor.access_module import AccessModule
from repro.executor.decision import _rebuild
from repro.executor.startup import resolve_dynamic_plan


class ShrinkingAccessModule:
    """An access module that drops never-chosen alternatives over time.

    ``shrink_after`` invocations trigger self-replacement; statistics
    are kept per choose-plan node (by plan digest, so they survive
    re-materialization of the module).
    """

    def __init__(self, plan, catalog, parameter_space, query_name="query",
                 shrink_after=100):
        self.catalog = catalog
        self.parameter_space = parameter_space
        self.query_name = query_name
        self.shrink_after = int(shrink_after)
        self.module = AccessModule.from_plan(plan, query_name)
        self.invocations_since_shrink = 0
        self.total_invocations = 0
        self.shrink_count = 0
        #: choose-plan digest -> set of chosen-alternative digests
        self._usage = {}

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def activate(self, bindings):
        """One invocation: resolve decisions, record usage, maybe shrink.

        Returns ``(chosen_static_plan, startup_report)``.
        """
        plan = self.module.materialize()
        chosen, report = self._resolve_and_record(plan, bindings)
        self.invocations_since_shrink += 1
        self.total_invocations += 1
        if self.invocations_since_shrink >= self.shrink_after:
            self.shrink()
        return chosen, report

    def _resolve_and_record(self, plan, bindings):
        chosen, report = resolve_dynamic_plan(
            plan, self.catalog, self.parameter_space, bindings
        )
        # The resolution pass logged exactly which alternative each
        # choose-plan node picked; remember them by digest so the
        # statistics survive re-materialization of the module.  One
        # memo keeps the digests linear in the DAG (hashing a nested
        # signature expands the DAG into a tree).
        memo = {}
        for choose_node, alternative in report.choices:
            usage = self._usage.setdefault(choose_node.digest(memo), set())
            usage.add(alternative.digest(memo))
        return chosen, report

    # ------------------------------------------------------------------
    # Shrinking
    # ------------------------------------------------------------------

    def shrink(self):
        """Replace the module with one containing only used components.

        Choose-plan nodes left with a single used alternative collapse
        to that alternative; nodes with several used alternatives stay
        dynamic.  This is deliberately heuristic: an alternative that
        was never optimal so far may still be optimal for future
        bindings (the trade-off the paper points out).
        """
        plan = self.module.materialize()
        rebuilt = self._shrink_node(plan, {}, {})
        self.module = AccessModule.from_plan(rebuilt, self.query_name)
        self.invocations_since_shrink = 0
        self.shrink_count += 1
        return self.module

    def _shrink_node(self, node, cache, memo):
        cached = cache.get(id(node))
        if cached is not None:
            return cached[1]
        if isinstance(node, ChoosePlan):
            used_digests = self._usage.get(node.digest(memo))
            if used_digests:
                survivors = [
                    alternative
                    for alternative in node.alternatives
                    if alternative.digest(memo) in used_digests
                ]
            else:
                survivors = list(node.alternatives)
            survivors = [self._shrink_node(s, cache, memo) for s in survivors]
            if len(survivors) == 1:
                result = survivors[0]
            else:
                result = ChoosePlan(survivors)
        else:
            children = [
                self._shrink_node(child, cache, memo) for child in node.inputs()
            ]
            result = _rebuild(node, children)
        cache[id(node)] = (node, result)
        return result

    @property
    def node_count(self):
        """Current module size in operator nodes."""
        return self.module.node_count

    def __repr__(self):
        return "ShrinkingAccessModule(%s, %d nodes, %d shrinks)" % (
            self.query_name,
            self.node_count,
            self.shrink_count,
        )

