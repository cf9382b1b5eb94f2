"""Performance regression guards.

Exact counts of the work paper query 5's optimizations and start-up
resolution do, which no machine noise can move, and which an
accidental exponential blow-up — an unmemoized DAG walk, a
rule-closure regression, a subplan costed twice — would.  The plan
walks (tree size, node count, signature, access-module round trip) are
held to one ``inputs()`` call per distinct node.
"""

import pytest

from repro.executor import AccessModule, resolve_dynamic_plan
from repro.executor.decision import CompiledDecision
from repro.optimizer import optimize_dynamic, optimize_static
from repro.workloads import paper_workload, random_bindings


@pytest.fixture(scope="module")
def query5():
    return paper_workload(5, seed=0)


class TestOptimizationScale:
    def test_query5_dynamic_optimization_work_is_counted(self, query5):
        result = optimize_dynamic(query5.catalog, query5.query)
        statistics = result.statistics
        assert statistics.mexprs_total == 350
        assert statistics.cost_evaluations == 1169
        # Delta exploration: each production is made once (a full
        # re-match per sweep needs 2,685 for the same 350 m-exprs).
        assert statistics.rule_applications <= 1650
        assert result.node_count() == 1123

    def test_query5_static_optimization_work_is_counted(self, query5):
        statistics = optimize_static(query5.catalog, query5.query).statistics
        assert statistics.mexprs_total == 350
        assert statistics.cost_evaluations == 733

    def test_query5_startup_resolution_work_is_counted(self, query5):
        """The interpreted resolution costs each resolved alternative's
        distinct nodes once; the program runs one step per DAG node."""
        dynamic = optimize_dynamic(query5.catalog, query5.query)
        space = query5.query.parameter_space
        _plan, report = resolve_dynamic_plan(
            dynamic.plan, query5.catalog, space, random_bindings(query5, seed=0)
        )
        assert (report.cost_evaluations, report.decisions) == (978, 145)
        assert len(CompiledDecision(dynamic.plan, query5.catalog, space)) == 1123

    def test_query5_plan_metrics_linear_time(self, query5, monkeypatch):
        dynamic = optimize_dynamic(query5.catalog, query5.query)
        nodes = dynamic.plan.node_count()
        calls = _count_inputs_calls(monkeypatch, dynamic.plan)
        # tree_node_count is astronomically large but must be computed
        # by DP over the DAG, not by expansion: each walk asks each
        # distinct node for its inputs once.
        assert dynamic.plan.tree_node_count() > 10 ** 6
        assert dynamic.plan.node_count() == nodes == 1123
        dynamic.plan.signature()
        assert calls[0] == 3 * nodes

    def test_query5_module_round_trip_counted(self, query5, monkeypatch):
        dynamic = optimize_dynamic(query5.catalog, query5.query)
        nodes = dynamic.plan.node_count()
        calls = _count_inputs_calls(monkeypatch, dynamic.plan)
        module = AccessModule.from_plan(dynamic.plan, "q5")
        assert calls[0] == nodes  # serialized once per distinct node
        # One stored node per DAG node, rebuilt with the sharing intact.
        rebuilt = module.materialize()
        assert module.node_count == rebuilt.node_count() == nodes
        assert rebuilt.digest() == dynamic.plan.digest()
        # Module stays proportional to the DAG (the paper's argument
        # for why dynamic-plan modules are practical).
        assert module.byte_size < dynamic.node_count() * 1000


def _count_inputs_calls(monkeypatch, plan):
    """``[calls]``: ``inputs()`` calls on ``plan``'s node classes from
    here on.  A walk memoized over the DAG makes one per distinct node;
    one that expands it into a tree makes one per tree node."""
    calls = [0]
    classes = {type(node) for node in plan.walk_unique()}
    for cls, inputs in [(cls, cls.inputs) for cls in classes]:

        def counted(self, _inputs=inputs):
            calls[0] += 1
            return _inputs(self)

        monkeypatch.setattr(cls, "inputs", counted)
    return calls


@pytest.fixture(scope="class")
def churn():
    """The ``churn_compile`` construction — 120 shapes, Zipf 1.1, 2
    shards x 12 live entries, 1,000 requests — served once: ``(optimizer
    calls, shapes, per-shard cache snapshots, gateway statistics)``."""
    from repro.service import ShardedQueryService
    from repro.storage import Database
    from repro.workloads.traffic import TrafficSpec, to_service_requests

    spec = TrafficSpec.zipf(
        requests=1000, query_shapes=120, zipf_s=1.1, relations=4, seed=7
    )
    catalog, _queries, requests = to_service_requests(spec)
    calls = []

    def counting(catalog, query):
        calls.append(query.name)
        return optimize_dynamic(catalog, query)

    with ShardedQueryService(
        Database(catalog), shards=2, capacity=12, optimize=counting, execute=False
    ) as gateway:
        gateway.run_batch(requests)
        shards = [s.cache.stats_snapshot() for s in gateway.shards]
        stats = gateway.stats().total
    shapes = len({request.query.name for request in requests})
    return calls, shapes, shards, stats


class TestRecompilationIsCounted:
    def test_churn_stream_optimizes_each_shape_once_within_the_retained_bound(
        self, churn
    ):
        """Every install is an optimizer run or a shared compile: first
        touches, re-optimizations and plans the retained tier itself
        overflowed, never a plan the process still holds.  The shapes
        differ only in expected selectivity, one optimizer input, so
        each shard runs the optimizer once for it."""
        calls, shapes, shards, stats = churn
        cache = {key: sum(s[key] for s in shards) for key in shards[0]}
        overflows = cache["evictions"] - cache["promotions"] - cache["retained"]
        shared = stats.resilience["shared_compiles"]
        assert cache["evictions"] > 2 * shapes  # the stream does churn
        assert len(calls) + shared == cache["misses"] + cache["invalidations"]
        assert len(calls) + shared <= shapes + cache["invalidations"] + overflows
        assert len(calls) <= len(shards) + cache["invalidations"]
        assert all(s["retained"] <= 48 for s in shards)

    def test_churn_stream_compiles_a_decision_program_per_optimizer_run(
        self, churn
    ):
        """A retained plan keeps its program: more promotions than
        optimizer runs, and the decision compiler runs exactly when the
        optimizer does; a shared compile re-binds a program instead."""
        calls, _shapes, _shards, stats = churn
        assert stats.cache["promotions"] > len(calls)
        assert stats.resilience["decision_compiles"] == len(calls)
        installs = stats.cache["misses"] + stats.cache["invalidations"]
        programs = stats.resilience["decision_compiles"]
        assert programs + stats.resilience["shared_compiles"] == installs
