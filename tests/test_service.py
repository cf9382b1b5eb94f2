"""The query service: plan cache, concurrency, staleness, CLI.

The stress test is the load-bearing one: eight caller threads serve
through one partition and resolve the *same* cached dynamic plan under
different bindings, and every decision must match a single-threaded
interpreted reference run — start-up procedures are re-entrant and the
compiled decision programs make identical choices.
"""

import json
import threading
from collections import Counter

import pytest

from repro.__main__ import main
from repro.catalog import populate_database
from repro.common.errors import ExecutionError
from repro.common.intervals import Interval
from repro.cost.formulas import _filter_btree_scan, _merge_join, _sort
from repro.cost.parameters import MEMORY_PARAMETER
from repro.executor import (
    ShrinkingAccessModule,
    activate_plan,
    execute_plan,
    resolve_dynamic_plan,
)
from repro.executor.decision import _choose_plan, _computation, _copy
from repro.observability import MetricsRegistry, Tracer
from repro.optimizer import (
    canonical_signature,
    optimize_dynamic,
    optimize_static,
    signature_digest,
)
from repro.optimizer.query import QuerySpec
from repro.scenarios.dynamic_scenario import DynamicPlanScenario
from repro.service import (
    CompiledDecision,
    PlanCache,
    ServiceRequest,
    ShardedQueryService,
    build_snapshot,
    render_report,
    replay_spec,
    restore_gateway,
)
from repro.storage import Database
from repro.workloads import make_join_workload, paper_workload, random_bindings
from repro.workloads.bindings import bind_selectivity
from repro.workloads.queries import make_join_predicates, make_selection_predicate
from repro.workloads.traffic import TrafficShape, TrafficSpec, to_service_requests
from tests._reference import reference_resolve


def narrow_workload(bounds=(0.0, 0.3)):
    """A 2-way workload whose selectivities are compiled over a
    narrowed interval — bindings outside ``bounds`` are stale."""
    return make_join_workload(2, selectivity_bounds=bounds, seed=7)


def one_shard(database, **options):
    """A single-partition gateway and its one shard."""
    gateway = ShardedQueryService(database, shards=1, **options)
    return gateway, gateway.shards[0]


def serve_concurrently(gateway, requests, threads=8):
    """``gateway.run`` from ``threads`` caller threads; results in
    request order."""
    results = [None] * len(requests)
    barrier = threading.Barrier(threads)

    def caller(offset):
        barrier.wait()
        for index in range(offset, len(requests), threads):
            request = requests[index]
            results[index] = gateway.run(request.query, request.bindings)

    callers = [
        threading.Thread(target=caller, args=(offset,)) for offset in range(threads)
    ]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    # A caller that raised left its remaining slots empty.
    assert all(result is not None for result in results)
    return results


def bindings_at(workload, selectivity):
    """Bindings setting every unbound selectivity to one value."""
    return bind_selectivity(workload.query, workload.catalog, selectivity)


class TestCanonicalSignature:
    def test_equal_structure_equal_signature(self, workload2):
        query = workload2.query
        renamed = QuerySpec(
            query.relations,
            query.selections,
            query.join_predicates,
            memory_uncertain=query.memory_uncertain,
            name="a-completely-different-name",
            projection=query.projection,
        )
        assert canonical_signature(query) == canonical_signature(renamed)
        assert query.signature() == renamed.signature()

    def test_relation_order_is_canonicalized(self, workload2):
        query = workload2.query
        reversed_spec = QuerySpec(
            list(reversed(query.relations)),
            query.selections,
            query.join_predicates,
            memory_uncertain=query.memory_uncertain,
            name=query.name,
            projection=query.projection,
        )
        assert canonical_signature(query) == canonical_signature(reversed_spec)

    def test_different_structure_different_signature(
        self, workload1, workload2
    ):
        assert canonical_signature(workload1.query) != canonical_signature(
            workload2.query
        )

    def test_memory_uncertainty_is_part_of_the_key(self, workload2,
                                                   workload2_mem):
        assert canonical_signature(workload2.query) != canonical_signature(
            workload2_mem.query
        )

    def test_unbound_parameter_set_is_part_of_the_key(self):
        relations = ["R1", "R2"]
        joins = make_join_predicates(relations, "chain")
        uncertain = QuerySpec(
            relations,
            {name: make_selection_predicate(name) for name in relations},
            joins,
        )
        partially_bound = QuerySpec(
            relations,
            {
                "R1": make_selection_predicate("R1"),
                "R2": make_selection_predicate("R2", uncertain=False),
            },
            joins,
        )
        assert canonical_signature(uncertain) != canonical_signature(
            partially_bound
        )

    def test_digest_is_stable_and_short(self, workload2):
        signature = canonical_signature(workload2.query)
        assert signature_digest(signature) == signature_digest(signature)
        assert len(signature_digest(signature)) == 16


class TestPlanCache:
    def queries(self, count):
        """Structurally distinct queries (distinct cache signatures)."""
        return [
            paper_workload(number, seed=0).query
            for number in range(1, count + 1)
        ]

    def lookup(self, cache, query):
        return cache.entry_for_signature(canonical_signature(query), query)

    def test_miss_then_hit(self, workload2):
        cache = PlanCache(capacity=4)
        entry, hit = self.lookup(cache, workload2.query)
        assert not hit
        # The entry exists but holds no plan yet: still a miss.
        entry2, hit = self.lookup(cache, workload2.query)
        assert entry2 is entry and not hit
        entry.install(object(), workload2.query.parameter_space)
        _, hit = self.lookup(cache, workload2.query)
        assert hit
        stats = cache.stats.snapshot()
        assert stats["lookups"] == 3
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_lru_eviction(self):
        first, second, third = self.queries(3)
        cache = PlanCache(capacity=2)
        self.lookup(cache, first)
        self.lookup(cache, second)
        self.lookup(cache, first)  # refresh: second is now least recent
        self.lookup(cache, third)  # evicts second
        assert len(cache) == 2
        assert first in cache and third in cache
        assert second not in cache
        assert cache.stats.evictions == 1


class TestStaleness:
    def test_out_of_bounds_binding_reoptimizes_in_place(self):
        workload = narrow_workload(bounds=(0.0, 0.3))
        gateway, service = one_shard(Database(workload.catalog), execute=False)
        with gateway:
            inside = gateway.run(workload.query, bindings_at(workload, 0.2))
            assert not inside.cache_hit and not inside.reoptimized

            drifted = gateway.run(workload.query, bindings_at(workload, 0.9))
            assert drifted.reoptimized and not drifted.cache_hit
            assert drifted.optimize_seconds > 0.0

            # The widened plan now covers the drifted value: no second
            # re-optimization, and the entry survived under its key.
            again = gateway.run(workload.query, bindings_at(workload, 0.9))
            assert again.cache_hit and not again.reoptimized
        assert len(service.cache) == 1
        entry = service.cache.get(workload.query)
        assert entry.reoptimizations == 1
        for bounds in entry.covered_bounds.values():
            assert bounds.contains(0.9)
        assert service.cache.stats.invalidations == 1

    def test_widenings_accumulate_to_the_domain(self):
        # A drift on one side widens that bound to the domain edge and
        # keeps what earlier widenings covered: drifting back to either
        # side is no longer stale.
        workload = narrow_workload(bounds=(0.2, 0.3))
        gateway, service = one_shard(Database(workload.catalog), execute=False)
        with gateway:
            reoptimized = [
                gateway.run(workload.query, bindings_at(workload, value)).reoptimized
                for value in (0.9, 0.05, 0.9, 0.05)
            ]
        assert reoptimized == [True, True, False, False]
        entry = service.cache.get(workload.query)
        assert entry.reoptimizations == 2 == service.cache.stats.invalidations
        assert entry.covered_bounds
        for bounds in entry.covered_bounds.values():
            assert bounds == Interval(0.0, 1.0)

    def test_observed_ranges_are_tracked(self):
        workload = narrow_workload()
        gateway, service = one_shard(Database(workload.catalog), execute=False)
        with gateway:
            gateway.run(workload.query, bindings_at(workload, 0.10))
            gateway.run(workload.query, bindings_at(workload, 0.25))
        entry = service.cache.get(workload.query)
        for name in entry.covered_bounds:
            low, high = entry.observed[name]
            assert low == pytest.approx(0.10)
            assert high == pytest.approx(0.25)


def spoiler_query(workload):
    """A bare scan of ``workload``'s first relation: the second
    signature that evicts ``workload.query`` from a one-entry cache."""
    return QuerySpec([workload.query.relations[0]], {}, [], name="spoiler")


class TestRetainedTier:
    """Eviction demotes a plan, a later lookup promotes it: no second
    optimizer run, the same answers, the same learned bounds."""

    def test_optimizer_runs_equal_misses_plus_invalidations(self):
        workload = narrow_workload(bounds=(0.0, 0.3))
        spoiler = spoiler_query(workload)
        calls = []

        def counting(catalog, query):
            calls.append(query.name)
            return optimize_dynamic(catalog, query)

        registry, tracer = MetricsRegistry(), Tracer()
        gateway, service = one_shard(
            Database(workload.catalog),
            capacity=1,
            optimize=counting,
            execute=False,
            metrics=registry,
            tracer=tracer,
        )
        with gateway:
            results = []
            for selectivity in (0.1, 0.2, 0.25):
                bindings = bindings_at(workload, selectivity)
                results.append(gateway.run(workload.query, bindings))
                results.append(gateway.run(spoiler, bindings))
            # Evicted and re-touched three times each: optimized once.
            assert calls == [workload.query.name, "spoiler"]
            assert [r.cache_hit for r in results] == [False, False] + [True] * 4
            assert all(r.optimize_seconds == 0.0 for r in results[2:])
            # A drifted binding on a promoted entry is one more run.
            drifted = gateway.run(workload.query, bindings_at(workload, 0.9))
            assert drifted.reoptimized
            cache = service.cache.stats_snapshot()
            stats = service.stats()
        shared = stats.resilience["shared_compiles"]
        assert len(calls) + shared == 3 == cache["misses"] + cache["invalidations"]
        assert (cache["misses"], cache["promotions"], cache["evictions"]) == (2, 5, 6)
        assert (cache["entries"], cache["retained"]) == (1, 1)
        assert stats.cache == cache and stats.optimize_count == 3
        metrics = registry.snapshot()
        assert metrics["plan_cache_promotions_total"]["value"] == 5
        assert metrics["plan_cache_retained_entries"]["value"] == 1
        promoted = [e for e in tracer.events if e.name == "plan_promoted"]
        # Five promotions, the drifted one re-optimized before it served.
        assert len(promoted) == 4
        assert {e.meta["digest"] for e in promoted} == {r.digest for r in results}
        # A program is compiled per optimizer run; no promotion compiles.
        assert stats.resilience["decision_compiles"] == len(calls)
        assert shared == 0  # the spoiler and the widening change the input

    @pytest.mark.parametrize(
        "optimize", (optimize_static, optimize_dynamic), ids=("static", "dynamic")
    )
    def test_promoted_plans_serve_what_a_never_evicting_cache_serves(self, optimize):
        """Paper queries through ``capacity=1`` with a spoiler between
        requests — every request after the first two is a promotion."""
        for number in range(1, 6):
            workload = paper_workload(number)
            spoiler = spoiler_query(workload)
            served = []
            for capacity in (1, 64):
                database = Database(workload.catalog)
                populate_database(database, seed=0)
                gateway, service = one_shard(
                    database, capacity=capacity, optimize=optimize
                )
                with gateway:
                    results = []
                    for run in range(3):
                        bindings = random_bindings(workload, seed=17, run_index=run)
                        results.append(gateway.run(workload.query, bindings))
                        results.append(gateway.run(spoiler, bindings))
                    cache = service.cache.stats_snapshot()
                assert cache["promotions"] == (4 if capacity == 1 else 0)
                assert cache["misses"] == 2
                served.append(
                    [
                        (
                            [repr(record) for record in r.execution.records],
                            r.execution.io_snapshot,
                            r.startup_report.decisions,
                            r.chosen.digest(),
                            r.digest,
                            r.cache_hit,
                        )
                        for r in results
                    ]
                )
            assert served[0] == served[1], "query %d" % number

    def test_widened_bounds_and_counters_survive_demotion(self):
        workload = narrow_workload(bounds=(0.0, 0.3))
        spoiler = spoiler_query(workload)
        gateway, service = one_shard(
            Database(workload.catalog), capacity=1, execute=False
        )
        with gateway:
            gateway.run(workload.query, bindings_at(workload, 0.2))
            assert gateway.run(workload.query, bindings_at(workload, 0.9)).reoptimized
            entry = service.cache.get(workload.query)
            before = (dict(entry.observed), entry.hits, entry.reoptimizations)
            gateway.run(spoiler, bindings_at(workload, 0.2))  # demotes it
            assert service.cache.get(workload.query) is None
            again = gateway.run(workload.query, bindings_at(workload, 0.9))
            assert again.cache_hit and not again.reoptimized
            assert service.cache.get(workload.query) is entry
            assert entry.decision is not None and not entry.demoted
        assert (dict(entry.observed), entry.hits - 1, entry.reoptimizations) == before
        assert entry.reoptimizations == 1 == service.cache.stats.invalidations
        for bounds in entry.covered_bounds.values():
            assert bounds.contains(0.9)

    def test_promotion_serves_on_the_program_the_live_entry_compiled(
        self, workload2
    ):
        spoiler = spoiler_query(workload2)
        bindings = random_bindings(workload2, seed=4)
        gateway, service = one_shard(
            Database(workload2.catalog), capacity=1, execute=False
        )
        with gateway:
            first = gateway.run(workload2.query, bindings)
            entry = service.cache.get(workload2.query)
            decision = entry.decision
            gateway.run(spoiler, bindings)  # demotes it
            assert entry.chosen_memo == {}
            again = gateway.run(workload2.query, bindings)
            assert again.cache_hit and service.cache.get(workload2.query) is entry
            assert entry.decision is decision and not entry.demoted
            assert again.chosen.digest() == first.chosen.digest()
            assert len(entry.chosen_memo) == 1
            # The query's program and the spoiler's; none on promotion.
            assert service.stats().resilience["decision_compiles"] == 2

    def test_retained_entry_is_stripped_and_not_snapshotted(self, workload2):
        spoiler = spoiler_query(workload2)
        bindings = random_bindings(workload2, seed=4)
        gateway, service = one_shard(
            Database(workload2.catalog), capacity=1, execute=False
        )
        with gateway:
            gateway.run(workload2.query, bindings)
            entry = service.cache.get(workload2.query)
            service._fallback_plan(entry)
            decision = entry.decision
            assert decision and entry.chosen_memo and entry.fallback_plan
            gateway.run(spoiler, bindings)
            assert entry.plan is not None and entry.demoted
            assert entry.decision is decision and entry.fallback_plan is None
            assert entry.chosen_memo == {}
            assert service.cache.stats_snapshot()["retained"] == 1
            assert [e.query.name for e in service.cache.entries()] == ["spoiler"]

            snapshot = build_snapshot(gateway)
            assert [e["query"]["name"] for e in snapshot["entries"]] == ["spoiler"]
            restored, partition = one_shard(Database(workload2.catalog), execute=False)
            with restored:
                assert restore_gateway(restored, snapshot).restored == 1
                assert partition.cache.stats_snapshot()["retained"] == 0
                assert workload2.query not in partition.cache


class TestCompiledDecision:
    @pytest.mark.parametrize("paper_query", [1, 2, 3, 4, 5])
    def test_matches_interpreted_resolution(self, paper_query):
        """Every decision equals the reference walk's
        (``tests/_reference.py``) — with the memory grant swept across
        its [16, 112]-page interval too, so the hash-join and sort spill
        branches and query 5's 38-alternative choose-plans are compared,
        not only the in-memory formulas.  Both run the same kernels, so
        not even an exact tie may break differently (g_i = d_i).  Every
        library entry point into a start-up decision agrees: the
        program, ``resolve_dynamic_plan``, ``activate_plan``, the engine
        opening the unresolved plan, the dynamic scenario and a
        shrinking access module before its first shrink.
        """
        for memory_uncertain in (False, True):
            workload = paper_workload(
                paper_query, seed=0, memory_uncertain=memory_uncertain
            )
            catalog, space = workload.catalog, workload.query.parameter_space
            scenario = DynamicPlanScenario(workload)
            plan = scenario.plan
            decision = CompiledDecision(plan, catalog, space)
            database = populate_database(Database(catalog), seed=0)
            shrinking = ShrinkingAccessModule(plan, catalog, space, shrink_after=21)
            for seed in range(20):
                bindings = random_bindings(workload, seed=seed)
                if memory_uncertain:
                    bindings.bind(MEMORY_PARAMETER, 16 + seed * 96 // 19)
                compiled_plan, compiled_report = decision.choose(bindings)
                reference_plan, reference_report = reference_resolve(
                    plan, catalog, space, bindings
                )
                assert compiled_report.decisions == reference_report.decisions
                assert (
                    compiled_report.cost_evaluations
                    == len(decision) - decision.decision_count
                    == reference_report.cost_evaluations
                )
                reference = {
                    (id(node), id(chosen)) for node, chosen in reference_report.choices
                }
                assert {
                    (id(node), id(chosen)) for node, chosen in compiled_report.choices
                } == reference
                executed = execute_plan(plan, database, bindings, space)
                assert {
                    (id(node), id(chosen)) for node, chosen in executed.decisions
                } == reference
                scenario.invoke(bindings)
                for chosen, report in (
                    (compiled_plan, compiled_report),
                    resolve_dynamic_plan(plan, catalog, space, bindings),
                    activate_plan(plan, catalog, space, bindings),
                    (scenario.last_chosen, scenario.last_report),
                    shrinking.activate(bindings),
                ):
                    assert chosen.signature() == reference_plan.signature()
                    assert (
                        report.choice_signature()
                        == reference_report.choice_signature()
                    )
            assert shrinking.shrink_count == 0

    def test_paper_query_5_runs_each_distinct_row_once(self):
        """Query 5's 958 slots: 10 templates, 948 rows, of which 44
        compute what another row of their rank computes and are copied:
        sorts of an input another sort already costs (a sort's cost does
        not read its key).  The optimizer builds no commuted merge-join
        twin, so each of the 165 merge joins runs."""
        workload = paper_workload(5, seed=0)
        plan = optimize_dynamic(workload.catalog, workload.query).plan
        program = CompiledDecision(
            plan, workload.catalog, workload.query.parameter_space
        )
        rows = Counter()
        for kernel, segment in program._segments:
            rows[kernel] += len(segment)
        assert (len(program), program.decision_count) == (958, 145)
        assert sum(rows.values()) - rows[_copy] == 904
        assert rows[_copy] == 44
        assert (rows[_sort], rows[_merge_join]) == (64, 165)

    def test_a_row_is_keyed_by_what_it_computes(self):
        """A clustered fetch (``True``, tested by identity) is not a
        one-page heap (``1``)."""
        scan = (0, 1, 1000, 0.03, 32, True)
        assert _computation(_filter_btree_scan, scan) != _computation(
            _filter_btree_scan, scan[:-1] + (1,)
        )

    def test_memo_keys_hold_only_the_programs_pairs(self):
        """A pass appends the program's prebuilt (choose-plan,
        alternative) pairs, so a memo over 100 bindings keeps no pair of
        its own."""
        workload = paper_workload(5, seed=0)
        gateway, shard = one_shard(Database(workload.catalog), execute=False)
        with gateway:
            for seed in range(100):
                gateway.run(workload.query, random_bindings(workload, seed=seed))
            entry = shard.cache.get(workload.query)
        pairs = {
            id(pair)
            for kernel, rows in entry.decision._segments
            if kernel is _choose_plan
            for row in rows
            for pair in row[-1]
        }
        keys = list(entry.chosen_memo)
        assert len(keys) > 1
        assert all(id(pair) in pairs for key in keys for pair in key)


class TestQueryService:
    THREADS = 8

    def reference_signatures(self, workload, plan, all_bindings):
        return [
            reference_resolve(
                plan, workload.catalog, workload.query.parameter_space,
                bindings,
            )[1].choice_signature()
            for bindings in all_bindings
        ]

    @pytest.mark.slow
    def test_concurrent_startup_matches_single_threaded(self):
        workload = paper_workload(2, seed=0)
        all_bindings = [
            random_bindings(workload, seed=0, run_index=index)
            for index in range(48)
        ]
        gateway, service = one_shard(Database(workload.catalog), execute=False)
        with gateway:
            results = serve_concurrently(
                gateway,
                [ServiceRequest(workload.query, bindings) for bindings in all_bindings],
                self.THREADS,
            )
            plan = service.cache.get(workload.query).plan
        expected = self.reference_signatures(workload, plan, all_bindings)
        actual = [
            result.startup_report.choice_signature() for result in results
        ]
        assert actual == expected
        # Several distinct decisions, or the test proves nothing.
        assert len(set(expected)) > 1
        assert sum(1 for result in results if not result.cache_hit) >= 1
        assert service.cache.stats.snapshot()["lookups"] == len(all_bindings)

    def test_single_flight_compilation(self):
        workload = paper_workload(2, seed=0)
        calls = []
        from repro.optimizer.optimizer import optimize_dynamic as real

        def counting_optimize(catalog, query):
            calls.append(query.name)
            return real(catalog, query)

        gateway, _ = one_shard(
            Database(workload.catalog), execute=False, optimize=counting_optimize
        )
        all_bindings = [
            random_bindings(workload, seed=1, run_index=index)
            for index in range(16)
        ]
        with gateway:
            serve_concurrently(
                gateway,
                [ServiceRequest(workload.query, bindings) for bindings in all_bindings],
                self.THREADS,
            )
        assert len(calls) == 1

    def test_execution_through_the_service(self, workload2, database2):
        gateway, _ = one_shard(database2, execute=True)
        all_bindings = [
            random_bindings(workload2, seed=2, run_index=index)
            for index in range(8)
        ]
        with gateway:
            results = gateway.run_batch(
                ServiceRequest(workload2.query, bindings)
                for bindings in all_bindings
            )
        for result in results:
            assert result.execution is not None
            assert result.row_count >= 0

    def test_execution_mode_keyword_is_unknown(self, workload2, database2):
        """One engine: the keyword that chose one fails as any unknown
        keyword does; ``batch_size=1`` is record-at-a-time."""
        from repro.executor import execute_plan

        bindings = random_bindings(workload2, seed=2, run_index=0)
        plan = optimize_static(workload2.catalog, workload2.query).plan
        with pytest.raises(TypeError):
            execute_plan(plan, database2, bindings, execution_mode="batch")
        with pytest.raises(TypeError):
            ShardedQueryService(database2, shards=1, execution_mode="batch")
        with pytest.raises(TypeError):
            ServiceRequest(workload2.query, bindings, execution_mode="batch")

    def test_malformed_request_is_refused_at_the_boundary(self, workload2):
        """Bare (not wrapped as a served-and-failed request), before
        the cache or the optimizer sees the query."""
        bindings = random_bindings(workload2, seed=2, run_index=0)
        with pytest.raises(ExecutionError):
            ServiceRequest(workload2.query, bindings, reopt_policy="sometimes")
        gateway, service = one_shard(Database(workload2.catalog))
        with gateway:
            for serve in (gateway.run, gateway.submit):
                with pytest.raises(ExecutionError) as excinfo:
                    serve(workload2.query, bindings, reopt_policy="sometimes")
                assert type(excinfo.value) is ExecutionError
            assert len(service.cache) == 0
            assert service.cache.stats_snapshot()["lookups"] == 0
            assert gateway.stats().requests == 0

    def test_stats_snapshot(self):
        workload = paper_workload(1, seed=0)
        gateway, _ = one_shard(Database(workload.catalog), execute=False)
        with gateway:
            for index in range(6):
                gateway.run(
                    workload.query,
                    random_bindings(workload, 0, index),
                )
        stats = gateway.stats().total
        assert stats.requests == 6
        assert stats.optimize_count == 1
        assert stats.startup.count == 6 and stats.startup.sum > 0.0
        assert stats.hit_rate == pytest.approx(5.0 / 6.0)
        assert stats.amortization > 1.0


class TestReplayDeterminism:
    def test_request_generation_is_reproducible(self):
        spec = TrafficSpec.default(requests=30, seed=11)
        _, _, first = to_service_requests(spec)
        _, _, second = to_service_requests(spec)
        assert [request.query.name for request in first] == [
            request.query.name for request in second
        ]
        for left, right in zip(first, second):
            assert left.bindings._parameters == right.bindings._parameters
            assert left.bindings._variables == right.bindings._variables

    @pytest.mark.slow
    def test_replay_decisions_survive_thread_scheduling(self):
        spec = TrafficSpec.default(requests=24, seed=4)
        catalog, _, requests = to_service_requests(spec)

        def replay():
            gateway, _ = one_shard(Database(catalog), execute=False)
            with gateway:
                results = serve_concurrently(gateway, requests)
                return results, gateway.stats().total

        (first, first_stats), (second, second_stats) = replay(), replay()

        def signatures(results):
            return [result.startup_report.choice_signature() for result in results]

        assert signatures(first) == signatures(second)
        # Hit/miss *classification* is timing-dependent (a burst of
        # concurrent first requests may each count as a miss before the
        # plan lands), so only the scheduling-invariant parts compare.
        assert first_stats.cache["lookups"] == second_stats.cache["lookups"]
        assert [result.digest for result in first] == [
            result.digest for result in second
        ]


class TestServeBatchCli:
    def test_default_spec(self, capsys):
        code = main(
            ["serve-batch", "--invocations", "16", "--no-execute",
             "--seed", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "hit rate" in output
        assert "speedup" in output

    def test_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "mix.json"
        spec_path.write_text(json.dumps({
            "invocations": 10,
            "threads": 4,
            "execute": False,
            "queries": [
                {"relations": 1, "weight": 2},
                {"relations": 2, "weight": 1,
                 "selectivity_bounds": [0.0, 0.4], "drift": 0.5},
            ],
        }))
        assert main(["serve-batch", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "2 query shapes" in output

    @pytest.mark.parametrize(
        "data",
        [
            {"queries": [{"relations": 2, "topology": "bogus"}]},
            {"queries": [{"relations": 2, "selectivity_bounds": [0.5, 0.2]}]},
            {"queries": [{"relations": 2, "selectivity_bounds": [0.0]}]},
            {"queries": [{"relations": 2, "selectivity_bounds": [0.0, 1.5]}]},
            {"queries": [{"relations": "two"}]},
            [{"relations": 2}],
            {"queries": [{"weight": 2}]},
            # A file written while ``execution_mode`` was a key still
            # loads: unknown top-level keys are ignored.
            {
                "queries": [{"relations": 2}],
                "invocations": 4,
                "execute": False,
                "threads": 4,
                "execution_mode": "batch",
            },
        ],
        ids=[
            "bogus-topology",
            "inverted-bounds",
            "one-bound",
            "bound-above-one",
            "relations-not-a-number",
            "top-level-list",
            "no-relations",
            "execution-mode-ignored",
        ],
    )
    def test_spec_file_validation(self, data, tmp_path, capsys):
        """A malformed spec file is one ``serve-batch: ...`` line and
        exit 2, never a traceback."""
        spec_path = tmp_path / "mix.json"
        spec_path.write_text(json.dumps(data))
        code = main(["serve-batch", str(spec_path)])
        captured = capsys.readouterr()
        if "execution_mode" in data:
            assert code == 0
            assert "serve-batch: 4 invocations" in captured.out
            return
        assert code == 2
        assert captured.err == ""
        (line,) = captured.out.splitlines()
        assert line.startswith("serve-batch: invalid workload spec: ")

    def test_render_report_mentions_reoptimizations(self):
        spec = TrafficSpec(
            [TrafficShape(2, selectivity_bounds=(0.0, 0.2), drift=0.6)],
            requests=20,
            seed=9,
        )
        report = replay_spec(spec, execute=False)
        assert "re-optimizations" in render_report(report)
        assert report.stats.cache["invalidations"] >= 1
