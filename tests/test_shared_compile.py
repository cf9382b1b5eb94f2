"""Shared compiles: one optimizer run per input signature per partition.

Queries that differ only in an uncertain predicate's *expected*
selectivity are separate plan-cache entries (the canonical signature
keeps the value) but one dynamic-optimizer input: the run costs over the
bounds.  A partition optimizes the first and serves each later one on
that run's own plan, through a view of its decision program whose
unbound parameters default to the later query's own expected values.
The view must decide what a fresh optimizer run and program compile
would have, slot for slot, and each entry must still store its own
predicates.
"""

import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.e2e.workloads import WORKLOADS, build_queries
from repro.algebra.expressions import (
    Comparison,
    ComparisonOp,
    Literal,
    SelectionPredicate,
    UserVariable,
)
from repro.catalog.synthetic import build_synthetic_catalog, default_relation_specs
from repro.common.intervals import Interval
from repro.cost.parameters import (
    DEFAULT_MEMORY_BOUNDS,
    MEMORY_PARAMETER,
    Bindings,
    Parameter,
)
from repro.executor.access_module import AccessModule
from repro.executor.decision import CompiledDecision
from repro.executor.startup import resolve_dynamic_plan
from repro.optimizer import (
    OptimizerConfig,
    input_signature,
    optimize_dynamic,
    optimize_runtime,
    optimize_static,
)
from repro.optimizer.query import QuerySpec
from repro.scenarios import predicted_execution_seconds
from repro.service import ShardedQueryService, build_snapshot
from repro.service.service import SharedCompile
from repro.storage import Database
from repro.workloads import paper_workload
from repro.workloads.queries import make_join_predicates
from repro.workloads.traffic import TrafficSpec, to_service_requests

ANNOTATIONS = ("cost", "cardinality", "sort_order")


def compiled(catalog, query):
    """A fresh optimizer run and program compile: ``(plan, program)``."""
    plan = optimize_dynamic(catalog, query).plan
    return plan, CompiledDecision(plan, catalog, query.parameter_space)


def rebound(catalog, source, target):
    """``(shared, plan, program)``: ``source``'s run and what it serves
    ``target`` on."""
    shared = SharedCompile(*compiled(catalog, source))
    return (shared, *shared.rebind(target))


def expected_values(query):
    """``{parameter: expected selectivity}`` of the uncertain selections."""
    return {
        predicate.selectivity_parameter: predicate.expected_selectivity
        for predicate in query.selections.values()
        if predicate.is_uncertain
    }


def assert_same_dag(plan, fresh, target):
    """Node for node: same operators, inputs and alternatives in the same
    order, the same sharing, equal annotations, equal digests; stored
    with the target's expected values, the fresh plan's module bytes."""
    pairs = {}
    stack = [(plan, fresh)]
    while stack:
        node, other = stack.pop()
        if id(node) in pairs:
            assert pairs[id(node)] is other
            continue
        pairs[id(node)] = other
        assert type(node) is type(other)
        for name in ANNOTATIONS:
            assert (name in vars(node)) == (name in vars(other))
            assert vars(node).get(name) == vars(other).get(name)
        children, others = node.inputs(), other.inputs()
        assert len(children) == len(others)
        stack.extend(zip(children, others))
    assert len({id(other) for other in pairs.values()}) == len(pairs)
    assert plan.digest() == fresh.digest()
    stored = AccessModule.from_plan(plan, "q", expected_values(target))
    assert stored.to_bytes() == AccessModule.from_plan(fresh, "q").to_bytes()


def random_bindings(rng, query):
    """In-bounds bindings over the query's space; about a third of the
    parameters are left unbound, so their defaults come from the space."""
    bindings = Bindings()
    for parameter in query.parameter_space:
        if rng.random() < 0.35:
            continue
        bounds = parameter.bounds
        bindings.bind(parameter.name, rng.uniform(bounds.lower, bounds.upper))
    return bindings


def assert_same_program(program, fresh, query, rng, rounds):
    """``==`` costs, cardinalities, choices and chosen plans."""
    assert len(program) == len(fresh)
    assert program.decision_count == fresh.decision_count
    for _ in range(rounds):
        bindings = random_bindings(rng, query)
        costs, cards, decisions = program.evaluate(bindings)
        fresh_costs, fresh_cards, fresh_decisions = fresh.evaluate(bindings)
        assert costs == fresh_costs
        assert cards == fresh_cards
        assert [
            (program.slot_of(node), program.slot_of(alternative))
            for node, alternative in decisions
        ] == [
            (fresh.slot_of(node), fresh.slot_of(alternative))
            for node, alternative in fresh_decisions
        ]
        chosen, report = program.choose(bindings)
        fresh_chosen, fresh_report = fresh.choose(bindings)
        assert chosen.digest() == fresh_chosen.digest()
        assert report.choice_signature() == fresh_report.choice_signature()
    assert set(program.read_set()) == set(fresh.read_set())
    for name, predicate in program.read_set().items():
        assert predicate.comparison == fresh.read_set()[name].comparison


def assert_rebinds_like_a_fresh_compile(catalog, source, target, rng, rounds=8):
    assert input_signature(source) == input_signature(target)
    shared, plan, program = rebound(catalog, source, target)
    fresh_plan, fresh_program = compiled(catalog, target)
    assert plan is program.plan is shared.plan
    assert program._segments is shared.decision._segments
    assert program.parameter_space is target.parameter_space
    assert_same_dag(plan, fresh_plan, target)
    assert_same_program(program, fresh_program, target, rng, rounds)


def benchmark_shapes(name):
    """A benchmark workload's catalog and query shapes (no data)."""
    spec = WORKLOADS[name]
    relation_specs = default_relation_specs(spec.relations, seed=0)
    catalog = build_synthetic_catalog(relation_specs, seed=0)
    return catalog, build_queries(spec, [r.name for r in relation_specs])


class TestRebindEquivalence:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_benchmark_shape_rebinds_like_a_fresh_compile(self, name):
        catalog, queries = benchmark_shapes(name)
        source, *targets = queries
        assert {input_signature(q) for q in queries} == {input_signature(source)}
        rng = random.Random(name)
        for target in targets:
            assert_rebinds_like_a_fresh_compile(catalog, source, target, rng)


RELATIONS = ("R1", "R2", "R3", "R4")
OPS = (ComparisonOp.LT, ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.EQ)


@st.composite
def query_pairs(draw):
    """Two queries with one input signature: a random relation order over
    the chain R1-R2-R3-R4 prefix, random selections (uncertain with
    random bounds, or known), random projection and memory uncertainty,
    and two independent expected values per uncertain predicate."""
    count = draw(st.integers(1, 4))
    relations = draw(st.permutations(RELATIONS[:count]))
    joins = make_join_predicates(list(RELATIONS[:count]), "chain")
    joins = draw(st.permutations(joins))
    memory_uncertain = draw(st.booleans())
    pair = ({}, {})
    for relation in draw(st.lists(st.sampled_from(relations), unique=True)):
        op = draw(st.sampled_from(OPS))
        attribute = "%s.%s" % (relation, draw(st.sampled_from("abc")))
        if draw(st.booleans()):
            lower = draw(st.sampled_from((0.0, 0.01, 0.1)))
            upper = draw(st.sampled_from((0.2, 0.5, 1.0)))
            comparison = Comparison(attribute, op, UserVariable("v_" + relation))
            for selections in pair:
                expected = draw(st.floats(lower, upper))
                selections[relation] = SelectionPredicate(
                    comparison,
                    selectivity_parameter="sel_" + relation,
                    selectivity_bounds=(lower, upper),
                    expected_selectivity=expected,
                )
        else:
            known = draw(st.sampled_from((0.001, 0.05, 0.4)))
            comparison = Comparison(attribute, op, Literal(draw(st.integers(0, 99))))
            for selections in pair:
                selections[relation] = SelectionPredicate(
                    comparison, known_selectivity=known
                )
    projection = draw(st.sampled_from((None, ("%s.a" % relations[0],))))
    return tuple(
        QuerySpec(
            relations,
            selections,
            joins,
            memory_uncertain=memory_uncertain,
            projection=projection,
            name="q%d" % index,
        )
        for index, selections in enumerate(pair)
    )


@pytest.fixture(scope="module")
def paper_catalog():
    return paper_workload(3, seed=0).catalog  # R1..R4, attrs a/b/c


class TestGeneratedQueries:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=query_pairs(), seed=st.integers(0, 2**16))
    def test_generated_pairs_rebind_like_a_fresh_compile(
        self, paper_catalog, pair, seed
    ):
        source, target = pair
        assert_rebinds_like_a_fresh_compile(
            paper_catalog, source, target, random.Random(seed), rounds=4
        )


def chain_query(expected, relations=("R1", "R2"), op=ComparisonOp.LT, **options):
    """A chain query with one uncertain selection on ``R1.a``."""
    bounds = options.pop("bounds", (0.0, 1.0))
    operand = options.pop("operand", UserVariable("v"))
    predicate = SelectionPredicate(
        Comparison("R1.a", op, operand),
        selectivity_parameter="sel_R1",
        selectivity_bounds=bounds,
        expected_selectivity=expected,
    )
    return QuerySpec(
        relations,
        {"R1": predicate},
        make_join_predicates(sorted(relations), "chain"),
        name="chain-%s" % expected,
        **options,
    )


class TestInputSignature:
    def test_only_the_expected_selectivity_is_left_out(self):
        base = input_signature(chain_query(0.05))
        assert input_signature(chain_query(0.7)) == base
        different = [
            chain_query(0.05, bounds=(0.0, 0.5)),
            chain_query(0.05, op=ComparisonOp.GT),
            chain_query(0.05, operand=UserVariable("w")),
            chain_query(0.05, operand=Literal(3)),
            chain_query(0.05, relations=("R2", "R1")),
            chain_query(0.05, memory_uncertain=True),
            chain_query(0.05, projection=("R1.a",)),
        ]
        memory = chain_query(0.05)
        memory.parameter_space.add(Parameter.memory(expected=32))
        different.append(memory)
        signatures = [input_signature(query) for query in different]
        assert base not in signatures
        assert len(set(signatures)) == len(signatures)

    def test_an_uncertain_memory_grant_drops_its_expected_value(self):
        one = chain_query(0.05, memory_uncertain=True)
        other = chain_query(0.05, memory_uncertain=True)
        other.parameter_space.add(Parameter.memory(expected=32, uncertain=True))
        assert input_signature(one) == input_signature(other)

    def test_only_a_bounds_run_reads_nothing_else(self, paper_catalog):
        query = chain_query(0.05)
        assert optimize_dynamic(paper_catalog, query).bounds_only
        assert not optimize_static(paper_catalog, query).bounds_only
        multipoint = OptimizerConfig.dynamic(multipoint_heuristic=True)
        assert not optimize_dynamic(paper_catalog, query, multipoint).bounds_only


def serve_shapes(optimize, queries, catalog, **options):
    """Serve each query once through one partition: ``(optimizer calls,
    resilience counters, entries by query name)``."""
    calls = []

    def counting(catalog, query):
        calls.append(query.name)
        return optimize(catalog, query)

    bindings = Bindings().bind("sel_R1", 0.3).bind_variable("v", 3)
    with ShardedQueryService(
        Database(catalog), shards=1, optimize=counting, execute=False, **options
    ) as gateway:
        for query in queries:
            gateway.run(query, bindings)
        service = gateway.shards[0]
        entries = {entry.query.name: entry for entry in service.cache.entries()}
        counts = service.stats().resilience
    return calls, counts, entries


class TestNeverShared:
    def test_a_static_partition_optimizes_every_shape(self, paper_catalog):
        queries = [chain_query(0.001), chain_query(0.9)]
        calls, counts, entries = serve_shapes(optimize_static, queries, paper_catalog)
        assert calls == [q.name for q in queries]
        assert counts["shared_compiles"] == 0
        assert counts["decision_compiles"] == 2
        digests = set()
        for query in queries:
            plan = entries[query.name].plan
            static = optimize_static(paper_catalog, query).plan
            assert plan.digest() == static.digest()
            assert AccessModule.from_plan(plan).to_bytes() == (
                AccessModule.from_plan(static).to_bytes()
            )
            digests.add(plan.digest())
        # The expected value moved the static plan: sharing would be wrong.
        assert len(digests) == 2

    def test_a_multipoint_partition_shares_nothing(self, paper_catalog):
        config = OptimizerConfig.dynamic(multipoint_heuristic=True)

        def multipoint(catalog, query):
            return optimize_dynamic(catalog, query, config)

        queries = [chain_query(0.001), chain_query(0.5), chain_query(0.9)]
        calls, counts, _ = serve_shapes(multipoint, queries, paper_catalog)
        assert calls == [q.name for q in queries]
        assert counts["shared_compiles"] == 0

    def test_a_dynamic_partition_shares_one_run(self, paper_catalog):
        queries = [chain_query(0.001), chain_query(0.5), chain_query(0.9)]
        calls, counts, entries = serve_shapes(optimize_dynamic, queries, paper_catalog)
        assert calls == [queries[0].name]
        assert (counts["decision_compiles"], counts["shared_compiles"]) == (1, 2)
        records = {entry.compiled_from for entry in entries.values()}
        assert len(records) == 1 and None not in records


class TestSnapshotBytesAndLifetime:
    def test_entries_snapshot_their_own_predicates_and_the_memo_dies_with_them(
        self,
    ):
        spec = TrafficSpec.zipf(
            requests=300, query_shapes=40, zipf_s=1.1, relations=4, seed=7
        )
        catalog, _queries, requests = to_service_requests(spec)
        calls = []

        def optimize(catalog, query):
            # Spoilers are optimized statically: they register nothing.
            if query.name.startswith("spoiler"):
                return optimize_static(catalog, query)
            calls.append(query.name)
            return optimize_dynamic(catalog, query)

        with ShardedQueryService(
            Database(catalog), shards=1, capacity=6, optimize=optimize, execute=False
        ) as gateway:
            gateway.run_batch(requests)
            service = gateway.shards[0]
            counts = service.stats().resilience
            assert counts["shared_compiles"] > 0 and len(calls) == 1
            snapshot = build_snapshot(gateway)
            entries = service.cache.entries()
            assert len(snapshot["entries"]) == len(entries) == 6
            by_name = {entry.query.name: entry for entry in entries}
            for data in snapshot["entries"]:
                entry = by_name[data["query"]["name"]]
                fresh = optimize_dynamic(catalog, entry.query).plan
                module = AccessModule.from_plan(fresh, entry.query.name)
                assert data["plan"] == module.to_bytes().decode("utf-8")
            assert len(service._shared) == 1
            del entries, by_name, entry

            # Push every entry past the retained tier: statically
            # optimized one-relation projections, one signature each.
            spoilers = [
                QuerySpec(
                    [relation],
                    {},
                    [],
                    name="spoiler-%s-%s" % (relation, "".join(attributes)),
                    projection=["%s.%s" % (relation, a) for a in attributes],
                )
                for relation in requests[0].query.relations
                for size in (1, 2, 3)
                for attributes in itertools.permutations("abc", size)
            ]
            for spoiler in spoilers:
                gateway.run(spoiler, Bindings())
            survivors = service.cache.entries() + list(service.cache._retained.values())
            assert all(entry.query.name.startswith("spoiler") for entry in survivors)
            del survivors
            gc.collect()
            assert len(service._shared) == 0


class TestOnePlanPerRun:
    """Entries installed from one optimizer run serve on its plan object
    and on views of its program; nothing is copied."""

    def test_every_entry_of_a_shared_run_holds_its_plan_and_program(self):
        spec = TrafficSpec.zipf(
            requests=300, query_shapes=40, zipf_s=1.1, relations=4, seed=7
        )
        catalog, _queries, requests = to_service_requests(spec)
        with ShardedQueryService(Database(catalog), shards=2, execute=False) as gateway:
            gateway.run_batch(requests)
            shared = gateway.stats().total.resilience["shared_compiles"]
            entries = [
                entry
                for shard in gateway.shards
                for entry in shard.cache.entries()
            ]
        assert shared > 0
        assert all(entry.compiled_from is not None for entry in entries)
        assert len({id(entry.plan) for entry in entries}) == 2  # one run a shard
        for entry in entries:
            run = entry.compiled_from
            assert entry.plan is entry.decision.plan is run.plan
            assert entry.decision._nodes is run.decision._nodes
            assert entry.decision._segments is run.decision._segments
            assert entry.decision.parameter_space is entry.parameter_space

    def test_an_unbound_selectivity_decides_at_each_entrys_own_expected_value(
        self, paper_catalog
    ):
        queries = [chain_query(0.001), chain_query(0.9)]
        bindings = Bindings().bind_variable("v", 3)  # sel_R1 left unbound
        with ShardedQueryService(
            Database(paper_catalog), shards=1, execute=False
        ) as gateway:
            results = [gateway.run(query, bindings) for query in queries]
            service = gateway.shards[0]
            entries = [service.cache.get(query) for query in queries]
            counts = service.stats().resilience
        assert (counts["decision_compiles"], counts["shared_compiles"]) == (1, 1)
        assert entries[0].plan is entries[1].plan
        digests = set()
        for query, result in zip(queries, results):
            # g_i = d_i: the run-time resolution of the query's own plan
            # over its own space.
            fresh = optimize_dynamic(paper_catalog, query).plan
            chosen, report = resolve_dynamic_plan(
                fresh, paper_catalog, query.parameter_space, bindings
            )
            assert result.chosen.digest() == chosen.digest()
            assert (
                result.startup_report.choice_signature() == report.choice_signature()
            )
            digests.add(chosen.digest())
        # The two expected values choose differently: a default taken
        # from the shared run's query would be wrong for one of them.
        assert len(digests) == 2


def bind_shape(query, values):
    """Each uncertain selection's parameter bound to the next value."""
    bindings = Bindings().bind_variable("v", 3)
    for relation, value in zip(query.relations, values):
        bindings.bind(query.selections[relation].selectivity_parameter, value)
    return bindings


class TestDriftWidening:
    """A drifted selectivity widens to the domain edge, so the drifted
    entries of one shape family share one optimizer run."""

    def test_two_drifted_shapes_install_from_one_optimizer_run(self, paper_catalog):
        shapes = [chain_query(e, bounds=(0.1, 0.3)) for e in (0.15, 0.25)]
        with ShardedQueryService(
            Database(paper_catalog), shards=1, execute=False
        ) as gateway:
            service = gateway.shards[0]
            for query in shapes:
                gateway.run(query, bind_shape(query, [0.2]))
            before = dict(service.stats().resilience)
            for query, value in zip(shapes, (0.5, 0.85)):
                assert gateway.run(query, bind_shape(query, [value])).reoptimized
            after = service.stats().resilience
            entries = [service.cache.get(query) for query in shapes]
        assert after["decision_compiles"] == before["decision_compiles"] + 1
        assert after["shared_compiles"] == before["shared_compiles"] + 1
        for entry in entries:
            assert entry.covered_bounds == {"sel_R1": Interval(0.1, 1.0)}
        assert entries[0].compiled_from is entries[1].compiled_from

    def test_a_widened_entry_still_chooses_the_run_time_optimum(self):
        catalog, shapes = benchmark_shapes("churn_compile")
        rng = random.Random(37)
        with ShardedQueryService(Database(catalog), shards=1, execute=False) as gateway:
            service = gateway.shards[0]
            for query in shapes[:2]:
                gateway.run(query, bind_shape(query, [0.1] * 4))
            for index in range(12):
                query = shapes[index % 2]
                # At least one selectivity past the declared [0, 0.3].
                values = [rng.uniform(0.0, 1.0) for _ in query.relations]
                values[index % 4] = rng.uniform(0.3, 1.0)
                bindings = bind_shape(query, values)
                result = gateway.run(query, bindings)
                space = query.parameter_space
                chosen = predicted_execution_seconds(
                    result.chosen, catalog, space, bindings
                )
                optimum = optimize_runtime(catalog, query, bindings).plan
                assert chosen == pytest.approx(
                    predicted_execution_seconds(optimum, catalog, space, bindings),
                    rel=1e-9,
                )
            for query in shapes[:2]:
                covered = service.cache.get(query).covered_bounds
                assert set(covered.values()) == {Interval(0.0, 1.0)}
            counts = service.stats().resilience
        # Besides the second shape's first touch, at least one widened
        # install was re-bound from the other shape's run.
        assert counts["shared_compiles"] >= 2

    def test_memory_drift_widens_exactly(self, paper_catalog):
        query = chain_query(0.05, bounds=(0.0, 0.3), memory_uncertain=True)
        lower, upper = DEFAULT_MEMORY_BOUNDS
        with ShardedQueryService(
            Database(paper_catalog), shards=1, execute=False
        ) as gateway:
            gateway.run(query, bind_shape(query, [0.2]).bind(MEMORY_PARAMETER, 64))
            entry = gateway.shards[0].cache.get(query)
            drifted = bind_shape(query, [0.2]).bind(MEMORY_PARAMETER, upper + 40)
            assert gateway.run(query, drifted).reoptimized
            widened = Interval(lower, upper + 40)
            assert entry.covered_bounds[MEMORY_PARAMETER] == widened
            # A later selectivity drift keeps the memory widening.
            drifted = bind_shape(query, [0.6]).bind(MEMORY_PARAMETER, 64)
            assert gateway.run(query, drifted).reoptimized
        assert entry.covered_bounds == {
            MEMORY_PARAMETER: widened,
            "sel_R1": Interval(0.0, 1.0),
        }
