"""Mid-query re-optimization: the differential and property harness.

The backbone is the differential suite: for every paper query a run
that re-decides at *every* pipeline breaker
(``ReoptPolicy("always")``) must return the same row multiset
— and, at the pinned seed, byte-identical I/O-charge totals — as a
run that never re-decides.  Checkpoints replay for free and operators
charge per record drained, so visiting breakers is invisible to the
accounting unless a re-decision actually changes the remainder plan.

The property layer (Hypothesis, reusing the random-workload strategy
from ``test_property_random_queries``) pins the decision invariants:
in ``auto`` mode an observation inside its compile-time interval never
triggers a re-decision, and any re-decision picks an alternative whose
re-costed value is no worse than the incumbent's.
"""

import functools
import sys
import threading
from math import ceil, floor
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st
from tests._layouts import LayoutRecorder
from tests._reference import reference_resolve, reference_rows
from tests.test_property_random_queries import workloads

from repro.algebra.expressions import (
    Comparison,
    ComparisonOp,
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
    Materialized,
    Sort,
)
from repro.common.errors import (
    ExecutionError,
    QueryTimeoutError,
    ServiceExecutionError,
    TransientIOError,
)
from repro.cost.formulas import CostModel, _hash_join
from repro.cost.parameters import MEMORY_PARAMETER, Bindings, Valuation
from repro.executor import execute_plan, resolve_dynamic_plan, validate_plan
from repro.executor.decision import (
    CompiledDecision,
    DecisionCompilationError,
    _copy,
    _rebuild,
)
from repro.executor.midquery import (
    ReoptPolicy,
    count_qualifying,
    execute_midquery,
    strip_checkpoints,
)
from repro.optimizer import optimize_dynamic, optimize_runtime
from repro.catalog import generate_rows, populate_database
from repro.resilience import (
    FaultInjector,
    FaultProfile,
    FaultRule,
    MemoryDropStage,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.resilience.chaos import rows_digest
from repro.resilience.deadline import CountingClock, Deadline
from repro.scenarios import predicted_execution_seconds
from repro.service import ShardedQueryService
from repro.storage.database import Database
from repro.workloads import (
    make_join_workload,
    paper_workload,
    random_bindings,
    skewed_bindings,
)
from repro.workloads.queries import SELECTION_ATTRIBUTE

#: Data-population seed shared with the chaos harness.
DATA_SEED = 11
#: Binding seed of the full rows-plus-I/O identity fixture: at this
#: seed every paper query is identical across forced and suppressed
#: runs, *including* queries where forcing makes
#: genuine switches (the remainder plans re-decide to the incumbent
#: shape, so the accounting cannot diverge).
IDENTITY_SEED = 3

PAPER_QUERIES = (1, 2, 3, 4, 5)


def _setup(number, seed=IDENTITY_SEED, skew=None):
    workload = paper_workload(number, memory_uncertain=True)
    plan = optimize_dynamic(workload.catalog, workload.query).plan
    if skew is not None:
        bindings = skewed_bindings(workload, declared=skew[0], actual=skew[1])
    else:
        bindings = random_bindings(workload, seed=seed)
    return workload, plan, bindings


def _fresh_database(workload, seed=DATA_SEED):
    database = Database(workload.catalog)
    populate_database(database, seed=seed)
    return database


def _run_plain(workload, plan, bindings):
    database = _fresh_database(workload)
    return execute_plan(
        plan,
        database,
        bindings.copy(),
        workload.query.parameter_space,
    )


def _run_midquery(workload, plan, bindings, policy):
    database = _fresh_database(workload)
    return execute_midquery(
        plan,
        database,
        bindings.copy(),
        workload.query.parameter_space,
        policy=policy,
    )


def _io_less_probes(result, report):
    """The run's I/O account minus what the index-only probes charged:
    by the I/O-identity invariant, the drains plus the final plan."""
    return {
        key: value - report.probe_io[key]
        for key, value in result.io_snapshot.items()
    }


def _rounds_into(estimate, observed):
    """The violation rule: an integer count against outward-rounded bounds."""
    return floor(estimate.lower) <= observed <= ceil(estimate.upper)


def _checkpoint(node, cardinality):
    """A checkpoint of ``node`` holding ``cardinality`` placeholder rows."""
    return Materialized([None] * cardinality, node)


def _breaker_eligible(plan):
    """Dynamic-plan nodes a breaker could drain: scans, sorts, builds."""
    eligible = {}
    for node in plan.walk_unique():
        if isinstance(node, (BTreeScan, FilterBTreeScan, Sort)):
            eligible[id(node)] = node
        elif isinstance(node, HashJoin):
            eligible[id(node.build)] = node.build
    eligible.pop(id(plan), None)
    return list(eligible.values())


def _substitute(plan, replacements):
    """``plan`` rebuilt with ``id(node) -> checkpoint`` substituted.

    Returns ``(new plan, id(old node) -> new node)``.  The interpreted
    oracle runs over the result: a pin *is* this substitution.
    """
    mapping = {}

    def rebuild(node):
        done = mapping.get(id(node))
        if done is not None:
            return done
        if id(node) in replacements:
            result = replacements[id(node)]
        else:
            children = [rebuild(child) for child in node.inputs()]
            if isinstance(node, ChoosePlan):
                result = ChoosePlan(children)
            else:
                result = _rebuild(node, children)
        mapping[id(node)] = result
        return result

    return rebuild(plan), mapping


class TestReoptPolicy:
    def test_defaults(self):
        policy = ReoptPolicy()
        assert vars(policy) == {"mode": "auto"}
        assert policy.active

    @pytest.mark.parametrize("text", ("", "off", None))
    def test_parse_off(self, text):
        assert not ReoptPolicy.parse(text).active

    def test_parse_modes_and_strategies(self):
        """A spec is a mode; the ``mode+strategy`` grammar is gone."""
        assert ReoptPolicy.parse(" auto ").mode == "auto"
        assert ReoptPolicy.parse("always").mode == "always"
        for mode, strategy in (("always", "restart"), ("auto", "splice")):
            with pytest.raises(ExecutionError):
                ReoptPolicy.parse("%s+%s" % (mode, strategy))

    def test_parse_breaker_subset(self):
        """Every breaker is a decision point: a kind filter is refused."""
        for text in ("auto:sort", "always:sort,hash_build"):
            with pytest.raises(ExecutionError):
                ReoptPolicy.parse(text)

    @pytest.mark.parametrize(
        "text", ("sometimes", "auto:everywhere", "always+undo")
    )
    def test_parse_rejects_bad_specs(self, text):
        with pytest.raises(ExecutionError):
            ReoptPolicy.parse(text)

    def test_to_dict_round_trips_the_spec(self):
        for mode in ("off", "auto", "always"):
            policy = ReoptPolicy.parse(mode)
            assert policy.to_dict() == {"mode": mode}
            assert ReoptPolicy(**policy.to_dict()).mode == mode


class TestDifferentialIdentity:
    """Forced re-decisions == suppressed re-decisions, per query."""

    @pytest.mark.parametrize("number", PAPER_QUERIES)
    def test_rows_and_io_identical(self, number):
        workload, plan, bindings = _setup(number)
        plain = _run_plain(workload, plan, bindings)
        forced, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("always")
        )
        assert rows_digest(forced.records) == rows_digest(plain.records)
        assert _io_less_probes(forced, report) == plain.io_snapshot

    @pytest.mark.parametrize("number", PAPER_QUERIES)
    def test_final_plan_is_valid_and_fully_decided(self, number):
        workload, plan, bindings = _setup(number)
        _, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("always")
        )
        final = report.final_plan
        assert final.choose_plan_count() == 0
        validate_plan(final, workload.catalog)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("number", (2, 3, 5))
    def test_rows_identical_across_seed_sweep(self, number, seed):
        """Row multisets agree even when forcing makes genuine switches.

        Across this sweep some seeds re-decide onto *different*
        remainder plans (so I/O legitimately differs — usually
        improving); the result multiset never may.
        """
        workload, plan, bindings = _setup(number, seed=seed)
        plain = _run_plain(workload, plan, bindings)
        forced, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("always")
        )
        assert rows_digest(forced.records) == rows_digest(plain.records)
        if report.switches == 0:
            assert _io_less_probes(forced, report) == plain.io_snapshot
        assert bool(report.probes) == bool(report.redecisions)

    @pytest.mark.parametrize("number", PAPER_QUERIES)
    def test_handed_program_changes_nothing(self, number):
        """``decision=`` only saves the compile: every output is equal."""
        workload, plan, bindings = _setup(number, seed=0, skew=(0.02, 0.6))
        program = CompiledDecision(
            plan, workload.catalog, workload.query.parameter_space
        )
        _, startup = program.choose(bindings)
        runs = []
        for decision in (None, program):
            result, report = execute_midquery(
                plan,
                _fresh_database(workload),
                bindings.copy(),
                workload.query.parameter_space,
                policy=ReoptPolicy("always"),
                choices=startup.choices,
                decision=decision,
            )
            runs.append(
                (
                    [record.as_dict() for record in result.records],
                    result.io_snapshot,
                    report.to_dict(),
                    [(id(node), id(chosen)) for node, chosen in report.choices],
                )
            )
        assert runs[0] == runs[1]

    def test_off_policy_is_plain_execution(self):
        workload, plan, bindings = _setup(3)
        plain = _run_plain(workload, plan, bindings)
        off, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("off")
        )
        assert report.checkpoints == 0
        assert report.final_plan is plan
        assert off.io_snapshot == plain.io_snapshot
        assert rows_digest(off.records) == rows_digest(plain.records)


class TestCheckpointReuse:
    """A switch continues over the checkpoints: drained work is never re-read."""

    def test_skew_forces_switches_with_identical_rows(self):
        workload, plan, bindings = _setup(3, seed=0, skew=(0.02, 0.6))
        plain = _run_plain(workload, plan, bindings)
        forced, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("always")
        )
        assert report.switches >= 1
        assert rows_digest(forced.records) == rows_digest(plain.records)

    def test_splice_keeps_checkpoints_in_final_plan(self):
        workload, plan, bindings = _setup(3, seed=0, skew=(0.02, 0.6))
        _, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("always")
        )
        assert any(
            isinstance(node, Materialized)
            for node in report.final_plan.walk_unique()
        )

    @pytest.mark.parametrize("batch_size", (1, 3, 1024))
    def test_checkpoint_replays_keep_one_layout_per_operator(self, batch_size):
        """A switch replays drained tuples through ``Materialized``; each
        replay, and every operator above it, emits values tuples as wide
        as its one layout (the batch kernels' precondition), and the
        result's records are on the root's layout."""
        workload, plan, bindings = _setup(3, seed=0, skew=(0.02, 0.6))
        recorder = LayoutRecorder()
        result, report = execute_midquery(
            plan,
            _fresh_database(workload),
            bindings.copy(),
            workload.query.parameter_space,
            policy=ReoptPolicy("always"),
            batch_size=batch_size,
            tracer=recorder,
        )
        assert report.switches >= 1
        assert any(isinstance(p, Materialized) for p in recorder.emitting())
        assert recorder.mismatched() == []
        root = recorder.root().layout
        assert all(record._layout is root for record in result.records)
        plain = _run_plain(workload, plan, bindings)
        assert rows_digest(result.records) == rows_digest(plain.records)

    def test_splice_never_rereads_drained_work(self):
        """Restarting after a switch would pay for the drains and then the
        whole final plan again: ``splice - tail + full``, where ``tail``
        runs the final plan over its checkpoints (a replay charges
        nothing) and ``full`` runs it with them stripped."""
        workload, plan, bindings = _setup(3, seed=0, skew=(0.02, 0.6))
        spliced, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("always")
        )
        assert report.switches >= 1
        stripped = strip_checkpoints(report.final_plan)
        assert not any(
            isinstance(node, Materialized) for node in stripped.walk_unique()
        )
        tail = _run_plain(workload, report.final_plan, bindings)
        full = _run_plain(workload, stripped, bindings)
        assert rows_digest(spliced.records) == rows_digest(full.records)
        pages = spliced.io_snapshot["pages_read"]
        restart = pages - tail.io_snapshot["pages_read"]
        restart += full.io_snapshot["pages_read"]
        assert pages < restart

    def test_breaker_events_record_observations(self):
        workload, plan, bindings = _setup(3, seed=0, skew=(0.02, 0.6))
        _, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("always")
        )
        assert report.checkpoints == len(report.breakers)
        assert report.violations == sum(e.violated for e in report.breakers)
        for event in report.breakers:
            assert event.kind in ("hash_build", "sort", "btree_scan")
            assert event.observed >= 0
            assert event.violated == (
                not _rounds_into(event.estimate, event.observed)
            )
        data = report.to_dict()
        assert data["switches"] == report.switches
        assert len(data["breakers"]) == report.checkpoints


#: Paper Section 7's failure mode, per query: the estimates claim the
#: first selectivity, the data delivers the second.
SECTION7_LIES = {2: (0.02, 0.6), 3: (0.05, 0.9), 4: (0.05, 0.9), 5: (0.05, 0.9)}


class TestSection7Recovery:
    """Start-up resolution trusts wrong estimates; re-deciding at every
    breaker observes the data and recovers most of the penalty."""

    @pytest.mark.parametrize("number", sorted(SECTION7_LIES))
    def test_always_recovers_from_wrong_estimates(self, number):
        workload = paper_workload(number)
        catalog, space = workload.catalog, workload.query.parameter_space
        plan = optimize_dynamic(catalog, workload.query).plan
        database = populate_database(Database(catalog), seed=0)
        declared, actual = SECTION7_LIES[number]
        lied = skewed_bindings(workload, declared=declared, actual=actual)
        truth = skewed_bindings(workload, declared=actual, actual=actual)

        def true_cost(bindings_seen):
            chosen, _ = resolve_dynamic_plan(plan, catalog, space, bindings_seen)
            return predicted_execution_seconds(chosen, catalog, space, truth)

        result, report = execute_midquery(
            plan, database, lied, space, policy=ReoptPolicy("always")
        )
        final = predicted_execution_seconds(
            strip_checkpoints(report.final_plan), catalog, space, truth
        )
        assert final < 0.8 * true_cost(lied)
        assert true_cost(truth) <= final + 1e-9
        expected = reference_rows(workload, database, lied)
        assert rows_digest(result.records) == rows_digest(expected)


class TestIncrementalDecider:
    """Re-decisions are whole passes of the plan's decision program."""

    def test_first_decide_matches_startup_resolution(self):
        workload, plan, bindings = _setup(3)
        space = workload.query.parameter_space
        program = CompiledDecision(plan, workload.catalog, space)
        chosen, report = program.choose(bindings, {})
        expected, oracle = reference_resolve(plan, workload.catalog, space, bindings)
        assert chosen.signature() == expected.signature()
        assert report.choice_signature() == oracle.choice_signature()
        assert report.decisions == plan.choose_plan_count()
        assert len(program) == plan.node_count()
        assert report.cost_evaluations == len(program) - program.decision_count

    def test_splice_compiles_nothing_and_keeps_choices(self, monkeypatch):
        """A run seeded with start-up choices that never re-decides needs
        no program: it only rebuilds the plan over its checkpoints."""
        from repro.executor import midquery

        workload, plan, bindings = _setup(3)
        space = workload.query.parameter_space
        chosen, startup = CompiledDecision(plan, workload.catalog, space).choose(
            bindings
        )

        def refuse(*args):
            raise DecisionCompilationError("splice must not compile")

        monkeypatch.setattr(midquery, "CompiledDecision", refuse)
        # Under the paper's [0, 1] bounds no observation violates.
        result, report = execute_midquery(
            plan,
            _fresh_database(workload),
            bindings.copy(),
            space,
            policy=ReoptPolicy("auto"),
            choices=startup.choices,
        )
        assert report.checkpoints > 0
        assert report.redecisions == report.cost_evaluations == 0
        assert report.choices == startup.choices
        assert strip_checkpoints(report.final_plan).signature() == chosen.signature()
        assert rows_digest(result.records) == rows_digest(
            _run_plain(workload, plan, bindings).records
        )
        # Only a decision needs the program, and then fails typed.
        with pytest.raises(DecisionCompilationError):
            execute_midquery(
                plan,
                _fresh_database(workload),
                bindings.copy(),
                space,
                policy=ReoptPolicy("always"),
                choices=startup.choices,
            )

    def test_one_program_serves_eight_threads(self):
        """The program holds no per-query state: pinned passes on one
        program from eight threads equal the same passes run alone."""
        workload, plan, _ = _setup(4)
        space = workload.query.parameter_space
        targets = _breaker_eligible(plan)

        def scenario(index, program):
            bindings = random_bindings(workload, seed=index)
            trail = [sorted(program.read_set())]
            pins = {}
            for step in range(4):
                target = targets[(index * 7 + step * 3) % len(targets)]
                pins[program.slot_of(target)] = _checkpoint(target, index * 11 + step)
                costs, cards, _ = program.evaluate(bindings, pins)
                chosen, report = program.choose(bindings, pins)
                trail.append(
                    (
                        costs,
                        cards,
                        chosen.signature(),
                        [(id(n), id(c)) for n, c in report.choices],
                    )
                )
            return trail

        threads = 8
        alone = CompiledDecision(plan, workload.catalog, space)
        expected = [scenario(index, alone) for index in range(threads)]
        # A fresh program, so the threads also race to derive its read set.
        shared = CompiledDecision(plan, workload.catalog, space)
        results = [None] * threads
        barrier = threading.Barrier(threads)

        def work(index):
            barrier.wait(timeout=30)
            results[index] = scenario(index, shared)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            workers = [
                threading.Thread(target=work, args=(index,))
                for index in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == expected

    def test_program_compiled_for_another_plan_is_rejected(self):
        workload, plan, bindings = _setup(2)
        other = optimize_dynamic(workload.catalog, workload.query).plan
        space = workload.query.parameter_space
        program = CompiledDecision(other, workload.catalog, space)
        with pytest.raises(ExecutionError):
            execute_midquery(
                plan,
                _fresh_database(workload),
                bindings,
                space,
                policy=ReoptPolicy("always"),
                decision=program,
            )

    def test_service_import_path_reexports_the_program(self):
        import repro.service.decision as service_path

        assert service_path.CompiledDecision is CompiledDecision
        assert service_path.DecisionCompilationError is DecisionCompilationError

    def test_memory_drop_is_choose_on_the_shrunk_grant(self):
        """A mid-run memory drop re-decides with one whole pass: the
        served plan and choices are ``choose`` on the shrunk bindings."""
        workload, _, bindings = _setup(3)
        database = _fresh_database(workload)
        profile = FaultProfile("drop", memory_drops=(MemoryDropStage(3, 2),))
        injector = database.install_fault_injector(FaultInjector(profile, seed=0))
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_retries=3, base_delay=0.0, jitter=0.0),
            sleep=lambda _seconds: None,
        )
        with ShardedQueryService(
            database, shards=1, resilience_factory=lambda: policy
        ) as gateway:
            result = gateway.run(workload.query, bindings.copy())
            counts = gateway.stats().total.resilience
            program = _entry(gateway).decision
        assert injector.memory_drops_fired == 1
        assert counts["degradations"] == counts["incremental_redecisions"] == 1
        shrunk = bindings.copy().bind(MEMORY_PARAMETER, 2)
        chosen, report = program.choose(shrunk)
        assert result.startup_report.choices == report.choices
        assert (
            result.startup_report.cost_evaluations
            == len(program) - program.decision_count
        )
        assert result.chosen.signature() == chosen.signature()
        assert rows_digest(result.execution.records) == rows_digest(
            _run_plain(workload, program.plan, bindings).records
        )


class TestTwinRows:
    """A row that computes what an earlier row of its rank computes is
    copied from that row's slot, not run, and a hash join's row also
    fills its commuted join's slot; a pin still reaches each member of
    the pair on its own."""

    @staticmethod
    def _pair(program, kind):
        """The first ``(twin, source)`` nodes of ``kind`` one row fills:
        a copied sort of one input (the optimizer builds no commuted
        merge join), or a hash join's commuted join."""
        nodes = program._nodes
        if kind is HashJoin:
            for kernel, rows in program._segments:
                for row in rows if kernel is _hash_join else ():
                    if row[-1] is not None:
                        return nodes[row[-1]], nodes[row[0]]
        for kernel, rows in program._segments:
            if kernel is not _copy:
                continue
            for slot, source in rows:
                twin, original = nodes[slot], nodes[source]
                if type(twin) is not kind:
                    continue
                inputs = [id(child) for child in original.inputs()]
                if [id(child) for child in twin.inputs()] == inputs:
                    return twin, original
        raise AssertionError("no copied %s" % kind.__name__)

    @pytest.mark.parametrize("member", ["twin", "source"])
    @pytest.mark.parametrize("kind", [Sort, HashJoin], ids=["sort", "hash_join"])
    @pytest.mark.parametrize("paper_query", [3, 4, 5])
    def test_pinning_one_member_equals_the_substituted_program(
        self, paper_query, kind, member
    ):
        """The pinned pass equals, slot for slot, the program of the
        plan with the checkpoint substituted, and decides alike: a
        drained twin reads zero while the other member keeps its value.
        Pins that ran before a rank's copies would hand the twin its
        source's pinned zero, or overwrite a pinned twin."""
        workload = paper_workload(paper_query, seed=0, memory_uncertain=True)
        space = workload.query.parameter_space
        plan = optimize_dynamic(workload.catalog, workload.query).plan
        program = CompiledDecision(plan, workload.catalog, space)
        twin, source = self._pair(program, kind)
        drained, kept = (twin, source) if member == "twin" else (source, twin)
        checkpoint = _checkpoint(drained, 7)
        pins = {program.slot_of(drained): checkpoint}
        substituted, mapping = _substitute(plan, {id(drained): checkpoint})
        reference = CompiledDecision(substituted, workload.catalog, space)
        for seed in range(3):
            bindings = random_bindings(workload, seed=seed)
            bindings.bind(MEMORY_PARAMETER, 16 + 40 * seed)
            costs, cards, decisions = program.evaluate(bindings, pins)
            expected_costs, expected_cards, expected = reference.evaluate(bindings)
            compared = 0
            for node in program._nodes:
                if id(node) in mapping:
                    slot = program.slot_of(node)
                    other = reference.slot_of(mapping[id(node)])
                    assert (costs[slot], cards[slot]) == (
                        expected_costs[other],
                        expected_cards[other],
                    )
                    compared += 1
            assert compared == len(reference)
            drained_slot = program.slot_of(drained)
            assert (costs[drained_slot], cards[drained_slot]) == (0.0, 7.0)
            assert costs[program.slot_of(kept)] > 0.0
            # Choose-plans below the pin only the pinned pass decides.
            assert {
                id(mapping[id(node)]): id(mapping[id(alternative)])
                for node, alternative in decisions
                if id(node) in mapping
            } == {id(node): id(alternative) for node, alternative in expected}


class TestMidQueryProperties:
    """Hypothesis invariants over random workloads."""

    @settings(max_examples=10, deadline=None)
    @given(workload=workloads(), binding_seed=st.integers(0, 1000))
    def test_in_interval_observations_never_redecide(
        self, workload, binding_seed
    ):
        plan = optimize_dynamic(workload.catalog, workload.query).plan
        bindings = random_bindings(workload, seed=binding_seed)
        plain = _run_plain(workload, plan, bindings)
        result, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("auto")
        )
        # Auto mode re-decides exactly when an observation violates.
        assert report.redecisions == report.violations
        for event in report.breakers:
            if not event.violated:
                assert _rounds_into(event.estimate, event.observed)
        assert rows_digest(result.records) == rows_digest(plain.records)
        if report.switches == 0:
            assert _io_less_probes(result, report) == plain.io_snapshot
        if not report.violations:
            assert not report.probes and not report.rebound or all(
                source == "drain" for _, _, source in report.rebound.values()
            )

    @settings(max_examples=8, deadline=None)
    @given(workload=workloads(), binding_seed=st.integers(0, 1000))
    def test_redecisions_never_pick_costlier_alternatives(
        self, workload, binding_seed
    ):
        """Every pass re-picks each choice as the first minimal
        alternative, so a switch never moves to a costlier one."""

        class Recording(CompiledDecision):
            def evaluate(self, bindings, pins=None):
                costs, cards, decisions = super().evaluate(bindings, pins)
                passes.append((costs, decisions))
                return costs, cards, decisions

        plan = optimize_dynamic(workload.catalog, workload.query).plan
        space = workload.query.parameter_space
        bindings = random_bindings(workload, seed=binding_seed)
        plain = _run_plain(workload, plan, bindings)
        passes = []
        program = Recording(plan, workload.catalog, space)
        result, report = execute_midquery(
            plan,
            _fresh_database(workload),
            bindings.copy(),
            space,
            policy=ReoptPolicy("always"),
            decision=program,
        )
        # The opening decision, then one whole pass per re-decision.
        assert len(passes) == report.redecisions + 1
        assert report.cost_evaluations == len(passes) * len(program)
        standing = {}
        for costs, decisions in passes:
            for node, chosen in decisions:
                prior = standing.get(id(node))
                if prior is not None:
                    candidate = costs[program.slot_of(chosen)]
                    assert candidate <= costs[program.slot_of(prior)] + 1e-9
                standing[id(node)] = chosen
        assert rows_digest(result.records) == rows_digest(plain.records)

    @settings(max_examples=25, deadline=None)
    @given(
        workload=workloads(),
        binding_seed=st.integers(0, 1000),
        data=st.data(),
    )
    def test_pinned_decisions_match_the_interpreted_oracle(
        self, workload, binding_seed, data
    ):
        """A pinned pass == interpreted pass over the substitution."""
        plan = optimize_dynamic(workload.catalog, workload.query).plan
        space = workload.query.parameter_space
        bindings = random_bindings(workload, seed=binding_seed)
        eligible = _breaker_eligible(plan)
        picked = data.draw(
            st.lists(st.sampled_from(eligible), unique_by=id, max_size=4)
            if eligible
            else st.just([])
        )
        replacements = {
            id(node): _checkpoint(node, data.draw(st.integers(0, 3000)))
            for node in picked
        }

        program = CompiledDecision(plan, workload.catalog, space)
        pins = {program.slot_of(node): replacements[id(node)] for node in picked}
        pinned, pass_report = program.choose(bindings, pins)

        substituted, mapping = _substitute(plan, replacements)
        chosen, report = reference_resolve(
            substituted, workload.catalog, space, bindings
        )
        assert pinned.signature() == chosen.signature()
        # Every choose-plan the substitution left reachable made the
        # same choice (the pass also decides choose-plans that only
        # exist below a pin; the oracle never sees those).
        standing = {
            id(mapping[id(node)]): mapping.get(id(alternative))
            for node, alternative in pass_report.choices
            if id(node) in mapping
        }
        for node, alternative in report.choices:
            assert standing[id(node)] is alternative

    @settings(max_examples=25, deadline=None)
    @given(workload=workloads(), data=st.data())
    def test_segments_rerun_and_cost_model_agree_at_the_corners(
        self, workload, data
    ):
        """Segment run == ``CostModel``; a pin is a ``Materialized`` input.

        The bindings lean on the formulas' corners: selectivity 0
        (cardinality 0, zero pages), cardinality <= 1 (the sort floor),
        memory below one build page, and parameters left unbound.
        """
        plan = optimize_dynamic(workload.catalog, workload.query).plan
        space = workload.query.parameter_space
        bindings = random_bindings(workload, seed=0)
        selectivity = st.one_of(
            st.sampled_from([0.0, 1e-9, 1e-4, 1.0]), st.floats(0.0, 1.0)
        )
        memory = st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 256.0)
        )
        for name in bindings.parameter_names():
            if name != MEMORY_PARAMETER:
                bindings.bind(name, data.draw(selectivity))
        if data.draw(st.booleans()):
            bindings.bind(MEMORY_PARAMETER, data.draw(memory))
        eligible = _breaker_eligible(plan)
        picked = data.draw(
            st.lists(st.sampled_from(eligible), unique_by=id, max_size=3)
            if eligible
            else st.just([])
        )
        replacements = {
            id(node): _checkpoint(node, data.draw(st.integers(0, 3000)))
            for node in picked
        }

        # Materialized inputs: the program of the substituted plan.
        substituted, mapping = _substitute(plan, replacements)
        program = CompiledDecision(substituted, workload.catalog, space)
        costs, cards, decisions = program.evaluate(bindings)

        # Every slot against the interval model at the point valuation,
        # over the static plan the decisions resolve it to.
        chosen = {id(node): alternative for node, alternative in decisions}
        model = CostModel(workload.catalog, Valuation.runtime(space, bindings))
        resolved = {}
        for node in sorted(substituted.walk_unique(), key=program.slot_of):
            slot = program.slot_of(node)
            if isinstance(node, ChoosePlan):
                alternatives = [program.slot_of(a) for a in node.alternatives]
                offered = [costs[alternative] for alternative in alternatives]
                # First minimal: strict-``<``, first wins.
                first = alternatives[offered.index(min(offered))]
                assert program.slot_of(chosen[id(node)]) == first
                assert (costs[slot], cards[slot]) == (costs[first], cards[first])
                resolved[id(node)] = resolved[id(chosen[id(node)])]
                continue
            resolved[id(node)] = _rebuild(
                node, [resolved[id(child)] for child in node.inputs()]
            )
            expected = model.evaluate(resolved[id(node)])
            assert (costs[slot], cards[slot]) == (
                expected.cost.lower,
                expected.cardinality.lower,
            )

        # Pins: the original program with the checkpoints pinned leaves
        # every surviving node the values the substitution computed.
        original = CompiledDecision(plan, workload.catalog, space)
        pins = {
            original.slot_of(node): replacements[id(node)] for node in picked
        }
        pinned = original.evaluate(bindings, pins)
        for node in plan.walk_unique():
            if id(node) in mapping:
                slot = original.slot_of(node)
                twin = program.slot_of(mapping[id(node)])
                assert (pinned[0][slot], pinned[1][slot]) == (
                    costs[twin],
                    cards[twin],
                )

    @settings(max_examples=6, deadline=None)
    @given(workload=workloads())
    def test_skewed_runs_still_return_true_rows(self, workload):
        plan = optimize_dynamic(workload.catalog, workload.query).plan
        bindings = skewed_bindings(workload, declared=0.02, actual=0.6)
        plain = _run_plain(workload, plan, bindings)
        result, report = _run_midquery(
            workload, plan, bindings, ReoptPolicy("always")
        )
        assert rows_digest(result.records) == rows_digest(plain.records)
        final = report.final_plan
        assert final.choose_plan_count() == 0


# ----------------------------------------------------------------------
# What a re-decision reads: observed selectivities, not declared ones
# ----------------------------------------------------------------------

#: The selectivity every predicate *declares* in the lie matrix, inside
#: the compile-time bounds; a lying relation's data behaves like one of
#: ``TRUE_SELECTIVITIES`` instead (``skew_reopt``'s 0.3–0.8 range).
DECLARED = 0.02
LIE_BOUNDS = (0.0, 0.1)
TRUE_SELECTIVITIES = (0.3, 0.55, 0.8)

#: ``auto``'s simulated seconds summed over ``TRUE_SELECTIVITIES`` at the
#: parent commit (8aa72ea: no feedback, no probe, 3 / 2 switches a run).
PARENT_AUTO_SECONDS = {"all": 28.809, "R1+R2": 12.3641}

LIE_CELLS = {
    "all": ("R1", "R2", "R3"),
    "R1": ("R1",),
    "R1+R2": ("R1", "R2"),
    "R1+R3": ("R1", "R3"),
    "R2": ("R2",),
    "none": (),
}


@functools.lru_cache(maxsize=None)
def _chain(bounds=LIE_BOUNDS):
    """A 3-way chain join with one bounded predicate per relation — the
    ``skew_reopt`` fixture: ``(workload, database, plan, program)``."""
    workload = make_join_workload(3, selectivity_bounds=bounds)
    database = populate_database(Database(workload.catalog), seed=0)
    plan = optimize_dynamic(workload.catalog, workload.query).plan
    program = CompiledDecision(plan, workload.catalog, workload.query.parameter_space)
    return workload, database, plan, program


def _lying_bindings(workload, actual):
    """Every parameter declared ``DECLARED``; ``actual`` maps a relation
    to the selectivity its bound value really has (default: no lie)."""
    bindings = Bindings()
    for name in workload.query.relations:
        predicate = workload.query.selection_for(name)
        domain = workload.catalog.domain_size(name, SELECTION_ATTRIBUTE)
        bindings.bind(predicate.selectivity_parameter, DECLARED)
        bindings.bind_variable(
            predicate.comparison.operand.name, actual.get(name, DECLARED) * domain
        )
    return bindings


def _run_chain(bindings, mode, database=None):
    workload, stored, plan, program = _chain()
    _, startup = program.choose(bindings)
    return execute_midquery(
        plan,
        database if database is not None else stored,
        bindings,
        workload.query.parameter_space,
        policy=ReoptPolicy(mode),
        choices=startup.choices,
        decision=program,
    )


class TestVerifiedRedecisions:
    """Own-predicate feedback plus verify-before-you-switch."""

    @pytest.mark.parametrize("cell", sorted(LIE_CELLS))
    def test_lie_matrix(self, cell):
        """Whoever lies, ``auto`` returns the true rows, leaves the
        caller's bindings alone and does not lose to doing nothing
        (simulated seconds summed over the selectivity range)."""
        workload, database, _, _ = _chain()
        liars = LIE_CELLS[cell]
        seconds = {"off": 0.0, "auto": 0.0}
        for true in TRUE_SELECTIVITIES:
            bindings = _lying_bindings(workload, dict.fromkeys(liars, true))
            expected = rows_digest(reference_rows(workload, database, bindings))
            before = repr(bindings)
            off, _ = _run_chain(bindings, "off")
            auto, report = _run_chain(bindings, "auto")
            assert repr(bindings) == before
            assert rows_digest(off.records) == expected
            assert rows_digest(auto.records) == expected
            seconds["off"] += off.simulated_seconds()
            seconds["auto"] += auto.simulated_seconds()
            if "R1" in liars:
                # The first drain (R1's B-tree scan) violates: the other
                # two predicates are counted before anything switches.
                assert report.breakers[0].violated
                assert report.probes == 2
                assert report.switches == 1
                assert {
                    name: source for name, (_, _, source) in report.rebound.items()
                } == {"sel_R1": "drain", "sel_R2": "probe", "sel_R3": "probe"}
                for name, (declared, observed, _) in report.rebound.items():
                    assert declared == DECLARED
                    stated = true if name[4:] in liars else DECLARED
                    assert observed == pytest.approx(stated, abs=0.05)
            else:
                # Nothing violates: no probe, no re-decision, same bytes.
                assert report.violations == report.redecisions == 0
                assert report.probes == 0 and not any(report.probe_io.values())
                assert [entry[2] for entry in report.rebound.values()] == ["drain"]
                assert auto.io_snapshot == off.io_snapshot
        assert seconds["auto"] <= seconds["off"]
        if cell in PARENT_AUTO_SECONDS:
            assert seconds["auto"] < PARENT_AUTO_SECONDS[cell]

    def test_report_names_what_the_decision_read(self):
        workload, _, _, _ = _chain()
        bindings = _lying_bindings(workload, dict.fromkeys(("R1", "R2", "R3"), 0.6))
        result, report = _run_chain(bindings, "auto")
        data = report.to_dict()
        assert data["probes"] == report.probes == 2
        assert data["probe_io"] == report.probe_io
        assert report.probe_io["index_probes"] == 2
        assert report.probe_io["pages_read"] > 0
        assert report.probe_io["records_processed"] == 0
        assert set(data["rebound"]) == {"sel_R1", "sel_R2", "sel_R3"}
        assert data["rebound"]["sel_R2"][0] == DECLARED
        assert data["rebound"]["sel_R2"][2] == "probe"
        text = report.render()
        assert "rebound sel_R2: declared 0.02, observed" in text
        assert "2 index-only probe(s)" in text
        # The run's account covers the probes, and says how much they were.
        for key, value in report.probe_io.items():
            assert result.io_snapshot[key] >= value

    def test_rounding_noise_on_a_pinned_join_is_not_a_violation(self):
        """Both inputs of the build join are checkpoints, so its estimate
        is a fractional *point* an integer count can never equal."""
        workload, database, _, _ = _chain((0.0, 1.0))
        query = workload.query
        bindings = Bindings()
        for name, selectivity in zip(query.relations, (0.3, 0.4, 0.5)):
            predicate = query.selection_for(name)
            domain = workload.catalog.domain_size(name, SELECTION_ATTRIBUTE)
            bindings.bind(predicate.selectivity_parameter, selectivity)
            bindings.bind_variable(
                predicate.comparison.operand.name, selectivity * domain
            )

        def index_scan(name):
            return FilterBTreeScan(name, SELECTION_ATTRIBUTE, query.selection_for(name))

        first, second = query.join_predicates
        plan = HashJoin(
            HashJoin(index_scan("R1"), index_scan("R2"), first),
            Filter(FileScan("R3"), query.selection_for("R3")),
            second,
        )
        _, report = execute_midquery(
            plan, database, bindings, query.parameter_space, policy=ReoptPolicy("auto")
        )
        event = report.breakers[-1]
        assert event.kind == "hash_build"
        assert all(isinstance(side, Materialized) for side in event.operator.inputs())
        low, high = event.to_dict()["estimate"]
        assert low == high and low != int(low)  # reported unrounded
        assert floor(low) <= event.observed <= ceil(high)
        assert not event.estimate.contains(event.observed)
        assert not event.violated
        assert report.violations == report.redecisions == report.probes == 0

    @settings(max_examples=60, deadline=None)
    @given(
        relation=st.sampled_from(("R1", "R2", "R3")),
        op=st.sampled_from(list(ComparisonOp)),
        value=st.one_of(st.integers(-3, 1300), st.floats(-3.0, 1300.0)),
    )
    def test_probe_counts_what_the_filter_returns(self, relation, op, value):
        _, database, _, _ = _chain()
        attribute = "%s.%s" % (relation, SELECTION_ATTRIBUTE)
        predicate = SelectionPredicate(
            Comparison(attribute, op, UserVariable("v")), selectivity_parameter="s"
        )
        bindings = Bindings().bind_variable("v", value)
        io_stats = database.io_stats

        before = io_stats.snapshot()
        count = count_qualifying(database, predicate, bindings)
        probed = {key: io_stats.snapshot()[key] - before[key] for key in before}
        if op is ComparisonOp.NE:
            assert count is None and not any(probed.values())
            return
        filtered = execute_plan(
            Filter(FileScan(relation), predicate), database, bindings
        )
        assert count == filtered.row_count

        from repro.executor.vectorized import sargable_key_range

        def scan(low, high):
            before = io_stats.snapshot()
            for _ in database.btree(relation, attribute).range_scan(low, high):
                pass
            return {key: io_stats.snapshot()[key] - before[key] for key in before}

        low, high = sargable_key_range(predicate, bindings)
        scanned = scan(low, high)
        if (low is None) != (high is None):  # a half-open range: the shorter side
            scanned = min(scanned, scan(high, low), key=itemgetter("pages_read"))
        assert probed == scanned  # descent + leaves walked, no record

    def test_transient_fault_in_a_probe_is_retried_like_a_scans(self):
        workload, _, _, _ = _chain()
        bindings = _lying_bindings(workload, dict.fromkeys(("R1", "R2", "R3"), 0.6))
        clean = populate_database(Database(workload.catalog), seed=0)
        expected, report = _run_chain(bindings, "auto", clean)
        # One B-tree scan is drained, then the two probes run: the second
        # ``index_probe`` operation of the query is the first probe.
        assert [event.kind for event in report.breakers][:1] == ["btree_scan"]
        assert report.probes == 2
        profile = FaultProfile(
            "probe-fault", rules=(FaultRule("index_probe", at_operations=(2,), limit=1),)
        )

        faulty = populate_database(Database(workload.catalog), seed=0)
        injector = faulty.install_fault_injector(FaultInjector(profile, seed=0))
        with pytest.raises(TransientIOError) as excinfo:
            _run_chain(bindings, "auto", faulty)
        assert excinfo.value.site == "index_probe"
        assert injector.site_operations["index_probe"] == 2

        served = populate_database(Database(workload.catalog), seed=0)
        served.install_fault_injector(FaultInjector(profile, seed=0))
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_retries=3, base_delay=0.0, jitter=0.0),
            sleep=lambda _seconds: None,
        )
        with ShardedQueryService(
            served, shards=1, resilience_factory=lambda: policy
        ) as gateway:
            result = gateway.run(workload.query, bindings, reopt_policy="auto")
        assert rows_digest(result.execution.records) == rows_digest(expected.records)
        assert result.execution.midquery.probes == 2
        stats = gateway.stats().total
        counts = stats.resilience
        assert counts["transient_retries"] == 1
        assert counts["midquery_probes"] == 2
        assert counts["permanent_failures"] == counts["timeouts"] == 0
        assert stats.requests == 1


# ----------------------------------------------------------------------
# Start-up verification: a plan-cache entry remembers which declarations
# lied, and the next request counts them before it decides
# ----------------------------------------------------------------------


def _gateway(database=None, policy=None):
    """A one-shard gateway over the lie-matrix chain's data."""
    workload, stored, _, _ = _chain()
    return ShardedQueryService(
        database if database is not None else stored,
        shards=1,
        resilience_factory=None if policy is None else (lambda: policy),
    )


def _serve(gateway, liars, true):
    workload = _chain()[0]
    bindings = _lying_bindings(workload, dict.fromkeys(liars, true))
    return gateway.run(workload.query, bindings, reopt_policy="auto"), bindings


def _entry(gateway):
    (entry,) = gateway.shards[0].cache.entries()
    return entry


def _hot_join_database(fraction):
    """The chain's rows, except that the R1 and R2 rows whose selection
    attribute lies in the lowest ``fraction`` of its domain share join
    key 0: the rows ``R1.a < :v`` and ``R2.a < :v`` select join far more
    often than the estimate's independence assumption allows."""
    catalog = _chain()[0].catalog
    database = Database(catalog)
    for relation in catalog.relation_names():
        statistics = catalog.statistics(relation)
        hot = fraction * statistics.attribute(SELECTION_ATTRIBUTE).domain_size
        key = {"R1": "b", "R2": "c"}.get(relation)
        rows = []
        for row in generate_rows(catalog, relation, seed=0):
            if key is not None and row[SELECTION_ATTRIBUTE] < hot:
                row[key] = 0
            rows.append(row)
        database.load(relation, rows)
    return database


class TestStartupVerification:
    """Mark on a run's evidence, verify at start-up, settle."""

    def test_a_settled_request_runs_the_decided_plan_straight_through(self):
        workload, database, _, _ = _chain()
        with _gateway() as gateway:
            first, _ = _serve(gateway, ("R1", "R2", "R3"), 0.55)
            assert first.execution.midquery.switches == 1
            assert not first.execution.midquery.settled
            entry = _entry(gateway)
            assert set(entry.distrusted) == {"sel_R1", "sel_R2", "sel_R3"}
            assert "distrusted=['sel_R1', 'sel_R2', 'sel_R3']" in repr(entry)
            program = entry.decision
            assert program.read_set() is program.read_set()  # derived once
            assert set(program.read_set()) == {
                node.predicate.selectivity_parameter
                for node in program.plan.walk_unique()
                if isinstance(node, (Filter, FilterBTreeScan))
            }
            assert set(program.read_set()) == set(entry.distrusted)

            result, bindings = _serve(gateway, ("R1", "R2", "R3"), 0.3)
            counts = gateway.stats().total.resilience
        report = result.execution.midquery
        assert report.settled and report.to_dict()["settled"] is True
        assert "settled at start-up" in report.render()
        assert report.probes == 3
        assert report.checkpoints == report.redecisions == report.switches == 0
        assert {source for _, _, source in report.rebound.values()} == {"startup"}
        assert result.startup_report is report.startup
        assert result.chosen is report.final_plan
        assert report.final_plan.choose_plan_count() == 0
        expected = reference_rows(workload, database, bindings)
        assert rows_digest(result.execution.records) == rows_digest(expected)
        plain = execute_plan(
            report.final_plan, database, bindings, workload.query.parameter_space
        )
        assert _io_less_probes(result.execution, report) == plain.io_snapshot
        # g_i = d_i: the decision is the one the counted selectivities make.
        counted = bindings.copy()
        for name, (_, observed, _) in report.rebound.items():
            counted.bind(name, observed)
        assert report.choices == program.choose(counted)[1].choices
        assert counts["startup_verifications"] == counts["settled_requests"] == 1
        assert counts["midquery_probes"] == 2 + 3

    def test_settled_requests_reuse_the_entrys_chosen_plan_memo(self):
        """A settled start-up decision goes through the entry's
        chosen-plan memo: the second settled request with the same
        outcome runs the plan object the first one rebuilt."""
        liars = ("R1", "R2", "R3")
        with _gateway() as gateway:
            _serve(gateway, liars, 0.55)
            first, _ = _serve(gateway, liars, 0.3)
            second, _ = _serve(gateway, liars, 0.3)
            memo = _entry(gateway).chosen_memo
        one, two = first.execution.midquery, second.execution.midquery
        assert one.settled and two.settled
        assert two.final_plan is one.final_plan
        assert memo[tuple(one.startup.choices)] is one.final_plan

    def test_a_settled_request_runs_one_decision_pass(self, monkeypatch):
        """A settled ``auto`` request decides once, on its counts: the
        service skips the pass over the declared bindings, and the
        result's start-up report is the run's.  A first touch still
        decides on its declared bindings before any breaker."""
        passes = []
        evaluate = CompiledDecision.evaluate

        def counted(program, bindings, pins=None):
            passes.append(pins)
            return evaluate(program, bindings, pins)

        monkeypatch.setattr(CompiledDecision, "evaluate", counted)
        liars = ("R1", "R2", "R3")
        with _gateway() as gateway:
            first, _ = _serve(gateway, liars, 0.55)
            touched = len(passes)
            result, _ = _serve(gateway, liars, 0.3)
        opening = first.execution.midquery
        assert opening.startup is None and opening.redecisions >= 1
        assert first.startup_report is not None
        # The declared pass, then one pass per breaker re-decision.
        assert touched == 1 + opening.redecisions
        assert passes[0] is None
        report = result.execution.midquery
        assert report.settled and report.redecisions == 0
        assert len(passes) - touched == 1
        assert result.startup_report is report.startup
        assert result.startup_seconds == report.startup_seconds > 0.0

    @pytest.mark.parametrize("true", (0.3, 0.41, 0.55, 0.67, 0.8))
    def test_a_settled_plan_costs_its_hindsight_plus_its_counts(self, true):
        """A settled request runs the plan a run-time optimizer picks
        knowing the true selectivities, and pays that plan's I/O plus
        its index-only counts, nothing else: its regret is the probes."""
        workload, database, _, _ = _chain()
        query = workload.query
        liars = ("R1", "R2", "R3")
        with _gateway() as gateway:
            _serve(gateway, liars, 0.55)
            result, bindings = _serve(gateway, liars, true)
        report = result.execution.midquery
        assert report.settled
        truth = bindings.copy()
        for name in liars:
            truth.bind(query.selection_for(name).selectivity_parameter, true)
        hindsight = optimize_runtime(workload.catalog, query, truth).plan
        assert report.final_plan.digest() == hindsight.digest()
        run = execute_plan(hindsight, database, truth, query.parameter_space)
        # Equal I/O totals: equal simulated seconds, exactly.
        assert _io_less_probes(result.execution, report) == run.io_snapshot
        assert report.probe_io["pages_read"] > 0

    def test_breakers_and_startup_count_the_read_set_less_what_was_observed(self):
        """One probe rule: before deciding on observations, a breaker
        re-decision and a start-up verification on the same entry each
        count every selectivity the decisions read that nothing observed."""
        liars = ("R1", "R2", "R3")
        with _gateway() as gateway:
            first, _ = _serve(gateway, liars, 0.55)
            program = _entry(gateway).decision
            second, _ = _serve(gateway, liars, 0.3)
        reads = set(program.read_set())
        breaker, startup = first.execution.midquery, second.execution.midquery
        assert breaker.redecisions and startup.settled and not startup.checkpoints
        for report, source in ((breaker, "probe"), (startup, "startup")):
            sources = {name: entry[2] for name, entry in report.rebound.items()}
            drained = {name for name, how in sources.items() if how == "drain"}
            counted = {name for name, how in sources.items() if how == source}
            assert counted == reads - drained
            assert report.probes == len(counted)

    @pytest.mark.parametrize(
        "data, low, high", (("independent", 0.9, 1.0), ("hot join", 2.0, 3.0))
    )
    def test_what_settling_gives_up_on_a_correlated_join(self, data, low, high):
        """A settled request checks no join cardinality.  On independent
        data its plan beats the breaker path's; where the first join's
        inputs correlate, the breaker path sees the build side violate,
        switches a second time, and the settled plan costs 2-3x as much
        (simulated seconds of the final plans, summed over the range)."""
        workload, stored, _, _ = _chain()
        database = stored if data == "independent" else _hot_join_database(0.2)
        space = workload.query.parameter_space
        liars = ("R1", "R2", "R3")
        seconds = {"settled": 0.0, "breakers": 0.0}
        with _gateway(database) as gateway:
            _serve(gateway, liars, 0.55)
            program = _entry(gateway).decision
            for true in TRUE_SELECTIVITIES:
                result, bindings = _serve(gateway, liars, true)
                report = result.execution.midquery
                assert report.settled and report.checkpoints == 0
                old, old_report = execute_midquery(
                    program.plan,
                    database,
                    bindings,
                    space,
                    policy=ReoptPolicy("auto"),
                    choices=program.choose(bindings)[1].choices,
                    decision=program,
                )
                assert old_report.switches == (1 if data == "independent" else 2)
                expected = rows_digest(reference_rows(workload, database, bindings))
                assert rows_digest(result.execution.records) == expected
                assert rows_digest(old.records) == expected
                for name, plan in (
                    ("settled", report.final_plan),
                    ("breakers", strip_checkpoints(old_report.final_plan)),
                ):
                    run = execute_plan(plan, database, bindings, space)
                    seconds[name] += run.simulated_seconds()
        assert low < seconds["settled"] / seconds["breakers"] < high

    def test_one_liar_is_not_verified_and_keeps_its_breakers(self):
        """A distrusted set short of the read set cannot settle the run, so
        nothing is counted at start-up: the breaker path runs unchanged."""
        workload, database, _, _ = _chain()
        with _gateway() as gateway:
            _serve(gateway, ("R1",), 0.55)
            entry = _entry(gateway)
            assert set(entry.distrusted) == {"sel_R1"}
            result, bindings = _serve(gateway, ("R1",), 0.8)
            counts = gateway.stats().total.resilience
        report = result.execution.midquery
        assert not report.settled and report.startup is None
        assert report.rebound["sel_R1"][2] == "drain"
        assert report.breakers[0].violated and report.switches == 1
        expected = reference_rows(workload, database, bindings)
        assert rows_digest(result.execution.records) == rows_digest(expected)
        # Byte-identical to the same run handed no distrusted set.
        program = entry.decision
        plain, plain_report = execute_midquery(
            program.plan,
            database,
            bindings,
            workload.query.parameter_space,
            policy=ReoptPolicy("auto"),
            choices=program.choose(bindings)[1].choices,
            decision=program,
        )
        assert result.execution.io_snapshot == plain.io_snapshot
        assert report.to_dict()["rebound"] == plain_report.to_dict()["rebound"]
        assert counts["startup_verifications"] == counts["settled_requests"] == 0

    def test_always_never_counts_at_startup(self):
        workload, database, plan, program = _chain()
        bindings = _lying_bindings(workload, dict.fromkeys(("R1", "R2", "R3"), 0.55))
        _, report = execute_midquery(
            plan,
            database,
            bindings,
            workload.query.parameter_space,
            policy=ReoptPolicy("always"),
            choices=program.choose(bindings)[1].choices,
            decision=program,
            distrusted=program.read_set(),
        )
        assert report.startup is None and not report.settled
        assert "startup" not in {source for _, _, source in report.rebound.values()}
        assert report.redecisions == report.checkpoints > 0

    def test_a_count_inside_the_bounds_clears_the_mark(self):
        with _gateway() as gateway:
            _serve(gateway, ("R1", "R2", "R3"), 0.55)
            entry = _entry(gateway)
            marked = entry.distrusted
            assert set(marked) == {"sel_R1", "sel_R2", "sel_R3"}
            result, _ = _serve(gateway, (), DECLARED)
            report = result.execution.midquery
            assert report.settled
            for _, observed, source in report.rebound.values():
                assert source == "startup" and observed <= LIE_BOUNDS[1]
            assert entry.distrusted == {} and len(marked) == 3
            _serve(gateway, (), DECLARED)
            assert gateway.stats().total.resilience["startup_verifications"] == 1

    def test_truthful_traffic_never_probes(self):
        with _gateway() as gateway:
            for _ in range(50):
                _serve(gateway, (), DECLARED)
            counts = gateway.stats().total.resilience
            assert _entry(gateway).distrusted == {}
        assert counts["startup_verifications"] == counts["settled_requests"] == 0
        assert counts["midquery_probes"] == 0

    def test_lies_without_a_reopt_policy_mark_nothing(self):
        workload = _chain()[0]
        bindings = _lying_bindings(workload, dict.fromkeys(("R1", "R2", "R3"), 0.55))
        with _gateway() as gateway:
            for _ in range(3):
                gateway.run(workload.query, bindings)
            assert _entry(gateway).distrusted == {}
            assert gateway.stats().total.resilience["startup_verifications"] == 0

    @pytest.mark.parametrize(
        "name", ("point_serve", "join_exec", "wide_decide", "churn_compile")
    )
    def test_benchmark_workloads_without_a_policy_are_never_distrusted(self, name):
        from benchmarks.e2e import serve
        from benchmarks.e2e.workloads import (
            WORKLOADS,
            build_fixture,
            generate_stream,
            materialize,
        )

        spec = WORKLOADS[name]
        assert spec.reopt_policy is None
        fixture = build_fixture(spec)
        requests = materialize(fixture, generate_stream(spec, 7))[:60]
        with ShardedQueryService(
            fixture.database, shards=serve.SHARDS, capacity=spec.capacity
        ) as gateway:
            for request in requests:
                serve.serve(gateway, spec, request)
            entries = [
                entry
                for shard in gateway.shards
                for entry in shard.cache.entries()
            ]
            counts = gateway.stats().total.resilience
        assert entries and all(entry.distrusted == {} for entry in entries)
        assert counts["startup_verifications"] == counts["midquery_probes"] == 0

    def _first_request_injector(self):
        """The operations a first all-lying request makes, counted."""
        workload = _chain()[0]
        database = populate_database(Database(workload.catalog), seed=0)
        injector = database.install_fault_injector(
            FaultInjector(FaultProfile("none"), seed=0)
        )
        with _gateway(database) as gateway:
            _serve(gateway, ("R1", "R2", "R3"), 0.55)
        return injector

    def _index_probes_of_a_first_request(self):
        return self._first_request_injector().site_operations["index_probe"]

    def _faulty_gateway(self, profile, max_retries):
        workload = _chain()[0]
        database = populate_database(Database(workload.catalog), seed=0)
        injector = database.install_fault_injector(FaultInjector(profile, seed=0))
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_retries=max_retries, base_delay=0.0, jitter=0.0),
            sleep=lambda _seconds: None,
        )
        return _gateway(database, policy), database, injector

    def _count_fault(self, at_operation):
        return FaultProfile(
            "startup-count-fault",
            rules=(FaultRule("index_probe", at_operations=(at_operation,), limit=1),),
        )

    def test_a_transient_fault_in_a_startup_count_is_retried(self):
        first = self._index_probes_of_a_first_request()
        clean_database = populate_database(Database(_chain()[0].catalog), seed=0)
        with _gateway(clean_database) as clean:
            _serve(clean, ("R1", "R2", "R3"), 0.55)
            expected, _ = _serve(clean, ("R1", "R2", "R3"), 0.3)
        gateway, _, _ = self._faulty_gateway(self._count_fault(first + 1), 3)
        with gateway:
            _serve(gateway, ("R1", "R2", "R3"), 0.55)
            result, _ = _serve(gateway, ("R1", "R2", "R3"), 0.3)
            counts = gateway.stats().total.resilience
        assert counts["transient_retries"] == 1
        assert result.execution.midquery.settled
        assert rows_digest(result.execution.records) == rows_digest(
            expected.execution.records
        )
        assert result.execution.io_snapshot == expected.execution.io_snapshot

    def test_a_failed_attempt_leaves_the_marks_alone(self):
        # The third start-up count fails after two truthful counts that a
        # successful run would have used to clear their marks.
        first = self._index_probes_of_a_first_request()
        gateway, _, _ = self._faulty_gateway(self._count_fault(first + 3), 0)
        with gateway:
            _serve(gateway, ("R1", "R2", "R3"), 0.55)
            entry = _entry(gateway)
            marked = entry.distrusted
            with pytest.raises(ServiceExecutionError) as excinfo:
                _serve(gateway, (), DECLARED)
            assert isinstance(excinfo.value.cause, TransientIOError)
            assert entry.distrusted is marked and len(marked) == 3

    def test_a_memory_drop_in_a_settled_request_recounts_under_the_shrunk_grant(
        self,
    ):
        # The drop fires inside the second request's plan, after its counts.
        operations = self._first_request_injector().operations
        profile = FaultProfile(
            "settled-drop", memory_drops=(MemoryDropStage(operations + 100, 2),)
        )
        gateway, database, injector = self._faulty_gateway(profile, 0)
        liars = ("R1", "R2", "R3")
        with gateway:
            _serve(gateway, liars, 0.55)
            result, bindings = _serve(gateway, liars, 0.3)
            counts = gateway.stats().total.resilience
            program = _entry(gateway).decision
        assert injector.memory_drops_fired == 1
        assert counts["degradations"] == counts["incremental_redecisions"] == 1
        report = result.execution.midquery
        assert report.settled and report.probes == 3 and report.checkpoints == 0
        # Only the attempt that completed is folded into the counters.
        assert counts["startup_verifications"] == counts["settled_requests"] == 1
        assert counts["midquery_probes"] == 2 + 3
        workload = _chain()[0]
        expected = reference_rows(workload, database, bindings)
        assert rows_digest(result.execution.records) == rows_digest(expected)
        # The second attempt decided on its counts under the shrunk grant.
        counted = bindings.copy()
        for name, (_, observed, _) in report.rebound.items():
            counted.bind(name, observed)
        shrunk = counted.copy().bind(MEMORY_PARAMETER, 2)
        assert report.choices == program.choose(shrunk)[1].choices
        assert report.choices != program.choose(counted)[1].choices
        assert result.startup_report is report.startup

    def test_a_deadline_expiring_during_the_counts_times_out(self):
        workload, database, plan, program = _chain()
        bindings = _lying_bindings(workload, dict.fromkeys(("R1", "R2", "R3"), 0.55))
        before = database.io_stats.snapshot()["index_probes"]
        with pytest.raises(QueryTimeoutError):
            execute_midquery(
                plan,
                database,
                bindings,
                workload.query.parameter_space,
                policy=ReoptPolicy("auto"),
                deadline=Deadline(2, clock=CountingClock()),
                decision=program,
                distrusted=program.read_set(),
            )
        # The first count ran; the deadline stopped the second.
        assert database.io_stats.snapshot()["index_probes"] - before == 1

    def test_concurrent_requests_fold_marks_and_counts_exactly(self):
        workload, database, _, _ = _chain()
        liars = ("R1", "R2", "R3")
        cases = [
            _lying_bindings(workload, dict.fromkeys(liars, true))
            for true in TRUE_SELECTIVITIES
        ]
        expected = [
            rows_digest(reference_rows(workload, database, bindings))
            for bindings in cases
        ]
        results = []
        errors = []

        def client(index):
            try:
                for step in range(6):
                    case = (index + step) % len(cases)
                    served = gateway.run(
                        workload.query, cases[case], reopt_policy="auto"
                    )
                    results.append((case, served))
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _gateway() as gateway:
                threads = [
                    threading.Thread(target=client, args=(index,)) for index in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                counts = gateway.stats().total.resilience
                entry = _entry(gateway)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and len(results) == 48
        for case, served in results:
            assert rows_digest(served.execution.records) == expected[case]
        reports = [served.execution.midquery for _, served in results]
        assert set(entry.distrusted) == {"sel_R1", "sel_R2", "sel_R3"}
        assert counts["startup_verifications"] == sum(
            report.startup is not None for report in reports
        )
        assert counts["settled_requests"] == sum(report.settled for report in reports)
        assert counts["midquery_probes"] == sum(report.probes for report in reports)
        assert counts["settled_requests"] >= 48 - 8
