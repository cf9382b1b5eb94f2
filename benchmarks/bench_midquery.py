"""Mid-query re-optimization: splice over checkpoints vs restart.

The scenario is the one the mechanism exists for: *skewed* bindings
declare one selectivity while the data behaves like another, so the
start-up decision commits to a plan that is wrong at run time, and the
divergence only becomes visible when a pipeline breaker materializes
its true cardinality.  Three arms execute each query over identical
data:

* ``no_reopt`` — plain execution of the start-up plan (what the
  library did before this module existed);
* ``restart``  — re-decide at every breaker, but on a switch throw the
  checkpoints away and re-execute the new plan from scratch (the
  classic re-optimization strategy, and the baseline to beat); derived
  exactly from the splice run, see :func:`_restart_arm`;
* ``splice``   — re-decide at every breaker and continue over the
  materialized checkpoints, paying only the undrained remainder.

Three scenarios are the paper's queries 3-5 with the maximally
uncertain [0, 1] bounds; the fourth is the one ``reopt_policy="auto"``
exists for (the repo benchmark's ``skew_reopt``): a 3-way chain whose
predicates are *bounded* to [0, 0.1], so the first drained scan leaves
its interval and the re-decision counts the other predicates in their
B-trees before it switches anything.

The gated quantity is deterministic simulated time (pages and records
folded with the library's machine constants, index-only probes
included), so the committed baseline is exact and drift-free.
Acceptance bars: every scenario must actually switch plans, splice must
beat restart on every scenario, on at least one scenario splice must
beat even the never-reoptimizing arm — adapting mid-flight recovers
more than the checkpoint drains cost — and on the bounded scenario it
must not lose to it: a re-optimizer that loses to doing nothing is a
bug.

One wall-clock record rides along per scenario,
``redecision_us_per_pass``: the splice arm's ``decision_seconds /
redecisions`` with the plan's decision program compiled beforehand, so
it is the cost of a re-decision pass and nothing else.  It is printed,
not gated: the committed baseline leaves it out, because on a shared
machine it moved by more than the gate's tolerance on unchanged code.
Two exact counts pin the same work instead: ``steps_per_redecision``,
the decision-program steps the splice arm ran over its re-decisions
(the opening decision included, as in the wall record; every pass runs
the whole program; ``better: lower``), and ``probes``, the index-only
counts it ran before deciding.
"""

from conftest import write_and_print, write_json_results

from repro import (
    Database,
    execute_plan,
    optimize_dynamic,
    paper_workload,
    populate_database,
)
from repro.executor.decision import CompiledDecision
from repro.executor.engine import ExecutionResult
from repro.executor.midquery import ReoptPolicy, execute_midquery, strip_checkpoints
from repro.cost.parameters import Bindings
from repro.resilience.chaos import rows_digest
from repro.workloads import make_join_workload, skewed_bindings
from repro.workloads.queries import SELECTION_ATTRIBUTE

#: Data-population seed (shared with the chaos harness).
DATA_SEED = 11

#: (query number, declared selectivity, actual selectivity).
SCENARIOS = ((3, 0.02, 0.6), (4, 0.02, 0.6), (5, 0.02, 0.6))

#: The bounded scenario: ``(relations, selectivity bounds, data seed)``
#: — ``benchmarks/e2e``'s ``skew_reopt`` fixture — at the declared and
#: actual selectivities of ``SCENARIOS``.
BOUNDED = (3, (0.0, 0.1), 0)

#: Splice must beat restart by at least this factor on every scenario.
MIN_SWITCH_SPEEDUP = 1.1

#: Runs behind each wall-clock record.  The fastest is kept: a noisy
#: neighbour can only add time to a pass.
TIMING_REPEATS = 5


def _paper_scenario(number, declared, actual):
    workload = paper_workload(number, memory_uncertain=True)
    bindings = skewed_bindings(workload, declared=declared, actual=actual)
    return workload, bindings, DATA_SEED


def _bounded_scenario(declared, actual):
    """``skewed_bindings`` clamps the lie into the bounds; this one does
    not — the data leaves the interval the optimizer was promised."""
    relations, bounds, data_seed = BOUNDED
    workload = make_join_workload(
        relations, selectivity_bounds=bounds, name="chain%d-bounded" % relations
    )
    bindings = Bindings()
    for name in workload.query.relations:
        predicate = workload.query.selection_for(name)
        domain = workload.catalog.domain_size(name, SELECTION_ATTRIBUTE)
        bindings.bind(predicate.selectivity_parameter, declared)
        bindings.bind_variable(predicate.comparison.operand.name, actual * domain)
    return workload, bindings, data_seed


def _restart_arm(spliced, final_plan, database, bindings, space):
    """The ``restart`` arm, derived from the splice run: the same drains
    and re-decisions, then the final plan re-executed from scratch.

    Its I/O is ``splice - tail + full``: ``tail`` executes the final plan
    over its checkpoints (a replay charges nothing, so this is the
    splice run's last step) and ``full`` executes it with the
    checkpoints stripped.
    """

    def run(plan):
        return execute_plan(plan, database, bindings.copy(), space)

    tail = run(final_plan)
    full = run(strip_checkpoints(final_plan))
    io = {
        key: spliced.io_snapshot[key] - tail.io_snapshot[key] + full.io_snapshot[key]
        for key in spliced.io_snapshot
    }
    return ExecutionResult(full.records, io, full.decisions, 0.0)


def _measure_scenario(workload, bindings, data_seed):
    """Simulated seconds of the three arms on one skewed query."""
    plan = optimize_dynamic(workload.catalog, workload.query).plan
    space = workload.query.parameter_space

    def fresh_database():
        database = Database(workload.catalog)
        populate_database(database, seed=data_seed)
        return database

    plain = execute_plan(plan, fresh_database(), bindings.copy(), space)
    spliced, splice_report = execute_midquery(
        plan,
        fresh_database(),
        bindings.copy(),
        space,
        policy=ReoptPolicy("always"),
    )
    restarted = _restart_arm(
        spliced, splice_report.final_plan, fresh_database(), bindings, space
    )

    digest = rows_digest(plain.records)
    assert rows_digest(restarted.records) == digest
    assert rows_digest(spliced.records) == digest

    program = CompiledDecision(plan, workload.catalog, space)
    pass_seconds = []
    for _ in range(TIMING_REPEATS):
        _, timed = execute_midquery(
            plan,
            fresh_database(),
            bindings.copy(),
            space,
            policy=ReoptPolicy("always"),
            decision=program,
        )
        assert timed.switches == splice_report.switches
        pass_seconds.append(timed.decision_seconds / timed.redecisions)

    return {
        "query": workload.name,
        "rows": plain.row_count,
        "switches": splice_report.switches,
        "no_reopt_seconds": plain.simulated_seconds(),
        "restart_seconds": restarted.simulated_seconds(),
        "splice_seconds": spliced.simulated_seconds(),
        "redecision_us_per_pass": 1e6 * min(pass_seconds),
        "steps_per_redecision": splice_report.cost_evaluations
        / splice_report.redecisions,
        "probes": splice_report.probes,
    }


def render_table(measurements):
    """The three-arm comparison table as printable text."""
    lines = [
        "mid-query re-optimization under skewed cardinalities "
        "(simulated seconds, declared=%.2f actual=%.2f)"
        % (SCENARIOS[0][1], SCENARIOS[0][2]),
        "",
        "  %-14s %6s %9s %12s %12s %12s %9s %9s"
        % (
            "query",
            "rows",
            "switches",
            "no-reopt",
            "restart",
            "splice",
            "vs-rst",
            "vs-none",
        ),
    ]
    for m in measurements:
        lines.append(
            "  %-14s %6d %9d %12.4f %12.4f %12.4f %8.2fx %8.2fx"
            % (
                m["query"],
                m["rows"],
                m["switches"],
                m["no_reopt_seconds"],
                m["restart_seconds"],
                m["splice_seconds"],
                m["restart_seconds"] / m["splice_seconds"],
                m["no_reopt_seconds"] / m["splice_seconds"],
            )
        )
    return "\n".join(lines)


def test_midquery_switch_beats_restart(results_dir):
    measurements = [
        _measure_scenario(*_paper_scenario(*scenario)) for scenario in SCENARIOS
    ]
    bounded = _measure_scenario(*_bounded_scenario(*SCENARIOS[0][1:]))
    measurements.append(bounded)

    write_and_print(results_dir, "midquery", render_table(measurements))
    records = []
    for m in measurements:
        for metric, value, unit in (
            ("no_reopt_simulated", m["no_reopt_seconds"], "s"),
            ("restart_simulated", m["restart_seconds"], "s"),
            ("splice_simulated", m["splice_seconds"], "s"),
            (
                "switch_speedup",
                m["restart_seconds"] / m["splice_seconds"],
                "x",
            ),
            (
                "adaptivity_speedup",
                m["no_reopt_seconds"] / m["splice_seconds"],
                "x",
            ),
            ("redecision_us_per_pass", m["redecision_us_per_pass"], "us"),
            ("steps_per_redecision", m["steps_per_redecision"], "count"),
            ("probes", m["probes"], "count"),
        ):
            record = {
                "name": "midquery_%s" % m["query"],
                "metric": metric,
                "value": value,
                "unit": unit,
            }
            if metric == "steps_per_redecision":
                record["better"] = "lower"
            records.append(record)
    write_json_results(results_dir, "midquery", records)

    for m in measurements:
        assert m["switches"] >= 1, (
            "%s: the skewed bindings forced no plan switch" % m["query"]
        )
        speedup = m["restart_seconds"] / m["splice_seconds"]
        assert speedup >= MIN_SWITCH_SPEEDUP, (
            "%s: splicing over checkpoints is only %.2fx the restart "
            "strategy (bar: %.1fx)" % (m["query"], speedup, MIN_SWITCH_SPEEDUP)
        )
    assert any(
        m["splice_seconds"] < m["no_reopt_seconds"] for m in measurements
    ), (
        "no scenario where mid-query switching beats the start-up plan "
        "outright: %r" % measurements
    )
    assert bounded["splice_seconds"] <= bounded["no_reopt_seconds"], (
        "%s: re-optimizing on a violated bound loses to never re-optimizing: %r"
        % (bounded["query"], bounded)
    )
