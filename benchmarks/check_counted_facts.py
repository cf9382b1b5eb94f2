"""Check the repo benchmark's counted facts against their committed values.

A counted gate, not a wall-clock one: for the seed in
``benchmarks/counted_facts.json`` each pass over a workload's stream
returns the same rows, and its first pass charges the same simulated
I/O, however fast the engine runs.  A change that moves either changed
what the plans do.  The script runs each workload untraced through
``python3 -m benchmarks.e2e`` and compares its result's
``facts["rows_per_pass"]`` and ``facts["first_pass_io"]`` with the
committed values; every value must be equal.  Every run must also fail
no request, and a workload with a committed ``max_plan_regret_ratio``
must read its ``plan_regret_ratio`` metric at or below it (a counted
ratio too: simulated cost served over the hindsight plans').

A workload with a committed ``gateway_pass`` is also served once,
in-process, by one fresh gateway of that many shards and that plan-cache
capacity, and what the gateway itself counts must equal the committed
values: its decision compiles (optimizer runs), shared compiles and
drift invalidations, the rows it returned, and how many live entries
that re-bind another shape's optimizer run hold that run's plan object
and program segments (``no_copy``) or a copy of their own (``copies``).

Run from the repository root, with no arguments::

    python3 benchmarks/check_counted_facts.py

Every workload in the table is checked, each in a temporary directory.
Exit status 1 when any value differs or a run fails.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).parent
REPO_ROOT = HERE.parent
FACTS = HERE / "counted_facts.json"
#: The facts compared exactly; a workload's ``note`` only explains its
#: values, and ``max_plan_regret_ratio`` is an upper bound.
CHECKED = ("rows_per_pass", "first_pass_io")


def _run(workload, seed, seconds, out_dir):
    """Run one workload untraced; True when it exited 0."""
    completed = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
            "--out", str(out_dir),
        ],
        cwd=REPO_ROOT,
    )
    return completed.returncode == 0


def check(workloads, committed, results):
    """``(workload, problem)`` pairs for the result files under
    ``results`` that disagree with ``committed``."""
    problems = []
    for workload in workloads:
        path = pathlib.Path(results) / ("e2e-%s.json" % workload)
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            problems.append((workload, "no result: %s" % error))
            continue
        expected = committed["workloads"][workload]
        read = {name: document["facts"].get(name) for name in CHECKED}
        wanted = {name: expected[name] for name in CHECKED}
        if read != wanted:
            problems.append((workload, "read %r, committed %r" % (read, wanted)))
        if document.get("failed") != 0:
            problems.append((workload, "failed %r requests" % document.get("failed")))
        bound = expected.get("max_plan_regret_ratio")
        if bound is not None:
            regret = document["metrics"]["plan_regret_ratio"]["value"]
            if not regret <= bound:
                problems.append(
                    (workload, "plan_regret_ratio %r above %r" % (regret, bound))
                )
    return problems


def gateway_pass(workload, seed, shards, capacity):
    """What one fresh gateway counts serving ``workload``'s stream
    once (see the module docstring), as a dict."""
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from benchmarks.e2e.workloads import (
        WORKLOADS,
        build_fixture,
        generate_stream,
        materialize,
    )
    from repro.service.sharding import ShardedQueryService

    spec = WORKLOADS[workload]
    fixture = build_fixture(spec)
    requests = materialize(fixture, generate_stream(spec, seed))
    rows = 0
    with ShardedQueryService(
        fixture.database, shards=shards, capacity=capacity
    ) as gateway:
        for request in requests:
            result = gateway.run(
                request.query, request.bindings, tag=request.tag, tenant=request.tenant
            )
            rows += result.execution.row_count
        total = gateway.stats().total
        shared = [
            entry
            for shard in gateway.shards
            for entry in shard.cache.entries()
            if entry.compiled_from is not None
        ]
        copies = sum(
            entry.plan is not entry.compiled_from.plan
            or entry.decision._segments is not entry.compiled_from.decision._segments
            for entry in shared
        )
    return {
        "decision_compiles": total.resilience["decision_compiles"],
        "shared_compiles": total.resilience["shared_compiles"],
        "invalidations": total.cache["invalidations"],
        "rows": rows,
        "no_copy": len(shared),
        "copies": copies,
    }


def check_gateway_passes(workloads, committed):
    """``(workload, problem)`` pairs for the committed ``gateway_pass``
    facts a fresh gateway does not reproduce."""
    problems = []
    for workload in workloads:
        expected = committed["workloads"][workload].get("gateway_pass")
        if expected is None:
            continue
        read = gateway_pass(
            workload, committed["seed"], expected["shards"], expected["capacity"]
        )
        if read != expected["counts"]:
            problems.append(
                (workload, "gateway pass read %r, committed %r"
                 % (read, expected["counts"]))
            )
    return problems


def main():
    with open(FACTS, encoding="utf-8") as handle:
        committed = json.load(handle)
    workloads = sorted(committed["workloads"])

    with tempfile.TemporaryDirectory() as results:
        problems = [
            (workload, "benchmark run failed")
            for workload in workloads
            if not _run(workload, committed["seed"], committed["seconds"], results)
        ]
        problems += check(workloads, committed, results)
    problems += check_gateway_passes(workloads, committed)
    for workload, problem in problems:
        print("FAILED %s: %s" % (workload, problem))
    if not problems:
        print("counted facts: %d workload(s) match %s"
              % (len(workloads), FACTS.name))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
