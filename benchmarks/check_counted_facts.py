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
    for workload, problem in problems:
        print("FAILED %s: %s" % (workload, problem))
    if not problems:
        print("counted facts: %d workload(s) match %s"
              % (len(workloads), FACTS.name))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
