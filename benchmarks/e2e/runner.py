"""Running workloads, printing metrics, the full set and ``selfcheck``."""

import json
import os
import pathlib
import platform
import subprocess
import sys

from benchmarks.e2e import PACKAGE_DIR, REPO_ROOT, metrics
from benchmarks.e2e.workloads import WORKLOADS

#: The second seed ``selfcheck`` uses to prove the seed is an argument.
OTHER_SEED_OFFSET = 1


def machine_facts():
    """Where the numbers were taken: recorded beside them."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
    }


def print_metrics(workload, values, units, samples, bounds):
    """One line per metric: name, unit, value, sample count, bound."""
    for name, value in values.items():
        bound = bounds.get(name)
        print(
            "%-14s %-40s %16.6f %-6s n=%-7s bound=%s"
            % (
                workload,
                name,
                value,
                units[name],
                samples.get(name, "-"),
                "-" if bound is None else "%g%%" % (100 * bound),
            )
        )


def run_one(workload, seed, seconds, trace, out_dir):
    """One workload in this process; prints the contract's result line."""
    if workload not in WORKLOADS:
        print("unknown workload %r (have: %s)" % (workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    spec = WORKLOADS[workload]
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if trace:
        from benchmarks.e2e.layers import run_traced

        outcome = run_traced(spec, seed, out / ("trace-%s.json" % workload))
        units, bounds = metrics.per_layer_units(), {}
    else:
        from benchmarks.e2e.serve import run_untraced

        outcome = run_untraced(spec, seed, seconds)
        units, bounds = metrics.end_to_end_units(), metrics.end_to_end_bounds()

    print_metrics(workload, outcome["values"], units, outcome["samples"], bounds)
    for problem in outcome["problems"]:
        print("FAILED %s: %s" % (workload, problem))
    document = {
        "workload": workload,
        "why": spec.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "problems": outcome["problems"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome["values"].items()
        },
        "samples": outcome["samples"],
        "facts": outcome["facts"],
    }
    name = "%s-%s.json" % ("layers" if trace else "e2e", workload)
    with open(out / name, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": document["metrics"],
            }
        )
    )
    return 0 if outcome["failed"] == 0 else 1


def _spawn(workload, seed, seconds, trace, out_dir):
    """One workload in a fresh subprocess; returns its result document."""
    completed = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--out", str(out_dir),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    lines = completed.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if completed.returncode not in (0, 1) or not lines:
        sys.stderr.write(completed.stderr)
        raise RuntimeError("workload %s exited %d" % (workload, completed.returncode))
    return json.loads(lines[-1])


def run_set(seed, seconds, trace, out_dir):
    """Every workload, one subprocess each: ``{workload: result}``."""
    return {
        workload: _spawn(workload, seed, seconds, trace, out_dir)
        for workload in WORKLOADS
    }


def run_all(seed, seconds, trace, out_dir):
    """The full set; writes and prints one summary JSON document."""
    results = run_set(seed, seconds, trace, out_dir)
    summary = {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_facts(),
        "workloads": results,
    }
    out = pathlib.Path(out_dir)
    with open(out / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(result["correct"] for result in results.values()) else 1


def _apart(first, second):
    """How far apart two values are, as a share of the lower."""
    low, high = sorted((first, second))
    return (high - low) / low if low else float(high != low)


def selfcheck(seed, seconds, out_dir):
    """Tests, then two full sets with one seed must agree; see README."""
    failures = []
    tests = subprocess.run(
        [
            sys.executable, "-m", "pytest", str(PACKAGE_DIR / "tests"),
            "-q", "-p", "no:cacheprovider", "--confcutdir", str(PACKAGE_DIR),
        ],
        cwd=REPO_ROOT,
    )
    if tests.returncode != 0:
        failures.append("benchmarks/e2e/tests failed")

    for trace, definitions in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        first = run_set(seed, seconds, trace, out_dir)
        second = run_set(seed, seconds, trace, out_dir)
        bounds = metrics.end_to_end_bounds() if not trace else {}
        for workload in WORKLOADS:
            for result in (first[workload], second[workload]):
                if not result["correct"]:
                    failures.append("%s: %d failed" % (workload, result["failed"]))
            for definition in definitions:
                name = definition[0]
                one = first[workload]["metrics"][name]["value"]
                two = second[workload]["metrics"][name]["value"]
                if name in metrics.EXACT:
                    if one != two:
                        failures.append(
                            "%s %s is not exact: %r vs %r" % (workload, name, one, two)
                        )
                elif name in bounds and _apart(one, two) > bounds[name]:
                    failures.append(
                        "%s %s differs by more than its bound %g: %r vs %r"
                        % (workload, name, bounds[name], one, two)
                    )

    digests = []
    for other in (seed, seed + OTHER_SEED_OFFSET):
        _spawn("point_serve", other, seconds, 0, out_dir)
        with open(pathlib.Path(out_dir) / "e2e-point_serve.json", encoding="utf-8") as handle:
            digests.append(json.load(handle)["facts"]["stream_digest"])
    if digests[0] == digests[1]:
        failures.append("stream digest did not change with the seed")

    for failure in failures:
        print("SELFCHECK FAILED: %s" % failure)
    print("selfcheck: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0
