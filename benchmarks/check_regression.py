"""Gate benchmark results against committed baselines.

``python benchmarks/check_regression.py`` compares every metric in
``benchmarks/results/*.json`` (fresh numbers from a bench run) against
the committed snapshots in ``benchmarks/baselines/*.json`` and fails —
exit status 1 — when any metric is *worse* than its baseline by more
than the tolerance (default ±25%).

Direction is the record's own ``better`` key (``"lower"`` or
``"higher"``) when it has one — an overhead is a ``fraction`` that
should fall, unlike a hit rate — and is otherwise inferred from the
unit:

* ``s``, ``us`` — latency: lower is better, a regression is an increase;
* ``records/s``, ``requests/s``, ``x``, ``fraction`` — throughput,
  speedup, hit rate: higher is better, a regression is a decrease.

Only regressions fail the gate.  Improvements beyond tolerance are
reported (they mean the committed baseline is stale and should be
refreshed, so future regressions are caught from the new level) but do
not fail.  Metrics present in results but absent from the baseline are
reported as new and pass — adding a benchmark must not require
hand-editing baselines in the same change that introduces it.  A
baseline *file* with no matching results file fails: that means CI
stopped running a bench whose floor we committed.

The before/after table is printed as GitHub-flavoured markdown and,
when ``GITHUB_STEP_SUMMARY`` is set, appended to the job summary.

Options::

    --tolerance FRACTION   allowed relative change (default 0.25, or
                           the REPRO_BENCH_TOLERANCE environment
                           variable when set)
    --results DIR          results directory (default benchmarks/results)
    --baselines DIR        baselines directory (default
                           benchmarks/baselines)

To refresh baselines after an intentional perf change::

    cp benchmarks/results/*.json benchmarks/baselines/
"""

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).parent

#: Units where a smaller value is an improvement.
LOWER_IS_BETTER = frozenset(("s", "us"))

#: Units where a larger value is an improvement.
HIGHER_IS_BETTER = frozenset(("records/s", "requests/s", "x", "fraction"))

DEFAULT_TOLERANCE = 0.25

#: Keys every record must carry for the comparison to be meaningful.
REQUIRED_RECORD_KEYS = ("name", "metric", "value", "unit")

#: Values of a record's optional ``better`` key.
DIRECTIONS = ("lower", "higher")


class MalformedRecordError(ValueError):
    """A results/baseline file the gate cannot compare.

    Raised with a message naming the file, the record, and the missing
    or mistyped key — a hand-edited baseline must fail the gate with a
    diagnosis, never with a bare ``KeyError`` traceback.
    """


def load_records(path):
    """``{(name, metric): record}`` from one results/baseline file."""
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise MalformedRecordError(
            "%s is not valid JSON: %s" % (path.name, error)
        ) from error
    if not isinstance(records, list):
        raise MalformedRecordError(
            "%s: expected a JSON list of benchmark records, got %s"
            % (path.name, type(records).__name__)
        )
    loaded = {}
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise MalformedRecordError(
                "%s: record %d is %s, not an object"
                % (path.name, index, type(record).__name__)
            )
        missing = [key for key in REQUIRED_RECORD_KEYS if key not in record]
        if missing:
            raise MalformedRecordError(
                "%s: record %d (%r) is missing key(s) %s — every "
                "benchmark record needs name, metric, value, and unit"
                % (path.name, index, record.get("name", record),
                   ", ".join(missing))
            )
        value = record["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedRecordError(
                "%s: record %d (%s/%s) has non-numeric value %r"
                % (path.name, index, record["name"], record["metric"], value)
            )
        if record.get("better", "lower") not in DIRECTIONS:
            raise MalformedRecordError(
                "%s: record %d (%s/%s) has better=%r, not one of %s"
                % (path.name, index, record["name"], record["metric"],
                   record["better"], ", ".join(DIRECTIONS))
            )
        loaded[(record["name"], record["metric"])] = record
    return loaded


def relative_change(current, baseline):
    """Signed relative change, positive meaning the value went up."""
    if baseline == 0:
        return 0.0 if current == 0 else float("inf")
    return (current - baseline) / abs(baseline)


def classify(record, baseline_value, tolerance):
    """``(status, change)`` for one metric vs its baseline value.

    Status is ``ok``, ``regression``, or ``improvement``; ``change`` is
    the signed relative change.  A record without a ``better`` key whose
    unit is outside the two known direction sets is compared
    symmetrically: any drift beyond tolerance is a regression, because
    we cannot tell which direction is good.
    """
    change = relative_change(record["value"], baseline_value)
    unit = record["unit"]
    direction = record.get("better")
    if direction == "lower" or (direction is None and unit in LOWER_IS_BETTER):
        worse, better = change > tolerance, change < -tolerance
    elif direction == "higher" or unit in HIGHER_IS_BETTER:
        worse, better = change < -tolerance, change > tolerance
    else:
        worse, better = abs(change) > tolerance, False
    if worse:
        return "regression", change
    if better:
        return "improvement", change
    return "ok", change


def compare(results_dir, baselines_dir, tolerance):
    """``(rows, failures)``: table rows and hard-failure messages."""
    rows = []
    failures = []
    baseline_files = sorted(baselines_dir.glob("*.json"))
    if not baseline_files:
        failures.append("no baseline files in %s" % baselines_dir)
    for baseline_path in baseline_files:
        results_path = results_dir / baseline_path.name
        if not results_path.exists():
            failures.append(
                "baseline %s has no matching results file — did the "
                "bench stop running?" % baseline_path.name
            )
            continue
        try:
            baseline = load_records(baseline_path)
            results = load_records(results_path)
        except MalformedRecordError as error:
            failures.append(str(error))
            continue
        for key in sorted(set(baseline) | set(results)):
            name, metric = key
            if key not in results:
                failures.append(
                    "%s: metric %s/%s present in baseline but missing "
                    "from results" % (baseline_path.name, name, metric)
                )
                continue
            record = results[key]
            if key not in baseline:
                rows.append(
                    (name, metric, record["unit"], None,
                     record["value"], None, "new")
                )
                continue
            base_value = baseline[key]["value"]
            status, change = classify(record, base_value, tolerance)
            rows.append(
                (name, metric, record["unit"], base_value,
                 record["value"], change, status)
            )
            if status == "regression":
                failures.append(
                    "%s/%s regressed: %.6g -> %.6g (%+.1f%%, unit %s, "
                    "tolerance ±%.0f%%)"
                    % (name, metric, base_value, record["value"],
                       change * 100.0, record["unit"], tolerance * 100.0)
                )
    return rows, failures


def render_markdown(rows, tolerance):
    """The before/after comparison as a GitHub-flavoured markdown table."""
    status_marks = {
        "ok": "✅ ok",
        "improvement": "🚀 improved",
        "regression": "❌ regression",
        "new": "🆕 new",
    }
    lines = [
        "### Benchmark regression check (tolerance ±%.0f%%)"
        % (tolerance * 100.0),
        "",
        "| benchmark | metric | unit | baseline | current | change | "
        "status |",
        "| --- | --- | --- | ---: | ---: | ---: | --- |",
    ]
    for name, metric, unit, base, current, change, status in rows:
        lines.append(
            "| %s | %s | %s | %s | %.6g | %s | %s |"
            % (
                name,
                metric,
                unit,
                "—" if base is None else "%.6g" % base,
                current,
                "—" if change is None else "%+.1f%%" % (change * 100.0),
                status_marks[status],
            )
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare benchmark results against committed "
        "baselines and fail on regression."
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(
            os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE)
        ),
        help="allowed relative change before a metric counts as a "
        "regression (default %(default)s)",
    )
    parser.add_argument(
        "--results", type=pathlib.Path, default=HERE / "results",
        help="directory holding fresh bench results "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--baselines", type=pathlib.Path, default=HERE / "baselines",
        help="directory holding committed baselines "
        "(default %(default)s)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")

    rows, failures = compare(args.results, args.baselines, args.tolerance)
    table = render_markdown(rows, args.tolerance)
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(table + "\n")

    if failures:
        print()
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print()
    print(
        "all %d metrics within ±%.0f%% of baseline"
        % (len(rows), args.tolerance * 100.0)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
