"""Command line of the end-to-end benchmark.

``python3 -m benchmarks.e2e --workload NAME --seed N --seconds S --trace 0|1``
    one workload in this process (the form ``BENCHMARK.json`` names);
    the last line printed is the result as one JSON object.
``python3 -m benchmarks.e2e [--seed N] [--seconds S] [--trace 0|1]``
    the full set, one fresh subprocess per workload.
``python3 -m benchmarks.e2e selfcheck [--seed N]``
    the benchmark's own tests, then the full set twice with one seed.

Outputs go under ``--out`` (default ``benchmarks/e2e/out/``) only.
"""

import argparse
import json
import sys

from benchmarks.e2e import PACKAGE_DIR, REPO_ROOT


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    parser.add_argument("command", nargs="?", choices=("selfcheck",))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(PACKAGE_DIR / "out"))
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(
            "benchmarks.e2e: no program to measure (src/repro is missing under %s)"
            % REPO_ROOT,
            file=sys.stderr,
        )
        return 2

    from benchmarks.e2e import runner

    if args.seconds is None:
        with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]
    if args.command == "selfcheck":
        return runner.selfcheck(args.seed, args.seconds, args.out)
    if args.workload is None:
        return runner.run_all(args.seed, args.seconds, args.trace, args.out)
    return runner.run_one(
        args.workload, args.seed, args.seconds, args.trace, args.out
    )


if __name__ == "__main__":
    sys.exit(main())
