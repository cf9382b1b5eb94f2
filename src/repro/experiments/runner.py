"""One-shot runner for the complete reproduced evaluation.

``python -m repro.experiments.runner [N] [--csv DIR] [--accuracy]``
optimizes the five paper queries in all three scenarios (with and
without memory uncertainty), regenerates Figures 3-8 and Table 1,
prints the report, and optionally writes one CSV per figure into DIR
(for external plotting tools).  ``--accuracy``
appends the cost-model accuracy report (per-operator q-error
distributions from a traced replay of the five queries; see
:mod:`repro.observability.accuracy`).
"""

import argparse
import os
import sys

from repro.experiments.figures import (
    ExperimentContext,
    figure3_scenarios,
    figure4_execution_times,
    figure5_optimization_times,
    figure6_plan_sizes,
    figure7_startup_times,
    figure8_runtime_vs_dynamic,
    table1_algebra,
)
from repro.experiments.report import render_report
from repro.experiments.results import ExperimentSettings


def run_all_experiments(settings=None):
    """Compute every figure; returns ``(figures, table1, settings)``."""
    if settings is None:
        settings = ExperimentSettings()
    context = ExperimentContext(settings)
    figures = [
        figure3_scenarios(context),
        figure4_execution_times(context),
        figure5_optimization_times(context),
        figure6_plan_sizes(context),
        figure7_startup_times(context),
        figure8_runtime_vs_dynamic(context),
    ]
    return figures, table1_algebra(), settings


def write_csvs(figures, directory):
    """Write one CSV per figure into ``directory``; returns the paths."""
    from repro.experiments.report import figure_to_csv

    os.makedirs(directory, exist_ok=True)
    paths = []
    for figure in figures:
        path = os.path.join(directory, "%s.csv" % figure.figure_id)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(figure_to_csv(figure))
        paths.append(path)
    return paths


PARSER = argparse.ArgumentParser(
    prog="python -m repro experiments",
    description="Regenerate the paper's evaluation: Table 1 and "
    "Figures 3-8.",
    exit_on_error=False,
)
PARSER.add_argument(
    "invocations",
    nargs="?",
    type=int,
    default=100,
    help="invocations per query (default 100)",
)
PARSER.add_argument(
    "--csv", metavar="DIR", help="also write one CSV per figure into DIR"
)
PARSER.add_argument(
    "--accuracy",
    action="store_true",
    help="append the cost-model accuracy report",
)


def run(args):
    """Run the evaluation :data:`PARSER` describes; the exit code."""
    settings = ExperimentSettings(invocations=args.invocations)
    figures, table1, settings = run_all_experiments(settings)
    print(render_report(figures, table1, settings))
    if args.accuracy:
        from repro.observability.accuracy import cost_model_accuracy

        report = cost_model_accuracy(seed=settings.seed)
        print()
        print(report.render())
    if args.csv is not None:
        for path in write_csvs(figures, args.csv):
            print("wrote %s" % path)
    return 0


def main(argv=None):
    """CLI entry: ``[N] [--csv DIR] [--accuracy]``; the exit code."""
    try:
        args = PARSER.parse_args(argv)
    except argparse.ArgumentError as error:
        print("experiments: %s" % error)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
