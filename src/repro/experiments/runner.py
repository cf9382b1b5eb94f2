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


def main(argv=None):
    """CLI entry: ``[N] [--csv DIR] [--accuracy]``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    csv_directory = None
    if "--csv" in argv:
        position = argv.index("--csv")
        try:
            csv_directory = argv[position + 1]
        except IndexError:
            print("--csv requires a directory argument")
            return 2
        del argv[position : position + 2]
    with_accuracy = "--accuracy" in argv
    if with_accuracy:
        argv.remove("--accuracy")
    invocations = int(argv[0]) if argv else 100
    settings = ExperimentSettings(invocations=invocations)
    figures, table1, settings = run_all_experiments(settings)
    print(render_report(figures, table1, settings))
    if with_accuracy:
        from repro.observability.accuracy import cost_model_accuracy

        report = cost_model_accuracy(seed=settings.seed)
        print()
        print(report.render())
    if csv_directory is not None:
        for path in write_csvs(figures, csv_directory):
            print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
