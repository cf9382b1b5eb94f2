"""Optimizer fingerprints: what one optimization run must reproduce.

A fingerprint is everything about a run except how long it took and
how many rule productions it needed: the plan's digest (which covers
operator order inside every choose-plan), both cost bounds to the last
bit, the plan's size, and every search counter except
``rule_applications`` / ``optimization_seconds``.

``tests/goldens/optimizer_fingerprints.json`` was recorded at the
commit before the optimizer was made incremental; regenerate it only
when a change is *meant* to alter plans::

    PYTHONPATH=src python -m tests._fingerprints
"""

import json
import os

from repro.optimizer import (
    OptimizerConfig,
    optimize_dynamic,
    optimize_exhaustive,
    optimize_runtime,
    optimize_static,
)
from repro.workloads import make_join_workload, paper_workload, random_bindings

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "optimizer_fingerprints.json"
)

#: Counters allowed to differ between two runs that produce the same memo.
UNPINNED_STATISTICS = ("rule_applications", "optimization_seconds")


def fingerprint(result):
    """The identity of one :class:`OptimizationResult`, JSON-ready."""
    statistics = result.statistics.as_dict()
    for name in UNPINNED_STATISTICS:
        del statistics[name]
    return {
        "digest": result.plan.digest(),
        "cost": [repr(result.cost.lower), repr(result.cost.upper)],
        "nodes": result.node_count(),
        "choose_plans": result.choose_plan_count(),
        "statistics": statistics,
    }


def golden_cases():
    """``(name, thunk)`` pairs; each thunk runs one optimization.

    Every case but the ``serving`` ones runs the paper prototype's naive
    form (``keep_equal_cost_plans=True``), as recorded before the
    default dropped exactly-equal plans; the ``serving`` cases run the
    default config that the service, the CLI and the advisor use.
    """
    cases = []

    def add(name, function, workload, *args, **kwargs):
        cases.append(
            (
                name,
                lambda: function(
                    workload.catalog, workload.query, *args, **kwargs
                ),
            )
        )

    static = OptimizerConfig.static(keep_equal_cost_plans=True)
    dynamic = OptimizerConfig.dynamic(keep_equal_cost_plans=True)
    for number in range(1, 6):
        workload = paper_workload(number, seed=0)
        memory_uncertain = paper_workload(number, memory_uncertain=True, seed=0)
        prefix = "query%d/" % number
        add(prefix + "static", optimize_static, workload, static)
        add(prefix + "dynamic", optimize_dynamic, workload, dynamic)
        add(prefix + "memory_uncertain", optimize_dynamic, memory_uncertain, dynamic)
        add(prefix + "serving", optimize_dynamic, workload)
        add(prefix + "serving_memory_uncertain", optimize_dynamic, memory_uncertain)
        add(
            prefix + "multipoint",
            optimize_dynamic,
            workload,
            OptimizerConfig.dynamic(
                multipoint_heuristic=True, keep_equal_cost_plans=True
            ),
        )
        add(
            prefix + "no_branch_and_bound",
            optimize_dynamic,
            workload,
            OptimizerConfig.dynamic(
                branch_and_bound=False, keep_equal_cost_plans=True
            ),
        )
        for seed in (1, 2):
            add(
                prefix + "runtime_seed%d" % seed,
                optimize_runtime,
                workload,
                random_bindings(workload, seed=seed),
                static,
            )
        if number <= 2:
            add(
                prefix + "exhaustive",
                optimize_exhaustive,
                workload,
                OptimizerConfig.exhaustive(keep_equal_cost_plans=True),
            )
    for topology in ("star", "cycle"):
        for relation_count in (4, 5, 6):
            for bounds in ((0.0, 1.0), (0.0, 0.2)):
                add(
                    "%s%d/bounds_%g_%g" % ((topology, relation_count) + bounds),
                    optimize_dynamic,
                    make_join_workload(
                        relation_count,
                        topology=topology,
                        selectivity_bounds=bounds,
                    ),
                    dynamic,
                )
    return cases


def compute_fingerprints():
    """Fingerprints of every golden case, keyed by case name."""
    return {name: fingerprint(run()) for name, run in golden_cases()}


def load_golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(compute_fingerprints(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % GOLDEN_PATH)
