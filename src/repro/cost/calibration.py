"""Calibration between measured Python CPU time and the simulated
machine's timescale.

The paper measures optimizer and start-up CPU on the same DECstation
5000/125 whose disk its cost model describes, so measured CPU and
modelled I/O seconds mix directly.  Our optimizer runs as Python on a
modern CPU while the cost model still describes the paper's disk
(0.01 s per random page).  Where an experiment *combines* measured CPU
with modelled I/O — total start-up time, total run-time effort, and
the break-even analyses of Figures 3 and 8 — measured CPU seconds are
multiplied by :data:`DEFAULT_CPU_SCALE` to express them on the
simulated machine.

Calibration anchor: the paper's prototype evaluates the 14,090 cost
functions of query 5's dynamic plan in 5.8 s, about 2,400 evaluations
per second.  :func:`measure_evaluation_rate` shows this Python
implementation performs roughly 10^5-10^6 evaluations per second, so
the default scale is 500.  Experiments report raw measured seconds
alongside the scaled values, and the scale only scales — it never
changes which plan wins, only where time-based break-evens fall.
"""

import time

from repro.cost.formulas import CostModel
from repro.cost.parameters import Valuation

#: Paper prototype's cost-function evaluation rate (evaluations/sec).
PAPER_EVALUATION_RATE = 14090 / 5.8

#: Default measured-CPU to simulated-seconds multiplier.
DEFAULT_CPU_SCALE = 500.0


def measure_evaluation_rate(catalog, plan, parameter_space, repetitions=50):
    """Measured cost-function evaluations per second for a plan.

    Each repetition uses a fresh memoizing cost model, so every node of
    the DAG is evaluated once per repetition at the interval cost
    model's two corners — the optimizer's costing work.  A start-up
    decision pass evaluates the same formulas once, at point bindings,
    through a compiled program
    (:class:`~repro.executor.decision.CompiledDecision`), which is
    faster per evaluation.
    """
    valuation = Valuation.expected(parameter_space)
    total_evaluations = 0
    started = time.perf_counter()
    for _ in range(repetitions):
        model = CostModel(catalog, valuation)
        model.evaluate(plan)
        total_evaluations += model.evaluations
    elapsed = time.perf_counter() - started
    if elapsed <= 0:
        return float("inf")
    return total_evaluations / elapsed


def derive_cpu_scale(catalog, plan, parameter_space, repetitions=50):
    """A cpu-scale calibrated against the paper's evaluation rate."""
    rate = measure_evaluation_rate(catalog, plan, parameter_space, repetitions)
    if rate == float("inf"):
        return DEFAULT_CPU_SCALE
    return max(1.0, rate / PAPER_EVALUATION_RATE)
