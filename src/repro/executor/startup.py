"""Start-up-time machinery: plan activation and choose-plan decisions.

The paper's start-up sequence (Sections 4 and 6) for a dynamic plan:

1. read the access module (I/O proportional to its node count) and
   validate it against the catalogs — a flat 0.1 s either way;
2. evaluate every choose-plan decision procedure: re-evaluate the
   alternatives' original cost functions under the instantiated
   run-time bindings, with DAG-shared subplans costed only once;
3. execute the chosen, now fully static, plan.

:func:`resolve_dynamic_plan` implements step 2 and returns the chosen
static plan; :func:`activate_plan` wraps steps 1-2 and reports the
measured CPU time and modelled I/O time, the quantities of Figure 7.

There is one decision procedure: step 2 compiles the plan into a
:class:`~repro.executor.decision.CompiledDecision` and runs one pass of
it, exactly as the query service runs its cached programs.  A one-shot
activation pays for the compilation too, so the reported CPU time
covers both.

Re-entrancy: resolution never mutates the plan DAG it is given, and the
program and its work arrays are local to one :func:`resolve_dynamic_plan`
call, so any number of threads may resolve the *same* shared dynamic
plan concurrently with independent bindings.
"""

import time

from repro.common.units import access_module_read_seconds
from repro.executor.decision import CompiledDecision, StartupReport
from repro.executor.validation import validate_plan


def resolve_dynamic_plan(plan, catalog, parameter_space, bindings):
    """Resolve every choose-plan in a dynamic plan under bindings.

    Returns ``(static_plan, report)``: one pass of the plan's compiled
    decision program, whose ``cpu_seconds`` time the compilation and
    the pass together.
    """
    started = time.perf_counter()
    chosen, report = CompiledDecision(plan, catalog, parameter_space).choose(bindings)
    report.cpu_seconds = time.perf_counter() - started
    return chosen, report


def activate_plan(
    plan,
    catalog,
    parameter_space,
    bindings,
    validate=True,
):
    """Activate a plan as the execution engine would at start-up time.

    Performs catalog validation first ([CAK81]): a static plan whose
    structures vanished raises
    :class:`~repro.common.errors.InfeasiblePlanError`, while a dynamic
    plan merely loses the infeasible alternatives.  Then, for a static
    plan this charges only the module read; for a dynamic plan it also
    runs the decision procedures.  Returns ``(static_plan, report)``.
    """
    if validate:
        plan = validate_plan(plan, catalog)
    if plan.choose_plan_count() == 0:
        report = StartupReport(
            decisions=0,
            cost_evaluations=0,
            cpu_seconds=0.0,
            io_seconds=access_module_read_seconds(plan.node_count()),
            node_count=plan.node_count(),
        )
        return plan, report
    return resolve_dynamic_plan(plan, catalog, parameter_space, bindings)
