"""repro — Dynamic Query Evaluation Plans.

A full reproduction of Cole & Graefe's dynamic-plan query optimizer
(SIGMOD 1994; the construction-and-evaluation successor of Graefe &
Ward's SIGMOD 1989 "Dynamic Query Evaluation Plans"): a Volcano-style
optimizer extended with interval costs that may be *incomparable* at
compile time, producing dynamic plans whose choose-plan operators pick
the cheapest alternative at start-up time.

Quickstart::

    from repro import (
        paper_workload, optimize_static, optimize_dynamic,
        resolve_dynamic_plan, random_bindings,
    )

    w = paper_workload(2)                # 2-way join, 2 unbound predicates
    dynamic = optimize_dynamic(w.catalog, w.query)
    bindings = random_bindings(w, seed=1)
    chosen, report = resolve_dynamic_plan(
        dynamic.plan, w.catalog, w.query.parameter_space, bindings)

See ``examples/`` for runnable scenarios, ``benchmarks/`` for the
reproduction of every figure of the paper's evaluation, and DESIGN.md
for the system inventory.
"""

from repro.algebra import (
    ChoosePlan,
    Comparison,
    ComparisonOp,
    FileScan,
    Filter,
    HashJoin,
    JoinPredicate,
    Literal,
    SelectionPredicate,
    UserVariable,
    plan_to_text,
)
from repro.catalog import (
    Catalog,
    IndexInfo,
    build_synthetic_catalog,
    default_relation_specs,
    populate_database,
)
from repro.common import Interval, PartialOrder
from repro.cost import Bindings, CostModel, ParameterSpace, Valuation
from repro.frontend import parse_query
from repro.executor import (
    AccessModule,
    MidQueryReport,
    ReoptPolicy,
    ShrinkingAccessModule,
    activate_plan,
    execute_midquery,
    execute_plan,
    resolve_dynamic_plan,
)
from repro.optimizer import (
    OptimizerConfig,
    OptimizerMode,
    QuerySpec,
    SearchEngine,
    canonical_signature,
    optimize_dynamic,
    optimize_exhaustive,
    optimize_runtime,
    optimize_static,
    signature_digest,
)
from repro.observability import MetricsRegistry, Tracer
from repro.observability.accuracy import cost_model_accuracy
from repro.observability.explain import explain_analyze
from repro.service import (
    PlanCache,
    ServiceRequest,
    ShardedQueryService,
    replay_spec,
)
from repro.scenarios import (
    DynamicPlanScenario,
    RunTimeOptimizationScenario,
    StaticPlanScenario,
)
from repro.storage import Database
from repro.workloads import (
    binding_series,
    make_join_workload,
    paper_workload,
    random_bindings,
    skewed_bindings,
)

__version__ = "1.0.0"

__all__ = [
    "AccessModule",
    "Bindings",
    "Catalog",
    "ChoosePlan",
    "Comparison",
    "ComparisonOp",
    "CostModel",
    "Database",
    "DynamicPlanScenario",
    "FileScan",
    "Filter",
    "HashJoin",
    "IndexInfo",
    "Interval",
    "JoinPredicate",
    "Literal",
    "MetricsRegistry",
    "MidQueryReport",
    "OptimizerConfig",
    "OptimizerMode",
    "ParameterSpace",
    "PartialOrder",
    "PlanCache",
    "QuerySpec",
    "ReoptPolicy",
    "RunTimeOptimizationScenario",
    "SearchEngine",
    "SelectionPredicate",
    "ServiceRequest",
    "ShardedQueryService",
    "ShrinkingAccessModule",
    "StaticPlanScenario",
    "Tracer",
    "UserVariable",
    "Valuation",
    "activate_plan",
    "binding_series",
    "build_synthetic_catalog",
    "canonical_signature",
    "cost_model_accuracy",
    "default_relation_specs",
    "execute_midquery",
    "execute_plan",
    "explain_analyze",
    "make_join_workload",
    "optimize_dynamic",
    "optimize_exhaustive",
    "optimize_runtime",
    "optimize_static",
    "paper_workload",
    "parse_query",
    "plan_to_text",
    "populate_database",
    "random_bindings",
    "replay_spec",
    "resolve_dynamic_plan",
    "signature_digest",
    "skewed_bindings",
]
