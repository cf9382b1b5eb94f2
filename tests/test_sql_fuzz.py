"""Property-based fuzzing of the SQL front end.

Hypothesis generates random well-formed queries over the demo catalog;
parsing must succeed, the resulting spec must validate, and for
multi-relation queries the optimality guarantee must hold end to end.
The generated class is derandomized: a tier-1 run explores the same
examples every time (the pinned ``@example`` is one a random run found).
Random *ill-formed* byte soup must raise ``SqlSyntaxError`` (or parse,
for the rare accidentally valid string) — never crash another way.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import OptimizationError
from repro.frontend import parse_query
from repro.frontend.sql import SqlSyntaxError
from repro.workloads import paper_workload


@pytest.fixture(scope="module")
def catalog():
    return paper_workload(3, seed=0).catalog  # R1..R4, attrs a/b/c


RELATIONS = ("R1", "R2", "R3", "R4")
CHAIN_JOINS = {
    ("R1", "R2"): "R1.b = R2.c",
    ("R2", "R3"): "R2.b = R3.c",
    ("R3", "R4"): "R3.b = R4.c",
}


@st.composite
def well_formed_queries(draw):
    count = draw(st.integers(1, 4))
    relations = list(RELATIONS[:count])
    predicates = [
        CHAIN_JOINS[(relations[i], relations[i + 1])]
        for i in range(count - 1)
    ]
    selected = draw(
        st.lists(st.sampled_from(relations), unique=True, max_size=count)
    )
    for index, relation in enumerate(selected):
        kind = draw(st.sampled_from(["param", "literal"]))
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "="]))
        if kind == "param":
            predicates.append("%s.a %s :v_%s" % (relation, op, relation))
        else:
            value = draw(st.integers(0, 1000))
            predicates.append("%s.a %s %d" % (relation, op, value))
    sql = "SELECT * FROM " + ", ".join(relations)
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    return sql, count, len(selected)


#: Nothing here is uncertain, yet one subplan has two alternatives whose
#: costs tie exactly.  The paper prototype's naive form
#: (``keep_equal_cost_plans=True``) keeps the tie as a choose-plan, and
#: that node's 0.01 s decision overhead outweighs the 0.0083 s by which
#: the plan containing it is cheaper to *execute*, so that form prunes
#: the plan the run-time optimizer picks (g = 1.7625 s against d =
#: 1.7542 s, 8 nodes, 1 choose-plan).  The default config keeps one of
#: the tied plans: 7 nodes, no choose-plan, g = d.
TIE_KEPT_AS_CHOOSE_PLAN = (
    "SELECT * FROM R1, R2, R3, R4 WHERE R1.b = R2.c AND R2.b = R3.c "
    "AND R3.b = R4.c AND R3.a < 19 AND R4.a < 101"
)


class TestWellFormedQueries:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(query=well_formed_queries())
    def test_parse_and_optimize(self, catalog, query):
        sql, relation_count, _selected = query
        spec = parse_query(sql, catalog)
        assert len(spec.relations) == relation_count
        from repro.optimizer import optimize_dynamic, optimize_static

        static = optimize_static(catalog, spec)
        dynamic = optimize_dynamic(catalog, spec)
        assert static.cost.is_point
        assert dynamic.node_count() >= static.node_count()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(query=well_formed_queries(), binding_seed=st.integers(0, 100))
    @example(query=(TIE_KEPT_AS_CHOOSE_PLAN, 4, 2), binding_seed=0)
    def test_guarantee_holds_for_fuzzed_queries(self, catalog, query,
                                                binding_seed):
        """The guarantee the optimizer gives, stated exactly.

        Execution cost ``g`` of the plan a dynamic plan resolves to
        equals the run-time optimizer's ``d`` when decisions are free.
        Under the default config every choose-plan charges its start-up
        decision to the plans containing it, which can tip a comparison
        between two *execution* costs closer than that charge: then
        ``d <= g <= d + overhead * choose_plan_count``.  A query with no
        uncertain parameter has only exact ties to keep, and the default
        config keeps none of them: ``g == d``.
        """
        from repro.common.rng import make_rng
        from repro.cost.parameters import Bindings
        from repro.executor import resolve_dynamic_plan
        from repro.optimizer import (
            OptimizerConfig,
            optimize_dynamic,
            optimize_runtime,
        )
        from repro.scenarios import predicted_execution_seconds

        sql, _count, _selected = query
        spec = parse_query(sql, catalog)
        rng = make_rng(binding_seed, "sql-fuzz")
        bindings = Bindings()
        for name in spec.parameter_space.uncertain_names():
            bounds = spec.parameter_space.get(name).bounds
            bindings.bind(name, rng.uniform(bounds.lower, bounds.upper))

        def execution_seconds(plan):
            return predicted_execution_seconds(
                plan, catalog, spec.parameter_space, bindings
            )

        def resolved_seconds(dynamic):
            chosen, _ = resolve_dynamic_plan(
                dynamic.plan, catalog, spec.parameter_space, bindings
            )
            return execution_seconds(chosen)

        d = execution_seconds(optimize_runtime(catalog, spec, bindings).plan)
        free = optimize_dynamic(
            catalog, spec, OptimizerConfig.dynamic(choose_plan_overhead=0.0)
        )
        assert resolved_seconds(free) == pytest.approx(d, rel=1e-9)
        default = optimize_dynamic(catalog, spec)
        g = resolved_seconds(default)
        if not spec.parameter_space.uncertain_names():
            assert default.choose_plan_count() == 0
            assert g == pytest.approx(d, rel=1e-9)
        slack = default.config.choose_plan_overhead * default.choose_plan_count()
        assert d * (1 - 1e-9) <= g <= (d + slack) * (1 + 1e-9)


class TestIllFormedQueries:
    @settings(max_examples=80, deadline=None)
    @given(garbage=st.text(max_size=60))
    def test_garbage_never_crashes_unexpectedly(self, catalog, garbage):
        try:
            parse_query(garbage, catalog)
        except OptimizationError:
            pass  # SqlSyntaxError or a validation error: expected

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM R1 WHERE",
            "SELECT * FROM R1 WHERE R1.a",
            "SELECT * FROM R1 WHERE R1.a < ",
            "SELECT * FROM R1 GROUP BY R1.a",
            "INSERT INTO R1 VALUES (1)",
        ],
    )
    def test_specific_malformed_queries(self, catalog, bad):
        with pytest.raises(SqlSyntaxError):
            parse_query(bad, catalog)
