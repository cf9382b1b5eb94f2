"""One grand tour: every major subsystem in a single scenario.

SQL with host variables → advisor → dynamic compilation → access-module
bytes → catalog drift → validated activation → execution → mid-query
re-decisions — on a star-topology join, checked against the
reference evaluator at every step.
"""

import pytest

from repro import (
    AccessModule,
    Database,
    execute_plan,
    optimize_dynamic,
    parse_query,
    populate_database,
)
from repro.cost.parameters import Bindings
from repro.executor import ReoptPolicy, activate_plan, execute_midquery
from repro.scenarios import recommend_strategy
from repro.workloads import make_join_workload

from tests._reference import reference_rows, row_multiset


@pytest.fixture(scope="module")
def world():
    workload = make_join_workload(4, topology="star", seed=11)
    database = Database(workload.catalog)
    populate_database(database, seed=11)
    return workload, database


SQL = (
    "SELECT R2.a, R3.a FROM R1, R2, R3, R4 "
    "WHERE R1.a < :v_R1 AND R1.b = R2.c AND R1.b = R3.c "
    "AND R1.b = R4.c AND R3.a < :v_R3"
)


def make_bindings(workload, sel_r1, sel_r3):
    bindings = Bindings()
    for relation, selectivity in (("R1", sel_r1), ("R3", sel_r3)):
        domain = workload.catalog.domain_size(relation, "a")
        bindings.bind("sel_%s" % relation, selectivity)
        bindings.bind_variable("v_%s" % relation, selectivity * domain)
    return bindings


class TestGrandTour:
    def test_full_lifecycle(self, world):
        workload, database = world
        catalog = workload.catalog

        # 1. Parse the embedded query.
        query = parse_query(SQL, catalog, name="tour")
        assert query.uncertain_variable_count() == 2
        assert query.projection == ("R2.a", "R3.a")

        # 2. The advisor recommends dynamic plans for a repeated query.
        recommendation = recommend_strategy(
            catalog, query, expected_invocations=200
        )
        assert recommendation.strategy == "dynamic"

        # 3. Compile once into access-module bytes (what survives restarts).
        compiled = optimize_dynamic(catalog, query)
        assert compiled.choose_plan_count() >= 1
        payload = AccessModule.from_plan(compiled.plan, "tour").to_bytes()

        def activate(bindings):
            plan = AccessModule.from_bytes(payload).materialize()
            return activate_plan(plan, catalog, query.parameter_space, bindings)

        # 4. Catalog drift: an index disappears between compile and run.
        catalog.drop_index("R2", "a")

        # 5. Activate across the "restart": validated, resolved, run.
        reference_query = parse_query(SQL, catalog, name="tour-ref")
        keys = ["R2.a", "R3.a"]
        for sel_r1, sel_r3 in ((0.05, 0.9), (0.8, 0.1)):
            bindings = make_bindings(workload, sel_r1, sel_r3)
            chosen, report = activate(bindings)
            assert chosen.choose_plan_count() == 0
            executed = execute_plan(
                chosen, database, bindings, query.parameter_space
            )
            # Reference evaluation works on the unprojected query spec.
            class _RefWorkload:
                pass

            ref = _RefWorkload()
            ref.query = reference_query
            ref.catalog = catalog
            expected = [
                record.project(keys)
                for record in reference_rows(ref, database, bindings)
            ]
            assert row_multiset(executed.records, keys) == row_multiset(
                expected, keys
            )

        # 6. Re-deciding at every breaker agrees with plain execution.
        bindings = make_bindings(workload, 0.4, 0.6)
        plan = AccessModule.from_bytes(payload).materialize()
        from repro.executor import validate_plan

        plan = validate_plan(plan, catalog)
        midquery_result, midquery_report = execute_midquery(
            plan,
            database,
            bindings,
            query.parameter_space,
            policy=ReoptPolicy("always"),
        )
        plain_chosen, _ = activate(bindings)
        plain_result = execute_plan(
            plain_chosen, database, bindings, query.parameter_space
        )
        assert row_multiset(midquery_result.records, keys) == row_multiset(
            plain_result.records, keys
        )
        assert midquery_report.redecisions >= 1
