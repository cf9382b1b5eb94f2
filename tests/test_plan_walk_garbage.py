"""Plan walks leave no cyclic garbage.

A nested function that calls itself holds itself through its closure
cell, so every call of a walk written that way leaves a cycle that only
the garbage collector frees: 8 objects a served decision-memo miss, and
thousands for one interpreted start-up pass over paper query 5.  With
the collector off, each walk below, and a served request that rebuilds
its chosen plan, must leave nothing for it to find.
"""

import gc
from contextlib import contextmanager

import pytest

from repro import Database, ShardedQueryService, populate_database
from repro.executor.access_module import AccessModule
from repro.executor.decision import CompiledDecision
from repro.executor.midquery import _postorder, strip_checkpoints
from repro.executor.startup import resolve_dynamic_plan
from repro.executor.validation import validate_plan
from repro.optimizer import optimize_dynamic
from repro.workloads import paper_workload, random_bindings


@contextmanager
def collector_off():
    """The collector disabled, starting from a heap with no garbage."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(scope="module")
def query5():
    workload = paper_workload(5)
    plan = optimize_dynamic(workload.catalog, workload.query).plan
    bindings = random_bindings(workload, seed=0, run_index=0)
    return workload, plan, bindings


WALKS = {
    "resolve_dynamic_plan": lambda workload, plan, bindings: resolve_dynamic_plan(
        plan, workload.catalog, workload.query.parameter_space, bindings
    ),
    "AccessModule.from_plan": lambda workload, plan, bindings: (
        AccessModule.from_plan(plan)
    ),
    "validate_plan": lambda workload, plan, bindings: validate_plan(
        plan, workload.catalog
    ),
    "strip_checkpoints": lambda workload, plan, bindings: strip_checkpoints(plan),
    "midquery._postorder": lambda workload, plan, bindings: _postorder(plan),
}


@pytest.mark.parametrize("name", sorted(WALKS))
def test_walk_leaves_no_cycles(name, query5):
    with collector_off():
        WALKS[name](*query5)
        assert gc.collect() == 0


def test_rebuilding_the_chosen_plan_leaves_no_cycles(query5):
    workload, plan, bindings = query5
    decision = CompiledDecision(plan, workload.catalog, workload.query.parameter_space)
    with collector_off():
        chosen, _ = decision.choose(bindings)
        assert chosen.choose_plan_count() == 0
        assert gc.collect() == 0


@pytest.mark.parametrize("query_number", [3, 5])
def test_a_served_memo_miss_leaves_no_cycles(query_number):
    workload = paper_workload(query_number)
    database = Database(workload.catalog)
    populate_database(database, seed=1)
    with ShardedQueryService(database, shards=2) as gateway:
        gateway.run(workload.query, random_bindings(workload, seed=0, run_index=0))
        (entry,) = gateway.shard_for(workload.query).cache.entries()
        misses = 0
        for run_index in range(1, 12):
            bindings = random_bindings(workload, seed=0, run_index=run_index)
            outcomes = len(entry.chosen_memo)
            with collector_off():
                gateway.run(workload.query, bindings)
                if len(entry.chosen_memo) > outcomes:
                    misses += 1
                    assert gc.collect() == 0
        assert misses > 0
