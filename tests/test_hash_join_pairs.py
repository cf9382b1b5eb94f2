"""The hash-join kernel against its plain form, row by row and slot by slot.

The kernel computes its spill threshold once a pass and fills a hash
join and its commuted join (build and probe swapped) from one row.
Both are exact rewrites: every slot must be bit-identical to the plain
kernel's (:func:`tests._reference.reference_hash_join`), for every
grant, non-finite and negative ones included.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st
from tests._reference import reference_hash_join

from repro.algebra.physical import ChoosePlan, HashJoin
from repro.cost.formulas import CostModel, _hash_join
from repro.cost.parameters import MEMORY_PARAMETER, Valuation
from repro.executor.decision import CompiledDecision, _rebuild
from repro.optimizer import optimize_dynamic
from repro.workloads import paper_workload, random_bindings

SUBNORMALS = [5e-324, 1e-320, 2.2250738585072009e-308]

cardinalities = st.one_of(
    st.sampled_from([0.0, 0.5, 3.75, 4.0, 4.25, 1e300] + SUBNORMALS),
    # Quarter records: exact page boundaries around every grant below.
    st.integers(0, 2100).map(lambda quarters: quarters / 4.0),
    st.floats(0.0, 1e6),
)

grants = st.one_of(
    st.sampled_from(
        [0.0, 0.5, 1.0, 16.0, 64.0, 112.0, 1e9, -0.0, -0.5, -1.0, -16.0]
        + [math.inf, -math.inf, math.nan]
    ),
    st.integers(-2, 520),
    st.floats(-4.0, 520.0),
)


def _bits(values):
    return [float(value).hex() for value in values]


class TestPairedRow:
    @settings(max_examples=400, deadline=None)
    @given(
        build_card=cardinalities,
        probe_card=cardinalities,
        costs=st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)),
        join_sel=st.one_of(st.sampled_from([1.0, 0.1, 1e-4]), st.floats(0.0, 1.0)),
        memory=grants,
        near=st.tuples(*[st.one_of(st.none(), st.integers(-6, 6))] * 2),
    )
    # 133 records are 33.25 pages: past a 33.3-page grant, below 4 x 33.3.
    @example(
        build_card=133.0,
        probe_card=0.0,
        costs=(0.0, 0.0),
        join_sel=1.0,
        memory=33.3,
        near=(None, None),
    )
    @example(
        build_card=8.0,
        probe_card=400.0,
        costs=(1.0, 2.0),
        join_sel=0.5,
        memory=16.0,
        near=(None, None),
    )
    def test_a_paired_row_fills_both_slots_as_the_plain_kernel(
        self, build_card, probe_card, costs, join_sel, memory, near
    ):
        """One paired row, and the same joins as two unpaired rows, give
        both slots the bits of two runs of the plain kernel.  ``near``
        moves a card to within six quarter records of the grant's record
        capacity, where a fractional grant's spill test turns."""
        if math.isfinite(memory) and memory > 0:
            build_card, probe_card = (
                card if steps is None else max(0.0, 4.0 * memory + steps / 4.0)
                for card, steps in zip((build_card, probe_card), near)
            )
        values = [memory]
        expected_costs = [costs[0], costs[1], 0.0, 0.0]
        expected_cards = [build_card, probe_card, 0.0, 0.0]
        for row in ((2, 0, 1, join_sel), (3, 1, 0, join_sel)):
            reference_hash_join(
                [row], expected_costs, expected_cards, values, None
            )
        for rows in (
            [(2, 0, 1, join_sel, 3)],
            [(2, 0, 1, join_sel, None), (3, 1, 0, join_sel, None)],
        ):
            work_costs = [costs[0], costs[1], 0.0, 0.0]
            work_cards = [build_card, probe_card, 0.0, 0.0]
            _hash_join(rows, work_costs, work_cards, values, None)
            assert _bits(work_costs) == _bits(expected_costs)
            assert _bits(work_cards) == _bits(expected_cards)


def _point_values(program, plan, catalog, space, bindings):
    """Every non-choose-plan slot's ``(cost, card)`` from ``CostModel``
    at the bindings, over the static plan the program's decisions
    resolve the node's inputs to."""
    decisions = program.evaluate(bindings)[2]
    chosen = {id(node): alternative for node, alternative in decisions}
    model = CostModel(catalog, Valuation.runtime(space, bindings))
    resolved = {}
    expected = {}
    for node in sorted(plan.walk_unique(), key=program.slot_of):
        if isinstance(node, ChoosePlan):
            resolved[id(node)] = resolved[id(chosen[id(node)])]
            continue
        resolved[id(node)] = _rebuild(
            node, [resolved[id(child)] for child in node.inputs()]
        )
        result = model.evaluate(resolved[id(node)])
        assert result.cost.lower == result.cost.upper
        expected[program.slot_of(node)] = (result.cost.lower, result.cardinality.lower)
    return expected


@pytest.mark.parametrize("memory_uncertain", [False, True], ids=["fixed", "uncertain"])
@pytest.mark.parametrize("paper_query", [1, 2, 3, 4, 5])
def test_every_program_slot_equals_the_cost_model(paper_query, memory_uncertain):
    """Every slot of a paper query's program, paired hash-join rows
    included, equals ``CostModel``'s point value, and so does every
    commuted twin's."""
    workload = paper_workload(paper_query, seed=0, memory_uncertain=memory_uncertain)
    space = workload.query.parameter_space
    plan = optimize_dynamic(workload.catalog, workload.query).plan
    program = CompiledDecision(plan, workload.catalog, space)
    hash_joins = sum(type(node) is HashJoin for node in program._nodes)
    twins = [
        row[-1]
        for kernel, rows in program._segments
        if kernel is _hash_join
        for row in rows
        if row[-1] is not None
    ]
    assert 2 * len(twins) == hash_joins
    bindings = random_bindings(workload, seed=paper_query)
    for grant in (1, 16, 33.3, 64, 112, 500):
        bindings.bind(MEMORY_PARAMETER, grant)
        costs, cards, _ = program.evaluate(bindings)
        expected = _point_values(program, plan, workload.catalog, space, bindings)
        for slot, (cost, card) in expected.items():
            assert (costs[slot], cards[slot]) == (cost, card), program._nodes[slot]
