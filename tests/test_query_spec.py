"""QuerySpec normalization, join-graph queries, and parameter spaces."""

import pytest

from repro.algebra import (
    Comparison,
    ComparisonOp,
    JoinPredicate,
    SelectionPredicate,
)
from repro.common.errors import OptimizationError
from repro.cost.parameters import MEMORY_PARAMETER
from repro.optimizer import QuerySpec
from repro.workloads.queries import make_selection_predicate


def chain_spec(k=3, memory_uncertain=False):
    relations = ["R%d" % (i + 1) for i in range(k)]
    selections = {name: make_selection_predicate(name) for name in relations}
    joins = [
        JoinPredicate("R%d.b" % (i + 1), "R%d.c" % (i + 2))
        for i in range(k - 1)
    ]
    return QuerySpec(relations, selections, joins,
                     memory_uncertain=memory_uncertain)


class TestConstruction:
    def test_empty_query_rejected(self):
        with pytest.raises(OptimizationError):
            QuerySpec([])

    def test_duplicate_relation_rejected(self):
        with pytest.raises(OptimizationError):
            QuerySpec(["R", "R"])

    def test_selection_on_unknown_relation_rejected(self):
        with pytest.raises(OptimizationError):
            QuerySpec(["R"], {"S": make_selection_predicate("S")})

    def test_join_predicate_on_unknown_relation_rejected(self):
        with pytest.raises(OptimizationError):
            QuerySpec(["R", "S"], {}, [JoinPredicate("R.b", "T.c")])

    def test_disconnected_join_graph_rejected(self):
        with pytest.raises(OptimizationError):
            QuerySpec(["R", "S", "T"], {}, [JoinPredicate("R.b", "S.c")])

    def test_single_relation_no_joins_ok(self):
        spec = QuerySpec(["R"], {"R": make_selection_predicate("R")})
        assert spec.uncertain_variable_count() == 1


class TestParameterSpace:
    def test_uncertain_selectivities_registered(self):
        spec = chain_spec(3)
        assert spec.parameter_space.uncertain_names() == [
            "sel_R1",
            "sel_R2",
            "sel_R3",
        ]

    def test_memory_uncertainty_adds_one_variable(self):
        certain = chain_spec(2, memory_uncertain=False)
        uncertain = chain_spec(2, memory_uncertain=True)
        assert certain.uncertain_variable_count() == 2
        assert uncertain.uncertain_variable_count() == 3
        assert uncertain.parameter_space.get(MEMORY_PARAMETER).uncertain

    def test_known_selectivity_adds_no_variable(self):
        predicate = SelectionPredicate(
            Comparison("R.a", ComparisonOp.LT, 5), known_selectivity=0.3
        )
        spec = QuerySpec(["R"], {"R": predicate})
        assert spec.uncertain_variable_count() == 0


class TestJoinGraph:
    def test_cross_predicates_orients_towards_left(self):
        spec = chain_spec(3)
        predicates = spec.cross_predicates({"R2"}, {"R1"})
        assert len(predicates) == 1
        # Oriented so the left attribute belongs to the left set.
        assert predicates[0].left_attribute.startswith("R2.")

    def test_cross_predicates_empty_for_unconnected_sets(self):
        spec = chain_spec(3)
        assert spec.cross_predicates({"R1"}, {"R3"}) == []

    def test_is_connected(self):
        spec = chain_spec(4)
        assert spec.is_connected({"R1", "R2"})
        assert spec.is_connected({"R2", "R3", "R4"})
        assert not spec.is_connected({"R1", "R3"})
        assert spec.is_connected({"R2"})

    def test_connected_splits_chain(self):
        spec = chain_spec(3)
        splits = spec.connected_splits(frozenset({"R1", "R2", "R3"}))
        # Chain of 3: {R1}|{R2,R3} and {R1,R2}|{R3}, both orders = 4.
        assert len(splits) == 4
        for left, right in splits:
            assert spec.is_connected(left) and spec.is_connected(right)
            assert spec.cross_predicates(left, right)

    def test_connected_splits_exclude_cross_products(self):
        spec = chain_spec(4)
        splits = spec.connected_splits(frozenset({"R1", "R2", "R3", "R4"}))
        assert (frozenset({"R1", "R3"}), frozenset({"R2", "R4"})) not in splits
        # Chain of 4: 3 cut points x 2 orders = 6 connected splits.
        assert len(splits) == 6
