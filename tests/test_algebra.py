"""Physical plan DAGs and the plan printer."""

import pytest

from repro.algebra import (
    BTreeScan,
    ChoosePlan,
    Comparison,
    ComparisonOp,
    FileScan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    IndexJoin,
    JoinPredicate,
    MergeJoin,
    SelectionPredicate,
    Sort,
    UserVariable,
    count_plan_nodes,
    plan_to_text,
)
from repro.algebra.physical import Materialized
from repro.common.errors import PlanError


def selection(rel="R"):
    return SelectionPredicate(
        Comparison("%s.a" % rel, ComparisonOp.LT, UserVariable("v")),
        selectivity_parameter="sel_%s" % rel,
    )


class TestPhysicalPlanDag:
    def _shared_dag(self):
        scan = FileScan("R")
        filt = Filter(scan, selection())
        left = Sort(filt, "R.b")
        right = Sort(filt, "R.a")
        return ChoosePlan([left, right]), scan, filt

    def test_node_count_counts_shared_once(self):
        plan, _, _ = self._shared_dag()
        # choose + 2 sorts + filter + scan = 5 distinct nodes
        assert plan.node_count() == 5
        assert count_plan_nodes(plan) == 5

    def test_tree_node_count_expands_sharing(self):
        plan, _, _ = self._shared_dag()
        # choose + 2 * (sort + filter + scan) = 7 when expanded
        assert plan.tree_node_count() == 7

    def test_choose_plan_count(self):
        plan, _, _ = self._shared_dag()
        assert plan.choose_plan_count() == 1
        assert FileScan("R").choose_plan_count() == 0

    def test_choose_plan_needs_two_alternatives(self):
        with pytest.raises(PlanError):
            ChoosePlan([FileScan("R")])

    def test_walk_unique_yields_each_node_once(self):
        plan, scan, filt = self._shared_dag()
        nodes = list(plan.walk_unique())
        assert len(nodes) == len({id(node) for node in nodes}) == 5
        assert scan in nodes and filt in nodes

    def test_signature_stable_and_structural(self):
        a = Filter(FileScan("R"), selection())
        b = Filter(FileScan("R"), selection())
        assert a.signature() == b.signature()
        c = Filter(FileScan("S"), selection())
        assert a.signature() != c.signature()

    def test_digest_follows_signature(self):
        """Equal signatures, equal digests — also through the plan a
        ``Materialized`` nests and under a memo shared across nodes."""
        a = Filter(FileScan("R"), selection())
        b = Filter(FileScan("R"), selection())
        c = Filter(FileScan("S"), selection())
        assert a.digest() == b.digest() != c.digest()
        assert Materialized([], a).digest() == Materialized([], b).digest()
        assert Materialized([], a).digest() != Materialized([], c).digest()
        assert Materialized([], a).digest() != a.digest()
        plan, scan, filt = self._shared_dag()
        memo = {}
        shared = [node.digest(memo) for node in plan.walk_unique()]
        assert shared == [node.digest() for node in plan.walk_unique()]
        assert len(set(shared)) == len({n.signature() for n in plan.walk_unique()})

    def test_signature_distinguishes_operators(self):
        assert FileScan("R").signature() != BTreeScan("R", "a").signature()

    def test_join_requires_predicate(self):
        with pytest.raises(PlanError):
            HashJoin(FileScan("R"), FileScan("S"), [])
        with pytest.raises(PlanError):
            IndexJoin(FileScan("R"), "S", "c", [])

    def test_hash_join_build_probe_aliases(self):
        join = HashJoin(FileScan("R"), FileScan("S"), JoinPredicate("R.b", "S.c"))
        assert join.build is join.left
        assert join.probe is join.right

    def test_operator_names_match_table1(self):
        predicate = JoinPredicate("R.b", "S.c")
        assert FileScan("R").operator_name() == "File-Scan"
        assert BTreeScan("R", "a").operator_name() == "B-tree-Scan"
        assert Filter(FileScan("R"), selection()).operator_name() == "Filter"
        assert (
            FilterBTreeScan("R", "a", selection()).operator_name()
            == "Filter-B-tree-Scan"
        )
        assert (
            HashJoin(FileScan("R"), FileScan("S"), predicate).operator_name()
            == "Hash-Join"
        )
        assert (
            MergeJoin(FileScan("R"), FileScan("S"), predicate).operator_name()
            == "Merge-Join"
        )
        assert (
            IndexJoin(FileScan("R"), "S", "c", predicate).operator_name()
            == "Index-Join"
        )
        assert Sort(FileScan("R"), "R.a").operator_name() == "Sort"
        assert (
            ChoosePlan([FileScan("R"), BTreeScan("R", "a")]).operator_name()
            == "Choose-Plan"
        )


class TestPrinter:
    def test_renders_shared_nodes_once(self):
        scan = FileScan("R")
        plan = ChoosePlan([Sort(scan, "R.a"), Sort(scan, "R.b")])
        text = plan_to_text(plan, show_cost=False)
        assert text.count("File-Scan R") == 1
        assert "(shared)" in text

    def test_renders_choose_plan_fan_out(self):
        plan = ChoosePlan([FileScan("R"), BTreeScan("R", "a")])
        text = plan_to_text(plan, show_cost=False)
        assert "Choose-Plan (2 alternatives)" in text

    def test_shows_cost_when_annotated(self):
        from repro.common.intervals import Interval

        plan = FileScan("R")
        plan.annotate(cost=Interval(1, 2))
        assert "cost=" in plan_to_text(plan, show_cost=True)
