"""The memo and the transformation-rule closure.

The key correctness property: the closure of join commutativity and
the two associativity rules must discover, for every connected subset
of relations, *every* connected split — i.e. the full bushy-tree plan
space without cross products.  We verify this against the independent
:meth:`QuerySpec.connected_splits` enumerator on chain, star, and
cycle topologies.
"""

import pytest

from repro.common.errors import OptimizationError
from repro.optimizer import OptimizerConfig, SearchEngine
from repro.optimizer.memo import (
    Group,
    Memo,
    MExpr,
    base_key,
    join_key,
    select_key,
)
from repro.workloads import make_join_workload


class TestMemoStructures:
    def test_keys(self):
        assert base_key("R") == ("base", "R")
        assert select_key("R") == ("select", "R")
        assert join_key({"R", "S"}) == ("join", frozenset({"R", "S"}))

    def test_group_deduplicates_mexprs(self):
        group = Group(join_key({"R", "S"}), {"R", "S"})
        m1 = MExpr.join(("base", "R"), ("base", "S"), ())
        m2 = MExpr.join(("base", "R"), ("base", "S"), ())
        assert group.add_mexpr(m1) is m1
        assert group.add_mexpr(m2) is None
        assert len(group.mexprs) == 1

    def test_memo_get_or_create(self):
        memo = Memo()
        group, created = memo.get_or_create(base_key("R"))
        assert created
        again, created_again = memo.get_or_create(base_key("R"))
        assert again is group and not created_again

    def test_unknown_group_raises(self):
        with pytest.raises(OptimizationError):
            Memo().group(("base", "zzz"))

    def test_counts(self):
        memo = Memo()
        group, _ = memo.get_or_create(base_key("R"))
        group.add_mexpr(MExpr.getset("R"))
        assert memo.group_count() == 1
        assert memo.mexpr_count() == 1


def _explored_engine(workload, explore=SearchEngine._explore_all):
    engine = SearchEngine(workload.catalog, OptimizerConfig.dynamic())
    engine.query = workload.query
    engine.memo = Memo()
    engine.stats = __import__(
        "repro.optimizer.search", fromlist=["SearchStatistics"]
    ).SearchStatistics()
    root = engine._build_initial_groups(workload.query)
    explore(engine)
    return engine, root


def _explore_by_full_sweeps(engine):
    """The reference fixpoint delta exploration must reproduce: every
    sweep re-matches every m-expr against *all* of its input group
    (cursor 0), relying on ``add_mexpr`` alone to reject what an earlier
    sweep already produced."""
    engine._exploration_dirty = True
    while engine._exploration_dirty:
        engine._exploration_dirty = False
        for group in engine.memo.groups():
            for mexpr in list(group.mexprs):
                for rule in engine.transformation_rules:
                    produced, _ = rule.apply(engine, group, mexpr, 0)
                    for new in produced:
                        engine.stats.rule_applications += 1
                        if group.add_mexpr(new) is not None:
                            engine._exploration_dirty = True


def _memo_contents(engine):
    """Every group, in creation order, with its m-exprs in list order."""
    return [
        (
            group.key,
            [(mexpr.identity(), repr(mexpr.predicates)) for mexpr in group.mexprs],
        )
        for group in engine.memo.groups()
    ]


class TestDeltaExplorationMatchesFullSweeps:
    """M-expr *order* is an invariant, not a detail: candidate order,
    choose-plan alternative order and first-wins ties all inherit it."""

    @pytest.mark.parametrize("topology", ["chain", "star", "cycle"])
    @pytest.mark.parametrize("relations", [3, 4, 5, 6])
    def test_same_memo_element_for_element(self, topology, relations):
        workload = make_join_workload(relations, topology=topology)
        delta, _ = _explored_engine(workload)
        reference, _ = _explored_engine(workload, _explore_by_full_sweeps)
        assert _memo_contents(delta) == _memo_contents(reference)
        assert (
            0 < delta.stats.rule_applications
            <= reference.stats.rule_applications
        )


def _assert_closure_complete(workload):
    engine, root = _explored_engine(workload)
    query = workload.query
    for group in engine.memo.groups():
        if group.kind != "join":
            continue
        expected = set()
        for left, right in query.connected_splits(group.relations):
            expected.add((left, right))
        discovered = set()
        for mexpr in group.mexprs:
            discovered.add(
                (
                    engine.relations_of(mexpr.left_key),
                    engine.relations_of(mexpr.right_key),
                )
            )
        assert discovered == expected, (
            "group %s: rule closure found %d splits, enumeration %d"
            % (sorted(group.relations), len(discovered), len(expected))
        )


class TestRuleClosureCompleteness:
    def test_chain_3(self):
        _assert_closure_complete(make_join_workload(3, topology="chain"))

    def test_chain_5(self):
        _assert_closure_complete(make_join_workload(5, topology="chain"))

    def test_star_4(self):
        _assert_closure_complete(make_join_workload(4, topology="star"))

    def test_star_5(self):
        _assert_closure_complete(make_join_workload(5, topology="star"))

    def test_cycle_4(self):
        _assert_closure_complete(make_join_workload(4, topology="cycle"))

    def test_cycle_5(self):
        _assert_closure_complete(make_join_workload(5, topology="cycle"))


class TestLogicalTreeCounts:
    """Bushy-tree counts for chains follow 2^(n-1) * Catalan(n-1)."""

    @pytest.mark.parametrize(
        "relations, expected",
        [(1, 1), (2, 2), (3, 8), (4, 40), (6, 1344)],
    )
    def test_chain_tree_counts(self, relations, expected):
        workload = make_join_workload(relations, topology="chain")
        engine, root = _explored_engine(workload)
        assert engine.memo.logical_tree_count(root) == expected

    def test_star_tree_counts(self):
        # Star with k satellites: 2^k * k! ordered bushy trees.
        workload = make_join_workload(4, topology="star")
        engine, root = _explored_engine(workload)
        assert engine.memo.logical_tree_count(root) == 2 ** 3 * 6

    def test_groups_are_connected_subsets_only(self):
        workload = make_join_workload(4, topology="chain")
        engine, _ = _explored_engine(workload)
        for group in engine.memo.groups():
            if group.kind == "join":
                assert workload.query.is_connected(group.relations)

    def test_chain_group_count(self):
        # Chain of n has n*(n-1)/2 multi-relation connected ranges.
        workload = make_join_workload(5, topology="chain")
        engine, _ = _explored_engine(workload)
        join_groups = [g for g in engine.memo.groups() if g.kind == "join"]
        assert len(join_groups) == 5 * 4 // 2
