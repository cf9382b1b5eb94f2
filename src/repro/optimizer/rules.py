"""Transformation and implementation rules (the "optimizer generator"
part of the reproduction).

Transformation rules rewrite logical m-exprs within memo groups —
join commutativity and both associativity directions, whose closure
generates all connected bushy join trees (verified against an
independent enumerator in the test suite).  Implementation rules map
logical operators to physical algorithms per Table 1; the sort
enforcer produces required orders any algorithm can't deliver.  The
choose-plan (robustness) enforcer lives in the search engine itself,
where incomparable candidate sets emerge.
"""

from repro.algebra.physical import (
    BTreeScan,
    FileScan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    IndexJoin,
    MergeJoin,
    Sort,
)
from repro.optimizer.memo import MExpr
from repro.optimizer.properties import PhysicalProperty


# ======================================================================
# Transformation rules
# ======================================================================


class TransformationRule:
    """Base class: rewrites one m-expr into equivalent m-exprs.

    A rule matches an m-expr against an input group that keeps growing
    between the engine's sweeps, so each (rule, m-expr) pair carries a
    ``matched`` cursor — how far into that group it got last time — and
    matches only the suffix (see ``SearchEngine._explore_all``).
    """

    name = "transformation"

    def apply(self, engine, group, mexpr, matched):
        """Return ``(produced, matched)``: new m-exprs for ``group``
        derived from ``mexpr`` and the pair's advanced cursor."""
        raise NotImplementedError


class JoinCommutativity(TransformationRule):
    """``A join B  ->  B join A`` (no input group: fires once)."""

    name = "join-commutativity"

    def apply(self, engine, group, mexpr, matched):
        if matched or mexpr.kind != MExpr.JOIN:
            return (), 1
        flipped = [predicate.flipped() for predicate in mexpr.predicates]
        return [MExpr.join(mexpr.right_key, mexpr.left_key, flipped)], 1


class JoinAssociativityLeft(TransformationRule):
    """``(A join B) join C  ->  A join (B join C)``.

    Matching is structural on the memo: the rule fires for every join
    m-expr of the *left input group*, possibly creating the group for
    ``B join C`` (which the engine seeds and schedules for
    exploration).  Cross products are rejected: both the new inner and
    the new outer join must be connected by at least one predicate.
    """

    name = "join-associativity-left"

    def apply(self, engine, group, mexpr, matched):
        if mexpr.kind != MExpr.JOIN or mexpr.left_key[0] != "join":
            return (), 0
        results = []
        inners = engine.memo.group(mexpr.left_key).mexprs[matched:]
        right_relations = engine.relations_of(mexpr.right_key)
        for inner in inners:
            if inner.kind != MExpr.JOIN:
                continue
            a_key = inner.left_key
            b_relations = engine.relations_of(inner.right_key)
            bc_relations = b_relations | right_relations
            inner_predicates = engine.cross_predicates(
                b_relations, right_relations
            )
            if not inner_predicates:
                continue
            a_relations = engine.relations_of(a_key)
            outer_predicates = engine.cross_predicates(
                a_relations, bc_relations
            )
            if not outer_predicates:
                continue
            bc_key = engine.ensure_join_group(
                bc_relations, inner.right_key, mexpr.right_key, inner_predicates
            )
            results.append(MExpr.join(a_key, bc_key, outer_predicates))
        return results, matched + len(inners)


class JoinAssociativityRight(TransformationRule):
    """``A join (B join C)  ->  (A join B) join C`` (the mirror)."""

    name = "join-associativity-right"

    def apply(self, engine, group, mexpr, matched):
        if mexpr.kind != MExpr.JOIN or mexpr.right_key[0] != "join":
            return (), 0
        results = []
        inners = engine.memo.group(mexpr.right_key).mexprs[matched:]
        left_relations = engine.relations_of(mexpr.left_key)
        for inner in inners:
            if inner.kind != MExpr.JOIN:
                continue
            b_relations = engine.relations_of(inner.left_key)
            c_key = inner.right_key
            ab_relations = left_relations | b_relations
            inner_predicates = engine.cross_predicates(
                left_relations, b_relations
            )
            if not inner_predicates:
                continue
            c_relations = engine.relations_of(c_key)
            outer_predicates = engine.cross_predicates(
                ab_relations, c_relations
            )
            if not outer_predicates:
                continue
            ab_key = engine.ensure_join_group(
                ab_relations, mexpr.left_key, inner.left_key, inner_predicates
            )
            results.append(MExpr.join(ab_key, c_key, outer_predicates))
        return results, matched + len(inners)


DEFAULT_TRANSFORMATION_RULES = (
    JoinCommutativity(),
    JoinAssociativityLeft(),
    JoinAssociativityRight(),
)


# ======================================================================
# Implementation rules
# ======================================================================


class ImplementationRule:
    """Base class: maps a logical m-expr to physical plan candidates.

    ``build`` returns a list of candidate plans whose delivered
    properties satisfy ``prop``; it may call back into the engine for
    input plans (which are memoized winners, possibly robust
    choose-plan nodes in dynamic mode).
    """

    name = "implementation"
    #: the m-expr kind the rule implements; the engine only offers it those
    kind = None

    def build(self, engine, group, mexpr, prop):
        """Candidate physical plans for the m-expr under ``prop``."""
        raise NotImplementedError


class GetSetToFileScan(ImplementationRule):
    """Get-Set -> File-Scan (no delivered order)."""

    name = "getset-filescan"
    kind = MExpr.GETSET

    def build(self, engine, group, mexpr, prop):
        if not prop.is_any:
            return []
        return [FileScan(mexpr.relation_name)]


class GetSetToBTreeScan(ImplementationRule):
    """Get-Set -> B-tree-Scan (delivers order on the indexed attribute).

    Under "any order" only *interesting* attributes are scanned (the
    query's selection and join attributes of the relation), mirroring
    System R's interesting orders; under a sort requirement the scan on
    exactly that attribute is generated when an index exists.
    """

    name = "getset-btreescan"
    kind = MExpr.GETSET

    def build(self, engine, group, mexpr, prop):
        relation = mexpr.relation_name
        if prop.is_any:
            attributes = engine.interesting_attributes(relation)
        else:
            relation_of = prop.sorted_on.split(".", 1)[0]
            if relation_of != relation:
                return []
            attributes = [prop.sorted_on.split(".", 1)[1]]
        plans = []
        for attribute in attributes:
            if engine.catalog.index_on(relation, attribute) is not None:
                plans.append(BTreeScan(relation, attribute))
        return plans


class SelectToFilter(ImplementationRule):
    """Select -> Filter over the base group's winner (same property)."""

    name = "select-filter"
    kind = MExpr.SELECT

    def build(self, engine, group, mexpr, prop):
        predicate = engine.query.selection_for(mexpr.relation_name)
        entry = engine.best(mexpr.left_key, prop)
        if entry is None:
            return []
        return [Filter(entry.plan, predicate)]


class SelectToFilterBTreeScan(ImplementationRule):
    """Select -> Filter-B-tree-Scan (sargable index scan).

    Requires an index on the predicate's attribute and a range- or
    equality-comparison; delivers order on that attribute.
    """

    name = "select-filter-btreescan"
    kind = MExpr.SELECT

    SARGABLE_OPS = frozenset(("=", "<", "<=", ">", ">="))

    def build(self, engine, group, mexpr, prop):
        relation = mexpr.relation_name
        predicate = engine.query.selection_for(relation)
        attribute = predicate.attribute.split(".", 1)[1]
        if predicate.comparison.op.value not in self.SARGABLE_OPS:
            return []
        if engine.catalog.index_on(relation, attribute) is None:
            return []
        if not prop.is_any:
            if prop.sorted_on != "%s.%s" % (relation, attribute):
                return []
        return [FilterBTreeScan(relation, attribute, predicate)]


class JoinToHashJoin(ImplementationRule):
    """Join -> Hash-Join (left input builds; commutativity supplies the
    mirrored m-expr, so both build sides are considered)."""

    name = "join-hashjoin"
    kind = MExpr.JOIN

    def build(self, engine, group, mexpr, prop):
        if not prop.is_any:
            return []
        left = engine.best(mexpr.left_key, PhysicalProperty.any())
        if left is None or engine.partial_prune(left.cost):
            return []
        right = engine.best(mexpr.right_key, PhysicalProperty.any())
        if right is None:
            return []
        return [HashJoin(left.plan, right.plan, mexpr.predicates)]


class JoinToMergeJoin(ImplementationRule):
    """Join -> Merge-Join, requiring both inputs sorted on the join
    attributes of the primary predicate (delivered downstream).

    Paper Section 3's "two merge-join orders" cost the same function,
    bit for bit: the formula is symmetric in the two memoized inputs.
    Unless ``keep_equal_cost_plans`` is set, the second order builds
    nothing, so no choose-plan carries a twin it could never pick.
    """

    name = "join-mergejoin"
    kind = MExpr.JOIN

    def build(self, engine, group, mexpr, prop):
        if not engine.config.keep_equal_cost_plans and _commutes_earlier(group, mexpr):
            return []
        primary = mexpr.predicates[0]
        if not prop.is_any:
            if prop.sorted_on not in (
                primary.left_attribute,
                primary.right_attribute,
            ):
                return []
        left = engine.best(
            mexpr.left_key, PhysicalProperty.sorted(primary.left_attribute)
        )
        if left is None or engine.partial_prune(left.cost):
            return []
        right = engine.best(
            mexpr.right_key, PhysicalProperty.sorted(primary.right_attribute)
        )
        if right is None:
            return []
        return [MergeJoin(left.plan, right.plan, mexpr.predicates)]


def _commutes_earlier(group, mexpr):
    """Whether ``group`` holds ``mexpr`` with its inputs swapped before
    ``mexpr`` itself, over the same predicates in the same order (a
    join's selectivity divides by each in turn)."""
    position = group.position((MExpr.JOIN, mexpr.right_key, mexpr.left_key))
    return (
        position is not None
        and position < group.position(mexpr.identity())
        and group.mexprs[position].predicates == mexpr.predicates
    )


class JoinToIndexJoin(ImplementationRule):
    """Join -> Index-Join when the right side is a single relation with
    an index on its join attribute.

    The inner relation's selection predicate (if any) becomes the
    residual predicate applied after each index fetch.  Delivers the
    outer input's sort order, so under a sort requirement the outer is
    asked for that order.
    """

    name = "join-indexjoin"
    kind = MExpr.JOIN

    def build(self, engine, group, mexpr, prop):
        right_relations = engine.relations_of(mexpr.right_key)
        if len(right_relations) != 1:
            return []
        inner_relation = next(iter(right_relations))
        primary = mexpr.predicates[0]
        inner_attribute_qualified = primary.attribute_for(inner_relation)
        if inner_attribute_qualified is None:
            return []
        inner_attribute = inner_attribute_qualified.split(".", 1)[1]
        if engine.catalog.index_on(inner_relation, inner_attribute) is None:
            return []
        if prop.is_any:
            outer_prop = PhysicalProperty.any()
        else:
            relation_of = prop.sorted_on.split(".", 1)[0]
            if relation_of not in engine.relations_of(mexpr.left_key):
                return []
            outer_prop = prop
        outer = engine.best(mexpr.left_key, outer_prop)
        if outer is None or engine.partial_prune(outer.cost):
            return []
        residual = engine.query.selection_for(inner_relation)
        return [
            IndexJoin(
                outer.plan,
                inner_relation,
                inner_attribute,
                mexpr.predicates,
                residual_predicate=residual,
            )
        ]


class SortEnforcer(ImplementationRule):
    """Enforce a sort order on the group's unordered winner.

    Not tied to any m-expr kind: the engine invokes it once per
    (group, sorted-property) pair.
    """

    name = "sort-enforcer"

    def build(self, engine, group, mexpr, prop):
        if prop.is_any:
            return []
        base = engine.best(group.key, PhysicalProperty.any())
        if base is None:
            return []
        return [Sort(base.plan, prop.sorted_on)]


DEFAULT_IMPLEMENTATION_RULES = (
    GetSetToFileScan(),
    GetSetToBTreeScan(),
    SelectToFilter(),
    SelectToFilterBTreeScan(),
    JoinToHashJoin(),
    JoinToMergeJoin(),
    JoinToIndexJoin(),
)
