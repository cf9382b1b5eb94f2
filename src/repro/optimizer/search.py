"""The search engine: top-down memoizing dynamic programming extended
for partially ordered costs (paper Sections 3 and 5).

Differences from a traditional Volcano-style engine, all induced by
cost incomparability:

* per (group, physical property) the engine retains the full set of
  *potentially optimal* plans — plans whose cost intervals pairwise
  overlap — instead of a single winner;
* when that set has more than one member, the plans are linked by a
  choose-plan operator (the plan-robustness enforcer) and the robust
  plan is what parent operators consume;
* branch-and-bound pruning counts only guaranteed (lower-bound) cost
  and can discard a candidate only when its lower bound exceeds the
  smallest known upper bound, which is why dynamic-plan
  optimization is measurably slower than static optimization
  (Figure 5).
"""

import time

from repro.algebra.physical import ChoosePlan
from repro.common.errors import OptimizationError
from repro.common.ordering import PartialOrder
from repro.common.rng import make_rng
from repro.cost.formulas import CostModel
from repro.cost.model import compare_costs
from repro.cost.parameters import Bindings, Valuation
from repro.optimizer.config import OptimizerConfig
from repro.optimizer.memo import Memo, MExpr, base_key, join_key, select_key
from repro.optimizer.properties import PhysicalProperty
from repro.optimizer.rules import (
    DEFAULT_IMPLEMENTATION_RULES,
    DEFAULT_TRANSFORMATION_RULES,
    SortEnforcer,
)

_IN_PROGRESS = object()
_UNSET = object()

# Bound once for _prune, which compares ~8k cost pairs per 10-way query.
_LESS, _GREATER = PartialOrder.LESS, PartialOrder.GREATER
_EQUAL, _INCOMPARABLE = PartialOrder.EQUAL, PartialOrder.INCOMPARABLE


class PlanEntry:
    """Winner for one (group, property): a robust plan and its cost."""

    __slots__ = ("plan", "result", "alternatives")

    def __init__(self, plan, result, alternatives):
        self.plan = plan
        self.result = result
        #: the incomparable candidate set behind the robust plan
        self.alternatives = alternatives

    @property
    def cost(self):
        """Cost interval of the (robust) plan."""
        return self.result.cost

    def __repr__(self):
        return "PlanEntry(%d alternatives, cost=%r)" % (
            len(self.alternatives),
            self.cost,
        )


class SearchStatistics:
    """Counters describing one optimization run."""

    def __init__(self):
        self.groups_created = 0
        self.mexprs_total = 0
        self.rule_applications = 0
        self.candidates_considered = 0
        self.pruned_by_bound = 0
        self.pruned_by_dominance = 0
        self.pruned_by_multipoint = 0
        self.winners_computed = 0
        self.cost_evaluations = 0
        self.optimization_seconds = 0.0

    def as_dict(self):
        """All counters as a plain dict (for reports)."""
        return {
            "groups_created": self.groups_created,
            "mexprs_total": self.mexprs_total,
            "rule_applications": self.rule_applications,
            "candidates_considered": self.candidates_considered,
            "pruned_by_bound": self.pruned_by_bound,
            "pruned_by_dominance": self.pruned_by_dominance,
            "pruned_by_multipoint": self.pruned_by_multipoint,
            "winners_computed": self.winners_computed,
            "cost_evaluations": self.cost_evaluations,
            "optimization_seconds": self.optimization_seconds,
        }

    def __repr__(self):
        return "SearchStatistics(%r)" % (self.as_dict(),)


class OptimizationResult:
    """Everything an optimization run produces.

    ``bounds_only`` says the run read nothing of the query beyond its
    :func:`~repro.optimizer.query.input_signature`: it costed over the
    compile-time bounds, without the multipoint heuristic (whose samples
    are seeded with the query name).  Static mode and runtime
    valuations read expected values or bindings, so their runs are not.
    """

    def __init__(
        self,
        plan,
        entry,
        query,
        config,
        memo,
        statistics,
        root_key,
        bounds_only=False,
    ):
        self.plan = plan
        self.entry = entry
        self.query = query
        self.config = config
        self.memo = memo
        self.statistics = statistics
        self.root_key = root_key
        self.bounds_only = bounds_only

    @property
    def cost(self):
        """Compile-time cost interval of the produced plan."""
        return self.entry.cost

    def node_count(self):
        """Operator nodes in the plan DAG (the Figure 6 metric)."""
        return self.plan.node_count()

    def choose_plan_count(self):
        """Choose-plan operators in the plan DAG."""
        return self.plan.choose_plan_count()

    def logical_alternatives(self):
        """Distinct logical join trees encoded in the memo."""
        return self.memo.logical_tree_count(self.root_key)

    def __repr__(self):
        return (
            "OptimizationResult(%s, cost=%r, nodes=%d, choose_plans=%d)"
            % (
                self.query.name,
                self.cost,
                self.node_count(),
                self.choose_plan_count(),
            )
        )


class SearchEngine:
    """A generated optimizer: catalog + rules + cost model + search."""

    def __init__(
        self,
        catalog,
        config=None,
        transformation_rules=DEFAULT_TRANSFORMATION_RULES,
        implementation_rules=DEFAULT_IMPLEMENTATION_RULES,
    ):
        self.catalog = catalog
        self.config = config if config is not None else OptimizerConfig()
        self.transformation_rules = tuple(transformation_rules)
        self.implementation_rules = tuple(implementation_rules)
        self._implementations = {}
        for rule in self.implementation_rules:
            self._implementations.setdefault(rule.kind, []).append(rule)
        self.sort_enforcer = SortEnforcer()
        # Per-run state, initialized by optimize():
        self.query = None
        self.memo = None
        self.cost_model = None
        self.stats = None
        self._upper_stack = []
        self._sample_models = None
        # Exploration state, reset by _explore_all():
        self._exploration_dirty = False
        self._cross_predicates = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def optimize(self, query, valuation=None):
        """Optimize a query; returns an :class:`OptimizationResult`.

        ``valuation`` defaults to the mode-appropriate one: expected
        values for static mode, compile-time bounds otherwise.  Passing
        a runtime valuation performs run-time optimization (the
        paper's second scenario).
        """
        started = time.perf_counter()
        self.query = query
        if valuation is None:
            if self.config.is_static:
                valuation = Valuation.expected(query.parameter_space)
            else:
                valuation = Valuation.bounds(query.parameter_space)
        self.cost_model = CostModel(
            self.catalog,
            valuation,
            choose_plan_overhead=self.config.choose_plan_overhead,
        )
        self.memo = Memo()
        self.stats = SearchStatistics()
        self._upper_stack = []
        self._sample_models = None

        root_key = self._build_initial_groups(query)
        self._explore_all()
        entry = self.best(root_key, PhysicalProperty.any())
        if entry is None:
            raise OptimizationError("no plan found for query %r" % query.name)
        if query.projection is not None:
            # Projection is decoration: apply it once above the winner.
            from repro.algebra.physical import Project

            projected = Project(entry.plan, query.projection)
            result = self.cost_model.evaluate(projected)
            entry = PlanEntry(projected, result, entry.alternatives)

        self.stats.groups_created = self.memo.group_count()
        self.stats.mexprs_total = self.memo.mexpr_count()
        self.stats.cost_evaluations = self.cost_model.evaluations
        self.stats.optimization_seconds = time.perf_counter() - started
        bounds_only = (
            valuation.is_bounds
            and not self.config.is_static
            and not self.config.multipoint_heuristic
        )
        return OptimizationResult(
            entry.plan,
            entry,
            query,
            self.config,
            self.memo,
            self.stats,
            root_key,
            bounds_only=bounds_only,
        )

    # ------------------------------------------------------------------
    # Memo construction and exploration
    # ------------------------------------------------------------------

    def relations_of(self, key):
        """Relation set represented by a group key."""
        if key[0] == "join":
            return key[1]
        return frozenset((key[1],))

    def top_key_for_relation(self, relation_name):
        """Key of the topmost group of a single relation."""
        if self.query.selection_for(relation_name) is not None:
            return select_key(relation_name)
        return base_key(relation_name)

    def interesting_attributes(self, relation_name):
        """Attributes of a relation worth an ordered scan.

        The query's selection attribute and every join attribute the
        relation contributes — our rendering of System R's
        "interesting orders".
        """
        attributes = set()
        predicate = self.query.selection_for(relation_name)
        if predicate is not None:
            attributes.add(predicate.attribute.split(".", 1)[1])
        for join_predicate in self.query.join_predicates:
            for qualified in (
                join_predicate.left_attribute,
                join_predicate.right_attribute,
            ):
                relation, attribute = qualified.split(".", 1)
                if relation == relation_name:
                    attributes.add(attribute)
        return sorted(attributes)

    def _build_initial_groups(self, query):
        """Create leaf groups and a connected initial join tree."""
        for relation_name in query.relations:
            if not self.catalog.has_relation(relation_name):
                raise OptimizationError(
                    "query references unknown relation %r" % relation_name
                )
            group, _ = self.memo.get_or_create(base_key(relation_name))
            group.add_mexpr(MExpr.getset(relation_name))
            if query.selection_for(relation_name) is not None:
                sgroup, _ = self.memo.get_or_create(select_key(relation_name))
                sgroup.add_mexpr(
                    MExpr.select(relation_name, base_key(relation_name))
                )

        if len(query.relations) == 1:
            return self.top_key_for_relation(query.relations[0])

        order = self._connected_order(query)
        accumulated = frozenset((order[0],))
        left_key = self.top_key_for_relation(order[0])
        for relation_name in order[1:]:
            right_key = self.top_key_for_relation(relation_name)
            predicates = query.cross_predicates(
                accumulated, frozenset((relation_name,))
            )
            accumulated = accumulated | {relation_name}
            left_key = self.ensure_join_group(
                accumulated, left_key, right_key, predicates
            )
        return left_key

    def _connected_order(self, query):
        """Relation order whose every prefix is join-connected (BFS)."""
        remaining = list(query.relations)
        order = [remaining.pop(0)]
        placed = {order[0]}
        while remaining:
            for index, candidate in enumerate(remaining):
                if query.cross_predicates(placed, frozenset((candidate,))):
                    order.append(candidate)
                    placed.add(candidate)
                    remaining.pop(index)
                    break
            else:
                raise OptimizationError(
                    "join graph is disconnected; cannot order relations"
                )
        return order

    def ensure_join_group(self, relations, left_key, right_key, predicates):
        """Get or create a join group, seeding it with one split.

        New groups are scheduled for rule exploration, so the closure
        of commutativity and associativity reaches every connected
        split of every connected subset.
        """
        key = join_key(relations)
        group, created = self.memo.get_or_create(key)
        seed = group.add_mexpr(MExpr.join(left_key, right_key, predicates))
        if created or seed is not None:
            self._exploration_dirty = True
        return key

    def cross_predicates(self, left_set, right_set):
        """:meth:`QuerySpec.cross_predicates`, memoized for this run:
        associativity asks for the same few hundred pairs of relation
        sets thousands of times.  Kept on the engine, not the query — a
        cached plan's query would carry the dictionary for its lifetime.
        """
        key = (left_set, right_set)
        predicates = self._cross_predicates.get(key)
        if predicates is None:
            predicates = tuple(self.query.cross_predicates(left_set, right_set))
            self._cross_predicates[key] = predicates
        return predicates

    def _explore_all(self):
        """Apply transformation rules to a global fixpoint.

        A single worklist pass is not enough: associativity matches
        against the *current* m-exprs of an input group, and a group
        may gain m-exprs after its parents were processed (pronounced
        on star and cycle join graphs).  We therefore sweep all groups
        repeatedly until no rule adds anything — memoized deduplication
        in :meth:`Group.add_mexpr` guarantees termination.

        Sweeps after the first are incremental: each (m-expr, rule)
        pair resumes at its cursor into the rule's input group (see
        :class:`~repro.optimizer.rules.TransformationRule`), so a sweep
        costs what was added since the last one.  What a cursor skips
        was produced by an earlier sweep and would be rejected as a
        duplicate now, so groups and their m-exprs come out in the order
        a full re-match gives — the order candidates, choose-plan
        alternatives and first-wins ties all inherit.
        """
        self._cross_predicates = {}
        cursors = {}
        rules = self.transformation_rules
        self._exploration_dirty = True
        while self._exploration_dirty:
            self._exploration_dirty = False
            for group in self.memo.groups():
                for mexpr in list(group.mexprs):
                    for rule in rules:
                        pair = (mexpr, rule)
                        produced, cursors[pair] = rule.apply(
                            self, group, mexpr, cursors.get(pair, 0)
                        )
                        for new in produced:
                            self.stats.rule_applications += 1
                            if group.add_mexpr(new) is not None:
                                self._exploration_dirty = True

    # ------------------------------------------------------------------
    # Physical optimization
    # ------------------------------------------------------------------

    def best(self, key, prop):
        """The winner (robust plan) for a group under a property.

        Returns ``None`` when the property is unsatisfiable for the
        group (e.g. an order on an attribute of another relation).
        """
        group = self.memo.group(key)
        prop_key = prop.key()
        cached = group.winners.get(prop_key, _UNSET)
        if cached is _IN_PROGRESS:
            raise OptimizationError(
                "cyclic property requirement on group %r" % (key,)
            )
        if cached is not _UNSET:
            return cached
        if not self._property_feasible(group, prop):
            group.winners[prop_key] = None
            return None
        group.winners[prop_key] = _IN_PROGRESS

        self._upper_stack.append(float("inf"))
        try:
            candidates = []
            implementations = self._implementations
            for mexpr in list(group.mexprs):
                for rule in implementations.get(mexpr.kind, ()):
                    for plan in rule.build(self, group, mexpr, prop):
                        self._consider(candidates, plan, prop)
            for plan in self.sort_enforcer.build(self, group, None, prop):
                self._consider(candidates, plan, prop)
        finally:
            self._upper_stack.pop()

        entries = self._prune(candidates)
        entry = self._finalize(entries)
        group.winners[prop_key] = entry
        self.stats.winners_computed += 1
        return entry

    def _property_feasible(self, group, prop):
        """Quick reject: a sort order must name an attribute of the group."""
        if prop.is_any:
            return True
        relation = prop.sorted_on.split(".", 1)[0]
        return relation in group.relations

    def _consider(self, candidates, plan, prop):
        """Cost a candidate, apply bound pruning, and collect it."""
        self.stats.candidates_considered += 1
        result = self.cost_model.evaluate(plan)
        if not prop.satisfied_by(result.sort_orders):
            return
        upper = self._upper_stack[-1]
        if self.config.branch_and_bound and result.cost.lower > upper:
            # Only the guaranteed lower bound may be compared against
            # the best known upper bound — the paper's weakened pruning.
            self.stats.pruned_by_bound += 1
            return
        candidates.append((plan, result))
        if result.cost.upper < upper:
            self._upper_stack[-1] = result.cost.upper

    def partial_prune(self, partial_cost):
        """Bound check usable by rules mid-construction (left input done).

        Returns True when a candidate whose inputs already cost
        ``partial_cost.lower`` can be discarded — with interval costs
        only the guaranteed lower bound counts, the paper's weakened
        pruning; with point costs (static mode) this is traditional
        branch-and-bound, which is what makes static optimization
        measurably faster (Figure 5).
        """
        if not self.config.branch_and_bound or not self._upper_stack:
            return False
        if partial_cost.lower > self._upper_stack[-1]:
            self.stats.pruned_by_bound += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Pruning with partially ordered costs
    # ------------------------------------------------------------------

    def _prune(self, candidates):
        """Keep only potentially optimal candidates.

        A candidate is discarded when another candidate's cost is
        certainly no greater (LESS, or EQUAL under static/tie-breaking
        rules), or — with the optional Section 3 heuristic — when it
        is more expensive at every sampled parameter setting.
        """
        exhaustive = self.config.is_exhaustive
        multipoint = self.config.multipoint_heuristic and not exhaustive
        kept = []
        for plan, result in candidates:
            cost = result.cost
            lower = cost.lower
            upper = cost.upper
            dominated = False
            survivors = []
            for pair in kept:
                if dominated:
                    survivors.append(pair)
                    continue
                kept_cost = pair[1].cost
                if exhaustive:
                    relation = compare_costs(kept_cost, cost, exhaustive=True)
                # Otherwise kept_cost.compare(cost), on the four bounds:
                elif kept_cost.upper < lower:
                    relation = _LESS
                elif upper < kept_cost.lower:
                    relation = _GREATER
                elif lower == upper == kept_cost.lower == kept_cost.upper:
                    relation = _EQUAL
                else:
                    relation = _INCOMPARABLE
                if relation is _INCOMPARABLE and not multipoint:
                    survivors.append(pair)
                elif relation is _LESS:
                    dominated = True
                    survivors.append(pair)
                elif relation is _EQUAL:
                    if self._drop_equal():
                        dominated = True
                    survivors.append(pair)
                elif relation is _GREATER:
                    self.stats.pruned_by_dominance += 1
                    # kept plan is strictly worse; drop it
                elif self._multipoint_beats(pair[0], plan):
                    dominated = True
                    self.stats.pruned_by_multipoint += 1
                    survivors.append(pair)
                elif self._multipoint_beats(plan, pair[0]):
                    self.stats.pruned_by_multipoint += 1
                else:
                    survivors.append(pair)
            if dominated:
                self.stats.pruned_by_dominance += 1
            else:
                survivors.append((plan, result))
            kept = survivors
        return kept

    def _drop_equal(self):
        """Whether exactly-equal-cost plans are tie-broken away."""
        if self.config.is_static:
            return True
        return not self.config.keep_equal_cost_plans

    def _multipoint_beats(self, plan_a, plan_b):
        """Section 3 heuristic: does A beat B at every sampled binding?"""
        strictly_better = False
        for model in self._sampled_models():
            cost_a = model.evaluate(plan_a).cost.lower
            cost_b = model.evaluate(plan_b).cost.lower
            if cost_a > cost_b:
                return False
            if cost_a < cost_b:
                strictly_better = True
        return strictly_better

    def _sampled_models(self):
        """Cost models at sampled parameter settings (built lazily)."""
        if self._sample_models is None:
            rng = make_rng(0, "multipoint", self.query.name)
            space = self.query.parameter_space
            models = []
            for _ in range(self.config.multipoint_samples):
                bindings = Bindings()
                for name in space.uncertain_names():
                    bounds = space.get(name).bounds
                    bindings.bind(name, rng.uniform(bounds.lower, bounds.upper))
                valuation = Valuation.runtime(space, bindings)
                models.append(
                    CostModel(
                        self.catalog,
                        valuation,
                        choose_plan_overhead=self.config.choose_plan_overhead,
                    )
                )
            self._sample_models = models
        return self._sample_models

    # ------------------------------------------------------------------
    # Winner finalization (choose-plan insertion)
    # ------------------------------------------------------------------

    def _finalize(self, entries):
        """Turn the surviving candidate set into a winner entry.

        Static mode demands a single plan; dynamic mode links multiple
        incomparable plans with a choose-plan operator whose cost is
        the minimum envelope plus decision overhead.
        """
        if not entries:
            return None
        if len(entries) == 1:
            plan, result = entries[0]
            return PlanEntry(plan, result, entries)
        if self.config.is_static:
            # A total order is expected; pick the cheapest point.
            entries = sorted(entries, key=lambda pair: pair[1].cost.lower)
            plan, result = entries[0]
            return PlanEntry(plan, result, [entries[0]])
        choose = ChoosePlan([plan for plan, _ in entries])
        result = self.cost_model.evaluate(choose)
        return PlanEntry(choose, result, entries)
