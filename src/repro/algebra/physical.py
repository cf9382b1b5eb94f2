"""The physical algebra: executable plan operators (paper Table 1).

Physical plans are directed acyclic graphs (DAGs), *not* trees: the
paper stresses that alternative plans linked by choose-plan operators
share common subplans, which keeps both the access-module size and
the start-up cost evaluation sub-exponential.  Sharing happens simply
by letting several parents reference the same node object; node
counting and serialization (``repro.executor.access_module``) are
id-aware.

After optimization each node carries annotations:

* ``cost`` — compile-time cost :class:`~repro.common.intervals.Interval`;
* ``cardinality`` — output cardinality interval;
* ``sort_order`` — qualified attribute the output is sorted on, or ``None``.
"""

import hashlib

from repro.common.errors import PlanError


class PhysicalPlan:
    """Base class for physical operators."""

    #: Class-level default annotations so unannotated plans are usable.
    cost = None
    cardinality = None
    sort_order = None

    def inputs(self):
        """Input plans, left to right."""
        raise NotImplementedError

    def operator_name(self):
        """Human-readable operator name matching the paper's Table 1."""
        return type(self).__name__

    def annotate(self, cost=None, cardinality=None, sort_order=None):
        """Attach optimizer annotations; returns self for chaining."""
        if cost is not None:
            self.cost = cost
        if cardinality is not None:
            self.cardinality = cardinality
        self.sort_order = sort_order
        return self

    def walk_unique(self):
        """Yield each distinct node of the DAG exactly once (pre-order)."""
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(reversed(node.inputs()))

    def node_count(self):
        """Number of distinct operator nodes in the DAG.

        This is the paper's plan-size metric (Figure 6): "a count of
        operator nodes in the directed acyclic graph".
        """
        return sum(1 for _ in self.walk_unique())

    def tree_node_count(self, _memo=None):
        """Node count if the DAG were expanded to a tree (no sharing).

        Used by the DAG-vs-tree ablation benchmark to show how much
        sharing saves.  Computed by dynamic programming over the DAG —
        the count itself grows exponentially with plan depth, but the
        computation stays linear in the number of distinct nodes.
        """
        if _memo is None:
            _memo = {}
        cached = _memo.get(id(self))
        if cached is not None:
            return cached
        total = 1
        for child in self.inputs():
            total += child.tree_node_count(_memo)
        _memo[id(self)] = total
        return total

    def choose_plan_count(self):
        """Number of choose-plan operators in the DAG."""
        return sum(
            1 for node in self.walk_unique() if isinstance(node, ChoosePlan)
        )

    def signature(self, _memo=None):
        """Structural identity of the plan, stable across processes."""
        if _memo is None:
            _memo = {}
        cached = _memo.get(id(self))
        if cached is not None:
            return cached
        result = (
            self.operator_name(),
            self._local_signature(),
            tuple(child.signature(_memo) for child in self.inputs()),
        )
        _memo[id(self)] = result
        return result

    def digest(self, _memo=None):
        """Fixed-size hash of what :meth:`signature` nests: each node is
        described by its inputs' digests instead of their signatures.

        Printing the nested signature tuple itself expands the shared
        DAG into a tree, exponential in plan width; digests of several
        nodes of one DAG under one ``_memo`` stay linear in its size.
        Equal signatures have equal digests.
        """
        if _memo is None:
            _memo = {}
        cached = _memo.get(id(self))
        if cached is None:
            text = repr(
                (
                    self.operator_name(),
                    self._local_digest(_memo),
                    tuple(child.digest(_memo) for child in self.inputs()),
                )
            )
            cached = hashlib.sha256(text.encode("utf-8")).hexdigest()
            _memo[id(self)] = cached
        return cached

    def _local_signature(self):
        """Node-local parameters contributing to the signature."""
        return ()

    def _local_digest(self, memo):
        """:meth:`_local_signature` with any nested plan digested."""
        return self._local_signature()

    def __repr__(self):
        return "%s(%s)" % (
            self.operator_name(),
            ", ".join(repr(child) for child in self.inputs()),
        )


# ----------------------------------------------------------------------
# Data retrieval
# ----------------------------------------------------------------------


class FileScan(PhysicalPlan):
    """Sequential scan of a stored relation (Get-Set → File-Scan)."""

    def __init__(self, relation_name):
        self.relation_name = relation_name

    def inputs(self):
        return ()

    def operator_name(self):
        return "File-Scan"

    def _local_signature(self):
        return (self.relation_name,)

    def __repr__(self):
        return "File-Scan(%s)" % self.relation_name


class BTreeScan(PhysicalPlan):
    """Full scan through a B-tree in key order (Get-Set → B-tree-Scan).

    Delivers its output sorted on the indexed attribute; unclustered,
    so every record costs a heap-page fetch.
    """

    def __init__(self, relation_name, attribute):
        self.relation_name = relation_name
        self.attribute = attribute

    def inputs(self):
        return ()

    def operator_name(self):
        return "B-tree-Scan"

    def _local_signature(self):
        return (self.relation_name, self.attribute)

    def __repr__(self):
        return "B-tree-Scan(%s.%s)" % (self.relation_name, self.attribute)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


class Filter(PhysicalPlan):
    """Apply a predicate to an input stream (Select → Filter)."""

    def __init__(self, input, predicate):
        self.input = input
        self.predicate = predicate

    def inputs(self):
        return (self.input,)

    def operator_name(self):
        return "Filter"

    def _local_signature(self):
        return (repr(self.predicate),)

    def __repr__(self):
        return "Filter(%r, %r)" % (self.predicate.comparison, self.input)


class FilterBTreeScan(PhysicalPlan):
    """Sargable index scan (Select → Filter-B-tree-Scan).

    Uses the B-tree on the predicate's attribute to visit only
    qualifying keys, then fetches each matching record from the heap —
    the plan that wins at low selectivity and loses badly at high
    selectivity (the paper's motivating example).  Output is sorted on
    the indexed attribute.
    """

    def __init__(self, relation_name, attribute, predicate):
        self.relation_name = relation_name
        self.attribute = attribute
        self.predicate = predicate

    def inputs(self):
        return ()

    def operator_name(self):
        return "Filter-B-tree-Scan"

    def _local_signature(self):
        return (self.relation_name, self.attribute, repr(self.predicate))

    def __repr__(self):
        return "Filter-B-tree-Scan(%s.%s, %r)" % (
            self.relation_name,
            self.attribute,
            self.predicate.comparison,
        )


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------


class _JoinBase(PhysicalPlan):
    """Shared plumbing for the two-input join algorithms."""

    def __init__(self, left, right, predicates):
        if isinstance(predicates, (list, tuple)):
            self.predicates = tuple(predicates)
        else:
            self.predicates = (predicates,)
        if not self.predicates:
            raise PlanError("a join needs at least one predicate")
        self.left = left
        self.right = right

    def inputs(self):
        return (self.left, self.right)

    @property
    def predicate(self):
        """The primary (first) join predicate."""
        return self.predicates[0]

    def _local_signature(self):
        return tuple(sorted(repr(p) for p in self.predicates))


class HashJoin(_JoinBase):
    """Hash join; the **left** input is the build side (paper §2).

    Performs much better when the smaller input builds the hash table,
    which is exactly the decision the paper's Figure 2 delays until
    start-up time.
    """

    def operator_name(self):
        return "Hash-Join"

    @property
    def build(self):
        """The build input (left by convention)."""
        return self.left

    @property
    def probe(self):
        """The probe input (right by convention)."""
        return self.right

    def __repr__(self):
        return "Hash-Join(build=%r, probe=%r)" % (self.left, self.right)


class MergeJoin(_JoinBase):
    """Merge join; both inputs must be sorted on the join attributes."""

    def operator_name(self):
        return "Merge-Join"

    def __repr__(self):
        return "Merge-Join(%r, %r)" % (self.left, self.right)


class IndexJoin(PhysicalPlan):
    """Index nested-loop join: probe the inner relation's B-tree per
    outer record (paper: Index-Join).

    The inner input is a base relation with a B-tree on its join
    attribute; ``residual_predicate`` (optional) re-applies the inner
    relation's selection after each fetch, letting Index-Join implement
    ``outer ⋈ σ(inner)`` without materializing the selection.
    """

    def __init__(
        self,
        outer,
        inner_relation,
        inner_attribute,
        predicates,
        residual_predicate=None,
    ):
        if isinstance(predicates, (list, tuple)):
            self.predicates = tuple(predicates)
        else:
            self.predicates = (predicates,)
        if not self.predicates:
            raise PlanError("an index join needs at least one predicate")
        self.outer = outer
        self.inner_relation = inner_relation
        self.inner_attribute = inner_attribute
        self.residual_predicate = residual_predicate

    def inputs(self):
        return (self.outer,)

    @property
    def predicate(self):
        """The primary join predicate."""
        return self.predicates[0]

    def operator_name(self):
        return "Index-Join"

    def _local_signature(self):
        return (
            self.inner_relation,
            self.inner_attribute,
            tuple(sorted(repr(p) for p in self.predicates)),
            repr(self.residual_predicate),
        )

    def __repr__(self):
        return "Index-Join(%r, %s.%s)" % (
            self.outer,
            self.inner_relation,
            self.inner_attribute,
        )


# ----------------------------------------------------------------------
# Enforcers
# ----------------------------------------------------------------------


class Sort(PhysicalPlan):
    """Sort enforcer: orders its input on one attribute."""

    def __init__(self, input, attribute):
        self.input = input
        self.attribute = attribute

    def inputs(self):
        return (self.input,)

    def operator_name(self):
        return "Sort"

    def _local_signature(self):
        return (self.attribute,)

    def __repr__(self):
        return "Sort(%s, %r)" % (self.attribute, self.input)


class Project(PhysicalPlan):
    """Attribute projection (Table 1: the Project logical operator).

    Pure per-record CPU work; applied above the chosen plan, never
    inside the search (it creates no alternatives).
    """

    def __init__(self, input, attributes):
        self.input = input
        self.attributes = tuple(attributes)
        if not self.attributes:
            raise PlanError("a projection needs at least one attribute")

    def inputs(self):
        return (self.input,)

    def operator_name(self):
        return "Project"

    def _local_signature(self):
        return self.attributes

    def __repr__(self):
        return "Project(%s, %r)" % (", ".join(self.attributes), self.input)


class Materialized(PhysicalPlan):
    """A temporary result produced at run time (paper Section 7).

    Created only at run time, as the checkpoint of each pipeline
    breaker :func:`~repro.executor.midquery.execute_midquery` drains
    ("evaluating subplans into temporary results"); replays the stored
    rows for free and reports their *observed* cardinality, which the
    remaining choose-plan decisions read.  Never appears in
    compile-time plans or access modules.
    """

    def __init__(self, rows, original, layout=None):
        #: The drained value tuples, a list kept as given.
        self.rows = rows
        self.original = original
        #: The :class:`~repro.storage.records.Layout` of ``rows``; only a
        #: checkpoint that is executed needs one.
        self.layout = layout

    def inputs(self):
        return ()

    def operator_name(self):
        return "Materialized"

    @property
    def observed_cardinality(self):
        """Actual record count of the temporary."""
        return len(self.rows)

    def _local_signature(self):
        return ("materialized", self.original.signature())

    def _local_digest(self, memo):
        return ("materialized", self.original.digest(memo))

    def __repr__(self):
        return "Materialized(%d records of %r)" % (
            len(self.rows),
            self.original.operator_name(),
        )


class ChoosePlan(PhysicalPlan):
    """Plan-robustness enforcer: the choose-plan operator.

    Links two or more equivalent alternative plans; at start-up time
    its decision procedure re-evaluates the alternatives' cost
    functions under the instantiated bindings and runs the cheapest
    (paper Section 4).
    """

    def __init__(self, alternatives):
        alternatives = tuple(alternatives)
        if len(alternatives) < 2:
            raise PlanError(
                "a choose-plan operator needs at least two alternatives"
            )
        self.alternatives = alternatives

    def inputs(self):
        return self.alternatives

    def operator_name(self):
        return "Choose-Plan"

    def __repr__(self):
        return "Choose-Plan[%d alternatives]" % len(self.alternatives)
