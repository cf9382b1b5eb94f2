"""Access modules: the stored form of optimized plans.

Production systems with compile-time optimization store plans in
"access modules" read at start-up (paper Sections 4 and 6).  An
:class:`AccessModule` serializes a plan DAG — shared subplans are
stored once and referenced by index, so module size is proportional to
the DAG's node count, the paper's plan-size metric.
"""

import json

from repro.algebra.expressions import (
    Comparison,
    ComparisonOp,
    JoinPredicate,
    Literal,
    SelectionPredicate,
    UserVariable,
)
from repro.algebra.physical import (
    BTreeScan,
    ChoosePlan,
    FileScan,
    Filter,
    FilterBTreeScan,
    HashJoin,
    IndexJoin,
    MergeJoin,
    Project,
    Sort,
)
from repro.common.errors import PlanError
from repro.common.units import access_module_read_seconds


# ----------------------------------------------------------------------
# Predicate (de)serialization
# ----------------------------------------------------------------------


def _operand_to_dict(operand):
    if isinstance(operand, UserVariable):
        return {"var": operand.name}
    return {"lit": operand.value}


def _operand_from_dict(data):
    if "var" in data:
        return UserVariable(data["var"])
    return Literal(data["lit"])


def _selection_to_dict(predicate, expected=None):
    """``expected``, when given, maps a selectivity parameter to the
    expected value written for it instead of the predicate's own."""
    if predicate is None:
        return None
    name = predicate.selectivity_parameter
    return {
        "attr": predicate.comparison.attribute,
        "op": predicate.comparison.op.value,
        "operand": _operand_to_dict(predicate.comparison.operand),
        "param": name,
        "known": predicate.known_selectivity,
        "bounds": [
            predicate.selectivity_bounds.lower,
            predicate.selectivity_bounds.upper,
        ],
        "expected": (expected or {}).get(name, predicate.expected_selectivity),
    }


def _selection_from_dict(data):
    if data is None:
        return None
    comparison = Comparison(
        data["attr"], ComparisonOp(data["op"]), _operand_from_dict(data["operand"])
    )
    return SelectionPredicate(
        comparison,
        selectivity_parameter=data["param"],
        known_selectivity=data["known"],
        selectivity_bounds=tuple(data["bounds"]),
        expected_selectivity=data["expected"],
    )


def _joins_to_list(predicates):
    return [[p.left_attribute, p.right_attribute] for p in predicates]


def _joins_from_list(data):
    return [JoinPredicate(left, right) for left, right in data]


# ----------------------------------------------------------------------
# Plan (de)serialization
# ----------------------------------------------------------------------


def _plan_to_nodes(plan, expected):
    """Topologically ordered node dicts; children precede parents."""
    order = []
    root = _append_nodes(plan, expected, order, {})
    return order, root


def _append_nodes(node, expected, order, index_of):
    """Append ``node``'s dict to ``order`` after its children's (each
    node once, ``index_of`` mapping ``id(node)`` to its index); its index."""
    if id(node) in index_of:
        return index_of[id(node)]
    child_indexes = [
        _append_nodes(child, expected, order, index_of) for child in node.inputs()
    ]
    data = _node_to_dict(node, child_indexes, expected)
    index_of[id(node)] = len(order)
    order.append(data)
    return index_of[id(node)]


def _node_to_dict(node, children, expected):
    if isinstance(node, FileScan):
        return {"op": "file-scan", "rel": node.relation_name}
    if isinstance(node, BTreeScan):
        return {"op": "btree-scan", "rel": node.relation_name, "attr": node.attribute}
    if isinstance(node, FilterBTreeScan):
        return {
            "op": "filter-btree-scan",
            "rel": node.relation_name,
            "attr": node.attribute,
            "pred": _selection_to_dict(node.predicate, expected),
        }
    if isinstance(node, Filter):
        return {
            "op": "filter",
            "pred": _selection_to_dict(node.predicate, expected),
            "in": children,
        }
    if isinstance(node, HashJoin):
        return {
            "op": "hash-join",
            "preds": _joins_to_list(node.predicates),
            "in": children,
        }
    if isinstance(node, MergeJoin):
        return {
            "op": "merge-join",
            "preds": _joins_to_list(node.predicates),
            "in": children,
        }
    if isinstance(node, IndexJoin):
        return {
            "op": "index-join",
            "rel": node.inner_relation,
            "attr": node.inner_attribute,
            "preds": _joins_to_list(node.predicates),
            "residual": _selection_to_dict(node.residual_predicate, expected),
            "in": children,
        }
    if isinstance(node, Sort):
        return {"op": "sort", "attr": node.attribute, "in": children}
    if isinstance(node, Project):
        return {"op": "project", "attrs": list(node.attributes), "in": children}
    if isinstance(node, ChoosePlan):
        return {"op": "choose-plan", "in": children}
    raise PlanError("cannot serialize operator %r" % node)


def _node_from_dict(data, nodes):
    op = data["op"]
    children = [nodes[index] for index in data.get("in", ())]
    if op == "file-scan":
        return FileScan(data["rel"])
    if op == "btree-scan":
        return BTreeScan(data["rel"], data["attr"])
    if op == "filter-btree-scan":
        return FilterBTreeScan(
            data["rel"], data["attr"], _selection_from_dict(data["pred"])
        )
    if op == "filter":
        return Filter(children[0], _selection_from_dict(data["pred"]))
    if op == "hash-join":
        return HashJoin(children[0], children[1], _joins_from_list(data["preds"]))
    if op == "merge-join":
        return MergeJoin(children[0], children[1], _joins_from_list(data["preds"]))
    if op == "index-join":
        return IndexJoin(
            children[0],
            data["rel"],
            data["attr"],
            _joins_from_list(data["preds"]),
            residual_predicate=_selection_from_dict(data["residual"]),
        )
    if op == "sort":
        return Sort(children[0], data["attr"])
    if op == "project":
        return Project(children[0], data["attrs"])
    if op == "choose-plan":
        return ChoosePlan(children)
    raise PlanError("cannot deserialize operator %r" % op)


class AccessModule:
    """A serialized plan, as stored on disk between invocations."""

    def __init__(self, payload_bytes, data=None):
        self._payload = payload_bytes
        if data is None:
            data = json.loads(payload_bytes.decode("utf-8"))
        self._data = data

    @classmethod
    def from_plan(cls, plan, query_name="query", expected=None):
        """Serialize a plan DAG into an access module.

        ``expected`` maps selectivity parameters to the expected values
        to store for them: a plan shared by queries of one input
        signature carries one query's predicates, and each query stores
        its own values.
        """
        nodes, root = _plan_to_nodes(plan, expected)
        data = {"query": query_name, "root": root, "nodes": nodes}
        payload = json.dumps(data, separators=(",", ":")).encode("utf-8")
        # All JSON-native values: parsing ``payload`` would rebuild ``data``.
        return cls(payload, data)

    def materialize(self):
        """Rebuild the plan DAG (shared nodes stay shared)."""
        nodes = []
        for data in self._data["nodes"]:
            nodes.append(_node_from_dict(data, nodes))
        return nodes[self._data["root"]]

    @property
    def query_name(self):
        """Name of the query the module was compiled from."""
        return self._data["query"]

    @property
    def node_count(self):
        """Operator nodes stored in the module."""
        return len(self._data["nodes"])

    @property
    def byte_size(self):
        """Serialized size in bytes."""
        return len(self._payload)

    def to_bytes(self):
        """The raw serialized payload."""
        return self._payload

    @classmethod
    def from_bytes(cls, payload_bytes):
        """Load a module from its raw payload."""
        return cls(payload_bytes)

    def read_seconds(self):
        """Modelled I/O time to bring the module into memory.

        Uses the paper's derivation: node count x 128 bytes at
        2 MB/sec (about 16,000 nodes per second).
        """
        return access_module_read_seconds(self.node_count)

    def __repr__(self):
        return "AccessModule(%s, %d nodes, %d bytes)" % (
            self.query_name,
            self.node_count,
            self.byte_size,
        )
