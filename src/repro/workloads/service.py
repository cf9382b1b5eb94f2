"""Service workload specs: query mixes replayed through the service.

A *service workload* models the paper's embedded-SQL deployment: a
fixed set of parameterized queries (think precompiled application
statements) invoked over and over with fresh host-variable bindings.
A :class:`ServiceWorkloadSpec` describes the mix — query shapes,
weights, invocation count, shard count — and can be loaded from a
JSON file for the ``python -m repro serve-batch`` CLI.

All queries in one spec share a single catalog (a service fronts one
database), so a k-way query runs over the first k relations of the
largest query's catalog.  Every random stream — the mix order and each
invocation's bindings — derives from the spec seed through
:mod:`repro.common.rng`, and requests are fully generated before any
of them is served: replays are reproducible under concurrency.

Spec JSON format::

    {
      "seed": 0,
      "invocations": 120,
      "capacity": 64,
      "execute": true,
      "shards": 1,
      "queries": [
        {"relations": 2, "topology": "chain", "weight": 3},
        {"relations": 4, "topology": "star", "weight": 1,
         "selectivity_bounds": [0.0, 0.4], "drift": 0.1}
      ]
    }

``selectivity_bounds`` narrows the compile-time uncertainty of a
query's unbound predicates; ``drift`` is the probability that an
invocation draws its selectivities from the full [0, 1] instead —
bindings that may fall outside the narrowed bounds and so exercise the
plan cache's staleness re-optimization.
"""

import json

from repro.catalog.synthetic import build_synthetic_catalog, default_relation_specs
from repro.common.errors import OptimizationError
from repro.common.rng import make_rng
from repro.cost.parameters import Bindings, MEMORY_PARAMETER
from repro.optimizer.query import QuerySpec
from repro.workloads.queries import (
    SELECTION_ATTRIBUTE,
    Workload,
    make_join_predicates,
    make_selection_predicate,
)


class ServiceQuerySpec:
    """One parameterized query shape in a service mix."""

    def __init__(
        self,
        relations,
        topology="chain",
        weight=1,
        selectivity_bounds=(0.0, 1.0),
        memory_uncertain=False,
        drift=0.0,
    ):
        if relations < 1:
            raise OptimizationError("a service query needs at least one relation")
        if weight <= 0:
            raise OptimizationError("query weight must be positive")
        if not 0.0 <= drift <= 1.0:
            raise OptimizationError("drift must be a probability")
        self.relations = int(relations)
        self.topology = topology
        self.weight = float(weight)
        self.selectivity_bounds = (
            float(selectivity_bounds[0]),
            float(selectivity_bounds[1]),
        )
        self.memory_uncertain = bool(memory_uncertain)
        self.drift = float(drift)

    @classmethod
    def from_dict(cls, data):
        """Build from one ``queries`` element of a spec file."""
        known = {
            "relations",
            "topology",
            "weight",
            "selectivity_bounds",
            "memory_uncertain",
            "drift",
        }
        unknown = set(data) - known
        if unknown:
            raise OptimizationError(
                "unknown service query spec keys: %s" % ", ".join(sorted(unknown))
            )
        return cls(
            data["relations"],
            topology=data.get("topology", "chain"),
            weight=data.get("weight", 1),
            selectivity_bounds=tuple(data.get("selectivity_bounds", (0.0, 1.0))),
            memory_uncertain=data.get("memory_uncertain", False),
            drift=data.get("drift", 0.0),
        )

    def __repr__(self):
        return "ServiceQuerySpec(%d-way %s, weight=%g)" % (
            self.relations,
            self.topology,
            self.weight,
        )


class ServiceWorkloadSpec:
    """A full replayable service workload."""

    def __init__(
        self,
        queries,
        invocations=120,
        capacity=64,
        seed=0,
        execute=True,
        shards=1,
    ):
        self.queries = list(queries)
        if not self.queries:
            raise OptimizationError("a service workload needs at least one query")
        self.invocations = int(invocations)
        self.capacity = int(capacity)
        self.seed = int(seed)
        self.execute = bool(execute)
        #: Plan-cache partitions of the gateway the spec replays
        #: through (:mod:`repro.service.sharding`).
        self.shards = int(shards)
        if self.invocations < 0:
            raise OptimizationError("invocations must be non-negative")
        if self.capacity < 1:
            raise OptimizationError("plan cache capacity must be at least 1")
        if self.shards < 1:
            raise OptimizationError("a service needs at least one shard")

    @classmethod
    def from_dict(cls, data):
        """Build a spec from a parsed JSON object; unknown top-level
        keys are ignored."""
        return cls(
            [ServiceQuerySpec.from_dict(query) for query in data.get("queries", ())],
            invocations=data.get("invocations", 120),
            capacity=data.get("capacity", 64),
            seed=data.get("seed", 0),
            execute=data.get("execute", True),
            shards=data.get("shards", 1),
        )

    @classmethod
    def load(cls, path):
        """Load a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def default(cls, invocations=120, seed=0, execute=True):
        """The built-in demonstration mix: three shapes, skewed weights."""
        return cls(
            [
                ServiceQuerySpec(1, weight=3),
                ServiceQuerySpec(2, weight=2),
                ServiceQuerySpec(4, topology="chain", weight=1),
            ],
            invocations=invocations,
            seed=seed,
            execute=execute,
        )

    def replace(self, **overrides):
        """A copy of this spec with some scalar fields overridden."""
        fields = {
            "queries": self.queries,
            "invocations": self.invocations,
            "capacity": self.capacity,
            "seed": self.seed,
            "execute": self.execute,
            "shards": self.shards,
        }
        unknown = set(overrides) - set(fields)
        if unknown:
            raise OptimizationError(
                "unknown service spec fields: %s" % ", ".join(sorted(unknown))
            )
        fields.update(overrides)
        return ServiceWorkloadSpec(**fields)

    def max_relations(self):
        """Relation count of the largest query in the mix."""
        return max(query.relations for query in self.queries)

    def __repr__(self):
        return "ServiceWorkloadSpec(%d queries, %d invocations, %d shards)" % (
            len(self.queries),
            self.invocations,
            self.shards,
        )


def build_service_workloads(spec):
    """Materialize a spec's queries over one shared catalog.

    Returns a list of :class:`~repro.workloads.queries.Workload`
    objects — one per mix entry, all sharing the same catalog (and
    hence servable by one gateway).
    """
    specs = default_relation_specs(spec.max_relations(), seed=spec.seed)
    catalog = build_synthetic_catalog(specs, seed=spec.seed)
    workloads = []
    for index, query_spec in enumerate(spec.queries):
        relation_names = [s.name for s in specs[: query_spec.relations]]
        low, high = query_spec.selectivity_bounds
        expected = min(max(0.05, low), high)
        selections = {
            name: make_selection_predicate(
                name, expected, selectivity_bounds=query_spec.selectivity_bounds
            )
            for name in relation_names
        }
        query = QuerySpec(
            relations=relation_names,
            selections=selections,
            join_predicates=make_join_predicates(relation_names, query_spec.topology),
            memory_uncertain=query_spec.memory_uncertain,
            name="svc%d-%dway-%s"
            % (index, query_spec.relations, query_spec.topology),
        )
        workloads.append(Workload(catalog, query, specs, spec.seed))
    return workloads


def service_request_bindings(workload, seed, run_index, full_range=False):
    """Deterministic bindings for one service invocation.

    Like :func:`repro.workloads.bindings.random_bindings` but with its
    own derived stream per ``(seed, query, run_index)`` and an optional
    ``full_range`` mode that ignores the predicates' narrowed
    compile-time bounds — the drifting-parameter case that renders a
    cached plan stale.
    """
    query = workload.query
    catalog = workload.catalog
    rng = make_rng(seed, "service-bindings", query.name, run_index)
    bindings = Bindings()
    for relation_name in query.relations:
        predicate = query.selection_for(relation_name)
        if predicate is None:
            continue
        domain = catalog.domain_size(relation_name, SELECTION_ATTRIBUTE)
        variable = predicate.comparison.operand
        if not predicate.is_uncertain:
            if hasattr(variable, "name"):
                bindings.bind_variable(
                    variable.name, predicate.known_selectivity * domain
                )
            continue
        if full_range:
            lower, upper = 0.0, 1.0
        else:
            bounds = predicate.selectivity_bounds
            lower, upper = bounds.lower, bounds.upper
        selectivity = rng.uniform(lower, upper)
        bindings.bind(predicate.selectivity_parameter, selectivity)
        if hasattr(variable, "name"):
            bindings.bind_variable(variable.name, selectivity * domain)
    memory_parameter = query.parameter_space.get(MEMORY_PARAMETER)
    if memory_parameter.uncertain:
        memory = rng.uniform(
            memory_parameter.bounds.lower, memory_parameter.bounds.upper
        )
        bindings.bind(MEMORY_PARAMETER, int(round(memory)))
    return bindings


def generate_service_requests(spec, workloads=None):
    """The spec's full invocation sequence, generated up front.

    Returns ``(workloads, requests)`` where ``requests`` is a list of
    ``(workload, bindings)`` pairs in invocation order.  The weighted
    choice of query per invocation and each invocation's bindings come
    from independent derived streams, so adding a query to the mix
    does not reshuffle the bindings of the others.
    """
    if workloads is None:
        workloads = build_service_workloads(spec)
    mix_rng = make_rng(spec.seed, "service-mix")
    weights = [query.weight for query in spec.queries]
    requests = []
    for index in range(spec.invocations):
        (position,) = mix_rng.choices(range(len(workloads)), weights=weights)
        query_spec = spec.queries[position]
        workload = workloads[position]
        full_range = query_spec.drift > 0.0 and mix_rng.random() < query_spec.drift
        bindings = service_request_bindings(
            workload, spec.seed, index, full_range=full_range
        )
        requests.append((workload, bindings))
    return workloads, requests
