"""Request streams for the serving tier: one spec, one generator.

The paper's setting is a fixed set of host-variable queries invoked
over and over with fresh bindings.  A :class:`TrafficSpec` describes
such a stream: a list of :class:`TrafficShape` query shapes, each with
a popularity weight, plus the stream's length, Zipf-distributed tenant
mix, bursty open-loop arrival process and seed.  Two presets build one:
:meth:`TrafficSpec.zipf`, the heavy-traffic regime of the sharded
gateway (Zipf popularity over a ladder of expected selectivities, so
every shape is a distinct plan-cache signature), and
:meth:`TrafficSpec.from_dict` / :meth:`TrafficSpec.default`, the
``python -m repro serve-batch`` mix of explicit shapes and weights.

:func:`generate_traffic` draws every request from independent streams
derived from the spec seed through :mod:`repro.common.rng` — shape,
tenant, arrival and binding — so changing one aspect cannot reshuffle
another's draws.  The binding law is one uniform draw ``u`` per
request, bound to every uncertain predicate as ``low + (high − low)·u``
over the shape's selectivity bounds; with probability ``drift`` (its
own stream, drawn only for drifting shapes) ``u`` is used over the
full [0, 1] instead, a value that may fall outside the compile-time
bounds and so exercises the plan cache's staleness re-optimization.
:func:`request_stream_json` renders the stream to canonical JSON, so
replays can assert byte-identical regeneration.
:func:`to_service_requests` materializes it over one shared synthetic
catalog: a service fronts one database, so a k-way shape runs over the
first k relations of the largest shape's.

Spec JSON format (``serve-batch``; unknown top-level keys are ignored,
and ``capacity``, ``execute`` and ``shards`` are serving settings the
CLI passes to :func:`~repro.service.replay.replay_spec`)::

    {
      "seed": 0,
      "invocations": 120,
      "capacity": 64,
      "execute": true,
      "shards": 1,
      "queries": [
        {"relations": 2, "topology": "chain", "weight": 3},
        {"relations": 4, "topology": "star", "weight": 1,
         "selectivity_bounds": [0.0, 0.4], "drift": 0.1,
         "memory_uncertain": false}
      ]
    }

A query needs only ``relations``; the others default to a chain, weight
1, bounds [0, 1], no drift and a certain memory grant.  A
memory-uncertain shape's requests leave memory unbound, so start-up
uses its expected grant.
"""

import json

from repro.catalog.synthetic import build_synthetic_catalog, default_relation_specs
from repro.common.errors import OptimizationError
from repro.common.rng import make_rng
from repro.optimizer.query import QuerySpec
from repro.service.service import ServiceRequest
from repro.workloads.bindings import bind_selectivity
from repro.workloads.queries import (
    TOPOLOGIES,
    make_join_predicates,
    make_selection_predicate,
)

__all__ = [
    "TrafficRequest",
    "TrafficShape",
    "TrafficSpec",
    "build_traffic_queries",
    "generate_traffic",
    "request_stream_json",
    "to_service_requests",
    "zipf_weights",
]


def zipf_weights(count, s):
    """Zipf popularity weights: rank ``r`` (0-based) gets ``1/(r+1)^s``.

    Unnormalized — :meth:`random.Random.choices` normalizes internally
    and keeping raw weights makes skew assertions in tests exact.
    """
    return [1.0 / (rank + 1) ** s for rank in range(count)]


class TrafficRequest:
    """One generated request: pure data, JSON-serializable.

    ``arrival_seconds`` is the open-loop arrival offset from stream
    start; ``selectivity`` is the invocation's uncertain-predicate
    binding value, materialized into executable
    :class:`~repro.cost.parameters.Bindings` by
    :func:`to_service_requests`.
    """

    __slots__ = ("index", "shape", "tenant", "arrival_seconds", "selectivity")

    def __init__(self, index, shape, tenant, arrival_seconds, selectivity):
        self.index = index
        self.shape = shape
        self.tenant = tenant
        self.arrival_seconds = arrival_seconds
        self.selectivity = selectivity

    def to_dict(self):
        """The record as a plain dict (canonical JSON building block)."""
        return {
            "index": self.index,
            "shape": self.shape,
            "tenant": self.tenant,
            "arrival_seconds": self.arrival_seconds,
            "selectivity": self.selectivity,
        }

    def __repr__(self):
        return "TrafficRequest(#%d, shape=%d, tenant=%r, t=%.6fs)" % (
            self.index,
            self.shape,
            self.tenant,
            self.arrival_seconds,
        )


def _check(condition, message):
    if not condition:
        raise OptimizationError(message)


class TrafficShape:
    """One parameterized query shape of a stream.

    A ``relations``-way join under ``topology`` with an uncertain
    selection on every relation, compiled over ``selectivity_bounds``
    around ``expected`` (clamped into the bounds).  ``weight`` is its
    popularity; ``drift`` the probability that a request binds over the
    full [0, 1] instead of the bounds.
    """

    #: Keys of one ``queries`` element of a spec file.
    KEYS = "relations topology weight selectivity_bounds memory_uncertain drift".split()

    def __init__(
        self,
        relations,
        topology="chain",
        weight=1.0,
        selectivity_bounds=(0.0, 1.0),
        memory_uncertain=False,
        drift=0.0,
        expected=0.05,
    ):
        _check(
            type(relations) is int and relations >= 1,
            "relations must be a positive integer, got %r" % (relations,),
        )
        _check(topology in TOPOLOGIES, "unknown join topology %r" % (topology,))
        try:
            low, high = map(float, selectivity_bounds)
        except (TypeError, ValueError):
            low, high = 1.0, 0.0
        bounds = "selectivity_bounds %r" % (selectivity_bounds,)
        _check(0.0 <= low <= high <= 1.0, bounds + " is not [low, high] in [0, 1]")
        _check(float(weight) > 0.0, "query weight must be positive")
        _check(0.0 <= float(drift) <= 1.0, "drift must be a probability")
        self.relations = relations
        self.topology = topology
        self.weight = float(weight)
        self.selectivity_bounds = (low, high)
        self.memory_uncertain = bool(memory_uncertain)
        self.drift = float(drift)
        self.expected = min(max(expected, low), high)


class TrafficSpec:
    """One replayable request stream: its shapes and stream fields.

    Parameters
    ----------
    shapes:
        The :class:`TrafficShape` list; request ``shape`` indexes it.
    requests:
        Stream length.
    tenants / tenant_zipf_s:
        Number of distinct tenants, Zipf-distributed with that skew.
    arrival_rate:
        Mean open-loop arrival rate (requests/second) outside bursts.
    burst_factor:
        Arrival-rate multiplier inside a burst window.
    burst_length:
        Requests per burst window.
    burst_period:
        A burst window opens every ``burst_period`` windows (so
        ``1/burst_period`` of the stream arrives at burst rate).
    seed:
        Root seed of the catalog and of every derived stream.
    """

    def __init__(
        self,
        shapes,
        requests=2000,
        tenants=4,
        tenant_zipf_s=1.0,
        arrival_rate=5000.0,
        burst_factor=4.0,
        burst_length=64,
        burst_period=4,
        seed=0,
    ):
        self.shapes = tuple(shapes)
        self.requests = int(requests)
        self.tenants = int(tenants)
        self.tenant_zipf_s = float(tenant_zipf_s)
        self.arrival_rate = float(arrival_rate)
        self.burst_factor = float(burst_factor)
        self.burst_length = int(burst_length)
        self.burst_period = int(burst_period)
        self.seed = int(seed)
        _check(self.shapes, "a traffic mix needs at least one shape")
        _check(self.requests >= 0, "requests must be non-negative")
        _check(self.tenants >= 1, "a traffic mix needs at least one tenant")
        _check(self.arrival_rate > 0.0, "arrival rate must be positive")
        _check(self.burst_factor >= 1.0, "burst factor must be at least 1")
        _check(
            self.burst_length >= 1 and self.burst_period >= 1,
            "burst window sizes must be at least 1",
        )

    @classmethod
    def zipf(
        cls, query_shapes=40, zipf_s=1.1, relations=2, topology="chain", **stream
    ):
        """The Zipf-ladder preset: ``query_shapes`` ``relations``-way
        shapes over bounds [0, 1], shape *i* expecting selectivity
        ``0.02 + 0.96·i/(n−1)`` (0.05 alone) with weight
        ``zipf_weights(n, zipf_s)[i]``."""
        shapes = []
        for shape, weight in enumerate(zipf_weights(query_shapes, zipf_s)):
            if query_shapes == 1:
                expected = 0.05
            else:
                expected = 0.02 + 0.96 * shape / (query_shapes - 1)
            shapes.append(TrafficShape(relations, topology, weight, expected=expected))
        return cls(shapes, **stream)

    @classmethod
    def from_dict(cls, data):
        """The explicit-weights preset from a parsed spec file (the
        module docstring's format); keys other than ``seed``,
        ``invocations`` and ``queries`` are the caller's or ignored."""
        _check(isinstance(data, dict), "a spec file holds one JSON object")
        queries = data.get("queries", ())
        _check(isinstance(queries, list), "queries must be a list")
        shapes = []
        for query in queries:
            _check(
                isinstance(query, dict) and "relations" in query,
                "each query is an object with relations",
            )
            unknown = ", ".join(sorted(set(query) - set(TrafficShape.KEYS)))
            _check(not unknown, "unknown query spec keys: %s" % unknown)
            shapes.append(TrafficShape(**query))
        requests = data.get("invocations", 120)
        return cls(shapes, requests=requests, seed=data.get("seed", 0))

    @classmethod
    def default(cls, requests=120, seed=0):
        """The built-in ``serve-batch`` mix: three shapes, skewed weights."""
        return cls(
            [TrafficShape(1, weight=3), TrafficShape(2, weight=2), TrafficShape(4)],
            requests=requests,
            seed=seed,
        )

    def replace(self, **overrides):
        """A copy with some fields overridden."""
        unknown = ", ".join(sorted(set(overrides) - set(vars(self))))
        _check(not unknown, "unknown traffic spec fields: %s" % unknown)
        return TrafficSpec(**dict(vars(self), **overrides))

    def __repr__(self):
        return "TrafficSpec(%d requests, %d shapes, %d tenants)" % (
            self.requests,
            len(self.shapes),
            self.tenants,
        )


def generate_traffic(spec):
    """The spec's full request stream, generated up front.

    Returns a list of :class:`TrafficRequest` in arrival order; see the
    module docstring for the streams and the binding law.
    """
    shape_rng = make_rng(spec.seed, "traffic-shapes")
    tenant_rng = make_rng(spec.seed, "traffic-tenants")
    arrival_rng = make_rng(spec.seed, "traffic-arrivals")
    binding_rng = make_rng(spec.seed, "traffic-bindings")
    drift_rng = make_rng(spec.seed, "traffic-drift")
    shape_weights = [shape.weight for shape in spec.shapes]
    tenant_weights = zipf_weights(spec.tenants, spec.tenant_zipf_s)
    shape_ranks = range(len(spec.shapes))
    tenants = ["tenant-%d" % rank for rank in range(spec.tenants)]
    requests = []
    clock = 0.0
    for index in range(spec.requests):
        (rank,) = shape_rng.choices(shape_ranks, weights=shape_weights)
        (tenant,) = tenant_rng.choices(tenants, weights=tenant_weights)
        # Every burst_period-th window of burst_length requests is a burst.
        burst = (index // spec.burst_length) % spec.burst_period == 0
        rate = spec.arrival_rate * (spec.burst_factor if burst else 1.0)
        clock += arrival_rng.expovariate(rate)
        draw = binding_rng.random()
        shape = spec.shapes[rank]
        drifts = shape.drift > 0.0 and drift_rng.random() < shape.drift
        low, high = (0.0, 1.0) if drifts else shape.selectivity_bounds
        selectivity = low + (high - low) * draw
        requests.append(TrafficRequest(index, rank, tenant, clock, selectivity))
    return requests


def request_stream_json(requests):
    """The stream as canonical JSON (sorted keys, fixed separators).

    A pure function of the generating spec: equal seeds produce
    byte-identical output, which the deterministic-replay check in CI
    asserts with a literal byte comparison.
    """
    return json.dumps(
        [request.to_dict() for request in requests],
        sort_keys=True,
        separators=(",", ":"),
    )


def build_traffic_queries(spec):
    """One shared catalog plus one query per shape, in shape order.

    Shape *i* is named ``traffic-shape<i>`` (three digits).  The
    canonical signature covers each predicate's expected selectivity
    and bounds, so the Zipf preset's ladder yields exactly
    ``query_shapes`` plan-cache entries, which the gateway spreads
    across shards by signature hash.
    """
    largest = max(shape.relations for shape in spec.shapes)
    relation_specs = default_relation_specs(largest, seed=spec.seed)
    catalog = build_synthetic_catalog(relation_specs, seed=spec.seed)
    names = [relation.name for relation in relation_specs]
    queries = []
    for index, shape in enumerate(spec.shapes):
        relation_names = names[: shape.relations]
        selections = {
            name: make_selection_predicate(
                name, shape.expected, selectivity_bounds=shape.selectivity_bounds
            )
            for name in relation_names
        }
        queries.append(
            QuerySpec(
                relations=relation_names,
                selections=selections,
                join_predicates=make_join_predicates(relation_names, shape.topology),
                memory_uncertain=shape.memory_uncertain,
                name="traffic-shape%03d" % index,
            )
        )
    return catalog, queries


def to_service_requests(spec, traffic=None, catalog=None, queries=None):
    """Materialize a stream into executable service requests.

    Returns ``(catalog, queries, service_requests)``; the request list
    aligns with the traffic stream index for index.  Each request
    carries its tenant (for gateway quotas) and a
    ``shape<i>#<index>`` tag.
    """
    if traffic is None:
        traffic = generate_traffic(spec)
    if catalog is None or queries is None:
        catalog, queries = build_traffic_queries(spec)
    service_requests = []
    for request in traffic:
        query = queries[request.shape]
        service_requests.append(
            ServiceRequest(
                query,
                bind_selectivity(query, catalog, request.selectivity),
                tag="shape%d#%d" % (request.shape, request.index),
                tenant=request.tenant,
            )
        )
    return catalog, queries, service_requests
