"""The five workloads: catalogs, query shapes and seeded request streams.

A workload is a fixed *distribution* of requests; ``--seed`` draws one
sample of it.  The sample is stratified rather than i.i.d.: every shape
gets its expected Zipf share of the stream (largest-remainder rounding)
and the stream's selectivities are one jittered draw per equal-width
stratum of [0, 1].  The seed decides the jitter, the tenants, the order
of the stream and which shape meets which selectivity, while aggregate
counts (simulated cost per request, rows per request) move far less
between seeds than with independent draws, so they can be held to tight
bounds.
"""

import hashlib
import json
import time

from repro.catalog.synthetic import (
    build_synthetic_catalog,
    default_relation_specs,
    populate_database,
)
from repro.common.rng import make_rng
from repro.cost.parameters import Bindings
from repro.optimizer.query import QuerySpec
from repro.storage.database import Database
from repro.workloads.queries import (
    SELECTION_ATTRIBUTE,
    make_join_predicates,
    make_selection_predicate,
)
from repro.workloads.traffic import zipf_weights

#: The stored data is one fixed dataset, like a benchmark's scale
#: factor: ``--seed`` draws the request stream, not the rows.  Seeding the
#: rows too moves rows-per-request (and with it simulated cost and
#: latency) by up to a third between seeds — selection-attribute domains
#: are drawn from 0.2-1.25 x cardinality and thresholds quantize against
#: them — which no bound tight enough to be useful could absorb.
DATA_SEED = 0

#: Tenants a stream's requests are spread over (Zipf(1.0), as in
#: ``repro.workloads.traffic``).  No quota is configured, so tenancy is
#: carried through admission without ever rejecting.
TENANTS = 4


class WorkloadSpec:
    """One workload's fixed parameters (see README.md for the reasons)."""

    def __init__(
        self,
        name,
        why,
        relations,
        shapes,
        zipf_s,
        bounds,
        scale,
        capacity,
        warmed,
        stream_length,
        trace_prefix,
        drift_share=0.0,
        declared=None,
        actual_range=None,
        reopt_policy=None,
    ):
        self.name = name
        self.why = why
        #: Relations in the chain join (1 = single-relation selection).
        self.relations = relations
        self.shapes = shapes
        #: Zipf skew of shape popularity; ``None`` is uniform.
        self.zipf_s = zipf_s
        #: Compile-time selectivity bounds of every unbound predicate.
        self.bounds = bounds
        #: Factor applied to the uniform [0, 1] selectivity draw.
        self.scale = scale
        #: Plan-cache capacity per shard.
        self.capacity = capacity
        #: Whether every shape is served once before the timed window.
        self.warmed = warmed
        self.stream_length = stream_length
        #: Requests the traced run replays.
        self.trace_prefix = trace_prefix
        #: Share of requests whose draw is scaled by 1.0 instead of
        #: ``scale`` (drift past the compile-time bounds).
        self.drift_share = drift_share
        #: Lying-selectivity workloads: the selectivity *declared* to the
        #: decision procedures, and the range the bound value implies.
        self.declared = declared
        self.actual_range = actual_range
        self.reopt_policy = reopt_policy


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "point_serve",
            "few rows per request, so route+admit+cache lookup+decide+assemble "
            "dominate: request-pipeline and observability changes show here",
            relations=1,
            shapes=40,
            zipf_s=1.1,
            bounds=(0.0, 1.0),
            scale=0.02,
            capacity=64,
            warmed=True,
            stream_length=10000,
            trace_prefix=2000,
        ),
        WorkloadSpec(
            "join_exec",
            "4-way joins at the paper's selectivities: execution is most of "
            "latency, so engine changes show here and nowhere else as strongly",
            relations=4,
            shapes=40,
            zipf_s=1.1,
            bounds=(0.0, 1.0),
            scale=1.0,
            capacity=64,
            warmed=True,
            stream_length=1000,
            trace_prefix=800,
        ),
        WorkloadSpec(
            "wide_decide",
            "10-way dynamic plans (paper query 5): the choose-plan start-up "
            "decision is most of latency, the paper's own subject",
            relations=10,
            shapes=8,
            zipf_s=1.1,
            bounds=(0.0, 1.0),
            scale=0.3,
            capacity=64,
            warmed=True,
            stream_length=1000,
            trace_prefix=1000,
        ),
        WorkloadSpec(
            "churn_compile",
            "120 shapes over a 24-entry plan cache, unwarmed, 5% drift past "
            "the bounds: optimizer, cache policy and staleness path dominate",
            relations=4,
            shapes=120,
            zipf_s=1.1,
            bounds=(0.0, 0.3),
            scale=0.3,
            capacity=12,
            warmed=False,
            stream_length=1000,
            trace_prefix=500,
            drift_share=0.05,
        ),
        WorkloadSpec(
            "skew_reopt",
            "declared selectivity lies about the data and reopt_policy=auto: "
            "every request drains breakers and re-decides mid-query",
            relations=3,
            shapes=8,
            zipf_s=None,
            bounds=(0.0, 0.1),
            scale=1.0,
            capacity=64,
            warmed=True,
            stream_length=1000,
            trace_prefix=500,
            declared=0.02,
            actual_range=(0.3, 0.8),
            reopt_policy="auto",
        ),
    )
}


class StreamRequest:
    """One generated request: plain data, JSON-serializable."""

    __slots__ = ("index", "shape", "tenant", "selectivity", "value_selectivity", "drift")

    def __init__(self, index, shape, tenant, selectivity, value_selectivity, drift):
        self.index = index
        self.shape = shape
        self.tenant = tenant
        #: Bound as the selectivity parameter (what the decision sees).
        self.selectivity = selectivity
        #: The selectivity the bound user-variable value implies on the
        #: data (equal to ``selectivity`` unless the workload lies).
        self.value_selectivity = value_selectivity
        self.drift = drift

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


def apportion(total, weights):
    """Split ``total`` into integer counts proportional to ``weights``.

    Largest-remainder rounding, ties to the lower index: deterministic,
    sums to ``total`` exactly.
    """
    scale = total / sum(weights)
    quotas = [weight * scale for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - quotas[i], i)
    )
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def shape_counts(spec):
    """Requests per shape: the workload's popularity law, made exact."""
    if spec.zipf_s is None:
        weights = [1.0] * spec.shapes
    else:
        weights = zipf_weights(spec.shapes, spec.zipf_s)
    return apportion(spec.stream_length, weights)


def stratified(rng, count):
    """``count`` draws from [0, 1): one jittered draw per equal-width
    stratum, in seeded order."""
    draws = [(stratum + rng.random()) / count for stratum in range(count)]
    rng.shuffle(draws)
    return draws


def generate_stream(spec, seed):
    """The workload's request stream for ``seed`` (a pure function)."""
    draw_rng = make_rng(seed, "e2e", spec.name, "draws")
    tenant_rng = make_rng(seed, "e2e", spec.name, "tenants")
    order_rng = make_rng(seed, "e2e", spec.name, "order")
    tenant_weights = zipf_weights(TENANTS, 1.0)
    shapes = [
        shape for shape, count in enumerate(shape_counts(spec)) for _ in range(count)
    ]
    order_rng.shuffle(shapes)
    period = round(1.0 / spec.drift_share) if spec.drift_share else 0
    phase = draw_rng.randrange(period) if period else 0
    drifting = [
        bool(period) and (index + phase) % period == 0 for index in range(len(shapes))
    ]
    # Drifting requests are stratified on their own: they reach past the
    # bounds, cost the most, and would otherwise carry the seed's luck.
    draws = {
        False: stratified(draw_rng, drifting.count(False)),
        True: stratified(draw_rng, drifting.count(True)),
    }
    stream = []
    for index, (shape, drift) in enumerate(zip(shapes, drifting)):
        uniform = draws[drift].pop()
        if spec.declared is not None:
            low, high = spec.actual_range
            selectivity = spec.declared
            value_selectivity = low + (high - low) * uniform
        else:
            selectivity = uniform * (1.0 if drift else spec.scale)
            value_selectivity = selectivity
        (tenant,) = tenant_rng.choices(range(TENANTS), weights=tenant_weights)
        stream.append(
            StreamRequest(
                index, shape, "tenant-%d" % tenant, selectivity, value_selectivity, drift
            )
        )
    return stream


def stream_json(stream):
    """The stream as canonical JSON (sorted keys, fixed separators)."""
    return json.dumps(
        [request.to_dict() for request in stream],
        sort_keys=True,
        separators=(",", ":"),
    )


def stream_digest(stream):
    return hashlib.sha256(stream_json(stream).encode("utf-8")).hexdigest()[:16]


class Fixture:
    """A populated database plus the workload's query shapes."""

    def __init__(self, catalog, database, queries, populate_seconds):
        self.catalog = catalog
        self.database = database
        self.queries = queries
        self.populate_seconds = populate_seconds


def build_queries(spec, relation_names):
    """``spec.shapes`` signatures over one relation set and join chain.

    Shapes differ in their predicates' *expected* selectivity, which the
    canonical signature covers, so each is its own plan-cache entry
    (the construction ``repro.workloads.traffic`` uses).
    """
    joins = make_join_predicates(relation_names, "chain")
    low, high = spec.bounds
    queries = []
    for shape in range(spec.shapes):
        position = 0.02 + 0.96 * shape / max(1, spec.shapes - 1)
        expected = low + (high - low) * position
        selections = {
            name: make_selection_predicate(
                name, expected, selectivity_bounds=spec.bounds
            )
            for name in relation_names
        }
        queries.append(
            QuerySpec(
                relations=relation_names,
                selections=selections,
                join_predicates=joins,
                name="%s-shape%03d" % (spec.name, shape),
            )
        )
    return queries


def build_fixture(spec):
    """Catalog, stored data and query shapes for one workload."""
    relation_specs = default_relation_specs(spec.relations, seed=DATA_SEED)
    catalog = build_synthetic_catalog(relation_specs, seed=DATA_SEED)
    started = time.perf_counter()
    database = populate_database(Database(catalog), seed=DATA_SEED)
    populate_seconds = time.perf_counter() - started
    queries = build_queries(spec, [relation.name for relation in relation_specs])
    return Fixture(catalog, database, queries, populate_seconds)


def make_bindings(query, catalog, selectivity, value_selectivity):
    """Bind every unbound predicate's parameter and user variable."""
    bindings = Bindings()
    for relation_name in query.relations:
        predicate = query.selection_for(relation_name)
        domain = catalog.domain_size(relation_name, SELECTION_ATTRIBUTE)
        bindings.bind(predicate.selectivity_parameter, selectivity)
        bindings.bind_variable(
            predicate.comparison.operand.name, value_selectivity * domain
        )
    return bindings


class Request:
    """An executable request: what the program under test receives."""

    __slots__ = (
        "index",
        "shape",
        "value_selectivity",
        "query",
        "bindings",
        "true_bindings",
        "tag",
        "tenant",
    )

    def __init__(
        self, index, shape, value_selectivity, query, bindings, true_bindings, tag, tenant
    ):
        self.index = index
        self.shape = shape
        self.value_selectivity = value_selectivity
        self.query = query
        self.bindings = bindings
        #: Bindings whose declared selectivity equals the data's — the
        #: hindsight a run-time optimizer would need (same object as
        #: ``bindings`` unless the workload lies).
        self.true_bindings = true_bindings
        self.tag = tag
        self.tenant = tenant


def materialize(fixture, stream):
    """Turn stream records into executable requests over ``fixture``."""
    requests = []
    for record in stream:
        query = fixture.queries[record.shape]
        bindings = make_bindings(
            query, fixture.catalog, record.selectivity, record.value_selectivity
        )
        if record.value_selectivity == record.selectivity:
            true_bindings = bindings
        else:
            true_bindings = make_bindings(
                query,
                fixture.catalog,
                record.value_selectivity,
                record.value_selectivity,
            )
        requests.append(
            Request(
                record.index,
                record.shape,
                record.value_selectivity,
                query,
                bindings,
                true_bindings,
                "shape%d#%d" % (record.shape, record.index),
                record.tenant,
            )
        )
    return requests


def first_touches(requests):
    """The first request of each shape, in stream order."""
    seen = set()
    picks = []
    for request in requests:
        if request.shape not in seen:
            seen.add(request.shape)
            picks.append(request)
    return picks


def sample_requests(requests, size, offset, cover_shapes=False):
    """A sample of ``size`` requests, untimed checks run on it.

    Systematic sampling over the stream ordered by (shape, selectivity):
    every ``len/size``-th request starting ``offset`` (in [0, 1)) of a
    step in, so the sample has the stream's own shape and selectivity
    mix.  With ``cover_shapes`` each shape's first request comes first
    (as many as fit), so every shape is checked at least once where
    shapes <= size.
    """
    picks = first_touches(requests)[:size] if cover_shapes else []
    taken = {request.index for request in picks}
    ordered = sorted(
        (request for request in requests if request.index not in taken),
        key=lambda request: (request.shape, request.value_selectivity, request.index),
    )
    wanted = min(size - len(picks), len(ordered))
    for k in range(wanted):
        picks.append(ordered[int((k + offset) * len(ordered) / wanted)])
    return picks
