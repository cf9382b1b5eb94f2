"""The request-stream generator: determinism, skew, bursts, and specs.

The generator's contract mirrors the chaos harness's: a
:class:`~repro.workloads.traffic.TrafficSpec` (seed included)
fully determines the request stream, byte for byte, and each aspect
of the stream — shape popularity, tenancy, arrivals, bindings, drift —
draws from its own derived RNG stream so changing one cannot reshuffle
another.
"""

import hashlib

import pytest

from repro.common.errors import OptimizationError
from repro.optimizer.query import canonical_signature, signature_digest
from repro.workloads.traffic import (
    TrafficShape,
    TrafficSpec,
    build_traffic_queries,
    generate_traffic,
    request_stream_json,
    to_service_requests,
    zipf_weights,
)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        spec = TrafficSpec.zipf(requests=500, seed=23)
        first = request_stream_json(generate_traffic(spec))
        second = request_stream_json(generate_traffic(spec))
        assert first == second

    def test_different_seed_differs(self):
        spec = TrafficSpec.zipf(requests=500, seed=23)
        assert request_stream_json(generate_traffic(spec)) != (
            request_stream_json(generate_traffic(spec.replace(seed=24)))
        )

    def test_streams_are_independent_per_aspect(self):
        # Changing the tenant count must not reshuffle which shapes
        # are requested or when — only the tenant labels.
        base = TrafficSpec.zipf(requests=300, tenants=2, seed=7)
        more_tenants = base.replace(tenants=6)
        for ours, theirs in zip(
            generate_traffic(base), generate_traffic(more_tenants)
        ):
            assert ours.shape == theirs.shape
            assert ours.arrival_seconds == theirs.arrival_seconds
            assert ours.selectivity == theirs.selectivity


class TestStreamShape:
    def test_fields_are_well_formed(self):
        spec = TrafficSpec.zipf(requests=400, query_shapes=10, tenants=3, seed=1)
        stream = generate_traffic(spec)
        assert len(stream) == 400
        assert [request.index for request in stream] == list(range(400))
        last_arrival = 0.0
        tenants = {"tenant-%d" % rank for rank in range(3)}
        for request in stream:
            assert 0 <= request.shape < 10
            assert request.tenant in tenants
            assert 0.0 <= request.selectivity < 1.0
            # Open-loop arrivals: the clock only moves forward.
            assert request.arrival_seconds >= last_arrival
            last_arrival = request.arrival_seconds

    def test_zipf_weights_decrease_with_rank(self):
        weights = zipf_weights(10, 1.1)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0
        assert weights[1] == pytest.approx(1.0 / 2**1.1)

    def test_popularity_is_zipf_skewed(self):
        spec = TrafficSpec.zipf(requests=2000, query_shapes=20, zipf_s=1.1, seed=0)
        counts = [0] * len(spec.shapes)
        for request in generate_traffic(spec):
            counts[request.shape] += 1
        # Rank 0 dominates: more requests than any tail shape and
        # several times the uniform share.
        assert counts[0] == max(counts)
        assert counts[0] > 3 * (spec.requests // len(spec.shapes))
        assert counts[0] > 10 * counts[-1]

    def test_burst_windows_arrive_faster(self):
        spec = TrafficSpec.zipf(
            requests=2000,
            arrival_rate=1000.0,
            burst_factor=8.0,
            burst_length=50,
            burst_period=2,
            seed=3,
        )
        stream = generate_traffic(spec)
        gaps = {True: [], False: []}
        previous = 0.0
        for request in stream:
            window = request.index // spec.burst_length
            in_burst = window % spec.burst_period == 0
            gaps[in_burst].append(request.arrival_seconds - previous)
            previous = request.arrival_seconds
        burst_mean = sum(gaps[True]) / len(gaps[True])
        calm_mean = sum(gaps[False]) / len(gaps[False])
        # 8x the rate should cut the mean interarrival well below the
        # calm windows' (huge margin: 1000 samples per side).
        assert burst_mean < calm_mean / 3.0


class TestPinnedStreams:
    """The Zipf preset's streams, pinned: chaos, recovery and sharding
    see the same traffic they did before the generators merged."""

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            ({"requests": 2000, "seed": 23}, "5f1e31b275433db9"),
            (
                {
                    "requests": 36,
                    "query_shapes": 6,
                    "tenants": 2,
                    "relations": 2,
                    "seed": 0,
                },
                "bbf75086a6dde93d",
            ),
            ({}, "9e5532ae6dd77f23"),
        ],
        ids=["ci", "chaos", "defaults"],
    )
    def test_stream_digest(self, overrides, digest):
        stream = request_stream_json(generate_traffic(TrafficSpec.zipf(**overrides)))
        assert hashlib.sha256(stream.encode()).hexdigest()[:16] == digest


class TestBindingLaw:
    def test_one_draw_per_request_scaled_into_the_bounds(self):
        """A narrowed shape scales the same draw into its bounds; a
        drifting one uses it over [0, 1] on its own coin, leaving
        shapes, tenants and arrivals untouched."""
        wide = TrafficSpec([TrafficShape(2)], requests=200, seed=5)
        narrow = wide.replace(shapes=[TrafficShape(2, selectivity_bounds=(0.2, 0.4))])
        drifting = wide.replace(
            shapes=[TrafficShape(2, selectivity_bounds=(0.2, 0.4), drift=0.5)]
        )
        drifted = 0
        for ours, bounded, theirs in zip(
            generate_traffic(wide), generate_traffic(narrow), generate_traffic(drifting)
        ):
            assert bounded.selectivity == pytest.approx(0.2 + 0.2 * ours.selectivity)
            assert theirs.selectivity in (ours.selectivity, bounded.selectivity)
            drifted += theirs.selectivity != bounded.selectivity
            assert (theirs.shape, theirs.tenant, theirs.arrival_seconds) == (
                ours.shape,
                ours.tenant,
                ours.arrival_seconds,
            )
        assert 60 < drifted < 140


class TestSpec:
    def test_rejects_unknown_keys(self):
        with pytest.raises(OptimizationError):
            TrafficSpec.from_dict({"queries": [{"relations": 1, "bogus": 1}]})
        with pytest.raises(OptimizationError):
            # The ladder's expected selectivity is not a spec-file key.
            TrafficSpec.from_dict({"queries": [{"relations": 1, "expected": 0.5}]})
        with pytest.raises(OptimizationError):
            TrafficSpec.zipf().replace(bogus=1)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"requests": -1},
            {"query_shapes": 0},
            {"tenants": 0},
            {"arrival_rate": 0.0},
            {"burst_factor": 0.5},
            {"burst_length": 0},
            {"burst_period": 0},
            {"relations": 0},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(OptimizationError):
            TrafficSpec.zipf(**overrides)

    def test_dict_roundtrip(self):
        """A serve-batch spec dict loads as the explicit-weights preset;
        ``replace`` copies without touching the original."""
        spec = TrafficSpec.from_dict(
            {
                "seed": 11,
                "invocations": 50,
                "queries": [
                    {"relations": 1, "weight": 3},
                    {"relations": 2, "weight": 2},
                    {"relations": 4, "topology": "chain"},
                ],
            }
        )
        default = TrafficSpec.default(requests=50, seed=11)
        assert request_stream_json(generate_traffic(spec)) == request_stream_json(
            generate_traffic(default)
        )
        assert spec.replace(seed=12).seed == 12
        assert spec.seed == 11


class TestMaterialization:
    def test_shapes_have_distinct_signatures(self):
        spec = TrafficSpec.zipf(requests=0, query_shapes=15)
        _, queries = build_traffic_queries(spec)
        digests = {
            signature_digest(canonical_signature(query)) for query in queries
        }
        assert len(digests) == 15
        assert [query.name for query in queries] == [
            "traffic-shape%03d" % shape for shape in range(15)
        ]

    def test_single_shape_mix_is_valid(self):
        _, queries = build_traffic_queries(
            TrafficSpec.zipf(requests=0, query_shapes=1)
        )
        assert len(queries) == 1

    def test_service_requests_align_with_stream(self):
        spec = TrafficSpec.zipf(requests=60, query_shapes=6, tenants=3, seed=4)
        traffic = generate_traffic(spec)
        _, queries, requests = to_service_requests(spec, traffic=traffic)
        assert len(requests) == len(traffic)
        for record, request in zip(traffic, requests):
            assert request.query is queries[record.shape]
            assert request.tenant == record.tenant
            assert request.tag == "shape%d#%d" % (record.shape, record.index)
            # The selectivity draw is bound onto the request's
            # uncertain predicates.
            predicate = request.query.selection_for(
                request.query.relations[0]
            )
            assert request.bindings.parameter(
                predicate.selectivity_parameter
            ) == pytest.approx(record.selectivity)
