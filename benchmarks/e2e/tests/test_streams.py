"""Generator determinism and each workload's specified composition."""

import pytest

from benchmarks.e2e.workloads import (
    WORKLOADS,
    apportion,
    build_queries,
    generate_stream,
    shape_counts,
    stream_digest,
    stream_json,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_stream(name):
    spec = WORKLOADS[name]
    assert stream_json(generate_stream(spec, 7)) == stream_json(generate_stream(spec, 7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_gives_another_stream(name):
    spec = WORKLOADS[name]
    assert stream_digest(generate_stream(spec, 7)) != stream_digest(generate_stream(spec, 8))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_shape_is_requested_and_counts_follow_the_law(name):
    spec = WORKLOADS[name]
    stream = generate_stream(spec, 3)
    assert len(stream) == spec.stream_length
    assert [request.index for request in stream] == list(range(len(stream)))
    seen = [0] * spec.shapes
    for request in stream:
        seen[request.shape] += 1
    assert seen == shape_counts(spec)
    assert min(seen) >= 1
    if spec.zipf_s is None:
        assert max(seen) - min(seen) <= 1
    else:
        assert seen == sorted(seen, reverse=True)


def test_apportion_is_exact_and_proportional():
    assert apportion(10, [1, 1, 1]) == [4, 3, 3]
    assert apportion(7, [3, 1]) == [5, 2]
    assert sum(apportion(1000, [1 / (r + 1) ** 1.1 for r in range(120)])) == 1000


def test_specified_shapes_bounds_and_capacities():
    expected = {
        "point_serve": (1, 40, (0.0, 1.0), 64, True),
        "join_exec": (4, 40, (0.0, 1.0), 64, True),
        "wide_decide": (10, 8, (0.0, 1.0), 64, True),
        "churn_compile": (4, 120, (0.0, 0.3), 12, False),
        "skew_reopt": (3, 8, (0.0, 0.1), 64, True),
    }
    assert set(WORKLOADS) == set(expected)
    for name, (relations, shapes, bounds, capacity, warmed) in expected.items():
        spec = WORKLOADS[name]
        assert (spec.relations, spec.shapes, spec.bounds) == (relations, shapes, bounds)
        assert (spec.capacity, spec.warmed) == (capacity, warmed)
        names = ["R%d" % (i + 1) for i in range(relations)]
        queries = build_queries(spec, names)
        assert len({query.signature() for query in queries}) == shapes
        for query in queries:
            assert len(query.relations) == relations
            for relation in names:
                predicate = query.selection_for(relation)
                assert (
                    predicate.selectivity_bounds.lower,
                    predicate.selectivity_bounds.upper,
                ) == bounds


def test_selectivities_stay_inside_the_scaled_range():
    for name in ("point_serve", "join_exec", "wide_decide"):
        spec = WORKLOADS[name]
        stream = generate_stream(spec, 5)
        assert all(0.0 <= r.selectivity <= spec.scale for r in stream)
        assert all(r.value_selectivity == r.selectivity and not r.drift for r in stream)


def test_churn_drift_share_and_drift_past_the_bounds():
    spec = WORKLOADS["churn_compile"]
    stream = generate_stream(spec, 5)
    drifting = [r for r in stream if r.drift]
    assert len(drifting) == round(spec.drift_share * len(stream))
    assert all(r.selectivity <= spec.scale for r in stream if not r.drift)
    assert any(r.selectivity > spec.bounds[1] for r in drifting)


def test_skew_declares_one_selectivity_and_binds_another():
    spec = WORKLOADS["skew_reopt"]
    low, high = spec.actual_range
    for request in generate_stream(spec, 5):
        assert request.selectivity == spec.declared
        assert low <= request.value_selectivity <= high
