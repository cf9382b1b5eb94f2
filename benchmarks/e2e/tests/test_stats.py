"""The percentile rule and the calibration arithmetic."""

from benchmarks.e2e import stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0.50) == 50
    assert stats.percentile(samples, 0.99) == 99
    assert stats.percentile([5.0], 0.99) == 5.0


def test_samples_beyond_counts_strictly_larger_ranks():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.samples_beyond(999, 0.99) == 9
    assert stats.samples_beyond(2500, 0.99) == 25


def test_highest_percentile_with_ten_samples_beyond():
    assert stats.highest_supported_percentile(999) == 0.95
    assert stats.highest_supported_percentile(1000) == 0.99
    assert stats.highest_supported_percentile(10000) == 0.999
    assert stats.highest_supported_percentile(100000) == 0.9999
    assert stats.highest_supported_percentile(20) is None


def test_samples_are_divided_by_their_block_slowdown():
    from benchmarks.e2e.calibration import calibrated_samples

    blocks = [(1.0, [("a", 2.0), ("b", 3.0)]), (2.0, [("a", 4.0)]), (1.5, [("a", 6.0)])]
    assert calibrated_samples(blocks) == {"a": [2.0, 2.0, 4.0], "b": [3.0]}
    assert stats.median(calibrated_samples(blocks)["a"]) == 2.0
