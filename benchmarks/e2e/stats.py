"""The benchmark's own arithmetic: medians and tail percentiles."""

import math
import statistics

#: A tail percentile is reported only with at least this many samples
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (0.9999, 0.999, 0.99, 0.95, 0.90, 0.75)


median = statistics.median


def _rank(count, fraction):
    """0-based nearest-rank index: the smallest sample with at least
    ``fraction`` of the sample at or below it."""
    return max(0, math.ceil(round(count * fraction, 9)) - 1)


def percentile(samples, fraction):
    """Nearest-rank percentile of a non-empty sample.

    The benchmark's own, not ``repro.common.percentile``: a change to the
    program must not be able to move how it is measured.
    """
    return sorted(samples)[_rank(len(samples), fraction)]


def samples_beyond(count, fraction):
    """How many of ``count`` samples lie strictly beyond the percentile."""
    return count - 1 - _rank(count, fraction)


def highest_supported_percentile(count):
    """The highest candidate with >= MIN_SAMPLES_BEYOND samples beyond it.

    Returns ``None`` when even the lowest candidate is unsupported.
    """
    for fraction in TAIL_CANDIDATES:
        if samples_beyond(count, fraction) >= MIN_SAMPLES_BEYOND:
            return fraction
    return None
