"""A thread-safe metrics registry: counters, gauges, histograms.

The registry is the service-level half of the observability layer:
the serving gateway (:class:`~repro.service.sharding.ShardedQueryService`)
and its partitions record cache hits and misses, start-up decision
latencies, and staleness-driven re-optimizations here, and operators
can scrape the state as JSON (:meth:`MetricsRegistry.to_json`) or
Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`).

Exactness over sampling: every instrument updates under a lock, so
concurrent updates are never lost — the property the 8-thread
concurrency tests assert against exact totals.  Instruments are cheap (one lock round-trip and a few
float ops per update) but not free; subsystems accept ``metrics=None``
and skip instrumentation entirely when no registry is attached.

Two wiring styles keep the hot path fast:

* **push** instruments are updated inline (``inc``/``observe``) where
  no pre-existing counter tracks the quantity;
* **pull** instruments take a ``callback`` and read an existing,
  already-locked internal counter at scrape time — summing, say, the
  partitions' :class:`~repro.service.cache.CacheStatistics` into the
  registry at zero per-request cost.  Callback-backed instruments are
  read-only; pushing to one raises.  Gauges are always pull.
"""

import json
import re
import threading
from bisect import bisect_left

from repro.common.errors import MetricsError

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default latency buckets (seconds), dense in the sub-millisecond
#: range where start-up decisions live.
DEFAULT_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


def _check_name(name):
    if not _NAME_PATTERN.match(name):
        raise ValueError("invalid metric name %r" % name)
    return name


class Counter:
    """A monotonically increasing counter (push, or pull via callback)."""

    kind = "counter"

    __slots__ = ("name", "help", "_value", "_lock", "_callback")

    def __init__(self, name, help="", callback=None):
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()
        self._callback = callback

    def inc(self, amount=1):
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        if self._callback is not None:
            raise MetricsError(
                "callback-backed counter %s is read-only" % self.name
            )
        with self._lock:
            self._value += amount

    @property
    def value(self):
        """Current total."""
        if self._callback is not None:
            return self._callback()
        with self._lock:
            return self._value

    def snapshot(self):
        """Plain-data view of the instrument."""
        return {"type": self.kind, "value": self.value}

    def __repr__(self):
        return "Counter(%s=%g)" % (self.name, self.value)


class Gauge:
    """A value that can go up and down (e.g. in-flight requests).

    Pull only: ``callback`` reads the quantity from the counter that
    already tracks it, at scrape time.
    """

    kind = "gauge"

    __slots__ = ("name", "help", "_callback")

    def __init__(self, name, help="", *, callback):
        self.name = _check_name(name)
        self.help = help
        self._callback = callback

    @property
    def value(self):
        """Current value."""
        return self._callback()

    def snapshot(self):
        """Plain-data view of the instrument."""
        return {"type": self.kind, "value": self.value}

    def __repr__(self):
        return "Gauge(%s=%g)" % (self.name, self.value)


class Histogram:
    """A fixed-bucket histogram of observations (Prometheus-style).

    Buckets are cumulative upper bounds; every observation also feeds
    ``sum`` and ``count``, so means are exact and percentiles are
    bucket-resolution approximations.
    """

    kind = "histogram"

    __slots__ = ("name", "help", "bounds", "_bucket_counts", "_sum",
                 "_count", "_lock")

    def __init__(self, name, help="", buckets=DEFAULT_LATENCY_BUCKETS):
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value):
        """Record one observation."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self):
        """Cumulative bucket counts plus sum/count, as plain data."""
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._count
            observed_sum = self._sum
        cumulative = {}
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative["%g" % bound] = running
        cumulative["+Inf"] = total
        return {
            "type": self.kind,
            "count": total,
            "sum": observed_sum,
            "buckets": cumulative,
        }

    def __repr__(self):
        return "Histogram(%s, count=%d)" % (self.name, self.snapshot()["count"])


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics.

    Instruments are created once and shared: asking twice for the same
    name returns the same object, and asking for an existing name with
    a different instrument kind raises ``ValueError`` (silent kind
    confusion would corrupt dashboards).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}
        self._order = []

    def _get_or_create(self, factory, kind, name, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        "metric %r already registered as a %s"
                        % (name, existing.kind)
                    )
                return existing
            metric = factory(name, **kwargs)
            self._metrics[name] = metric
            self._order.append(name)
            return metric

    def counter(self, name, help="", callback=None):
        """Get or create a :class:`Counter` (pull-style with callback).

        ``callback`` only applies when the instrument is created here;
        asking again for an existing name returns it unchanged.
        """
        return self._get_or_create(
            Counter, "counter", name, help=help, callback=callback
        )

    def gauge(self, name, help="", *, callback):
        """Get or create a :class:`Gauge` reading ``callback``."""
        return self._get_or_create(
            Gauge, "gauge", name, help=help, callback=callback
        )

    def histogram(self, name, help="", buckets=DEFAULT_LATENCY_BUCKETS):
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(
            Histogram, "histogram", name, help=help, buckets=buckets
        )

    def get(self, name):
        """The instrument registered under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def snapshot(self):
        """All instruments as one plain dict, in registration order."""
        with self._lock:
            ordered = [(name, self._metrics[name]) for name in self._order]
        return {name: metric.snapshot() for name, metric in ordered}

    def to_json(self, indent=None):
        """The snapshot serialized as a JSON object string."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def to_prometheus(self):
        """The registry in Prometheus text exposition format."""
        with self._lock:
            ordered = [(name, self._metrics[name]) for name in self._order]
        lines = []
        for name, metric in ordered:
            if metric.help:
                lines.append("# HELP %s %s" % (name, metric.help))
            lines.append("# TYPE %s %s" % (name, metric.kind))
            data = metric.snapshot()
            if metric.kind == "histogram":
                for bound, count in data["buckets"].items():
                    lines.append('%s_bucket{le="%s"} %d' % (name, bound, count))
                lines.append("%s_sum %.10g" % (name, data["sum"]))
                lines.append("%s_count %d" % (name, data["count"]))
            else:
                lines.append("%s %.10g" % (name, data["value"]))
        return "\n".join(lines) + "\n"

    def __len__(self):
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name):
        return self.get(name) is not None

    def __repr__(self):
        return "MetricsRegistry(%d instruments)" % len(self)
