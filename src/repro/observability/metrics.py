"""A read-only metrics registry: counters, gauges, histograms.

The registry is the service-level half of the observability layer.
It keeps no count of its own: every instrument takes a ``callback``
and reads, at scrape time, a quantity some subsystem already keeps
under its own lock.  The serving gateway
(:class:`~repro.service.sharding.ShardedQueryService`) registers its
instruments over the books its shards keep — request and cache
counts, resilience outcomes, latency sums and bucket counts — so a
request runs exactly the same code with a registry attached as
without one, and a scrape reads what ``stats()`` reads.  Operators
export the state as JSON (:meth:`MetricsRegistry.to_json`) or in
Prometheus text exposition format
(:meth:`MetricsRegistry.to_prometheus`).
"""

import json
import re
import threading

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default latency buckets (seconds), dense in the sub-millisecond
#: range where start-up decisions live: a cached decision takes
#: ~10-70 us, so the first bounds are 10, 25 and 50 us.
DEFAULT_LATENCY_BUCKETS = (
    0.00001,
    0.000025,
    0.00005,
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
    """A monotonically increasing total, read from the count that keeps it."""

    kind = "counter"

    __slots__ = ("name", "help", "_callback")

    def __init__(self, name, help="", *, callback):
        self.name = _check_name(name)
        self.help = help
        self._callback = callback

    @property
    def value(self):
        """Current value, read now."""
        return self._callback()

    def snapshot(self):
        """Plain-data view of the instrument."""
        return {"type": self.kind, "value": self.value}

    def __repr__(self):
        return "%s(%s=%g)" % (type(self).__name__, self.name, self.value)


class Gauge(Counter):
    """A value that can go up and down (e.g. in-flight requests)."""

    kind = "gauge"

    __slots__ = ()


class Histogram:
    """A fixed-bucket histogram (Prometheus-style), read from its keeper.

    ``callback`` returns ``(counts, sum)``: one count per bucket bound
    plus a last one for ``+Inf``, not cumulative, and the sum of the
    observations.  Means are exact; percentiles are bucket-resolution
    approximations.
    """

    kind = "histogram"

    __slots__ = ("name", "help", "bounds", "_callback")

    def __init__(self, name, help="", buckets=DEFAULT_LATENCY_BUCKETS, *, callback):
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._callback = callback

    def snapshot(self):
        """Cumulative bucket counts plus sum/count, as plain data."""
        counts, observed_sum = self._callback()
        cumulative = {}
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative["%g" % bound] = running
        total = sum(counts)
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
    """A named collection of read-only instruments.

    Each name is registered once.  An instrument reads the one source
    its callback names, so a second registration of a name — another
    gateway on the same registry, or the same name as another kind —
    can only be a conflict, and raises ``ValueError`` naming the metric
    (ignoring it would export the first source as if it were both).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = {}

    def _register(self, factory, name, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                raise ValueError(
                    "metric %r already registered as a %s" % (name, existing.kind)
                )
            metric = factory(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name, help="", *, callback):
        """Register a :class:`Counter` reading ``callback``."""
        return self._register(Counter, name, help=help, callback=callback)

    def gauge(self, name, help="", *, callback):
        """Register a :class:`Gauge` reading ``callback``."""
        return self._register(Gauge, name, help=help, callback=callback)

    def histogram(self, name, help="", buckets=DEFAULT_LATENCY_BUCKETS, *, callback):
        """Register a :class:`Histogram` reading ``callback``."""
        return self._register(
            Histogram, name, help=help, buckets=buckets, callback=callback
        )

    def get(self, name):
        """The instrument registered under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def _ordered(self):
        with self._lock:
            return list(self._metrics.items())

    def snapshot(self):
        """All instruments as one plain dict, in registration order."""
        return {name: metric.snapshot() for name, metric in self._ordered()}

    def to_json(self, indent=None):
        """The snapshot serialized as a JSON object string."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=False)

    def to_prometheus(self):
        """The registry in Prometheus text exposition format."""
        lines = []
        for name, metric in self._ordered():
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
