"""Service-level resilience: retry, circuit breaking, degradation.

The :class:`ResiliencePolicy` is the single resilience knob of a plan-
cache partition (the gateway's ``resilience_factory`` makes one per
shard); it bundles

* a :class:`RetryPolicy` — exponential backoff with seeded jitter for
  transient storage faults;
* an optional :class:`CircuitBreaker` — per-query-signature guard on
  staleness-driven re-optimization, so a query whose bindings thrash
  in and out of the covered bounds stops paying a re-optimization per
  invocation and is served the (still correct, possibly suboptimal)
  cached plan for a cooldown instead;
* the degradation budget — how many mid-run memory-drop restarts a
  query may take before the service falls back to the conservative
  static plan.

Jitter draws come from a stream seeded through
:mod:`repro.common.rng`, so backoff schedules are reproducible; they
only affect *when* a retry runs, never what it computes.
"""

import math
import threading
import time

from repro.common.errors import ExecutionError
from repro.common.rng import make_rng


def backoff_hint(seed, key, attempt, base_delay=0.001, multiplier=2.0,
                 jitter=0.1, cap=0.25):
    """A deterministic backoff delay: pure function of its arguments.

    The jitter fraction is drawn from a stream derived from ``(seed,
    key, attempt)``, so the same fault history always produces the
    same schedule — no shared RNG state, no thread-order dependence.
    ``cap`` bounds the exponential growth.  This is both the
    :class:`RetryPolicy` jitter primitive and the source of the
    ``retry_after_hint`` the gateway attaches to
    :class:`~repro.common.errors.ServiceOverloadError`.
    """
    base = min(float(cap), base_delay * (multiplier ** max(0, attempt - 1)))
    if jitter == 0.0 or base == 0.0:
        return base
    fraction = make_rng(seed, "retry-backoff", str(key), attempt).random()
    return base * (1.0 + jitter * fraction)


class RetryPolicy:
    """Exponential backoff with seeded, stateless jitter.

    The jitter draw for retry ``attempt`` of operation ``key`` is a
    pure function of ``(seed, key, attempt)`` — not of how many other
    threads drew before it — so backoff schedules are reproducible
    even under concurrent retries.
    """

    def __init__(self, max_retries=3, base_delay=0.001, multiplier=2.0,
                 jitter=0.1, seed=0):
        if max_retries < 0:
            raise ExecutionError("max_retries must be non-negative")
        if base_delay < 0.0:
            raise ExecutionError("base_delay must be non-negative")
        if multiplier < 1.0:
            raise ExecutionError("multiplier must be at least 1")
        if not 0.0 <= jitter <= 1.0:
            raise ExecutionError("jitter must be a fraction in [0, 1]")
        self.max_retries = int(max_retries)
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.jitter = float(jitter)
        self.seed = seed

    def delay(self, attempt, key=""):
        """Backoff before retry number ``attempt`` (1-based), in seconds.

        ``key`` scopes the jitter stream (e.g. the query signature
        digest) so distinct operations retrying concurrently get
        decorrelated — but individually reproducible — schedules.
        Uncapped: the retry count bounds the growth.
        """
        return backoff_hint(
            self.seed,
            key,
            attempt,
            self.base_delay,
            self.multiplier,
            self.jitter,
            cap=math.inf,
        )

    def __repr__(self):
        return "RetryPolicy(max_retries=%d, base=%gs, x%g, jitter=%g)" % (
            self.max_retries,
            self.base_delay,
            self.multiplier,
            self.jitter,
        )


class CircuitBreaker:
    """Per-key breaker over staleness-driven re-optimization.

    ``failure_threshold`` consecutive re-optimizations of the same
    query signature trip the breaker; while open, the next
    ``cooldown`` stale lookups for that signature are *short-
    circuited* — served from the cached plan without re-optimizing —
    after which the breaker closes again (count-based rather than
    time-based, so behaviour is deterministic under replay).  A
    non-stale invocation resets the consecutive count.
    """

    def __init__(self, failure_threshold=3, cooldown=8):
        if failure_threshold < 1:
            raise ExecutionError("failure_threshold must be at least 1")
        if cooldown < 1:
            raise ExecutionError("cooldown must be at least 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = int(cooldown)
        self.trips = 0
        self.short_circuits = 0
        self._lock = threading.Lock()
        #: key -> [consecutive_reoptimizations, open_remaining]
        self._states = {}

    def _state(self, key):
        state = self._states.get(key)
        if state is None:
            state = [0, 0]
            self._states[key] = state
        return state

    def allow(self, key):
        """Whether a stale invocation of ``key`` may re-optimize now."""
        with self._lock:
            state = self._state(key)
            if state[1] > 0:
                state[1] -= 1
                self.short_circuits += 1
                return False
            return True

    def record_reoptimization(self, key):
        """Count one re-optimization; returns True when this trips."""
        with self._lock:
            state = self._state(key)
            state[0] += 1
            if state[0] >= self.failure_threshold:
                state[0] = 0
                state[1] = self.cooldown
                self.trips += 1
                return True
            return False

    def record_success(self, key):
        """A non-stale invocation: reset the consecutive count."""
        with self._lock:
            state = self._states.get(key)
            if state is not None:
                state[0] = 0

    def state(self, key):
        """``"open"`` or ``"closed"`` for a key (for introspection)."""
        with self._lock:
            state = self._states.get(key)
            if state is not None and state[1] > 0:
                return "open"
            return "closed"

    def __repr__(self):
        return "CircuitBreaker(threshold=%d, cooldown=%d, trips=%d)" % (
            self.failure_threshold,
            self.cooldown,
            self.trips,
        )


class ResiliencePolicy:
    """Everything the service needs to degrade instead of dying.

    ``breaker=None`` (the default) disables circuit breaking; pass a
    :class:`CircuitBreaker` to enable it.  ``deadline_seconds`` is the
    service-wide default applied to requests that do not carry their
    own.  ``sleep`` is injectable so tests can retry without waiting.
    """

    def __init__(self, retry=None, breaker=None, max_degradations=2,
                 deadline_seconds=None, sleep=time.sleep):
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker
        if max_degradations < 0:
            raise ExecutionError("max_degradations must be non-negative")
        self.max_degradations = int(max_degradations)
        self.deadline_seconds = deadline_seconds
        self.sleep = sleep

    def __repr__(self):
        return (
            "ResiliencePolicy(%r, breaker=%s, max_degradations=%d, "
            "deadline=%r)"
            % (
                self.retry,
                "on" if self.breaker is not None else "off",
                self.max_degradations,
                self.deadline_seconds,
            )
        )
