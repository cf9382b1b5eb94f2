"""Query deadlines with cooperative cancellation.

A :class:`Deadline` is created when an execution (or service request)
starts and is checked at cooperative points: iterator open and every
batch boundary of the executor's drive loop.  Expiry raises
:class:`~repro.common.errors.QueryTimeoutError`; the engine enriches
the error with the partial accounting (rows, I/O delta, trace) before
letting it propagate, so a timed-out query is still observable.

The clock is injectable, which keeps timeout tests deterministic: a
counting clock expires a deadline after an exact number of checks
instead of after wall time.
"""

import time

from repro.common.errors import ExecutionError, QueryTimeoutError


class Deadline:
    """An absolute expiry point with a pluggable clock."""

    __slots__ = ("seconds", "_clock", "_started", "_expires")

    def __init__(self, seconds, clock=time.monotonic):
        seconds = float(seconds)
        if seconds < 0.0:
            raise ExecutionError("deadline seconds must be non-negative")
        self.seconds = seconds
        self._clock = clock
        self._started = clock()
        self._expires = self._started + seconds

    @classmethod
    def ensure(cls, value):
        """Coerce ``None`` / seconds / ``Deadline`` to an optional deadline."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    def elapsed(self):
        """Seconds since the deadline was armed."""
        return self._clock() - self._started

    def remaining(self):
        """Seconds until expiry (negative once expired)."""
        return self._expires - self._clock()

    def expired(self):
        """Whether the deadline has passed."""
        return self._clock() >= self._expires

    def check(self):
        """Raise :class:`QueryTimeoutError` once the deadline passed."""
        now = self._clock()
        if now >= self._expires:
            raise QueryTimeoutError(
                "query deadline of %gs expired after %gs"
                % (self.seconds, now - self._started),
                deadline_seconds=self.seconds,
                elapsed_seconds=now - self._started,
            )

    def __repr__(self):
        return "Deadline(%gs, remaining=%gs)" % (self.seconds, self.remaining())


class CountingClock:
    """A fake clock advancing one second per reading (for tests).

    A ``Deadline(n, clock=CountingClock())`` expires on the ``n``-th
    check, making cancellation points directly countable: tests assert
    *where* cancellation lands (within one batch, at an open) rather
    than racing wall time.
    """

    __slots__ = ("now",)

    def __init__(self, start=0.0):
        self.now = float(start)

    def __call__(self):
        current = self.now
        self.now += 1.0
        return current
