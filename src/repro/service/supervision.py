"""Shard supervision: health checks, crash/hang detection, restarts.

The sharded gateway's weak point is a shard whose worker dies or
wedges: its plan-cache partition — and every signature hashed to it —
goes dark.  The :class:`ShardSupervisor` watches each shard through
two deterministic signals and drives a small state machine:

::

    healthy ──(no progress while requests pending)──▶ suspect
    suspect ──(progress resumed)──▶ healthy
    suspect ──(still no progress)──▶ down
    any     ──(worker dead)──▶ down
    down    ──(restart: fresh cache + executor + breaker)──▶ restarting
    restarting ──(optionally re-warmed from snapshot)──▶ healthy

The signals are **counters, not wall clocks**: a shard is making
progress when its completed-serve heartbeat (``books.served``, kept
in the shard's books, which outlive a restart) advanced since the
last check; it is wedged when requests are pending (``pending``, the
gateway's admission count) or its worker reports hanging, and the
heartbeat did not move.  Count-based detection makes
every transition reproducible under replay — the chaos harness calls
:meth:`check` at fixed request indexes and asserts the exact
transition sequence.  Nothing checks on a timer: the owner of the
gateway decides when a sweep runs.

Restarting rebuilds the :class:`~repro.service.service.ServiceShard`
in place (:meth:`~repro.service.service.ServiceShard.restart`): a
fresh plan-cache partition and shared-compile map, a fresh resilience
policy from the gateway's factory (circuit-breaker state never
survives the worker that accumulated it), and a fresh single-thread
executor.  The shard's books are not rebuilt: the new partition counts
on into them.  The gateway's standby shard is not supervised.
Requests in flight on the dead worker are not lost: their futures
resolve with :class:`~repro.common.errors.ShardDownError` (or are
cancelled), and the gateway's dispatch routes every one to the
degraded path and counts it.  When the gateway has durable snapshots enabled, the
restarted partition is re-warmed from the last snapshot on disk.

The supervisor holds its gateway weakly: the gateway owns it, so a
strong reference back would make every retired gateway cyclic garbage.
"""

import threading
import weakref

from repro.common.errors import ShardDownError

__all__ = [
    "DOWN",
    "HEALTHY",
    "RESTARTING",
    "SHARD_STATES",
    "SUSPECT",
    "ShardSupervisor",
]

HEALTHY = "healthy"
SUSPECT = "suspect"
DOWN = "down"
RESTARTING = "restarting"

#: The supervision state machine's states, in escalation order.
SHARD_STATES = (HEALTHY, SUSPECT, DOWN, RESTARTING)


class _ShardHealth:
    """Supervisor-side record for one shard (guarded by the supervisor lock)."""

    __slots__ = ("state", "last_served", "last_stalls", "strikes")

    def __init__(self, shard):
        self.state = HEALTHY
        self.last_served = shard.books.served
        self.last_stalls = shard.books.stalls
        self.strikes = 0


class ShardSupervisor:
    """Health-checks a gateway's shards and restarts dead ones.

    Parameters
    ----------
    gateway:
        The owning :class:`~repro.service.sharding.ShardedQueryService`,
        held weakly.

    A check that finds a shard down restarts it; :meth:`restart_shard`
    restarts one on demand.
    """

    #: Consecutive no-progress checks (strikes) before a wedged shard
    #: is declared down.  The first strike only marks it suspect, so
    #: one slow check interval never triggers a restart.
    down_after = 2

    def __init__(self, gateway):
        self._gateway = weakref.ref(gateway)
        self._shards = gateway.shards
        self._lock = threading.Lock()
        self._health = {
            shard.index: _ShardHealth(shard) for shard in gateway.shards
        }
        self._counts = {"checks": 0, "suspects": 0, "downs": 0, "restarts": 0}
        #: Every state transition, as ``(shard, from, to)`` — a
        #: deterministic audit trail the chaos report embeds.
        self.transitions = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def state(self, index):
        """The supervision state of shard ``index``."""
        with self._lock:
            return self._health[index].state

    def states(self):
        """``{shard index: state}`` snapshot."""
        with self._lock:
            return {index: health.state for index, health in self._health.items()}

    def counts(self):
        """Snapshot of the supervision counters."""
        with self._lock:
            return dict(self._counts)

    def is_servable(self, shard):
        """Whether the gateway may route new work at this shard.

        Suspect shards still serve — suspicion is a grace period, not
        an outage — so only down/restarting shards (or a dead worker
        the checker has not seen yet) are routed around.
        """
        if not shard.alive:
            return False
        with self._lock:
            return self._health[shard.index].state not in (DOWN, RESTARTING)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def _transition(self, shard, health, new_state):
        if health.state == new_state:
            return
        self.transitions.append((shard.index, health.state, new_state))
        health.state = new_state
        if new_state == SUSPECT:
            self._counts["suspects"] += 1
        elif new_state == DOWN:
            self._counts["downs"] += 1

    def check(self):
        """One supervision sweep; returns the transitions it caused.

        Deterministic given the shard counters it reads: the chaos
        harness calls this at fixed points in a replay and asserts the
        exact resulting transition sequence.
        """
        to_restart = []
        sweep = []
        with self._lock:
            self._counts["checks"] += 1
            for shard in self._shards:
                health = self._health[shard.index]
                before = len(self.transitions)
                served = shard.books.served
                stalls = shard.books.stalls
                if not shard.alive:
                    self._transition(shard, health, DOWN)
                elif shard.hanging or (
                    shard.pending > 0 and served == health.last_served
                ):
                    health.strikes += 1
                    if health.strikes >= self.down_after:
                        self._transition(shard, health, DOWN)
                    else:
                        self._transition(shard, health, SUSPECT)
                elif stalls > health.last_stalls:
                    # Progressing, but the shard reported slow serves:
                    # suspect without escalating toward restart.
                    health.strikes = 0
                    self._transition(shard, health, SUSPECT)
                else:
                    health.strikes = 0
                    self._transition(shard, health, HEALTHY)
                health.last_served = served
                health.last_stalls = stalls
                if health.state == DOWN:
                    to_restart.append(shard)
                sweep.extend(self.transitions[before:])
        for shard in to_restart:
            with self._lock:
                before = len(self.transitions)
            self.restart_shard(shard)
            with self._lock:
                sweep.extend(self.transitions[before:])
        return sweep

    # ------------------------------------------------------------------
    # Restart
    # ------------------------------------------------------------------

    def restart_shard(self, shard):
        """Rebuild one shard: fresh cache, executor, breaker state.

        Safe to call on a shard in any state (an operator can force a
        restart of a merely suspect shard).  In-flight work on the old
        worker resolves as :class:`ShardDownError`/cancellation and is
        failed over by the gateway's dispatch — restart
        never drops a request on the floor.
        """
        with self._lock:
            health = self._health[shard.index]
            self._transition(shard, health, RESTARTING)
            self._counts["restarts"] += 1
        self._gateway()._rebuild_shard(shard)
        with self._lock:
            health = self._health[shard.index]
            health.strikes = 0
            health.last_served = shard.books.served
            health.last_stalls = shard.books.stalls
            self.transitions.append((shard.index, RESTARTING, HEALTHY))
            health.state = HEALTHY

    def down_error(self, shard, signature=None):
        """The typed error for a request hitting a non-servable shard."""
        return ShardDownError(
            "shard %d is not serving (worker %s)"
            % (shard.index, "dead" if not shard.alive else "restarting"),
            shard=shard.index,
            signature=signature,
            reason="crashed" if not shard.alive else "restarting",
        )

    def __repr__(self):
        with self._lock:
            return "ShardSupervisor(%d shards, %r)" % (
                len(self._health),
                dict(self._counts),
            )
