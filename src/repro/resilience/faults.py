"""Deterministic fault injection for the storage layer.

The paper's premise is that run-time conditions diverge from
compile-time assumptions; this module makes the divergence *active*:
storage operations can raise simulated I/O errors and the run-time
memory grant can shrink mid-query, all reproducibly.

A :class:`FaultProfile` declares *what* goes wrong — rules mapping
operation sites to transient or permanent faults, plus memory-drop
stages — and a :class:`FaultInjector` decides *when*, driven by a
global operation counter and a stream seeded through
:mod:`repro.common.rng`.  Two injectors built from the same profile
and seed observe identical operation sequences and therefore inject
identical faults, which is what the chaos determinism gate in CI
asserts byte-for-byte.

Injection sites (the ``site`` strings rules match on):

* ``heap_read``     — one heap page read (scan page or RID fetch);
* ``heap_write``    — one heap page write (load-time allocation);
* ``index_probe``   — one B-tree descent (search or range-scan open);
* ``buffer_access`` — one buffer-pool frame access.

Storage structures call :meth:`FaultInjector.record` *before* charging
the corresponding I/O, so a faulted operation charges nothing — the
retry re-pays the full cost, exactly like a real re-issued request.
"""

from repro.common.errors import (
    ExecutionError,
    MemoryDropError,
    PermanentIOError,
    TransientIOError,
)
from repro.common.rng import make_rng

#: Operation sites rules may target.
FAULT_SITES = ("heap_read", "heap_write", "index_probe", "buffer_access")

#: Fault kinds a rule may inject.
FAULT_KINDS = ("transient", "permanent")


class FaultRule:
    """One injection rule: a site, a trigger, and a fault kind.

    Triggers compose two ways:

    * ``at_operations`` — inject exactly when the injector's
      *per-site* operation counter hits one of these values
      (deterministic and seed-independent).  Counting per site makes
      thresholds portable across plans: the 3rd heap read exists in
      every plan that reads a heap at all, whereas a global operation
      number may land on a different site per plan.  The counter keeps
      climbing across retries, so a threshold is always eventually
      reached — and with ``limit`` set, fires exactly ``limit`` times
      — for any query touching the site, which is what lets the chaos
      gate assert retry counts exactly by construction;
    * ``rate`` — inject with this probability per matching operation,
      drawn from the injector's seeded stream (deterministic per
      seed).

    ``limit`` caps the rule's total injections, which guarantees that
    retry loops over transient faults converge.
    """

    def __init__(self, site, kind="transient", rate=0.0, at_operations=(),
                 limit=None):
        if site not in FAULT_SITES:
            raise ExecutionError(
                "fault site must be one of %r, got %r" % (FAULT_SITES, site)
            )
        if kind not in FAULT_KINDS:
            raise ExecutionError(
                "fault kind must be one of %r, got %r" % (FAULT_KINDS, kind)
            )
        if not 0.0 <= float(rate) <= 1.0:
            raise ExecutionError("fault rate must be a probability")
        self.site = site
        self.kind = kind
        self.rate = float(rate)
        self.at_operations = frozenset(int(op) for op in at_operations)
        self.limit = None if limit is None else int(limit)

    def to_dict(self):
        """Plain-data form (used by the chaos report)."""
        return {
            "site": self.site,
            "kind": self.kind,
            "rate": self.rate,
            "at_operations": sorted(self.at_operations),
            "limit": self.limit,
        }

    def __repr__(self):
        return "FaultRule(%s, %s, rate=%g, at=%d ops, limit=%r)" % (
            self.site,
            self.kind,
            self.rate,
            len(self.at_operations),
            self.limit,
        )


class MemoryDropStage:
    """One mid-query shrink of the run-time memory grant.

    When the injector's operation counter reaches ``after_operations``
    the stage fires once, raising
    :class:`~repro.common.errors.MemoryDropError` with ``to_pages`` as
    the new grant.  From then on the injector reports the shrunk grant
    to every execution context, so the restarted query runs — and
    re-decides its choose-plan operators — under the new memory.
    """

    def __init__(self, after_operations, to_pages):
        if int(to_pages) < 1:
            raise ExecutionError("memory cannot drop below one page")
        self.after_operations = int(after_operations)
        self.to_pages = int(to_pages)

    def to_dict(self):
        """Plain-data form (used by the chaos report)."""
        return {
            "after_operations": self.after_operations,
            "to_pages": self.to_pages,
        }

    def __repr__(self):
        return "MemoryDropStage(after=%d, to=%d pages)" % (
            self.after_operations,
            self.to_pages,
        )


class FaultProfile:
    """A named, declarative description of what goes wrong."""

    def __init__(self, name, rules=(), memory_drops=(), description=""):
        self.name = name
        self.rules = tuple(rules)
        self.memory_drops = tuple(
            sorted(memory_drops, key=lambda stage: stage.after_operations)
        )
        self.description = description

    def to_dict(self):
        """Plain-data form (used by the chaos report)."""
        return {
            "name": self.name,
            "description": self.description,
            "rules": [rule.to_dict() for rule in self.rules],
            "memory_drops": [stage.to_dict() for stage in self.memory_drops],
        }

    def __repr__(self):
        return "FaultProfile(%r, %d rules, %d memory drops)" % (
            self.name,
            len(self.rules),
            len(self.memory_drops),
        )


class FaultInjector:
    """Seeded run-time state deciding when a profile's faults fire.

    One injector serves one database for the duration of the faulted
    activity (install it with
    :meth:`~repro.storage.database.Database.install_fault_injector`).
    The counters — operations observed, faults injected by kind,
    memory drops fired — are the ground truth the service's resilience
    counters are asserted against.
    """

    def __init__(self, profile, seed=0):
        self.profile = profile
        self.seed = int(seed)
        self._rng = make_rng(self.seed, "fault-injector", profile.name)
        self.operations = 0
        self.site_operations = dict.fromkeys(FAULT_SITES, 0)
        self.injected_transient = 0
        self.injected_permanent = 0
        self.memory_drops_fired = 0
        self._rule_injections = [0] * len(profile.rules)
        self._stage_fired = [False] * len(profile.memory_drops)

    # ------------------------------------------------------------------
    # The storage-layer hook
    # ------------------------------------------------------------------

    def record(self, site, count=1):
        """Observe ``count`` operations at ``site``, possibly faulting.

        Called by the storage layer before charging the corresponding
        I/O.  Raises at most one fault per call; the operation counter
        still advances for every observed operation, so bulk charges
        keep the operation numbering of one-at-a-time charges.
        """
        profile = self.profile
        for _ in range(count):
            self.operations += 1
            site_count = self.site_operations.get(site, 0) + 1
            self.site_operations[site] = site_count
            for index, stage in enumerate(profile.memory_drops):
                if self._stage_fired[index]:
                    continue
                if self.operations >= stage.after_operations:
                    self._stage_fired[index] = True
                    self.memory_drops_fired += 1
                    raise MemoryDropError(
                        "injected memory drop to %d pages at operation %d"
                        % (stage.to_pages, self.operations),
                        stage.to_pages,
                        site=site,
                        operation_index=self.operations,
                    )
            for index, rule in enumerate(profile.rules):
                if rule.site != site:
                    continue
                if rule.limit is not None and (
                    self._rule_injections[index] >= rule.limit
                ):
                    continue
                triggered = site_count in rule.at_operations
                if not triggered and rule.rate > 0.0:
                    triggered = self._rng.random() < rule.rate
                if not triggered:
                    continue
                self._rule_injections[index] += 1
                message = "injected %s fault at %s operation %d" % (
                    rule.kind,
                    site,
                    self.operations,
                )
                if rule.kind == "transient":
                    self.injected_transient += 1
                    raise TransientIOError(
                        message, site=site, operation_index=self.operations
                    )
                self.injected_permanent += 1
                raise PermanentIOError(
                    message, site=site, operation_index=self.operations
                )

    # ------------------------------------------------------------------
    # Memory pressure
    # ------------------------------------------------------------------

    def current_memory_pages(self, original_pages):
        """The grant after every fired drop stage (never below 1)."""
        pages = int(original_pages)
        for index, stage in enumerate(self.profile.memory_drops):
            if self._stage_fired[index]:
                pages = min(pages, stage.to_pages)
        return max(1, pages)

    def snapshot(self):
        """The injector's counters as a plain dict."""
        return {
            "profile": self.profile.name,
            "seed": self.seed,
            "operations": self.operations,
            "site_operations": dict(self.site_operations),
            "injected_transient": self.injected_transient,
            "injected_permanent": self.injected_permanent,
            "memory_drops_fired": self.memory_drops_fired,
        }

    def __repr__(self):
        return (
            "FaultInjector(%r, ops=%d, transient=%d, permanent=%d, drops=%d)"
            % (
                self.profile.name,
                self.operations,
                self.injected_transient,
                self.injected_permanent,
                self.memory_drops_fired,
            )
        )


def _builtin_profiles():
    """The named profiles the chaos CLI and CI smoke job replay.

    The recoverable profiles use ``at_operations`` triggers with a
    ``limit``, so the number of injected faults — and therefore the
    service's retry/degradation counters — is exact by construction
    for every paper query: per-site counters keep climbing across
    retries, so each threshold fires exactly once no matter how few
    operations one plan performs (the index-driven paper queries read
    as few as three heap pages per attempt).  Memory-drop thresholds
    sit below the smallest query's per-attempt operation count for the
    same reason.  ``flaky-storage`` adds a seeded rate on top to
    exercise the probabilistic path; its counts vary by seed but are
    identical across runs of the same seed.
    """
    profiles = [
        FaultProfile("none", description="no faults (baseline)"),
        FaultProfile(
            "transient-io",
            rules=(
                FaultRule(
                    "heap_read",
                    kind="transient",
                    at_operations=(2, 5),
                    limit=2,
                ),
            ),
            description="two transient heap-read faults, then clean",
        ),
        FaultProfile(
            "memory-drop",
            rules=(),
            memory_drops=(MemoryDropStage(3, 2),),
            description="one mid-query memory drop to 2 pages",
        ),
        FaultProfile(
            "transient-and-drop",
            rules=(
                FaultRule(
                    "heap_read",
                    kind="transient",
                    at_operations=(2, 5),
                    limit=2,
                ),
            ),
            memory_drops=(MemoryDropStage(7, 2),),
            description=(
                "two transient heap-read faults plus one memory drop: "
                "the differential robustness gate's recoverable profile"
            ),
        ),
        FaultProfile(
            "flaky-storage",
            rules=(
                FaultRule("heap_read", kind="transient", rate=0.001, limit=3),
                FaultRule("index_probe", kind="transient", rate=0.002,
                          limit=2),
            ),
            memory_drops=(MemoryDropStage(500, 4),),
            description="seeded random transient faults and a memory drop",
        ),
        FaultProfile(
            "broken-disk",
            rules=(
                FaultRule("heap_read", kind="permanent", at_operations=(3,),
                          limit=1),
            ),
            description="a permanent heap-read fault: fail fast, no retry",
        ),
    ]
    return {profile.name: profile for profile in profiles}


#: Named profiles, ``python -m repro chaos --profile <name>``.
FAULT_PROFILES = _builtin_profiles()


def fault_profile(name):
    """Look up a named profile; raises with the valid names."""
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        raise ExecutionError(
            "unknown fault profile %r (valid: %s)"
            % (name, ", ".join(sorted(FAULT_PROFILES)))
        ) from None
