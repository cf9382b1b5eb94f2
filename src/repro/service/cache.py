"""An LRU cache of optimized dynamic plans, keyed by query signature.

The cache stores one :class:`PlanCacheEntry` per canonical query
signature (:func:`repro.optimizer.query.canonical_signature`).  An
entry owns the compiled dynamic plan, the parameter space it was
optimized for, per-entry usage statistics, and the *covered bounds*:
the parameter intervals the plan's choose-plan alternatives were
constructed over.

Life cycle: live -> retained -> gone.  ``capacity`` counts *live*
entries.  Evicting one *demotes* it to a second LRU map: it keeps its
plan, its decision program, bounds and counters and loses only the
chosen-plan memo and the on-demand fallback plan; a later lookup
*promotes* it — a hit that costs a lookup, since neither the optimizer
nor the decision compiler runs — and only that map's own overflow drops
a plan (paper Sections 4, 6; DESIGN.md).

Staleness (the paper's "plan becomes stale" case): a dynamic plan is
provably optimal only for bindings inside the compile-time intervals.
When an invocation's bindings drift outside the covered bounds, the
entry is re-optimized over its covered bounds with each drifted
selectivity widened to the domain edge (1.0 above, 0.0 below; memory
widens exactly to the drifted value), and the fresh plan replaces the
stale one in place — under the entry's lock, so concurrent readers
never see a torn entry.  Widening to the edge gives every drifted entry
of a shape family one input signature, so they share one optimizer
run, and it leaves each selectivity stale at most once per side.

Thread safety: the cache-level lock guards only the LRU map and the
counters; plan compilation happens under the per-entry lock, so a
burst of concurrent first requests for the same query optimizes once
(single-flight) while requests for *different* queries compile in
parallel.
"""

import threading
from collections import OrderedDict

from repro.algebra.expressions import SelectionPredicate
from repro.common.intervals import Interval
from repro.cost.parameters import MEMORY_PARAMETER, Parameter
from repro.optimizer.query import QuerySpec, canonical_signature, signature_digest

#: Retained (demoted) entries kept per live slot.  By deep ``getsizeof``
#: on the benchmark's 4-way plans a live entry is ~18 KB of plan DAG +
#: ~25 KB of decision program + 3-6 KB of memo (10-way: 203 + 280 + 240)
#: and a retained one, which keeps plan and program, ~47 KB (10-way:
#: ~490), so four per slot bound the tier at about 3.7x the live
#: entries' bytes (DESIGN.md, "Entry life cycle").
RETAINED_PER_SLOT = 4


class CacheStatistics:
    """Mutable counters describing cache behaviour, and their lock."""

    __slots__ = (
        "lock",
        "lookups",
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "promotions",
    )

    def __init__(self):
        #: Guards the counters, and the maps of the cache counting here.
        self.lock = threading.Lock()
        self.lookups = 0
        #: Lookups that ran no optimizer: a plan was live or retained.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Hits that found their plan in the retained tier.
        self.promotions = 0

    @property
    def hit_rate(self):
        """Fraction of lookups that found a compiled plan."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self):
        """A copy of the counters as a dict.

        Reads the fields one by one, so a concurrent writer can be
        observed mid-update; callers needing an internally consistent
        view take :meth:`PlanCache.stats_snapshot`, which holds the
        cache lock across the whole copy.
        """
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "promotions": self.promotions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self):
        return (
            "CacheStatistics(lookups=%d, hits=%d, misses=%d, "
            "evictions=%d, invalidations=%d, promotions=%d)"
            % (
                self.lookups,
                self.hits,
                self.misses,
                self.evictions,
                self.invalidations,
                self.promotions,
            )
        )


class PlanCacheEntry:
    """One cached dynamic plan plus its usage accounting.

    ``covered_bounds`` maps each uncertain parameter name to the
    :class:`~repro.common.intervals.Interval` the current plan was
    optimized over; ``observed`` tracks the (lo, hi) range of bindings
    actually seen, which drives the re-optimization decision and is
    reported by the service statistics.
    """

    def __init__(self, signature, query):
        self.signature = signature
        self.digest = signature_digest(signature)
        self.query = query
        self.plan = None
        #: The plan's compiled start-up decision procedure (see
        #: :mod:`repro.executor.decision`); None until one is installed.
        self.decision = None
        self.parameter_space = query.parameter_space
        self.covered_bounds = _covered_bounds(query.parameter_space)
        self.observed = {}
        self.hits = 0
        self.reoptimizations = 0
        #: ``{parameter: predicate}`` of declared selectivities the last
        #: run that observed them found outside ``covered_bounds``; once
        #: they cover the decisions' read set, later ``auto`` runs count
        #: them at start-up.  Replaced, never mutated in place,
        #: under ``lock``; kept through demotion and re-optimization, and
        #: not snapshotted.
        self.distrusted = {}
        #: Conservative static plan compiled on demand when graceful
        #: degradation exhausts its restart budget (see
        #: :mod:`repro.resilience`); ``None`` until first needed.
        self.fallback_plan = None
        #: Decision-outcome -> rebuilt static plan memo used by
        #: ``QueryService.serve``: one query shape has only a few
        #: distinct choose-plan outcomes, so the chosen static plan is
        #: rebuilt once per outcome instead of once per invocation.
        #: Replaced (never cleared in place) by ``install`` and
        #: ``demote``, so a reader holding the old dict can finish
        #: against the plan the dict was built for.
        self.chosen_memo = {}
        #: Demoted and not served since (:meth:`demote`).
        self.demoted = False
        #: The optimizer run the plan was compiled or shared from, if
        #: its partition shares it (``QueryService``, "Shared
        #: compiles"); holding it keeps it shareable.
        self.compiled_from = None
        self.lock = threading.RLock()

    def install(self, plan, parameter_space, decision=None, compiled_from=None):
        """Publish a compiled plan (call with ``self.lock`` held).

        Replaces the start-up decision program atomically with the
        plan: a stale program can never outlive the plan it was
        compiled for.
        """
        self.plan = plan
        self.decision = decision
        self.compiled_from = compiled_from
        self.chosen_memo = {}
        self.demoted = False
        self.parameter_space = parameter_space
        self.covered_bounds = _covered_bounds(parameter_space)

    def demote(self):
        """Drop the memo and the fallback plan; keep plan, program, bounds.

        Needs no entry lock: both are replaced, never mutated, and stay
        valid for the unchanged plan, so a request that read either
        finishes on it.
        """
        self.chosen_memo = {}
        self.fallback_plan = None
        self.demoted = True

    def snapshot(self):
        """Consistent ``(plan, parameter_space, decision)`` for start-up."""
        with self.lock:
            return self.plan, self.parameter_space, self.decision

    def stale_parameters(self, bindings):
        """Bound parameters falling outside the covered intervals.

        Returns a list of ``(name, value)`` pairs; an empty list means
        the cached plan's optimality argument covers these bindings.
        """
        stale = []
        with self.lock:
            for name, bounds in self.covered_bounds.items():
                if not bindings.has_parameter(name):
                    continue
                value = bindings.parameter(name)
                if not bounds.contains(value):
                    stale.append((name, value))
        return stale

    def check_and_observe(self, bindings):
        """:meth:`stale_parameters` plus recording the binding values.

        One pass under one lock acquisition folds each bound value into
        the entry's observed ``(lo, hi)`` range.  Returns the stale
        ``(name, value)`` list.  Observation is order-insensitive with
        respect to re-optimization: the observed (lo, hi) fold depends
        only on the parameter *names*, which widening preserves, so
        observing before a re-optimization records exactly what
        observing after it would.
        """
        stale = []
        with self.lock:
            observed = self.observed
            for name, bounds in self.covered_bounds.items():
                value = bindings.get_parameter(name)
                if value is None:
                    continue
                if not bounds.contains(value):
                    stale.append((name, value))
                seen = observed.get(name)
                if seen is None:
                    observed[name] = (value, value)
                elif value < seen[0] or value > seen[1]:
                    observed[name] = (
                        min(seen[0], value),
                        max(seen[1], value),
                    )
        return stale

    def widened_query(self, stale):
        """The entry's query over its covered bounds, widened to the
        domain edge for stale values.

        ``stale`` is the ``(name, value)`` list from
        :meth:`stale_parameters`.  Widening starts from what the entry
        covers now (``covered_bounds``, ``parameter_space``), not from
        the declared bounds, so it never gives back an earlier widening.
        A stale selectivity widens its bound to the domain edge — 1.0
        above, 0.0 below (or to the value itself if it lies past the
        edge) — on its predicate (the parameter space is rebuilt by the
        :class:`~repro.optimizer.query.QuerySpec` constructor), so the
        drifted entries of one shape family share one input signature
        and one optimizer run.  A stale memory binding widens the memory
        parameter exactly to the value, directly on the rebuilt space.
        """
        drift = dict(stale)
        selections = {}
        for relation_name, predicate in self.query.selections.items():
            name = predicate.selectivity_parameter
            if predicate.is_uncertain:
                covered = self.covered_bounds[name]
                lower, upper = covered.lower, covered.upper
                if name in drift:
                    value = drift[name]
                    if value < lower:
                        lower = min(0.0, value)
                    if value > upper:
                        upper = max(1.0, value)
                predicate = SelectionPredicate(
                    predicate.comparison,
                    selectivity_parameter=name,
                    selectivity_bounds=(lower, upper),
                    expected_selectivity=predicate.expected_selectivity,
                )
            selections[relation_name] = predicate
        widened = QuerySpec(
            self.query.relations,
            selections,
            self.query.join_predicates,
            memory_uncertain=self.query.memory_uncertain,
            name=self.query.name,
            projection=self.query.projection,
        )
        memory = self.parameter_space.get(MEMORY_PARAMETER)
        lower, upper = memory.bounds.lower, memory.bounds.upper
        if MEMORY_PARAMETER in drift:
            lower = min(lower, drift[MEMORY_PARAMETER])
            upper = max(upper, drift[MEMORY_PARAMETER])
        widened.parameter_space.add(
            Parameter(
                MEMORY_PARAMETER,
                (lower, upper),
                memory.expected,
                uncertain=memory.uncertain,
            )
        )
        return widened

    def distrust(self, observations):
        """Fold a run's observed selectivities into :attr:`distrusted`.

        ``observations`` maps a parameter to ``(predicate, observed)``.
        A value outside the covered interval marks the parameter, one
        inside it clears the mark.
        """
        with self.lock:
            distrusted = dict(self.distrusted)
            for name, (predicate, observed) in observations.items():
                bounds = self.covered_bounds.get(name)
                if bounds is None or bounds.contains(observed):
                    distrusted.pop(name, None)
                else:
                    distrusted[name] = predicate
            if distrusted != self.distrusted:
                self.distrusted = distrusted

    def __repr__(self):
        return (
            "PlanCacheEntry(%s, hits=%d, reoptimizations=%d, compiled=%s, "
            "distrusted=%s)"
            % (
                self.digest,
                self.hits,
                self.reoptimizations,
                self.plan is not None,
                sorted(self.distrusted),
            )
        )


def _covered_bounds(parameter_space):
    """Intervals of the uncertain parameters a plan was built over."""
    bounds = {}
    for name in parameter_space.uncertain_names():
        parameter = parameter_space.get(name)
        bounds[name] = Interval(parameter.bounds.lower, parameter.bounds.upper)
    return bounds


class PlanCache:
    """Thread-safe LRU map from canonical query signature to entry.

    ``capacity`` bounds the *live* entries, all that ``entries()``,
    ``len()`` and snapshots see (retained tier: module docstring).

    Its counters are exact under the cache lock, which is theirs:
    ``stats`` lets an owner that outlives the cache keep them.  A
    partition passes the counters its shard's books keep
    (:class:`~repro.service.service.ServiceBooks`), so a rebuilt
    partition counts on from where the last one stopped.  By default
    the cache keeps its own.
    """

    def __init__(self, capacity=64, stats=None):
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = int(capacity)
        self.stats = CacheStatistics() if stats is None else stats
        self._entries = OrderedDict()
        self._retained = OrderedDict()
        self._lock = self.stats.lock

    def entry_for_signature(self, signature, query):
        """Look up (or create) the entry for a query's canonical signature.

        Whoever routes the request canonicalizes the query once and
        hands the signature down.  Returns ``(entry, compiled)`` where
        ``compiled`` says whether a plan was already installed at
        lookup time — a hit is a lookup that ran no optimizer, promotion
        of a retained plan included.  Making an entry live may demote the
        least recently used one.  The caller compiles missing plans under
        ``entry.lock`` (``entry.install``).
        """
        with self._lock:
            self.stats.lookups += 1
            entry = self._entries.get(signature)
            if entry is not None:
                self._entries.move_to_end(signature)
                compiled = entry.plan is not None
                if compiled:
                    self.stats.hits += 1
                    entry.hits += 1
                else:
                    self.stats.misses += 1
                return entry, compiled
            entry = self._retained.pop(signature, None)
            compiled = entry is not None
            if compiled:
                self.stats.hits += 1
                self.stats.promotions += 1
                entry.hits += 1
            else:
                entry = PlanCacheEntry(signature, query)
                self.stats.misses += 1
            self._make_live(entry)
            return entry, compiled

    def _make_live(self, entry):
        """Insert ``entry`` (cache lock held); the one eviction function:
        an evicted plan moves to the retained map, whose overflow is dropped."""
        self._entries[entry.signature] = entry
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if evicted.plan is not None:
                evicted.demote()
                self._retained[evicted.signature] = evicted
                if len(self._retained) > RETAINED_PER_SLOT * self.capacity:
                    self._retained.popitem(last=False)

    def seed_entry(self, signature, query):
        """Insert an entry for restore, outside the lookup accounting.

        The snapshot-restore path (:mod:`repro.service.durability`)
        pre-populates the cache before any request arrives; counting
        those insertions as lookups/misses would make the hit-rate lie
        about serving behaviour, so this touches only the LRU map (and
        the eviction counter, which stays exact).  Returns ``(entry,
        created)``; an existing entry is returned untouched so restore
        never clobbers a partition that already warmed itself.
        """
        with self._lock:
            entry = self._entries.get(signature) or self._retained.get(signature)
            if entry is not None:
                return entry, False
            entry = PlanCacheEntry(signature, query)
            self._make_live(entry)
            return entry, True

    def get(self, query):
        """The entry for a query, or ``None`` (no statistics side effects)."""
        signature = canonical_signature(query)
        with self._lock:
            return self._entries.get(signature)

    def record_reoptimization(self):
        """Count one staleness-driven in-place re-optimization."""
        with self._lock:
            self.stats.invalidations += 1

    def stats_snapshot(self):
        """An internally consistent counter snapshot (plus entry count).

        Unlike ``self.stats.snapshot()`` — which reads field by field
        while lookups may be updating them — this holds the cache lock
        across the whole copy, so the returned counts describe one
        instant: ``hits + misses == lookups`` always, and aggregating
        the snapshots of several shard caches loses no counts.
        """
        with self._lock:
            snapshot = self.stats.snapshot()
            snapshot["entries"] = len(self._entries)
            snapshot["retained"] = len(self._retained)
            return snapshot

    def entries(self):
        """Live entries in LRU order (least recently used first)."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, query):
        return self.get(query) is not None

    def __repr__(self):
        return "PlanCache(%d/%d entries, %r)" % (
            len(self),
            self.capacity,
            self.stats,
        )
