"""Durable plan-cache state: snapshot, atomic persist, warm restore.

A process restart forgets every compiled plan, widened parameter
bound, and calibration observation the serving tier paid optimizer
time to learn; re-reaching amortized latency then costs one full
re-optimization per hot signature.  This module makes that state
durable without pickling code objects:

* **Snapshot** — :func:`build_snapshot` walks a gateway's plan-cache
  entries and serializes, per entry, the plain data a fresh process
  needs to rebuild it: the query spec (relations, selection
  predicates, join predicates, projection), the installed plan as an
  :class:`~repro.executor.access_module.AccessModule` JSON payload,
  the *current* parameter space (including bounds widened by
  staleness re-optimizations), the observed binding ranges, and the
  hit/re-optimization counters.  Decision programs are deliberately
  **not** stored — generated code is re-compiled on load, so a
  snapshot can never smuggle stale code across a version boundary.
* **Persist** — :func:`write_snapshot` writes a versioned, checksummed
  JSON document via the atomic temp-file + ``os.replace`` dance:
  readers see either the old snapshot or the new one, never a torn
  write.  :func:`read_snapshot` refuses wrong formats/versions
  (:class:`~repro.common.errors.SnapshotVersionError`) and bytes that
  do not decode, parse or checksum
  (:class:`~repro.common.errors.SnapshotCorruptError`).
* **Restore** — :func:`restore_gateway` routes each entry to the shard
  owning its recomputed canonical signature (so the snapshot survives
  a shard-count change), seeds the partition outside the hit/miss
  accounting (:meth:`~repro.service.cache.PlanCache.seed_entry`),
  materializes the plan, re-compiles the start-up decision program
  (an entry whose program does not compile is a restore error), and
  installs everything under the entry lock.  Restored entries have
  a plan installed, so the first live request for a restored signature
  is a cache *hit* that skips compilation entirely — the counter-level
  proof that warm restore works.

The gateway drives this through :class:`DurabilityConfig`: restore at
startup, snapshot every N completed requests (count-based, so tests
are deterministic), snapshot on shutdown, and optionally re-warm a
restarted shard's partition from the last snapshot on disk.
"""

import hashlib
import json
import os
import tempfile

from repro.common.errors import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
)
from repro.executor.access_module import (
    AccessModule,
    _joins_from_list,
    _joins_to_list,
    _selection_from_dict,
    _selection_to_dict,
)
from repro.optimizer.query import QuerySpec, canonical_signature
from repro.cost.parameters import Parameter, ParameterSpace
from repro.executor.decision import CompiledDecision

__all__ = [
    "DurabilityConfig",
    "RestoreStats",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "build_snapshot",
    "read_snapshot",
    "restore_gateway",
    "write_snapshot",
]

#: Magic identifying a plan-cache snapshot document.
SNAPSHOT_FORMAT = "repro-plan-cache-snapshot"

#: Bump when the entry schema changes incompatibly; readers refuse
#: other versions rather than guess.
SNAPSHOT_VERSION = 1


# ----------------------------------------------------------------------
# Entry (de)serialization
# ----------------------------------------------------------------------


def _query_to_dict(query):
    """A :class:`QuerySpec` as plain data (inverse of :func:`_query_from_dict`)."""
    return {
        "relations": list(query.relations),
        "selections": {
            relation: _selection_to_dict(predicate)
            for relation, predicate in sorted(query.selections.items())
        },
        "joins": _joins_to_list(query.join_predicates),
        "memory_uncertain": query.memory_uncertain,
        "name": query.name,
        "projection": list(query.projection) if query.projection else None,
    }


def _query_from_dict(data):
    selections = {
        relation: _selection_from_dict(predicate)
        for relation, predicate in data["selections"].items()
    }
    projection = data.get("projection")
    return QuerySpec(
        data["relations"],
        selections,
        _joins_from_list(data["joins"]),
        memory_uncertain=data["memory_uncertain"],
        name=data["name"],
        projection=tuple(projection) if projection else None,
    )


def _space_to_list(space):
    """The *current* parameter space — widened bounds included."""
    parameters = []
    for name in space.names():
        parameter = space.get(name)
        parameters.append(
            {
                "name": name,
                "lower": parameter.bounds.lower,
                "upper": parameter.bounds.upper,
                "expected": parameter.expected,
                "uncertain": parameter.uncertain,
            }
        )
    return parameters


def _space_from_list(data):
    return ParameterSpace(
        Parameter(
            item["name"],
            (item["lower"], item["upper"]),
            item["expected"],
            uncertain=item["uncertain"],
        )
        for item in data
    )


def _entry_to_dict(entry):
    """One cache entry as plain data, read consistently under its lock."""
    with entry.lock:
        if entry.plan is None:
            return None
        # The plan may be a shared compile's, carrying another query's
        # predicates: the entry stores its own expected values.
        expected = {
            predicate.selectivity_parameter: predicate.expected_selectivity
            for predicate in entry.query.selections.values()
            if predicate.is_uncertain
        }
        module = AccessModule.from_plan(
            entry.plan, entry.query.name or "query", expected
        )
        return {
            "query": _query_to_dict(entry.query),
            "plan": module.to_bytes().decode("utf-8"),
            "parameters": _space_to_list(entry.parameter_space),
            "observed": {
                name: [seen[0], seen[1]]
                for name, seen in sorted(entry.observed.items())
            },
            "hits": entry.hits,
            "reoptimizations": entry.reoptimizations,
        }


class RestoreStats:
    """What one restore pass did, for logs, tests, and metrics."""

    __slots__ = ("restored", "skipped", "errors")

    def __init__(self):
        self.restored = 0
        #: Entries already present in the target partition (restore
        #: never clobbers a warmer-than-snapshot entry).
        self.skipped = 0
        #: Per-entry restore failures, as ``(query_name, message)``;
        #: one bad entry never aborts the rest of the restore.
        self.errors = []

    def __repr__(self):
        return "RestoreStats(restored=%d, skipped=%d, errors=%d)" % (
            self.restored,
            self.skipped,
            len(self.errors),
        )


# ----------------------------------------------------------------------
# Snapshot document
# ----------------------------------------------------------------------


def _checksum(entries):
    body = json.dumps(
        {"entries": entries, "format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def build_snapshot(gateway):
    """A snapshot document for a
    :class:`~repro.service.sharding.ShardedQueryService`.

    Every compiled live entry across the shards' caches is captured.
    Entries without a plan (admitted but never compiled) are skipped —
    there is nothing to warm from them.
    """
    entries = []
    for shard in gateway.shards:
        for entry in shard.service.cache.entries():
            data = _entry_to_dict(entry)
            if data is not None:
                entries.append(data)
    entries.sort(key=lambda item: json.dumps(item, sort_keys=True))
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "entries": entries,
        "checksum": _checksum(entries),
    }


def write_snapshot(path, snapshot):
    """Atomically persist a snapshot document: write-temp, fsync, rename.

    ``os.replace`` is atomic on POSIX, so a concurrent reader (or a
    crash mid-write) sees either the previous complete snapshot or the
    new complete snapshot — never a prefix.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    payload = json.dumps(snapshot, sort_keys=True, indent=1)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def read_snapshot(path):
    """Load and validate a snapshot document; typed errors on refusal."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as error:
        raise SnapshotError(
            "cannot read snapshot %s: %s" % (path, error), reason="unreadable"
        ) from error
    try:
        snapshot = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as error:
        raise SnapshotCorruptError(
            "snapshot %s is not valid UTF-8: %s" % (path, error),
            reason="bad_encoding",
        ) from error
    except ValueError as error:
        raise SnapshotCorruptError(
            "snapshot %s is not valid JSON: %s" % (path, error),
            reason="bad_json",
        ) from error
    if not isinstance(snapshot, dict):
        raise SnapshotCorruptError(
            "snapshot %s is not a JSON object" % path, reason="bad_json"
        )
    found = (snapshot.get("format"), snapshot.get("version"))
    supported = (SNAPSHOT_FORMAT, SNAPSHOT_VERSION)
    if found != supported:
        raise SnapshotVersionError(
            "snapshot %s has format/version %r; this build reads %r"
            % (path, found, supported),
            found=found,
            supported=supported,
            reason="version_mismatch",
        )
    entries = snapshot.get("entries")
    if not isinstance(entries, list):
        raise SnapshotCorruptError(
            "snapshot %s has no entry list" % path, reason="missing_entries"
        )
    if snapshot.get("checksum") != _checksum(entries):
        raise SnapshotCorruptError(
            "snapshot %s failed its checksum — refusing to restore" % path,
            reason="checksum_mismatch",
        )
    return snapshot


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def _restore_entry(service, data):
    """Rebuild one entry inside ``service``'s cache partition.

    Returns ``"restored"``, or ``"skipped"`` when the partition already
    holds the signature.
    """
    query = _query_from_dict(data["query"])
    signature = canonical_signature(query)
    entry, created = service.cache.seed_entry(signature, query)
    if not created:
        return "skipped"
    space = _space_from_list(data["parameters"])
    plan = AccessModule.from_bytes(data["plan"].encode("utf-8")).materialize()
    decision = CompiledDecision(plan, service.catalog, space)
    with entry.lock:
        entry.install(plan, space, decision)
        entry.observed = {
            name: (seen[0], seen[1])
            for name, seen in data.get("observed", {}).items()
        }
        entry.hits = int(data.get("hits", 0))
        entry.reoptimizations = int(data.get("reoptimizations", 0))
    return "restored"


def _restore_entries(service, entries, stats):
    for data in entries:
        try:
            outcome = _restore_entry(service, data)
        except Exception as error:  # noqa: BLE001 — one bad entry must
            # not cold-start the whole tier; the rest still restore.
            name = None
            try:
                name = data["query"]["name"]
            except (KeyError, TypeError):
                pass
            stats.errors.append((name, str(error)))
            continue
        if outcome == "restored":
            stats.restored += 1
        else:
            stats.skipped += 1


def restore_gateway(gateway, snapshot, only_shard=None):
    """Warm a sharded gateway from a snapshot document.

    Each entry's canonical signature is recomputed from the restored
    query spec and routed with the gateway's own hash — the snapshot
    carries no shard indexes, so it restores correctly into a gateway
    with a *different* shard count.  ``only_shard`` restricts the
    restore to one shard index (the supervisor's restart-re-warm
    path).
    """
    from repro.service.sharding import shard_index_for

    stats = RestoreStats()
    shard_count = len(gateway.shards)
    by_shard = [[] for _ in range(shard_count)]
    for data in snapshot["entries"]:
        try:
            query = _query_from_dict(data["query"])
            index = shard_index_for(canonical_signature(query), shard_count)
        except Exception as error:  # noqa: BLE001 — see _restore_entries
            name = None
            try:
                name = data["query"]["name"]
            except (KeyError, TypeError):
                pass
            stats.errors.append((name, str(error)))
            continue
        by_shard[index].append(data)
    for index, entries in enumerate(by_shard):
        if only_shard is not None and index != only_shard:
            continue
        _restore_entries(gateway.shards[index].service, entries, stats)
    return stats


class DurabilityConfig:
    """How a gateway persists and restores its plan-cache state.

    A gateway with a config always warm-restores from ``path`` at
    construction (a missing, corrupt or version-mismatched snapshot is
    counted and skipped — a bad file must degrade to a cold start,
    never a crash) and re-warms a shard the supervisor restarts from
    the last snapshot on disk.

    Parameters
    ----------
    path:
        Snapshot file location.
    snapshot_every:
        Write a snapshot after every N *completed* requests (count-
        based rather than timer-based, so snapshot points are
        deterministic under replay).  ``None`` disables periodic
        snapshotting; the on-shutdown snapshot still runs.
    snapshot_on_shutdown:
        Write a final snapshot from :meth:`ShardedQueryService.shutdown`.
    """

    def __init__(self, path, snapshot_every=None, snapshot_on_shutdown=True):
        self.path = os.fspath(path)
        if snapshot_every is not None and int(snapshot_every) < 1:
            raise SnapshotError(
                "snapshot_every must be at least 1 request",
                reason="bad_config",
            )
        self.snapshot_every = (
            int(snapshot_every) if snapshot_every is not None else None
        )
        self.snapshot_on_shutdown = bool(snapshot_on_shutdown)

    @classmethod
    def coerce(cls, value):
        """``None``, a path, or a config — normalized to config-or-None."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    def __repr__(self):
        return "DurabilityConfig(%r, every=%r, on_shutdown=%s)" % (
            self.path,
            self.snapshot_every,
            self.snapshot_on_shutdown,
        )
