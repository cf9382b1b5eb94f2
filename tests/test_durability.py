"""Durable plan-cache snapshots: round trip, refusal, warm restore.

The contract under test is the module docstring of
:mod:`repro.service.durability`: a snapshot is versioned, checksummed,
pickle-free JSON written atomically; a restore rebuilds cache entries
— plan, parameter space, observed ranges, counters — and re-compiles
generated code rather than loading it; and a restored tier serves its
hot set as cache *hits* without paying the optimizer again, which the
tests prove at the counter level by wrapping the optimizer entry
point and requiring zero calls after restore.
"""

import functools
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.catalog.synthetic import populate_database
from repro.common.errors import (
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
)
from repro.optimizer import OptimizerConfig
from repro.optimizer.optimizer import optimize_dynamic
from repro.service import (
    DurabilityConfig,
    ShardedQueryService,
    build_snapshot,
    read_snapshot,
    restore_gateway,
    write_snapshot,
)
from repro.service.durability import SNAPSHOT_FORMAT, SNAPSHOT_VERSION
from repro.storage import Database
from repro.workloads.traffic import TrafficSpec, to_service_requests


def traffic(requests=30, shapes=5, seed=0):
    spec = TrafficSpec.zipf(
        requests=requests, query_shapes=shapes, tenants=2, seed=seed
    )
    return to_service_requests(spec)


class CountingOptimizer:
    """Wraps the optimizer so tests can assert it was never consulted."""

    def __init__(self):
        self.calls = 0

    def __call__(self, catalog, query, **kwargs):
        self.calls += 1
        return optimize_dynamic(catalog, query, **kwargs)


def make_gateway(catalog, shards=3, durability=None, optimizer=None, seed=7):
    database = Database(catalog)
    populate_database(database, seed=seed)
    return ShardedQueryService(
        database,
        shards=shards,
        capacity=16,
        durability=durability,
        optimize=optimizer or optimize_dynamic,
    )


class TestSnapshotDocument:
    """The snapshot file format and its refusal modes."""

    def test_round_trip_preserves_document(self, tmp_path):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            gateway.run_batch(requests)
            snapshot = build_snapshot(gateway)
        finally:
            gateway.shutdown()
        assert snapshot["format"] == SNAPSHOT_FORMAT
        # Removing the fused engine changed nothing on disk: snapshots
        # never carried its pipelines, so the version stays put.
        assert snapshot["version"] == SNAPSHOT_VERSION == 1
        assert snapshot["entries"], "traffic must compile at least one plan"
        path = tmp_path / "cache.json"
        write_snapshot(path, snapshot)
        assert read_snapshot(path) == snapshot

    def test_write_is_atomic_and_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "cache.json"
        first = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "entries": [],
            "checksum": read_checksum_of([]),
        }
        write_snapshot(path, first)
        write_snapshot(path, first)  # overwrite in place
        assert read_snapshot(path) == first
        leftovers = [
            name for name in os.listdir(tmp_path) if name != "cache.json"
        ]
        assert leftovers == []

    def test_missing_file_is_typed_unreadable(self, tmp_path):
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(tmp_path / "absent.json")
        assert excinfo.value.reason == "unreadable"

    def test_garbage_bytes_are_bad_json(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotCorruptError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "bad_json"

    def test_tampered_entries_fail_the_checksum(self, tmp_path):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            gateway.run_batch(requests)
            snapshot = build_snapshot(gateway)
        finally:
            gateway.shutdown()
        path = tmp_path / "cache.json"
        write_snapshot(path, snapshot)
        document = json.loads(path.read_text())
        document["entries"][0]["hits"] += 1
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotCorruptError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "checksum_mismatch"

    def test_future_version_is_refused_not_guessed(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps(
                {
                    "format": SNAPSHOT_FORMAT,
                    "version": SNAPSHOT_VERSION + 1,
                    "entries": [],
                    "checksum": "",
                }
            )
        )
        with pytest.raises(SnapshotVersionError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "version_mismatch"
        assert excinfo.value.found == (SNAPSHOT_FORMAT, SNAPSHOT_VERSION + 1)
        assert excinfo.value.supported == (SNAPSHOT_FORMAT, SNAPSHOT_VERSION)

    def test_no_plan_payload_is_executable_code(self, tmp_path):
        """Snapshots stay pickle-free: plans are JSON documents."""
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            gateway.run_batch(requests)
            snapshot = build_snapshot(gateway)
        finally:
            gateway.shutdown()
        for entry in snapshot["entries"]:
            payload = json.loads(entry["plan"])  # must parse as JSON
            assert isinstance(payload, dict)
            assert "decision" not in entry
            assert "pipelines" not in entry


def read_checksum_of(entries):
    from repro.service.durability import _checksum

    return _checksum(entries)


def served_plans(catalog, requests, snapshot):
    """What a two-shard gateway restored from ``snapshot`` serves."""
    with ShardedQueryService(
        Database(catalog), shards=2, capacity=16, execute=False
    ) as gateway:
        restore_gateway(gateway, snapshot)
        return [
            (result.digest, result.cache_hit, result.chosen.digest())
            for result in gateway.run_batch(requests)
        ]


@functools.lru_cache(maxsize=None)
def two_entry_snapshot():
    """``(catalog, requests, file bytes, served plans)`` of a real
    two-entry snapshot, built once for every fuzzed example."""
    catalog, _queries, requests = traffic(requests=8, shapes=2)
    with ShardedQueryService(
        Database(catalog), shards=1, capacity=16, execute=False
    ) as gateway:
        gateway.run_batch(requests)
        snapshot = build_snapshot(gateway)
    assert len(snapshot["entries"]) == 2
    payload = json.dumps(snapshot, sort_keys=True, indent=1).encode("utf-8")
    return catalog, requests, payload, served_plans(catalog, requests, snapshot)


def mutated_snapshot(data, original):
    """One truncation, single-bit flip, or format/version skew."""
    kind = data.draw(st.sampled_from(("truncate", "flip", "skew")))
    if kind == "truncate":
        return original[: data.draw(st.integers(0, len(original) - 1))]
    if kind == "flip":
        bit = data.draw(st.integers(0, 8 * len(original) - 1))
        flipped = bytearray(original)
        flipped[bit // 8] ^= 1 << (bit % 8)
        return bytes(flipped)
    document = json.loads(original)
    document["format"] = data.draw(st.sampled_from((SNAPSHOT_FORMAT, "", None)))
    document["version"] = data.draw(
        st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.text())
    )
    return json.dumps(document, sort_keys=True, indent=1).encode("utf-8")


class TestSnapshotIntegrity:
    """No damaged snapshot restores a plan the original would not."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damaged_snapshot_is_refused_or_serves_the_original_plans(
        self, tmp_path_factory, data
    ):
        catalog, requests, original, expected = two_entry_snapshot()
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_bytes(mutated_snapshot(data, original))
        try:
            snapshot = read_snapshot(path)
        except SnapshotError:
            return
        # Accepted: a neutral change (a float spelled another way,
        # ``"version": true``) — it must serve exactly what the
        # original serves.
        assert served_plans(catalog, requests, snapshot) == expected

    def test_non_utf8_snapshot_is_refused_typed_by_every_reader(
        self, tmp_path, capsys
    ):
        """One high-bit-flipped byte: gateway construction cold-starts,
        a supervisor restart comes back cold, ``serve-batch`` exits 2."""
        catalog, _queries, requests = traffic()
        path = tmp_path / "cache.json"
        gateway = make_gateway(catalog, durability=DurabilityConfig(path))
        try:
            gateway.run_batch(requests)
        finally:
            gateway.shutdown()
        damaged = bytearray(path.read_bytes())
        damaged[damaged.index(b'"entries"')] |= 0x80
        path.write_bytes(bytes(damaged))
        with pytest.raises(SnapshotCorruptError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "bad_encoding"

        config = DurabilityConfig(path, snapshot_on_shutdown=False)
        gateway = make_gateway(catalog, durability=config)
        try:
            assert gateway.restore_stats is None
            gateway.shard_for(requests[0].query).kill()
            gateway.supervisor.check()
            assert gateway.supervisor.counts()["restarts"] == 1
            assert gateway.snapshot_counts()["failures"] == 2
            assert len(gateway.run_batch(requests)) == len(requests)
        finally:
            gateway.shutdown()

        code = main(["serve-batch", "--invocations", "8", "--snapshot", str(path)])
        assert code == 2
        assert "not valid UTF-8" in capsys.readouterr().out


class TestWarmRestore:
    """A restored tier serves its hot set without re-optimizing."""

    def test_gateway_restore_serves_hits_with_zero_optimizer_calls(
        self, tmp_path
    ):
        catalog, _queries, requests = traffic()
        path = tmp_path / "cache.json"
        gateway = make_gateway(catalog, durability=DurabilityConfig(path))
        try:
            results = gateway.run_batch(requests)
            assert all(r.execution is not None for r in results)
        finally:
            gateway.shutdown()  # writes the shutdown snapshot

        optimizer = CountingOptimizer()
        warmed = make_gateway(
            catalog, durability=DurabilityConfig(path), optimizer=optimizer
        )
        try:
            stats = warmed.restore_stats
            assert stats is not None and stats.restored > 0
            assert stats.errors == []
            replay = warmed.run_batch(requests)
        finally:
            warmed.shutdown()
        assert optimizer.calls == 0
        assert all(result.cache_hit for result in replay)
        total = warmed.stats().total
        assert total.cache["hits"] == len(requests)
        assert total.optimize_count == 0

    def test_restored_rows_match_cold_rows(self, tmp_path):
        catalog, _queries, requests = traffic()
        path = tmp_path / "cache.json"
        gateway = make_gateway(catalog, durability=DurabilityConfig(path))
        try:
            cold = [
                sorted(
                    sorted(record.as_dict().items())
                    for record in result.execution.records
                )
                for result in gateway.run_batch(requests)
            ]
        finally:
            gateway.shutdown()
        warmed = make_gateway(catalog, durability=DurabilityConfig(path))
        try:
            assert warmed.restore_stats.restored > 0
            warm = [
                sorted(
                    sorted(record.as_dict().items())
                    for record in result.execution.records
                )
                for result in warmed.run_batch(requests)
            ]
        finally:
            warmed.shutdown()
        assert warm == cold

    def test_paper_form_snapshot_serves_the_default_rows_and_decisions(
        self, tmp_path
    ):
        """A snapshot whose entries hold the paper prototype's plans
        (``keep_equal_cost_plans=True``: merge-join twins kept, as every
        snapshot written before the default dropped them) restores under
        the default config, with the format unchanged: its entries serve
        as hits, without the optimizer, the rows and static plans a cold
        default gateway serves.  Only the plans differ, so only they make
        the default's snapshot smaller."""
        catalog, _queries, requests = traffic()

        def served(gateway):
            try:
                return [
                    (
                        result.chosen.digest(),
                        sorted(
                            sorted(record.as_dict().items())
                            for record in result.execution.records
                        ),
                    )
                    for result in gateway.run_batch(requests)
                ]
            finally:
                gateway.shutdown()

        paper_path = tmp_path / "paper.json"
        default_path = tmp_path / "default.json"
        paper = functools.partial(
            optimize_dynamic,
            config=OptimizerConfig.dynamic(keep_equal_cost_plans=True),
        )
        served(
            make_gateway(
                catalog, durability=DurabilityConfig(paper_path), optimizer=paper
            )
        )
        cold = served(
            make_gateway(catalog, durability=DurabilityConfig(default_path))
        )
        assert os.path.getsize(default_path) < os.path.getsize(paper_path)

        optimizer = CountingOptimizer()
        warmed = make_gateway(
            catalog,
            durability=DurabilityConfig(paper_path, snapshot_on_shutdown=False),
            optimizer=optimizer,
        )
        assert warmed.restore_stats.restored > 0
        assert warmed.restore_stats.errors == []
        restored = [
            entry for shard in warmed.shards for entry in shard.cache.entries()
        ]
        assert any(
            entry.plan.node_count()
            > optimize_dynamic(catalog, entry.query).node_count()
            for entry in restored
        )
        assert served(warmed) == cold
        assert optimizer.calls == 0

    def test_restore_survives_shard_count_change(self, tmp_path):
        catalog, _queries, requests = traffic()
        path = tmp_path / "cache.json"
        gateway = make_gateway(
            catalog, shards=3, durability=DurabilityConfig(path)
        )
        try:
            gateway.run_batch(requests)
        finally:
            gateway.shutdown()
        optimizer = CountingOptimizer()
        resharded = make_gateway(
            catalog,
            shards=2,
            durability=DurabilityConfig(path),
            optimizer=optimizer,
        )
        try:
            stats = resharded.restore_stats
            assert stats.restored > 0 and stats.errors == []
            replay = resharded.run_batch(requests)
        finally:
            resharded.shutdown()
        assert optimizer.calls == 0
        assert all(result.cache_hit for result in replay)

    def test_restore_never_clobbers_existing_entries(self, tmp_path):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            gateway.run_batch(requests)
            snapshot = build_snapshot(gateway)
            again = restore_gateway(gateway, snapshot)
        finally:
            gateway.shutdown()
        assert again.restored == 0
        assert again.skipped == len(snapshot["entries"])

    def test_single_service_round_trip(self, tmp_path):
        """One partition: snapshot, restore, serve without optimizing."""
        catalog, _queries, requests = traffic()
        with make_gateway(catalog, shards=1) as gateway:
            gateway.run_batch(requests)
            snapshot = build_snapshot(gateway)
        optimizer = CountingOptimizer()
        with make_gateway(catalog, shards=1, optimizer=optimizer) as fresh:
            stats = restore_gateway(fresh, snapshot)
            assert stats.restored == len(snapshot["entries"])
            results = fresh.run_batch(requests)
        assert optimizer.calls == 0
        assert all(result.cache_hit for result in results)

    def test_corrupt_snapshot_degrades_to_cold_start(self, tmp_path):
        catalog, _queries, requests = traffic()
        path = tmp_path / "cache.json"
        path.write_text("{definitely not a snapshot")
        gateway = make_gateway(catalog, durability=DurabilityConfig(path))
        try:
            assert gateway.restore_stats is None
            assert gateway.snapshot_counts()["failures"] == 1
            results = gateway.run_batch(requests)  # still serves
        finally:
            gateway.shutdown()
        assert len(results) == len(requests)

    def test_bad_entry_does_not_abort_the_rest(self, tmp_path):
        catalog, _queries, requests = traffic()
        gateway = make_gateway(catalog)
        try:
            gateway.run_batch(requests)
            snapshot = build_snapshot(gateway)
        finally:
            gateway.shutdown()
        snapshot["entries"][0] = {"query": {"name": "broken"}}
        fresh = make_gateway(catalog)
        try:
            stats = restore_gateway(fresh, snapshot)
        finally:
            fresh.shutdown()
        assert stats.restored == len(snapshot["entries"]) - 1
        assert len(stats.errors) == 1
        assert stats.errors[0][0] == "broken"


class TestSnapshotSchedule:
    """Periodic (count-based) and shutdown snapshotting."""

    def test_periodic_snapshots_are_count_based(self, tmp_path):
        catalog, _queries, requests = traffic(requests=30)
        path = tmp_path / "cache.json"
        config = DurabilityConfig(path, snapshot_every=10)
        gateway = make_gateway(catalog, durability=config)
        try:
            for request in requests:
                gateway.run(
                    request.query,
                    request.bindings,
                    tag=request.tag,
                    tenant=request.tenant,
                )
            counts = gateway.snapshot_counts()
            assert counts["written"] == 3  # at 10, 20, 30 completions
            assert counts["failures"] == 0
        finally:
            gateway.shutdown()
        assert gateway.snapshot_counts()["written"] == 4  # + shutdown

    def test_shutdown_snapshot_can_be_disabled(self, tmp_path):
        catalog, _queries, requests = traffic(requests=10)
        path = tmp_path / "cache.json"
        config = DurabilityConfig(path, snapshot_on_shutdown=False)
        gateway = make_gateway(catalog, durability=config)
        try:
            gateway.run_batch(requests)
        finally:
            gateway.shutdown()
        assert gateway.snapshot_counts()["written"] == 0
        assert not path.exists()

    def test_bad_snapshot_every_is_typed(self, tmp_path):
        with pytest.raises(SnapshotError) as excinfo:
            DurabilityConfig(tmp_path / "cache.json", snapshot_every=0)
        assert excinfo.value.reason == "bad_config"

    def test_coerce_accepts_paths_and_none(self, tmp_path):
        assert DurabilityConfig.coerce(None) is None
        config = DurabilityConfig.coerce(str(tmp_path / "cache.json"))
        assert isinstance(config, DurabilityConfig)
        assert DurabilityConfig.coerce(config) is config


class TestServeBatchSnapshotCLI:
    """The serve-batch --snapshot quickstart path."""

    def test_cold_then_warm_replay(self, tmp_path, capsys):
        path = str(tmp_path / "snap.json")
        args = [
            "serve-batch",
            "--invocations",
            "24",
            "--shards",
            "3",
            "--snapshot",
            path,
        ]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert "cold start" in cold_out
        assert "snapshot written to %s" % path in cold_out
        assert main(args) == 0
        warm_out = capsys.readouterr().out
        assert "restored" in warm_out
        assert "100.0% hit rate" in warm_out

    def test_corrupt_snapshot_is_a_clear_cli_error(self, tmp_path, capsys):
        path = tmp_path / "snap.json"
        path.write_text("{broken")
        code = main(
            ["serve-batch", "--invocations", "8", "--snapshot", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "snapshot" in out
