"""The differential robustness gate and the ``chaos`` CLI.

Every paper query replayed under the recoverable combined profile
must *complete with the fault-free result multiset* — via retries and
mid-run degradation — and the resilience counters must land on the
exact values the per-site fault triggers imply.  The permanent-fault
profile must fail every query fast, typed, in one attempt.  Reports
are byte-identical across runs of the same (profile, seed): that is
the property the CI chaos-smoke job pins.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.resilience.chaos import (
    DEFAULT_QUERIES,
    SERVICE_SCENARIOS,
    rows_digest,
    rows_sequence_digest,
    run_chaos,
    run_service_chaos,
)

#: Exact per-query counters for ``transient-and-drop`` at seed 0.
#:
#: The transient rule triggers on a site's 2nd and 5th heap read;
#: queries 1 and 5 choose index plans doing only 3 and 6 heap reads
#: through a single site, so they hit one trigger each, while the
#: join pipelines of queries 2-4 hit both.  Every query crosses the
#: memory-drop threshold once.  The triggers count logical storage
#: operations, so bulk (per-batch) charges trip them at the same
#: operation number one-at-a-time charges would.
EXPECTED_TRANSIENT_AND_DROP = {
    1: {"transient_retries": 1, "degradations": 1},
    2: {"transient_retries": 2, "degradations": 1},
    3: {"transient_retries": 2, "degradations": 1},
    4: {"transient_retries": 2, "degradations": 1},
    5: {"transient_retries": 1, "degradations": 1},
}


class TestRecoverableProfiles:
    def test_transient_and_drop_all_queries(self):
        report = run_chaos("transient-and-drop")
        assert report.passed, report.render()
        assert [o.number for o in report.outcomes] == list(DEFAULT_QUERIES)
        for outcome in report.outcomes:
            expected = EXPECTED_TRANSIENT_AND_DROP[outcome.number]
            assert outcome.outcome == "completed"
            assert outcome.rows_match
            assert outcome.digest == outcome.baseline_digest
            assert (
                outcome.resilience["transient_retries"]
                == expected["transient_retries"]
            )
            assert (
                outcome.resilience["degradations"]
                == expected["degradations"]
            )
            assert outcome.resilience["permanent_failures"] == 0
            assert outcome.resilience["fallback_activations"] == 0
            assert (
                outcome.injector["injected_transient"]
                == expected["transient_retries"]
            )
            assert outcome.injector["memory_drops_fired"] == 1
            assert outcome.injector["injected_permanent"] == 0

    def test_transient_only_profile(self):
        report = run_chaos("transient-io", query_numbers=(2,))
        assert report.passed
        (outcome,) = report.outcomes
        assert outcome.resilience["transient_retries"] == 2
        assert outcome.resilience["degradations"] == 0

    def test_memory_drop_only_profile(self):
        report = run_chaos("memory-drop", query_numbers=(2,))
        assert report.passed
        (outcome,) = report.outcomes
        assert outcome.resilience["transient_retries"] == 0
        assert outcome.resilience["degradations"] == 1


class TestFailFastProfile:
    def test_broken_disk_fails_every_query_typed(self):
        report = run_chaos("broken-disk", query_numbers=(1, 2))
        assert report.passed, report.render()
        for outcome in report.outcomes:
            assert outcome.expected == "fail-fast"
            assert outcome.outcome == "failed"
            assert outcome.failure["type"] == "PermanentIOError"
            assert outcome.attempts == 1
            assert outcome.injector["injected_permanent"] == 1
            assert outcome.resilience["permanent_failures"] == 1
            assert outcome.resilience["transient_retries"] == 0


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        first = run_chaos("transient-and-drop", query_numbers=(1, 2))
        second = run_chaos("transient-and-drop", query_numbers=(1, 2))
        assert first.to_json() == second.to_json()

    def test_different_seed_different_report(self):
        base = run_chaos("flaky-storage", query_numbers=(2,), seed=0)
        other = run_chaos("flaky-storage", query_numbers=(2,), seed=3)
        assert base.to_json() != other.to_json()

    def test_report_json_roundtrips(self):
        report = run_chaos("transient-io", query_numbers=(1,))
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert data["profile"]["name"] == "transient-io"
        assert len(data["queries"]) == 1

    def test_rows_digest_is_order_insensitive(self):
        class FakeRecord:
            def __init__(self, **fields):
                self.fields = fields

            def as_dict(self):
                return dict(self.fields)

        a = FakeRecord(x=1, y=2)
        b = FakeRecord(x=3, y=4)
        assert rows_digest([a, b]) == rows_digest([b, a])
        assert rows_digest([a]) != rows_digest([b])


class TestMidQueryChaos:
    """Fault injection composed with mid-query re-optimization."""

    def test_memory_drop_with_reopt_keeps_counters_consistent(self):
        report = run_chaos("memory-drop", query_numbers=(3,), reopt="always")
        assert report.passed, report.render()
        (outcome,) = report.outcomes
        assert outcome.rows_match
        counts = outcome.resilience
        assert counts["degradations"] == 1
        assert counts["midquery_checkpoints"] >= 1
        assert counts["midquery_redecisions"] >= 1
        assert counts["incremental_redecisions"] >= 1

    def test_degradation_routes_through_incremental_redecision(self):
        """The memory-drop path re-decides incrementally, even reopt-off."""
        report = run_chaos("memory-drop", query_numbers=(2, 3))
        assert report.passed, report.render()
        for outcome in report.outcomes:
            assert outcome.resilience["degradations"] == 1
            assert outcome.resilience["incremental_redecisions"] == 1

    def test_skewed_bindings_force_midquery_switches(self):
        report = run_chaos(
            "none", query_numbers=(3,), reopt="always", skew=(0.02, 0.6)
        )
        assert report.passed, report.render()
        (outcome,) = report.outcomes
        assert outcome.rows_match
        assert outcome.resilience["midquery_switches"] >= 1
        data = report.to_dict()
        assert data["reopt"]["mode"] == "always"
        assert data["skew"] == [0.02, 0.6]

    def test_faults_during_reopt_reports_stay_byte_identical(self):
        first = run_chaos(
            "transient-and-drop",
            query_numbers=(3,),
            reopt="always",
            skew=(0.02, 0.6),
        )
        second = run_chaos(
            "transient-and-drop",
            query_numbers=(3,),
            reopt="always",
            skew=(0.02, 0.6),
        )
        assert first.passed, first.render()
        assert first.to_json() == second.to_json()

    def test_reopt_off_report_has_null_fields(self):
        report = run_chaos("none", query_numbers=(1,))
        data = report.to_dict()
        assert data["reopt"] is None
        assert data["skew"] is None


class TestChaosCli:
    def test_json_report_and_exit_zero(self, capsys):
        code = main(
            ["chaos", "--profile", "transient-io", "--queries", "1", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True

    def test_table_rendering(self, capsys):
        code = main(["chaos", "--profile", "memory-drop", "--queries", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "PASS" in output
        assert "degradations=1" in output

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(
            [
                "chaos",
                "--profile",
                "transient-io",
                "--queries",
                "1",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["passed"] is True

    def test_unknown_profile_exits_2(self, capsys):
        assert main(["chaos", "--profile", "nope"]) == 2
        assert "nope" in capsys.readouterr().out

    def test_bad_query_numbers_exit_2(self, capsys):
        assert main(["chaos", "--queries", "9"]) == 2
        assert main(["chaos", "--queries", "x"]) == 2

    def test_reopt_and_skew_flags(self, capsys):
        code = main(
            [
                "chaos",
                "--profile",
                "none",
                "--queries",
                "3",
                "--reopt",
                "always",
                "--skew",
                "0.02:0.6",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["reopt"]["mode"] == "always"
        assert data["skew"] == [0.02, 0.6]
        (query,) = data["queries"]
        assert query["resilience"]["midquery_switches"] >= 1

    def test_bad_skew_exits_2(self, capsys):
        assert main(["chaos", "--skew", "nope"]) == 2
        assert main(["chaos", "--skew", "0.1:0.2:0.3"]) == 2
        assert "DECLARED:ACTUAL" in capsys.readouterr().out


class TestServiceChaos:
    """Shard-fault scenarios: byte-identical rows, exact conservation."""

    @pytest.mark.parametrize("scenario", SERVICE_SCENARIOS)
    def test_scenarios_pass(self, scenario):
        report = run_service_chaos(
            scenario, seed=0, requests=24, shapes=5, inject_at=8
        )
        assert report.passed
        assert all(row["match"] for row in report.outcomes)
        assert report.conserved
        assert report.conservation["failed"] == 0
        assert report.supervision["restarts"] == report.expected_restarts

    def test_kill_shard_fails_over_until_restart(self):
        report = run_service_chaos(
            "kill-shard", seed=0, requests=24, shapes=5, inject_at=8
        )
        assert report.conservation["failed_over"] > 0
        states = [tuple(item) for item in report.transitions]
        assert (report.target_shard, "healthy", "down") in states
        assert (report.target_shard, "down", "restarting") in states
        assert (report.target_shard, "restarting", "healthy") in states

    def test_hang_shard_escalates_through_suspect(self):
        report = run_service_chaos(
            "hang-shard", seed=0, requests=24, shapes=5, inject_at=8
        )
        assert report.conservation["failed_over"] == 1
        states = [tuple(item) for item in report.transitions]
        assert (report.target_shard, "healthy", "suspect") in states
        assert (report.target_shard, "suspect", "down") in states

    def test_slow_shard_recovers_without_restart(self):
        report = run_service_chaos(
            "slow-shard", seed=0, requests=24, shapes=5, inject_at=8
        )
        assert report.conservation["failed_over"] == 0
        assert report.supervision["restarts"] == 0
        states = [tuple(item) for item in report.transitions]
        assert (report.target_shard, "healthy", "suspect") in states
        assert (report.target_shard, "suspect", "healthy") in states

    @pytest.mark.parametrize("scenario", ("kill-shard", "hang-shard"))
    def test_same_seed_same_bytes(self, scenario):
        first = run_service_chaos(
            scenario, seed=1, requests=24, shapes=5, inject_at=8
        )
        second = run_service_chaos(
            scenario, seed=1, requests=24, shapes=5, inject_at=8
        )
        assert first.to_json() == second.to_json()

    def test_report_json_roundtrips(self):
        report = run_service_chaos(
            "kill-shard", seed=0, requests=24, shapes=5, inject_at=8
        )
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert data["conserved"] is True
        assert len(data["requests"]) == 24
        assert data["expected_restarts"] == 1

    def test_unknown_scenario_is_typed(self):
        with pytest.raises(ValueError):
            run_service_chaos("melt-shard")

    def test_bad_indexes_are_typed(self):
        with pytest.raises(ValueError):
            run_service_chaos("kill-shard", requests=10, inject_at=9, heal_at=9)

    def test_rows_sequence_digest_is_order_sensitive(self):
        class Record:
            def __init__(self, value):
                self.value = value

            def as_dict(self):
                return {"v": self.value}

        forward = rows_sequence_digest([Record(1), Record(2)])
        backward = rows_sequence_digest([Record(2), Record(1)])
        assert forward != backward


class TestServiceChaosCli:
    def test_kill_shard_flag(self, capsys):
        code = main(
            [
                "chaos",
                "--kill-shard",
                "--requests",
                "18",
                "--inject-at",
                "6",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "kill-shard"
        assert data["passed"] is True

    def test_slow_shard_table_render(self, capsys):
        code = main(
            ["chaos", "--slow-shard", "--requests", "18", "--inject-at", "6"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "service chaos 'slow-shard'" in out
        assert "PASS" in out

    def test_scenario_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--kill-shard", "--hang-shard"])

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "service-chaos.json"
        code = main(
            [
                "chaos",
                "--hang-shard",
                "--requests",
                "18",
                "--inject-at",
                "6",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert data["scenario"] == "hang-shard"
        assert data["passed"] is True

    def test_bad_indexes_exit_2(self, capsys):
        code = main(
            ["chaos", "--kill-shard", "--requests", "10", "--inject-at", "40"]
        )
        assert code == 2
        assert "inject_at" in capsys.readouterr().out


#: Service-tier chaos reports pinned across commits: ``(scenario,
#: seed)`` -> ``tests/goldens/chaos/<scenario>-seed<seed>.json``, each
#: written by ``chaos --<scenario> --seed <seed> --requests 24
#: --inject-at 8 --output ...`` before the gateway's admission and
#: settlement moved under one lock.  No field is a wall-clock value,
#: so a byte difference is a behaviour change.
PINNED_SERVICE_REPORTS = [
    (scenario, seed)
    for scenario in ("kill-shard", "hang-shard")
    for seed in (0, 7, 23)
] + [("slow-shard", 0)]

GOLDEN_CHAOS_DIR = os.path.join(os.path.dirname(__file__), "goldens", "chaos")


class TestPinnedServiceReports:
    @pytest.mark.parametrize("scenario, seed", PINNED_SERVICE_REPORTS)
    def test_report_matches_golden_bytes(self, scenario, seed, tmp_path, capsys):
        name = "%s-seed%d.json" % (scenario, seed)
        path = tmp_path / name
        code = main(
            [
                "chaos",
                "--" + scenario,
                "--seed",
                str(seed),
                "--requests",
                "24",
                "--inject-at",
                "8",
                "--output",
                str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        with open(os.path.join(GOLDEN_CHAOS_DIR, name), "rb") as golden:
            assert path.read_bytes() == golden.read()
