"""The benches' counted-facts check: exact, in both directions.

``benchmarks/conftest.py``'s ``check_counted_facts`` is the gate the
benchmark smoke run applies to ``bench_midquery`` and
``bench_service_cache``: their counted values repeat bit for bit, so
each must equal its entry in ``benchmarks/counted_facts.json``'s
``benches`` section under ``==``.  These tests pin that a changed, a
missing and an extra value each fail with the record named, and that
the committed table holds the 32 records those benches emit.
"""

import copy
import importlib.util
import json
import math
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"

spec = importlib.util.spec_from_file_location(
    "bench_conftest", BENCHMARKS / "conftest.py"
)
bench_conftest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_conftest)

COMMITTED = {"query3+mem": {"splice_simulated": 6.7231000000000005, "probes": 3}}


@pytest.fixture
def table(tmp_path):
    path = tmp_path / "counted_facts.json"
    path.write_text(
        json.dumps({"workloads": {}, "benches": {"midquery": COMMITTED}}),
        encoding="utf-8",
    )
    return path


def failure(table, read, bench="midquery"):
    with pytest.raises(AssertionError) as excinfo:
        bench_conftest.check_counted_facts(bench, read, table)
    return str(excinfo.value)


class TestCheckCountedFacts:
    def test_equal_values_pass(self, table):
        bench_conftest.check_counted_facts("midquery", copy.deepcopy(COMMITTED), table)

    def test_a_value_one_ulp_off_fails_naming_the_record(self, table):
        read = copy.deepcopy(COMMITTED)
        read["query3+mem"]["splice_simulated"] = math.nextafter(
            6.7231000000000005, math.inf
        )
        message = failure(table, read)
        assert (
            "query3+mem.splice_simulated: read 6.723100000000001, "
            "committed 6.7231000000000005" in message
        )
        assert "probes" not in message

    def test_a_value_not_emitted_fails(self, table):
        read = copy.deepcopy(COMMITTED)
        del read["query3+mem"]["probes"]
        assert "query3+mem.probes: not emitted, committed 3" in failure(table, read)

    def test_a_value_not_in_the_table_fails(self, table):
        read = copy.deepcopy(COMMITTED)
        read["query3+mem"]["switches"] = 1
        assert "query3+mem.switches: read 1, not in the table" in failure(
            table, read
        )

    def test_a_bench_without_a_section_fails_on_every_record(self, table):
        message = failure(table, copy.deepcopy(COMMITTED), bench="adaptive")
        assert "query3+mem.probes: read 3, not in the table" in message
        assert "query3+mem.splice_simulated" in message


class TestCommittedTable:
    def test_the_benches_section_holds_the_32_counted_values(self):
        with open(bench_conftest.COUNTED_FACTS, encoding="utf-8") as handle:
            benches = json.load(handle)["benches"]
        assert sorted(benches) == ["midquery", "service_cache"]
        midquery = benches["midquery"]
        assert sorted(midquery) == [
            "chain3-bounded",
            "query3+mem",
            "query4+mem",
            "query5+mem",
        ]
        for facts in midquery.values():
            assert sorted(facts) == [
                "adaptivity_speedup",
                "no_reopt_simulated",
                "probes",
                "restart_simulated",
                "splice_simulated",
                "steps_per_redecision",
                "switch_speedup",
            ]
        assert sorted(benches["service_cache"]) == [
            "counted_evaluation_speedup",
            "hit_rate",
            "optimizer_runs",
            "startup_evaluations_per_hit",
        ]
