"""The benchmark regression gate's refusal and direction logic.

``benchmarks/check_regression.py`` is CI's last line of defence for
perf; these tests pin the behaviours a broken gate would silently
lose: malformed records fail with a *diagnosis* (file, record, missing
key) rather than a ``KeyError`` traceback, direction is the results
record's ``better`` key, else the baseline's, else inferred from the
unit (opposite keys fail), and a baseline metric that vanished from
results is a hard failure.
"""

import importlib.util
import json
import pathlib

import pytest

GATE_PATH = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
)

spec = importlib.util.spec_from_file_location("check_regression", GATE_PATH)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def write_records(path, records):
    path.write_text(json.dumps(records), encoding="utf-8")


def record(name="bench", metric="p50", value=1.0, unit="s"):
    return {"name": name, "metric": metric, "value": value, "unit": unit}


class TestLoadRecords:
    def test_valid_records_key_by_name_and_metric(self, tmp_path):
        path = tmp_path / "r.json"
        write_records(path, [record(), record(metric="p95", value=2.0)])
        loaded = gate.load_records(path)
        assert set(loaded) == {("bench", "p50"), ("bench", "p95")}

    def test_missing_key_is_a_diagnosis_not_a_keyerror(self, tmp_path):
        path = tmp_path / "r.json"
        write_records(path, [{"name": "bench", "metric": "p50", "value": 1}])
        with pytest.raises(gate.MalformedRecordError) as excinfo:
            gate.load_records(path)
        message = str(excinfo.value)
        assert "r.json" in message
        assert "unit" in message
        assert "record 0" in message

    def test_non_numeric_value_is_refused(self, tmp_path):
        path = tmp_path / "r.json"
        write_records(path, [record(value="fast")])
        with pytest.raises(gate.MalformedRecordError) as excinfo:
            gate.load_records(path)
        assert "non-numeric" in str(excinfo.value)

    def test_bad_json_and_non_list_are_refused(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{not json")
        with pytest.raises(gate.MalformedRecordError):
            gate.load_records(path)
        path.write_text(json.dumps({"name": "bench"}))
        with pytest.raises(gate.MalformedRecordError) as excinfo:
            gate.load_records(path)
        assert "list" in str(excinfo.value)


class TestCompare:
    def setup_dirs(self, tmp_path, baseline_records, result_records):
        baselines = tmp_path / "baselines"
        results = tmp_path / "results"
        baselines.mkdir()
        results.mkdir()
        write_records(baselines / "bench.json", baseline_records)
        if result_records is not None:
            write_records(results / "bench.json", result_records)
        return results, baselines

    def test_malformed_baseline_is_a_failure_not_a_crash(self, tmp_path):
        results, baselines = self.setup_dirs(
            tmp_path,
            [{"name": "bench", "metric": "p50", "value": 1}],
            [record()],
        )
        rows, failures = gate.compare(results, baselines, 0.25)
        assert rows == []
        assert len(failures) == 1
        assert "unit" in failures[0]

    def test_missing_baseline_metric_in_results_fails_clearly(self, tmp_path):
        results, baselines = self.setup_dirs(
            tmp_path,
            [record(), record(metric="p95", value=2.0)],
            [record()],
        )
        _rows, failures = gate.compare(results, baselines, 0.25)
        assert any("bench/p95" in f and "missing" in f for f in failures)

    def test_latency_regression_fails_and_speedup_gain_passes(self, tmp_path):
        results, baselines = self.setup_dirs(
            tmp_path,
            [
                record(),
                record(metric="speedup", value=4.0, unit="x"),
                record(metric="pass", value=40.0, unit="us"),
            ],
            [
                record(value=2.0),  # latency doubled: regression
                record(metric="speedup", value=8.0, unit="x"),  # improved
                record(metric="pass", value=10.0, unit="us"),  # faster
            ],
        )
        rows, failures = gate.compare(results, baselines, 0.25)
        statuses = {(name, metric): status
                    for name, metric, _u, _b, _c, _ch, status in rows}
        assert statuses[("bench", "p50")] == "regression"
        assert statuses[("bench", "speedup")] == "improvement"
        assert statuses[("bench", "pass")] == "improvement"
        assert len(failures) == 1 and "bench/p50" in failures[0]

    def test_record_direction_overrides_the_unit(self, tmp_path):
        """An overhead is a ``fraction`` that should fall: its record
        says so, and a drop is an improvement, a rise a regression,
        while a hit rate (no ``better`` key) keeps the unit's direction."""
        overhead = dict(record(metric="overhead", unit="fraction"), better="lower")
        hit_rate = record(metric="hit_rate", unit="fraction")
        results, baselines = self.setup_dirs(
            tmp_path,
            [
                dict(overhead, value=0.037),
                dict(overhead, name="other", value=0.037),
                dict(hit_rate, value=0.9),
            ],
            [
                dict(overhead, value=0.026),
                dict(overhead, name="other", value=0.06),
                dict(hit_rate, value=0.5),
            ],
        )
        rows, failures = gate.compare(results, baselines, 0.25)
        statuses = {(name, metric): status
                    for name, metric, _u, _b, _c, _ch, status in rows}
        assert statuses[("bench", "overhead")] == "improvement"
        assert statuses[("other", "overhead")] == "regression"
        assert statuses[("bench", "hit_rate")] == "regression"
        assert len(failures) == 2

    def test_baseline_direction_applies_when_results_omit_it(self, tmp_path):
        """A counted ``count`` the baseline says should fall: a rise is
        a regression and a drop an improvement, though the results
        record carries no ``better`` key and the unit no direction."""
        steps = record(metric="steps", value=100.0, unit="count")
        results, baselines = self.setup_dirs(
            tmp_path,
            [
                dict(steps, better="lower"),
                dict(steps, name="other", better="lower"),
            ],
            [dict(steps, value=140.0), dict(steps, name="other", value=60.0)],
        )
        rows, failures = gate.compare(results, baselines, 0.25)
        statuses = {(name, metric): status
                    for name, metric, _u, _b, _c, _ch, status in rows}
        assert statuses[("bench", "steps")] == "regression"
        assert statuses[("other", "steps")] == "improvement"
        assert len(failures) == 1 and "bench/steps" in failures[0]

    def test_opposite_directions_fail_with_a_message(self, tmp_path):
        """Results and baseline that disagree on ``better`` fail the
        gate whatever the change, naming both directions."""
        rate = record(metric="rate", unit="fraction")
        results, baselines = self.setup_dirs(
            tmp_path,
            [dict(rate, better="lower"), record()],
            [dict(rate, better="higher"), record()],
        )
        rows, failures = gate.compare(results, baselines, 0.25)
        assert [(name, metric) for name, metric, *_rest in rows] == [("bench", "p50")]
        assert len(failures) == 1
        assert "bench/rate" in failures[0]
        assert "better=higher" in failures[0] and "better=lower" in failures[0]

    def test_unknown_direction_is_refused(self, tmp_path):
        path = tmp_path / "r.json"
        write_records(path, [dict(record(), better="sideways")])
        with pytest.raises(gate.MalformedRecordError) as excinfo:
            gate.load_records(path)
        assert "sideways" in str(excinfo.value)

    def test_new_metric_passes_without_baseline_edit(self, tmp_path):
        results, baselines = self.setup_dirs(
            tmp_path,
            [record()],
            [record(), record(metric="p95", value=2.0)],
        )
        rows, failures = gate.compare(results, baselines, 0.25)
        assert failures == []
        assert any(status == "new" for *_rest, status in rows)
