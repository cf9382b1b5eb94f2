"""What the command emits is what BENCHMARK.json declares."""

import json
import re

from benchmarks.e2e import REPO_ROOT, metrics
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared():
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_workloads_match():
    document = declared()
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    for workload in document["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_end_to_end_metrics_match():
    document = declared()
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in document["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_per_layer_metrics_match():
    document = declared()
    assert [
        (m["name"], m["unit"], m["better"]) for m in document["per_layer"]
    ] == list(metrics.PER_LAYER)
    assert len(document["per_layer"]) <= 128


def test_names_are_well_formed_and_used_once():
    document = declared()
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert set(metrics.EXACT) <= set(names)
    assert {"share.%s" % stage for stage in metrics.STAGES} <= set(names)


def test_command_and_paths():
    document = declared()
    assert document["command"] == ["python3", "-m", "benchmarks.e2e"]
    assert document["paths"] == ["benchmarks/e2e"]
    assert 1 <= document["run_seconds"] <= 60
