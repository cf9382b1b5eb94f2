"""Span self-time arithmetic on a hand-built tree."""

import json

from benchmarks.e2e import spans


def tree():
    #   request      [0, 10]
    #     decide     [1, 3]
    #     execute    [3, 9]
    #       scan     [4, 6]
    #       scan     [5, 8]   overlaps its sibling by 1
    #     late       [9, 12]  runs past its parent; clipped to [9, 10]
    return [
        ["request", 0.0, 10.0, None, 7],
        ["decide", 1.0, 3.0, 0, 7],
        ["execute", 3.0, 9.0, 0, 7],
        ["scan", 4.0, 6.0, 2, 7],
        ["scan", 5.0, 8.0, 2, 7],
        ["late", 9.0, 12.0, 0, 7],
    ]


def test_self_time_is_duration_minus_what_children_cover():
    assert spans.self_times(tree()) == [1.0, 2.0, 2.0, 2.0, 3.0, 3.0]


def test_busy_time_sums_self_times_by_name():
    busy = spans.busy_by_name(tree())
    assert busy == {"request": 1.0, "decide": 2.0, "execute": 2.0, "scan": 5.0, "late": 3.0}


def test_self_times_of_well_nested_spans_sum_to_the_root():
    nested = tree()[:4]
    assert sum(spans.self_times(nested)) == nested[0][spans.END] - nested[0][spans.START]


def test_recorder_links_children_to_parents():
    recorder = spans.SpanRecorder()
    root = recorder.open("request", None, 1)
    child = recorder.open("decide", root, 1)
    recorder.close(child)
    recorder.close(root)
    (name, start, end, parent, request), inner = recorder.spans
    assert (name, parent, request) == ("request", None, 1)
    assert inner[spans.PARENT] == root
    assert start <= inner[spans.START] <= inner[spans.END] <= end


def test_trace_file_is_one_json_document(tmp_path):
    path = tmp_path / "trace.json"
    spans.write_trace(path, tree(), {"workload": "x"})
    document = json.loads(path.read_text())
    assert document["workload"] == "x"
    assert document["fields"] == ["name", "start_s", "end_s", "parent", "request_id"]
    assert document["spans"][2] == ["execute", 3.0, 9.0, 0, 7]
