"""In-memory spans recorded by the benchmark around calls into a layer.

A span is ``[name, start, end, parent, request_id]`` (a list, so the
hot path is one ``append`` and one item store); ``parent`` is the
index of the span that caused it, or ``None``.  Spans live in memory
until the run ends and are then written out as one JSON document.
"""

import json
import time

NAME, START, END, PARENT, REQUEST = range(5)


class SpanRecorder:
    """Collects spans; ``open`` returns the handle ``close`` takes."""

    def __init__(self):
        self.spans = []

    def open(self, name, parent, request_id):
        spans = self.spans
        spans.append([name, time.perf_counter(), None, parent, request_id])
        return len(spans) - 1

    def close(self, handle):
        self.spans[handle][END] = time.perf_counter()


class NullRecorder:
    """Same calls, nothing kept: the untraced side of the overhead ratio."""

    spans = ()

    def open(self, name, parent, request_id):
        return None

    def close(self, handle):
        return None


def self_times(spans):
    """Per-span self time: duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping
    children are merged first, so time covered twice is subtracted once.
    """
    children = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][START]):
            low = max(spans[child][START], cursor)
            high = min(spans[child][END], end)
            if high > low:
                covered += high - low
                cursor = high
        result.append((end - start) - covered)
    return result


def busy_by_name(spans, first=0):
    """``{name: summed self time}`` of ``spans[first:]`` — a layer's busy time."""
    busy = {}
    for span, own in zip(spans[first:], self_times(spans)[first:]):
        busy[span[NAME]] = busy.get(span[NAME], 0.0) + own
    return busy


def durations_by_name(spans):
    """``{name: [duration, ...]}`` in recording order."""
    durations = {}
    for span in spans:
        durations.setdefault(span[NAME], []).append(span[END] - span[START])
    return durations


def write_trace(path, spans, header):
    """Write the spans as one JSON document (times relative to the first)."""
    origin = spans[0][START] if spans else 0.0
    document = dict(header)
    document["fields"] = ["name", "start_s", "end_s", "parent", "request_id"]
    document["spans"] = [
        [name, round(start - origin, 9), round(end - origin, 9), parent, request]
        for name, start, end, parent, request in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
