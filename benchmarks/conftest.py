"""Shared benchmark fixtures.

Each bench module regenerates one of the paper's tables or figures and
writes the rendered rows to ``benchmarks/results/``.  The shared
experiment context (all scenarios for all five paper queries, with and
without memory uncertainty) is computed once per session.  A bench
whose counted facts repeat exactly checks them with
:func:`check_counted_facts` against the ``benches`` section of
``benchmarks/counted_facts.json``.

Set ``REPRO_BENCH_N`` to change the invocation count (default 30; the
paper uses 100 — see EXPERIMENTS.md for a full-N run's numbers).
"""

import json
import os
import pathlib

import pytest

from repro.experiments.figures import ExperimentContext
from repro.experiments.results import ExperimentSettings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
COUNTED_FACTS = pathlib.Path(__file__).parent / "counted_facts.json"


@pytest.fixture(scope="session")
def settings():
    """Experiment settings shared by all figure benches."""
    return ExperimentSettings(invocations=int(os.environ.get("REPRO_BENCH_N", "30")))


@pytest.fixture(scope="session")
def context(settings):
    """Shared scenario results for all five paper queries."""
    return ExperimentContext(settings)


@pytest.fixture(scope="session")
def results_dir():
    """Directory collecting the rendered figure outputs."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_and_print(results_dir, name, text):
    """Persist a rendered figure and echo it to stdout."""
    path = results_dir / ("%s.txt" % name)
    path.write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def _flatten(facts, prefix=""):
    """``{"a": {"b": 1}}`` as ``{"a.b": 1}``: one entry per record."""
    flat = {}
    for key, value in facts.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix + key + "."))
        else:
            flat[prefix + key] = value
    return flat


def check_counted_facts(bench, read, path=COUNTED_FACTS):
    """Fail unless ``read`` equals the table's ``benches[bench]`` exactly.

    ``read`` is a (nested) dict of a bench's counted values.  A record
    fails when its value is not ``==`` the committed one, when the table
    lacks it, or when the bench did not emit it; the message names each
    such record with the value read and the committed value.  There is
    no tolerance: these values repeat bit for bit from run to run, so a
    change that moves one changed what the program does.  Re-record it
    in ``counted_facts.json`` deliberately, and say why, in that change.
    """
    with open(path, encoding="utf-8") as handle:
        committed = _flatten(json.load(handle)["benches"].get(bench, {}))
    read = _flatten(read)
    problems = []
    for record in sorted(set(read) | set(committed)):
        if record not in committed:
            problems.append(
                "%s: read %r, not in the table" % (record, read[record])
            )
        elif record not in read:
            problems.append(
                "%s: not emitted, committed %r" % (record, committed[record])
            )
        elif read[record] != committed[record]:
            problems.append(
                "%s: read %r, committed %r"
                % (record, read[record], committed[record])
            )
    assert not problems, "%s: counted facts differ from %s:\n  %s" % (
        bench,
        path.name,
        "\n  ".join(problems),
    )
