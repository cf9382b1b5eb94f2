"""Smoke tests: every shipped example runs to completion.

Examples are deliverables; these tests keep them green as the library
evolves.  Each example is executed in-process (fast, importable) with
its ``main()`` entry.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        "example_%s" % name, EXAMPLES_DIR / ("%s.py" % name)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_all_examples_discovered(self):
        assert len(EXAMPLES) >= 6
        assert "quickstart" in EXAMPLES

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_example_runs(self, name, capsys):
        module = load_example(name)
        assert module.__doc__, "example %s lacks a docstring" % name
        module.main()
        output = capsys.readouterr().out
        assert output.strip(), "example %s printed nothing" % name

    def test_quickstart_shows_decision_flip(self, capsys):
        load_example("quickstart").main()
        output = capsys.readouterr().out
        assert "Filter-B-tree-Scan" in output
        assert "Filter" in output

    def test_embedded_query_shows_build_sides(self, capsys):
        load_example("embedded_query").main()
        output = capsys.readouterr().out
        assert "Hash-Join" in output

    def test_adaptive_example_reports_recovery(self, capsys):
        load_example("adaptive_execution").main()
        output = capsys.readouterr().out
        assert "recovered" in output
        assert "mid-query re-optimization (always)" in output
