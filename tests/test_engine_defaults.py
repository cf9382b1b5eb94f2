"""One default engine, and nothing but ``engine.py`` says which.

``DEFAULT_EXECUTION_MODE`` is the only place the default engine is
named: every signature and CLI option that takes an ``execution_mode``
must default to it (or to ``None``, meaning "inherit"), so a stray
``"row"`` literal cannot put the slow engine back on a default path.
The serving test holds the other half of the contract: a caller who
names no mode gets the same rows, I/O and decisions as one who asks
for ``"row"``.
"""

import argparse
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro
from repro import __main__ as cli
from repro.catalog import populate_database
from repro.executor.engine import DEFAULT_EXECUTION_MODE
from repro.optimizer.optimizer import optimize_dynamic, optimize_static
from repro.service import ShardedQueryService
from repro.storage import Database
from repro.workloads import paper_workload, random_bindings

PACKAGES = (
    "repro.executor",
    "repro.service",
    "repro.observability",
    "repro.workloads",
    "repro.resilience",
)


def _public_callables(package_name):
    """``(qualified name, callable)`` for every public function, class
    constructor and public method defined under a package."""
    package = importlib.import_module(package_name)
    names = [package_name] + [
        info.name
        for info in pkgutil.walk_packages(package.__path__, package_name + ".")
    ]
    for module_name in names:
        module = importlib.import_module(module_name)
        for name, member in vars(module).items():
            if name.startswith("_") or getattr(member, "__module__", None) != module_name:
                continue
            qualified = "%s.%s" % (module_name, name)
            if inspect.isfunction(member):
                yield qualified, member
            elif inspect.isclass(member):
                yield qualified, member.__init__
                for method_name, method in vars(member).items():
                    if not method_name.startswith("_") and inspect.isfunction(method):
                        yield "%s.%s" % (qualified, method_name), method


def test_every_execution_mode_parameter_defaults_to_the_constant():
    allowed = (inspect.Parameter.empty, None, DEFAULT_EXECUTION_MODE)
    checked = set()
    for package_name in PACKAGES:
        for qualified, member in _public_callables(package_name):
            parameter = inspect.signature(member).parameters.get("execution_mode")
            if parameter is not None:
                assert parameter.default in allowed, qualified
                checked.add(qualified)
    # The walk is not vacuous: it saw the entry points the default
    # reaches callers through.
    assert {
        "repro.executor.engine.ExecutionContext",
        "repro.executor.engine.execute_plan",
        "repro.executor.midquery.execute_midquery",
        "repro.service.service.QueryService",
        "repro.service.service.QueryService.run",
        "repro.observability.explain.explain_analyze",
        "repro.observability.accuracy.cost_model_accuracy",
        "repro.workloads.service.ServiceWorkloadSpec",
        "repro.resilience.chaos.run_chaos",
        "repro.resilience.chaos.run_service_chaos",
    } <= checked


class _ParserBuilt(Exception):
    pass


@pytest.mark.parametrize("command", ("run", "serve-batch", "explain", "accuracy", "chaos"))
def test_cli_execution_mode_option_derives_from_engine(command, monkeypatch):
    # Stand-in values: an option that spells its own choices or default
    # keeps the real ones and fails.
    monkeypatch.setattr(cli, "EXECUTION_MODES", ("x", "y"))
    monkeypatch.setattr(cli, "DEFAULT_EXECUTION_MODE", "y")
    built = []

    def capture(parser, args=None, namespace=None):
        built.append(parser)
        raise _ParserBuilt

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_ParserBuilt):
        cli.main([command])
    (action,) = [
        action
        for action in built[0]._actions
        if "--execution-mode" in action.option_strings
    ]
    assert tuple(action.choices) == ("x", "y")
    assert action.default in (None, "y")


def test_no_row_literal_outside_the_engine_module():
    """Covers what signatures cannot: hand-rolled option parsing
    (``experiments/runner.py``) and ``dict.get`` fallbacks."""
    literal = re.compile(r"""[=,(\[:]\s*["']row["']""")
    source_root = pathlib.Path(repro.__file__).parent
    offenders = [
        "%s:%d" % (path.relative_to(source_root), number)
        for path in sorted(source_root.rglob("*.py"))
        if path.name != "engine.py" or path.parent.name != "executor"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if literal.search(line) and "``" not in line  # prose quotes modes
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "optimize", (optimize_static, optimize_dynamic), ids=("static", "dynamic")
)
@pytest.mark.parametrize("number", (1, 2, 3, 4, 5))
def test_gateway_without_a_mode_serves_what_row_mode_serves(number, optimize):
    workload = paper_workload(number)
    served = {}
    for mode in (None, "row"):
        database = Database(workload.catalog)
        populate_database(database, seed=0)
        with ShardedQueryService(database, shards=2, optimize=optimize) as gateway:
            served[mode] = [
                gateway.run(
                    workload.query,
                    random_bindings(workload, seed=17, run_index=run),
                    execution_mode=mode,
                )
                for run in range(2)
            ]
    for ours, theirs in zip(served[None], served["row"]):
        assert ours.execution.records == theirs.execution.records
        assert ours.execution.io_snapshot == theirs.execution.io_snapshot
        assert ours.startup_report.decisions == theirs.startup_report.decisions
        assert repr(ours.chosen) == repr(theirs.chosen)
