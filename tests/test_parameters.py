"""Parameters, parameter spaces, bindings, and valuations."""

import pytest

from repro.algebra.expressions import Comparison, ComparisonOp, SelectionPredicate, UserVariable
from repro.common.errors import ExecutionError
from repro.common.intervals import Interval
from repro.cost.parameters import (
    Bindings,
    MEMORY_PARAMETER,
    Parameter,
    ParameterSpace,
    Valuation,
)


class TestParameter:
    def test_selectivity_defaults(self):
        parameter = Parameter.selectivity("sel_R")
        assert parameter.bounds == Interval(0, 1)
        assert parameter.expected == 0.05
        assert parameter.uncertain

    def test_memory_defaults_match_paper(self):
        parameter = Parameter.memory()
        assert parameter.bounds == Interval(16, 112)
        assert parameter.expected == 64
        assert not parameter.uncertain

    def test_memory_uncertain_variant(self):
        assert Parameter.memory(uncertain=True).uncertain

    def test_expected_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            Parameter("p", (0, 1), 2.0)


class TestParameterSpace:
    def test_memory_always_present(self):
        space = ParameterSpace()
        assert MEMORY_PARAMETER in space
        assert space.uncertain_count() == 0

    def test_uncertain_names_sorted(self):
        space = ParameterSpace(
            [Parameter.selectivity("sel_B"), Parameter.selectivity("sel_A")]
        )
        assert space.uncertain_names() == ["sel_A", "sel_B"]
        assert space.uncertain_count() == 2

    def test_unknown_parameter_raises(self):
        with pytest.raises(ExecutionError):
            ParameterSpace().get("nope")

    def test_add_replaces(self):
        space = ParameterSpace()
        space.add(Parameter.memory(uncertain=True))
        assert space.get(MEMORY_PARAMETER).uncertain
        assert space.uncertain_count() == 1


class TestBindings:
    def test_parameter_roundtrip(self):
        bindings = Bindings().bind("sel_R", 0.3)
        assert bindings.has_parameter("sel_R")
        assert bindings.parameter("sel_R") == 0.3
        assert bindings.parameter_names() == ["sel_R"]

    def test_missing_parameter_raises(self):
        with pytest.raises(ExecutionError):
            Bindings().parameter("sel_R")

    def test_variable_roundtrip(self):
        bindings = Bindings().bind_variable("v", 12)
        assert bindings.has_variable("v")
        assert bindings.variable("v") == 12

    def test_missing_variable_raises(self):
        with pytest.raises(ExecutionError):
            Bindings().variable("v")

    def test_constructor_accepts_dicts(self):
        bindings = Bindings({"p": 1.0}, {"v": 2})
        assert bindings.parameter("p") == 1.0
        assert bindings.variable("v") == 2


class TestValuation:
    def _space(self):
        return ParameterSpace([Parameter.selectivity("sel_R")])

    def _predicate(self):
        return SelectionPredicate(
            Comparison("R.a", ComparisonOp.LT, UserVariable("v")),
            selectivity_parameter="sel_R",
        )

    def test_expected_valuation_is_point(self):
        valuation = Valuation.expected(self._space())
        assert valuation.value_of("sel_R") == Interval.point(0.05)
        assert valuation.memory_pages() == Interval.point(64)

    def test_bounds_valuation_uses_full_interval(self):
        valuation = Valuation.bounds(self._space())
        assert valuation.value_of("sel_R") == Interval(0, 1)

    def test_bounds_valuation_keeps_known_parameters_as_points(self):
        # Memory is not uncertain by default, so even the bounds
        # valuation treats it as its expected point.
        valuation = Valuation.bounds(self._space())
        assert valuation.memory_pages() == Interval.point(64)

    def test_bounds_valuation_with_uncertain_memory(self):
        space = self._space()
        space.add(Parameter.memory(uncertain=True))
        valuation = Valuation.bounds(space)
        assert valuation.memory_pages() == Interval(16, 112)

    def test_runtime_valuation_uses_bindings(self):
        bindings = Bindings().bind("sel_R", 0.7)
        valuation = Valuation.runtime(self._space(), bindings)
        assert valuation.value_of("sel_R") == Interval.point(0.7)

    def test_runtime_valuation_falls_back_to_expected(self):
        valuation = Valuation.runtime(self._space(), Bindings())
        assert valuation.value_of("sel_R") == Interval.point(0.05)

    def test_runtime_valuation_requires_bindings(self):
        with pytest.raises(ExecutionError):
            Valuation(self._space(), Valuation._MODE_RUNTIME)

    def test_selectivity_of_known_predicate(self):
        predicate = SelectionPredicate(
            Comparison("R.a", ComparisonOp.LT, 5), known_selectivity=0.25
        )
        for valuation in (
            Valuation.expected(self._space()),
            Valuation.bounds(self._space()),
        ):
            assert valuation.selectivity(predicate) == Interval.point(0.25)

    def test_selectivity_of_uncertain_predicate(self):
        predicate = self._predicate()
        assert Valuation.bounds(self._space()).selectivity(predicate) == Interval(0, 1)
        assert Valuation.expected(self._space()).selectivity(
            predicate
        ) == Interval.point(0.05)

    def test_selectivity_of_predicate_outside_space(self):
        # A predicate whose parameter is not registered still works
        # through its own compile-time description.
        predicate = SelectionPredicate(
            Comparison("S.a", ComparisonOp.LT, UserVariable("w")),
            selectivity_parameter="sel_S",
            selectivity_bounds=(0.1, 0.9),
            expected_selectivity=0.2,
        )
        space = self._space()
        assert Valuation.bounds(space).selectivity(predicate) == Interval(0.1, 0.9)
        assert Valuation.expected(space).selectivity(
            predicate
        ) == Interval.point(0.2)
        bindings = Bindings().bind("sel_S", 0.5)
        assert Valuation.runtime(space, bindings).selectivity(
            predicate
        ) == Interval.point(0.5)
