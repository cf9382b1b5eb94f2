"""Uncertain cost-model parameters, bindings, and valuations.

A :class:`Parameter` is a named quantity the optimizer may not know at
compile time: the selectivity of an unbound predicate, or the amount
of memory available at run time.  A :class:`ParameterSpace` collects
the parameters of one query; :class:`Bindings` supplies their actual
values at start-up time; a :class:`Valuation` turns parameters into
:class:`~repro.common.intervals.Interval` values for cost formulas.
"""

from repro.common.errors import ExecutionError
from repro.common.intervals import Interval


#: Conventional name of the available-memory parameter (in pages).
MEMORY_PARAMETER = "memory_pages"

#: Paper Section 6: expected memory is 64 pages of 2,048 bytes.
DEFAULT_EXPECTED_MEMORY_PAGES = 64

#: Paper Section 6: unbound memory drawn uniformly from [16, 112] pages.
DEFAULT_MEMORY_BOUNDS = (16, 112)


class Parameter:
    """One uncertain cost-model parameter.

    ``bounds`` is the compile-time domain; ``expected`` is the value a
    traditional optimizer would assume; ``uncertain`` distinguishes
    parameters with genuine run-time bindings from parameters fixed at
    compile time (which still flow through the same machinery).
    """

    __slots__ = ("name", "bounds", "expected", "uncertain")

    def __init__(self, name, bounds, expected, uncertain=True):
        self.name = name
        self.bounds = Interval(*bounds)
        self.expected = float(expected)
        if not self.bounds.contains(self.expected):
            raise ValueError(
                "expected value %r of parameter %r lies outside bounds %r"
                % (expected, name, self.bounds)
            )
        self.uncertain = bool(uncertain)

    @classmethod
    def selectivity(cls, name, expected=0.05, bounds=(0.0, 1.0)):
        """An unbound selection-predicate selectivity (paper defaults)."""
        return cls(name, bounds, expected, uncertain=True)

    @classmethod
    def memory(
        cls,
        expected=DEFAULT_EXPECTED_MEMORY_PAGES,
        bounds=DEFAULT_MEMORY_BOUNDS,
        uncertain=False,
    ):
        """The available-memory parameter.

        ``uncertain=False`` (the default) models the experiments that
        only vary selectivities; pass ``uncertain=True`` for the
        "selectivities and memory" experiment series.
        """
        return cls(MEMORY_PARAMETER, bounds, expected, uncertain=uncertain)

    def __repr__(self):
        kind = "uncertain" if self.uncertain else "known"
        return "Parameter(%r, %s, bounds=%r, expected=%s)" % (
            self.name,
            kind,
            self.bounds,
            self.expected,
        )


class ParameterSpace:
    """The parameters relevant to one query's cost computation."""

    def __init__(self, parameters=()):
        self._parameters = {}
        for parameter in parameters:
            self.add(parameter)
        if MEMORY_PARAMETER not in self._parameters:
            self.add(Parameter.memory())

    def add(self, parameter):
        """Register a parameter, replacing any with the same name."""
        self._parameters[parameter.name] = parameter

    def get(self, name):
        """Look up a parameter by name."""
        try:
            return self._parameters[name]
        except KeyError:
            raise ExecutionError("unknown cost-model parameter %r" % name) from None

    def __contains__(self, name):
        return name in self._parameters

    def names(self):
        """Sorted parameter names."""
        return sorted(self._parameters)

    def uncertain_names(self):
        """Sorted names of parameters with run-time bindings."""
        return sorted(
            name
            for name, parameter in self._parameters.items()
            if parameter.uncertain
        )

    def uncertain_count(self):
        """Number of uncertain parameters (the x-axis of Figures 4-8)."""
        return len(self.uncertain_names())

    def __iter__(self):
        return iter(self._parameters.values())

    def __repr__(self):
        return "ParameterSpace(%s)" % ", ".join(self.names())


class Bindings:
    """Run-time values: parameter bindings plus user-variable values.

    Parameter bindings feed the choose-plan decision procedure's cost
    re-evaluation; user-variable values feed actual predicate
    evaluation in the execution engine.
    """

    def __init__(self, parameters=None, variables=None):
        self._parameters = dict(parameters or {})
        self._variables = dict(variables or {})

    def copy(self):
        """Independent copy; rebinding it leaves the original intact."""
        return Bindings(self._parameters, self._variables)

    # -- cost-model parameters -----------------------------------------

    def bind(self, name, value):
        """Bind one cost-model parameter."""
        self._parameters[name] = float(value)
        return self

    def has_parameter(self, name):
        """True when the parameter has a binding."""
        return name in self._parameters

    def parameter(self, name):
        """Value of a bound parameter."""
        try:
            return self._parameters[name]
        except KeyError:
            raise ExecutionError(
                "cost-model parameter %r has no run-time binding" % name
            ) from None

    def get_parameter(self, name, default=None):
        """Value of a bound parameter, or ``default`` when unbound.

        One dict probe instead of the ``has_parameter`` +
        ``parameter`` pair — the serving hot path checks a handful of
        parameters per invocation.
        """
        return self._parameters.get(name, default)

    def parameter_names(self):
        """Sorted names of bound parameters."""
        return sorted(self._parameters)

    # -- user variables --------------------------------------------------

    def bind_variable(self, name, value):
        """Bind one user variable (host variable in the query text)."""
        self._variables[name] = value
        return self

    def has_variable(self, name):
        """True when the user variable has a value."""
        return name in self._variables

    def variable(self, name):
        """Value of a bound user variable."""
        try:
            return self._variables[name]
        except KeyError:
            raise ExecutionError("user variable %r is unbound" % name) from None

    def __repr__(self):
        return "Bindings(parameters=%r, variables=%r)" % (
            self._parameters,
            self._variables,
        )


class Valuation:
    """Maps parameters and predicates to interval values for costing.

    The three factory methods correspond to the three uses of the cost
    functions described in the module docstring.
    """

    _MODE_EXPECTED = "expected"
    _MODE_BOUNDS = "bounds"
    _MODE_RUNTIME = "runtime"

    def __init__(self, space, mode, bindings=None):
        self.space = space
        self.mode = mode
        self.bindings = bindings
        if mode == self._MODE_RUNTIME and bindings is None:
            raise ExecutionError("a runtime valuation needs bindings")

    @classmethod
    def expected(cls, space):
        """Every parameter at its expected value (static optimization)."""
        return cls(space, cls._MODE_EXPECTED)

    @classmethod
    def bounds(cls, space):
        """Uncertain parameters at their full compile-time intervals."""
        return cls(space, cls._MODE_BOUNDS)

    @classmethod
    def runtime(cls, space, bindings):
        """Uncertain parameters at their actual run-time values."""
        return cls(space, cls._MODE_RUNTIME, bindings)

    @property
    def is_bounds(self):
        """True for :meth:`bounds`, the one mode that reads no uncertain
        parameter's expected value."""
        return self.mode == self._MODE_BOUNDS

    def value_of(self, name):
        """The interval value of a named parameter under this valuation."""
        parameter = self.space.get(name)
        if self.mode == self._MODE_RUNTIME:
            # Start-up time obtains "new and updated cost-model
            # parameter values" (paper Section 4) — a supplied binding
            # wins even for parameters the compile time treated as
            # known (e.g. the actual memory grant); unbound parameters
            # fall back to their expected values.
            if self.bindings.has_parameter(name):
                return Interval.point(self.bindings.parameter(name))
            return Interval.point(parameter.expected)
        if self.mode == self._MODE_EXPECTED or not parameter.uncertain:
            return Interval.point(parameter.expected)
        return parameter.bounds

    def selectivity(self, predicate):
        """Selectivity interval of a selection predicate."""
        if not predicate.is_uncertain:
            return Interval.point(predicate.known_selectivity)
        name = predicate.selectivity_parameter
        if name in self.space:
            return self.value_of(name)
        # Predicate parameter unknown to the space: use the predicate's
        # own compile-time description.
        if self.mode == self._MODE_BOUNDS:
            return predicate.selectivity_bounds
        if self.mode == self._MODE_RUNTIME and self.bindings.has_parameter(name):
            return Interval.point(self.bindings.parameter(name))
        return Interval.point(predicate.expected_selectivity)

    def memory_pages(self):
        """Available memory (pages) under this valuation."""
        return self.value_of(MEMORY_PARAMETER)

    def __repr__(self):
        return "Valuation(mode=%s)" % self.mode
