"""Random run-time bindings for the experiments (paper Section 6).

"The random values for selectivities of selection operations are
chosen from a uniform distribution over the interval [0, 1]. ...
When memory was considered an unbound parameter, a run-time value for
the number of pages was chosen from a uniform distribution over
[16, 112]."

Besides the selectivity parameters themselves (consumed by the
choose-plan decision procedures), each binding set carries matching
*user-variable values* so the execution engine produces result sets
whose actual selectivities equal the drawn parameters: the selection
attribute is uniform over ``[0, domain)``, so ``a < s * domain`` has
selectivity ``s``.
"""

from repro.common.rng import make_rng
from repro.cost.parameters import Bindings, MEMORY_PARAMETER
from repro.workloads.queries import SELECTION_ATTRIBUTE


def _bind_selections(query, catalog, draw):
    """Bindings for every selection predicate of ``query``.

    ``draw(predicate)`` gives an uncertain predicate's ``(declared,
    actual)`` selectivities: the parameter is bound to the declared one
    and the user variable so that the data qualifies at the actual
    one.  A known-selectivity predicate's variable realizes its
    known selectivity, so the compile-time estimate is accurate.
    """
    bindings = Bindings()
    for relation_name in query.relations:
        predicate = query.selection_for(relation_name)
        if predicate is None:
            continue
        if predicate.is_uncertain:
            declared, actual = draw(predicate)
            bindings.bind(predicate.selectivity_parameter, declared)
        else:
            actual = predicate.known_selectivity
        variable = predicate.comparison.operand
        if hasattr(variable, "name"):
            domain = catalog.domain_size(relation_name, SELECTION_ATTRIBUTE)
            bindings.bind_variable(variable.name, actual * domain)
    return bindings


def bind_selectivity(query, catalog, selectivity):
    """Bindings setting every uncertain selectivity to one value (one
    request's draw in :mod:`repro.workloads.traffic`)."""
    return _bind_selections(query, catalog, lambda predicate: (selectivity,) * 2)


def random_bindings(workload, seed=0, run_index=0):
    """One random binding set for a workload."""
    query = workload.query
    rng = make_rng(seed, "bindings", query.name, run_index)

    def draw(predicate):
        bounds = predicate.selectivity_bounds
        return (rng.uniform(bounds.lower, bounds.upper),) * 2

    bindings = _bind_selections(query, workload.catalog, draw)
    memory_parameter = query.parameter_space.get(MEMORY_PARAMETER)
    if memory_parameter.uncertain:
        memory = rng.uniform(
            memory_parameter.bounds.lower, memory_parameter.bounds.upper
        )
        bindings.bind(MEMORY_PARAMETER, int(round(memory)))
    return bindings


def skewed_bindings(workload, declared=0.02, actual=0.6):
    """Bindings whose declared selectivities lie about the data.

    Every uncertain selection parameter is *declared* as ``declared``
    (what the start-up decision procedures are told) while the bound
    user-variable value implies an *actual* selectivity of ``actual``
    — the data really qualifies at that rate.  The start-up decision
    therefore optimizes for the wrong cardinalities, and the first
    pipeline breaker observes the divergence: the scenario mid-query
    re-optimization exists for.  Both rates are clamped to each
    predicate's compile-time bounds so no *staleness* machinery
    triggers — the lie is only visible at run time.
    """

    def draw(predicate):
        bounds = predicate.selectivity_bounds
        return (
            min(max(declared, bounds.lower), bounds.upper),
            min(max(actual, bounds.lower), bounds.upper),
        )

    bindings = _bind_selections(workload.query, workload.catalog, draw)
    memory_parameter = workload.query.parameter_space.get(MEMORY_PARAMETER)
    if memory_parameter.uncertain:
        bindings.bind(MEMORY_PARAMETER, int(round(memory_parameter.expected)))
    return bindings


def binding_series(workload, count=100, seed=0):
    """The paper's N independent binding sets (N = 100 by default)."""
    return [
        random_bindings(workload, seed=seed, run_index=index)
        for index in range(count)
    ]
