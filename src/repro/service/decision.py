"""Import path kept for :mod:`repro.executor.decision`, which the
mid-query re-decider runs too (the executor may not import from here)."""

from repro.executor.decision import CompiledDecision, DecisionCompilationError

__all__ = ["CompiledDecision", "DecisionCompilationError"]
