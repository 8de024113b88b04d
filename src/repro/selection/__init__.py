"""Model selection: search spaces and trial bookkeeping.

The search drivers (grid / random / successive halving) are the searchers of
:mod:`repro.api`; run them with ``Experiment(space, searcher, backend=...)``.
"""

from repro.selection.search_space import Choice, Uniform, LogUniform, SearchSpace
from repro.selection.experiment import (
    FailedTrial,
    SelectionResult,
    TrialConfig,
    TrialResult,
)

__all__ = [
    "Choice",
    "Uniform",
    "LogUniform",
    "SearchSpace",
    "TrialConfig",
    "TrialResult",
    "FailedTrial",
    "SelectionResult",
]
