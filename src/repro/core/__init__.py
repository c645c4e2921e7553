"""The paper's contribution: the evolvable VM with cross-input learning and
discriminative prediction.

Typical use::

    from repro.core import Application, EvolvableVM, run_default, RepVM

    vm = EvolvableVM(app)
    for cmdline in production_inputs:
        outcome = vm.run(cmdline)
"""

from .accuracy import prediction_accuracy
from .application import Application, Launcher
from .confidence import (
    ConfidenceTracker,
    DEFAULT_GAMMA,
    DEFAULT_THRESHOLD,
)
from .evolvable import EvolvableVM, RepVM, RunOutcome, run_default
from .gc_selection import GCDecision, GCSelector
from .model_builder import ModelBuilder
from .predictor import OverheadModel, StrategyPredictor
from .records import (
    load_state,
    load_state_file,
    save_state,
    state_to_dict,
)

__all__ = [
    "Application",
    "ConfidenceTracker",
    "DEFAULT_GAMMA",
    "DEFAULT_THRESHOLD",
    "EvolvableVM",
    "GCDecision",
    "GCSelector",
    "Launcher",
    "ModelBuilder",
    "OverheadModel",
    "RepVM",
    "RunOutcome",
    "StrategyPredictor",
    "load_state",
    "load_state_file",
    "prediction_accuracy",
    "run_default",
    "save_state",
    "state_to_dict",
]
