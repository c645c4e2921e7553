"""Experiment harness: one module per paper table/figure plus the shared
scenario runner (see DESIGN.md's experiment index, E1–E8), the parallel
experiment engine (:mod:`.parallel`), and run telemetry + result caching
(:mod:`.telemetry`)."""

from .runner import BoxStats, ExperimentResult, run_experiment
from .parallel import (
    CellSpec,
    SweepReport,
    plan_cells,
    run_sweep,
)
from .telemetry import (
    CacheKey,
    ResultCache,
    TelemetryLog,
    read_events,
    validate_event,
)
from .export import (
    figure8_csv,
    figure9_csv,
    figure10_csv,
    runs_csv,
    table1_csv,
)

__all__ = [
    "BoxStats",
    "CacheKey",
    "CellSpec",
    "ExperimentResult",
    "ResultCache",
    "SweepReport",
    "TelemetryLog",
    "figure8_csv",
    "figure9_csv",
    "figure10_csv",
    "plan_cells",
    "read_events",
    "run_experiment",
    "run_sweep",
    "runs_csv",
    "table1_csv",
    "validate_event",
]
