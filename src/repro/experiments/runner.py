"""Scenario runner: executes one benchmark under any subset of the four
scenarios — Default, Rep, Evolve, and the phase-based comparator.

The protocol follows §V-B: each experiment is a sequence of runs (30, or 70
for programs with many inputs), every run using one input picked uniformly
at random from the program's input population. The same input sequence and
per-run RNG seeds are used for all scenarios, so per-run comparisons are
apples-to-apples; the default run of each input doubles as the speedup
baseline.

The serial runner is the one-cell path of the parallel engine
(:mod:`.parallel`): it runs every scenario over the whole sequence as a
single cell through the same loop a worker runs, and keeps the live VMs.
``jobs > 1`` hands the protocol to :func:`~.parallel.run_sweep`, which
produces bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.base import BenchInput, Benchmark
from ..core.application import Application
from ..aos.phase import PhaseAdaptiveController
from ..core.evolvable import EvolvableVM, RepVM, RunOutcome, run_reactive
from ..scenarios.drift import DriftSpec
from ..learning.tree import TreeParams
from ..vm.config import DEFAULT_CONFIG, VMConfig


@dataclass
class ExperimentResult:
    """All observations from one benchmark's experiment: one outcome list
    per executed scenario (Default, Rep, Evolve, and optionally the
    phase-based comparator).

    ``evolve_vm``/``rep_vm`` hold the live scenario VMs when the serial
    runner produced the result; the parallel engine leaves them ``None``
    (they stay in the worker processes). Both fill ``evolve_summary``,
    the pickle-safe model snapshot reports read.
    """

    benchmark: str
    app: Application
    inputs: list[BenchInput]
    sequence: list[int]
    default: list[RunOutcome] = field(default_factory=list)
    rep: list[RunOutcome] = field(default_factory=list)
    evolve: list[RunOutcome] = field(default_factory=list)
    phase: list[RunOutcome] = field(default_factory=list)
    evolve_vm: EvolvableVM | None = None
    rep_vm: RepVM | None = None
    evolve_summary: dict | None = None
    #: The non-stationary input schedule the sequence was drawn from,
    #: when the experiment ran under drift (``None`` = the paper's
    #: stationary i.i.d. protocol).
    drift_spec: DriftSpec | None = None

    # -- derived series -----------------------------------------------------
    def speedups(self, scenario: str) -> list[float]:
        """Per-run speedups of *scenario* over the default runs."""
        series = {
            "rep": self.rep,
            "evolve": self.evolve,
            "phase": self.phase,
        }[scenario]
        return [
            base.total_cycles / run.total_cycles
            for base, run in zip(self.default, series)
        ]

    def accuracies(self) -> list[float]:
        return [
            out.accuracy for out in self.evolve if out.accuracy is not None
        ]

    def confidences(self) -> list[float]:
        return [
            out.confidence_after
            for out in self.evolve
            if out.confidence_after is not None
        ]

    def default_times(self) -> list[float]:
        return [out.total_cycles for out in self.default]


def run_experiment(
    bench: Benchmark,
    seed: int = 0,
    runs: int | None = None,
    config: VMConfig = DEFAULT_CONFIG,
    gamma: float | None = None,
    threshold: float | None = None,
    tree_params: TreeParams | None = None,
    scenarios: tuple[str, ...] = ("default", "rep", "evolve"),
    sequence: list[int] | None = None,
    drift: DriftSpec | None = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Run the full §V-B protocol for one benchmark.

    *sequence* overrides the random input order (used by the
    input-order-sensitivity study); otherwise the order comes from
    :func:`~.parallel.derive_sequence` — a uniform draw from *seed*, or
    the non-stationary schedule *drift* names.

    *jobs* > 1 delegates to :func:`~.parallel.run_sweep`: scenarios (and
    run ranges of the stateless ones) execute as independent worker
    cells, with bit-identical outcomes.
    """
    from .parallel import CellSpec, derive_sequence, run_cell, run_sweep

    if sequence is not None and drift is not None:
        raise ValueError("pass either an explicit sequence or a drift spec")
    options = dict(
        config=config, gamma=gamma, threshold=threshold,
        tree_params=tree_params,
    )
    if jobs > 1 and sequence is None:
        return run_sweep(
            [bench], jobs=jobs, seed=seed, runs=runs,
            scenarios=tuple(scenarios), drift=drift, **options,
        ).results[0]
    if sequence is None:
        n_runs = runs if runs is not None else bench.runs
        sequence = derive_sequence(bench, seed, n_runs, drift)
    result, _ = run_cell(bench, CellSpec(
        benchmark=bench.name, scenarios=tuple(scenarios), start=0,
        stop=len(sequence), seed=seed, sequence=tuple(sequence), **options,
    ))
    result.drift_spec = drift
    return result


def _run_phase(app, cmdline, config, jit, rng_seed, engine) -> RunOutcome:
    """One run under the phase-based adaptive comparator."""
    return run_reactive(
        "phase", PhaseAdaptiveController, app, cmdline, config, jit,
        rng_seed, engine,
    )


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used by the Figure 10 boxplots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def of(cls, values: list[float]) -> "BoxStats":
        if not values:
            raise ValueError("no values")
        ordered = sorted(values)

        def quantile(q: float) -> float:
            if len(ordered) == 1:
                return ordered[0]
            pos = q * (len(ordered) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            frac = pos - lo
            return ordered[lo] * (1 - frac) + ordered[hi] * frac

        return cls(
            minimum=ordered[0],
            q1=quantile(0.25),
            median=quantile(0.5),
            q3=quantile(0.75),
            maximum=ordered[-1],
        )
