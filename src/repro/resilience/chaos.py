"""The chaos harness: seeded fault campaigns over the persistence stack.

``repro chaos`` runs N iterations. Each iteration derives a fresh
:class:`~repro.resilience.faults.FaultPlan` from the campaign seed and
drives every crash-safe layer through it, asserting the resilience
invariants the repo promises (``docs/robustness.md``):

1. **Never wrong** — whenever a result is produced (a state load
   succeeds, a cache returns a hit, a VM completes a run), it is
   bit-identical to the fault-free reference computed once up front.
2. **Never crashed** — no fault plan may surface as an unhandled
   exception; faults degrade, they do not propagate.
3. **Always accounted** — every injected corruption that reaches a
   loader produces a quarantine + fallback, observable in the
   :class:`~repro.resilience.degradation.DegradationReport`.

Three pillars are exercised per iteration: evolvable-VM state
(save → corrupt? → load → run), the sweep result cache, and the
telemetry JSONL log. Periodically an iteration also runs a whole sweep
under a :class:`~repro.resilience.faults.WorkerFaultPlan` to exercise
the retry/re-execution path end to end.

Everything is a pure function of ``(seed, iteration)``, so any reported
violation replays exactly.
"""

from __future__ import annotations

import json
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ..bench.suite import get_benchmark
from ..core.evolvable import EvolvableVM
from ..core.records import load_state, load_state_file, save_state, state_to_dict
from ..experiments.parallel import derive_sequence, run_sweep
from ..experiments.telemetry import (
    CacheKey,
    ResultCache,
    TelemetryLog,
    cell_event,
    read_events,
)
from ..scenarios.drift import DriftSpec, get_drift_spec
from ..serving.registry import ModelRegistry
from ..serving.tenant import Tenant
from .degradation import DegradationReport
from .faults import FaultPlan, FaultyFS, WorkerFaultPlan


@dataclass(frozen=True)
class ChaosViolation:
    """One broken invariant; ``kind`` is machine-readable."""

    iteration: int
    kind: str  # "divergence" | "corruption-not-detected" |
    #           "missing-degradation" | "unhandled-exception"
    detail: str

    def describe(self) -> str:
        return f"iteration {self.iteration}: {self.kind} — {self.detail}"


@dataclass
class ChaosReport:
    """What one chaos campaign injected, survived, and (never) broke."""

    seed: int
    iterations: int
    benchmark: str
    #: True when the campaign ran under a non-stationary input schedule
    #: with the rollback pillar enabled (``repro chaos --drift``).
    drift: bool = False
    completed: int = 0
    faults_injected: int = 0
    degradations: int = 0
    quarantines: int = 0
    violations: list[ChaosViolation] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        return (
            f"{self.completed}/{self.iterations} iteration(s), "
            f"{self.faults_injected} fault(s) injected, "
            f"{self.degradations} degradation(s) "
            f"({self.quarantines} quarantine(s)), "
            f"{len(self.violations)} violation(s), {self.wall_s:.2f}s wall"
        )


# ---------------------------------------------------------------------------
# Fault-free references (computed once per campaign)
# ---------------------------------------------------------------------------

def _sweep_signature(result) -> tuple:
    """Reduce an ExperimentResult to comparable virtual-cycle facts."""
    parts = []
    for scenario in ("default", "evolve"):
        outs = getattr(result, scenario, []) or []
        parts.append(
            (
                scenario,
                tuple(
                    (o.result, o.total_cycles, o.profile.compile_cycles)
                    for o in outs
                ),
            )
        )
    return tuple(parts)


@dataclass
class _Reference:
    """Everything a chaos iteration compares against."""

    bench: object
    app: object
    inputs: list
    sequence: list[int]
    vm: EvolvableVM                 # trained, fault-free
    run_cycles: tuple[float, ...]   # per training run
    warm_post: tuple                # (result, cycles) after state reload
    cold_post: tuple                # (result, cycles) from empty records
    cache_payload: dict
    cache_key: CacheKey
    sweep_signature: tuple
    #: Non-stationary schedule in force (None = stationary campaign).
    drift_spec: DriftSpec | None = None
    #: Fault-free facts of the forced-rollback scenario (drift mode):
    #: (confidence, run_count, generation, from_gen, to_gen, watchdog).
    rollback_signature: tuple = ()


def _post_run(vm: EvolvableVM, reference: "_Reference") -> tuple:
    index = reference.sequence[-1]
    outcome = vm.run(
        reference.inputs[index].cmdline, rng_seed=len(reference.sequence) - 1
    )
    return (outcome.result, outcome.total_cycles)


def _build_reference(
    seed: int,
    benchmark: str,
    runs: int,
    drift_spec: DriftSpec | None = None,
) -> _Reference:
    bench = get_benchmark(benchmark)
    app, inputs = bench.build(seed=seed)
    # One extra slot at the tail: the post-load probe run. Drift mode
    # swaps the i.i.d. schedule for the non-stationary one, so every
    # pillar replays under a moving input distribution.
    sequence = derive_sequence(bench, seed, runs + 1, drift=drift_spec)

    vm = EvolvableVM(app)
    run_cycles = []
    for run_index in range(runs):
        outcome = vm.run(
            inputs[sequence[run_index]].cmdline, rng_seed=run_index
        )
        run_cycles.append(outcome.total_cycles)

    reference = _Reference(
        bench=bench,
        app=app,
        inputs=inputs,
        sequence=sequence,
        vm=vm,
        run_cycles=tuple(run_cycles),
        warm_post=(),
        cold_post=(),
        cache_payload={"benchmark": benchmark, "cycles": tuple(run_cycles)},
        cache_key=CacheKey("chaos", "state", 0, runs, seed, "chaos-ref"),
        sweep_signature=(),
        drift_spec=drift_spec,
    )

    # Warm post-run: a fresh VM restored through the same JSON round trip
    # the envelope performs, then probed once.
    warm = EvolvableVM(app)
    load_state(warm, json.loads(json.dumps(state_to_dict(vm), sort_keys=True)))
    reference.warm_post = _post_run(warm, reference)
    # Cold post-run: the degraded path — empty records, reactive default.
    reference.cold_post = _post_run(EvolvableVM(app), reference)

    fault_free = run_sweep(
        [bench], jobs=1, seed=seed, runs=runs,
        scenarios=("default", "evolve"),
        drift=drift_spec,
    )
    reference.sweep_signature = _sweep_signature(fault_free.results[0])

    if drift_spec is not None:
        # Fault-free forced rollback: the facts every faulted replay of
        # the rollback pillar must reproduce in memory.
        with tempfile.TemporaryDirectory(prefix="chaos-rollback-ref-") as tmp:
            registry = ModelRegistry(
                Path(tmp) / "serving", report=DegradationReport()
            )
            tenant, record = _run_rollback_scenario(reference, registry)
        if record is None:
            raise RuntimeError(
                "chaos drift reference: forced probation failure produced "
                "no rollback"
            )
        reference.rollback_signature = _rollback_signature(tenant, record)
    return reference


def _run_rollback_scenario(
    reference: _Reference, registry: ModelRegistry
) -> tuple[Tenant, dict | None]:
    """Deterministic tenant lifecycle ending in one forced rollback.

    Trains a tenant on the reference schedule, swaps (the generation
    passes probation under a margin of 1.0, which no real accuracy can
    breach), then swaps again with the probation baseline doctored to an
    unreachable level — the next window must fail and roll back. The
    doctoring targets the *rollback machinery under fault injection*;
    organic detector-driven rollbacks are covered by the serving tests.
    """
    tenant = Tenant(
        reference.app,
        registry=registry,
        refit_interval=None,
        probation_window=2,
        probation_margin=1.0,
        max_rollbacks=99,
    )
    n_runs = len(reference.run_cycles)
    for run_index in range(n_runs):
        tenant.run(
            reference.inputs[reference.sequence[run_index]].cmdline,
            seed=run_index,
        )
    tenant.swap()
    probe = reference.sequence[-1]
    for extra in range(2):
        tenant.run(reference.inputs[probe].cmdline, seed=n_runs + extra)
    tenant.swap()
    if tenant._probation is not None:
        tenant._probation["baseline"] = 3.0  # unreachable: must roll back
    record: dict | None = None
    for extra in range(2, 4):
        payload = tenant.run(
            reference.inputs[probe].cmdline, seed=n_runs + extra
        )
        if payload["rollback"]:
            record = payload["rollback"]
    return tenant, record


def _rollback_signature(tenant: Tenant, record: dict) -> tuple:
    """The in-memory facts a rollback must reproduce regardless of
    filesystem faults (restores never touch disk)."""
    return (
        tenant.vm.confidence.value,
        tenant.vm.run_count,
        tenant.generation,
        record["from_generation"],
        record["to_generation"],
        record["watchdog"],
    )


# ---------------------------------------------------------------------------
# The pillars, one iteration each
# ---------------------------------------------------------------------------

def _check_state_pillar(
    reference: _Reference,
    fs: FaultyFS,
    report: DegradationReport,
    root: Path,
    violations: list[str],
) -> None:
    state_path = root / "state.json"
    saved = save_state(reference.vm, str(state_path), fs=fs, report=report)
    vm2 = EvolvableVM(reference.app)
    loaded = load_state_file(vm2, str(state_path), fs=fs, report=report)

    corrupted_writes = fs.corrupting_faults_for(state_path)
    if corrupted_writes and loaded:
        violations.append(
            ("corruption-not-detected",
             f"state file had {len(corrupted_writes)} corrupting write "
             "fault(s) yet loaded successfully")
        )
    if loaded:
        if (
            vm2.confidence.value != reference.vm.confidence.value
            or vm2.run_count != reference.vm.run_count
        ):
            violations.append(
                ("divergence", "restored state differs from saved state")
            )
    else:
        if report.count(component="state") == 0:
            violations.append(
                ("missing-degradation",
                 "state load fell back with no degradation recorded")
            )
    if saved and not loaded and not fs.faults_for(state_path):
        violations.append(
            ("divergence", "clean save + clean read still failed to load")
        )

    # The probe run must match the warm reference when state survived,
    # and the cold (reactive fallback) reference when it did not —
    # degraded means slower/forgetful, never different semantics.
    expected = reference.warm_post if loaded else reference.cold_post
    actual = _post_run(vm2, reference)
    if actual != expected:
        violations.append(
            ("divergence",
             f"post-{'load' if loaded else 'fallback'} run observed "
             f"{actual}, expected {expected}")
        )


def _check_result_cache_pillar(
    reference: _Reference,
    fs: FaultyFS,
    report: DegradationReport,
    root: Path,
    violations: list[str],
) -> None:
    cache = ResultCache(root / "cells", fs=fs, report=report)
    cache.put(reference.cache_key, reference.cache_payload)
    entry_path = cache._path(reference.cache_key)
    got = cache.get(reference.cache_key)
    if got is not None:
        if got != reference.cache_payload:
            violations.append(
                ("divergence", "result cache returned a different payload")
            )
        if fs.corrupting_faults_for(entry_path):
            violations.append(
                ("corruption-not-detected",
                 "result-cache entry was corrupted yet served as a hit")
            )


def _check_telemetry_pillar(
    fs: FaultyFS,
    report: DegradationReport,
    root: Path,
    violations: list[str],
) -> None:
    path = root / "telemetry.jsonl"
    written = [
        cell_event("cell", "Chaos", "state", start, start + 1, wall_s=None)
        for start in range(6)
    ]
    log = TelemetryLog(path, fs=fs, report=report)
    log.extend(written)
    if not path.exists():
        if log.events_dropped == 0:
            violations.append(
                ("missing-degradation",
                 "telemetry file missing but no drops recorded")
            )
        return
    with warnings.catch_warnings():
        # Skipped torn lines are expected here; the DegradationReport
        # already accounts for them.
        warnings.simplefilter("ignore", RuntimeWarning)
        read_back = read_events(path, report=report)
    for event in read_back:
        if event not in written:
            violations.append(
                ("divergence",
                 f"telemetry read produced an event never written: {event}")
            )
    if log.events_dropped == 0 and not fs.faults_for(path):
        if read_back != written:
            violations.append(
                ("divergence", "fault-free telemetry round trip diverged")
            )


def _check_rollback_pillar(
    reference: _Reference,
    fs: FaultyFS,
    report: DegradationReport,
    root: Path,
    violations: list[str],
) -> None:
    """Drift mode's own pillar: forced rollback under filesystem faults.

    The invariant is *bit-identical-or-degraded, with every degradation
    recorded*: the in-memory rollback must reproduce the fault-free
    reference exactly (restores never touch disk), the rollback must be
    accounted in the degradation ledger, and a fresh registry over the
    same root must either restore the tenant's record (generation,
    rollback count, confidence) exactly or have a recorded degradation
    for the tenant's state explaining why not: its own failed load, or
    a save that did not land.
    """
    registry = ModelRegistry(root / "serving", fs=fs, report=report)
    tenant, record = _run_rollback_scenario(reference, registry)
    if record is None:
        violations.append(
            ("divergence", "forced probation failure produced no rollback")
        )
        return
    signature = _rollback_signature(tenant, record)
    if signature != reference.rollback_signature:
        violations.append(
            ("divergence",
             f"rollback under faults diverged: {signature} != "
             f"{reference.rollback_signature}")
        )
    if report.count(component="serving", action="rollback") == 0:
        violations.append(
            ("missing-degradation",
             "rollback happened but the degradation ledger has no "
             "serving/rollback entry")
        )
    # Crash-safety of the persisted side: whatever the fault plan did to
    # the saves, a fresh registry over the same root must restore the
    # serving tenant's generation, rollback count and confidence. It may
    # come up otherwise only with a degradation for the tenant's state
    # on record: a failed load records its own, and an older record
    # restores only after a save of this state failed.
    fresh = ModelRegistry(registry.root, fs=fs, report=report)
    vm2 = EvolvableVM(reference.app)
    recorded = report.count(component="state")
    if not fresh.load_into(vm2):
        if report.count(component="state") == recorded:
            violations.append(
                ("missing-degradation",
                 "post-rollback tenant record failed to load with nothing "
                 "recorded")
            )
        return
    name = tenant.name
    state_path = str(registry.state_path(name))
    reloaded = (
        fresh.generations[name], fresh.rollbacks[name], vm2.confidence.value
    )
    serving = (
        tenant.generation, registry.rollbacks.get(name, 0),
        tenant.vm.confidence.value,
    )
    if reloaded != serving and not any(
        (event.component, event.action, event.path)
        == ("state", "store-failed", state_path)
        for event in report.events
    ):
        violations.append(
            ("divergence",
             f"reloaded post-rollback tenant record {reloaded} differs from "
             f"the serving tenant's {serving} with no recorded save failure")
        )


def _check_sweep_pillar(
    reference: _Reference,
    iteration_seed: int,
    seed: int,
    runs: int,
    report: DegradationReport,
    violations: list[str],
) -> None:
    plan = WorkerFaultPlan(seed=iteration_seed, raise_rate=0.4)
    swept = run_sweep(
        [reference.bench],
        jobs=1,
        seed=seed,
        runs=runs,
        scenarios=("default", "evolve"),
        fault_plan=plan,
        retries=2,
        backoff_s=0.0,
        report=report,
        drift=reference.drift_spec,
    )
    # Faults fire only on first attempts and retries are clean, so the
    # sweep must complete every cell with bit-identical results.
    if swept.cells_failed:
        violations.append(
            ("divergence",
             f"sweep reported {swept.cells_failed} failed cell(s) despite "
             "retries covering every injected fault")
        )
    elif _sweep_signature(swept.results[0]) != reference.sweep_signature:
        violations.append(
            ("divergence", "faulted sweep diverged from fault-free sweep")
        )


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

def run_chaos(
    seed: int = 0,
    iterations: int = 25,
    *,
    benchmark: str = "Search",
    runs: int = 3,
    sweep_every: int = 5,
    workdir: str | None = None,
    drift: bool = False,
) -> ChaosReport:
    """Run a seeded chaos campaign; ``report.ok`` means every invariant held.

    ``sweep_every`` controls how often (every k-th iteration) a full
    sweep runs under worker faults; 0 disables that pillar. ``drift``
    runs the whole campaign under a non-stationary (abrupt-shift) input
    schedule and adds the forced-rollback pillar: drift and faults
    together, the combination production actually serves.
    """
    clock = time.perf_counter()
    drift_spec = get_drift_spec("abrupt") if drift else None
    report = ChaosReport(
        seed=seed, iterations=iterations, benchmark=benchmark, drift=drift
    )
    reference = _build_reference(seed, benchmark, runs, drift_spec=drift_spec)

    for iteration in range(iterations):
        iteration_seed = seed * 99_991 + iteration
        plan = FaultPlan.chaos_default(iteration_seed)
        fs = FaultyFS(plan)
        degradation = DegradationReport()
        found: list[tuple[str, str]] = []
        try:
            with tempfile.TemporaryDirectory(
                prefix=f"chaos{iteration}-", dir=workdir
            ) as tmp:
                root = Path(tmp)
                _check_state_pillar(reference, fs, degradation, root, found)
                _check_result_cache_pillar(
                    reference, fs, degradation, root, found
                )
                _check_telemetry_pillar(fs, degradation, root, found)
                if drift:
                    _check_rollback_pillar(
                        reference, fs, degradation, root, found
                    )
                if sweep_every and iteration % sweep_every == 0:
                    _check_sweep_pillar(
                        reference, iteration_seed, seed, runs,
                        degradation, found,
                    )
        except Exception:
            found.append(
                ("unhandled-exception",
                 traceback.format_exc(limit=3).strip().replace("\n", " | "))
            )
        report.completed += 1
        report.faults_injected += len(fs.fault_log)
        report.degradations += len(degradation)
        report.quarantines += degradation.count(action="quarantine")
        report.violations.extend(
            ChaosViolation(iteration=iteration, kind=kind, detail=detail)
            for kind, detail in found
        )

    report.wall_s = time.perf_counter() - clock
    return report
