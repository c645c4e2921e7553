"""Parallel experiment engine: fan §V-B sweeps out across processes.

A full Figure 8/9/10 + Table I sweep run by run is dominated by
wall-clock. This engine splits a sweep into independent **cells** and
executes them on a ``concurrent.futures.ProcessPoolExecutor``: one cell
per scenario within a benchmark. The **stateful** scenarios (``rep``,
``evolve``: the VM learns across the run sequence) each form one cell
spanning all runs; the **stateless** scenarios (``default``, ``phase``:
every run is independent) split further into fixed-size run ranges.
Every cell runs through :func:`run_cell`, the same loop the serial
runner (:func:`~.runner.run_experiment`) uses for its single cell of all
scenarios over the whole sequence.

Determinism is preserved exactly: every cell derives the same input
sequence from the experiment seed, uses the global run index as the
per-run RNG seed, and builds its own JIT compiler. Each sweep gives its
cells one in-memory JIT artifact layer
(:class:`~repro.vm.opt.artifact_cache.JITArtifactCache`), so a program's
methods are compiled, and their closures built, once per sweep; the layer
is pure memoization (compile costs are charged per compile event, so a
fresh layer yields bit-identical clocks). Cells run in the parent use the
sweep's own :class:`~repro.bench.base.Benchmark` instances, so each
program is compiled from MiniLang once per sweep too. Parallel results
are therefore bitwise-identical to the serial runner's, which a test
asserts.

Cells integrate with :mod:`.telemetry`: each executed run emits a
structured event, and completed cells are stored in the on-disk
:class:`~repro.experiments.telemetry.ResultCache` so re-running a sweep
only executes cells whose inputs changed. Chunk boundaries are fixed
(independent of the job count) so cache keys stay stable when ``--jobs``
changes.

On platforms where multiprocessing is unavailable (sandboxes without
semaphore support), the engine falls back to in-process execution with
identical results.

Sweeps are **fault-tolerant** (see ``docs/robustness.md``): a cell whose
worker raises is retried with exponential backoff; a worker that dies
(``BrokenProcessPool``) does not abort the sweep — every lost cell is
re-executed serially in the parent; a cell exceeding ``cell_timeout`` is
marked *failed-but-reported* (a :class:`CellFailure` on the report, a
``cell_failed`` telemetry event) while the rest of the sweep completes.
Retried and re-executed cells are bit-identical to serial execution
because cells are pure functions of their spec. Every recovery decision
lands in the report's :class:`~repro.resilience.degradation.DegradationReport`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from random import Random

from ..bench.base import Benchmark
from ..bench.suite import get_benchmark
from ..core.evolvable import EvolvableVM, RepVM, run_default
from ..learning.tree import TreeParams
from ..resilience.degradation import DegradationReport
from ..resilience.faults import WorkerFaultPlan
from ..scenarios.drift import DriftSpec, drift_sequence
from ..vm.config import DEFAULT_CONFIG, VMConfig
from ..vm.opt.artifact_cache import JITArtifactCache
from ..vm.opt.jit import JITCompiler
from .runner import ExperimentResult, _run_phase
from .telemetry import (
    CacheKey,
    ResultCache,
    TelemetryLog,
    cell_event,
    cell_failed_event,
    config_digest,
    drift_event,
    run_event,
)

#: Scenarios whose VM carries state across the run sequence; their cells
#: always span every run.
STATEFUL_SCENARIOS = frozenset({"rep", "evolve"})

#: Run-range width for stateless-scenario cells. Fixed (not derived from
#: the job count) so cache keys survive ``--jobs`` changes.
DEFAULT_CHUNK = 8


@dataclass(frozen=True)
class CellSpec:
    """One self-contained unit of sweep work, shippable to a worker."""

    benchmark: str
    scenarios: tuple[str, ...]
    start: int
    stop: int
    seed: int
    sequence: tuple[int, ...]
    config: VMConfig
    gamma: float | None
    threshold: float | None
    tree_params: TreeParams | None
    #: Execution-engine knob forwarded to the scenario drivers
    #: ("compiled"/"fast"/"reference"). Deliberately NOT part of the
    #: cell cache key: every engine is bit-identical in virtual-cycle
    #: results, so the choice only changes wall-clock.
    engine: str = "compiled"

    def cache_key(self) -> CacheKey:
        digest = config_digest(
            sequence=self.sequence,
            config=self.config,
            gamma=self.gamma,
            threshold=self.threshold,
            tree_params=self.tree_params,
        )
        return CacheKey(
            benchmark=self.benchmark,
            scenario="+".join(self.scenarios),
            start=self.start,
            stop=self.stop,
            seed=self.seed,
            digest=digest,
        )


def derive_sequence(
    bench: Benchmark,
    seed: int,
    n_runs: int,
    drift: DriftSpec | None = None,
) -> list[int]:
    """The runner's deterministic input order for (*bench*, *seed*).

    With a *drift* spec the order comes from the non-stationary schedule
    (:func:`~repro.scenarios.drift.drift_sequence`) instead of the
    stationary uniform draw; either way the result is a pure function of
    its arguments, which is what lets cells ship it verbatim.
    """
    _, inputs = bench.build(seed=seed)
    if drift is not None:
        return drift_sequence(drift, len(inputs), n_runs, seed)
    rng = Random(seed * 7919 + 17)
    return [rng.randrange(len(inputs)) for _ in range(n_runs)]


def plan_cells(
    bench: Benchmark,
    *,
    seed: int = 0,
    runs: int | None = None,
    config: VMConfig = DEFAULT_CONFIG,
    scenarios: tuple[str, ...] = ("default", "rep", "evolve"),
    gamma: float | None = None,
    threshold: float | None = None,
    tree_params: TreeParams | None = None,
    sequence: list[int] | None = None,
    drift: DriftSpec | None = None,
    engine: str = "compiled",
) -> list[CellSpec]:
    """Split one benchmark's experiment into independent cell specs."""
    if sequence is not None and drift is not None:
        raise ValueError("pass either an explicit sequence or a drift spec")
    n_runs = runs if runs is not None else bench.runs
    if sequence is None:
        sequence = derive_sequence(bench, seed, n_runs, drift)
    seq = tuple(sequence)

    def spec(scens: tuple[str, ...], start: int, stop: int) -> CellSpec:
        return CellSpec(
            benchmark=bench.name,
            scenarios=scens,
            start=start,
            stop=stop,
            seed=seed,
            sequence=seq,
            config=config,
            gamma=gamma,
            threshold=threshold,
            tree_params=tree_params,
            engine=engine,
        )

    cells: list[CellSpec] = []
    for scenario in scenarios:
        if scenario in STATEFUL_SCENARIOS:
            cells.append(spec((scenario,), 0, len(seq)))
        else:
            for start in range(0, len(seq), DEFAULT_CHUNK):
                stop = min(start + DEFAULT_CHUNK, len(seq))
                cells.append(spec((scenario,), start, stop))
    return cells


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: A pool worker's artifact layer, made as the worker starts
#: (:func:`_start_worker`). Each sweep has a pool of its own, whose
#: workers exit with it, so the layer lives exactly as long as the sweep.
_worker_layer: JITArtifactCache | None = None


def _start_worker() -> None:
    global _worker_layer
    _worker_layer = JITArtifactCache()


def run_cell(
    bench: Benchmark, spec: CellSpec, layer: JITArtifactCache | None = None
) -> tuple[ExperimentResult, list[dict]]:
    """Build the app, JIT and scenario VMs for *spec* and run its range.

    The cell's compiler shares the artifact *layer* when one is given.
    Returns the experiment result holding the live VMs and the cell's
    outcomes, plus the per-run telemetry events. Stateful scenarios must
    replay the prefix ``[0, start)`` — planning never splits them, so
    ``start`` is always 0 for rep/evolve cells.
    """
    app, inputs = bench.build(seed=spec.seed)
    jit = JITCompiler(app.program, spec.config, artifact_cache=layer)

    evolve_kwargs: dict = {
        "config": spec.config, "jit": jit, "engine": spec.engine,
    }
    if spec.gamma is not None:
        evolve_kwargs["gamma"] = spec.gamma
    if spec.threshold is not None:
        evolve_kwargs["threshold"] = spec.threshold
    if spec.tree_params is not None:
        evolve_kwargs["tree_params"] = spec.tree_params
    evolve_vm = EvolvableVM(app, **evolve_kwargs) if "evolve" in spec.scenarios else None
    rep_vm = (
        RepVM(app, config=spec.config, jit=jit, engine=spec.engine)
        if "rep" in spec.scenarios
        else None
    )
    result = ExperimentResult(
        benchmark=spec.benchmark,
        app=app,
        inputs=inputs,
        sequence=list(spec.sequence),
        evolve_vm=evolve_vm,
        rep_vm=rep_vm,
    )

    events: list[dict] = []
    for run_index in range(spec.start, spec.stop):
        input_index = spec.sequence[run_index]
        cmdline = inputs[input_index].cmdline
        for scenario in spec.scenarios:
            run_clock = time.perf_counter()
            if scenario == "default":
                outcome = run_default(
                    app, cmdline, config=spec.config, jit=jit,
                    rng_seed=run_index, engine=spec.engine,
                )
            elif scenario == "rep":
                outcome = rep_vm.run(cmdline, rng_seed=run_index)
            elif scenario == "evolve":
                outcome = evolve_vm.run(cmdline, rng_seed=run_index)
            elif scenario == "phase":
                outcome = _run_phase(
                    app, cmdline, spec.config, jit, run_index, spec.engine
                )
            else:
                raise ValueError(f"unknown scenario {scenario!r}")
            getattr(result, scenario).append(outcome)
            events.append(
                run_event(
                    benchmark=spec.benchmark,
                    scenario=scenario,
                    run_index=run_index,
                    input_index=input_index,
                    cmdline=cmdline,
                    rng_seed=run_index,
                    outcome=outcome,
                    wall_s=time.perf_counter() - run_clock,
                )
            )
            if getattr(outcome, "drift_methods", ()):
                events.append(
                    drift_event(
                        benchmark=spec.benchmark,
                        scenario=scenario,
                        run_index=run_index,
                        methods=outcome.drift_methods,
                        confidence=outcome.confidence_after,
                    )
                )

    if evolve_vm is not None:
        result.evolve_summary = dict(evolve_vm.models.summary())
        result.evolve_summary["final_confidence"] = evolve_vm.confidence.value
    return result, events


def execute_cell(
    spec: CellSpec,
    bench: Benchmark | None = None,
    layer: JITArtifactCache | None = None,
) -> dict:
    """Run one cell and return a pickle-safe payload.

    The cell runs on *bench* (a fresh instance of ``spec.benchmark``
    when ``None``) and shares the artifact *layer* when one is given.
    The payload maps each scenario to its ordered outcomes for the cell's
    run range, carries the per-run telemetry events, and (for ``evolve``)
    a model summary replacing the unpicklable live VM.
    """
    cell_clock = time.perf_counter()
    if bench is None:
        bench = get_benchmark(spec.benchmark)
    result, events = run_cell(bench, spec, layer)
    return {
        "outcomes": {
            scenario: getattr(result, scenario) for scenario in spec.scenarios
        },
        "events": events,
        "model_summary": result.evolve_summary,
        "wall_s": time.perf_counter() - cell_clock,
    }


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellFailure:
    """One cell that could not produce a payload (failed-but-reported).

    The sweep still completes; the failure is visible here, in the
    degradation report, and as a ``cell_failed`` telemetry event.
    """

    benchmark: str
    scenario: str
    start: int
    stop: int
    reason: str  # "exception" | "timeout"
    detail: str
    attempts: int

    def describe(self) -> str:
        return (
            f"{self.benchmark}/{self.scenario}[{self.start}:{self.stop}] "
            f"{self.reason} after {self.attempts} attempt(s): {self.detail}"
        )


@dataclass
class SweepReport:
    """What a parallel sweep produced, beyond the results themselves."""

    results: list[ExperimentResult]
    cells_total: int = 0
    cells_cached: int = 0
    cells_executed: int = 0
    cells_failed: int = 0
    failures: list[CellFailure] = field(default_factory=list)
    degradation: DegradationReport = field(default_factory=DegradationReport)
    wall_s: float = 0.0
    parallel: bool = False

    def describe(self) -> str:
        mode = "parallel" if self.parallel else "inline"
        text = (
            f"{self.cells_total} cell(s): {self.cells_cached} cached, "
            f"{self.cells_executed} executed ({mode}), "
            f"{self.wall_s:.2f}s wall"
        )
        if self.cells_failed:
            text += f", {self.cells_failed} FAILED"
        return text


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is not None:
        return max(1, jobs)
    return max(1, os.cpu_count() or 1)


def map_parallel(worker, items: list, jobs: int) -> tuple[list, bool]:
    """Apply picklable *worker* to every item, preferring a process pool.

    Returns ``(results, parallel)`` with results in item order. Falls back
    to in-process execution when the platform forbids multiprocessing
    (sandboxes without semaphore support), so callers always get results.

    This is the *plain* fan-out primitive: there are no retries, no
    per-item timeouts, and no fault isolation — an exception in *worker*
    propagates to the caller, for every backend. Sweeps needing retry /
    dead-worker recovery / deadline semantics go through
    :func:`run_sweep`'s resilient cell executor instead (behaviour
    documented in ``docs/robustness.md``). Direct callers today are the
    fuzz harness (iteration chunks), the data forge (program chunks) and
    :meth:`~repro.core.model_builder.ModelBuilder.refit_all`, which fans
    out here only with ``jobs > 1``. Only the forge's prior training
    passes that; serving refits run serially in the tenant's own stream.
    """
    if not items:
        return [], False
    if jobs > 1 and len(items) > 1:
        results: dict[int, object] = {}
        try:
            with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
                futures = {
                    pool.submit(worker, item): index
                    for index, item in enumerate(items)
                }
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for future in done:
                        results[futures[future]] = future.result()
            return [results[index] for index in range(len(items))], True
        except (OSError, PermissionError, NotImplementedError):
            pass  # retry everything inline
    return [worker(item) for item in items], False


# ---------------------------------------------------------------------------
# Resilient cell execution
# ---------------------------------------------------------------------------

#: How often the parent re-checks cell deadlines while waiting on the pool.
_POLL_S = 0.05


class InjectedWorkerFault(RuntimeError):
    """The exception a ``raise``-fault worker throws (and, inline, the
    stand-in for a lost worker, which must not kill the parent)."""


def _apply_worker_fault(fault: str | None, hang_s: float) -> None:
    """Worker-side fault behaviors for :class:`WorkerFaultPlan`."""
    if fault is None:
        return
    if fault == "raise":
        raise InjectedWorkerFault("injected worker exception")
    if fault == "exit":
        os._exit(43)  # hard death: breaks the whole process pool
    if fault == "hang":
        time.sleep(hang_s)
        return
    raise ValueError(f"unknown worker fault {fault!r}")


def _cell_worker(item: tuple) -> dict:
    """Pool-side wrapper: optionally misbehave, then run the cell on
    this worker's artifact layer."""
    spec, fault, hang_s = item
    _apply_worker_fault(fault, hang_s)
    return execute_cell(spec, layer=_worker_layer)


def _cell_tag(spec: CellSpec) -> str:
    return f"{spec.benchmark}/{'+'.join(spec.scenarios)}[{spec.start}:{spec.stop}]"


@dataclass
class _Ledger:
    """Per-cell results, failures and attempt counts shared by the pool
    and serial executors, plus the one retry rule both apply."""

    retries: int
    backoff_s: float
    fault_plan: WorkerFaultPlan | None
    report: DegradationReport
    payloads: dict[int, dict] = field(default_factory=dict)
    failures: dict[int, CellFailure] = field(default_factory=dict)
    attempts: dict[int, int] = field(default_factory=dict)

    def next_fault(self, index: int) -> str | None:
        """Count one more attempt of cell *index*; returns the fault the
        plan injects into it, if any."""
        made = self.attempts.get(index, 0)
        self.attempts[index] = made + 1
        if self.fault_plan is None:
            return None
        return self.fault_plan.fault_for(index, made)

    def fail(self, index: int, spec: CellSpec, reason: str, detail: str) -> None:
        self.failures[index] = CellFailure(
            benchmark=spec.benchmark,
            scenario="+".join(spec.scenarios),
            start=spec.start,
            stop=spec.stop,
            reason=reason,
            detail=detail,
            attempts=self.attempts[index],
        )

    def retry(self, index: int, spec: CellSpec, exc: Exception) -> bool:
        """After cell *index* raised *exc*: back off exponentially and
        return True while attempts remain, else mark it failed-but-reported
        and return False."""
        made = self.attempts[index]
        if made <= self.retries:
            self.report.record(
                "sweep", "retry", type(exc).__name__, detail=_cell_tag(spec)
            )
            time.sleep(self.backoff_s * (2 ** (made - 1)))
            return True
        self.fail(index, spec, "exception", f"{type(exc).__name__}: {exc}")
        self.report.record(
            "sweep", "cell-failed", "exception", detail=_cell_tag(spec)
        )
        return False


def _shutdown_pool(pool: ProcessPoolExecutor, healthy: bool) -> None:
    if healthy:
        pool.shutdown(wait=True)
        return
    # A worker is hung or dead: waiting would block the sweep (or the
    # interpreter at exit), so terminate the workers outright. The pool
    # is discarded either way.
    try:
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.terminate()
    except Exception:
        pass
    pool.shutdown(wait=False, cancel_futures=True)


def _pool_phase(
    pool: ProcessPoolExecutor,
    pending: list[tuple[int, CellSpec]],
    ledger: _Ledger,
    cell_timeout: float | None,
) -> list[tuple[int, CellSpec]]:
    """Run cells on the pool; returns cells that must re-run serially.

    The pool stays in charge while it is healthy. The first sign of
    pool-level disruption — a dead worker (``BrokenProcessPool``) or a
    cell blowing its deadline (the stuck worker poisons a pool slot for
    the rest of the sweep) — flips ``healthy``; everything unresolved is
    handed back for serial re-execution in the parent. A timed-out cell
    itself is marked failed-but-reported, not retried.
    """
    futures: dict = {}
    deadlines: dict = {}
    healthy = True
    lost: list[tuple[int, CellSpec]] = []
    plan = ledger.fault_plan
    hang_s = plan.hang_s if plan is not None else 0.0

    def submit(index: int, spec: CellSpec):
        future = pool.submit(
            _cell_worker, (spec, ledger.next_fault(index), hang_s)
        )
        futures[future] = (index, spec)
        if cell_timeout is not None:
            deadlines[future] = time.monotonic() + cell_timeout
        return future

    try:
        not_done = {submit(index, spec) for index, spec in pending}
        poll = _POLL_S if cell_timeout is not None else None
        while not_done and healthy:
            done, not_done = wait(
                not_done, timeout=poll, return_when=FIRST_COMPLETED
            )
            for future in done:
                index, spec = futures.pop(future)
                try:
                    ledger.payloads[index] = future.result()
                except BrokenProcessPool:
                    # The worker died mid-cell. Nothing wrong with the
                    # cell itself: re-execute it (and everything else
                    # still outstanding) serially instead of aborting.
                    healthy = False
                    lost.append((index, spec))
                    ledger.report.record(
                        "sweep", "serial-reexec", "worker-lost",
                        detail=_cell_tag(spec),
                    )
                except Exception as exc:
                    if ledger.retry(index, spec, exc):
                        not_done.add(submit(index, spec))
            if healthy and cell_timeout is not None:
                now = time.monotonic()
                for future in list(not_done):
                    if deadlines.get(future, float("inf")) <= now:
                        index, spec = futures.pop(future)
                        not_done.discard(future)
                        future.cancel()
                        ledger.fail(
                            index, spec, "timeout",
                            f"exceeded {cell_timeout:.2f}s cell timeout",
                        )
                        ledger.report.record(
                            "sweep", "timeout", "cell-deadline",
                            detail=_cell_tag(spec),
                        )
                        healthy = False
        # Whatever is still outstanding re-runs serially in the parent.
        for future in not_done:
            if future in futures:
                index, spec = futures.pop(future)
                lost.append((index, spec))
                ledger.report.record(
                    "sweep", "serial-reexec", "pool-drain",
                    detail=_cell_tag(spec),
                )
    finally:
        _shutdown_pool(pool, healthy)
    return lost


def _serial_phase(
    queue: list[tuple[int, CellSpec]],
    ledger: _Ledger,
    benches: dict[int, Benchmark],
    layer: JITArtifactCache,
) -> None:
    """In-process execution with the same retry rule as the pool.

    Cell *index* runs on ``benches[index]``, and every cell shares the
    caller's artifact *layer*. Inline, a ``exit``/``hang`` fault cannot
    be allowed to kill or stall the parent, so both degrade to
    :class:`InjectedWorkerFault` — the retry path they exercise is the
    same.
    """
    for index, spec in queue:
        while True:
            fault = ledger.next_fault(index)
            try:
                _apply_worker_fault(
                    "raise" if fault in ("exit", "hang") else fault, 0.0
                )
                ledger.payloads[index] = execute_cell(
                    spec, benches[index], layer
                )
                break
            except Exception as exc:
                if not ledger.retry(index, spec, exc):
                    break


def execute_cells(
    pending: list[tuple[int, CellSpec]],
    jobs: int,
    *,
    benches: dict[int, Benchmark],
    layer: JITArtifactCache,
    retries: int = 1,
    cell_timeout: float | None = None,
    backoff_s: float = 0.05,
    fault_plan: WorkerFaultPlan | None = None,
    report: DegradationReport | None = None,
) -> tuple[dict[int, dict], dict[int, CellFailure], bool]:
    """Run the uncached cells with retries, pool recovery, and timeouts.

    Cells run in this process use *benches* (cell index to benchmark
    instance) and the artifact *layer*; pool workers build their own
    from each cell's spec. Returns ``(payloads, failures, parallel)``;
    every pending index ends up in exactly one of the two dicts — a sweep
    never aborts on a bad cell or a dead worker.
    """
    ledger = _Ledger(
        retries, backoff_s, fault_plan,
        report if report is not None else DegradationReport(),
    )
    parallel = False
    serial_queue = list(pending)

    if jobs > 1 and len(pending) > 1:
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)), initializer=_start_worker
            )
        except (OSError, PermissionError, NotImplementedError):
            pool = None
        if pool is not None:
            parallel = True
            serial_queue = _pool_phase(pool, pending, ledger, cell_timeout)

    _serial_phase(serial_queue, ledger, benches, layer)
    return ledger.payloads, ledger.failures, parallel


def run_sweep(
    benchmarks: list[Benchmark],
    *,
    jobs: int | None = None,
    seed: int = 0,
    runs: int | None = None,
    config: VMConfig = DEFAULT_CONFIG,
    scenarios: tuple[str, ...] = ("default", "rep", "evolve"),
    gamma: float | None = None,
    threshold: float | None = None,
    tree_params: TreeParams | None = None,
    drift: DriftSpec | None = None,
    telemetry: TelemetryLog | None = None,
    cache: ResultCache | None = None,
    jit_cache_dir: str | None = None,
    engine: str = "compiled",
    retries: int = 1,
    cell_timeout: float | None = None,
    backoff_s: float = 0.05,
    fault_plan: WorkerFaultPlan | None = None,
    report: DegradationReport | None = None,
) -> SweepReport:
    """Run the §V-B protocol for many benchmarks, fanned out over cells.

    Returns a :class:`SweepReport` whose ``results`` list parallels
    *benchmarks*; each :class:`ExperimentResult` is assembled in run order
    and is bitwise-identical to what the serial runner produces for the
    same arguments. ``evolve_vm``/``rep_vm`` are ``None`` (the live VMs
    stay in the workers); ``evolve_summary`` carries the model snapshot.

    Failure handling: a raising cell is retried up to *retries* times
    with exponential backoff (``backoff_s`` base); dead workers trigger
    serial re-execution of lost cells; a cell over *cell_timeout*
    seconds is marked failed-but-reported. *fault_plan* injects worker
    faults (testing/chaos only). Recovery decisions accumulate in
    *report* (a fresh :class:`DegradationReport` when ``None``), which
    the returned :class:`SweepReport` carries.

    The sweep's cells share one in-memory JIT artifact layer, which the
    sweep drops when it returns (each pool worker keeps a layer of its
    own and exits with the pool), so every sweep compiles cold. Cells run
    in this process use the *benchmarks* instances themselves, so each
    program is compiled once. *jit_cache_dir* is accepted for callers
    that still pass it and is unused: JIT artifacts are not persisted.
    """
    sweep_clock = time.perf_counter()
    if report is None:
        report = DegradationReport()
    plans: list[tuple[Benchmark, list[CellSpec]]] = []
    all_cells: list[CellSpec] = []
    cell_benches: dict[int, Benchmark] = {}
    for bench in benchmarks:
        cells = plan_cells(
            bench,
            seed=seed,
            runs=runs,
            config=config,
            scenarios=tuple(scenarios),
            gamma=gamma,
            threshold=threshold,
            tree_params=tree_params,
            drift=drift,
            engine=engine,
        )
        plans.append((bench, cells))
        for spec in cells:
            cell_benches[len(all_cells)] = bench
            all_cells.append(spec)

    payloads: dict[int, dict] = {}
    pending: list[tuple[int, CellSpec]] = []
    cached = 0
    for index, spec in enumerate(all_cells):
        payload = cache.get(spec.cache_key()) if cache is not None else None
        if payload is not None:
            payloads[index] = payload
            cached += 1
            if telemetry is not None:
                telemetry.append(
                    cell_event(
                        "cache_hit",
                        spec.benchmark,
                        "+".join(spec.scenarios),
                        spec.start,
                        spec.stop,
                        cached=True,
                    )
                )
        else:
            pending.append((index, spec))

    executed, cell_failures, parallel = execute_cells(
        pending,
        _resolve_jobs(jobs),
        benches=cell_benches,
        layer=JITArtifactCache(),
        retries=retries,
        cell_timeout=cell_timeout,
        backoff_s=backoff_s,
        fault_plan=fault_plan,
        report=report,
    )
    for index, payload in executed.items():
        spec = all_cells[index]
        payloads[index] = payload
        if cache is not None:
            cache.put(spec.cache_key(), payload)
        if telemetry is not None:
            telemetry.extend(payload["events"])
            telemetry.append(
                cell_event(
                    "cell",
                    spec.benchmark,
                    "+".join(spec.scenarios),
                    spec.start,
                    spec.stop,
                    wall_s=payload["wall_s"],
                )
            )
    failures = [cell_failures[index] for index in sorted(cell_failures)]
    if telemetry is not None:
        for failure in failures:
            telemetry.append(
                cell_failed_event(
                    failure.benchmark,
                    failure.scenario,
                    failure.start,
                    failure.stop,
                    reason=failure.reason,
                    detail=failure.detail,
                    attempts=failure.attempts,
                )
            )

    results: list[ExperimentResult] = []
    cursor = 0
    for bench, cells in plans:
        app, inputs = bench.build(seed=seed)
        sequence = list(cells[0].sequence)
        result = ExperimentResult(
            benchmark=bench.name,
            app=app,
            inputs=inputs,
            sequence=sequence,
            drift_spec=drift,
        )
        by_scenario: dict[str, list[tuple[int, list]]] = {}
        for offset, spec in enumerate(cells):
            payload = payloads.get(cursor + offset)
            if payload is None:
                continue  # failed cell: reported, not sweep-fatal
            for scenario, outs in payload["outcomes"].items():
                by_scenario.setdefault(scenario, []).append((spec.start, outs))
            if payload.get("model_summary") is not None:
                result.evolve_summary = payload["model_summary"]
        for scenario, pieces in by_scenario.items():
            ordered: list = []
            for _, outs in sorted(pieces, key=lambda item: item[0]):
                ordered.extend(outs)
            setattr(result, scenario, ordered)
        cursor += len(cells)
        results.append(result)

    return SweepReport(
        results=results,
        cells_total=len(all_cells),
        cells_cached=cached,
        cells_executed=len(pending) - len(failures),
        cells_failed=len(failures),
        failures=failures,
        degradation=report,
        wall_s=time.perf_counter() - sweep_clock,
        parallel=parallel,
    )
