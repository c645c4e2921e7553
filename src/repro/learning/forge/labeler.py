"""Forked-run labeling: every method's ideal opt level from (nearly) one run.

The label the forge needs for a training row is *the ideal optimization
level of method m under this program×input*: the level that, committed at
*m*'s first invocation (the moment the evolvable VM applies predicted
strategies), minimizes ``method_cycles[m] + m's compile cycles``. The
naive way to obtain it — :func:`label_naive` — re-executes the whole
program once per (method, level) pair: ``3·M + 1`` full runs per input.

:func:`label_forked` produces bit-identical labels from one instrumented
parent run plus cheap partial work, using three mechanisms:

1. **Fork snapshots.** The parent runs all-baseline on the fast engine
   with the interpreter's fork hook armed: at each method's first
   invocation — before any of its compile cycles are charged — the
   resumable VM state (frames with the CALL rewound, clock, sampler,
   profile, heap/rng, method states) is captured. A child for (m, L)
   restores the snapshot, forces *m* to L via the first-invocation hook,
   and resumes on the fast engine: it re-executes only the run's
   *suffix*, yet its profile is bit-identical to a naive forced run
   because the prefix it inherited is bit-identical by construction.

2. **Shadow accounts.** When a tier's pass pipeline leaves *m*'s code
   unchanged (level 0 runs no passes, so always; higher tiers
   occasionally), a forced run differs from the parent only in the speed
   factor scaling *m*'s per-instruction costs. The parent charges
   :class:`~repro.vm.fastpath.ShadowAccount` chains that replay the
   exact cost expressions at the shadow speed, so those (m, L) labels cost
   *zero* extra execution.

3. **Shared code caches.** Parent and children share one
   :class:`~repro.vm.opt.jit.JITCompiler`; virtual compile cycles are
   charged per run regardless (deterministic cost model), so host-side
   codegen is paid once per (method, level) per program rather than once
   per run — and amortizes further across inputs of the same program when
   the caller passes one ``jit`` to several :func:`label_forked` calls.

Parents and children run on the fast engine (``engine="fast"``), which
carries the fork plumbing and decodes each artifact once per shared
``jit``: forge runs are short, too short to pay for building closures.
:func:`label_naive` stays on the reference loop, the executable
specification, so the differential gate (``tests/test_forge.py``) is a
cross-engine check: the two labelers must agree bit-for-bit on labels,
per-level virtual cycles, baseline profiles, and heap effects over a
seeded corpus, including fuel-exhaustion and fault edges.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from random import Random

from ...vm.config import BASELINE_LEVEL, OPT_LEVELS, VMConfig
from ...vm.errors import VMError
from ...vm.heap import Heap, HeapStats
from ...vm.fastpath import FastFrame, ShadowAccount
from ...vm.interpreter import Interpreter, _MethodState
from ...vm.intrinsics import IntrinsicContext
from ...vm.opt.jit import JITCompiler
from ...vm.profiles import RunProfile
from ...vm.program import Program
from ...vm.sampler import Sampler

#: Forge runs are plain adaptive-free executions with a generous-but-finite
#: fuel budget (mirrors the fuzz harness's safety margin over the corpus).
FORGE_CONFIG = VMConfig(max_instructions=2_000_000)

#: Levels a method can be *forced* to at first invocation; the baseline
#: outcome falls out of the parent run for free.
FORCED_LEVELS: tuple[int, ...] = tuple(
    level for level in OPT_LEVELS if level > BASELINE_LEVEL
)


@dataclass(frozen=True)
class LevelOutcome:
    """What forcing one method to one level cost, per the virtual clock."""

    level: int
    cycles: float
    compile_cycles: float
    fault: str | None = None
    #: True when the outcome was shadow-derived from the parent run rather
    #: than measured by executing a (partial) forced run.
    derived: bool = False

    @property
    def cost(self) -> float:
        """The quantity the label minimizes: execution + compile cycles."""
        return self.cycles + self.compile_cycles


@dataclass
class MethodLabel:
    """All per-level outcomes for one method, plus the induced label."""

    method: str
    outcomes: dict[int, LevelOutcome] = field(default_factory=dict)

    @property
    def ideal(self) -> int | None:
        """argmin-cost level (ties resolve to the lower level)."""
        best: LevelOutcome | None = None
        for level in sorted(self.outcomes):
            outcome = self.outcomes[level]
            if outcome.fault is not None:
                continue
            if best is None or outcome.cost < best.cost:
                best = outcome
        return None if best is None else best.level


@dataclass
class RunLabels:
    """The labeler's verdict for one program×input pair."""

    program: str
    args: tuple
    fault: str | None
    result: object | None
    output: tuple[str, ...]
    #: The all-baseline profile (feature source for training rows); None
    #: when the baseline run itself faulted.
    profile: RunProfile | None
    labels: dict[str, MethodLabel]


def _forced_interp(
    program: Program,
    config: VMConfig,
    rng_seed: int,
    jit: JITCompiler | None,
    engine: str,
    method: str | None = None,
    level: int | None = None,
) -> Interpreter:
    hook = None
    if method is not None:

        def hook(name: str, _m: str = method, _lv: int = level) -> int | None:
            return _lv if name == _m else None

    return Interpreter(
        program,
        config=config,
        rng_seed=rng_seed,
        jit=jit,
        first_invocation_hook=hook,
        engine=engine,
    )


def _outcome_from_profile(
    profile: RunProfile, method: str, level: int
) -> LevelOutcome:
    compile_cycles = 0.0
    for event in profile.compile_events:
        if event.method == method:
            compile_cycles += event.cycles
    return LevelOutcome(
        level=level,
        cycles=profile.method_cycles.get(method, 0.0),
        compile_cycles=compile_cycles,
    )


def _fault_outcome(level: int, fault: str) -> LevelOutcome:
    return LevelOutcome(
        level=level, cycles=float("inf"), compile_cycles=0.0, fault=fault
    )


# ---------------------------------------------------------------------------
# Naive labeler: one full re-execution per (method, level)
# ---------------------------------------------------------------------------


def label_naive(
    program: Program,
    args: tuple = (),
    *,
    config: VMConfig = FORGE_CONFIG,
    rng_seed: int = 0,
    levels: tuple[int, ...] = FORCED_LEVELS,
) -> RunLabels:
    """Label by re-running the whole program once per (method, level).

    ``3·M + 1`` full executions per input, each with a fresh
    :class:`JITCompiler`, on the reference loop (the independent-runs
    baseline the forked labeler is differentially checked against and
    benchmarked over).
    """
    base = _forced_interp(
        program, config, rng_seed, JITCompiler(program, config), "reference"
    )
    fault = None
    result = None
    try:
        base.run(args)
        result = base.result
    except VMError as exc:
        fault = type(exc).__name__
    if fault is not None:
        return RunLabels(
            program.name, tuple(args), fault, None, tuple(base.output), None, {}
        )
    labels: dict[str, MethodLabel] = {}
    for method in sorted(base.profile.invocations):
        outcomes = {
            BASELINE_LEVEL: _outcome_from_profile(
                base.profile, method, BASELINE_LEVEL
            )
        }
        for level in levels:
            child = _forced_interp(
                program, config, rng_seed, JITCompiler(program, config),
                "reference", method, level,
            )
            child_fault = None
            try:
                child.run(args)
            except VMError as exc:
                child_fault = type(exc).__name__
            outcomes[level] = (
                _fault_outcome(level, child_fault)
                if child_fault is not None
                else _outcome_from_profile(child.profile, method, level)
            )
        labels[method] = MethodLabel(method, outcomes)
    return RunLabels(
        program.name,
        tuple(args),
        None,
        result,
        tuple(base.output),
        base.profile,
        labels,
    )


# ---------------------------------------------------------------------------
# Forked labeler: one parent run + shadow accounts + suffix-only children
# ---------------------------------------------------------------------------


class _Snapshot:
    """Resumable VM state captured at one method's first invocation.

    Hand-rolled copying throughout: the VM's mutable state is a handful of
    flat dicts, float scalars, an RNG state tuple, and heap counters —
    generic ``copy.deepcopy`` spends more time traversing the Mersenne
    state than the labeler spends executing small children. Only frame
    locals/stacks need a real deepcopy (see :func:`_copy_frames`).
    """

    __slots__ = (
        "frames",
        "states",
        "profile",
        "sampler_counts",
        "sampler_next_tick",
        "rng_state",
        "output",
        "burned",
        "gc_cycles",
        "heap_policy",
        "heap_model",
        "heap_live",
        "heap_nursery",
        "heap_stats",
        "clock",
        "executed",
        "queue",
    )


def _copy_profile(profile: RunProfile) -> RunProfile:
    return RunProfile(
        samples=dict(profile.samples),
        method_cycles=dict(profile.method_cycles),
        method_work=dict(profile.method_work),
        final_levels=dict(profile.final_levels),
        compile_events=list(profile.compile_events),
        total_cycles=profile.total_cycles,
        compile_cycles=profile.compile_cycles,
        instructions_executed=profile.instructions_executed,
        invocations=dict(profile.invocations),
        gc_policy=profile.gc_policy,
        gc_count=profile.gc_count,
        gc_pause_cycles=profile.gc_pause_cycles,
        allocated_bytes=profile.allocated_bytes,
        allocation_count=profile.allocation_count,
        peak_live_bytes=profile.peak_live_bytes,
    )


def _copy_frames(frames: list[FastFrame]) -> list[FastFrame]:
    """Copies of *frames* whose locals and stacks are deep-copied through
    one shared memo: MiniLang arrays are Python lists, possibly aliased
    between activation records, and stay aliased in the copy. The
    decoded streams are immutable and shared."""
    memo: dict = {}
    copies = []
    for frame in frames:
        clone = FastFrame.__new__(FastFrame)
        clone.fops = frame.fops
        clone.fargs = frame.fargs
        clone.pops = frame.pops
        clone.pargs = frame.pargs
        clone.pc = frame.pc
        clone.locals = copy.deepcopy(frame.locals, memo)
        clone.stack = copy.deepcopy(frame.stack, memo)
        clone.name = frame.name
        clone.speed = frame.speed
        copies.append(clone)
    return copies


def _capture(interp: Interpreter) -> _Snapshot:
    snap = _Snapshot()
    snap.states = {
        name: (state.compiled, state.invocations)
        for name, state in interp._states.items()
    }
    snap.frames = _copy_frames(interp._frames)
    snap.profile = _copy_profile(interp.profile)
    sampler = interp.sampler
    snap.sampler_counts = dict(sampler.counts)
    snap.sampler_next_tick = sampler._next_tick
    ctx = interp.intrinsic_ctx
    snap.rng_state = ctx.rng.getstate()
    snap.output = list(ctx.output)
    snap.burned = ctx.burned
    snap.gc_cycles = ctx.gc_cycles
    heap = ctx.heap
    snap.heap_policy = heap.policy
    snap.heap_model = heap.model
    snap.heap_live = heap.live_bytes
    snap.heap_nursery = heap.nursery_bytes
    stats = heap.stats
    snap.heap_stats = (
        stats.allocated_bytes,
        stats.allocation_count,
        stats.peak_live_bytes,
        stats.gc_count,
        stats.gc_pause_cycles,
    )
    snap.clock = interp.clock
    snap.executed = interp._resume_executed
    snap.queue = tuple(interp._recompile_queue)
    return snap


def _spawn_child(
    program: Program,
    args: tuple,
    config: VMConfig,
    rng_seed: int,
    jit: JITCompiler,
    snap: _Snapshot,
    method: str,
    level: int,
    stop_target: int = 0,
    shadow_accounts: list[ShadowAccount] | None = None,
) -> tuple[Interpreter, str | None]:
    """Restore *snap* into a fresh interpreter forcing *method*→*level* and
    run it out (to completion, or — with *stop_target* > 0 — to the forced
    method's last outer exit, where its cycle account is final).

    *shadow_accounts* lets one child stand in for every level sharing the
    same compiled code: the accounts replay the child's per-instruction
    cost chain for *method* at the sibling levels' speed factors.
    """
    interp = _forced_interp(program, config, rng_seed, jit, "fast", method, level)
    if shadow_accounts:
        interp._shadow = {method: shadow_accounts}
    fault = None
    if not snap.frames:
        # Fork at the entry method: the snapshot is the pristine pre-run
        # state, so the child is simply a fresh forced run (warm jit memo).
        try:
            interp.run(args)
        except VMError as exc:
            fault = type(exc).__name__
        return interp, fault
    interp.clock = snap.clock
    interp._resume_executed = snap.executed
    interp.profile = _copy_profile(snap.profile)
    sampler = Sampler(config.sample_interval)
    sampler.counts = dict(snap.sampler_counts)
    sampler._next_tick = snap.sampler_next_tick
    interp.sampler = sampler
    heap = Heap(snap.heap_policy, snap.heap_model)
    heap.live_bytes = snap.heap_live
    heap.nursery_bytes = snap.heap_nursery
    allocated, count, peak, gc_count, gc_pause = snap.heap_stats
    heap.stats = HeapStats(
        allocated_bytes=allocated,
        allocation_count=count,
        peak_live_bytes=peak,
        gc_count=gc_count,
        gc_pause_cycles=gc_pause,
    )
    rng = Random(0)
    rng.setstate(snap.rng_state)
    interp.intrinsic_ctx = IntrinsicContext(
        rng=rng,
        output=list(snap.output),
        burned=snap.burned,
        gc_cycles=snap.gc_cycles,
        heap=heap,
    )
    states: dict[str, _MethodState] = {}
    for name, (compiled, invocations) in snap.states.items():
        state = _MethodState(name, compiled)
        state.invocations = invocations
        states[name] = state
    interp._states = states
    interp._frames = _copy_frames(snap.frames)
    interp._recompile_queue = list(snap.queue)
    if stop_target > 0:
        interp._stop_plan = (method, stop_target)
    try:
        interp.resume()
    except VMError as exc:
        fault = type(exc).__name__
    return interp, fault


def label_forked(
    program: Program,
    args: tuple = (),
    *,
    config: VMConfig = FORGE_CONFIG,
    rng_seed: int = 0,
    levels: tuple[int, ...] = FORCED_LEVELS,
    jit: JITCompiler | None = None,
    early_stop: bool = True,
    plan_cache: dict[str, tuple] | None = None,
) -> RunLabels:
    """Label every method from one parent run plus suffix-only children.

    Pass the same *jit* across several inputs of one program to amortize
    host-side codegen (virtual compile-cycle charges are unaffected), and
    the same *plan_cache* dict to reuse the per-method level partition
    (shadow levels vs. identical-code child groups) — the partition depends
    only on the compiled code, never on the input.
    With *early_stop* (the default) children halt at the forced method's
    last outer exit, where its accounts are final; the differential suite
    checks both modes against :func:`label_naive` (full-suffix children
    additionally reproduce the naive run's entire profile bit-for-bit).
    """
    if jit is None:
        jit = JITCompiler(program, config)
    snapshots: dict[str, _Snapshot] = {}
    shadow: dict[str, list[ShadowAccount]] = {}
    child_plan: dict[str, tuple[tuple[int, ...], ...]] = {}

    def _plan(name: str) -> tuple:
        # Partition this method's candidate levels by compiled code: levels
        # whose code matches the baseline are shadow-derived inside the
        # parent; the rest group by identical code, one child per group
        # (the group's first level executes, siblings are shadow-derived
        # inside that child).
        baseline = jit.compile(name, BASELINE_LEVEL)
        spec: list[tuple[int, float]] = []
        groups: list[list[int]] = []
        by_code: dict = {}
        for level in levels:
            compiled = jit.compile(name, level)
            if (
                compiled.code == baseline.code
                and compiled.num_locals == baseline.num_locals
            ):
                spec.append((level, compiled.speed_factor))
            else:
                key = (compiled.code, compiled.num_locals)
                group = by_code.get(key)
                if group is None:
                    by_code[key] = group = [level]
                    groups.append(group)
                else:
                    group.append(level)
        return tuple(spec), tuple(tuple(group) for group in groups)

    def fork_hook(name: str, interp: Interpreter) -> None:
        plan = None if plan_cache is None else plan_cache.get(name)
        if plan is None:
            plan = _plan(name)
            if plan_cache is not None:
                plan_cache[name] = plan
        spec, groups = plan
        if spec:
            # Accounts accumulate per run, so they are always fresh; only
            # the (level, speed) partition is reused across inputs.
            shadow[name] = [ShadowAccount(lv, sp) for lv, sp in spec]
        child_plan[name] = groups
        if groups:
            # Only levels whose code actually changes need a resumable
            # state; shadow-covered levels never execute a child.
            snapshots[name] = _capture(interp)

    parent = _forced_interp(program, config, rng_seed, jit, "fast")
    parent._fork_hook = fork_hook
    parent._shadow = shadow
    outer_entries: dict[str, int] = {}
    parent._outer_entries = outer_entries
    fault = None
    result = None
    try:
        parent.run(args)
        result = parent.result
    except VMError as exc:
        fault = type(exc).__name__
    if fault is not None:
        return RunLabels(
            program.name, tuple(args), fault, None, tuple(parent.output), None, {}
        )
    labels: dict[str, MethodLabel] = {}
    for method in sorted(parent.profile.invocations):
        outcomes = {
            BASELINE_LEVEL: _outcome_from_profile(
                parent.profile, method, BASELINE_LEVEL
            )
        }
        base_compile = 0.0
        for event in parent.profile.compile_events:
            if event.method == method:
                base_compile += event.cycles
        for account in shadow.get(method, ()):
            # Same event order as a forced run: baseline compile, then the
            # forced tier's compile.
            compile_cycles = base_compile + jit.compile(
                method, account.level
            ).compile_cycles
            outcomes[account.level] = LevelOutcome(
                level=account.level,
                cycles=account.cycles,
                compile_cycles=compile_cycles,
                derived=True,
            )
        stop_target = outer_entries.get(method, 0) if early_stop else 0
        for group in child_plan.get(method, ()):
            lead = group[0]
            siblings = [
                ShadowAccount(lv, jit.compile(method, lv).speed_factor)
                for lv in group[1:]
            ]
            child, child_fault = _spawn_child(
                program, args, config, rng_seed, jit, snapshots[method],
                method, lead, stop_target=stop_target,
                shadow_accounts=siblings,
            )
            if child_fault is not None:
                # Identical code ⇒ identical execution ⇒ the whole group
                # faults exactly as its lead does.
                for lv in group:
                    outcomes[lv] = _fault_outcome(lv, child_fault)
                continue
            outcomes[lead] = _outcome_from_profile(child.profile, method, lead)
            for account in siblings:
                outcomes[account.level] = LevelOutcome(
                    level=account.level,
                    cycles=account.cycles,
                    compile_cycles=base_compile
                    + jit.compile(method, account.level).compile_cycles,
                    derived=True,
                )
        labels[method] = MethodLabel(method, outcomes)
    return RunLabels(
        program.name,
        tuple(args),
        None,
        result,
        tuple(parent.output),
        parent.profile,
        labels,
    )


# ---------------------------------------------------------------------------
# Differential comparison
# ---------------------------------------------------------------------------


def _profile_fingerprint(profile: RunProfile | None) -> tuple | None:
    if profile is None:
        return None
    return (
        sorted(profile.samples.items()),
        sorted(profile.method_cycles.items()),
        sorted(profile.method_work.items()),
        sorted(profile.final_levels.items()),
        tuple(profile.compile_events),
        profile.total_cycles,
        profile.compile_cycles,
        profile.instructions_executed,
        sorted(profile.invocations.items()),
        profile.gc_policy,
        profile.gc_count,
        profile.gc_pause_cycles,
        profile.allocated_bytes,
        profile.allocation_count,
        profile.peak_live_bytes,
    )


def labels_equal(a: RunLabels, b: RunLabels) -> bool:
    """Bitwise equivalence of two labelings (the differential gate).

    Compares faults, results, output, the full baseline profile, and every
    per-method per-level outcome's (cycles, compile cycles, fault, ideal) —
    exact float equality throughout. ``derived`` provenance is ignored:
    it records *how* an outcome was obtained, not what it is.
    """
    if (
        a.program != b.program
        or a.args != b.args
        or a.fault != b.fault
        or a.result != b.result
        or a.output != b.output
    ):
        return False
    if _profile_fingerprint(a.profile) != _profile_fingerprint(b.profile):
        return False
    if set(a.labels) != set(b.labels):
        return False
    for method, la in a.labels.items():
        lb = b.labels[method]
        if la.ideal != lb.ideal or set(la.outcomes) != set(lb.outcomes):
            return False
        for level, oa in la.outcomes.items():
            ob = lb.outcomes[level]
            if (
                oa.cycles != ob.cycles
                or oa.compile_cycles != ob.compile_cycles
                or oa.fault != ob.fault
            ):
                return False
    return True
