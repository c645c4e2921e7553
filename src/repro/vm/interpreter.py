"""The execution engine: a tiered, sampling, virtual-clock interpreter.

The interpreter executes bytecode under a deterministic virtual clock.
Every method is baseline-compiled (level −1) on first invocation — exactly
Jikes RVM's compile-only, no-interpreter design, where the "baseline tier"
is a fast, non-optimizing translation. Attached controllers observe timer
samples and may request recompilations at higher tiers; recompilation
replaces the method's code for future invocations and (modeling on-stack
replacement) upgrades the speed factor of currently active frames.

The engine never makes optimization *decisions* itself; those live in
:mod:`repro.aos` and :mod:`repro.core`. It only provides mechanism:
execution, the clock, sampling, and a recompilation queue.
"""

from __future__ import annotations

from random import Random
from typing import Callable

from .closures import _Deopt, resolve_compiled, run_compiled
from .config import BASELINE_LEVEL, DEFAULT_CONFIG, VMConfig
from .fastpath import FastFrame, run_fast
from .errors import (
    ExecutionError,
    FuelExhaustedError,
    StackOverflowError,
    UnknownMethodError,
)
from .instructions import BASE_COST, Op
from .heap import DEFAULT_GC_POLICY, GCCostModel, Heap
from .intrinsics import IntrinsicContext, lookup as lookup_intrinsic
from .opt.jit import CompiledCode, JITCompiler
from .profiles import CompileEvent, RunProfile
from .program import Program
from .sampler import Sampler


class _MethodState:
    """Mutable per-method runtime state: current code and tier."""

    __slots__ = ("name", "compiled", "invocations")

    def __init__(self, name: str, compiled: CompiledCode):
        self.name = name
        self.compiled = compiled
        self.invocations = 0

    @property
    def level(self) -> int:
        return self.compiled.level


class _Frame:
    """One activation record."""

    __slots__ = ("code", "pc", "locals", "stack", "name", "speed")

    def __init__(self, compiled: CompiledCode, args: list):
        self.code = compiled.code
        self.pc = 0
        self.locals = args + [0] * (compiled.num_locals - len(args))
        self.stack: list = []
        self.name = compiled.method_name
        self.speed = compiled.speed_factor


#: Optional hook invoked on a method's very first invocation; may return a
#: level (> −1) to recompile the method at immediately — the mechanism the
#: evolvable VM uses to apply a predicted strategy proactively.
FirstInvocationHook = Callable[[str], int | None]

#: Forge-internal hook fired when a method is about to be baseline-compiled
#: for the first time, *before* any compile cycles are charged. The forked-run
#: labeler uses it to capture a resumable state snapshot at the exact point
#: where a per-method recompilation decision would take effect. Reference
#: engine only.
ForkHook = Callable[[str, "Interpreter"], None]


class ForkStop(Exception):
    """Internal control flow: a forked child reached its stop point.

    Raised by the reference loop when a ``_stop_plan`` target is met (the
    forced method's last outer exit — its cycle account is final there).
    Deliberately *not* a :class:`VMError`: the forge must never mistake an
    early stop for a program fault.
    """


class ShadowAccount:
    """One speculative cycle account: "method *m* as if compiled at level *L*".

    Maintained by the reference loop alongside the real accounting. When a
    tier's optimization pipeline leaves a method's code unchanged (level 0
    always; higher tiers occasionally), the only difference between the real
    run and a run with *m* forced to *L* is the speed factor applied to each
    of *m*'s instructions — so the forced run's ``method_cycles[m]`` can be
    reproduced bit-for-bit by replaying the same per-instruction cost
    expressions at the shadow speed, without executing a second run.
    """

    __slots__ = ("level", "speed", "cycles")

    def __init__(self, level: int, speed: float):
        self.level = level
        self.speed = speed
        self.cycles = 0.0


class Interpreter:
    """Executes one program run under the virtual clock.

    One instance represents one *run*; create a fresh instance per run (the
    JIT cache may be shared across runs via the ``jit`` parameter, mirroring
    a warm code cache, but all clocks and profiles are per-instance).
    """

    def __init__(
        self,
        program: Program,
        config: VMConfig = DEFAULT_CONFIG,
        rng_seed: int = 0,
        jit: JITCompiler | None = None,
        first_invocation_hook: FirstInvocationHook | None = None,
        gc_policy: str = DEFAULT_GC_POLICY,
        gc_model: GCCostModel = GCCostModel(),
        engine: str = "auto",
    ):
        if engine not in ("auto", "compiled", "fast", "reference"):
            raise ValueError(
                "engine must be 'auto', 'compiled', 'fast', or 'reference', "
                f"got {engine!r}"
            )
        self.program = program
        self.engine = engine
        self.config = config
        self.jit = jit if jit is not None else JITCompiler(program, config)
        self.sampler = Sampler(config.sample_interval)
        self.intrinsic_ctx = IntrinsicContext(
            rng=Random(rng_seed), heap=Heap(gc_policy, gc_model)
        )
        self.clock = 0.0
        self.profile = RunProfile()
        self._states: dict[str, _MethodState] = {}
        self._frames: list[_Frame] = []
        self._recompile_queue: list[tuple[str, int]] = []
        self._first_invocation_hook = first_invocation_hook
        self._finished = False
        # Instructions executed before the reference loop takes over a run
        # midway: a forge child resumed from a fork snapshot, or a compiled
        # run that deoptimized.
        self._resume_executed = 0
        # Forge plumbing (repro.learning.forge): all default-off, and dormant
        # unless the forked-run labeler arms them on a reference-engine run.
        self._fork_hook: ForkHook | None = None
        self._shadow: dict[str, list[ShadowAccount]] | None = None
        self._shadow_gc = 0.0
        self._shadow_wpre = 0.0
        # Parent-side: per-method *outer* entry counts (entries with no
        # frame of the same method already live) — the invariant a forked
        # child's stop plan is phrased in, because inlining and tail-call
        # elimination change inner entry counts but never outer ones.
        self._outer_entries: dict[str, int] | None = None
        self._live_counts: dict[str, int] = {}
        # Child-side: (method, outer_exits_remaining) — raise ForkStop once
        # the method's last outer exit has been accounted.
        self._stop_plan: tuple[str, int] | None = None

    # -- public control surface (used by AOS controllers) -----------------
    def request_recompile(self, method_name: str, level: int) -> None:
        """Queue *method_name* for recompilation at *level*.

        Processed at the next safe point; upgrades only (a request at or
        below the method's current level is dropped at application time).
        """
        self._recompile_queue.append((method_name, level))

    def current_level(self, method_name: str) -> int:
        state = self._states.get(method_name)
        return state.level if state is not None else BASELINE_LEVEL - 1

    @property
    def output(self) -> list[str]:
        return self.intrinsic_ctx.output

    # -- internals ---------------------------------------------------------
    def _charge_compile(self, compiled: CompiledCode) -> None:
        self.clock += compiled.compile_cycles
        self.profile.compile_cycles += compiled.compile_cycles
        self.profile.compile_events.append(
            CompileEvent(
                method=compiled.method_name,
                level=compiled.level,
                cycles=compiled.compile_cycles,
                at_clock=self.clock,
            )
        )
        # Compilation runs on the compiler thread: no app samples meanwhile.
        self.sampler.skip_to(self.clock)

    def _ensure_state(self, name: str) -> _MethodState:
        state = self._states.get(name)
        if state is None:
            if name not in self.program:
                raise UnknownMethodError(f"call to unknown method {name!r}")
            if self._fork_hook is not None:
                # Snapshot point: nothing about this method (not even its
                # baseline compile) has been charged yet.
                self._fork_hook(name, self)
            compiled = self.jit.compile(name, BASELINE_LEVEL)
            self._charge_compile(compiled)
            state = _MethodState(name, compiled)
            self._states[name] = state
            if self._first_invocation_hook is not None:
                level = self._first_invocation_hook(name)
                if level is not None and level > BASELINE_LEVEL:
                    self.request_recompile(name, level)
        return state

    def _apply_recompiles(self) -> None:
        # Collapse the queue to the max requested level per method first:
        # controllers may enqueue several (method, level) requests between
        # two safe points (or the same request repeatedly), and compiling
        # the intermediate tiers would charge compile cycles for artifacts
        # that are replaced before ever executing.
        queue = self._recompile_queue
        if not queue:
            return
        best: dict[str, int] = {}
        for name, level in queue:
            if level > best.get(name, BASELINE_LEVEL - 1):
                best[name] = level
        queue.clear()
        for name, level in best.items():
            state = self._states.get(name)
            if state is None or level <= state.level:
                continue
            compiled = self.jit.compile(name, level)
            self._charge_compile(compiled)
            state.compiled = compiled
            # OSR-lite: active frames keep their code shape but execute at
            # the new tier's speed.
            for frame in self._frames:
                if frame.name == name:
                    frame.speed = compiled.speed_factor

    def run(self, args: tuple = (), entry: str | None = None) -> RunProfile:
        """Execute the program to completion and return its profile."""
        if self._finished:
            raise ExecutionError("Interpreter instances are single-use")
        entry_name = entry if entry is not None else self.program.entry
        state = self._ensure_state(entry_name)
        expected = self.program.method(entry_name).num_params
        if len(args) != expected:
            raise ExecutionError(
                f"entry {entry_name!r} expects {expected} args, got {len(args)}"
            )
        self._apply_recompiles()
        state.invocations += 1
        if self._outer_entries is not None:
            self._live_counts[entry_name] = 1
            self._outer_entries[entry_name] = 1
        # Engine ladder: "auto" and "compiled" start on the compiled tier,
        # listeners or not, and route a run to the fast engine only when
        # its entry has no closure or its depth limit is beyond the tier;
        # a compiled run that cannot go on deoptimizes onto the reference
        # loop mid-run. "fast"/"reference" pin their loops ("reference" is
        # the oracle for the differential harness and the benchmark
        # suite). All tiers are bit-identical in virtual-cycle semantics —
        # see repro.vm.fastpath and repro.vm.closures.
        entry_fn = None
        if self.engine in ("auto", "compiled"):
            entry_fn = resolve_compiled(self, entry_name)
        try:
            if entry_fn is not None:
                try:
                    result = run_compiled(self, state, tuple(args))
                except _Deopt as deopt:
                    self._restore_deopt(deopt)
                    result = self._loop()
            else:
                use_fast = self.engine != "reference"
                frame_cls = FastFrame if use_fast else _Frame
                self._frames.append(frame_cls(state.compiled, list(args)))
                result = run_fast(self) if use_fast else self._loop()
        except ExecutionError:
            raise
        except (TypeError, ValueError, IndexError, ZeroDivisionError, KeyError) as exc:
            frame = self._frames[-1] if self._frames else None
            raise ExecutionError(
                f"runtime fault: {exc}",
                method=frame.name if frame else None,
                pc=frame.pc - 1 if frame else None,
            ) from exc
        self._finished = True
        self._finalize(result)
        return self.profile

    def resume(self) -> RunProfile:
        """Continue a run whose state was restored from a fork snapshot.

        Forge-internal (see :mod:`repro.learning.forge.labeler`): the caller
        has rebuilt ``clock``/``profile``/``sampler``/``intrinsic_ctx``/
        frames/method states from a snapshot captured by the fork hook, with
        the top frame's ``pc`` rewound onto the CALL instruction that
        triggered the snapshot and ``_resume_executed`` holding the
        instruction count up to (excluding) that CALL. Reference engine only.
        """
        if self._finished:
            raise ExecutionError("Interpreter instances are single-use")
        if self.engine != "reference":
            raise ExecutionError("resume() requires engine='reference'")
        if not self._frames:
            raise ExecutionError("resume() needs a restored frame stack")
        try:
            result = self._loop()
        except ForkStop:
            # Early stop: the forced method's accounting is complete. The
            # profile is partial past that method (by design: forge labels
            # read only the forced method's accounts).
            self._finished = True
            self._finalize(None)
            return self.profile
        except ExecutionError:
            raise
        except (TypeError, ValueError, IndexError, ZeroDivisionError, KeyError) as exc:
            frame = self._frames[-1] if self._frames else None
            raise ExecutionError(
                f"runtime fault: {exc}",
                method=frame.name if frame else None,
                pc=frame.pc - 1 if frame else None,
            ) from exc
        self._finished = True
        self._finalize(result)
        return self.profile

    def _restore_deopt(self, deopt: _Deopt) -> None:
        """Rebuild a deoptimized compiled run's frames for the reference
        loop, outermost first, each at its method's current speed (a
        recompile applied mid-activation upgrades every live frame)."""
        for name, code, pc, locals_, stack in reversed(deopt.frames):
            frame = _Frame.__new__(_Frame)
            frame.name = name
            frame.code = code
            frame.pc = pc
            frame.locals = locals_
            frame.stack = stack
            frame.speed = self._states[name].compiled.speed_factor
            self._frames.append(frame)
        self.clock = deopt.clock
        self._resume_executed = deopt.executed

    def _finalize(self, result) -> None:
        prof = self.profile
        prof.total_cycles = self.clock
        prof.samples = dict(self.sampler.counts)
        prof.final_levels = {
            name: st.level for name, st in self._states.items()
        }
        prof.invocations = {
            name: st.invocations for name, st in self._states.items()
        }
        heap = self.intrinsic_ctx.heap
        prof.gc_policy = heap.policy
        prof.gc_count = heap.stats.gc_count
        prof.gc_pause_cycles = heap.stats.gc_pause_cycles
        prof.allocated_bytes = heap.stats.allocated_bytes
        prof.allocation_count = heap.stats.allocation_count
        prof.peak_live_bytes = heap.stats.peak_live_bytes
        self.result = result

    def _loop(self):
        """The dispatch loop. Localizes hot state for speed."""
        config = self.config
        base_cost = BASE_COST
        sampler = self.sampler
        interval_tick = sampler.next_tick
        method_cycles = self.profile.method_cycles
        method_work = self.profile.method_work
        intrinsic_ctx = self.intrinsic_ctx
        frames = self._frames
        max_depth = config.max_call_depth
        fuel = config.max_instructions
        clock = self.clock
        # Both default to the dormant value (0 / None / False) outside forge
        # runs; `executed` starts mid-count when resuming a fork snapshot.
        executed = self._resume_executed
        shadow = self._shadow
        fork_armed = self._fork_hook is not None
        outer_track = self._outer_entries
        live_counts = self._live_counts
        if self._stop_plan is not None:
            stop_method, stop_remaining = self._stop_plan
        else:
            stop_method, stop_remaining = None, 0
        stop_live = 0

        frame = frames[-1]
        code = frame.code
        pc = frame.pc
        stack = frame.stack
        locals_ = frame.locals
        speed = frame.speed
        name = frame.name
        mcycles = method_cycles.get(name, 0.0)
        mwork = method_work.get(name, 0.0)
        # Hoisted per-frame: shadow accounts change only at frame switches,
        # exactly like the mcycles/mwork locals.
        cur_accounts = None if shadow is None else shadow.get(name)

        while True:
            ins = code[pc]
            op = ins.op
            pc += 1
            work = base_cost[op]
            executed += 1

            if op == Op.LOAD:
                stack.append(locals_[ins.arg])
            elif op == Op.CONST:
                stack.append(ins.arg)
            elif op == Op.STORE:
                locals_[ins.arg] = stack.pop()
            elif op == Op.ADD:
                b = stack.pop()
                stack[-1] = stack[-1] + b
            elif op == Op.SUB:
                b = stack.pop()
                stack[-1] = stack[-1] - b
            elif op == Op.MUL:
                b = stack.pop()
                stack[-1] = stack[-1] * b
            elif op == Op.LT:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] < b else 0
            elif op == Op.LE:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] <= b else 0
            elif op == Op.GT:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] > b else 0
            elif op == Op.GE:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] >= b else 0
            elif op == Op.EQ:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] == b else 0
            elif op == Op.NE:
                b = stack.pop()
                stack[-1] = 1 if stack[-1] != b else 0
            elif op == Op.JMP:
                pc = ins.arg
            elif op == Op.JZ:
                if not stack.pop():
                    pc = ins.arg
            elif op == Op.JNZ:
                if stack.pop():
                    pc = ins.arg
            elif op == Op.DIV:
                b = stack.pop()
                a = stack[-1]
                if b == 0:
                    raise ExecutionError("division by zero", method=name, pc=pc - 1)
                stack[-1] = a // b if isinstance(a, int) and isinstance(b, int) else a / b
            elif op == Op.MOD:
                b = stack.pop()
                if b == 0:
                    raise ExecutionError("modulo by zero", method=name, pc=pc - 1)
                stack[-1] = stack[-1] % b
            elif op == Op.NEG:
                stack[-1] = -stack[-1]
            elif op == Op.NOT:
                stack[-1] = 1 if stack[-1] == 0 else 0
            elif op == Op.DUP:
                stack.append(stack[-1])
            elif op == Op.POP:
                stack.pop()
            elif op == Op.SWAP:
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif op == Op.CALL:
                callee_name, argc = ins.arg
                if len(frames) >= max_depth:
                    raise StackOverflowError(
                        f"call depth exceeded {max_depth}", method=name, pc=pc - 1
                    )
                # Save caller state, switch to callee.
                self.clock = clock
                if fork_armed and callee_name not in self._states:
                    # Make the instantaneous state resumable before the fork
                    # hook (inside _ensure_state) snapshots it: rewind pc
                    # onto this CALL so a restored run re-executes it, and
                    # flush the loop-local accounts the snapshot must see.
                    frame.pc = pc - 1
                    method_cycles[name] = mcycles
                    method_work[name] = mwork
                    self._resume_executed = executed - 1
                callee_state = self._ensure_state(callee_name)
                if outer_track is not None:
                    live = live_counts.get(callee_name, 0)
                    live_counts[callee_name] = live + 1
                    if live == 0:
                        outer_track[callee_name] = (
                            outer_track.get(callee_name, 0) + 1
                        )
                elif stop_method is not None and callee_name == stop_method:
                    stop_live += 1
                if self._recompile_queue:
                    self._apply_recompiles()
                clock = self.clock
                interval_tick = sampler.next_tick
                callee_state.invocations += 1
                callee_args = stack[len(stack) - argc :] if argc else []
                del stack[len(stack) - argc :]
                frame.pc = pc
                method_cycles[name] = mcycles
                method_work[name] = mwork
                new_frame = _Frame(callee_state.compiled, callee_args)
                frames.append(new_frame)
                frame = new_frame
                code = frame.code
                pc = 0
                stack = frame.stack
                locals_ = frame.locals
                speed = frame.speed
                name = frame.name
                mcycles = method_cycles.get(name, 0.0)
                mwork = method_work.get(name, 0.0)
                cur_accounts = None if shadow is None else shadow.get(name)
            elif op == Op.RET:
                result = stack.pop()
                cost = work * speed
                method_cycles[name] = mcycles + cost
                method_work[name] = mwork + work
                if cur_accounts is not None:
                    for acc in cur_accounts:
                        acc.cycles += work * acc.speed
                clock += cost
                frames.pop()
                if outer_track is not None:
                    live_counts[name] -= 1
                elif stop_method is not None and name == stop_method:
                    stop_live -= 1
                    if stop_live == 0:
                        stop_remaining -= 1
                        if stop_remaining == 0:
                            # The forced method's account is final (its
                            # cycles were flushed just above); nothing the
                            # rest of the run does can change its label.
                            self.clock = clock
                            self.profile.instructions_executed = executed
                            raise ForkStop
                if not frames:
                    self.clock = clock
                    self.profile.instructions_executed = executed
                    if clock >= interval_tick:
                        sampler.advance(clock, name)
                    return result
                frame = frames[-1]
                code = frame.code
                pc = frame.pc
                stack = frame.stack
                stack.append(result)
                locals_ = frame.locals
                speed = frame.speed
                name = frame.name
                mcycles = method_cycles.get(name, 0.0)
                mwork = method_work.get(name, 0.0)
                cur_accounts = None if shadow is None else shadow.get(name)
                if clock >= interval_tick:
                    sampler.advance(clock, name)
                    interval_tick = sampler.next_tick
                    if self._recompile_queue:
                        self.clock = clock
                        self._apply_recompiles()
                        clock = self.clock
                        interval_tick = sampler.next_tick
                        # Current frame may have been speed-upgraded.
                        speed = frame.speed
                continue
            elif op == Op.NEWARR:
                n = stack.pop()
                if not isinstance(n, int) or n < 0:
                    raise ExecutionError(
                        f"NEWARR size must be a non-negative int, got {n!r}",
                        method=name,
                        pc=pc - 1,
                    )
                stack.append([0] * n)
            elif op == Op.ALOAD:
                idx = stack.pop()
                arr = stack[-1]
                stack[-1] = arr[idx]
            elif op == Op.ASTORE:
                value = stack.pop()
                idx = stack.pop()
                arr = stack.pop()
                arr[idx] = value
            elif op == Op.ALEN:
                stack[-1] = len(stack[-1])
            elif op == Op.INTRIN:
                intr_name, argc = ins.arg
                fn = lookup_intrinsic(intr_name)
                call_args = tuple(stack[len(stack) - argc :]) if argc else ()
                if argc:
                    del stack[len(stack) - argc :]
                stack.append(fn(intrinsic_ctx, call_args))
                if intrinsic_ctx.burned:
                    work += intrinsic_ctx.burned
                    intrinsic_ctx.burned = 0.0
                if intrinsic_ctx.gc_cycles:
                    # GC work is charged unscaled: fold it into `work`
                    # pre-divided so the bottom-of-loop scaling cancels.
                    if shadow is not None:
                        # Shadow accounts must replay the same pre-divided
                        # expression at their own speed, so capture the GC
                        # amount and the work value it was folded into.
                        self._shadow_gc = intrinsic_ctx.gc_cycles
                        self._shadow_wpre = work
                    work += intrinsic_ctx.gc_cycles / speed
                    intrinsic_ctx.gc_cycles = 0.0
            elif op == Op.NOP:
                pass
            else:  # pragma: no cover - verifier rejects unknown opcodes
                raise ExecutionError(f"bad opcode {op!r}", method=name, pc=pc - 1)

            cost = work * speed
            clock += cost
            mcycles += cost
            mwork += work
            if shadow is not None:
                if cur_accounts is not None:
                    gc_part = self._shadow_gc
                    if gc_part:
                        self._shadow_gc = 0.0
                        wpre = self._shadow_wpre
                        for acc in cur_accounts:
                            acc_speed = acc.speed
                            acc.cycles += (wpre + gc_part / acc_speed) * acc_speed
                    else:
                        for acc in cur_accounts:
                            acc.cycles += work * acc.speed
                elif self._shadow_gc:
                    self._shadow_gc = 0.0
            if clock >= interval_tick:
                method_cycles[name] = mcycles
                method_work[name] = mwork
                sampler.advance(clock, name)
                interval_tick = sampler.next_tick
                if self._recompile_queue:
                    frame.pc = pc
                    self.clock = clock
                    self._apply_recompiles()
                    clock = self.clock
                    interval_tick = sampler.next_tick
                    speed = frame.speed
                mcycles = method_cycles.get(name, 0.0)
                mwork = method_work.get(name, 0.0)
            if executed >= fuel:
                raise FuelExhaustedError(
                    f"instruction budget {fuel} exhausted", method=name, pc=pc - 1
                )


def run_program(
    program: Program,
    args: tuple = (),
    config: VMConfig = DEFAULT_CONFIG,
    rng_seed: int = 0,
    engine: str = "auto",
) -> tuple[object, RunProfile]:
    """Convenience: run *program* once with no adaptive controller.

    Returns ``(result, profile)``. All methods stay at the baseline level;
    use :mod:`repro.aos` or :mod:`repro.core` drivers for adaptive runs.
    """
    interp = Interpreter(program, config=config, rng_seed=rng_seed, engine=engine)
    profile = interp.run(args)
    return interp.result, profile
