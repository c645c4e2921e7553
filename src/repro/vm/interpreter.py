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
from . import fastpath
from .fastpath import FastFrame, ForkHook, ForkStop, ShadowAccount, run_fast
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

#: Host exceptions a faulting program raises inside a loop; run() and
#: resume() report them as :class:`ExecutionError` runtime faults.
_HOST_FAULTS = (TypeError, ValueError, IndexError, ZeroDivisionError, KeyError)


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
        engine: str = "compiled",
    ):
        if engine not in ("compiled", "fast", "reference"):
            raise ValueError(
                "engine must be 'compiled', 'fast', or 'reference', "
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
        # Instructions executed before the fast engine takes over a run
        # midway: a forge child resumed from a fork snapshot, or a
        # compiled run that deoptimized.
        self._resume_executed = 0
        # Forge plumbing (repro.learning.forge), read only by the fast
        # engine (repro.vm.fastpath.run_fast): all default-off, and dormant
        # unless the forked-run labeler arms it on an engine="fast" run.
        self._fork_hook: ForkHook | None = None
        self._shadow: dict[str, list[ShadowAccount]] | None = None
        # Parent-side: filled with per-method outer entry counts.
        self._outer_entries: dict[str, int] | None = None
        # Child-side: (method, outer_exits_remaining).
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
        # Engine ladder: "compiled" starts on the compiled tier, listeners
        # or not. The fast engine is its one fallback: it takes a run whose
        # entry has no closure or whose depth limit is beyond the tier, and
        # it finishes a compiled run that deoptimizes mid-run. "fast" and
        # "reference" pin their loops ("reference" is the executable
        # specification: the differential oracle and the forge's naive
        # labeler run it). All tiers are bit-identical in virtual-cycle
        # semantics — see repro.vm.fastpath and repro.vm.closures.
        entry_fn = None
        if self.engine == "compiled":
            entry_fn = resolve_compiled(self, entry_name)
        try:
            if entry_fn is not None:
                try:
                    result = run_compiled(self, state, tuple(args))
                except _Deopt as deopt:
                    self._restore_deopt(deopt)
                    result = run_fast(self)
            elif self.engine == "reference":
                self._frames.append(_Frame(state.compiled, list(args)))
                result = self._loop()
            else:
                self._frames.append(FastFrame(state.compiled, list(args)))
                result = run_fast(self)
        except _HOST_FAULTS as exc:
            raise self._runtime_fault(exc) from exc
        self._finished = True
        self._finalize(result)
        return self.profile

    def resume(self) -> RunProfile:
        """Continue a run whose state was restored from a fork snapshot.

        Forge-internal (see :mod:`repro.learning.forge.labeler`): the caller
        has rebuilt ``clock``/``profile``/``sampler``/``intrinsic_ctx``/
        :class:`~repro.vm.fastpath.FastFrame` frames/method states from a
        snapshot captured by the fork hook, with the top frame's ``pc``
        rewound onto the CALL instruction that triggered the snapshot and
        ``_resume_executed`` holding the instruction count up to (excluding)
        that CALL. Fast engine only: the forge's plumbing lives there.
        """
        if self._finished:
            raise ExecutionError("Interpreter instances are single-use")
        if self.engine != "fast":
            raise ExecutionError("resume() requires engine='fast'")
        if not self._frames:
            raise ExecutionError("resume() needs a restored frame stack")
        try:
            # Through its module, not the run_fast name run() calls: a
            # tracer that counts runs by wrapping this module's run_fast
            # must not count a resume, which continues a run.
            result = fastpath.run_fast(self)
        except ForkStop:
            # Early stop: the forced method's accounting is complete. The
            # profile is partial past that method (by design: forge labels
            # read only the forced method's accounts).
            result = None
        except _HOST_FAULTS as exc:
            raise self._runtime_fault(exc) from exc
        self._finished = True
        self._finalize(result)
        return self.profile

    def _runtime_fault(self, exc: Exception) -> ExecutionError:
        """The VM fault a host exception raised mid-run stands for."""
        frame = self._frames[-1] if self._frames else None
        return ExecutionError(
            f"runtime fault: {exc}",
            method=frame.name if frame else None,
            pc=frame.pc - 1 if frame else None,
        )

    def _restore_deopt(self, deopt: _Deopt) -> None:
        """Rebuild a deoptimized compiled run's frames for the fast engine,
        outermost first. Each frame runs the code it entered with, decoded
        here (a deoptimized frame carries its instruction tuple, not the
        artifact that memoizes the decode), at its method's current speed
        (a recompile applied mid-activation upgrades every live frame)."""
        for name, code, pc, locals_, stack in reversed(deopt.frames):
            frame = FastFrame.__new__(FastFrame)
            frame.fops, frame.fargs, frame.pops, frame.pargs = (
                fastpath.decode(code)
            )
            frame.name = name
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
        # A listener (an AOS controller) holds this interpreter; kept, it
        # would leave every finished run a reference cycle, holding the
        # run's heap, JIT and artifact layer until the cyclic collector
        # next runs.
        self.sampler.clear_listeners()

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
        executed = self._resume_executed

        frame = frames[-1]
        code = frame.code
        pc = frame.pc
        stack = frame.stack
        locals_ = frame.locals
        speed = frame.speed
        name = frame.name
        mcycles = method_cycles.get(name, 0.0)
        mwork = method_work.get(name, 0.0)

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
                callee_state = self._ensure_state(callee_name)
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
            elif op == Op.RET:
                result = stack.pop()
                cost = work * speed
                method_cycles[name] = mcycles + cost
                method_work[name] = mwork + work
                clock += cost
                frames.pop()
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
    engine: str = "compiled",
) -> tuple[object, RunProfile]:
    """Convenience: run *program* once with no adaptive controller.

    Returns ``(result, profile)``. All methods stay at the baseline level;
    use :mod:`repro.aos` or :mod:`repro.core` drivers for adaptive runs.
    """
    interp = Interpreter(program, config=config, rng_seed=rng_seed, engine=engine)
    profile = interp.run(args)
    return interp.result, profile
