"""Closure-compiled execution tier: runtime, routing, and deoptimization.

The third (fastest) execution engine. :mod:`repro.vm.closure_emit`
generates one Python function per :class:`~repro.vm.opt.jit.CompiledCode`
artifact; this module ``exec``-compiles that source, memoizes the
resulting closure on the artifact, dispatches cross-method calls, and
hands a run to the reference loop when a closure cannot go on.

Architecture of one compiled run:

- :func:`resolve_compiled` is the run-level capability check. It looks
  only at what the run starts with: a call-depth limit beyond what the
  host's recursion stack can mirror, or an entry artifact the emitter
  cannot structure, routes the run to the fast engine. Sample listeners
  are welcome: the closures account per basic block, and a block that
  reaches the next tick replays its accounting one instruction at a time
  (:func:`_replay`), so every sample, recompile drain and GC fold lands
  at the same instruction and speed as in the reference loop.
- :func:`run_compiled` drives the entry closure. Closures call each
  other through :func:`_invoke`, which reproduces the reference CALL
  protocol exactly: depth check, lazy method materialization (charging
  compile cycles), recompile-queue drain, invocation count, CALL cost at
  the callee's speed, and the tick under the callee's name with its
  recompile drain.
- When a closure cannot go on exactly — the fuel budget is near (checked
  at function entry, back-edges and call returns), or a callee has no
  closure — it raises the internal :class:`_Deopt`. The exception
  carries the raising frame's pc, locals and stack temps, each call site
  it crosses adds its caller's frame, and :meth:`Interpreter.run
  <repro.vm.interpreter.Interpreter.run>` continues the run from that
  exact state on the reference loop, with the same listeners attached.
  Deoptimization changes wall-clock only, never observable results.

Exactness contract (enforced by ``tests/test_engine_equivalence.py``,
``tests/test_properties_compiled.py``, and ``repro fuzz``):
results, prints, heap effects, virtual cycles, per-method accounts,
sample counts, and compile events are bit-identical to the reference
loop for every run, whichever engine actually executes it.

Generated source is not cached: emitting it costs about a quarter of the
``compile()`` that runs either way. The *closure objects* are memoized
on the artifact and never pickled: ``CompiledCode.__getstate__`` strips
every ``_closure*`` memo, so a hot model swap or cache invalidation
always rebuilds from the artifact and can never resurrect a stale
function object.
"""

from __future__ import annotations

import re
import sys
import threading

from .closure_emit import (
    UnsupportedShape,
    closure_name,
    emit_closure_source,
    intrinsic_names,
)
from .config import BASELINE_LEVEL
from .errors import ExecutionError, StackOverflowError, UnknownIntrinsicError
from .instructions import BASE_COST, Op
from .intrinsics import lookup as lookup_intrinsic

#: Deepest ``max_call_depth`` the compiled tier will take on. Each VM call
#: costs two host stack frames (``_invoke`` + the closure); beyond this we
#: route to the fast engine rather than bump the recursion limit into
#: territory where CPython can hard-crash.
MAX_COMPILED_DEPTH = 1500

#: Host recursion frames reserved per VM call.
_FRAMES_PER_CALL = 3

#: Host recursion frames reserved for the work a leaf call can start:
#: listeners, recompiles through the pass pipeline, intrinsics.
_RECURSION_SLACK = 1000

_W_CALL = BASE_COST[Op.CALL]


class _Deopt(Exception):
    """Internal: continue the run on the reference loop from an exact state.

    ``frames`` starts with the frame that raised; each call site the
    exception crosses appends its caller's frame, so the list ends with
    the entry frame. A frame is ``(method, code, pc, locals, stack)``,
    where *code* is the instruction tuple the frame runs. ``clock`` and
    ``executed`` are the run's at that point, with every account, tick
    and recompile up to date.
    """

    def __init__(self, clock, executed, method, code, pc, locals_, stack):
        super().__init__()
        self.clock = clock
        self.executed = executed
        self.frames = [(method, code, pc, locals_, stack)]


class ClosureUnsupported(Exception):
    """This artifact cannot be closure-compiled (shape or intrinsics)."""


def _build_namespace(compiled) -> dict:
    """Exec globals for one artifact's closure: run-independent bindings.

    Nothing here refers back to the artifact, which holds the closure:
    without a reference cycle, an artifact and its closure are freed as
    soon as the last cache drops the artifact.
    """
    namespace = {
        "_invoke": _invoke,
        "_tick": _tick,
        "_replay": _replay,
        "_DEOPT": _Deopt,
        "_EE": ExecutionError,
        "_CODE": compiled.code,
    }
    for name in intrinsic_names(compiled.code):
        # The reference resolves intrinsics lazily at execution time (the
        # INTRIN might sit on a never-taken path), so an unknown one
        # leaves the artifact without a closure.
        try:
            fn = lookup_intrinsic(name)
        except UnknownIntrinsicError as exc:
            raise ClosureUnsupported(str(exc)) from exc
        namespace["_in_" + re.sub(r"[^0-9A-Za-z_]", "_", name)] = fn
    return namespace


def ensure_closure(compiled, program):
    """The compiled closure for *compiled*, built at most once.

    Both outcomes are memoized on the artifact itself (outside the
    dataclass fields, stripped before pickling): ``_closure`` holds the
    function, ``_closure_unsupported`` the failure reason. Routing is
    therefore a pure, deterministic function of the artifact's code.
    Raises :class:`ClosureUnsupported` when the artifact has no closure.
    """
    fn = compiled.__dict__.get("_closure")
    if fn is not None:
        return fn
    reason = compiled.__dict__.get("_closure_unsupported")
    if reason is not None:
        raise ClosureUnsupported(reason)
    try:
        src = emit_closure_source(
            compiled.method_name,
            compiled.code,
            program.method(compiled.method_name).num_params,
            compiled.num_locals,
        )
        namespace = _build_namespace(compiled)
    except (UnsupportedShape, ClosureUnsupported) as exc:
        object.__setattr__(compiled, "_closure_unsupported", str(exc))
        raise ClosureUnsupported(str(exc)) from exc
    exec(
        compile(
            src,
            f"<closure:{compiled.method_name}:L{compiled.level}>",
            "exec",
        ),
        namespace,
    )
    fn = namespace.pop(closure_name(compiled.method_name))
    # Benign race under threads: both sides build identical functions.
    object.__setattr__(compiled, "_closure", fn)
    return fn


class _VMContext:
    """Per-run mutable context threaded through every closure as ``vm``.

    Everything run-specific lives here (never in the generated source or
    its globals), so one closure serves every run, config, and sweep
    cell that shares the artifact.
    """

    __slots__ = (
        "interp", "ctx", "mc", "mw", "sampler", "depth", "max_depth", "fuel",
    )

    def __init__(self, interp):
        self.interp = interp
        self.ctx = interp.intrinsic_ctx
        self.mc = interp.profile.method_cycles
        self.mw = interp.profile.method_work
        self.sampler = interp.sampler
        self.depth = 1
        self.max_depth = interp.config.max_call_depth
        self.fuel = interp.config.max_instructions


def _tick(vm, clock, name):
    """The reference's tick handler: deliver the samples *clock* crossed
    to *name*, then apply the recompiles they requested. Returns the
    clock after any compile cycles."""
    vm.sampler.advance(clock, name)
    interp = vm.interp
    if interp._recompile_queue:
        interp.clock = clock
        interp._apply_recompiles()
        clock = interp.clock
    return clock


def _replay(vm, state, name, works, clock, mcycles, mwork, executed):
    """A block's accounting one instruction at a time.

    The slow path of a block whose batched clock reaches the next tick.
    *works* holds each instruction's work; an ``INTRIN``'s is the pair
    (work with any burn, GC cycles), because the reference folds the GC
    cycles in at the speed of that instruction, which an earlier tick in
    the block may have changed. Returns the updated
    ``(clock, mcycles, mwork, executed)``.
    """
    speed = state.compiled.speed_factor
    sampler = vm.sampler
    for work in works:
        if work.__class__ is tuple:
            work, gc = work
            if gc:
                work = work + gc / speed
        cost = work * speed
        clock = clock + cost
        mcycles = mcycles + cost
        mwork = mwork + work
        executed += 1
        if clock >= sampler._next_tick:
            vm.mc[name] = mcycles
            vm.mw[name] = mwork
            clock = _tick(vm, clock, name)
            speed = state.compiled.speed_factor
    return clock, mcycles, mwork, executed


def _invoke(vm, name, args, clock, executed):
    """Cross-method call dispatcher: the reference CALL handler, hoisted.

    Performs, in the reference's exact order: depth check, callee
    materialization (compile-cycle charge + first-invocation hook +
    recompile drain), invocation count, the CALL instruction's cost at
    the *callee's* speed charged to the callee's accounts, and the tick
    under the callee's name with its recompile drain. The callee's frame
    runs the artifact it was entered with, at whatever speed the drain
    left its method. Returns ``(result, clock, executed)``.
    """
    if vm.depth >= vm.max_depth:
        raise StackOverflowError(f"call depth exceeded {vm.max_depth}")
    interp = vm.interp
    interp.clock = clock
    state = interp._states.get(name)
    if state is None:
        state = interp._ensure_state(name)
    if interp._recompile_queue:
        interp._apply_recompiles()
    clock = interp.clock
    state.invocations += 1
    compiled = state.compiled
    executed += 1
    cost = _W_CALL * compiled.speed_factor
    clock += cost
    mc = vm.mc
    mw = vm.mw
    mc[name] = mc.get(name, 0.0) + cost
    mw[name] = mw.get(name, 0.0) + _W_CALL
    if clock >= vm.sampler._next_tick:
        clock = _tick(vm, clock, name)
    fn = compiled.__dict__.get("_closure")
    if fn is None:
        try:
            fn = ensure_closure(compiled, interp.program)
        except ClosureUnsupported:
            # The CALL is complete; the callee starts on the reference
            # loop, and its callers follow it there.
            locals_ = list(args) + [0] * (compiled.num_locals - len(args))
            raise _Deopt(
                clock, executed, name, compiled.code, 0, locals_, []
            ) from None
    vm.depth += 1
    try:
        return fn(vm, state, clock, executed, *args)
    finally:
        vm.depth -= 1


def resolve_compiled(interp, entry_name: str):
    """The entry closure if the run may start on the compiled tier, else
    ``None`` (route to the fast engine).

    Checks only what the run starts with, in this order:

    - **Call depth beyond** :data:`MAX_COMPILED_DEPTH`: each VM call
      consumes host stack; past this we won't chase the recursion limit.
    - **An entry artifact the emitter can't structure** (or with unknown
      intrinsics). The artifact is the entry's live one, or its baseline
      artifact before the run has materialized it.

    A callee without a closure is found at its CALL, where the run
    deoptimizes (:func:`_invoke`).
    """
    if interp.config.max_call_depth > MAX_COMPILED_DEPTH:
        return None
    state = interp._states.get(entry_name)
    compiled = (
        state.compiled
        if state is not None
        else interp.jit.compile(entry_name, BASELINE_LEVEL)
    )
    try:
        return ensure_closure(compiled, interp.program)
    except ClosureUnsupported:
        return None


#: Compiled runs live in this process, and the recursion limit they
#: found when the first of them started (restored when the last ends).
_limit_lock = threading.Lock()
_live_runs = 0
_saved_limit = 0


def _host_depth() -> int:
    depth = 0
    frame = sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def run_compiled(interp, state, args: tuple):
    """Execute one run on the compiled tier.

    Entry contract mirrors ``run_fast``: the entry state exists, its
    invocation is counted, ``interp.clock`` is live. Raises
    :class:`_Deopt` when the run must continue on the reference loop.

    The recursion limit is raised, if need be, to cover this thread's
    host depth at entry plus :data:`_FRAMES_PER_CALL` frames per VM call,
    so the VM depth check always fires first. Serving runs execute on
    executor threads, so the limit is restored only when no compiled run
    is live in any thread.
    """
    global _live_runs, _saved_limit
    fn = ensure_closure(state.compiled, interp.program)
    vm = _VMContext(interp)
    need = _host_depth() + _FRAMES_PER_CALL * vm.max_depth + _RECURSION_SLACK
    with _limit_lock:
        if _live_runs == 0:
            _saved_limit = sys.getrecursionlimit()
        _live_runs += 1
        if need > sys.getrecursionlimit():
            sys.setrecursionlimit(need)
    try:
        result, clock, executed = fn(vm, state, interp.clock, 0, *args)
    finally:
        with _limit_lock:
            _live_runs -= 1
            if _live_runs == 0 and sys.getrecursionlimit() != _saved_limit:
                sys.setrecursionlimit(_saved_limit)
    interp.clock = clock
    interp.profile.instructions_executed = executed
    sampler = interp.sampler
    # The reference's final advance after the outermost RET runs under
    # the popped (entry) frame's name.
    if clock >= sampler._next_tick:
        sampler.advance(clock, state.name)
    return result
