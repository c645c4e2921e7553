"""Closure-compiled execution tier: runtime, routing, and fallback.

The third (fastest) execution engine. :mod:`repro.vm.closure_emit`
generates one Python function per :class:`~repro.vm.opt.jit.CompiledCode`
artifact; this module ``exec``-compiles that source, memoizes the
resulting closure on the artifact, dispatches cross-method calls, and
decides — per run and per method — whether the compiled tier may run at
all or must route to the fast/reference engines.

Architecture of one compiled run:

- :func:`resolve_compiled` is the run-level capability check. It refuses
  runs a closure cannot model exactly: attached sample listeners (they
  can observably act between any two instructions), call-depth limits
  beyond what the host's recursion stack can mirror, or any method
  reachable in the static call graph whose baseline artifact the emitter
  cannot structure.
- :func:`run_compiled` drives the entry closure. Closures call each
  other through :func:`_invoke`, which reproduces the reference CALL
  protocol exactly: depth check, lazy method materialization (charging
  compile cycles), recompile-queue drain, invocation count, CALL cost at
  the callee's speed, and a sampler check under the callee's name.
- Anything discovered mid-run that the tier cannot handle exactly —
  fuel-budget proximity, a method recompiled into an unsupported shape,
  host recursion exhaustion — raises the internal :class:`_Bailout`.
  The interpreter then discards the partial run wholesale and *replays*
  on the fast engine from a fresh state (same seed, same shared JIT),
  which is per-instruction exact. Bailouts change wall-clock only,
  never observable results.

Exactness contract (enforced by ``tests/test_engine_equivalence.py``,
``tests/test_properties_compiled.py``, and ``repro fuzz``):
results, prints, heap effects, virtual cycles, per-method accounts,
sample counts, and compile events are bit-identical to the reference
loop for every run, whichever engine actually executes it.

Generated source is cached in the cross-run
:class:`~repro.vm.opt.artifact_cache.JITArtifactCache` under a key
derived from the artifact's own identity (:func:`closure_source_key`),
so sweep workers and serving tenants share codegen the same way they
share artifacts. The *closure objects* themselves are never pickled:
``CompiledCode.__getstate__`` strips every ``_closure*`` memo, so a hot
model swap or cache invalidation always rebuilds from (cached) source
and can never resurrect a stale function object.
"""

from __future__ import annotations

import hashlib
import re
import sys

from .closure_emit import (
    CLOSURE_SCHEMA_VERSION,
    UnsupportedShape,
    closure_name,
    emit_closure_source,
    intrinsic_names,
)
from .config import BASELINE_LEVEL
from .errors import (
    ExecutionError,
    StackOverflowError,
    UnknownIntrinsicError,
    VMError,
)
from .instructions import BASE_COST, Op
from .intrinsics import lookup as lookup_intrinsic

#: Deepest ``max_call_depth`` the compiled tier will take on. Each VM call
#: costs two host stack frames (``_invoke`` + the closure); beyond this we
#: route to the fast engine rather than bump the recursion limit into
#: territory where CPython can hard-crash.
MAX_COMPILED_DEPTH = 1500

#: Host recursion frames reserved per VM call, plus slack for the driver.
_RECURSION_SLACK = 1000

_W_CALL = BASE_COST[Op.CALL]


class _Bailout(Exception):
    """Internal: abandon the compiled run and replay on the fast engine."""


class ClosureUnsupported(Exception):
    """This artifact cannot be closure-compiled (shape or intrinsics)."""


def closure_source_key(compiled, num_params: int) -> str:
    """Cross-run cache key for an artifact's generated source.

    Self-contained: covers everything the emitter reads (schema version,
    name, level, speed factor, locals/params, the exact instruction
    stream), so it can never collide across codegen-relevant changes.
    """
    lines = [
        f"closure-v{CLOSURE_SCHEMA_VERSION}",
        compiled.method_name,
        str(compiled.level),
        repr(compiled.speed_factor),
        str(compiled.num_locals),
        str(num_params),
    ]
    lines.extend(f"{int(ins.op)} {ins.arg!r}" for ins in compiled.code)
    return (
        "closure-"
        + hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    )


def _build_namespace(compiled) -> dict:
    """Exec globals for one closure: run-independent bindings only."""
    namespace = {
        "_invoke": _invoke,
        "_BAIL": _Bailout,
        "_EE": ExecutionError,
    }
    for name in intrinsic_names(compiled.code):
        # Unknown intrinsics fall back to the fast engine, which resolves
        # them lazily at execution time exactly like the reference (the
        # INTRIN might sit on a never-taken path).
        try:
            fn = lookup_intrinsic(name)
        except UnknownIntrinsicError as exc:
            raise ClosureUnsupported(str(exc)) from exc
        namespace["_in_" + re.sub(r"[^0-9A-Za-z_]", "_", name)] = fn
    return namespace


def ensure_closure(compiled, program, artifact_cache=None):
    """The compiled closure for *compiled*, built at most once.

    Both outcomes are memoized on the artifact itself (outside the
    dataclass fields, stripped before pickling): ``_closure`` holds the
    function, ``_closure_unsupported`` the failure reason. Routing is
    therefore a pure, deterministic function of the artifact's code.
    Raises :class:`ClosureUnsupported` when this method must fall back.
    """
    fn = compiled.__dict__.get("_closure")
    if fn is not None:
        return fn
    reason = compiled.__dict__.get("_closure_unsupported")
    if reason is not None:
        raise ClosureUnsupported(reason)
    num_params = program.method(compiled.method_name).num_params
    src = None
    key = None
    if artifact_cache is not None:
        key = closure_source_key(compiled, num_params)
        cached = artifact_cache.get(key)
        if isinstance(cached, str):
            src = cached
    if src is None:
        try:
            src = emit_closure_source(
                compiled.method_name,
                compiled.code,
                num_params,
                compiled.num_locals,
                compiled.speed_factor,
            )
        except UnsupportedShape as exc:
            object.__setattr__(compiled, "_closure_unsupported", str(exc))
            raise ClosureUnsupported(str(exc)) from exc
        if artifact_cache is not None:
            artifact_cache.put(key, src)
    try:
        namespace = _build_namespace(compiled)
    except ClosureUnsupported as exc:
        object.__setattr__(compiled, "_closure_unsupported", str(exc))
        raise
    exec(
        compile(
            src,
            f"<closure:{compiled.method_name}:L{compiled.level}>",
            "exec",
        ),
        namespace,
    )
    fn = namespace[closure_name(compiled.method_name)]
    # Benign race under threads: both sides build identical functions.
    object.__setattr__(compiled, "_closure_src", src)
    object.__setattr__(compiled, "_closure", fn)
    return fn


class _VMContext:
    """Per-run mutable context threaded through every closure as ``vm``.

    Everything run-specific lives here (never in the generated source or
    its globals), so one closure serves every run, config, and sweep
    cell that shares the artifact.
    """

    __slots__ = (
        "interp", "ctx", "mc", "mw", "sampler", "adv",
        "depth", "max_depth", "fuel",
    )

    def __init__(self, interp):
        self.interp = interp
        self.ctx = interp.intrinsic_ctx
        self.mc = interp.profile.method_cycles
        self.mw = interp.profile.method_work
        self.sampler = interp.sampler
        self.adv = interp.sampler.advance
        self.depth = 1
        self.max_depth = interp.config.max_call_depth
        self.fuel = interp.config.max_instructions


def _invoke(vm, name, args, clock, executed):
    """Cross-method call dispatcher: the reference CALL handler, hoisted.

    Performs, in the reference's exact order: depth check, callee
    materialization (compile-cycle charge + first-invocation hook +
    recompile drain), invocation count, the CALL instruction's cost at
    the *callee's* speed charged to the callee's accounts, and the
    sampler check under the callee's name. Returns
    ``(result, clock, executed)``.
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
    fn = compiled.__dict__.get("_closure")
    if fn is None:
        try:
            fn = ensure_closure(
                compiled, interp.program, interp.jit.artifact_cache
            )
        except ClosureUnsupported:
            # A shape this tier can't run (e.g. a hook recompiled the
            # method into one): abandon and replay on the fast engine.
            raise _Bailout() from None
    executed += 1
    cost = _W_CALL * compiled.speed_factor
    clock += cost
    mc = vm.mc
    mw = vm.mw
    mc[name] = mc.get(name, 0.0) + cost
    mw[name] = mw.get(name, 0.0) + _W_CALL
    sampler = vm.sampler
    if clock >= sampler._next_tick:
        sampler.advance(clock, name)
    vm.depth += 1
    try:
        return fn(vm, clock, executed, *args)
    finally:
        vm.depth -= 1


def _reachable_methods(program, entry: str) -> list[str]:
    """Methods reachable from *entry* through static CALL edges.

    Targets absent from the program are skipped: whether they raise
    ``UnknownMethodError`` is a runtime question (the CALL may sit on a
    dead path), answered identically by ``_invoke``.
    """
    seen = [entry]
    todo = [entry]
    while todo:
        name = todo.pop()
        for ins in program.method(name).code:
            if ins.op == Op.CALL:
                callee = ins.arg[0]
                if callee not in seen and callee in program:
                    seen.append(callee)
                    todo.append(callee)
    return seen


def resolve_compiled(interp, entry_name: str):
    """Run-level capability check; the entry closure if the run may
    execute on the compiled tier, else ``None`` (route to fast).

    Refusals, in check order:

    - **Sample listeners attached** (adaptive runs): a listener may
      observably act between any two instructions — between-safepoint
      batching would be visible. Checked at ``run()`` time because
      controllers attach after construction.
    - **Call depth beyond** :data:`MAX_COMPILED_DEPTH`: each VM call
      consumes host stack; past this we won't chase the recursion limit.
    - **Any statically reachable method whose baseline artifact the
      emitter can't structure** (or with unknown intrinsics): checking
      the whole call graph up front keeps repeated runs of such programs
      from paying a bailout-and-replay every time. Eager ``jit.compile``
      here is safe: it only warms the per-run memo — compile *cycles*
      are still charged at first invocation, exactly as the reference.
    """
    if interp.sampler.has_listeners:
        return None
    if interp.config.max_call_depth > MAX_COMPILED_DEPTH:
        return None
    cache = interp.jit.artifact_cache
    entry_fn = None
    try:
        for name in _reachable_methods(interp.program, entry_name):
            state = interp._states.get(name)
            compiled = (
                state.compiled
                if state is not None
                else interp.jit.compile(name, BASELINE_LEVEL)
            )
            fn = ensure_closure(compiled, interp.program, cache)
            if name == entry_name:
                entry_fn = fn
    except (ClosureUnsupported, VMError):
        # VMError: a statically referenced but never-invoked method can be
        # uncompilable; the other engines only fail if it actually runs.
        return None
    return entry_fn


def run_compiled(interp, state, args: tuple):
    """Execute one run on the compiled tier.

    Entry contract mirrors ``run_fast``: the entry state exists, its
    invocation is counted, ``interp.clock`` is live. Raises
    :class:`_Bailout` when the run must replay on the fast engine.
    """
    fn = state.compiled.__dict__.get("_closure")
    if fn is None:  # pragma: no cover - resolve_compiled builds it
        fn = ensure_closure(state.compiled, interp.program,
                            interp.jit.artifact_cache)
    vm = _VMContext(interp)
    old_limit = sys.getrecursionlimit()
    need = _RECURSION_SLACK + 3 * vm.max_depth
    bumped = need > old_limit
    if bumped:
        sys.setrecursionlimit(need)
    try:
        result, clock, executed = fn(vm, interp.clock, 0, *args)
    except RecursionError as exc:
        # Host stack exhausted before the VM depth check fired (possible
        # when the driver itself sits deep in a host stack): replay.
        raise _Bailout() from exc
    finally:
        if bumped:
            sys.setrecursionlimit(old_limit)
    interp.clock = clock
    interp.profile.instructions_executed = executed
    sampler = interp.sampler
    # The reference's final advance after the outermost RET runs under
    # the popped (entry) frame's name.
    if clock >= sampler._next_tick:
        sampler.advance(clock, state.name)
    return result
