"""Equivalence suite: fast-path and compiled engines vs. the reference.

The fast engine (:mod:`repro.vm.fastpath`) and the closure-compiled tier
(:mod:`repro.vm.closures`) both promise *bit-identical* virtual-cycle
semantics: same results, output, heap effects, final clocks, per-method
cycle/work accounts, sample counts, and compile-event sequences as the
reference loop, at every compilation config. These tests hold them to
that through the differential matrix over seeded fuzz streams, adaptive
(listener-attached) runs, and the resource-limit edges where batching —
per-superinstruction in the fast engine, per-basic-block in the compiled
tier — could plausibly leak. The regression corpus replays through the
same matrix in ``tests/test_corpus_replay.py``.
"""

from dataclasses import replace

import pytest

from repro.aos.controller import AdaptiveController
from repro.lang import compile_source
from repro.testing import (
    FUZZ_CONFIG,
    Variant,
    default_variants,
    execute_variant,
    generate,
    run_differential,
)
from repro.vm import FuelExhaustedError, Interpreter, Op, VMConfig, interpreter
from repro.vm.fastpath import (
    F_CMP_JZ,
    F_DUP_ADD,
    F_LC,
    F_LC_ARITH_S,
    F_LL,
    F_LL_CMP_JZ,
    FUSED_BASE,
    FastFrame,
    decode,
    ensure_decoded,
)
from repro.vm.instructions import Instr

#: Seeded fuzz programs checked per CI run. Iteration *i* of seed 1234 is
#: deterministic, so a failure here replays with
#: ``generate(1234, i)`` directly.
FUZZ_SEED = 1234
FUZZ_ITERATIONS = 50

HOT_SRC = """
fn main(n) {
  var total = 0;
  var i = 0;
  while (i < n) {
    total = total + helper(i) * 2 - (i % 5);
    i = i + 1;
  }
  print(total);
  return total;
}
fn helper(x) {
  var acc = 0;
  var j = 0;
  while (j < 12) {
    acc = acc + x * j;
    j = j + 1;
  }
  return acc;
}
"""


def assert_engines_agree(program, args, config=FUZZ_CONFIG, configs=None):
    """Every engine at every config in *configs* (default: all) must
    match the reference loop; the differential matrix judges it."""
    variants = tuple(
        v for v in default_variants() if configs is None or v.config in configs
    )
    report = run_differential(program, args, variants, config)
    assert not report.divergences, "\n".join(
        d.describe() for d in report.divergences
    )


# ---------------------------------------------------------------------------
# Fuzz stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index", range(FUZZ_ITERATIONS))
def test_fuzz_programs_identical_across_engines(index):
    case = generate(FUZZ_SEED, index)
    program = compile_source(case.source, name=f"eq_{index}")
    assert_engines_agree(program, case.args)


# ---------------------------------------------------------------------------
# Adaptive runs: listeners disable fusion but must stay identical
# ---------------------------------------------------------------------------

def _adaptive_run(program, args, engine, interval=4_000):
    interp = Interpreter(
        program,
        config=VMConfig(sample_interval=interval),
        rng_seed=3,
        engine=engine,
    )
    AdaptiveController(interp)
    profile = interp.run(args)
    return (
        interp.result,
        tuple(interp.output),
        profile.total_cycles,
        profile.compile_cycles,
        profile.instructions_executed,
        tuple(sorted(profile.samples.items())),
        tuple(sorted(profile.method_cycles.items())),
        tuple(sorted(profile.final_levels.items())),
        tuple(
            (e.method, e.level, e.cycles, e.at_clock)
            for e in profile.compile_events
        ),
    )


def test_adaptive_controller_runs_identical():
    program = compile_source(HOT_SRC)
    ref = _adaptive_run(program, (600,), "reference")
    fast = _adaptive_run(program, (600,), "fast")
    assert ref == fast
    # The run must actually have exercised recompilation for this to mean
    # anything.
    assert any(level > -1 for _, level in ref[7])


def test_fused_mode_disabled_with_listeners():
    program = compile_source(HOT_SRC)
    interp = Interpreter(program, engine="fast")
    assert not interp.sampler.has_listeners
    AdaptiveController(interp)
    assert interp.sampler.has_listeners


# ---------------------------------------------------------------------------
# Resource-limit edges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fuel", [7, 50, 123, 1000, 4321])
def test_fuel_exhaustion_timing_identical(fuel):
    # The fast engine falls back to the unfused stream near the budget;
    # the fault must surface after exactly the same instruction, with the
    # same partial output and heap effects.
    program = compile_source(HOT_SRC)
    config = VMConfig(max_instructions=fuel)
    assert_engines_agree(program, (600,), config=config)


GUARD_LOOP_SRC = """
fn main(n) {
  var i = 0;
  var total = 0;
  while (i < n) {
    total = total + i;
    i = i + 1;
  }
  return total;
}
"""

#: pc of GUARD_LOOP_SRC's loop guard, a fused LOAD;LOAD;cmp;JZ window.
GUARD_PC = 4


@pytest.mark.parametrize("gap", [1, 2, 3])
def test_fast_resume_near_fuel_budget_faults_like_reference(gap):
    # A resumed run counts on from _resume_executed. Resumed at a fused
    # loop guard 1-3 instructions short of the budget, the fast engine
    # must start on the unfused stream, or the fused unit overshoots the
    # budget and faults past the reference loop's pc.
    program = compile_source(GUARD_LOOP_SRC)
    config = VMConfig(max_instructions=1_000)
    faults = {}
    for engine, frame_cls in (
        ("reference", interpreter._Frame), ("fast", FastFrame)
    ):
        interp = Interpreter(program, config=config, engine=engine)
        compiled = interp._ensure_state("main").compiled
        assert ensure_decoded(compiled)[0][GUARD_PC] == F_LL_CMP_JZ
        frame = frame_cls(compiled, [10])
        frame.pc = GUARD_PC
        frame.locals[1:] = [3, 3]
        interp._frames.append(frame)
        interp._resume_executed = config.max_instructions - gap
        with pytest.raises(FuelExhaustedError) as info:
            interp.resume() if engine == "fast" else interp._loop()
        faults[engine] = (info.value.method, info.value.pc)
    expected = ("main", GUARD_PC + gap - 1)
    assert faults["fast"] == faults["reference"] == expected


def test_stack_overflow_identical():
    program = compile_source(
        """
        fn main(n) { return down(n); }
        fn down(k) { return down(k + 1); }
        """
    )
    # Tail-call elimination (L2, pass:tail_call) turns the overflow into
    # a loop that runs to fuel, so the fuel is kept small: configs fault
    # differently, but the engines must agree at every config.
    config = VMConfig(max_call_depth=40, max_instructions=200_000)
    assert_engines_agree(program, (0,), config=config)


def test_runtime_fault_identical():
    program = compile_source(
        """
        fn main(n) {
          var i = 0;
          var s = 0;
          while (i < 50) { s = s + i; i = i + 1; }
          return s / (n - n);
        }
        """
    )
    assert_engines_agree(program, (3,))


# ---------------------------------------------------------------------------
# Compiled-tier corpus: shapes that stress the structurizer and
# deoptimization specifically
# ---------------------------------------------------------------------------

DEEP_NEST_SRC = """
fn main(n) {
  var total = 0;
  var i = 0;
  while (i < n) {
    var j = 0;
    while (j < 4) {
      var k = 0;
      while (k < 3) {
        if (k == 1) {
          total = total + inner(i + j, k);
        } else {
          total = total - 1;
        }
        k = k + 1;
      }
      j = j + 1;
    }
    i = i + 1;
  }
  return total;
}
fn inner(a, b) {
  var s = 0;
  var m = 0;
  while (m < b + 2) {
    s = s + a % 7;
    m = m + 1;
  }
  return s;
}
"""

COMPILED_FUZZ_SEED = 20_260_808


def test_compiled_deep_nesting_identical():
    program = compile_source(DEEP_NEST_SRC)
    assert_engines_agree(program, (9,))


@pytest.mark.parametrize("fuel", [5, 37, 200, 777, 3000])
def test_compiled_fuel_exhaustion_mid_loop(fuel):
    # Budget-critical runs must deoptimize off the compiled tier onto the
    # fast engine; the fault surfaces after exactly the same instruction
    # with the same partial output either way.
    program = compile_source(DEEP_NEST_SRC)
    config = VMConfig(max_instructions=fuel)
    assert_engines_agree(program, (9,), config=config)


@pytest.fixture
def deopts(monkeypatch):
    """Refuse to start a compiled run on the fast engine, and record each
    deoptimization's frames (method names, innermost first): a run checked
    under this fixture starts compiled and leaves the tier only by
    deoptimizing, onto the fast engine."""
    resolve = interpreter.resolve_compiled

    def entry_closure(interp, entry_name):
        fn = resolve(interp, entry_name)
        if fn is None:
            raise AssertionError("the run was routed to the fast engine")
        return fn

    seen = []
    restore = interpreter.Interpreter._restore_deopt

    def record(self, deopt):
        seen.append(tuple(frame[0] for frame in deopt.frames))
        restore(self, deopt)

    monkeypatch.setattr(interpreter, "resolve_compiled", entry_closure)
    monkeypatch.setattr(interpreter.Interpreter, "_restore_deopt", record)
    return seen


def test_compiled_sampler_attached_runs_identically(deopts):
    # Adaptive runs attach sample listeners and run on the compiled tier:
    # every tick, recompile and speed change must land on the same
    # instruction as in the reference loop, at the default interval and
    # at a small prime one that ticks mid-block.
    program = compile_source(HOT_SRC)
    for interval in (4_000, 53):
        ref = _adaptive_run(program, (600,), "reference", interval)
        compiled = _adaptive_run(program, (600,), "compiled", interval)
        assert ref == compiled
        assert any(level > -1 for _, level in ref[7])
    assert deopts == []


def _adaptive_matrix(program, args, config):
    """The ``adaptive`` config on the compiled engine, judged against its
    reference run."""
    variant = Variant("adaptive", engine="compiled", controller="adaptive")
    report = run_differential(program, args, (variant,), config)
    assert not report.divergences, "\n".join(
        d.describe() for d in report.divergences
    )
    return report


@pytest.mark.parametrize("fuel", [777, 3000, 4900])
def test_adaptive_fuel_exhaustion_mid_loop_deoptimizes(fuel, deopts):
    # Near the budget a compiled adaptive run deoptimizes at a back-edge
    # or call return, and the fast engine, with the controller still
    # attached, decides exactly where the fuel runs out.
    program = compile_source(DEEP_NEST_SRC)
    report = _adaptive_matrix(program, (9,), VMConfig(max_instructions=fuel))
    assert report.outcomes["adaptive:compiled"].kind == "resource"
    assert len(deopts) == 1


NO_CLOSURE_SRC = """
fn main(n) {
  var total = 0;
  var i = 0;
  while (i < n) {
    total = total + helper(i);
    if (i > n / 2) { total = total + pick(i); }
    i = i + 1;
  }
  return total;
}
fn helper(x) {
  var acc = 0;
  var j = 0;
  while (j < 12) {
    acc = acc + x * j;
    j = j + 1;
  }
  return acc;
}
fn pick(x) {
  if (x % 7 > 2 && x % 3 < 2) { return x; }
  return 1;
}
"""


def test_adaptive_callee_without_closure_deoptimizes(deopts):
    # The emitter cannot structure pick's short-circuit condition, so its
    # first CALL deoptimizes: pick starts on the fast engine and main's
    # live frame follows it there, mid-loop, ticks and recompiles intact.
    from repro.vm import DEFAULT_CONFIG, JITCompiler
    from repro.vm.closures import ClosureUnsupported, ensure_closure

    program = compile_source(NO_CLOSURE_SRC)
    jit = JITCompiler(program, DEFAULT_CONFIG)
    pick = jit.compile("pick", -1)
    with pytest.raises(ClosureUnsupported):
        ensure_closure(pick, jit)
    report = _adaptive_matrix(program, (400,), FUZZ_CONFIG)
    outcome = report.outcomes["adaptive:compiled"]
    assert outcome.kind == "ok"
    assert any(level > -1 for _, level, _, _ in outcome.compile_events)
    assert deopts == [("pick", "main")]


def test_deoptimized_runs_never_enter_the_reference_loop(monkeypatch, deopts):
    # The reference loop is the specification, not a fallback: with it
    # made to fail, every deoptimizing run above (each compiled config of
    # DEEP_NEST_SRC near its fuel budget, and the closure-less callee)
    # finishes on the fast engine and matches its reference result, taken
    # before the patch.
    deep = compile_source(DEEP_NEST_SRC)
    cases = [
        (deep, (9,), variant, VMConfig(max_instructions=fuel))
        for fuel in (5, 37, 200, 777, 3000, 4900)
        for variant in default_variants()
        if variant.engine == "compiled"
    ]
    cases.append((
        compile_source(NO_CLOSURE_SRC),
        (400,),
        Variant("adaptive", engine="compiled", controller="adaptive"),
        FUZZ_CONFIG,
    ))
    expected = [
        execute_variant(program, args, replace(variant, engine="reference"),
                        config)
        for program, args, variant, config in cases
    ]

    def refuse(self):
        raise AssertionError("a compiled run entered the reference loop")

    monkeypatch.setattr(interpreter.Interpreter, "_loop", refuse)
    for (program, args, variant, config), want in zip(cases, expected):
        got = execute_variant(program, args, variant, config)
        assert got == want, f"{variant.name} at {config.max_instructions}"
    assert len(deopts) == len(cases)


def test_resolve_compiled_accepts_listeners_refuses_extreme_depth():
    from repro.vm.closures import MAX_COMPILED_DEPTH, resolve_compiled

    program = compile_source(HOT_SRC)
    interp = Interpreter(program, engine="compiled")
    AdaptiveController(interp)
    assert resolve_compiled(interp, "main") is not None

    deep = Interpreter(
        program,
        config=VMConfig(max_call_depth=MAX_COMPILED_DEPTH + 1),
        engine="compiled",
    )
    assert resolve_compiled(deep, "main") is None
    # The run itself still executes (on the fast engine) and agrees.
    assert_engines_agree(
        program, (50,),
        config=VMConfig(max_call_depth=MAX_COMPILED_DEPTH + 1),
        configs=("base",),
    )


@pytest.mark.parametrize("depth", [5, 64, 1499])
def test_compiled_stack_overflow_edges(depth):
    # Recursion that dies mid-flight at various depths, including just
    # under the compiled tier's own ceiling.
    program = compile_source(
        """
        fn main(n) { return down(n); }
        fn down(k) { return down(k + 1) + 1; }
        """
    )
    config = VMConfig(max_call_depth=depth)
    assert_engines_agree(program, (0,), config=config, configs=("base", "L2"))


def test_recursion_limit_held_while_any_thread_runs_compiled():
    # A caller may run compiled runs from several threads at once. A deep
    # run needs the raised recursion limit for its whole length, so the
    # limit may drop back only once no compiled run is live in any
    # thread; a deep run that outlived it would die with a RecursionError.
    import sys
    import threading

    program = compile_source(
        """
        fn main(n) { return down(n); }
        fn down(k) { if (k == 0) { return 0; } return down(k - 1) + 1; }
        """
    )
    config = VMConfig(max_call_depth=1_000)
    limit = sys.getrecursionlimit()
    errors = []

    def worker():
        try:
            for depth in (900, 40, 900, 300) * 5:
                interp = Interpreter(program, config=config, engine="compiled")
                interp.run((depth,))
                assert interp.result == depth
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sys.getrecursionlimit() == limit


def test_compiled_runtime_fault_edges():
    # Overflow/fault edges inside loops: division, modulo, out-of-bounds
    # indexing, negative allocation — each must fault identically.
    for src, args in [
        (
            """
            fn main(n) {
              var i = 0;
              var s = 1;
              while (i < 40) { s = s * 2; i = i + 1; }
              return s % (n - 7);
            }
            """,
            (7,),
        ),
        (
            """
            fn main(n) {
              var a = array(4);
              var i = 0;
              while (i < 10) { a[i] = i; i = i + 1; }
              return a[0];
            }
            """,
            (0,),
        ),
        (
            """
            fn main(n) {
              var a = array(n);
              return a[0];
            }
            """,
            (-3,),
        ),
    ]:
        program = compile_source(src)
        assert_engines_agree(program, args)


@pytest.mark.parametrize("index", range(FUZZ_ITERATIONS))
def test_fresh_fuzz_programs_identical_across_engines(index):
    # A second, compiled-era fuzz stream (fresh seed) over all three
    # engines: results, output, heap, and cycles must match bit-for-bit.
    case = generate(COMPILED_FUZZ_SEED, index)
    program = compile_source(case.source, name=f"ceq_{index}")
    assert_engines_agree(program, case.args, configs=("base", "L2"))


def test_ensure_closure_memoizes_and_pickles_clean():
    import pickle

    from repro.vm import DEFAULT_CONFIG, JITCompiler
    from repro.vm.closures import ensure_closure

    program = compile_source(HOT_SRC)
    jit = JITCompiler(program, DEFAULT_CONFIG)
    compiled = jit.compile("main", 2)
    first = ensure_closure(compiled, jit)
    assert ensure_closure(compiled, jit) is first
    # The hot-swap staleness guarantee: artifacts round-tripping through
    # the shared JIT artifact cache must never resurrect a generated
    # function object.
    clone = pickle.loads(pickle.dumps(compiled))
    assert "_closure" not in clone.__dict__
    assert "_closure_unsupported" not in clone.__dict__
    assert clone.code == compiled.code


# ---------------------------------------------------------------------------
# Decoded-stream unit tests
# ---------------------------------------------------------------------------

def test_decode_is_pc_aligned_and_keeps_standalone_slots():
    code = (
        Instr(Op.LOAD, 1),
        Instr(Op.LOAD, 0),
        Instr(Op.LT),
        Instr(Op.JZ, 9),
        Instr(Op.LOAD, 1),
        Instr(Op.CONST, 1),
        Instr(Op.ADD),
        Instr(Op.STORE, 1),
        Instr(Op.JMP, 0),
        Instr(Op.CONST, 0),
        Instr(Op.RET),
    )
    fops, fargs, pops, pargs = decode(code)
    assert len(fops) == len(fargs) == len(pops) == len(pargs) == len(code)
    # Loop guard fuses into a quad at pc 0; increment fuses at pc 4.
    assert fops[0] == F_LL_CMP_JZ
    assert fargs[0] == (1, 0, int(Op.LT), 9)
    assert fops[4] == F_LC_ARITH_S
    assert fargs[4] == (1, 1, int(Op.ADD), 1)
    # The plain stream always keeps the standalone decoding, so a jump
    # into the middle of a fused window (e.g. pc 2, the LT) still works.
    assert pops == [int(ins.op) for ins in code]
    assert pops[2] == int(Op.LT)
    # Interior slots of a fused window also decode independently: pc 2
    # starts a cmp;JZ pair of its own.
    assert fops[2] == F_CMP_JZ
    assert fargs[2] == (int(Op.LT), 9)


def test_decode_pairs_and_peephole_patterns():
    code = (
        Instr(Op.LOAD, 0),
        Instr(Op.LOAD, 1),
        Instr(Op.DUP),
        Instr(Op.ADD),
        Instr(Op.RET),
    )
    fops, fargs, _, _ = decode(code)
    assert fops[0] == F_LL
    assert fops[2] == F_DUP_ADD
    assert fops[4] == int(Op.RET) < FUSED_BASE


def test_decode_never_fuses_faultable_arithmetic():
    # DIV/MOD can raise; they must stay standalone so fault pcs and the
    # partial accounting around them match the reference exactly.
    code = (
        Instr(Op.LOAD, 0),
        Instr(Op.CONST, 2),
        Instr(Op.DIV),
        Instr(Op.RET),
    )
    fops, _, _, _ = decode(code)
    assert fops[0] == F_LC  # LOAD;CONST still pairs...
    assert fops[2] == int(Op.DIV)  # ...but the DIV stays standalone


def test_ensure_decoded_memoizes_and_pickles_clean():
    import pickle

    from repro.vm import DEFAULT_CONFIG, JITCompiler

    program = compile_source(HOT_SRC)
    jit = JITCompiler(program, DEFAULT_CONFIG)
    compiled = jit.compile("main", 2)
    first = ensure_decoded(compiled)
    assert ensure_decoded(compiled) is first
    clone = pickle.loads(pickle.dumps(compiled))
    assert "_decoded" not in clone.__dict__
    assert clone.code == compiled.code


# ---------------------------------------------------------------------------
# Recompile-queue dedupe (satellite regression test)
# ---------------------------------------------------------------------------

def test_recompile_queue_collapses_to_max_level():
    program = compile_source(HOT_SRC)
    interp = Interpreter(program)
    interp._ensure_state("main")
    # Multiple queued requests for one method — including duplicates and
    # an intermediate tier — must produce exactly one compile, at the max.
    interp.request_recompile("main", 1)
    interp.request_recompile("main", 2)
    interp.request_recompile("main", 1)
    interp._apply_recompiles()
    events = [
        (e.method, e.level)
        for e in interp.profile.compile_events
        if e.level > -1
    ]
    assert events == [("main", 2)]
    assert interp.current_level("main") == 2
    assert interp._recompile_queue == []
