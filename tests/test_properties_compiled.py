"""Property-based tests for the closure-compiled execution tier.

Two properties the tier's routing layer must uphold regardless of what
the emitter supports:

1. **Fallback identity.** Whatever ``resolve_compiled`` decides — run
   compiled, or route to the fast engine (depth, an unsupported entry)
   — and wherever the run deoptimizes, an ``engine="compiled"`` run is
   observably identical to ``engine="reference"``: result, output, heap
   effects, clocks, per-method accounts, samples, compile events.
2. **Deterministic routing.** For a fixed artifact, the emit decision
   (source text or refusal reason) is a pure function of the artifact's
   code: repeated emissions agree, and fresh interpreters route the same
   way.
"""

from hypothesis import given, settings, strategies as st

from repro.lang import compile_source
from repro.testing import FUZZ_CONFIG, Variant, generate, run_differential
from repro.vm import DEFAULT_CONFIG, Interpreter, JITCompiler, VMConfig
from repro.vm.closure_emit import UnsupportedShape, emit_closure_source
from repro.vm.closures import (
    ClosureUnsupported,
    ensure_closure,
    resolve_compiled,
)
from repro.vm.instructions import Instr, Op
from repro.vm.program import Method, Program


# ---------------------------------------------------------------------------
# Fallback identity
# ---------------------------------------------------------------------------

#: The compiled engine with nothing pinned, judged against the reference.
BASE_COMPILED = (Variant("base", engine="compiled"),)


def assert_compiled_agrees(program, args, config=FUZZ_CONFIG):
    report = run_differential(program, args, BASE_COMPILED, config)
    assert not report.divergences, "\n".join(
        d.describe() for d in report.divergences
    )


@settings(max_examples=30, deadline=None)
@given(index=st.integers(min_value=0, max_value=2_000))
def test_compiled_engine_identical_on_generated_programs(index):
    case = generate(99, index)
    program = compile_source(case.source, name=f"prop_{index}")
    assert_compiled_agrees(program, case.args)


@settings(max_examples=15, deadline=None)
@given(
    fuel=st.integers(min_value=1, max_value=5_000),
    depth=st.integers(min_value=2, max_value=3_000),
)
def test_compiled_engine_identical_under_tight_limits(fuel, depth):
    # Fuel forces deoptimization; extreme depth forces the run-level
    # refusal. Both must be invisible in the observables.
    program = compile_source(
        """
        fn main(n) {
          var s = 0;
          var i = 0;
          while (i < n) { s = s + work(i); i = i + 1; }
          return s;
        }
        fn work(x) {
          if (x > 20) { return work(x - 3); }
          return x * 2;
        }
        """
    )
    config = VMConfig(max_instructions=fuel, max_call_depth=depth)
    assert_compiled_agrees(program, (30,), config)


def _method_with(code, num_locals=2, name="m"):
    return Method(name=name, num_params=1, num_locals=num_locals, code=code)


def test_unsupported_shape_routes_to_fallback_identically():
    # An irreducible shape (a jump from outside a loop into its body)
    # must be refused by the emitter yet execute identically through the
    # "compiled" engine, which silently lands on the fast path.
    code = (
        Instr(Op.LOAD, 0),      # 0
        Instr(Op.JNZ, 4),       # 1: jump into the loop body from outside
        Instr(Op.CONST, 0),     # 2: loop header (latch at 6)
        Instr(Op.POP),          # 3
        Instr(Op.LOAD, 0),      # 4: inside the loop span
        Instr(Op.JZ, 8),        # 5
        Instr(Op.JMP, 2),       # 6: latch
        Instr(Op.NOP),          # 7
        Instr(Op.CONST, 42),    # 8
        Instr(Op.RET),          # 9
    )
    method = _method_with(code, num_locals=1, name="main")
    program = Program([method], entry="main")
    jit = JITCompiler(program, DEFAULT_CONFIG)
    compiled = jit.compile("main", -1)
    try:
        ensure_closure(compiled, jit)
        raised = False
    except ClosureUnsupported:
        raised = True
    assert raised
    # Routing refuses the whole run up front...
    interp = Interpreter(program, engine="compiled")
    assert resolve_compiled(interp, "main") is None
    # ...and the run still matches the reference bit-for-bit.
    assert_compiled_agrees(program, (0,))


# ---------------------------------------------------------------------------
# Deterministic routing / emission
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(index=st.integers(min_value=0, max_value=2_000))
def test_emission_is_deterministic(index):
    case = generate(7, index)
    program = compile_source(case.source, name=f"det_{index}")
    jit = JITCompiler(program, DEFAULT_CONFIG)
    for name in program.method_names:
        compiled = jit.compile(name, -1)
        num_params = program.method(name).num_params
        try:
            first = emit_closure_source(
                name, compiled.code, num_params, compiled.num_locals
            )
        except UnsupportedShape as exc:
            # Refusals are just as deterministic as emissions.
            try:
                emit_closure_source(
                    name, compiled.code, num_params, compiled.num_locals
                )
                raise AssertionError("second emission did not refuse")
            except UnsupportedShape as exc2:
                assert str(exc) == str(exc2)
            continue
        second = emit_closure_source(
            name, compiled.code, num_params, compiled.num_locals
        )
        assert first == second


def test_routing_is_deterministic_across_fresh_interpreters():
    program = compile_source(
        """
        fn main(n) {
          var s = 0;
          for (var i = 0; i < n; i = i + 1) { s = s + i; }
          return s;
        }
        """
    )
    decisions = set()
    for _ in range(3):
        interp = Interpreter(program, engine="compiled")
        decisions.add(resolve_compiled(interp, "main") is not None)
    assert decisions == {True}
