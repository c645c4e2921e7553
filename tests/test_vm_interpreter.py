"""Interpreter semantics and accounting tests."""

import pytest

from repro.lang import compile_source
from repro.vm import (
    DEFAULT_CONFIG,
    ExecutionError,
    FuelExhaustedError,
    Interpreter,
    MethodBuilder,
    Program,
    StackOverflowError,
    VMConfig,
    run_program,
)


def run_src(source, args=(), **kwargs):
    return run_program(compile_source(source), args=args, **kwargs)


class TestArithmetic:
    def test_integer_ops(self):
        result, _ = run_src(
            "fn main() { return (7 + 3) * 2 - 5 % 3 + 9 / 2; }"
        )
        assert result == 20 - 2 + 4

    def test_float_division(self):
        result, _ = run_src("fn main() { return 7.0 / 2.0; }")
        assert result == pytest.approx(3.5)

    def test_int_division_floors(self):
        result, _ = run_src("fn main() { return 0 - (7 / 2); }")
        assert result == -3  # 7 // 2 == 3 computed before negation

    def test_negation_and_not(self):
        result, _ = run_src("fn main() { return -5 + !0 + !7; }")
        assert result == -4

    def test_comparisons_yield_binary_values(self):
        result, _ = run_src(
            "fn main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3)"
            " + (1 == 1) + (1 != 1); }"
        )
        assert result == 4

    def test_division_by_zero_raises(self):
        with pytest.raises(ExecutionError, match="division by zero"):
            run_src("fn main() { var x = 0; return 1 / x; }")

    def test_modulo_by_zero_raises(self):
        with pytest.raises(ExecutionError, match="modulo by zero"):
            run_src("fn main() { var x = 0; return 1 % x; }")


class TestControlFlowAndCalls:
    def test_recursion(self):
        result, _ = run_src(
            "fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }"
            "fn main() { return fact(10); }"
        )
        assert result == 3628800

    def test_mutual_recursion(self):
        result, _ = run_src(
            """
            fn is_even(n) { if (n == 0) { return 1; } return is_odd(n - 1); }
            fn is_odd(n) { if (n == 0) { return 0; } return is_even(n - 1); }
            fn main() { return is_even(10) * 10 + is_odd(7); }
            """
        )
        assert result == 11

    def test_stack_overflow_guard(self):
        source = "fn loop(n) { return loop(n + 1); } fn main() { return loop(0); }"
        with pytest.raises(StackOverflowError):
            run_src(source)

    def test_fuel_guard(self):
        config = VMConfig(max_instructions=1000)
        source = "fn main() { var i = 0; while (1) { i = i + 1; } return i; }"
        with pytest.raises(FuelExhaustedError):
            run_src(source, config=config)

    def test_entry_arg_count_checked(self, loop_program):
        interp = Interpreter(loop_program)
        with pytest.raises(ExecutionError, match="expects 1 args"):
            interp.run(())


class TestArrays:
    def test_array_roundtrip(self):
        result, _ = run_src(
            """
            fn main() {
              var a = array(5);
              for (var i = 0; i < 5; i = i + 1) { a[i] = i * i; }
              var s = 0;
              for (var j = 0; j < len(a); j = j + 1) { s = s + a[j]; }
              return s;
            }
            """
        )
        assert result == 30

    def test_negative_array_size_raises(self):
        with pytest.raises(ExecutionError, match="NEWARR"):
            run_src("fn main() { var n = 0 - 3; var a = array(n); return 0; }")

    def test_out_of_bounds_raises(self):
        with pytest.raises(ExecutionError):
            run_src("fn main() { var a = array(2); return a[5]; }")


class TestAccounting:
    def test_clock_advances_monotonically(self, loop_program):
        _, profile = run_program(loop_program, args=(50,))
        assert profile.total_cycles > 0
        assert profile.compile_cycles > 0
        assert profile.execution_cycles > 0

    def test_baseline_work_equals_cycles(self, loop_program):
        # At level -1 the speed factor is 1.0, so work == cycles.
        _, profile = run_program(loop_program, args=(30,))
        assert sum(profile.method_work.values()) == pytest.approx(
            profile.execution_cycles
        )

    def test_per_method_cycles_sum_to_execution(self, loop_program):
        _, profile = run_program(loop_program, args=(25,))
        assert sum(profile.method_cycles.values()) == pytest.approx(
            profile.execution_cycles
        )

    def test_invocation_counts(self, loop_program):
        _, profile = run_program(loop_program, args=(17,))
        assert profile.invocations["main"] == 1
        assert profile.invocations["square"] == 17

    def test_determinism(self, loop_program):
        r1, p1 = run_program(loop_program, args=(40,), rng_seed=3)
        r2, p2 = run_program(loop_program, args=(40,), rng_seed=3)
        assert r1 == r2
        assert p1.total_cycles == p2.total_cycles
        assert p1.method_cycles == p2.method_cycles
        assert p1.samples == p2.samples

    def test_compile_events_recorded_per_method(self, loop_program):
        _, profile = run_program(loop_program, args=(5,))
        compiled = {event.method for event in profile.compile_events}
        assert compiled == {"main", "square"}
        assert all(event.level == -1 for event in profile.compile_events)

    def test_burn_scales_with_speed_factor(self, hot_program):
        base_interp = Interpreter(hot_program)
        base = base_interp.run((200,))
        fast_interp = Interpreter(
            hot_program, first_invocation_hook=lambda name: 2
        )
        fast = fast_interp.run((200,))
        assert base_interp.result == fast_interp.result
        assert fast.execution_cycles < base.execution_cycles * 0.6


class TestSamplingIntegration:
    def test_samples_attributed_to_hot_method(self, hot_program):
        _, profile = run_program(hot_program, args=(2000,))
        assert profile.total_samples > 5
        hottest = profile.hot_methods(top=1)[0][0]
        assert hottest == "kernel"

    def test_sample_fraction(self, hot_program):
        _, profile = run_program(hot_program, args=(2000,))
        assert profile.sample_fraction("kernel") > 0.5
        assert profile.sample_fraction("nonexistent") == 0.0


class TestRecompilation:
    def test_request_recompile_upgrades_future_calls(self, hot_program):
        interp = Interpreter(hot_program)
        interp.request_recompile("kernel", 1)  # queued before first call
        profile = interp.run((500,))
        # kernel gets baseline-compiled first; the queued request is stale
        # (level for an unseen method), so it is dropped.
        assert profile.final_levels["kernel"] == -1

    def test_first_invocation_hook_recompiles(self, hot_program):
        interp = Interpreter(
            hot_program,
            first_invocation_hook=lambda m: 2 if m == "kernel" else None,
        )
        profile = interp.run((500,))
        assert profile.final_levels["kernel"] == 2
        assert profile.final_levels["main"] == -1
        levels = [e.level for e in profile.compile_events if e.method == "kernel"]
        assert levels == [-1, 2]

    def test_downgrade_requests_ignored(self, hot_program):
        interp = Interpreter(
            hot_program, first_invocation_hook=lambda m: 2 if m == "kernel" else None
        )
        interp.request_recompile("kernel", 1)
        profile = interp.run((500,))
        assert profile.final_levels["kernel"] == 2

    def test_interpreter_single_use(self, loop_program):
        interp = Interpreter(loop_program)
        interp.run((3,))
        with pytest.raises(ExecutionError, match="single-use"):
            interp.run((3,))

    def test_engine_knob_validated(self, loop_program):
        for engine in ("turbo", "auto"):
            with pytest.raises(ValueError):
                Interpreter(loop_program, engine=engine)


class TestOutput:
    def test_print_captured_not_emitted(self, capsys):
        result, _ = run_src("fn main() { print(42); return 0; }")
        assert capsys.readouterr().out == ""

    def test_output_accessible_via_interpreter(self):
        prog = compile_source("fn main() { print(1); print(2); return 0; }")
        interp = Interpreter(prog)
        interp.run(())
        assert interp.output == ["1", "2"]
