"""Unit tests for individual optimization passes."""

import pytest

from repro.lang import compile_source
from repro.vm import Instr, Method, Op, Program
from repro.vm.opt.context import PassContext
from repro.vm.opt.ir import CodeBuffer, basic_block_starts, reachable_pcs
from repro.vm.opt.passes import (
    constant_folding,
    dead_code_elimination,
    inline_calls,
    jump_threading,
    peephole,
)


def make_ctx(buf_method_code=None, program=None):
    """Build a PassContext around a trivial program/method."""
    if program is None:
        program = compile_source("fn main() { return 0; }")
    method = program.method(program.entry)
    return PassContext(program=program, method=method, num_locals=method.num_locals)


def ops(buf: CodeBuffer) -> list[Op]:
    return [ins.op for ins in buf.instrs]


class TestCodeBuffer:
    def test_compact_removes_nops_and_remaps_jumps(self):
        buf = CodeBuffer(
            [
                Instr(Op.JMP, 3),
                Instr(Op.NOP),
                Instr(Op.NOP),
                Instr(Op.CONST, 1),
                Instr(Op.RET),
            ]
        )
        removed = buf.compact()
        assert removed == 2
        assert ops(buf) == [Op.JMP, Op.CONST, Op.RET]
        assert buf[0].arg == 1

    def test_compact_jump_to_nop_follows_to_next_survivor(self):
        buf = CodeBuffer(
            [
                Instr(Op.JMP, 1),
                Instr(Op.NOP),
                Instr(Op.CONST, 7),
                Instr(Op.RET),
            ]
        )
        buf.compact()
        assert buf[0].arg == 1  # now points at CONST 7
        assert buf[1].op == Op.CONST

    def test_compact_noop_when_clean(self):
        buf = CodeBuffer([Instr(Op.CONST, 1), Instr(Op.RET)])
        assert buf.compact() == 0

    def test_jump_targets(self):
        buf = CodeBuffer([Instr(Op.JZ, 2), Instr(Op.CONST, 1), Instr(Op.RET)])
        assert buf.jump_targets() == {2}
        assert buf.is_jump_target(2)
        assert not buf.is_jump_target(1)

    def test_reachable_pcs_skips_dead_branch(self):
        code = [
            Instr(Op.JMP, 3),
            Instr(Op.CONST, 1),  # dead
            Instr(Op.RET),       # dead
            Instr(Op.CONST, 2),
            Instr(Op.RET),
        ]
        assert reachable_pcs(code) == {0, 3, 4}

    def test_basic_block_starts(self):
        code = [
            Instr(Op.CONST, 1),
            Instr(Op.JZ, 4),
            Instr(Op.CONST, 2),
            Instr(Op.RET),
            Instr(Op.CONST, 3),
            Instr(Op.RET),
        ]
        assert basic_block_starts(code) == [0, 2, 4]


class TestConstantFolding:
    def run_fold(self, instrs):
        buf = CodeBuffer(instrs)
        ctx = make_ctx()
        changed = constant_folding(buf, ctx)
        buf.compact()
        return changed, buf

    def test_binary_fold(self):
        changed, buf = self.run_fold(
            [Instr(Op.CONST, 6), Instr(Op.CONST, 7), Instr(Op.MUL), Instr(Op.RET)]
        )
        assert changed
        assert buf.instrs[0] == Instr(Op.CONST, 42)
        assert len(buf) == 2

    def test_division_by_zero_not_folded(self):
        changed, buf = self.run_fold(
            [Instr(Op.CONST, 1), Instr(Op.CONST, 0), Instr(Op.DIV), Instr(Op.RET)]
        )
        assert not changed
        assert ops(buf) == [Op.CONST, Op.CONST, Op.DIV, Op.RET]

    def test_unary_fold(self):
        changed, buf = self.run_fold(
            [Instr(Op.CONST, 5), Instr(Op.NEG), Instr(Op.RET)]
        )
        assert changed
        assert buf.instrs[0] == Instr(Op.CONST, -5)

    def test_branch_fold_taken(self):
        changed, buf = self.run_fold(
            [
                Instr(Op.CONST, 0),
                Instr(Op.JZ, 3),
                Instr(Op.RET),
                Instr(Op.CONST, 9),
                Instr(Op.RET),
            ]
        )
        assert changed
        assert buf.instrs[0].op == Op.JMP

    def test_branch_fold_not_taken(self):
        changed, buf = self.run_fold(
            [
                Instr(Op.CONST, 1),
                Instr(Op.JZ, 3),
                Instr(Op.CONST, 5),
                Instr(Op.RET),
            ]
        )
        assert changed
        assert ops(buf) == [Op.CONST, Op.RET]

    def test_jump_target_mid_pattern_blocks_fold(self):
        # pc=2 (the MUL) is a jump target: folding would corrupt the
        # incoming path's stack.
        buf = CodeBuffer(
            [
                Instr(Op.CONST, 6),
                Instr(Op.CONST, 7),
                Instr(Op.MUL),
                Instr(Op.JZ, 2),
                Instr(Op.RET),
            ]
        )
        changed = constant_folding(buf, make_ctx())
        assert not changed

    def test_comparison_folds(self):
        changed, buf = self.run_fold(
            [Instr(Op.CONST, 3), Instr(Op.CONST, 4), Instr(Op.LT), Instr(Op.RET)]
        )
        assert changed
        assert buf.instrs[0] == Instr(Op.CONST, 1)


class TestPeephole:
    def run_peep(self, instrs):
        buf = CodeBuffer(instrs)
        changed = peephole(buf, make_ctx())
        buf.compact()
        return changed, buf

    def test_add_zero_removed(self):
        changed, buf = self.run_peep(
            [Instr(Op.LOAD, 0), Instr(Op.CONST, 0), Instr(Op.ADD), Instr(Op.RET)]
        )
        assert changed
        assert ops(buf) == [Op.LOAD, Op.RET]

    def test_mul_one_removed(self):
        changed, buf = self.run_peep(
            [Instr(Op.LOAD, 0), Instr(Op.CONST, 1), Instr(Op.MUL), Instr(Op.RET)]
        )
        assert changed
        assert ops(buf) == [Op.LOAD, Op.RET]

    def test_mul_two_becomes_dup_add(self):
        changed, buf = self.run_peep(
            [Instr(Op.LOAD, 0), Instr(Op.CONST, 2), Instr(Op.MUL), Instr(Op.RET)]
        )
        assert changed
        assert ops(buf) == [Op.LOAD, Op.DUP, Op.ADD, Op.RET]

    def test_duplicate_load_becomes_dup(self):
        changed, buf = self.run_peep(
            [Instr(Op.LOAD, 3), Instr(Op.LOAD, 3), Instr(Op.MUL), Instr(Op.RET)]
        )
        assert changed
        assert ops(buf) == [Op.LOAD, Op.DUP, Op.MUL, Op.RET]

    def test_store_load_becomes_dup_store(self):
        changed, buf = self.run_peep(
            [Instr(Op.CONST, 1), Instr(Op.STORE, 0), Instr(Op.LOAD, 0), Instr(Op.RET)]
        )
        assert changed
        assert ops(buf) == [Op.CONST, Op.DUP, Op.STORE, Op.RET]

    def test_jmp_to_next_removed(self):
        changed, buf = self.run_peep(
            [Instr(Op.JMP, 1), Instr(Op.CONST, 1), Instr(Op.RET)]
        )
        assert changed
        assert ops(buf) == [Op.CONST, Op.RET]

    def test_jump_target_blocks_window(self):
        # A jump lands on the LOAD of a STORE/LOAD pair; rewriting it to
        # DUP/STORE would corrupt the incoming path, so the window must
        # not fire.
        buf = CodeBuffer(
            [
                Instr(Op.CONST, 1),
                Instr(Op.STORE, 0),
                Instr(Op.LOAD, 0),   # jump target
                Instr(Op.JZ, 2),
                Instr(Op.RET),
            ]
        )
        changed = peephole(buf, make_ctx())
        assert not changed


class TestDeadCode:
    def test_unreachable_removed(self):
        buf = CodeBuffer(
            [
                Instr(Op.CONST, 1),
                Instr(Op.RET),
                Instr(Op.CONST, 99),  # unreachable
                Instr(Op.RET),
            ]
        )
        changed = dead_code_elimination(buf, make_ctx())
        buf.compact()
        assert changed
        assert len(buf) == 2

    def test_push_pop_cancelled(self):
        buf = CodeBuffer(
            [
                Instr(Op.LOAD, 0),
                Instr(Op.POP),
                Instr(Op.CONST, 1),
                Instr(Op.RET),
            ]
        )
        changed = dead_code_elimination(buf, make_ctx())
        buf.compact()
        assert changed
        assert ops(buf) == [Op.CONST, Op.RET]

    def test_call_pop_not_cancelled(self):
        # A call may have side effects; its POP must stay.
        buf = CodeBuffer(
            [
                Instr(Op.CALL, ("main", 0)),
                Instr(Op.POP),
                Instr(Op.CONST, 1),
                Instr(Op.RET),
            ]
        )
        changed = dead_code_elimination(buf, make_ctx())
        assert not changed


class TestJumpThreading:
    def test_chain_collapsed(self):
        buf = CodeBuffer(
            [
                Instr(Op.JZ, 2),
                Instr(Op.RET),
                Instr(Op.JMP, 4),
                Instr(Op.RET),
                Instr(Op.CONST, 1),
                Instr(Op.RET),
            ]
        )
        changed = jump_threading(buf, make_ctx())
        assert changed
        assert buf[0].arg == 4

    def test_jmp_cycle_left_alone(self):
        buf = CodeBuffer([Instr(Op.JMP, 0), Instr(Op.RET)])
        changed = jump_threading(buf, make_ctx())
        assert not changed


class TestInlining:
    def make_program(self):
        return compile_source(
            """
            fn add1(x) { return x + 1; }
            fn big(x) {
              var s = x;
              for (var i = 0; i < 10; i = i + 1) { s = s + i * i + x; }
              return s;
            }
            fn caller(x) { return add1(x) + add1(x); }
            fn main() { return caller(5); }
            """,
            entry="main",
        )

    def test_small_leaf_inlined(self):
        program = self.make_program()
        method = program.method("caller")
        buf = CodeBuffer(method.code)
        ctx = PassContext(program=program, method=method, num_locals=method.num_locals)
        changed = inline_calls(buf, ctx)
        assert changed
        assert all(ins.op != Op.CALL for ins in buf.instrs)
        assert ctx.num_locals > method.num_locals

    def test_inlined_code_preserves_semantics(self):
        from repro.vm import JITCompiler, DEFAULT_CONFIG, Interpreter

        program = self.make_program()
        plain = Interpreter(program)
        plain.run(())
        opt = Interpreter(program, first_invocation_hook=lambda m: 2)
        opt.run(())
        assert plain.result == opt.result == 12

    def test_size_limit_respected(self):
        program = self.make_program()
        method = program.method("caller")
        buf = CodeBuffer(method.code)
        ctx = PassContext(
            program=program,
            method=method,
            num_locals=method.num_locals,
            inline_size_limit=1,
        )
        assert not inline_calls(buf, ctx)

    def test_self_recursion_not_inlined(self):
        program = compile_source(
            "fn main(n) { if (n <= 0) { return 0; } return main(n - 1); }"
        )
        method = program.method("main")
        buf = CodeBuffer(method.code)
        ctx = PassContext(program=program, method=method, num_locals=method.num_locals)
        assert not inline_calls(buf, ctx)

    def test_budget_respected(self):
        program = self.make_program()
        method = program.method("caller")
        buf = CodeBuffer(method.code)
        ctx = PassContext(
            program=program,
            method=method,
            num_locals=method.num_locals,
            inline_budget=0,
        )
        assert not inline_calls(buf, ctx)


class TestTailCallScan:
    """The tail-call pass runs its two dataflows only on a method that
    has a ``CALL self; RET`` pair to rewrite."""

    SOURCE = """
    fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
    fn loop(n, acc) {
      if (n <= 0) { return acc; }
      return loop(n - 1, acc + n);
    }
    fn main() {
      var s = 0;
      for (var i = 0; i < 4; i = i + 1) { s = s + fact(i); }
      return s + loop(3, 0);
    }
    """

    def run(self, monkeypatch, method_name):
        from repro.vm.opt.passes import eliminate_tail_calls, tail_call

        calls = []
        for name in ("locals_write_before_read", "stack_depths"):
            real = getattr(tail_call, name)

            def counted(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(tail_call, name, counted)
        program = compile_source(self.SOURCE)
        method = program.method(method_name)
        ctx = PassContext(
            program=program, method=method, num_locals=method.num_locals
        )
        return eliminate_tail_calls(CodeBuffer(method.code), ctx), calls

    @pytest.mark.parametrize("method_name", ["fact", "main"])
    def test_no_self_tail_call_runs_no_dataflow(
        self, monkeypatch, method_name
    ):
        assert self.run(monkeypatch, method_name) == (False, [])

    def test_a_self_tail_call_runs_both(self, monkeypatch):
        assert self.run(monkeypatch, "loop") == (
            True, ["locals_write_before_read", "stack_depths"]
        )
