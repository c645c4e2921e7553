"""Template emitter: bytecode → one generated Python function per method.

This is the codegen half of the closure-compiled execution tier (see
:mod:`repro.vm.closures` for the runtime half). Given one
:class:`~repro.vm.opt.jit.CompiledCode` artifact it emits the source of a
single Python function that executes the method natively:

- VM locals become real Python locals (``l0``, ``l1``, ...);
- operand-stack slots become Python temporaries (``t0``, ``t1``, ...) —
  the verifier proves every pc is reached at one static depth, so each
  slot has a fixed name and the generated code never touches a list;
- straight-line bytecode becomes straight-line Python;
- back-edges become ``while True:`` loops with ``continue``/``break``;
- virtual-clock accounting is batched per basic block into the exact
  left-associative addition chains the reference loop performs
  instruction by instruction (``clock = clock + sp + _k2 + ...``).

The speed factor is not baked into the source. It lives in the closure
local ``sp``, and each per-instruction cost ``work * speed`` lives in a
local derived from it (``sp`` itself for unit work, ``_k<work>``
otherwise), so a cost is the same float product the reference forms. A
recompile applied while the method is live (OSR-lite: the frame keeps
its code and runs on at the new tier's speed) re-reads them.

Exactness rules the emitter obeys:

1. **Accounting chains.** ``clock += a; clock += b`` is the same float
   computation as ``clock = clock + a + b`` (left-associative, same
   operand order). Chains never re-associate and never pre-fold partial
   sums — CPython folds only constant subexpressions, and a chain that
   starts from a variable (``mwork + 1 + 2``) contains none.
2. **Sampler ticks.** A tick may run listeners, and the recompiles they
   request are applied at that instruction, changing the speed of every
   later one. Each block therefore forms its batched clock in ``_c`` and
   compares it with the next tick, held in ``_nt``. Costs are
   non-negative, so a block that stays below the tick crosses none and
   commits its chains as they are. A block that reaches it replays its
   accounting one instruction at a time (``_replay``), which samples,
   drains recompiles and folds each ``INTRIN``'s GC cycles
   (``gc_cycles / speed``) at the same instruction and speed as the
   reference loop; ``sp``, the cost locals and ``_nt`` are re-read after.
   The runtime handles the ticks at method transitions: at callee entry
   after the CALL cost (``_invoke``), and after a call returns, under the
   caller's name (``_tick``). The speed is re-read after every call too,
   since the callee may have recompiled this method.
3. **Effect order.** Semantic operations are emitted strictly in
   bytecode order; only pure accounting is deferred. A raising
   instruction therefore observes exactly the prints/heap effects the
   reference produced, which is all the engine-equivalence oracle
   compares on fault paths.
4. **Fuel and deoptimization.** A soft-limit guard
   (``executed >= vm.fuel - margin`` with ``margin = len(code) + 2``) at
   function entry, every back-edge, and after every call return proves
   no instruction with ordinal > fuel ever executes compiled. A guard
   that fires raises the runtime's deoptimization exception with the
   frame's exact state (pc, locals, stack temps); each call site it
   passes adds its caller's frame, and the run continues on the fast
   engine, whose unfused stream decides the last instructions one at a
   time.

Shapes the emitter cannot structure (irreducible control flow,
cross-loop jumps, non-innermost breaks, a branch arm that jumps past its
join) raise :class:`UnsupportedShape`. The MiniLang compiler and the
passes do produce them: 303 of the 759 baseline artifacts of
``generate(7, 0..299)`` and 3 of the 344 Table I artifacts are refused.
A run whose entry artifact is refused runs on the fast engine; a callee
without a closure deoptimizes the run at its CALL.
"""

from __future__ import annotations

import re

from .errors import VerificationError
from .instructions import BASE_COST, Op
from .verifier import stack_depths

_JUMPS = (Op.JMP, Op.JZ, Op.JNZ)
_CMP_EXPR = {
    Op.LT: "<", Op.LE: "<=", Op.GT: ">", Op.GE: ">=", Op.EQ: "==", Op.NE: "!=",
}
_ARITH_EXPR = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*"}


class UnsupportedShape(Exception):
    """The method's control flow cannot be structured into Python."""


def closure_name(method_name: str) -> str:
    return "_cc_" + re.sub(r"[^0-9A-Za-z_]", "_", method_name)


def intrinsic_names(code) -> tuple[str, ...]:
    """Every intrinsic the generated source references (``_in_<name>``)."""
    seen: list[str] = []
    for ins in code:
        if ins.op == Op.INTRIN:
            name = ins.arg[0]
            if name not in seen:
                seen.append(name)
    return tuple(seen)


class _Emitter:
    def __init__(self, name, code, num_params, num_locals):
        self.name = name
        self.code = code
        self.num_params = num_params
        self.num_locals = num_locals
        self.lines: list[str] = []
        self.indent = 2
        # Pending per-block accounting since the last flush: cost terms
        # and work terms (expressions), each instruction's entry for the
        # one-at-a-time replay, and the instruction count.
        self.costs: list[str] = []
        self.works: list[str] = []
        self.replays: list[str] = []
        self.count = 0
        self.temps = 0
        self.loop_stack: list[tuple[int, int]] = []  # (header, exit)
        # Every work value with a cost local (``_k<work>``): CALL costs
        # are charged by the runtime, INTRIN work is only known at run
        # time, and unit work costs ``sp`` itself.
        self.weights = sorted(
            {
                BASE_COST[ins.op]
                for ins in code
                if ins.op not in (Op.CALL, Op.INTRIN)
            }
            - {1}
        )
        try:
            self.depths = stack_depths(code, name)
        except VerificationError as exc:
            raise UnsupportedShape(str(exc)) from exc
        self.jump_targets = {
            ins.arg for ins in code if ins.op in _JUMPS
        }
        self._analyze_loops()

    # -- loop analysis ----------------------------------------------------
    def _analyze_loops(self):
        headers: dict[int, int] = {}
        for pc, ins in enumerate(self.code):
            if ins.op in _JUMPS and isinstance(ins.arg, int) and ins.arg <= pc:
                target = ins.arg
                headers[target] = max(headers.get(target, target), pc)
        self.headers = headers
        spans = sorted((h, latch) for h, latch in headers.items())
        for i, (h1, l1) in enumerate(spans):
            for h2, l2 in spans[i + 1:]:
                if h2 <= l1 and l2 > l1:  # overlap without nesting
                    raise UnsupportedShape(
                        f"{self.name}: overlapping loops [{h1},{l1}] "
                        f"and [{h2},{l2}]"
                    )
        # No jump from outside a loop may land inside it (other than at
        # the header): that would be irreducible control flow.
        for pc, ins in enumerate(self.code):
            if ins.op not in _JUMPS:
                continue
            t = ins.arg
            for h, latch in headers.items():
                if h < t <= latch and not (h <= pc <= latch):
                    raise UnsupportedShape(
                        f"{self.name}: jump from {pc} into loop body "
                        f"({h},{latch}]"
                    )

    # -- low-level helpers ------------------------------------------------
    def line(self, text: str):
        self.lines.append(" " * (4 * self.indent) + text)

    @staticmethod
    def cost(work: int) -> str:
        """The local holding ``work * speed``."""
        return "sp" if work == 1 else f"_k{work}"

    def add_cost(self, work: int):
        self.costs.append(self.cost(work))
        self.works.append(repr(work))
        self.replays.append(repr(work))
        self.count += 1

    def rate_lines(self) -> list[str]:
        """Read the method's speed and every cost derived from it."""
        lines = ["sp = _st.compiled.speed_factor"]
        lines.extend(f"_k{w} = {w} * sp" for w in self.weights)
        return lines

    def flush(self):
        """Commit the pending block's accounting (rule 2)."""
        if not self.count:
            return
        chain = " + ".join(self.costs)
        self.line(f"_c = clock + {chain}")
        self.line("if _c < _nt:")
        self.line("    clock = _c")
        self.line(f"    mcycles = mcycles + {chain}")
        self.line(f"    mwork = mwork + {' + '.join(self.works)}")
        self.line(f"    executed = executed + {self.count}")
        self.line("else:")
        self.line(
            "    clock, mcycles, mwork, executed = _replay("
            f"vm, _st, {self.name!r}, ({', '.join(self.replays)},), "
            "clock, mcycles, mwork, executed)"
        )
        for text in self.rate_lines():
            self.line("    " + text)
        self.line("    _nt = _sampler._next_tick")
        self.costs = []
        self.works = []
        self.replays = []
        self.count = 0

    def frame_state(self, pc: int, depth: int) -> str:
        """``name, code, pc, [locals], [stack temps]`` of this method's
        frame resuming at *pc*."""
        locals_ = ", ".join(f"l{i}" for i in range(self.num_locals))
        stack = ", ".join(f"t{i}" for i in range(depth))
        return f"{self.name!r}, _CODE, {pc}, [{locals_}], [{stack}]"

    def fuel_guard(self, resume_pc: int):
        """Deoptimize at *resume_pc* once the fuel budget is near."""
        self.line("if executed >= _fs:")
        self.line(f"    _mc[{self.name!r}] = mcycles")
        self.line(f"    _mw[{self.name!r}] = mwork")
        self.line(
            "    raise _DEOPT(clock, executed, "
            f"{self.frame_state(resume_pc, self.depths[resume_pc])})"
        )

    def _next_temp(self) -> int:
        self.temps += 1
        return self.temps

    # -- structured emission ----------------------------------------------
    def emit_function(self) -> str:
        params = ", ".join(f"l{i}" for i in range(self.num_params))
        header = f"def {closure_name(self.name)}(vm, _st, clock, executed"
        if params:
            header += ", " + params
        header += "):"
        prologue = [
            header,
            "    _mc = vm.mc",
            "    _mw = vm.mw",
            "    _sampler = vm.sampler",
            "    _ctx = vm.ctx",
            f"    _fs = vm.fuel - {len(self.code) + 2}",
        ]
        uninit = [f"l{i}" for i in range(self.num_params, self.num_locals)]
        if uninit:
            prologue.append("    " + " = ".join(uninit) + " = 0")
        prologue.extend(
            [
                "    if executed >= _fs:",
                "        raise _DEOPT(clock, executed, "
                f"{self.frame_state(0, 0)})",
                f"    mcycles = _mc.get({self.name!r}, 0.0)",
                f"    mwork = _mw.get({self.name!r}, 0.0)",
            ]
        )
        prologue.extend("    " + text for text in self.rate_lines())
        prologue.extend(["    _nt = _sampler._next_tick", "    try:"])
        self.emit_seq(0, len(self.code))
        self.flush()
        epilogue = [
            "    except (_EE, _DEOPT):",
            "        raise",
            "    except (TypeError, ValueError, IndexError, "
            "ZeroDivisionError, KeyError) as _exc:",
            f"        raise _EE('runtime fault: ' + str(_exc), "
            f"method={self.name!r}) from _exc",
        ]
        return "\n".join(prologue + self.lines + epilogue) + "\n"

    def emit_seq(self, lo: int, hi: int, skip_header_at: int = -1):
        emitted = len(self.lines)
        pc = lo
        terminal = False
        while pc < hi:
            if pc not in self.depths:
                pc += 1
                continue
            if terminal:
                # Code after an unconditional exit that is still
                # reachable means a join the structurizer didn't place.
                raise UnsupportedShape(
                    f"{self.name}: reachable code at {pc} after terminal"
                )
            if pc in self.headers and pc != skip_header_at:
                latch = self.headers[pc]
                if latch + 1 > hi:
                    raise UnsupportedShape(
                        f"{self.name}: loop [{pc},{latch}] exceeds range"
                    )
                self.flush()
                self.line("while True:")
                self.indent += 1
                self.loop_stack.append((pc, latch + 1))
                self.emit_seq(pc, latch + 1, skip_header_at=pc)
                self.flush()
                self.loop_stack.pop()
                self.line("break")
                self.indent -= 1
                pc = latch + 1
                continue
            pc, terminal = self.emit_instr(pc, hi)
        if len(self.lines) == emitted:
            self.line("pass")

    # -- branch helpers ---------------------------------------------------
    def _loop_ctx(self):
        return self.loop_stack[-1] if self.loop_stack else (None, None)

    def emit_continue(self):
        self.flush()
        self.fuel_guard(self.loop_stack[-1][0])
        self.line("continue")

    def emit_branch(self, op, target, cond, pc, hi):
        """One conditional jump: *cond* is a Python expression string that
        is truthy exactly when the reference would NOT take a JZ (i.e.
        the popped value is truthy). Returns the next pc to emit."""
        header, loop_exit = self._loop_ctx()
        # Normalize to "jump taken when `taken` is truthy".
        taken = f"not ({cond})" if op == Op.JZ else cond
        fall = cond if op == Op.JZ else f"not ({cond})"
        if target == header:
            self.flush()
            self.line(f"if {taken}:")
            self.indent += 1
            self.fuel_guard(header)
            self.line("continue")
            self.indent -= 1
            return pc
        if target == loop_exit:
            self.flush()
            self.line(f"if {taken}:")
            self.line("    break")
            return pc
        if target <= pc:
            raise UnsupportedShape(
                f"{self.name}: backward jump at {pc} to non-header {target}"
            )
        if target > hi:
            raise UnsupportedShape(
                f"{self.name}: jump at {pc} escapes range ({target} > {hi})"
            )
        # Forward: if/else diamond when the fall-through arm ends with a
        # forward JMP over the jump arm; plain `if` otherwise.
        join = target - 1
        code = self.code
        if (
            join > pc
            and join in self.depths
            and code[join].op == Op.JMP
            and code[join].arg > join
            and target <= code[join].arg <= hi
        ):
            out = code[join].arg
            self.flush()
            self.line(f"if {fall}:")
            self.indent += 1
            self.emit_seq(pc, join)
            self.add_cost(BASE_COST[Op.JMP])
            self.flush()
            self.indent -= 1
            self.line("else:")
            self.indent += 1
            self.emit_seq(target, out)
            self.flush()
            self.indent -= 1
            return out
        self.flush()
        self.line(f"if {fall}:")
        self.indent += 1
        self.emit_seq(pc, target)
        self.flush()
        self.indent -= 1
        return target

    # -- per-instruction emission -----------------------------------------
    def emit_instr(self, pc: int, hi: int) -> tuple[int, bool]:
        """Emit the instruction at *pc*; returns (next_pc, terminal)."""
        code = self.code
        ins = code[pc]
        op = ins.op
        d = self.depths[pc]
        t = lambda i: f"t{i}"  # noqa: E731
        name = self.name

        if op in _CMP_EXPR:
            # Fuse cmp;JZ / cmp;JNZ into one `if` when the branch is the
            # unique consumer (nobody jumps between them).
            nxt = pc + 1
            if (
                nxt < len(code)
                and code[nxt].op in (Op.JZ, Op.JNZ)
                and nxt not in self.jump_targets
            ):
                cond = f"{t(d - 2)} {_CMP_EXPR[op]} {t(d - 1)}"
                self.add_cost(BASE_COST[op])
                self.add_cost(BASE_COST[code[nxt].op])
                nxt_pc = self.emit_branch(
                    code[nxt].op, code[nxt].arg, cond, nxt + 1, hi
                )
                return nxt_pc, False
            self.line(
                f"{t(d - 2)} = 1 if {t(d - 2)} {_CMP_EXPR[op]} {t(d - 1)} "
                f"else 0"
            )
            self.add_cost(BASE_COST[op])
            return pc + 1, False

        if op in (Op.JZ, Op.JNZ):
            self.add_cost(BASE_COST[op])
            nxt_pc = self.emit_branch(op, ins.arg, t(d - 1), pc + 1, hi)
            return nxt_pc, False

        if op == Op.JMP:
            self.add_cost(BASE_COST[op])
            header, loop_exit = self._loop_ctx()
            if ins.arg == header:
                self.emit_continue()
                return pc + 1, True
            if ins.arg == loop_exit:
                self.flush()
                self.line("break")
                return pc + 1, True
            if ins.arg > pc:
                # Jump-threading residue: only valid when the skipped
                # range is dead (nothing else jumps into it).
                for skipped in range(pc + 1, min(ins.arg, hi)):
                    if skipped in self.depths:
                        raise UnsupportedShape(
                            f"{name}: forward JMP at {pc} over live code"
                        )
                if ins.arg > hi:
                    raise UnsupportedShape(
                        f"{name}: JMP at {pc} escapes range"
                    )
                return ins.arg, False
            raise UnsupportedShape(
                f"{name}: JMP at {pc} to unstructured target {ins.arg}"
            )

        if op == Op.RET:
            self.flush()
            ret_cost = self.cost(BASE_COST[Op.RET])
            self.line(f"clock = clock + {ret_cost}")
            self.line(f"_mc[{name!r}] = mcycles + {ret_cost}")
            self.line(f"_mw[{name!r}] = mwork + {BASE_COST[Op.RET]}")
            self.line("executed = executed + 1")
            self.line(f"return {t(d - 1)}, clock, executed")
            return pc + 1, True

        if op == Op.CALL:
            callee, argc = ins.arg
            args = ", ".join(t(d - argc + i) for i in range(argc))
            tup = f"({args},)" if argc else "()"
            self.flush()
            self.line(f"_mc[{name!r}] = mcycles")
            self.line(f"_mw[{name!r}] = mwork")
            self.line("try:")
            self.line(
                f"    {t(d - argc)}, clock, executed = "
                f"_invoke(vm, {callee!r}, {tup}, clock, executed)"
            )
            self.line("except _DEOPT as _d:")
            self.line(
                "    _d.frames.append(("
                f"{self.frame_state(pc + 1, d - argc)}))"
            )
            self.line("    raise")
            self.line(f"mcycles = _mc[{name!r}]")
            self.line(f"mwork = _mw[{name!r}]")
            self.line("if clock >= _sampler._next_tick:")
            self.line(f"    clock = _tick(vm, clock, {name!r})")
            self.line("_nt = _sampler._next_tick")
            self.line("if _st.compiled.speed_factor != sp:")
            for text in self.rate_lines():
                self.line("    " + text)
            self.fuel_guard(pc + 1)
            return pc + 1, False

        if op == Op.INTRIN:
            intr, argc = ins.arg
            args = ", ".join(t(d - argc + i) for i in range(argc))
            tup = f"({args},)" if argc else "()"
            safe = re.sub(r"[^0-9A-Za-z_]", "_", intr)
            self.line(f"{t(d - argc)} = _in_{safe}(_ctx, {tup})")
            # The work before the GC fold (_w), the GC cycles (_g) and the
            # folded work at this block's speed (_v); a replay refolds
            # _g at the speed its instruction runs at.
            n = self._next_temp()
            w, g, v = f"_w{n}", f"_g{n}", f"_v{n}"
            self.line(f"{w} = {BASE_COST[Op.INTRIN]}")
            self.line("if _ctx.burned:")
            self.line(f"    {w} = {w} + _ctx.burned")
            self.line("    _ctx.burned = 0.0")
            self.line(f"{g} = _ctx.gc_cycles")
            self.line(f"if {g}:")
            self.line("    _ctx.gc_cycles = 0.0")
            self.line(f"    {v} = {w} + {g} / sp")
            self.line("else:")
            self.line(f"    {v} = {w}")
            self.costs.append(f"{v} * sp")
            self.works.append(v)
            self.replays.append(f"({w}, {g})")
            self.count += 1
            return pc + 1, False

        if op == Op.DIV:
            self.line(f"if {t(d - 1)} == 0:")
            self.line(
                f"    raise _EE('division by zero', method={name!r}, pc={pc})"
            )
            self.line(
                f"{t(d - 2)} = {t(d - 2)} // {t(d - 1)} "
                f"if isinstance({t(d - 2)}, int) and "
                f"isinstance({t(d - 1)}, int) else {t(d - 2)} / {t(d - 1)}"
            )
        elif op == Op.MOD:
            self.line(f"if {t(d - 1)} == 0:")
            self.line(
                f"    raise _EE('modulo by zero', method={name!r}, pc={pc})"
            )
            self.line(f"{t(d - 2)} = {t(d - 2)} % {t(d - 1)}")
        elif op == Op.NEWARR:
            self.line(
                f"if not isinstance({t(d - 1)}, int) or {t(d - 1)} < 0:"
            )
            self.line(
                f"    raise _EE('NEWARR size must be a non-negative int, "
                f"got %r' % ({t(d - 1)},), method={name!r}, pc={pc})"
            )
            self.line(f"{t(d - 1)} = [0] * {t(d - 1)}")
        elif op == Op.CONST:
            self.line(f"{t(d)} = {ins.arg!r}")
        elif op == Op.LOAD:
            self.line(f"{t(d)} = l{ins.arg}")
        elif op == Op.STORE:
            self.line(f"l{ins.arg} = {t(d - 1)}")
        elif op in _ARITH_EXPR:
            self.line(
                f"{t(d - 2)} = {t(d - 2)} {_ARITH_EXPR[op]} {t(d - 1)}"
            )
        elif op == Op.NEG:
            self.line(f"{t(d - 1)} = -{t(d - 1)}")
        elif op == Op.NOT:
            self.line(f"{t(d - 1)} = 1 if {t(d - 1)} == 0 else 0")
        elif op == Op.DUP:
            self.line(f"{t(d)} = {t(d - 1)}")
        elif op == Op.POP:
            pass
        elif op == Op.SWAP:
            self.line(
                f"{t(d - 1)}, {t(d - 2)} = {t(d - 2)}, {t(d - 1)}"
            )
        elif op == Op.ALOAD:
            self.line(f"{t(d - 2)} = {t(d - 2)}[{t(d - 1)}]")
        elif op == Op.ASTORE:
            self.line(f"{t(d - 3)}[{t(d - 2)}] = {t(d - 1)}")
        elif op == Op.ALEN:
            self.line(f"{t(d - 1)} = len({t(d - 1)})")
        elif op == Op.NOP:
            pass
        else:
            raise UnsupportedShape(f"{name}: unsupported opcode {op!r}")
        self.add_cost(BASE_COST[op])
        return pc + 1, False


def emit_closure_source(
    method_name: str,
    code,
    num_params: int,
    num_locals: int,
) -> str:
    """Generate the Python source of one method's compiled closure.

    Raises :class:`UnsupportedShape` when the control flow cannot be
    structured.
    """
    emitter = _Emitter(method_name, code, num_params, num_locals)
    return emitter.emit_function()
