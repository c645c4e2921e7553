"""Fast-path execution engine: pre-decoded streams and fused dispatch.

This module is the wall-clock-optimized twin of
:meth:`repro.vm.interpreter.Interpreter._loop`. It executes the *same*
virtual-cycle semantics — every clock value, sample count, compile event,
method-cycle account, and fuel decision is bit-identical to the reference
loop — but dispatches through pre-decoded instruction streams instead of
re-inspecting :class:`~repro.vm.instructions.Instr` objects on every
iteration. Three mechanisms carry the speedup:

1. **Pre-decoded streams.** At first execution of a
   :class:`~repro.vm.opt.jit.CompiledCode` artifact, :func:`decode` lowers
   the instruction tuple into flat parallel lists: an int handler index and
   a raw operand per pc. The hot loop then never touches ``Instr``
   attributes, never hashes an enum, and never looks up ``BASE_COST``
   (base costs are bound to locals once per run).

2. **Superinstruction fusion.** The decoder recognizes the hottest
   instruction patterns emitted by the MiniLang compiler and the peephole
   pass — loop guards (``LOAD;LOAD;cmp;JZ``), strided updates
   (``LOAD;CONST;arith;STORE``), operand pushes (``LOAD;LOAD``,
   ``LOAD;CONST``), strength-reduced doubling (``DUP;ADD``) and compare-
   branches (``cmp;JZ``/``cmp;JNZ``) — and emits one fused handler per
   occurrence. Fusion exists **only in the decoded stream**: the decoded
   arrays stay index-aligned with ``CompiledCode.code``, every slot also
   keeps its standalone decoding, and a jump into the middle of a fused
   window simply executes the standalone form. ``CompiledCode.code``,
   the passes, and the disassembler are untouched.

3. **Batched clock/sampler bookkeeping.** Within a fused unit the clock,
   per-method cycle accounts, and the sampler tick check advance once per
   unit instead of once per instruction. The exactness argument (spelled
   out in ``docs/performance.md``, and enforced by
   ``tests/test_engine_equivalence.py``): a fused unit is a straight-line
   single-method segment, Python's left-associative ``a + c1 + c2``
   reproduces the reference's sequential float additions bit-for-bit, the
   sampler attributes every tick crossed inside the segment to the same
   method either way, and ``_next_tick`` advances by repeated addition in
   both engines. Because a sample *listener* could observably act between
   two instructions of a unit (request a recompile that changes the speed
   factor mid-segment), fusion is only enabled when
   ``Sampler.has_listeners`` is false; with listeners attached the fast
   engine runs the unfused decoded stream with per-instruction checks,
   which is exact unconditionally. Fuel exhaustion stays exact through a
   soft limit: within ``FUEL_MARGIN`` instructions of the budget the loop
   drops to the unfused stream, so the reference's per-instruction fuel
   check decides the final instructions. A run taken over midway (a
   forge child resumed from a fork snapshot, or a compiled run that
   deoptimized) counts on from ``Interpreter._resume_executed``, and one
   that starts inside the margin starts unfused.

The engine also carries the forge's forked-run plumbing
(:mod:`repro.learning.forge.labeler`), all dormant unless the labeler
arms it on the interpreter: the fork hook's pc rewind and account flush
at a method's first CALL, outer-entry counting, a child's stop plan
(:class:`ForkStop`), and :class:`ShadowAccount` charging. None of it
adds work to the fused arms or the standalone epilogue. A frame with
shadow accounts runs the unfused stream with its ``interval_tick``
forced to −1, so the epilogue's existing tick test sends each of its
instructions into the tick branch, which charges the accounts and takes
a sample only when the clock has crossed the sampler's real tick. Every
other forge check sits at CALL and RET.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .errors import ExecutionError, FuelExhaustedError, StackOverflowError
from .instructions import BASE_COST, Op
from .intrinsics import lookup as lookup_intrinsic

if TYPE_CHECKING:
    from .interpreter import Interpreter

#: Forge-internal hook fired when a method is about to be baseline-compiled
#: for the first time, *before* any compile cycles are charged. The forked-run
#: labeler uses it to capture a resumable state snapshot at the exact point
#: where a per-method recompilation decision would take effect: ``run_fast``
#: rewinds the calling frame onto the CALL and flushes its accounts first,
#: so the hook sees a state a child can resume. Fast engine only.
ForkHook = Callable[[str, "Interpreter"], None]


class ForkStop(Exception):
    """Internal control flow: a forked child reached its stop point.

    Raised by ``run_fast`` when the interpreter's ``_stop_plan`` target is
    met (the forced method's last outer exit — its cycle account is final
    there). Deliberately *not* a :class:`VMError`: the forge must never
    mistake an early stop for a program fault.
    """


class ShadowAccount:
    """One speculative cycle account: "method *m* as if compiled at level *L*".

    Charged by ``run_fast`` alongside the real accounting, on every
    instruction of *m*'s frames. When a tier's optimization pipeline leaves
    a method's code unchanged (level 0 always; higher tiers occasionally),
    the only difference between the real run and a run with *m* forced to
    *L* is the speed factor applied to each of *m*'s instructions — so the
    forced run's ``method_cycles[m]`` can be reproduced bit-for-bit by
    replaying the same per-instruction cost expressions at the shadow
    speed, without executing a second run.
    """

    __slots__ = ("level", "speed", "cycles")

    def __init__(self, level: int, speed: float):
        self.level = level
        self.speed = speed
        self.cycles = 0.0

# -- handler indices ----------------------------------------------------------
# Standalone handlers reuse the int opcode (0..29). Fused handlers extend the
# space from FUSED_BASE up; anything >= FUSED_BASE only ever appears in the
# fused stream.
FUSED_BASE = 30

F_LL_CMP_JZ = 30   # LOAD a; LOAD b; cmp; JZ t        — loop guard
F_LC_CMP_JZ = 31   # LOAD a; CONST k; cmp; JZ t
F_LC_ARITH_S = 32  # LOAD a; CONST k; arith; STORE d  — strided update
F_LL_ARITH_S = 33  # LOAD a; LOAD b; arith; STORE d
F_LC_ARITH = 34    # LOAD a; CONST k; arith
F_LL_ARITH = 35    # LOAD a; LOAD b; arith
F_LL = 36          # LOAD a; LOAD b
F_LC = 37          # LOAD a; CONST k
F_C_ARITH = 38     # CONST k; arith
F_ARITH_S = 39     # arith; STORE d
F_CMP_JZ = 40      # cmp; JZ t
F_CMP_JNZ = 41     # cmp; JNZ t
F_DUP_ADD = 42     # DUP; ADD                          — peephole's 2*x

#: Longest fused unit, in original instructions. The fuel soft limit backs
#: off by twice this much so no fused unit can straddle the budget.
MAX_UNIT = 4
FUEL_MARGIN = 2 * MAX_UNIT

#: Arithmetic opcodes eligible for fusion (cannot raise on valid operands
#: beyond the TypeErrors the reference loop also surfaces as runtime faults).
_FUSABLE_ARITH = (int(Op.ADD), int(Op.SUB), int(Op.MUL))
_CMP_OPS = (
    int(Op.EQ), int(Op.NE), int(Op.LT), int(Op.LE), int(Op.GT), int(Op.GE)
)

_LOAD = int(Op.LOAD)
_CONST = int(Op.CONST)
_STORE = int(Op.STORE)
_DUP = int(Op.DUP)
_ADD = int(Op.ADD)
_JZ = int(Op.JZ)
_JNZ = int(Op.JNZ)


def decode(code: tuple) -> tuple[list, list, list, list]:
    """Lower an instruction tuple into ``(fops, fargs, pops, pargs)``.

    All four lists are index-aligned with *code*. ``pops``/``pargs`` hold
    the standalone decoding (int opcode + raw operand) of every slot;
    ``fops``/``fargs`` overlay fused handlers where a pattern matches,
    packing the whole window's operands into one tuple. Windows may
    overlap: each slot is decoded independently as "what to execute if
    control arrives here", so a branch into the middle of someone else's
    window lands on a perfectly valid standalone (or fused) decoding.
    """
    n = len(code)
    pops = [int(ins.op) for ins in code]
    pargs = [ins.arg for ins in code]
    fops = list(pops)
    fargs = list(pargs)
    for pc in range(n):
        o0 = pops[pc]
        # -- quads --------------------------------------------------------
        if pc + 3 < n and o0 == _LOAD:
            o1, o2, o3 = pops[pc + 1], pops[pc + 2], pops[pc + 3]
            if o2 in _CMP_OPS and o3 == _JZ:
                if o1 == _LOAD:
                    fops[pc] = F_LL_CMP_JZ
                    fargs[pc] = (pargs[pc], pargs[pc + 1], o2, pargs[pc + 3])
                    continue
                if o1 == _CONST:
                    fops[pc] = F_LC_CMP_JZ
                    fargs[pc] = (pargs[pc], pargs[pc + 1], o2, pargs[pc + 3])
                    continue
            if o2 in _FUSABLE_ARITH and o3 == _STORE:
                if o1 == _CONST:
                    fops[pc] = F_LC_ARITH_S
                    fargs[pc] = (pargs[pc], pargs[pc + 1], o2, pargs[pc + 3])
                    continue
                if o1 == _LOAD:
                    fops[pc] = F_LL_ARITH_S
                    fargs[pc] = (pargs[pc], pargs[pc + 1], o2, pargs[pc + 3])
                    continue
        # -- triples ------------------------------------------------------
        if pc + 2 < n and o0 == _LOAD:
            o1, o2 = pops[pc + 1], pops[pc + 2]
            if o2 in _FUSABLE_ARITH:
                if o1 == _CONST:
                    fops[pc] = F_LC_ARITH
                    fargs[pc] = (pargs[pc], pargs[pc + 1], o2)
                    continue
                if o1 == _LOAD:
                    fops[pc] = F_LL_ARITH
                    fargs[pc] = (pargs[pc], pargs[pc + 1], o2)
                    continue
        # -- pairs --------------------------------------------------------
        if pc + 1 < n:
            o1 = pops[pc + 1]
            if o0 == _LOAD:
                if o1 == _LOAD:
                    fops[pc] = F_LL
                    fargs[pc] = (pargs[pc], pargs[pc + 1])
                    continue
                if o1 == _CONST:
                    fops[pc] = F_LC
                    fargs[pc] = (pargs[pc], pargs[pc + 1])
                    continue
            elif o0 == _CONST and o1 in _FUSABLE_ARITH:
                fops[pc] = F_C_ARITH
                fargs[pc] = (pargs[pc], o1)
                continue
            elif o0 in _FUSABLE_ARITH and o1 == _STORE:
                fops[pc] = F_ARITH_S
                fargs[pc] = (o0, pargs[pc + 1])
                continue
            elif o0 in _CMP_OPS and o1 == _JZ:
                fops[pc] = F_CMP_JZ
                fargs[pc] = (o0, pargs[pc + 1])
                continue
            elif o0 in _CMP_OPS and o1 == _JNZ:
                fops[pc] = F_CMP_JNZ
                fargs[pc] = (o0, pargs[pc + 1])
                continue
            elif o0 == _DUP and o1 == _ADD:
                fops[pc] = F_DUP_ADD
                continue
    return fops, fargs, pops, pargs


def ensure_decoded(compiled) -> tuple[list, list, list, list]:
    """Decoded streams for *compiled*, computed once and memoized on the
    artifact itself (artifacts are immutable and shared across runs, so
    the decode cost amortizes over a whole sweep). The memo lives outside
    the dataclass fields and is stripped before pickling."""
    d = compiled.__dict__.get("_decoded")
    if d is None:
        d = decode(compiled.code)
        object.__setattr__(compiled, "_decoded", d)
    return d


class FastFrame:
    """Activation record of the fast engine: decoded streams + locals."""

    __slots__ = (
        "fops", "fargs", "pops", "pargs", "pc", "locals", "stack", "name",
        "speed",
    )

    def __init__(self, compiled, args: list):
        self.fops, self.fargs, self.pops, self.pargs = ensure_decoded(compiled)
        self.pc = 0
        self.locals = args + [0] * (compiled.num_locals - len(args))
        self.stack: list = []
        self.name = compiled.method_name
        self.speed = compiled.speed_factor


def run_fast(interp):
    """Execute *interp*'s frame stack to completion on the fast engine.

    Drop-in replacement for ``Interpreter._loop`` — same entry contract
    (frames pushed, clocks live on the interpreter, the instruction count
    starts at ``_resume_executed``) and bit-identical observable behavior;
    see the module docstring for the argument. Raises :class:`ForkStop`
    when a forked child's stop plan is met.
    """
    config = interp.config
    sampler = interp.sampler
    interval_tick = sampler.next_tick
    method_cycles = interp.profile.method_cycles
    method_work = interp.profile.method_work
    intrinsic_ctx = interp.intrinsic_ctx
    frames = interp._frames
    recompile_queue = interp._recompile_queue
    max_depth = config.max_call_depth
    fuel = config.max_instructions
    clock = interp.clock
    executed = interp._resume_executed

    # Forge plumbing: dormant (False / None) outside forked-run labeling.
    fork_armed = interp._fork_hook is not None
    shadow = interp._shadow
    # Parent-side: per-method *outer* entry counts (entries with no frame
    # of the same method already live) — the invariant a child's stop
    # plan is phrased in, because inlining and tail-call elimination
    # change inner entry counts but never outer ones.
    outer_entries = interp._outer_entries
    live_counts: dict[str, int] = {}
    # Child-side: raise ForkStop once the forced method's last outer exit
    # has been accounted.
    stop_method, stop_remaining = interp._stop_plan or (None, 0)
    stop_live = 0
    forge = (
        shadow is not None or outer_entries is not None
        or stop_method is not None
    )
    accounts = None
    # The GC amount an INTRIN folded into `work`, and the work it was
    # folded into: shadow accounts replay the fold at their own speeds.
    gc_part = wpre = 0.0

    # Base costs, bound once (BASE_COST is a flat list indexed by opcode).
    base_cost = BASE_COST
    w_const = base_cost[0]
    w_load = base_cost[4]
    w_store = base_cost[5]
    w_add = base_cost[6]
    w_mul = base_cost[8]
    w_cmp = base_cost[13]
    w_jmp = base_cost[19]
    w_jz = base_cost[20]
    w_call = base_cost[22]
    w_ret = base_cost[23]

    # Fusion is exact only when nothing can observably act between two
    # instructions of a unit; sample listeners can (they may change the
    # frame's speed factor mid-segment via a recompile).
    fused_on = not sampler.has_listeners
    fuel_soft = fuel - FUEL_MARGIN
    if executed >= fuel_soft:
        # Inside the margin from the first instruction (a tiny budget, or
        # a resumed run that starts near it): a fused unit could straddle
        # the budget, so run unfused throughout.
        fused_on = False
        fuel_soft = fuel

    frame = frames[-1]
    ops = frame.fops if fused_on else frame.pops
    argv = frame.fargs if fused_on else frame.pargs
    pc = frame.pc
    stack = frame.stack
    locals_ = frame.locals
    speed = frame.speed
    s2 = 2 * speed
    s3 = 3 * speed
    name = frame.name
    mcycles = method_cycles.get(name, 0.0)
    mwork = method_work.get(name, 0.0)
    if outer_entries is not None:
        # The parent is a fresh run: its entry frame is the one outer
        # entry so far.
        live_counts[name] = 1
        outer_entries[name] = 1
    if shadow is not None:
        accounts = shadow.get(name)
        if accounts is not None:
            ops = frame.pops
            argv = frame.pargs
            interval_tick = -1.0

    while True:
        op = ops[pc]

        if op >= 30:
            # ---- fused superinstructions --------------------------------
            # Each arm performs the window's semantics, then accumulates
            # clock/mcycles/mwork with the exact left-associative chains
            # the reference performs instruction by instruction.
            if op == F_LL_CMP_JZ:
                a, b, c, t = argv[pc]
                x = locals_[a]
                y = locals_[b]
                if c == 15:
                    taken = not (x < y)
                elif c == 16:
                    taken = not (x <= y)
                elif c == 17:
                    taken = not (x > y)
                elif c == 18:
                    taken = not (x >= y)
                elif c == 13:
                    taken = not (x == y)
                else:
                    taken = not (x != y)
                pc = t if taken else pc + 4
                executed += 4
                clock = clock + speed + speed + s2 + s2
                mcycles = mcycles + speed + speed + s2 + s2
                mwork = mwork + w_load + w_load + w_cmp + w_jz
            elif op == F_LC_ARITH_S:
                a, k, ar, d = argv[pc]
                x = locals_[a]
                if ar == 6:
                    locals_[d] = x + k
                    wa = w_add
                    sa = s2
                elif ar == 7:
                    locals_[d] = x - k
                    wa = w_add
                    sa = s2
                else:
                    locals_[d] = x * k
                    wa = w_mul
                    sa = s3
                pc += 4
                executed += 4
                clock = clock + speed + speed + sa + speed
                mcycles = mcycles + speed + speed + sa + speed
                mwork = mwork + w_load + w_const + wa + w_store
            elif op == F_LL:
                a, b = argv[pc]
                stack.append(locals_[a])
                stack.append(locals_[b])
                pc += 2
                executed += 2
                clock = clock + speed + speed
                mcycles = mcycles + speed + speed
                mwork = mwork + w_load + w_load
            elif op == F_C_ARITH:
                k, ar = argv[pc]
                if ar == 6:
                    stack[-1] = stack[-1] + k
                    wa = w_add
                    sa = s2
                elif ar == 7:
                    stack[-1] = stack[-1] - k
                    wa = w_add
                    sa = s2
                else:
                    stack[-1] = stack[-1] * k
                    wa = w_mul
                    sa = s3
                pc += 2
                executed += 2
                clock = clock + speed + sa
                mcycles = mcycles + speed + sa
                mwork = mwork + w_const + wa
            elif op == F_ARITH_S:
                ar, d = argv[pc]
                b = stack.pop()
                a = stack.pop()
                if ar == 6:
                    locals_[d] = a + b
                    wa = w_add
                    sa = s2
                elif ar == 7:
                    locals_[d] = a - b
                    wa = w_add
                    sa = s2
                else:
                    locals_[d] = a * b
                    wa = w_mul
                    sa = s3
                pc += 2
                executed += 2
                clock = clock + sa + speed
                mcycles = mcycles + sa + speed
                mwork = mwork + wa + w_store
            elif op == F_LC:
                a, k = argv[pc]
                stack.append(locals_[a])
                stack.append(k)
                pc += 2
                executed += 2
                clock = clock + speed + speed
                mcycles = mcycles + speed + speed
                mwork = mwork + w_load + w_const
            elif op == F_LC_ARITH:
                a, k, ar = argv[pc]
                x = locals_[a]
                if ar == 6:
                    stack.append(x + k)
                    wa = w_add
                    sa = s2
                elif ar == 7:
                    stack.append(x - k)
                    wa = w_add
                    sa = s2
                else:
                    stack.append(x * k)
                    wa = w_mul
                    sa = s3
                pc += 3
                executed += 3
                clock = clock + speed + speed + sa
                mcycles = mcycles + speed + speed + sa
                mwork = mwork + w_load + w_const + wa
            elif op == F_LL_ARITH:
                a, b, ar = argv[pc]
                x = locals_[a]
                y = locals_[b]
                if ar == 6:
                    stack.append(x + y)
                    wa = w_add
                    sa = s2
                elif ar == 7:
                    stack.append(x - y)
                    wa = w_add
                    sa = s2
                else:
                    stack.append(x * y)
                    wa = w_mul
                    sa = s3
                pc += 3
                executed += 3
                clock = clock + speed + speed + sa
                mcycles = mcycles + speed + speed + sa
                mwork = mwork + w_load + w_load + wa
            elif op == F_LL_ARITH_S:
                a, b, ar, d = argv[pc]
                x = locals_[a]
                y = locals_[b]
                if ar == 6:
                    locals_[d] = x + y
                    wa = w_add
                    sa = s2
                elif ar == 7:
                    locals_[d] = x - y
                    wa = w_add
                    sa = s2
                else:
                    locals_[d] = x * y
                    wa = w_mul
                    sa = s3
                pc += 4
                executed += 4
                clock = clock + speed + speed + sa + speed
                mcycles = mcycles + speed + speed + sa + speed
                mwork = mwork + w_load + w_load + wa + w_store
            elif op == F_LC_CMP_JZ:
                a, k, c, t = argv[pc]
                x = locals_[a]
                if c == 15:
                    taken = not (x < k)
                elif c == 16:
                    taken = not (x <= k)
                elif c == 17:
                    taken = not (x > k)
                elif c == 18:
                    taken = not (x >= k)
                elif c == 13:
                    taken = not (x == k)
                else:
                    taken = not (x != k)
                pc = t if taken else pc + 4
                executed += 4
                clock = clock + speed + speed + s2 + s2
                mcycles = mcycles + speed + speed + s2 + s2
                mwork = mwork + w_load + w_const + w_cmp + w_jz
            elif op == F_CMP_JZ or op == F_CMP_JNZ:
                c, t = argv[pc]
                b = stack.pop()
                a = stack.pop()
                if c == 15:
                    cond = a < b
                elif c == 16:
                    cond = a <= b
                elif c == 17:
                    cond = a > b
                elif c == 18:
                    cond = a >= b
                elif c == 13:
                    cond = a == b
                else:
                    cond = a != b
                if op == F_CMP_JZ:
                    pc = pc + 2 if cond else t
                else:
                    pc = t if cond else pc + 2
                executed += 2
                clock = clock + s2 + s2
                mcycles = mcycles + s2 + s2
                mwork = mwork + w_cmp + w_jz
            else:  # F_DUP_ADD
                x = stack[-1]
                stack[-1] = x + x
                pc += 2
                executed += 2
                clock = clock + speed + s2
                mcycles = mcycles + speed + s2
                mwork = mwork + w_const + w_add
        else:
            # ---- standalone handlers (reference semantics, decoded) -----
            pc += 1
            executed += 1
            if op == 4:  # LOAD
                stack.append(locals_[argv[pc - 1]])
                work = w_load
            elif op == 19:  # JMP
                pc = argv[pc - 1]
                work = w_jmp
            elif op == 0:  # CONST
                stack.append(argv[pc - 1])
                work = w_const
            elif op == 5:  # STORE
                locals_[argv[pc - 1]] = stack.pop()
                work = w_store
            elif op == 6:  # ADD
                b = stack.pop()
                stack[-1] = stack[-1] + b
                work = w_add
            elif op == 7:  # SUB
                b = stack.pop()
                stack[-1] = stack[-1] - b
                work = w_add
            elif op == 8:  # MUL
                b = stack.pop()
                stack[-1] = stack[-1] * b
                work = w_mul
            elif op == 15:  # LT
                b = stack.pop()
                stack[-1] = 1 if stack[-1] < b else 0
                work = w_cmp
            elif op == 16:  # LE
                b = stack.pop()
                stack[-1] = 1 if stack[-1] <= b else 0
                work = w_cmp
            elif op == 17:  # GT
                b = stack.pop()
                stack[-1] = 1 if stack[-1] > b else 0
                work = w_cmp
            elif op == 18:  # GE
                b = stack.pop()
                stack[-1] = 1 if stack[-1] >= b else 0
                work = w_cmp
            elif op == 13:  # EQ
                b = stack.pop()
                stack[-1] = 1 if stack[-1] == b else 0
                work = w_cmp
            elif op == 14:  # NE
                b = stack.pop()
                stack[-1] = 1 if stack[-1] != b else 0
                work = w_cmp
            elif op == 20:  # JZ
                if not stack.pop():
                    pc = argv[pc - 1]
                work = w_jz
            elif op == 21:  # JNZ
                if stack.pop():
                    pc = argv[pc - 1]
                work = w_jz
            elif op == 22:  # CALL
                callee_name, argc = argv[pc - 1]
                if len(frames) >= max_depth:
                    raise StackOverflowError(
                        f"call depth exceeded {max_depth}", method=name, pc=pc - 1
                    )
                interp.clock = clock
                if fork_armed and callee_name not in interp._states:
                    # Make the instantaneous state resumable before the
                    # fork hook (inside _ensure_state) snapshots it: rewind
                    # pc onto this CALL so a restored run re-executes it,
                    # and flush the loop-local accounts the snapshot sees.
                    frame.pc = pc - 1
                    method_cycles[name] = mcycles
                    method_work[name] = mwork
                    interp._resume_executed = executed - 1
                callee_state = interp._ensure_state(callee_name)
                if recompile_queue:
                    interp._apply_recompiles()
                clock = interp.clock
                interval_tick = sampler.next_tick
                callee_state.invocations += 1
                callee_args = stack[len(stack) - argc:] if argc else []
                del stack[len(stack) - argc:]
                frame.pc = pc
                method_cycles[name] = mcycles
                method_work[name] = mwork
                new_frame = FastFrame(callee_state.compiled, callee_args)
                frames.append(new_frame)
                frame = new_frame
                ops = frame.fops if fused_on else frame.pops
                argv = frame.fargs if fused_on else frame.pargs
                pc = 0
                stack = frame.stack
                locals_ = frame.locals
                speed = frame.speed
                s2 = 2 * speed
                s3 = 3 * speed
                name = frame.name
                mcycles = method_cycles.get(name, 0.0)
                mwork = method_work.get(name, 0.0)
                work = w_call
                if forge:
                    if outer_entries is not None:
                        live = live_counts.get(name, 0)
                        live_counts[name] = live + 1
                        if live == 0:
                            outer_entries[name] = outer_entries.get(name, 0) + 1
                    elif name == stop_method:
                        stop_live += 1
                    if shadow is not None:
                        # The CALL itself is charged to the callee, as in
                        # the reference loop.
                        accounts = shadow.get(name)
                        if accounts is not None:
                            ops = frame.pops
                            argv = frame.pargs
                            interval_tick = -1.0
            elif op == 23:  # RET
                result = stack.pop()
                cost = w_ret * speed
                method_cycles[name] = mcycles + cost
                method_work[name] = mwork + w_ret
                clock += cost
                frames.pop()
                if forge:
                    if accounts is not None:
                        for acc in accounts:
                            acc.cycles += w_ret * acc.speed
                        interval_tick = sampler._next_tick
                    if outer_entries is not None:
                        live_counts[name] -= 1
                    elif name == stop_method:
                        stop_live -= 1
                        if stop_live == 0:
                            stop_remaining -= 1
                            if stop_remaining == 0:
                                # The forced method's account is final (its
                                # cycles were flushed just above); nothing the
                                # rest of the run does can change its label.
                                interp.clock = clock
                                interp.profile.instructions_executed = executed
                                raise ForkStop
                if not frames:
                    interp.clock = clock
                    interp.profile.instructions_executed = executed
                    if clock >= interval_tick:
                        sampler.advance(clock, name)
                    return result
                frame = frames[-1]
                ops = frame.fops if fused_on else frame.pops
                argv = frame.fargs if fused_on else frame.pargs
                pc = frame.pc
                stack = frame.stack
                stack.append(result)
                locals_ = frame.locals
                speed = frame.speed
                s2 = 2 * speed
                s3 = 3 * speed
                name = frame.name
                mcycles = method_cycles.get(name, 0.0)
                mwork = method_work.get(name, 0.0)
                if clock >= interval_tick:
                    sampler.advance(clock, name)
                    interval_tick = sampler.next_tick
                    if recompile_queue:
                        interp.clock = clock
                        interp._apply_recompiles()
                        clock = interp.clock
                        interval_tick = sampler.next_tick
                        # Current frame may have been speed-upgraded.
                        speed = frame.speed
                        s2 = 2 * speed
                        s3 = 3 * speed
                if shadow is not None:
                    accounts = shadow.get(name)
                    if accounts is not None:
                        ops = frame.pops
                        argv = frame.pargs
                        interval_tick = -1.0
                continue
            elif op == 28:  # INTRIN
                intr_name, argc = argv[pc - 1]
                fn = lookup_intrinsic(intr_name)
                call_args = tuple(stack[len(stack) - argc:]) if argc else ()
                if argc:
                    del stack[len(stack) - argc:]
                stack.append(fn(intrinsic_ctx, call_args))
                work = base_cost[28]
                if intrinsic_ctx.burned:
                    work += intrinsic_ctx.burned
                    intrinsic_ctx.burned = 0.0
                if intrinsic_ctx.gc_cycles:
                    # GC work is charged unscaled: fold it into `work`
                    # pre-divided so the bottom-of-loop scaling cancels.
                    if accounts is not None:
                        gc_part = intrinsic_ctx.gc_cycles
                        wpre = work
                    work += intrinsic_ctx.gc_cycles / speed
                    intrinsic_ctx.gc_cycles = 0.0
            elif op == 25:  # ALOAD
                idx = stack.pop()
                arr = stack[-1]
                stack[-1] = arr[idx]
                work = base_cost[25]
            elif op == 26:  # ASTORE
                value = stack.pop()
                idx = stack.pop()
                arr = stack.pop()
                arr[idx] = value
                work = base_cost[26]
            elif op == 2:  # DUP
                stack.append(stack[-1])
                work = w_const
            elif op == 1:  # POP
                stack.pop()
                work = w_const
            elif op == 27:  # ALEN
                stack[-1] = len(stack[-1])
                work = base_cost[27]
            elif op == 24:  # NEWARR
                n = stack.pop()
                if not isinstance(n, int) or n < 0:
                    raise ExecutionError(
                        f"NEWARR size must be a non-negative int, got {n!r}",
                        method=name,
                        pc=pc - 1,
                    )
                stack.append([0] * n)
                work = base_cost[24]
            elif op == 9:  # DIV
                b = stack.pop()
                a = stack[-1]
                if b == 0:
                    raise ExecutionError(
                        "division by zero", method=name, pc=pc - 1
                    )
                stack[-1] = (
                    a // b if isinstance(a, int) and isinstance(b, int) else a / b
                )
                work = base_cost[9]
            elif op == 10:  # MOD
                b = stack.pop()
                if b == 0:
                    raise ExecutionError("modulo by zero", method=name, pc=pc - 1)
                stack[-1] = stack[-1] % b
                work = base_cost[10]
            elif op == 11:  # NEG
                stack[-1] = -stack[-1]
                work = w_const
            elif op == 12:  # NOT
                stack[-1] = 1 if stack[-1] == 0 else 0
                work = w_const
            elif op == 3:  # SWAP
                stack[-1], stack[-2] = stack[-2], stack[-1]
                work = w_const
            elif op == 29:  # NOP
                work = w_const
            else:  # pragma: no cover - verifier rejects unknown opcodes
                raise ExecutionError(f"bad opcode {op!r}", method=name, pc=pc - 1)

            cost = work * speed
            clock += cost
            mcycles += cost
            mwork += work

        # ---- shared epilogue: sampler tick + fuel ------------------------
        if clock >= interval_tick:
            if accounts is not None:
                # A frame with shadow accounts runs unfused with its
                # interval_tick at -1, so each of its instructions lands
                # here: replay the instruction's cost at every account's
                # speed, then sample only past the sampler's real tick.
                if gc_part:
                    for acc in accounts:
                        acc_speed = acc.speed
                        acc.cycles += (wpre + gc_part / acc_speed) * acc_speed
                    gc_part = 0.0
                else:
                    for acc in accounts:
                        acc.cycles += work * acc.speed
            if clock >= sampler._next_tick:
                method_cycles[name] = mcycles
                method_work[name] = mwork
                sampler.advance(clock, name)
                interval_tick = sampler.next_tick
                if recompile_queue:
                    frame.pc = pc
                    interp.clock = clock
                    interp._apply_recompiles()
                    clock = interp.clock
                    interval_tick = sampler.next_tick
                    speed = frame.speed
                    s2 = 2 * speed
                    s3 = 3 * speed
                mcycles = method_cycles.get(name, 0.0)
                mwork = method_work.get(name, 0.0)
                if accounts is not None:
                    interval_tick = -1.0
        if executed >= fuel_soft:
            if fused_on:
                # Within FUEL_MARGIN of the budget: finish on the unfused
                # stream so the per-instruction fuel check decides exactly
                # where execution stops, as in the reference loop.
                fused_on = False
                ops = frame.pops
                argv = frame.pargs
            if executed >= fuel:
                raise FuelExhaustedError(
                    f"instruction budget {fuel} exhausted", method=name, pc=pc - 1
                )
