"""Self-recursive tail-call elimination.

The pattern ``CALL self/k; RET`` re-enters the current method as its last
action. The pass rewrites it into frame reuse: store the k arguments back
into the parameter slots (top of stack first) and jump to the method
entry. This removes the per-iteration ``CALL``/``RET`` dispatch cost and
— more importantly for deep recursions — turns O(depth) call-stack growth
into a loop, so programs like an accumulator-style factorial no longer
hit the call-depth guard.

Safety: the rewrite is only applied when the stack-depth dataflow proves
the depth at the CALL site is exactly k (the arguments and nothing else),
so frame reuse cannot strand live operands.
"""

from __future__ import annotations

from ...errors import VerificationError
from ...instructions import Instr, JUMP_OPS, Op
from ...verifier import locals_write_before_read, stack_depths
from ..context import PassContext
from ..ir import CodeBuffer


def _find_sites(buf: CodeBuffer, ctx: PassContext) -> list[int]:
    """pcs of ``CALL self; RET`` pairs safe to rewrite."""
    code = buf.instrs
    name = ctx.method.name
    candidates = [
        pc
        for pc in range(len(code) - 1)
        if code[pc].op == Op.CALL
        and code[pc].arg[0] == name
        and code[pc + 1].op == Op.RET
    ]
    # Both dataflows below cost far more than this scan, and most
    # methods have no self tail call at all.
    if not candidates:
        return []
    # Frame reuse skips the zero-initialization of fresh locals; require
    # the write-before-read discipline that makes that unobservable.
    if not locals_write_before_read(code, ctx.method.num_params):
        return []
    try:
        depths = stack_depths(code, name)
    except VerificationError:
        return []  # malformed mid-pipeline shape; skip conservatively
    targets = buf.jump_targets()
    return [
        pc
        for pc in candidates
        # The RET must not also be reached with a non-call value, and no
        # live operands may sit below the arguments.
        if (pc + 1) not in targets and depths.get(pc) == code[pc].arg[1]
    ]


def eliminate_tail_calls(buf: CodeBuffer, ctx: PassContext) -> bool:
    """Rewrite all safe self-tail-calls; returns True on change."""
    sites = _find_sites(buf, ctx)
    if not sites:
        return False
    # Rewrite back-to-front so earlier indices stay valid during splicing.
    for pc in reversed(sites):
        __, argc = buf.instrs[pc].arg
        stores = [Instr(Op.STORE, slot) for slot in reversed(range(argc))]
        replacement = stores + [Instr(Op.JMP, 0)]
        growth = len(replacement) - 2  # replaces CALL + RET
        old = buf.instrs
        patched: list[Instr] = []
        for index, ins in enumerate(old):
            if index == pc:
                patched.extend(replacement)
                continue
            if index == pc + 1:
                continue  # the RET being replaced
            if ins.op in JUMP_OPS and ins.arg > pc + 1:
                ins = Instr(ins.op, ins.arg + growth)
            patched.append(ins)
        buf.instrs = patched
    ctx.record("tail_call", len(sites))
    return True
