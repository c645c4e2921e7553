"""The JIT artifact layer: one in-memory map of compiled artifacts.

A :class:`~repro.vm.opt.jit.JITCompiler` instance already memoizes per
``(method, level)``, but compilers are created per sweep cell (and per
serving tenant), so the cells of one sweep would compile the same methods
at the same levels again and again. A :class:`JITArtifactCache` is the
layer those compilers share: ``run_sweep`` gives each sweep one, and a
serving fleet gives its tenants one. The layer lives in memory only and
is dropped with its owner; nothing is persisted, because reading an
artifact back from disk saves only its pass pipeline (about 0.1 ms)
while publishing it costs several times that.

Soundness of the key. A compiled artifact is a pure function of:

- the method's own bytecode (its digest),
- the *whole program's* bytecode — inlining and tail-call elimination pull
  callee bodies into the caller, so two programs containing a bit-identical
  method may still compile it differently (the program digest covers this),
- the optimization level,
- the pass pipeline actually applied (pass names, in order — the
  differential harness overrides pipelines per level),
- the cost configuration (dispatch factors, opt gains, compile rates feed
  ``speed_factor`` and ``compile_cycles``, which are *stored in* the
  artifact).

Because ``compile_cycles`` is part of the artifact, a hit charges the
run's virtual clock exactly what a fresh compile would have: host time
changes, virtual-cycle results do not. This is asserted by the
equivalence tests and is what makes sharing one layer across a sweep's
cells safe.

The layer also owns the closures its artifacts run on the compiled tier
(:attr:`JITArtifactCache.closures`, filled by
:func:`repro.vm.closures.ensure_closure`): artifacts with equal code share
one closure, so levels -1 and 0 of a method, which both run the
method's own bytecode, build it once.
"""

from __future__ import annotations

import hashlib

from ..program import Method, Program

#: Bump when the artifact layout changes incompatibly (part of every key).
ARTIFACT_SCHEMA_VERSION = 1


def method_digest(method: Method) -> str:
    """Stable digest of one method's identity and bytecode."""
    lines = [method.name, str(method.num_params), str(method.num_locals)]
    lines.extend(
        f"{int(ins.op)} {ins.arg!r}" for ins in method.code
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def program_digest(program: Program) -> str:
    """Stable digest of a whole program (all methods, sorted by name)."""
    h = hashlib.sha256()
    h.update(program.entry.encode("utf-8"))
    for name in sorted(program.method_names):
        h.update(b"\x00")
        h.update(method_digest(program.method(name)).encode("ascii"))
    return h.hexdigest()


def artifact_key(
    mdigest: str,
    pdigest: str,
    level: int,
    config_digest: str,
    pass_names: tuple[str, ...],
) -> str:
    """The cache key: one hex digest covering every codegen input."""
    parts = "\n".join(
        (
            f"v{ARTIFACT_SCHEMA_VERSION}",
            mdigest,
            pdigest,
            str(level),
            config_digest,
            *pass_names,
        )
    )
    return hashlib.sha256(parts.encode("utf-8")).hexdigest()


class JITArtifactCache:
    """One in-memory layer of compiled artifacts, with hit and miss counts.

    Thread-unsafe by design: one per sweep (per pool worker for a
    parallel sweep) or per serving fleet. :attr:`closures` maps an
    artifact's method name, parameter and local counts and code (each
    operand by its ``repr``) to its compiled-tier closure, or to the
    reason it has none.
    """

    def __init__(self):
        self._memory: dict[str, object] = {}
        self.closures: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        """Return the cached artifact for *key*, or ``None``."""
        artifact = self._memory.get(key)
        if artifact is None:
            self.misses += 1
        else:
            self.hits += 1
        return artifact

    def put(self, key: str, artifact) -> None:
        self._memory[key] = artifact

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._memory),
        }
