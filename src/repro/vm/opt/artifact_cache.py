"""Cross-run JIT artifact cache.

A :class:`~repro.vm.opt.jit.JITCompiler` instance already memoizes per
``(method, level)`` — but compilers are typically created per run (or per
sweep cell), so a Table I sweep recompiles the same methods at the same
levels thousands of times. This module adds a second, *cross-run* layer:
compiled artifacts keyed by everything that can influence codegen, shared
between compiler instances and optionally persisted to disk next to the
experiment result cache.

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

Because ``compile_cycles`` is part of the artifact, a cache hit charges the
run's virtual clock exactly what a fresh compile would have: wall-clock
changes, virtual-cycle results do not. This is asserted by the equivalence
tests and is what makes the cache safe to enable under ``repro sweep``.

Disk entries live in the store the result cache uses too
(:mod:`repro.resilience.store`): enveloped, published atomically, and
checksummed, so concurrent sweep workers can share one directory and a
torn or bit-flipped entry is at worst a **miss** (the corrupt file is
quarantined), never a corrupt hit. Store failures (full disk) skip
persistence — the in-memory layer still serves.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ...resilience.degradation import DegradationReport
from ...resilience.envelope import REAL_FS, FileSystem
from ...resilience.store import EntryStore
from ..program import Method, Program

#: Bump when the artifact layout changes incompatibly (invalidates disk
#: entries from older versions without needing a cache wipe).
ARTIFACT_SCHEMA_VERSION = 1

#: Envelope kind tag for persisted JIT artifacts.
ARTIFACT_KIND = "jit-artifact"


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
    """Shared artifact store: in-memory map plus optional disk layer.

    Thread-unsafe by design (one per process); *processes* coordinate
    through the disk layer, an :class:`~repro.resilience.store.EntryStore`
    (atomic renames + checksums), so concurrent sweep workers can share
    one directory — a torn or concurrent write is at worst a miss, never
    a corrupt hit.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        *,
        fs: FileSystem = REAL_FS,
        report: DegradationReport | None = None,
    ):
        self.disk: EntryStore | None = None
        if cache_dir is not None:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
            self.disk = EntryStore(
                cache_dir, kind=ARTIFACT_KIND, component="jit-cache",
                fs=fs, report=report,
            )
        self._memory: dict[str, object] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str):
        """Return the cached artifact for *key*, or ``None``."""
        artifact = self._memory.get(key)
        if artifact is None and self.disk is not None:
            artifact = self.disk.get(f"{key}.pkl")
            if artifact is not None:
                self._memory[key] = artifact
        if artifact is None:
            self.misses += 1
        else:
            self.hits += 1
        return artifact

    def put(self, key: str, artifact) -> None:
        self._memory[key] = artifact
        if self.disk is not None:
            self.disk.put(f"{key}.pkl", artifact)

    def stats(self) -> dict[str, int]:
        disk = self.disk
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": disk.hits if disk is not None else 0,
            "entries": len(self._memory),
            "quarantined": disk.quarantined if disk is not None else 0,
        }
