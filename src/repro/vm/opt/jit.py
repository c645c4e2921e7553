"""The tiered JIT compiler: code generation, speed model, compile costs.

:class:`JITCompiler` turns a :class:`~repro.vm.program.Method` into
:class:`CompiledCode` at a requested optimization level. Two things make a
higher tier faster:

1. The optimization passes genuinely shrink/simplify the bytecode
   (fewer instructions dispatched).
2. A per-level *dispatch factor* scales every instruction's cycle cost,
   modeling the better native code a real optimizing compiler emits —
   amplified by the method's intrinsic *optimizability* (loopy, arithmetic-
   dense methods gain more from aggressive optimization, as in real JITs).

Compiling costs virtual cycles proportional to method size, with per-level
rates spanning the ~2-orders-of-magnitude range between Jikes' baseline and
level-2 optimizing compilers. These two curves — faster code vs. dearer
compiles — are precisely the economics the paper's predictor learns to
navigate per input.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from ..config import OPT_LEVELS, VMConfig
from ..instructions import Instr
from ..program import Method, Program


def _name_jitter(name: str) -> float:
    """Deterministic per-method jitter in [0, 1) from a stable hash.

    ``zlib.crc32`` is stable across processes (unlike ``hash``), keeping
    whole experiments bit-reproducible.
    """
    return (zlib.crc32(name.encode("utf-8")) % 10_000) / 10_000.0


def method_optimizability(method: Method) -> float:
    """Intrinsic optimizability of *method* in [0.05, 1.0].

    Derived from static code traits — loop density and arithmetic density —
    plus a stable per-name jitter modeling everything the traits miss
    (alias patterns, branch shapes). Loopier and more arithmetic-heavy
    methods respond better to optimization.
    """
    loops = min(method.loop_count(), 4) / 4.0
    arith = method.arithmetic_density()
    base = 0.20 + 0.45 * loops + 0.20 * arith
    jitter = (_name_jitter(method.name) - 0.5) * 0.30
    return max(0.05, min(1.0, base + jitter))


@dataclass(frozen=True)
class CompiledCode:
    """The executable artifact for one method at one optimization level.

    Attributes:
        method_name: Owning method.
        level: Optimization level this code was compiled at.
        code: The (possibly optimized) instruction tuple.
        num_locals: Local slots required (inlining may exceed the source's).
        speed_factor: Multiplier on every instruction's base cycle cost
            (1.0 at baseline; smaller is faster).
        compile_cycles: What compiling this artifact cost.
        pass_stats: Which passes changed the code, for diagnostics.
    """

    method_name: str
    level: int
    code: tuple[Instr, ...]
    num_locals: int
    speed_factor: float
    compile_cycles: float
    pass_stats: dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def size(self) -> int:
        return len(self.code)

    def __getstate__(self):
        # The fast-path engine memoizes its decoded instruction streams on
        # the artifact (repro.vm.fastpath.ensure_decoded), and the compiled
        # tier memoizes its generated closure/unsupported-reason
        # (repro.vm.closures.ensure_closure); strip every memo when
        # pickling. Beyond compactness this is load-bearing: a pickled
        # closure would either fail to serialize or resurrect stale
        # generated code in another process. The closure is rebuilt from
        # the artifact itself.
        state = dict(self.__dict__)
        state.pop("_decoded", None)
        state.pop("_closure", None)
        state.pop("_closure_unsupported", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


class JITCompiler:
    """Compiles methods of one program under one cost configuration.

    *tier_passes* optionally overrides the default per-level pass
    pipelines (levels absent from the mapping keep their defaults). The
    differential fuzzing harness uses this to compile the same program
    under single-pass configurations.

    *artifact_cache* optionally plugs in a shared
    :class:`~repro.vm.opt.artifact_cache.JITArtifactCache` layer:
    artifacts are looked up there (keyed by method/program digests, level,
    config, and pass pipeline) before compiling, and published there
    after. Virtual compile cycles are charged identically on hit and miss
    — the layer only saves host time. :attr:`closures` is the
    compiled-tier closure memo (:func:`repro.vm.closures.ensure_closure`):
    the layer's, or the compiler's own when it has none.
    """

    def __init__(
        self,
        program: Program,
        config: VMConfig,
        tier_passes: dict[int, tuple] | None = None,
        artifact_cache=None,
    ):
        self.program = program
        self.config = config
        self.tier_passes = tier_passes
        self.artifact_cache = artifact_cache
        self.closures: dict[tuple, object] = (
            artifact_cache.closures if artifact_cache is not None else {}
        )
        self._cache: dict[tuple[str, int], CompiledCode] = {}
        self._optimizability: dict[str, float] = {}
        self._program_digest: str | None = None
        self._method_digests: dict[str, str] = {}
        self._config_digest: str | None = None

    def optimizability(self, method_name: str) -> float:
        value = self._optimizability.get(method_name)
        if value is None:
            value = method_optimizability(self.program.method(method_name))
            self._optimizability[method_name] = value
        return value

    def speed_factor(self, method_name: str, level: int) -> float:
        """Cycle-cost multiplier for *method_name* compiled at *level*."""
        if level == -1:
            return 1.0
        dispatch = self.config.dispatch_factor[level]
        gain = self.config.opt_gain[level] * self.optimizability(method_name)
        return dispatch * max(0.25, 1.0 - gain)

    def compile_cost(self, method_name: str, level: int) -> float:
        """Virtual cycles charged to compile *method_name* at *level*."""
        size = self.program.method(method_name).size
        return self.config.compile_rate[level] * size

    def _artifact_key(self, method_name: str, level: int) -> str:
        """Cross-run cache key for *method_name* at *level* (see
        :mod:`repro.vm.opt.artifact_cache` for the soundness argument)."""
        from .artifact_cache import artifact_key, method_digest, program_digest
        from .pipeline import TIER_PASSES

        pdigest = self._program_digest
        if pdigest is None:
            pdigest = self._program_digest = program_digest(self.program)
        mdigest = self._method_digests.get(method_name)
        if mdigest is None:
            mdigest = method_digest(self.program.method(method_name))
            self._method_digests[method_name] = mdigest
        cdigest = self._config_digest
        if cdigest is None:
            import hashlib

            cdigest = hashlib.sha256(
                repr(self.config).encode("utf-8")
            ).hexdigest()
            self._config_digest = cdigest
        passes = (
            self.tier_passes.get(level) if self.tier_passes is not None else None
        )
        if passes is None:
            passes = TIER_PASSES[level]
        pass_names = tuple(p.__name__ for p in passes)
        return artifact_key(mdigest, pdigest, level, cdigest, pass_names)

    def compile(self, method_name: str, level: int) -> CompiledCode:
        """Compile (with caching — compiled code is immutable) and return."""
        if level not in OPT_LEVELS:
            raise ValueError(f"unknown optimization level {level}")
        key = (method_name, level)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        akey = None
        if self.artifact_cache is not None:
            akey = self._artifact_key(method_name, level)
            artifact = self.artifact_cache.get(akey)
            if artifact is not None:
                self._cache[key] = artifact
                return artifact
        from .pipeline import run_pipeline

        method = self.program.method(method_name)
        passes = (
            self.tier_passes.get(level) if self.tier_passes is not None else None
        )
        code, num_locals, stats = run_pipeline(
            self.program, method, level, passes=passes
        )
        compiled = CompiledCode(
            method_name=method_name,
            level=level,
            code=code,
            num_locals=num_locals,
            speed_factor=self.speed_factor(method_name, level),
            compile_cycles=self.compile_cost(method_name, level),
            pass_stats=stats,
        )
        self._cache[key] = compiled
        if self.artifact_cache is not None:
            self.artifact_cache.put(akey, compiled)
        return compiled
