"""Differential execution: one program, a matrix of variants, one reference.

The oracle behind the fuzzing harness (in the spirit of compilation
forking). A *variant* is a (compilation config, engine) pair, and the
default matrix crosses every config

- ``base`` — nothing pinned: every method stays at the baseline level,
- ``L0``/``L1``/``L2`` — every method forced to that level,
- ``pass:<name>`` — the level-2 pipeline restricted to one pass, and
- ``adaptive``/``plan`` — the runs the paper's experiments execute: a
  live :class:`~repro.aos.controller.AdaptiveController`, or a
  :class:`~repro.aos.controller.PairPlanController` replaying a plan
  seeded from the program, both sampling every
  :data:`ADAPTIVE_INTERVAL` cycles so that ticks, and the recompiles
  they apply, land mid-block, mid-loop and inside ``burn`` calls,

with every engine: ``reference`` (the executable specification),
``fast`` and ``compiled``. One two-part rule judges the matrix:

1. **Engines.** Every run must match the ``reference`` engine at its own
   config on every observable: result, output trace, heap-effect
   summary, clocks, samples, per-method cycle/work accounts, final
   levels and compile events. When either run faulted, only the fault
   type, output and heap are compared: the engines batch sampler
   bookkeeping differently, so mid-fault bookkeeping is only loosely
   defined (a tick crossed by the instruction that faults may or may not
   have been registered yet).
2. **Configs.** Every config's ``reference`` run must match the ``base``
   reference on result, output, heap and fault type. Cycle counts are
   excluded — that they differ between levels is the entire point of
   tiered compilation. A resource limit (fuel, stack depth) in the
   ``base`` run makes the configs incomparable, and the report is marked
   skipped: tail-call elimination legitimately turns stack-overflow
   programs into loops. Programs from :mod:`repro.testing.generator`
   never hit either limit by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from random import Random

from ..aos.controller import AdaptiveController, PairPlanController
from ..aos.strategy import PairStrategy, RecompilePair
from ..lang import ast
from ..lang.compiler import compile_source
from ..lang.errors import LangError
from ..vm.config import VMConfig
from ..vm.errors import (
    ExecutionError,
    FuelExhaustedError,
    StackOverflowError,
    VerificationError,
)
from ..vm.interpreter import Interpreter
from ..vm.opt.artifact_cache import program_digest
from ..vm.opt.jit import JITCompiler
from ..vm.opt.passes import (
    constant_folding,
    dead_code_elimination,
    eliminate_tail_calls,
    inline_calls,
    jump_threading,
    peephole,
)
from ..vm.program import Program
from .render import render_module

#: Every optimization pass, by the short name variants are labeled with.
PASS_REGISTRY: tuple[tuple[str, object], ...] = (
    ("constant_folding", constant_folding),
    ("peephole", peephole),
    ("dce", dead_code_elimination),
    ("jump_threading", jump_threading),
    ("inline", inline_calls),
    ("tail_call", eliminate_tail_calls),
)

#: VM configuration for fuzz runs: the default cost model with a tighter
#: fuel guard (generated programs run in thousands of instructions, so a
#: runaway case fails fast instead of burning the default 200M budget).
FUZZ_CONFIG = VMConfig(max_instructions=2_000_000)

#: Sample interval of the adaptive configs, in virtual cycles: a small
#: prime, so ticks fall every few dozen instructions and at no fixed
#: offset within a loop body.
ADAPTIVE_INTERVAL = 53


@dataclass(frozen=True)
class Variant:
    """One cell of the differential matrix: a compilation config on an engine.

    ``config`` names the compilation configuration. ``level`` None leaves
    every method at baseline, otherwise every method is forced to
    ``level`` on first invocation; ``tier_passes`` overrides the pass
    pipelines (single-pass configs). ``engine`` selects the dispatch
    engine; a config's ``reference`` run is the oracle for its other
    engines. ``controller`` attaches a sample listener that recompiles
    while the program runs: ``adaptive`` or ``plan``.
    """

    config: str
    level: int | None = None
    tier_passes: dict[int, tuple] | None = None
    engine: str = "reference"
    controller: str | None = None

    @property
    def name(self) -> str:
        """``L2`` for a config's reference run, ``L2:compiled`` otherwise."""
        if self.engine == "reference":
            return self.config
        return f"{self.config}:{self.engine}"

    def owns(self, label: str) -> bool:
        """Whether finding *label* (:attr:`Divergence.label`) is this
        variant's: a config label is the reference run's name, an engine
        label the variant's name plus the diverging field."""
        if self.engine == "reference":
            return label == self.name
        return label.startswith(f"{self.name}:")


def default_variants() -> tuple[Variant, ...]:
    """The full matrix: every config crossed with every engine."""
    configs = [Variant("base")]
    configs += [Variant(f"L{level}", level) for level in (0, 1, 2)]
    for name, fn in PASS_REGISTRY:
        configs.append(Variant(f"pass:{name}", 2, {2: (fn,)}))
    configs += [
        Variant("adaptive", controller="adaptive"),
        Variant("plan", controller="plan"),
    ]
    return tuple(
        replace(config, engine=engine)
        for config in configs
        for engine in ("reference", "fast", "compiled")
    )


#: The oracle every config is judged against.
REFERENCE = Variant("base")


@dataclass(frozen=True)
class Outcome:
    """What one execution observed.

    ``kind`` is ``ok`` (ran to completion), ``error`` (a program fault —
    must reproduce identically in every variant), or ``resource``
    (fuel/stack limit). A faulted run records only its fault type,
    output and heap summary; a completed one also records its clocks,
    samples, per-method accounts and compile events.
    """

    kind: str
    value: str = ""
    error: str = ""
    output: tuple[str, ...] = ()
    heap: tuple = ()
    total_cycles: float = 0.0
    compile_cycles: float = 0.0
    instructions: int = 0
    samples: tuple = ()
    method_cycles: tuple = ()
    method_work: tuple = ()
    final_levels: tuple = ()
    compile_events: tuple = ()

    def describe(self) -> str:
        if self.kind == "ok":
            return f"result={self.value} output={len(self.output)} lines"
        return f"{self.kind}:{self.error}"


#: What a config's reference run must share with ``base``.
_CONFIG_FIELDS = ("kind", "value", "error", "output", "heap")
#: What an engine must share with its config's reference when either faulted.
_FAULT_FIELDS = ("kind", "error", "output", "heap")
#: What an engine must share with its config's reference otherwise.
_ENGINE_FIELDS = tuple(f.name for f in fields(Outcome))


@dataclass(frozen=True)
class Divergence:
    """One observable on which a variant disagreed with its oracle."""

    variant: Variant
    field: str
    expected: str
    observed: str

    @property
    def label(self) -> str:
        """The finding label: the config name for a config divergence
        (``pass:dce``), ``<config>:<engine>:<field>`` for an engine
        divergence (``L2:compiled:total_cycles``)."""
        if self.variant.engine == "reference":
            return self.variant.name
        return f"{self.variant.name}:{self.field}"

    def describe(self) -> str:
        return (
            f"{self.variant.name}: {self.field} expected {self.expected}, "
            f"got {self.observed}"
        )


@dataclass
class DifferentialReport:
    """Outcome matrix of one program under every variant."""

    reference: Outcome  # the base reference run
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    skipped: bool = False  # base hit a resource limit: configs not compared

    def labels(self) -> tuple[str, ...]:
        """Distinct finding labels, in matrix order."""
        return tuple(dict.fromkeys(d.label for d in self.divergences))


def _heap_summary(interp: Interpreter) -> tuple:
    heap = interp.intrinsic_ctx.heap
    stats = heap.stats
    return (
        heap.policy,
        stats.allocation_count,
        stats.allocated_bytes,
        stats.gc_count,
        stats.gc_pause_cycles,
        stats.peak_live_bytes,
    )


def seeded_plan(program: Program, rng_seed: int = 0) -> PairStrategy:
    """A Rep-shaped plan for the ``plan`` config: up to two recompile
    pairs per method, drawn from a seed of *rng_seed* and the program's
    code, so a program always gets the same plan."""
    rng = Random(f"{rng_seed}:{program_digest(program)}")
    plans = {}
    for name in sorted(program.method_names):
        n = rng.randint(0, 2)
        if n:
            thresholds = sorted(rng.sample(range(1, 9), n))
            levels = sorted(rng.sample((0, 1, 2), n))
            plans[name] = tuple(
                RecompilePair(k, level) for k, level in zip(thresholds, levels)
            )
    return PairStrategy(plans)


def execute_variant(
    program: Program,
    args: tuple,
    variant: Variant,
    config: VMConfig = FUZZ_CONFIG,
    rng_seed: int = 0,
) -> Outcome:
    """Run *program* as one variant of the matrix."""
    if variant.controller is not None:
        config = replace(config, sample_interval=ADAPTIVE_INTERVAL)
    jit = JITCompiler(program, config, tier_passes=variant.tier_passes)
    level = variant.level
    hook = None if level is None else (lambda name: level)
    interp = Interpreter(
        program,
        config=config,
        rng_seed=rng_seed,
        jit=jit,
        first_invocation_hook=hook,
        engine=variant.engine,
    )
    if variant.controller == "adaptive":
        AdaptiveController(interp)
    elif variant.controller == "plan":
        PairPlanController(interp, seeded_plan(program, rng_seed))
    try:
        interp.run(args)
    except ExecutionError as exc:
        # Compare faults by type: the message may embed configuration-
        # dependent detail (pcs shift under optimization), but whether and
        # how a program faults must not change.
        limit = isinstance(exc, (FuelExhaustedError, StackOverflowError))
        return Outcome(
            kind="resource" if limit else "error",
            error=type(exc).__name__,
            output=tuple(interp.output),
            heap=_heap_summary(interp),
        )
    profile = interp.profile
    return Outcome(
        kind="ok",
        value=repr(interp.result),
        output=tuple(interp.output),
        heap=_heap_summary(interp),
        total_cycles=profile.total_cycles,
        compile_cycles=profile.compile_cycles,
        instructions=profile.instructions_executed,
        samples=tuple(sorted(profile.samples.items())),
        method_cycles=tuple(sorted(profile.method_cycles.items())),
        method_work=tuple(sorted(profile.method_work.items())),
        final_levels=tuple(sorted(profile.final_levels.items())),
        compile_events=tuple(
            (e.method, e.level, e.cycles, e.at_clock)
            for e in profile.compile_events
        ),
    )


def run_differential(
    program: Program,
    args: tuple,
    variants: tuple[Variant, ...] | None = None,
    config: VMConfig = FUZZ_CONFIG,
    rng_seed: int = 0,
) -> DifferentialReport:
    """Run *program* through the matrix and judge every variant.

    *variants* (default: the full matrix) are the cells judged. The
    ``base`` reference and the reference run of every config they name
    always execute, since they are the oracles; minimization narrows
    *variants* to the cells that diverged.
    """
    if variants is None:
        variants = default_variants()
    base = execute_variant(program, args, REFERENCE, config, rng_seed)
    report = DifferentialReport(
        reference=base, skipped=base.kind == "resource"
    )
    oracles = {REFERENCE.config: base}
    for variant in variants:
        oracle = oracles.get(variant.config)
        if oracle is None:
            oracle = oracles[variant.config] = execute_variant(
                program, args, replace(variant, engine="reference"),
                config, rng_seed,
            )
        if variant.engine == "reference":
            expected, observed = base, oracle
            checked = () if report.skipped else _CONFIG_FIELDS
        else:
            expected = oracle
            observed = execute_variant(program, args, variant, config, rng_seed)
            both_ok = expected.kind == observed.kind == "ok"
            checked = _ENGINE_FIELDS if both_ok else _FAULT_FIELDS
        report.outcomes[variant.name] = observed
        for name in checked:
            a = getattr(expected, name)
            b = getattr(observed, name)
            if a != b:
                report.divergences.append(
                    Divergence(variant, name, repr(a), repr(b))
                )
    return report


def compile_module(module: ast.Module) -> Program:
    """Compile an AST module through the full front end (render + parse),
    so exactly what a corpus file replays is what gets checked."""
    return compile_source(render_module(module), name="fuzz")


def module_diverges(
    module: ast.Module,
    args: tuple,
    variants: tuple[Variant, ...] | None = None,
) -> bool:
    """True when *module* compiles and one of *variants* diverges.

    Invalid candidates (the minimizer produces plenty) count as
    non-diverging rather than erroring out.
    """
    try:
        program = compile_module(module)
    except (LangError, VerificationError):
        return False
    return bool(run_differential(program, args, variants).divergences)
