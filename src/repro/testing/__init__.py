"""Differential fuzzing & invariant harness for the VM/JIT pipeline.

Pieces, in data-flow order:

- :mod:`.generator` — seeded random MiniLang program generator
  (terminating, fault-free, numerically tame by construction);
- :mod:`.render` — AST → MiniLang source, so corpus entries are plain
  readable programs;
- :mod:`.differential` — the one oracle: one program through a matrix
  of variants, every compilation config (``base``, every opt level,
  every single-pass pipeline) crossed with every engine (``reference``,
  ``fast``, ``compiled``). Each engine must match the reference engine
  at its own config on every observable, clocks included; each config
  must match the ``base`` reference on result, output trace and
  heap-effect summary;
- :mod:`.minimize` — delta-debugging reducer for diverging programs;
- :mod:`.corpus` — minimized reproducers stored under ``tests/corpus/``
  and replayed by the tier-1 suite;
- :mod:`.fuzz` — the campaign driver behind ``repro fuzz``.
"""

from .corpus import CorpusEntry, load_corpus, replay_corpus, save_reproducer
from .differential import (
    FUZZ_CONFIG,
    PASS_REGISTRY,
    REFERENCE,
    DifferentialReport,
    Divergence,
    Outcome,
    Variant,
    compile_module,
    default_variants,
    execute_variant,
    module_diverges,
    run_differential,
)
from .fuzz import FuzzFinding, FuzzReport, run_fuzz
from .generator import GeneratedProgram, generate, generate_batch
from .minimize import minimize
from .render import render_module

__all__ = [
    "CorpusEntry",
    "DifferentialReport",
    "Divergence",
    "FUZZ_CONFIG",
    "FuzzFinding",
    "FuzzReport",
    "GeneratedProgram",
    "Outcome",
    "PASS_REGISTRY",
    "REFERENCE",
    "Variant",
    "compile_module",
    "default_variants",
    "execute_variant",
    "generate",
    "generate_batch",
    "load_corpus",
    "minimize",
    "module_diverges",
    "render_module",
    "replay_corpus",
    "run_differential",
    "run_fuzz",
    "save_reproducer",
]
