"""The forge pipeline: generate → fork-label → shard → train, in parallel.

End-to-end dataset factory. Programs come from the differential-fuzzing
generator (pure function of ``(seed, index)``), each is labeled for
several inputs by the forked-run labeler (one shared
:class:`~repro.vm.opt.jit.JITCompiler` and plan cache per program, so
host codegen amortizes across inputs), rows stream through a
:class:`~.shards.ShardWriter`, and a :class:`~.prior.CrossProgramPrior`
trains on the result via ``refit_all(jobs=N)``.

Determinism: the work list is chunked by a *fixed* chunk size (not by
``jobs``), chunks are generated independently (pure ``(seed, index)``
streams), and :func:`~repro.experiments.parallel.map_parallel` returns
results in item order — so the shard stream, and therefore the trained
prior, is bit-identical across ``jobs`` settings and across the
inline-fallback path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from ...experiments.parallel import map_parallel
from ...testing.differential import compile_module
from ...testing.generator import generate
from ...vm.opt.jit import JITCompiler
from .features import forge_columns, forge_kinds, program_features, row_values
from .labeler import FORGE_CONFIG, label_forked
from .prior import CrossProgramPrior
from .shards import ShardStore, ShardWriter

#: Programs per parallel work item. Fixed (never derived from ``jobs``)
#: so the row stream is identical at any parallelism.
CHUNK_PROGRAMS = 20


@dataclass
class ForgeStats:
    """Throughput accounting for one forge run."""

    programs: int = 0
    inputs_per_program: int = 0
    pairs_labeled: int = 0
    pairs_faulted: int = 0
    rows: int = 0
    shards: int = 0
    max_resident_rows: int = 0
    label_s: float = 0.0
    train_s: float = 0.0
    rows_per_s_generated: float = 0.0
    rows_per_s_trained: float = 0.0
    parallel: bool = False
    trained: bool = False
    clusters: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "programs": self.programs,
            "inputs_per_program": self.inputs_per_program,
            "pairs_labeled": self.pairs_labeled,
            "pairs_faulted": self.pairs_faulted,
            "rows": self.rows,
            "shards": self.shards,
            "max_resident_rows": self.max_resident_rows,
            "label_s": round(self.label_s, 3),
            "train_s": round(self.train_s, 3),
            "rows_per_s_generated": round(self.rows_per_s_generated, 1),
            "rows_per_s_trained": round(self.rows_per_s_trained, 1),
            "parallel": self.parallel,
            "trained": self.trained,
            "clusters": list(self.clusters),
        }


#: Repetition-count ladder of the ``"workload"`` input profile. The
#: generator's programs are deliberately tiny (all loops iterate ≤ 6
#: constant times), so per-method work never crosses the cost model's
#: compile-or-not threshold and every ideal label is baseline. Driving
#: the same program ``reps`` times from a wrapper ``main`` scales work
#: linearly; this ladder straddles the crossover — small reps keep the
#: ideal at −1, large reps promote the hot methods — which is what
#: makes the labels *input-dependent* and the prior discriminative.
WORKLOAD_REPS = (1, 8, 40, 200, 1000)


def wrap_workload(module):
    """Wrap a generated module in a repetition driver.

    The original ``main`` is renamed ``app`` and a new ``main(reps,
    …)`` calls it in a counted loop. The generator never emits calls to
    ``main`` (recursion goes through dedicated ``r*`` functions) and
    never uses the name ``app``, so the rename is safe.
    """
    from ...lang import ast

    inner = module.function("main")  # KeyError if absent
    params = ("reps",) + tuple(f"w{k}" for k in range(len(inner.params)))
    body = ast.Block(
        statements=(
            ast.VarDecl(name="i", init=ast.IntLit(value=0)),
            ast.While(
                cond=ast.Binary(
                    op="<",
                    left=ast.Name(ident="i"),
                    right=ast.Name(ident="reps"),
                ),
                body=ast.Block(
                    statements=(
                        ast.ExprStmt(
                            expr=ast.Call(
                                callee="app",
                                args=tuple(
                                    ast.Name(ident=p) for p in params[1:]
                                ),
                            )
                        ),
                        ast.Assign(
                            name="i",
                            value=ast.Binary(
                                op="+",
                                left=ast.Name(ident="i"),
                                right=ast.IntLit(value=1),
                            ),
                        ),
                    )
                ),
            ),
            ast.Return(value=ast.Name(ident="i")),
        )
    )
    functions = tuple(
        ast.Function(name="app", params=fn.params, body=fn.body)
        if fn.name == "main"
        else fn
        for fn in module.functions
    )
    driver = ast.Function(name="main", params=params, body=body)
    return ast.Module(functions=functions + (driver,))


def input_args(
    seed: int, index: int, k: int, base_args: tuple, profile: str = "fuzz"
) -> tuple:
    """Deterministic input *k* for program ``(seed, index)``.

    Profile ``"fuzz"`` (the default): input 0 is the generator's own
    argument tuple (fuzz-corpus parity); further inputs redraw each
    argument from the same 0..9 domain the generator uses, under an
    independent seeded stream. At that domain generated programs are
    tiny, so the ideal level is almost always baseline — the right
    corpus for labeler/equivalence checks and throughput benchmarks.

    Profile ``"workload"`` targets programs wrapped by
    :func:`wrap_workload`: it prepends a repetition count drawn from
    :data:`WORKLOAD_REPS` to the 0..9 redraw, so run lengths straddle
    the compile-or-not crossover and ideal labels become
    input-dependent — the corpus the cross-program prior needs to
    learn *discriminative* cold-start advice
    (see ``experiments/coldstart.py``).
    """
    if profile == "fuzz":
        if k == 0 or not base_args:
            return base_args
        rng = Random(seed * 1_000_003 + index * 7919 + k * 65_537 + 2)
        return tuple(rng.randint(0, 9) for _ in base_args)
    if profile != "workload":
        raise ValueError(f"unknown input profile: {profile!r}")
    rng = Random(seed * 1_000_003 + index * 7919 + k * 65_537 + 3)
    return (rng.choice(WORKLOAD_REPS),) + tuple(
        rng.randint(0, 9) for _ in base_args
    )


def _forge_worker(item: tuple) -> tuple[list, int]:
    """Label one chunk of programs; returns (rows, faulted-pair count).

    Each row is ``(values, label, method)`` with values aligned to
    :func:`~.features.forge_columns`. Rows are emitted in
    (program index, input index, method name) order — fully
    deterministic, so the caller can stream them straight into shards.
    """
    seed, start, count, inputs_per_program, profile = item
    rows: list = []
    faulted = 0
    for index in range(start, start + count):
        gp = generate(seed, index)
        module = (
            wrap_workload(gp.module) if profile == "workload" else gp.module
        )
        program = compile_module(module)
        jit = JITCompiler(program, FORGE_CONFIG)
        plan_cache: dict = {}
        pfeats = program_features(program)
        for k in range(inputs_per_program):
            args = input_args(seed, index, k, gp.args, profile=profile)
            labels = label_forked(
                program, args, config=FORGE_CONFIG, jit=jit,
                plan_cache=plan_cache,
            )
            if labels.fault is not None:
                faulted += 1
                continue
            for method in sorted(labels.labels):
                ideal = labels.labels[method].ideal
                if ideal is None:
                    continue
                rows.append(
                    (
                        row_values(pfeats, program.method(method), args),
                        ideal,
                        method,
                    )
                )
    return rows, faulted


def run_forge(
    out_dir: str | Path,
    programs: int,
    inputs_per_program: int = 8,
    *,
    seed: int = 0,
    jobs: int = 1,
    shard_rows: int = 50_000,
    train: bool = True,
    input_profile: str = "fuzz",
) -> tuple[ForgeStats, CrossProgramPrior | None]:
    """Run the full pipeline; returns (stats, trained prior or ``None``).

    Shards land under *out_dir*; with *train* the fitted prior is
    persisted there too (``prior.bin``). Output is bit-identical for
    any ``jobs`` (see module docstring). *input_profile* selects the
    input population (see :func:`input_args`): ``"fuzz"`` for the
    generator-parity 0..9 domain, ``"wide"`` for magnitude-scaled
    inputs whose ideal labels span the optimization levels.
    """
    out_dir = Path(out_dir)
    stats = ForgeStats(
        programs=programs, inputs_per_program=inputs_per_program
    )
    items = [
        (
            seed,
            start,
            min(CHUNK_PROGRAMS, programs - start),
            inputs_per_program,
            input_profile,
        )
        for start in range(0, programs, CHUNK_PROGRAMS)
    ]
    t0 = time.perf_counter()
    results, parallel = map_parallel(_forge_worker, items, jobs)
    writer = ShardWriter(
        out_dir, forge_columns(), forge_kinds(), shard_rows=shard_rows
    )
    for rows, faulted in results:
        stats.pairs_faulted += faulted
        for values, label, method in rows:
            writer.add(values, label, method)
    writer.close()
    stats.label_s = time.perf_counter() - t0
    stats.parallel = parallel
    stats.pairs_labeled = programs * inputs_per_program - stats.pairs_faulted
    stats.rows = writer.rows_written
    stats.shards = writer.shards_written
    stats.max_resident_rows = writer.max_resident_rows
    if stats.label_s > 0:
        stats.rows_per_s_generated = stats.rows / stats.label_s
    prior: CrossProgramPrior | None = None
    if train and stats.rows:
        prior = CrossProgramPrior()
        t0 = time.perf_counter()
        prior.fit_from_store(ShardStore(out_dir), jobs=jobs)
        stats.train_s = time.perf_counter() - t0
        if stats.train_s > 0:
            stats.rows_per_s_trained = stats.rows / stats.train_s
        stats.trained = True
        stats.clusters = list(prior.clusters)
        prior.save(out_dir / "prior.bin")
    return stats, prior
