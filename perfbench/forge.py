"""``forge-label``: ``run_forge`` with the default ``fuzz`` input profile
and ``jobs=1``: generate → fork-label → shard → train the prior.

Generated programs have a heavy-tailed cost: a few in a hundred run
orders of magnitude longer than the rest. So a run is many small rounds
of ``PROGRAMS`` programs each (a fresh output directory and the whole
pipeline), and the figures are medians over rounds, which the rare
heavy program cannot swing. Rounds make whole passes over the forge
seeds ``0 .. POOL - 1``, in an order ``--seed`` rotates: rounds drawn
afresh for each run moved the median by 10 % or more between runs.
Each round runs ``REPEATS`` times and counts its least CPU time, which
a busy moment on a shared host can only inflate.
"""

from __future__ import annotations

import json
import time
from random import Random

from .common import (
    Context, Result, another_pass_round, median, remove_tree, tree_cpu_s,
)

PROGRAMS = 2
INPUTS = 8
REPEATS = 3
#: Forge seeds one pass of the timed rounds covers.
POOL = 100
#: Rounds of the traced run's fixed unit of work.
TRACED_ROUNDS = 40
#: Sampled (round, program, input) pairs re-labeled by ``label_naive``.
CHECKED_PAIRS = 3

#: A user's cold start: the forge's imports and one generated program,
#: the same for every seed (programs differ widely in cost).
SETUP_CODE = """
from repro.learning.forge.pipeline import run_forge
from repro.testing.differential import compile_module
from repro.testing.generator import generate
compile_module(generate(0, 0).module)
"""


def forge_round(ctx: Context, seed: int):
    """One pipeline run; returns (stats, wall_s, cpu_s, output dir)."""
    from repro.learning.forge.pipeline import run_forge

    out = ctx.fresh_dir("forge-")
    cpu = tree_cpu_s()
    start = time.perf_counter()
    stats, _prior = run_forge(out, PROGRAMS, INPUTS, seed=seed, jobs=1)
    wall = time.perf_counter() - start
    return stats, wall, tree_cpu_s() - cpu, out


def check_round(stats, result: Result) -> None:
    result.attempted += PROGRAMS * INPUTS
    result.fail(stats.pairs_faulted, "forge pairs faulted")
    result.fail(0 if stats.trained else 1, "forge round trained no prior")


def shard_rows(out) -> dict[tuple[str, str], object]:
    """``(values as JSON, method) -> label`` for every row written."""
    from repro.learning.forge.shards import ShardStore

    rows = {}
    for shard in ShardStore(out).iter_shards():
        for values, label, group in zip(shard.values, shard.labels,
                                        shard.groups):
            rows[(json.dumps(list(values)), group)] = label
    return rows


def expected_rows(labels, program, args) -> dict[tuple[str, str], object]:
    """The rows the forge must have written for one labeled pair."""
    from repro.learning.forge.features import program_features, row_values

    pfeats = program_features(program)
    rows = {}
    for method in sorted(labels.labels):
        ideal = labels.labels[method].ideal
        if ideal is None:
            continue
        values = row_values(pfeats, program.method(method), args)
        rows[(json.dumps(list(values)), method)] = ideal
    return rows


def count_row_mismatches(expected: dict, written: dict) -> int:
    return sum(written.get(key, object()) != label
               for key, label in expected.items())


def pair_check(seed: int, index: int, k: int, written: dict) -> int:
    """Re-label one pair naively: the forked labeler must agree bit for
    bit and the forge output must hold exactly the naive rows. Returns
    the number of disagreements."""
    from repro.learning.forge.labeler import (
        label_forked, label_naive, labels_equal,
    )
    from repro.learning.forge.pipeline import input_args
    from repro.testing.differential import compile_module
    from repro.testing.generator import generate

    generated = generate(seed, index)
    program = compile_module(generated.module)
    args = input_args(seed, index, k, generated.args)
    naive = label_naive(program, args)
    bad = 0 if labels_equal(label_forked(program, args), naive) else 1
    return bad + count_row_mismatches(
        expected_rows(naive, program, args), written
    )


def sample_check(ctx: Context, outputs: list, result: Result) -> None:
    """*outputs* holds (round seed, output dir) of the first rounds."""
    rng = Random(ctx.seed * 31 + 5)
    picks = rng.sample(
        [(r, i, k) for r in range(len(outputs)) for i in range(PROGRAMS)
         for k in range(INPUTS)],
        CHECKED_PAIRS,
    )
    for r, index, k in picks:
        seed, out = outputs[r]
        result.attempted += 1
        result.fail(
            pair_check(seed, index, k, shard_rows(out)),
            f"pair ({seed}, {index}, {k}) differs from label_naive",
        )
    result.note("label_naive pairs: " + ", ".join(
        f"(round {r}, program {i}, input {k})" for r, i, k in picks
    ))


def round_seed(ctx: Context, i: int) -> int:
    """Forge seed of round *i*: the pool, rotated by ``--seed``."""
    return (ctx.seed + i) % POOL


def _rounds(ctx: Context, count: int | None, result: Result,
            repeats: int = 1):
    """Run *count* rounds (or, with ``None``, whole passes over the pool
    while the time allows); keep the first two output directories for
    the check. Each round runs *repeats* times and keeps its least CPU
    time."""
    rounds = []
    kept = []
    start = time.perf_counter()
    while (len(rounds) < count if count is not None
           else another_pass_round(len(rounds), POOL, start, ctx.seconds)):
        seed = round_seed(ctx, len(rounds))
        runs = []
        for _ in range(repeats):
            stats, wall, cpu, out = forge_round(ctx, seed)
            check_round(stats, result)
            runs.append((stats.rows, wall, cpu))
            if len(kept) < 2 and len(runs) == 1:
                kept.append((seed, out))
            else:
                remove_tree(out)
        result.fail(
            sum(r[0] != runs[0][0] for r in runs),
            "a repeated forge round wrote a different row count",
        )
        rounds.append((runs[0][0], min(r[1] for r in runs),
                       min(r[2] for r in runs)))
    return rounds, kept


def run(ctx: Context) -> Result:
    result = Result()
    if ctx.trace:
        return _traced(ctx, result)
    setup = ctx.cold_start_s(SETUP_CODE)
    rounds, kept = _rounds(ctx, None, result, REPEATS)
    sample_check(ctx, kept, result)
    rows = sum(r[0] for r in rounds)
    wall = sum(r[1] for r in rounds)
    result.end_to_end = {
        "setup_s": median(setup),
        "throughput_per_cpu_s": median([r / c for r, _, c in rounds]),
    }
    result.note(
        f"{len(rounds)} rounds of {PROGRAMS} programs x {INPUTS} inputs, "
        f"best of {REPEATS} repeats each: "
        f"{rows} rows in {wall:.2f} s (aggregate {rows / wall:.1f} rows/s; "
        f"median round {median([r / w for r, w, _ in rounds]):.1f} rows/s, "
        f"{result.end_to_end['throughput_per_cpu_s']:.1f} rows per CPU-s, "
        f"latency {median([w for _, w, _ in rounds]) * 1000:.1f} ms)"
    )
    return result


def _traced(ctx: Context, result: Result) -> Result:
    """``TRACED_ROUNDS`` rounds untraced, then the same rounds traced."""
    from . import layers
    from .trace import Tracer

    plain, kept = _rounds(ctx, TRACED_ROUNDS, result)
    sample_check(ctx, kept, result)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced, _ = _rounds(ctx, TRACED_ROUNDS, result)
    finally:
        tracer.uninstall()
    result.fail(
        sum(a[0] != b[0] for a, b in zip(plain, traced)),
        "traced rounds wrote different row counts",
    )
    tracer.dump(ctx.trace_file())
    per_layer = layers.metrics(tracer.snapshot())
    plain_wall = sum(r[1] for r in plain)
    traced_wall = sum(r[1] for r in traced)
    per_layer["workload.units"] = sum(r[0] for r in traced)
    per_layer["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    result.per_layer = per_layer
    result.guards = {
        name: per_layer[name]
        for name in ("workload.units", "forge.children", "vm.instructions",
                     "jit.compiles")
    }
    result.note(
        f"untraced {plain_wall:.2f} s, traced {traced_wall:.2f} s"
    )
    return result
