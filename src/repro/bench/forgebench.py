"""Wall-clock benchmark for the forge dataset factory.

The forge (:mod:`repro.learning.forge`) is the repository's bulk
producer of training rows: generated programs are labeled once per
input by the forked-run labeler and streamed into shards that train the
cross-program prior. This module times the two halves that dominate a
forge run:

1. **Fork speedup** — the forked-run labeler
   (:func:`~repro.learning.forge.labeler.label_forked`) against the
   independent-runs baseline
   (:func:`~repro.learning.forge.labeler.label_naive`) over a seeded
   program sample, asserting the labels are bit-identical
   (:func:`~repro.learning.forge.labeler.labels_equal`) — the same
   machine-independent speedup-ratio shape as the engine gates.
2. **Pipeline throughput** — a small end-to-end
   :func:`~repro.learning.forge.pipeline.run_forge` (generate →
   fork-label → shard → train), in labeled rows per second generated
   and trained.

Results land in the ``datagen`` section of ``BENCH_vm.json`` (schema
v5); CI's regression gate compares the fork speedup against the
checked-in baseline.
"""

from __future__ import annotations

import tempfile
import time

from ..learning.forge.labeler import (
    FORGE_CONFIG,
    label_forked,
    label_naive,
    labels_equal,
)
from ..learning.forge.pipeline import input_args, run_forge
from ..testing.differential import compile_module
from ..testing.generator import generate
from ..vm.opt.jit import JITCompiler

#: (programs, inputs per program) for the fork-vs-naive timing. Twelve
#: inputs per program is the deep-run shape: the forked labeler's
#: advantage comes from amortizing baseline snapshots, codegen, and the
#: shadow plan across a program's whole input batch, so the speedup
#: grows with the batch (at 1–2 inputs per program the two paths are
#: close; per-program variance also needs ≥ ~12 programs to average
#: out).
_FORK_SIZES = {"quick": (12, 12), "full": (24, 12)}

#: (programs, inputs per program) for the end-to-end pipeline timing.
_PIPE_SIZES = {"quick": (30, 4), "full": (100, 6)}


def bench_fork(quick: bool = False, seed: int = 0) -> dict:
    """Time forked vs. independent-runs labeling on one program sample.

    Each path gets its own per-program :class:`JITCompiler` (neither
    warms the other); the forked path also reuses its per-program plan
    cache across inputs, exactly as the pipeline worker does.
    """
    programs, inputs = _FORK_SIZES["quick" if quick else "full"]
    naive_wall = 0.0
    forked_wall = 0.0
    pairs = 0
    identical = True
    for index in range(programs):
        gp = generate(seed, index)
        program = compile_module(gp.module)
        arg_sets = [
            input_args(seed, index, k, gp.args) for k in range(inputs)
        ]

        start = time.perf_counter()
        naive = [
            label_naive(program, args, config=FORGE_CONFIG)
            for args in arg_sets
        ]
        naive_wall += time.perf_counter() - start

        jit = JITCompiler(program, FORGE_CONFIG)
        plan_cache: dict = {}
        start = time.perf_counter()
        forked = [
            label_forked(
                program,
                args,
                config=FORGE_CONFIG,
                jit=jit,
                plan_cache=plan_cache,
            )
            for args in arg_sets
        ]
        forked_wall += time.perf_counter() - start

        pairs += len(arg_sets)
        for a, b in zip(naive, forked):
            if not labels_equal(a, b):  # pragma: no cover
                identical = False
    return {
        "programs": programs,
        "pairs": pairs,
        "naive_wall_s": naive_wall,
        "forked_wall_s": forked_wall,
        "speedup": naive_wall / forked_wall,
        "identical_labels": identical,
    }


def bench_pipeline(quick: bool = False, seed: int = 0) -> dict:
    """Time one end-to-end forge run (rows generated + prior trained)."""
    programs, inputs = _PIPE_SIZES["quick" if quick else "full"]
    with tempfile.TemporaryDirectory() as tmp:
        stats, _prior = run_forge(
            tmp,
            programs=programs,
            inputs_per_program=inputs,
            seed=seed,
            jobs=1,
        )
    return {
        "programs": stats.programs,
        "inputs_per_program": stats.inputs_per_program,
        "rows": stats.rows,
        "shards": stats.shards,
        "max_resident_rows": stats.max_resident_rows,
        "label_wall_s": stats.label_s,
        "train_wall_s": stats.train_s,
        "rows_per_s_generated": stats.rows_per_s_generated,
        "rows_per_s_trained": stats.rows_per_s_trained,
        "trained": stats.trained,
    }


def bench_datagen(quick: bool = False) -> dict:
    """The ``datagen`` section of the bench report."""
    return {
        "fork": bench_fork(quick=quick),
        "pipeline": bench_pipeline(quick=quick),
    }


def format_datagen(section: dict) -> list[str]:
    fork = section["fork"]
    pipe = section["pipeline"]
    return [
        (
            f"datagen fork: {fork['pairs']} pair(s), naive "
            f"{fork['naive_wall_s']:.2f}s vs forked "
            f"{fork['forked_wall_s']:.2f}s ({fork['speedup']:.2f}x, "
            f"labels {'identical' if fork['identical_labels'] else 'DIVERGED'})"
        ),
        (
            f"datagen pipeline: {pipe['rows']} row(s) in "
            f"{pipe['shards']} shard(s), "
            f"{pipe['rows_per_s_generated']:.0f} rows/s generated, "
            f"{pipe['rows_per_s_trained']:.0f} rows/s trained"
        ),
    ]
