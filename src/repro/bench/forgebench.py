"""Bench section for the forge's forked-run labeler.

The forge (:mod:`repro.learning.forge`) is the repository's bulk
producer of training rows: generated programs are labeled once per
input by the forked-run labeler and streamed into shards that train the
cross-program prior. This module times the labeler
(:func:`~repro.learning.forge.labeler.label_forked`) against the
independent-runs baseline
(:func:`~repro.learning.forge.labeler.label_naive`) over a seeded
program sample, asserting the labels are bit-identical
(:func:`~repro.learning.forge.labeler.labels_equal`) — the same
machine-independent speedup-ratio shape as the engine gates. End-to-end
forge throughput is perfbench's ``forge-label`` workload.

Results land in the ``datagen`` section of ``BENCH_vm.json``; CI's
regression gate compares the fork speedup against the checked-in
baseline.
"""

from __future__ import annotations

import time

from ..learning.forge.labeler import (
    FORGE_CONFIG,
    label_forked,
    label_naive,
    labels_equal,
)
from ..learning.forge.pipeline import input_args
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


def bench_datagen(quick: bool = False) -> dict:
    """The ``datagen`` section of the bench report."""
    return {"fork": bench_fork(quick=quick)}


def format_datagen(section: dict) -> list[str]:
    fork = section["fork"]
    return [
        f"datagen fork: {fork['pairs']} pair(s), naive "
        f"{fork['naive_wall_s']:.2f}s vs forked "
        f"{fork['forked_wall_s']:.2f}s ({fork['speedup']:.2f}x, "
        f"labels {'identical' if fork['identical_labels'] else 'DIVERGED'})"
    ]
