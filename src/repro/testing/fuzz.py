"""Fuzz driver: generate → differential-check → minimize → store.

Ties the subsystem together. Iterations are deterministic in the fuzz
seed (iteration *i* is exactly ``generate(seed, i)``), sliced into
fixed-size chunks and fanned out through the experiment engine's
:func:`~repro.experiments.parallel.map_parallel` — the same process-pool
(with inline fallback) that powers parallel sweeps. Workers only report
*which* iterations diverged and the labels of what diverged; the parent
regenerates those programs, delta-debugs them down to minimal
reproducers, and (optionally) writes them to the regression corpus.

A finding is reproducible from ``(seed, index)`` alone, so a report
line is enough to replay any failure locally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..experiments.parallel import map_parallel
from ..lang.compiler import compile_source
from .corpus import save_reproducer
from .differential import (
    compile_module,
    default_variants,
    module_diverges,
    run_differential,
)
from .generator import generate
from .minimize import minimize
from .render import render_module

#: Iterations per worker chunk. Fixed (not derived from the job count) so
#: the set of programs checked is independent of ``--jobs``.
CHUNK = 25


@dataclass(frozen=True)
class FuzzFinding:
    """One diverging program, after minimization."""

    seed: int
    index: int
    args: tuple
    divergent: tuple[str, ...]
    source: str
    instructions: int
    reproducer: str | None = None

    def describe(self) -> str:
        return (
            f"seed={self.seed} index={self.index} "
            f"variants={','.join(self.divergent)} "
            f"minimized to {self.instructions} instruction(s)"
        )


@dataclass
class FuzzReport:
    """What one fuzz campaign checked and what it found."""

    seed: int
    iterations: int
    checked: int = 0
    skipped: int = 0
    findings: list[FuzzFinding] = field(default_factory=list)
    wall_s: float = 0.0
    parallel: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        mode = "parallel" if self.parallel else "inline"
        return (
            f"{self.checked}/{self.iterations} program(s) checked ({mode}), "
            f"{self.skipped} skipped, {len(self.findings)} divergence(s), "
            f"{self.wall_s:.2f}s wall"
        )


def _fuzz_chunk(spec: tuple) -> tuple[int, int, list[tuple[int, tuple[str, ...]]]]:
    """Worker: check one iteration range, report diverging indices.

    Picklable top-level function; the payload stays tiny (counts plus
    ``(index, labels)`` pairs) so chunk results are cheap to ship back
    from pool workers.
    """
    seed, start, stop, deadline = spec
    checked = 0
    skipped = 0
    hits: list[tuple[int, tuple[str, ...]]] = []
    for index in range(start, stop):
        if deadline is not None and time.time() >= deadline:
            break
        case = generate(seed, index)
        program = compile_source(case.source, name=f"fuzz_s{seed}_i{index}")
        report = run_differential(program, case.args)
        checked += 1
        if report.skipped:
            skipped += 1
        if report.divergences:
            hits.append((index, report.labels()))
    return checked, skipped, hits


def run_fuzz(
    seed: int = 0,
    iterations: int = 200,
    *,
    time_budget: float | None = None,
    jobs: int = 1,
    corpus_dir: str | None = None,
) -> FuzzReport:
    """Run a fuzz campaign; returns a report whose ``ok`` means no findings.

    Every program goes through the full differential matrix
    (:func:`~repro.testing.differential.run_differential`).
    ``time_budget`` (seconds) caps wall-clock: chunks past the deadline
    stop checking, so ``checked`` may fall short of ``iterations``. A
    finding shrinks for as long as one of the variants that diverged
    still diverges, so the reproducer keeps its class.
    """
    clock = time.perf_counter()
    deadline = time.time() + time_budget if time_budget is not None else None
    chunks = [
        (seed, start, min(start + CHUNK, iterations), deadline)
        for start in range(0, iterations, CHUNK)
    ]
    results, parallel = map_parallel(_fuzz_chunk, chunks, max(1, jobs))
    report = FuzzReport(seed=seed, iterations=iterations, parallel=parallel)
    hits: list[tuple[int, tuple[str, ...]]] = []
    for checked, skipped, chunk_hits in results:
        report.checked += checked
        report.skipped += skipped
        hits.extend(chunk_hits)

    for index, divergent in sorted(hits):
        case = generate(seed, index)
        variants = tuple(
            v for v in default_variants()
            if any(v.owns(label) for label in divergent)
        )
        module = minimize(
            case.module, lambda m: module_diverges(m, case.args, variants)
        )
        source = render_module(module)
        instructions = compile_module(module).total_size()
        reproducer = None
        if corpus_dir is not None:
            reproducer = str(
                save_reproducer(
                    corpus_dir,
                    source,
                    seed=seed,
                    index=index,
                    args=case.args,
                    divergent=divergent,
                )
            )
        report.findings.append(
            FuzzFinding(
                seed=seed,
                index=index,
                args=case.args,
                divergent=divergent,
                source=source,
                instructions=instructions,
                reproducer=reproducer,
            )
        )
    report.wall_s = time.perf_counter() - clock
    return report
