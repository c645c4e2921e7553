"""Shared pieces of the three workloads: statistics, scratch space,
set-up timing, memory and the result record."""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Cold starts per set-up measurement; ``setup_s`` is their median.
SETUP_REPEATS = 5


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def children_cpu_s() -> float:
    """CPU time of every child process waited for so far (and of their
    waited-for descendants)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def tree_cpu_s() -> float:
    """CPU time of this process plus its waited-for descendants.

    The benchmark's time metrics are CPU seconds: on a shared virtual
    machine, scheduling stalls inflate wall-clock figures of the
    multi-process fleet by tens of percent from one minute to the next.
    """
    return time.process_time() + children_cpu_s()


def peak_rss_mb() -> float:
    """Peak resident set of the largest process of the run: this one, or
    the largest child it has waited for (the fleet's shard workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Context:
    """What every workload gets: its arguments and where it may write."""

    root: Path
    seed: int
    seconds: float
    trace: bool
    scratch: Path
    #: Where a traced run writes its spans, and the file-name prefix.
    trace_dir: Path
    tag: str

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def trace_file(self, suffix: str = "") -> str:
        self.trace_dir.mkdir(exist_ok=True)
        return str(self.trace_dir / f"{self.tag}{suffix}.json")

    def cold_start_s(self, code: str) -> list[float]:
        """CPU time of ``SETUP_REPEATS`` fresh interpreters running *code*,
        each with the processes it starts.

        This is the set-up a user pays on every invocation: interpreter
        start, imports, and whatever *code* builds before the first
        unit of work.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        times = []
        for _ in range(SETUP_REPEATS):
            start = children_cpu_s()
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=self.scratch, env=env, check=True,
                stdout=subprocess.DEVNULL,
            )
            times.append(children_cpu_s() - start)
        return times


@dataclass
class Result:
    """One workload run: metrics plus the output-check tally."""

    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Deterministic counts of the traced pass, compared against
    #: ``guards.json``; they must repeat exactly for a seed.
    guards: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            self.note(f"FAILED x{n}: {why}")


def another_pass_round(done: int, pool: int, started: float,
                       seconds: float) -> bool:
    """Whether to start one more round when rounds make whole passes over
    a pool of *pool* inputs: finish every pass begun, and begin another
    only if it should end within *seconds* (15 % slack) of *started*."""
    if done % pool or not done:
        return True
    elapsed = time.perf_counter() - started
    return elapsed * (done + pool) / done <= seconds * 1.15


def count_mismatches(expected: list, got: list) -> int:
    """Items that differ position by position, plus missing or extra
    ones."""
    return sum(a != b for a, b in zip(expected, got)) + abs(
        len(expected) - len(got)
    )


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
