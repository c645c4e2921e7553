"""The ``repro bench`` suite: same-runner speedup ratios, gated.

Everything else in this repository measures *virtual* cycles, and
``perfbench/`` measures the real workloads end to end. This suite keeps
only what neither of those measures: ratios of two host timings taken on
the same runner, each checked for soundness as it is taken, so a
regression gate on them does not depend on the runner's hardware.

1. **VM engines** (this module) — three workloads (arithmetic loop,
   array sweep, call-heavy) on the reference loop, the fast path and
   the closure-compiled tier, at baseline and at opt level 2,
   best-of-N wall-clock. Results must agree across engines; the
   fast/reference and compiled/reference speedups are gated per row and
   as geomeans.
2. **The learning layer** (:mod:`repro.bench.learnbench`) — the fast
   against the reference tree builder, trees checked identical.
3. **The serving layer** (:mod:`repro.bench.servebench`) — the median
   CPU-time overhead ratio of concurrent serving over serial replay, the
   batched inference kernel against per-row predicts, and (reported,
   not gated) multi-process shard scaling; every result checked
   bit-identical to serial replay.
4. **The data forge** (:mod:`repro.bench.forgebench`) — the forked-run
   labeler against independent-runs labeling, labels checked
   bit-identical.

Results are emitted as a schema-checked ``BENCH_vm.json``.
:func:`compare_to_baseline` gates the ratios against a checked-in
baseline (``benchmarks/BENCH_baseline.json``), which must validate
against the current schema; an older one is rejected, and a report row
the baseline lacks is a failure, not a skipped gate.
"""

from __future__ import annotations

import json
import math
import platform
import time

from ..lang import compile_source
from ..vm import Interpreter

BENCH_SCHEMA_VERSION = 7

#: Workload sources: small MiniLang kernels exercising the three hot shapes
#: the fast engine targets (fused arithmetic loops, array traffic, calls).
WORKLOADS: dict[str, str] = {
    "arith_loop": """
fn main(n) {
  var total = 0;
  var i = 0;
  while (i < n) {
    total = total + i * 3 - (i % 7);
    i = i + 1;
  }
  return total;
}
""",
    "array_sweep": """
fn main(n) {
  var a = array(64);
  var i = 0;
  while (i < n) {
    a[(i % 64)] = a[(i % 64)] + i;
    i = i + 1;
  }
  return a[7];
}
""",
    "call_heavy": """
fn main(n) {
  var total = 0;
  var i = 0;
  while (i < n) {
    total = total + step(i);
    i = i + 1;
  }
  return total;
}
fn step(x) {
  return x * 2 + 1;
}
""",
}

#: Loop trip counts per workload: (quick, full).
_ITERS = {
    "arith_loop": (40_000, 200_000),
    "array_sweep": (30_000, 150_000),
    "call_heavy": (25_000, 120_000),
}

#: Opt levels measured per workload (None = leave everything at baseline).
_LEVELS: tuple[int | None, ...] = (None, 2)

#: Timed runs per engine and row; the row keeps each engine's best.
_REPEATS = 3


def _time_run(program, n: int, engine: str, level: int | None) -> tuple[float, int, object]:
    hook = (lambda _name: level) if level is not None else None
    interp = Interpreter(
        program, first_invocation_hook=hook, engine=engine
    )
    start = time.perf_counter()
    profile = interp.run((n,))
    wall = time.perf_counter() - start
    return wall, profile.instructions_executed, interp.result


def bench_workloads(quick: bool = False) -> list[dict]:
    """Time every workload on all three engines; best of :data:`_REPEATS`
    runs each."""
    rows: list[dict] = []
    for name, source in WORKLOADS.items():
        program = compile_source(source)
        n = _ITERS[name][0 if quick else 1]
        for level in _LEVELS:
            best: dict[str, float] = {}
            instructions = 0
            results: dict[str, object] = {}
            for engine in ("reference", "fast", "compiled"):
                walls = []
                for _ in range(_REPEATS):
                    wall, instructions, result = _time_run(
                        program, n, engine, level
                    )
                    walls.append(wall)
                    results[engine] = result
                best[engine] = min(walls)
            for engine in ("fast", "compiled"):
                if results["reference"] != results[engine]:  # pragma: no cover
                    raise AssertionError(
                        f"engine divergence in workload {name!r}: "
                        f"{results['reference']!r} != {results[engine]!r} "
                        f"({engine})"
                    )
            ref_ips = instructions / best["reference"]
            fast_ips = instructions / best["fast"]
            compiled_ips = instructions / best["compiled"]
            rows.append(
                {
                    "name": name,
                    "level": level,
                    "instructions": instructions,
                    "reference_wall_s": best["reference"],
                    "fast_wall_s": best["fast"],
                    "compiled_wall_s": best["compiled"],
                    "reference_ips": ref_ips,
                    "fast_ips": fast_ips,
                    "compiled_ips": compiled_ips,
                    "speedup": fast_ips / ref_ips,
                    "speedup_compiled": compiled_ips / ref_ips,
                }
            )
    return rows


def geomean(values: list[float]) -> float:
    """Geometric mean of positive *values*: the suite's one aggregate."""
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_report(quick: bool = False) -> dict:
    """Run the full suite and assemble the ``BENCH_vm.json`` payload."""
    from .forgebench import bench_datagen
    from .learnbench import bench_learning
    from .servebench import bench_serving

    workloads = bench_workloads(quick=quick)
    speedups = [row["speedup"] for row in workloads]
    compiled_speedups = [row["speedup_compiled"] for row in workloads]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "workloads": workloads,
        "speedup": {
            "geomean": geomean(speedups),
            "min": min(speedups),
            "max": max(speedups),
        },
        "speedup_compiled": {
            "geomean": geomean(compiled_speedups),
            "min": min(compiled_speedups),
            "max": max(compiled_speedups),
        },
        "learning": bench_learning(quick=quick),
        "serving": bench_serving(quick=quick),
        "datagen": bench_datagen(quick=quick),
    }


def validate_bench_report(report: dict) -> None:
    """Schema-check a bench report; raises ``ValueError`` on violations."""

    def need(mapping, key, kind, where):
        if key not in mapping:
            raise ValueError(f"{where}: missing key {key!r}")
        if not isinstance(mapping[key], kind):
            raise ValueError(
                f"{where}: {key!r} must be {kind}, got {type(mapping[key])}"
            )

    if not isinstance(report, dict):
        raise ValueError("report must be a dict")
    need(report, "schema_version", int, "report")
    if report["schema_version"] != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {report['schema_version']!r}"
        )
    need(report, "quick", bool, "report")
    need(report, "host", dict, "report")
    need(report, "workloads", list, "report")
    if not report["workloads"]:
        raise ValueError("report: workloads must be non-empty")
    for i, row in enumerate(report["workloads"]):
        where = f"workloads[{i}]"
        if not isinstance(row, dict):
            raise ValueError(f"{where}: must be a dict")
        need(row, "name", str, where)
        need(row, "instructions", int, where)
        for key in (
            "reference_wall_s",
            "fast_wall_s",
            "compiled_wall_s",
            "reference_ips",
            "fast_ips",
            "compiled_ips",
            "speedup",
            "speedup_compiled",
        ):
            need(row, key, (int, float), where)
            if row[key] <= 0:
                raise ValueError(f"{where}: {key!r} must be positive")
    need(report, "speedup", dict, "report")
    for key in ("geomean", "min", "max"):
        need(report["speedup"], key, (int, float), "speedup")
    need(report, "speedup_compiled", dict, "report")
    for key in ("geomean", "min", "max"):
        need(report["speedup_compiled"], key, (int, float), "speedup_compiled")
        if report["speedup_compiled"][key] <= 0:
            raise ValueError(f"speedup_compiled: {key!r} must be positive")
    need(report, "learning", dict, "report")
    learning = report["learning"]
    need(learning, "speedup", dict, "learning")
    for key in ("geomean", "min", "max"):
        need(learning["speedup"], key, (int, float), "learning.speedup")
        if learning["speedup"][key] <= 0:
            raise ValueError(f"learning.speedup: {key!r} must be positive")
    need(learning["speedup"], "identical_trees", bool, "learning.speedup")
    if learning["speedup"]["identical_trees"] is not True:
        raise ValueError(
            "learning.speedup: engines must produce identical trees"
        )
    need(report, "serving", dict, "report")
    serving = report["serving"]
    for key in ("requests", "tenants", "swaps", "sheds", "batches"):
        need(serving, key, int, "serving")
    if serving["requests"] <= 0:
        raise ValueError("serving: 'requests' must be positive")
    need(serving, "overhead_ratio", (int, float), "serving")
    if serving["overhead_ratio"] <= 0:
        raise ValueError("serving: 'overhead_ratio' must be positive")
    for key in ("cpu_s", "serial_cpu_s"):
        need(serving, key, list, "serving")
        if not serving[key] or not all(
            isinstance(v, (int, float)) and v > 0 for v in serving[key]
        ):
            raise ValueError(
                f"serving: {key!r} must be a non-empty list of positive "
                "CPU seconds"
            )
    if len(serving["cpu_s"]) != len(serving["serial_cpu_s"]):
        raise ValueError("serving: 'cpu_s' and 'serial_cpu_s' must pair up")
    need(serving, "identical_to_serial", bool, "serving")
    if serving["identical_to_serial"] is not True:
        raise ValueError(
            "serving: per-tenant results must be bit-identical to serial "
            "replay"
        )
    need(serving, "batch_kernel", dict, "serving")
    kernel = serving["batch_kernel"]
    need(kernel, "trees", int, "serving.batch_kernel")
    need(kernel, "rows", list, "serving.batch_kernel")
    if not kernel["rows"]:
        raise ValueError("serving.batch_kernel: rows must be non-empty")
    for i, row in enumerate(kernel["rows"]):
        where = f"serving.batch_kernel.rows[{i}]"
        need(row, "batch_size", int, where)
        for key in ("per_row_us", "batch_us", "speedup"):
            need(row, key, (int, float), where)
            if row[key] <= 0:
                raise ValueError(f"{where}: {key!r} must be positive")
    need(kernel, "speedup", dict, "serving.batch_kernel")
    for key in ("geomean", "min", "max"):
        need(kernel["speedup"], key, (int, float), "serving.batch_kernel.speedup")
        if kernel["speedup"][key] <= 0:
            raise ValueError(
                f"serving.batch_kernel.speedup: {key!r} must be positive"
            )
    need(kernel, "identical", bool, "serving.batch_kernel")
    if kernel["identical"] is not True:
        raise ValueError(
            "serving.batch_kernel: batched predictions must be "
            "bit-identical to per-row predict_all"
        )
    need(serving, "shard_scaling", dict, "serving")
    scaling = serving["shard_scaling"]
    for key in ("requests", "tenants"):
        need(scaling, key, int, "serving.shard_scaling")
        if scaling[key] <= 0:
            raise ValueError(
                f"serving.shard_scaling: {key!r} must be positive"
            )
    need(scaling, "points", list, "serving.shard_scaling")
    if not scaling["points"]:
        raise ValueError("serving.shard_scaling: points must be non-empty")
    for i, point in enumerate(scaling["points"]):
        where = f"serving.shard_scaling.points[{i}]"
        need(point, "shards", int, where)
        for key in ("wall_s", "rps"):
            need(point, key, (int, float), where)
            if point[key] <= 0:
                raise ValueError(f"{where}: {key!r} must be positive")
    need(scaling, "identical_to_serial", bool, "serving.shard_scaling")
    if scaling["identical_to_serial"] is not True:
        raise ValueError(
            "serving.shard_scaling: sharded results must be bit-identical "
            "to serial replay"
        )
    need(report, "datagen", dict, "report")
    datagen = report["datagen"]
    need(datagen, "fork", dict, "datagen")
    fork = datagen["fork"]
    for key in ("programs", "pairs"):
        need(fork, key, int, "datagen.fork")
        if fork[key] <= 0:
            raise ValueError(f"datagen.fork: {key!r} must be positive")
    for key in ("naive_wall_s", "forked_wall_s", "speedup"):
        need(fork, key, (int, float), "datagen.fork")
        if fork[key] <= 0:
            raise ValueError(f"datagen.fork: {key!r} must be positive")
    need(fork, "identical_labels", bool, "datagen.fork")
    if fork["identical_labels"] is not True:
        raise ValueError(
            "datagen.fork: forked labels must be bit-identical to naive"
        )


def compare_to_baseline(
    report: dict, baseline: dict, max_regression: float = 0.20
) -> list[str]:
    """Regression check against a recorded baseline report.

    Compares machine-independent speedup ratios (each engine, the
    learner, the batch kernel and the forked labeler against their
    reference on the same runner, plus the serving overhead ratio) —
    not absolute instructions/second, which depend on runner hardware.
    The baseline must pass :func:`validate_bench_report`, so every gate
    runs; an older-schema baseline raises ``ValueError``, and a report
    workload row the baseline lacks is a failure (its gate would
    otherwise drop without notice). Returns a list of human-readable
    failures (empty when within tolerance).
    """
    validate_bench_report(baseline)
    failures: list[str] = []
    floor = 1.0 - max_regression
    base_geo = baseline["speedup"]["geomean"]
    new_geo = report["speedup"]["geomean"]
    if new_geo < base_geo * floor:
        failures.append(
            f"geomean speedup regressed: {new_geo:.2f}x vs baseline "
            f"{base_geo:.2f}x (floor {base_geo * floor:.2f}x)"
        )
    base_rows = {
        (row["name"], row["level"]): row for row in baseline["workloads"]
    }
    for row in report["workloads"]:
        base = base_rows.get((row["name"], row["level"]))
        if base is None:
            failures.append(
                f"{row['name']} (level {row['level']}): no baseline row; "
                "regenerate the baseline to gate it"
            )
            continue
        if row["speedup"] < base["speedup"] * floor:
            failures.append(
                f"{row['name']} (level {row['level']}): speedup "
                f"{row['speedup']:.2f}x vs baseline {base['speedup']:.2f}x"
            )
    # Higher-is-better geomean ratios: (label, path into the report).
    for label, path in (
        ("compiled speedup geomean", ("speedup_compiled", "geomean")),
        ("learning speedup geomean", ("learning", "speedup", "geomean")),
        ("batch kernel speedup geomean",
         ("serving", "batch_kernel", "speedup", "geomean")),
        ("fork labeling speedup", ("datagen", "fork", "speedup")),
    ):
        old, new = baseline, report
        for key in path:
            old, new = old[key], new[key]
        if new < old * floor:
            failures.append(
                f"{label} regressed: {new:.2f}x vs baseline "
                f"{old:.2f}x (floor {old * floor:.2f}x)"
            )
    # Serving gate: median concurrent-over-serial CPU-time ratio for the
    # same stream (lower is better; both sides measured on this runner,
    # so the ratio is machine-independent).
    base_ratio = baseline["serving"]["overhead_ratio"]
    new_ratio = report["serving"]["overhead_ratio"]
    if new_ratio > base_ratio * (1.0 + max_regression):
        failures.append(
            f"serving overhead ratio regressed: {new_ratio:.2f} vs "
            f"baseline {base_ratio:.2f} "
            f"(ceiling {base_ratio * (1.0 + max_regression):.2f})"
        )
    return failures


def format_report(report: dict) -> str:
    """Human-readable summary for the CLI."""
    lines = [
        "workload        level  ref Mips  fast Mips  comp Mips  "
        "fast    compiled"
    ]
    for row in report["workloads"]:
        level = "base" if row["level"] is None else str(row["level"])
        lines.append(
            f"{row['name']:<15} {level:>5}  "
            f"{row['reference_ips'] / 1e6:>8.2f}  {row['fast_ips'] / 1e6:>9.2f}  "
            f"{row['compiled_ips'] / 1e6:>9.2f}  "
            f"{row['speedup']:>5.2f}x  {row['speedup_compiled']:>7.2f}x"
        )
    sp = report["speedup"]
    lines.append(
        f"speedup (fast): geomean {sp['geomean']:.2f}x, "
        f"min {sp['min']:.2f}x, max {sp['max']:.2f}x"
    )
    spc = report["speedup_compiled"]
    lines.append(
        f"speedup (compiled): geomean {spc['geomean']:.2f}x, "
        f"min {spc['min']:.2f}x, max {spc['max']:.2f}x"
    )
    from .forgebench import format_datagen
    from .learnbench import format_learning
    from .servebench import format_serving

    lines.extend(format_learning(report["learning"]))
    lines.extend(format_serving(report["serving"]))
    lines.extend(format_datagen(report["datagen"]))
    return "\n".join(lines)


def write_report(report: dict, path) -> None:
    validate_bench_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
