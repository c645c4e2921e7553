"""Wall-clock benchmark suite for the VM execution engines.

Everything else in this repository measures *virtual* cycles; this module
measures *host* wall-clock, answering one question: how much real time does
the fast-path engine (:mod:`repro.vm.fastpath`) save over the reference
interpreter? It times three things:

1. **Interpreter throughput** — three workloads (arithmetic loop, array
   sweep, call-heavy) on all three engines (reference loop, fast path,
   closure-compiled tier) at baseline and at opt level 2, reporting
   instructions/second plus the fast/reference and compiled/reference
   speedups.
2. **A Table I sweep cell** — one benchmark's scenario cell through
   :func:`repro.experiments.parallel.execute_cell`, cold vs. warm JIT
   artifact cache, asserting the virtual-cycle outcomes are identical.
3. **Fuzz iterations** — differential fuzz throughput, since the fuzz
   harness is the other big wall-clock consumer in CI.
4. **The learning layer** (:mod:`repro.bench.learnbench`) — offline model
   construction throughput, the fast/reference training speedup (trees
   checked identical), and flattened predict-all latency.
5. **The serving layer** (:mod:`repro.bench.servebench`) — sustained
   concurrent mixed-tenant traffic through the fleet server: request
   latency percentiles (p50/p95/p99), throughput, hot swaps, sheds, and
   the bit-identical-to-serial invariant; plus (schema v6) the batched
   inference kernel's speedup over per-row predicts and multi-process
   shard-scaling throughput, both checked bit-identical.
6. **The data forge** (:mod:`repro.bench.forgebench`) — the forked-run
   labeler's speedup over independent-runs labeling (labels asserted
   bit-identical) and end-to-end dataset-factory throughput in labeled
   rows per second.

Results are emitted as a schema-checked ``BENCH_vm.json``. CI's regression
gate compares the engine/reference **speedup ratios** (VM workloads,
compiled-tier geomean, and learning geomean) against a checked-in baseline
(``benchmarks/BENCH_baseline.json``) rather than absolute
instructions/second, which would vary with runner hardware. The baseline
must validate against the current schema; an older one is rejected.
"""

from __future__ import annotations

import json
import math
import platform
import time

from ..lang import compile_source
from ..vm import Interpreter

BENCH_SCHEMA_VERSION = 6

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


def _time_run(program, n: int, engine: str, level: int | None) -> tuple[float, int, object]:
    hook = (lambda _name: level) if level is not None else None
    interp = Interpreter(
        program, first_invocation_hook=hook, engine=engine
    )
    start = time.perf_counter()
    profile = interp.run((n,))
    wall = time.perf_counter() - start
    return wall, profile.instructions_executed, interp.result


def bench_workloads(quick: bool = False, repeats: int = 3) -> list[dict]:
    """Time every workload on all three engines; best-of-*repeats* each."""
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
                for _ in range(repeats):
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


def bench_sweep_cell(quick: bool = False, cache_dir=None) -> dict:
    """Time one Table I sweep cell cold vs. warm JIT artifact cache.

    The cell's virtual-cycle outcomes must be bit-identical with the cache
    off, cold, and warm — this function asserts it (the acceptance
    criterion for cache soundness) and reports wall times plus cache stats.
    """
    import tempfile

    from .suite import get_benchmark
    from ..experiments.parallel import (
        CellSpec,
        _ARTIFACT_CACHES,
        derive_sequence,
        execute_cell,
    )
    from ..vm.config import DEFAULT_CONFIG

    bench = get_benchmark("Compress")
    runs = 2 if quick else 6
    sequence = tuple(derive_sequence(bench, seed=0, n_runs=runs))

    def spec(jit_cache_dir):
        return CellSpec(
            benchmark=bench.name,
            scenarios=("default",),
            start=0,
            stop=runs,
            seed=0,
            sequence=sequence,
            config=DEFAULT_CONFIG,
            gamma=None,
            threshold=None,
            tree_params=None,
            jit_cache_dir=jit_cache_dir,
        )

    def cycles(payload) -> list[float]:
        return [
            outcome.profile.total_cycles
            for outcome in payload["outcomes"]["default"]
        ]

    with tempfile.TemporaryDirectory() as tmp:
        jit_dir = str(cache_dir) if cache_dir is not None else tmp
        start = time.perf_counter()
        uncached = execute_cell(spec(None))
        wall_off = time.perf_counter() - start

        _ARTIFACT_CACHES.pop(jit_dir, None)
        start = time.perf_counter()
        cold = execute_cell(spec(jit_dir))
        wall_cold = time.perf_counter() - start

        # Drop the in-memory layer so the warm pass exercises disk hits the
        # way a fresh sweep worker process would.
        _ARTIFACT_CACHES.pop(jit_dir, None)
        start = time.perf_counter()
        warm = execute_cell(spec(jit_dir))
        wall_warm = time.perf_counter() - start
        stats = _ARTIFACT_CACHES[jit_dir].stats()
        _ARTIFACT_CACHES.pop(jit_dir, None)

    if not (cycles(uncached) == cycles(cold) == cycles(warm)):  # pragma: no cover
        raise AssertionError(
            "JIT artifact cache changed virtual-cycle results"
        )
    return {
        "benchmark": bench.name,
        "runs": runs,
        "wall_s_cache_off": wall_off,
        "wall_s_cache_cold": wall_cold,
        "wall_s_cache_warm": wall_warm,
        "cache_stats": stats,
        "identical_cycles": True,
    }


def bench_fuzz(quick: bool = False) -> dict:
    """Time a short differential fuzz burst (single process)."""
    from ..testing import run_fuzz

    iterations = 5 if quick else 25
    start = time.perf_counter()
    report = run_fuzz(seed=0, iterations=iterations, jobs=1)
    wall = time.perf_counter() - start
    return {
        "iterations": iterations,
        "wall_s": wall,
        "iterations_per_s": iterations / wall,
        "ok": report.ok,
    }


def geomean(values: list[float]) -> float:
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
        "sweep_cell": bench_sweep_cell(quick=quick),
        "fuzz": bench_fuzz(quick=quick),
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
    need(report, "sweep_cell", dict, "report")
    need(report["sweep_cell"], "identical_cycles", bool, "sweep_cell")
    if report["sweep_cell"]["identical_cycles"] is not True:
        raise ValueError("sweep_cell: cache must not change results")
    need(report, "fuzz", dict, "report")
    need(report["fuzz"], "ok", bool, "fuzz")
    need(report, "learning", dict, "report")
    learning = report["learning"]
    need(learning, "training", dict, "learning")
    for key in ("methods", "runs", "training_rows"):
        need(learning["training"], key, int, "learning.training")
        if learning["training"][key] <= 0:
            raise ValueError(f"learning.training: {key!r} must be positive")
    for key in ("wall_s", "rows_per_s"):
        need(learning["training"], key, (int, float), "learning.training")
        if learning["training"][key] <= 0:
            raise ValueError(f"learning.training: {key!r} must be positive")
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
    need(learning, "predict", dict, "learning")
    for key in ("wall_s", "per_call_us"):
        need(learning["predict"], key, (int, float), "learning.predict")
        if learning["predict"][key] <= 0:
            raise ValueError(f"learning.predict: {key!r} must be positive")
    need(learning["predict"], "trees", int, "learning.predict")
    need(report, "serving", dict, "report")
    serving = report["serving"]
    for key in ("requests", "tenants", "swaps", "sheds", "batches"):
        need(serving, key, int, "serving")
    if serving["requests"] <= 0:
        raise ValueError("serving: 'requests' must be positive")
    for key in ("wall_s", "serial_wall_s", "rps", "overhead_ratio"):
        need(serving, key, (int, float), "serving")
        if serving[key] <= 0:
            raise ValueError(f"serving: {key!r} must be positive")
    need(serving, "latency_ms", dict, "serving")
    for key in ("p50", "p95", "p99", "mean"):
        need(serving["latency_ms"], key, (int, float), "serving.latency_ms")
        if serving["latency_ms"][key] < 0:
            raise ValueError(f"serving.latency_ms: {key!r} must be >= 0")
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
    need(datagen, "pipeline", dict, "datagen")
    pipeline = datagen["pipeline"]
    for key in ("programs", "rows", "shards"):
        need(pipeline, key, int, "datagen.pipeline")
        if pipeline[key] <= 0:
            raise ValueError(f"datagen.pipeline: {key!r} must be positive")
    for key in ("rows_per_s_generated",):
        need(pipeline, key, (int, float), "datagen.pipeline")
        if pipeline[key] <= 0:
            raise ValueError(f"datagen.pipeline: {key!r} must be positive")


def compare_to_baseline(
    report: dict, baseline: dict, max_regression: float = 0.20
) -> list[str]:
    """Regression check against a recorded baseline report.

    Compares machine-independent speedup ratios (each engine, the
    learner, the batch kernel and the forked labeler against their
    reference on the same runner, plus the serving overhead ratio) —
    not absolute instructions/second, which depend on runner hardware.
    The baseline must pass :func:`validate_bench_report`, so every gate
    runs; an older-schema baseline raises ``ValueError``. Returns a list
    of human-readable failures (empty when within tolerance).
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
    # Serving gate: concurrent-over-serial wall ratio for the same stream
    # (lower is better; both sides measured on this runner, so the ratio
    # is machine-independent).
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
    cell = report["sweep_cell"]
    lines.append(
        f"sweep cell ({cell['benchmark']}, {cell['runs']} runs): "
        f"cache off {cell['wall_s_cache_off']:.2f}s, "
        f"cold {cell['wall_s_cache_cold']:.2f}s, "
        f"warm {cell['wall_s_cache_warm']:.2f}s"
    )
    fuzz = report["fuzz"]
    lines.append(
        f"fuzz: {fuzz['iterations']} iteration(s) in {fuzz['wall_s']:.2f}s "
        f"({fuzz['iterations_per_s']:.2f}/s)"
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
