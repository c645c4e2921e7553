"""Wall-clock bench section for the serving layer (``docs/serving.md``).

Wraps the fleet-serving study
(:func:`~repro.experiments.server_study.run_fleet_study`) into the
``serving`` section of ``BENCH_vm.json``: sustained concurrent
mixed-tenant traffic with request latency percentiles (p50/p95/p99),
throughput, hot-swap and shed counts, and the soundness invariant that
per-tenant results are bit-identical to serial replay.

Schema v6 adds two subsections:

- ``batch_kernel`` — the batched inference kernel
  (:meth:`~repro.learning.flat.FlatForest.predict_batch`) against
  per-row ``predict_all`` on the same forest and query matrix, at
  several batch sizes, with outputs checked bit-identical. The speedup
  geomean over batch sizes >= 16 (the serving drain regime) is the
  gated ratio.
- ``shard_scaling`` — requests/s for the same stream through the
  multi-process :class:`~repro.serving.shards.ShardRouter` at 1/2/4
  shards, every point checked bit-identical to serial replay.

Latency percentiles and req/s are host-dependent and therefore only
*reported*; the regression gate tracks ``overhead_ratio`` and the
batch-kernel speedup geomean — both ratios of two timings taken on the
same runner, machine-independent the same way the fast/reference engine
speedups are.
"""

from __future__ import annotations

import math
import time
from random import Random

#: Batch sizes timed by the kernel bench; sizes >= _GATE_SIZE feed the
#: gated geomean (16 is the serving layer's ``BATCH_MAX``).
_BATCH_SIZES = (1, 16, 64, 256)
_GATE_SIZE = 16


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_batch_kernel(quick: bool = False) -> dict:
    """Per-row ``predict_all`` vs. the batched kernel, outputs checked.

    Builds the same Table-I-scale forest the learning bench uses, then
    times answering an identical query matrix both ways at each batch
    size. Per-request microseconds are reported for both paths; the
    speedup is their ratio, so it is machine-independent.
    """
    from .learnbench import _build_trained, _synthetic_vector

    methods, runs = (40, 60) if quick else (100, 150)
    builder = _build_trained(methods, runs)
    builder.refit_all()
    forest = builder.forest
    rng = Random(7)
    vectors = [_synthetic_vector(rng) for _ in range(max(_BATCH_SIZES))]
    # Warm both paths off the timed region (compiles the batch program).
    forest.predict_all(vectors[0])
    forest.predict_batch(vectors[:2])

    rows = []
    identical = True
    trials = 3
    for size in _BATCH_SIZES:
        batch = vectors[:size]
        # Inner repeats keep each timed region well above timer noise
        # for the small batch sizes.
        inner = max(1, 256 // size)
        per_row_walls, batch_walls = [], []
        per_row_out = batch_out = None
        for _ in range(trials):
            start = time.perf_counter()
            for _ in range(inner):
                per_row_out = [forest.predict_all(v) for v in batch]
            per_row_walls.append((time.perf_counter() - start) / inner)
            start = time.perf_counter()
            for _ in range(inner):
                batch_out = forest.predict_batch(batch)
            batch_walls.append((time.perf_counter() - start) / inner)
        identical = identical and per_row_out == batch_out
        per_row_us = min(per_row_walls) / size * 1e6
        batch_us = min(batch_walls) / size * 1e6
        rows.append(
            {
                "batch_size": size,
                "per_row_us": per_row_us,
                "batch_us": batch_us,
                "speedup": per_row_us / batch_us,
            }
        )
    gated = [r["speedup"] for r in rows if r["batch_size"] >= _GATE_SIZE]
    return {
        "trees": len(forest),
        "rows": rows,
        "identical": identical,
        "speedup": {
            "geomean": _geomean(gated),
            "min": min(gated),
            "max": max(gated),
        },
    }


def bench_shard_scaling(quick: bool = False) -> dict:
    """Requests/s through the multi-process router at 1/2/4 shards.

    Every point replays the same request stream and is checked
    bit-identical to one serial baseline (the kill pass is exercised by
    ``repro serve --study --shards N`` and the shard test suite, not
    re-run here). Quick mode stops at 2 shards to keep CI's bench-smoke
    within budget.
    """
    from ..experiments.server_study import run_sharded_study

    requests = 160 if quick else 400
    tenants = 3 if quick else 4
    counts = (1, 2) if quick else (1, 2, 4)
    result = run_sharded_study(
        seed=0,
        requests=requests,
        tenants=tenants,
        shard_counts=counts,
        refit_interval=20,
        kill=False,
    )
    identical = all(point["identical"] for point in result.points)
    if not identical:  # pragma: no cover
        mismatches = [m for p in result.points for m in p["mismatches"]]
        raise AssertionError(
            "sharded serving diverged from serial replay: "
            + "; ".join(mismatches[:3])
        )
    return {
        "requests": result.requests,
        "tenants": result.tenants,
        "points": [
            {
                "shards": point["shards"],
                "wall_s": point["wall_s"],
                "rps": point["rps"],
            }
            for point in result.points
        ],
        "identical_to_serial": identical,
    }


def bench_serving(quick: bool = False) -> dict:
    """Run the fleet study at bench scale and emit the serving section."""
    from ..experiments.server_study import run_fleet_study

    requests = 240 if quick else 1200
    tenants = 3 if quick else 4
    start = time.perf_counter()
    result = run_fleet_study(
        seed=0, requests=requests, tenants=tenants, refit_interval=20
    )
    wall = time.perf_counter() - start
    if not result.identical_to_serial:  # pragma: no cover
        raise AssertionError(
            "serving diverged from serial replay: "
            + "; ".join(result.mismatches[:3])
        )
    return {
        "requests": result.requests,
        "tenants": result.tenants,
        "wall_s": result.wall_s,
        "serial_wall_s": result.serial_wall_s,
        "total_wall_s": wall,
        "rps": result.rps,
        "latency_ms": {
            "p50": result.latency_ms["p50"],
            "p95": result.latency_ms["p95"],
            "p99": result.latency_ms["p99"],
            "mean": result.latency_ms["mean"],
        },
        "overhead_ratio": result.overhead_ratio,
        "swaps": result.swaps,
        "sheds": result.sheds,
        "batches": result.batches,
        "identical_to_serial": result.identical_to_serial,
        "batch_kernel": bench_batch_kernel(quick=quick),
        "shard_scaling": bench_shard_scaling(quick=quick),
    }


def format_serving(section: dict) -> list[str]:
    """Human-readable lines for the CLI report."""
    latency = section["latency_ms"]
    lines = [
        f"serving: {section['requests']} request(s), "
        f"{section['tenants']} tenant(s), {section['rps']:.0f} req/s",
        f"serving latency ms: p50 {latency['p50']:.2f}, "
        f"p95 {latency['p95']:.2f}, p99 {latency['p99']:.2f} "
        f"(overhead ratio {section['overhead_ratio']:.2f} vs serial)",
        f"serving events: {section['swaps']} swap(s), "
        f"{section['sheds']} shed(s), {section['batches']} batch(es)",
    ]
    kernel = section.get("batch_kernel")
    if kernel is not None:
        per_size = ", ".join(
            f"bs{row['batch_size']} {row['speedup']:.2f}x"
            for row in kernel["rows"]
        )
        lines.append(
            f"batch kernel ({kernel['trees']} trees): geomean "
            f"{kernel['speedup']['geomean']:.2f}x at bs>={_GATE_SIZE} "
            f"({per_size})"
        )
    scaling = section.get("shard_scaling")
    if scaling is not None:
        per_point = ", ".join(
            f"{point['shards']}x {point['rps']:.0f} req/s"
            for point in scaling["points"]
        )
        lines.append(
            f"shard scaling ({scaling['requests']} request(s)): {per_point}"
        )
    return lines
