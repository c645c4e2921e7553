"""Bench section for the serving layer (``docs/serving.md``).

The ``serving`` section of ``BENCH_vm.json`` holds three measurements,
each a same-runner quantity checked for soundness as it is taken:

- ``overhead_ratio`` — concurrent serving over serial replay of the same
  mixed-tenant stream, in process CPU time, through the fleet-serving
  study (:func:`~repro.experiments.server_study.run_fleet_study`). One
  pair is noisy, so the section runs :data:`RATIO_PAIRS` serial/
  concurrent pairs back to back and gates their median (a same-runner
  ratio comes from repeated in-process pairs, not one shot). Every
  pair's per-tenant results must be bit-identical to its serial replay.
- ``batch_kernel`` — the batched inference kernel
  (:meth:`~repro.learning.flat.FlatForest.predict_batch`) against
  per-row ``predict_all`` on the same forest and query matrix, at
  several batch sizes, with outputs checked bit-identical. The speedup
  geomean over batch sizes >= 16 (the serving drain regime) is gated.
- ``shard_scaling`` — requests/s for the same stream through the
  multi-process :class:`~repro.serving.shards.ShardRouter` at 1/2/4
  shards, every point checked bit-identical to serial replay. Reported,
  not gated.
"""

from __future__ import annotations

import statistics
import time
from random import Random

from .vmbench import geomean

#: Batch sizes timed by the kernel bench; sizes >= _GATE_SIZE feed the
#: gated geomean (16 is the serving layer's ``BATCH_MAX``).
_BATCH_SIZES = (1, 16, 64, 256)
_GATE_SIZE = 16

#: Serial/concurrent pairs whose median CPU-time ratio is the gated
#: ``overhead_ratio``.
RATIO_PAIRS = 10


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
            "geomean": geomean(gated),
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
    """Run the fleet study :data:`RATIO_PAIRS` times at bench scale and
    emit the serving section."""
    from ..experiments.server_study import run_fleet_study

    requests = 240 if quick else 1200
    tenants = 3 if quick else 4
    results = [
        run_fleet_study(
            seed=0, requests=requests, tenants=tenants, refit_interval=20
        )
        for _ in range(RATIO_PAIRS)
    ]
    mismatches = [m for result in results for m in result.mismatches]
    if mismatches:  # pragma: no cover
        raise AssertionError(
            "serving diverged from serial replay: " + "; ".join(mismatches[:3])
        )
    first = results[0]
    return {
        "requests": first.requests,
        "tenants": first.tenants,
        "cpu_s": [result.cpu_s for result in results],
        "serial_cpu_s": [result.serial_cpu_s for result in results],
        "overhead_ratio": statistics.median(
            result.overhead_ratio for result in results
        ),
        "swaps": first.swaps,
        "sheds": first.sheds,
        "batches": first.batches,
        "identical_to_serial": not mismatches,
        "batch_kernel": bench_batch_kernel(quick=quick),
        "shard_scaling": bench_shard_scaling(quick=quick),
    }


def format_serving(section: dict) -> list[str]:
    """Human-readable lines for the CLI report."""
    ratios = [
        cpu / serial
        for cpu, serial in zip(section["cpu_s"], section["serial_cpu_s"])
    ]
    kernel = section["batch_kernel"]
    per_size = ", ".join(
        f"bs{row['batch_size']} {row['speedup']:.2f}x"
        for row in kernel["rows"]
    )
    scaling = section["shard_scaling"]
    per_point = ", ".join(
        f"{point['shards']}x {point['rps']:.0f} req/s"
        for point in scaling["points"]
    )
    return [
        f"serving: {section['requests']} request(s), "
        f"{section['tenants']} tenant(s); CPU overhead ratio "
        f"{section['overhead_ratio']:.2f} vs serial (median of "
        f"{len(ratios)} pairs, {min(ratios):.2f}-{max(ratios):.2f})",
        f"serving events: {section['swaps']} swap(s), "
        f"{section['sheds']} shed(s), {section['batches']} batch(es)",
        f"batch kernel ({kernel['trees']} trees): geomean "
        f"{kernel['speedup']['geomean']:.2f}x at bs>={_GATE_SIZE} "
        f"({per_size})",
        f"shard scaling ({scaling['requests']} request(s)): {per_point}",
    ]
