"""Schema and regression-gate tests for the ``repro bench`` suite.

Tier-1 checks the report contract here on synthetic reports: schema
validation, baseline comparison logic, and the ``write_report``
round-trip. One real timed run of the whole suite is the ``bare_bench``
fixture in ``tests/test_cli.py``, which both bare-bench CLI tests read.
"""

import json

import pytest

from repro.bench.servebench import RATIO_PAIRS
from repro.bench.vmbench import (
    BENCH_SCHEMA_VERSION,
    compare_to_baseline,
    validate_bench_report,
    write_report,
)


def synthetic_report(
    speedup: float = 4.0,
    learn_speedup: float = 5.0,
    overhead_ratio: float = 1.3,
    compiled_speedup: float = 12.0,
    fork_speedup: float = 3.2,
    kernel_speedup: float = 3.0,
) -> dict:
    row = {
        "name": "arith_loop",
        "level": None,
        "instructions": 1000,
        "reference_wall_s": 1.0,
        "fast_wall_s": 1.0 / speedup,
        "compiled_wall_s": 1.0 / compiled_speedup,
        "reference_ips": 1000.0,
        "fast_ips": 1000.0 * speedup,
        "compiled_ips": 1000.0 * compiled_speedup,
        "speedup": speedup,
        "speedup_compiled": compiled_speedup,
    }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "quick": True,
        "host": {"python": "3", "implementation": "x", "machine": "y"},
        "workloads": [row],
        "speedup": {"geomean": speedup, "min": speedup, "max": speedup},
        "speedup_compiled": {
            "geomean": compiled_speedup,
            "min": compiled_speedup,
            "max": compiled_speedup,
        },
        "learning": {
            "speedup": {
                "methods_timed": 4,
                "per_method": [],
                "geomean": learn_speedup,
                "min": learn_speedup,
                "max": learn_speedup,
                "identical_trees": True,
            },
        },
        "serving": {
            "requests": 240,
            "tenants": 3,
            "cpu_s": [0.2, 0.2],
            "serial_cpu_s": [0.2 / overhead_ratio, 0.2 / overhead_ratio],
            "overhead_ratio": overhead_ratio,
            "swaps": 9,
            "sheds": 36,
            "batches": 5,
            "identical_to_serial": True,
            "batch_kernel": {
                "trees": 40,
                "rows": [
                    {
                        "batch_size": 16,
                        "per_row_us": 100.0,
                        "batch_us": 100.0 / kernel_speedup,
                        "speedup": kernel_speedup,
                    },
                ],
                "identical": True,
                "speedup": {
                    "geomean": kernel_speedup,
                    "min": kernel_speedup,
                    "max": kernel_speedup,
                },
            },
            "shard_scaling": {
                "requests": 160,
                "tenants": 3,
                "points": [
                    {"shards": 1, "wall_s": 0.4, "rps": 400.0},
                    {"shards": 2, "wall_s": 0.25, "rps": 640.0},
                ],
                "identical_to_serial": True,
            },
        },
        "datagen": {
            "fork": {
                "programs": 6,
                "pairs": 48,
                "naive_wall_s": 3.2,
                "forked_wall_s": 3.2 / fork_speedup,
                "speedup": fork_speedup,
                "identical_labels": True,
            },
        },
    }


def test_valid_report_passes():
    validate_bench_report(synthetic_report())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("workloads"),
        lambda r: r.update(schema_version=99),
        lambda r: r["workloads"][0].update(speedup=0),
        lambda r: r["workloads"][0].pop("fast_ips"),
        lambda r: r["workloads"][0].pop("compiled_ips"),
        lambda r: r.pop("speedup_compiled"),
        lambda r: r["speedup_compiled"].update(geomean=0),
        lambda r: r.update(workloads=[]),
        lambda r: r.pop("learning"),
        lambda r: r["learning"]["speedup"].update(identical_trees=False),
        lambda r: r.pop("serving"),
        lambda r: r["serving"].update(identical_to_serial=False),
        lambda r: r["serving"].update(overhead_ratio=0),
        lambda r: r["serving"].update(cpu_s=[]),
        lambda r: r["serving"]["serial_cpu_s"].append(0.1),
        lambda r: r["serving"].pop("batch_kernel"),
        lambda r: r["serving"]["batch_kernel"].update(identical=False),
        lambda r: r["serving"]["batch_kernel"]["rows"][0].update(speedup=0),
        lambda r: r["serving"].pop("shard_scaling"),
        lambda r: r["serving"]["shard_scaling"].update(
            identical_to_serial=False
        ),
        lambda r: r["serving"]["shard_scaling"].update(points=[]),
        lambda r: r.pop("datagen"),
        lambda r: r["datagen"]["fork"].update(identical_labels=False),
        lambda r: r["datagen"]["fork"].update(speedup=0),
    ],
    ids=[
        "missing-workloads",
        "bad-version",
        "nonpositive-speedup",
        "missing-field",
        "missing-compiled-ips",
        "missing-compiled-speedup",
        "zero-compiled-geomean",
        "empty-workloads",
        "missing-learning",
        "learning-trees-diverged",
        "missing-serving",
        "serving-diverged-from-serial",
        "serving-zero-overhead-ratio",
        "serving-no-cpu-pairs",
        "serving-unpaired-cpu-times",
        "missing-batch-kernel",
        "batch-kernel-diverged",
        "batch-kernel-zero-speedup",
        "missing-shard-scaling",
        "shard-scaling-diverged",
        "shard-scaling-no-points",
        "missing-datagen",
        "fork-labels-diverged",
        "zero-fork-speedup",
    ],
)
def test_invalid_reports_rejected(mutate):
    report = synthetic_report()
    mutate(report)
    with pytest.raises(ValueError):
        validate_bench_report(report)


def test_baseline_within_tolerance():
    report = synthetic_report(speedup=3.5)
    baseline = synthetic_report(speedup=4.0)
    # 3.5 >= 4.0 * 0.8 → fine.
    assert compare_to_baseline(report, baseline, max_regression=0.20) == []


def test_baseline_regression_detected():
    report = synthetic_report(speedup=2.0)
    baseline = synthetic_report(speedup=4.0)
    failures = compare_to_baseline(report, baseline, max_regression=0.20)
    assert failures
    assert any("geomean" in failure for failure in failures)


def test_report_row_missing_from_baseline_fails():
    # A workload (or level) added without regenerating the baseline must
    # fail the gate, not silently drop that row's check.
    report = synthetic_report()
    extra = dict(report["workloads"][0], level=2)
    report["workloads"].append(extra)
    failures = compare_to_baseline(report, synthetic_report())
    assert failures == [
        "arith_loop (level 2): no baseline row; regenerate the baseline "
        "to gate it"
    ]


def test_compiled_regression_detected():
    report = synthetic_report(compiled_speedup=6.0)
    baseline = synthetic_report(compiled_speedup=12.0)
    failures = compare_to_baseline(report, baseline, max_regression=0.20)
    assert failures
    assert any("compiled" in failure for failure in failures)


def test_compiled_within_tolerance():
    report = synthetic_report(compiled_speedup=10.0)
    baseline = synthetic_report(compiled_speedup=12.0)
    # 10.0 >= 12.0 * 0.8 → fine.
    assert compare_to_baseline(report, baseline, max_regression=0.20) == []


def test_learning_regression_detected():
    report = synthetic_report(learn_speedup=2.0)
    baseline = synthetic_report(learn_speedup=5.0)
    failures = compare_to_baseline(report, baseline, max_regression=0.20)
    assert failures
    assert all("learning" in failure for failure in failures)


def test_serving_regression_detected():
    # Overhead ratio is "cost of concurrency": higher is worse.
    report = synthetic_report(overhead_ratio=2.0)
    baseline = synthetic_report(overhead_ratio=1.3)
    failures = compare_to_baseline(report, baseline, max_regression=0.20)
    assert failures
    assert all("serving" in failure for failure in failures)


def test_serving_within_tolerance():
    report = synthetic_report(overhead_ratio=1.5)
    baseline = synthetic_report(overhead_ratio=1.3)
    # 1.5 <= 1.3 * 1.2 → fine.
    assert compare_to_baseline(report, baseline, max_regression=0.20) == []


def test_batch_kernel_regression_detected():
    report = synthetic_report(kernel_speedup=1.5)
    baseline = synthetic_report(kernel_speedup=3.0)
    failures = compare_to_baseline(report, baseline, max_regression=0.20)
    assert failures
    assert all("batch kernel" in failure for failure in failures)


def test_batch_kernel_within_tolerance():
    report = synthetic_report(kernel_speedup=2.6)
    baseline = synthetic_report(kernel_speedup=3.0)
    # 2.6 >= 3.0 * 0.8 → fine.
    assert compare_to_baseline(report, baseline, max_regression=0.20) == []


def test_datagen_regression_detected():
    report = synthetic_report(fork_speedup=1.5)
    baseline = synthetic_report(fork_speedup=3.2)
    failures = compare_to_baseline(report, baseline, max_regression=0.20)
    assert failures
    assert all("fork" in failure for failure in failures)


def test_datagen_within_tolerance():
    report = synthetic_report(fork_speedup=2.8)
    baseline = synthetic_report(fork_speedup=3.2)
    # 2.8 >= 3.2 * 0.8 → fine.
    assert compare_to_baseline(report, baseline, max_regression=0.20) == []


@pytest.mark.parametrize(
    "version, drop",
    [
        (1, lambda r: r.pop("learning")),
        (2, lambda r: r.pop("serving")),
        (3, lambda r: r.pop("speedup_compiled")),
        (4, lambda r: r.pop("datagen")),
        (5, lambda r: r["serving"].pop("batch_kernel")),
    ],
    ids=["v1", "v2", "v3", "v4", "v5"],
)
def test_pre_v6_baseline_rejected(version, drop):
    # Each old schema lacks the section its successor added; comparing
    # against it must fail loudly, not skip that gate.
    baseline = synthetic_report()
    baseline["schema_version"] = version
    drop(baseline)
    with pytest.raises(ValueError):
        compare_to_baseline(synthetic_report(), baseline)


def test_checked_in_baseline_is_valid():
    from pathlib import Path

    path = Path(__file__).parent.parent / "benchmarks" / "BENCH_baseline.json"
    baseline = json.loads(path.read_text())
    validate_bench_report(baseline)
    # The tentpole acceptance bars, recorded in the baseline itself.
    assert baseline["speedup"]["geomean"] >= 3.0
    # Closure-compiled tier: at least 10x over the reference loop.
    assert baseline["speedup_compiled"]["geomean"] >= 10.0
    # Quick mode trains on small datasets where the sweep's advantage is
    # smallest; the full Table-I-scale workload clears 5x.
    assert baseline["learning"]["speedup"]["geomean"] >= 2.0
    assert baseline["learning"]["speedup"]["identical_trees"] is True
    assert baseline["serving"]["identical_to_serial"] is True
    # The serving gate's median is over exactly the suite's pair count.
    assert len(baseline["serving"]["cpu_s"]) == RATIO_PAIRS
    assert baseline["serving"]["swaps"] > 0
    assert baseline["serving"]["sheds"] > 0
    # Batched inference kernel: at least 2x over per-row predicts at
    # batch sizes >= 16 with outputs checked bit-identical (the sharded
    # serving acceptance bar), and every shard count bit-identical to
    # serial replay.
    kernel = baseline["serving"]["batch_kernel"]
    assert kernel["speedup"]["geomean"] >= 2.0
    assert kernel["identical"] is True
    assert baseline["serving"]["shard_scaling"]["identical_to_serial"] is True
    # Forked-run labeling: at least 3x over independent runs at
    # bit-identical labels (the forge acceptance bar).
    assert baseline["datagen"]["fork"]["speedup"] >= 3.0
    assert baseline["datagen"]["fork"]["identical_labels"] is True


def test_workload_timing_roundtrip(tmp_path):
    report = synthetic_report()
    out = tmp_path / "BENCH_vm.json"
    write_report(report, out)
    assert json.loads(out.read_text()) == report
    assert json.loads(out.read_text())["schema_version"] == BENCH_SCHEMA_VERSION
