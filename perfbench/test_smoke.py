"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q -p no:cacheprovider

Checks that every workload emits every metric ``BENCHMARK.json`` names,
with its unit, in both trace modes; that the output checks count a
deliberately corrupted output as a failure; that guard counts repeat
for a seed; and that the command fails cleanly outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, fleet, forge, run, sweep  # noqa: E402
from perfbench.common import Context, Result  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = {"paper-sweep": sweep, "fleet-serve": fleet, "forge-label": forge}
#: A seed with no recorded guards, so tiny runs report no drift.
SEED = 424_242


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, like the benchmark's."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def ctx(workdir):
    scratch = workdir / "scratch"
    scratch.mkdir()
    return Context(
        root=ROOT, seed=SEED, seconds=0.1, trace=False, scratch=scratch,
        trace_dir=workdir / "traces", tag="smoke",
    )


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(common, "SETUP_REPEATS", 1)
    monkeypatch.setattr(sweep, "RUNS", 1)
    monkeypatch.setattr(sweep, "SWEEP_SEEDS", (0,))
    monkeypatch.setattr(forge, "POOL", 2)
    monkeypatch.setattr(forge, "TRACED_ROUNDS", 2)
    for name, value in (("R1", 50.0), ("R2", 100.0), ("SEARCH_START", 150.0),
                        ("PROBE_S", 0.3), ("SATURATION_S", 0.05),
                        ("IDLE_ROUNDS", 1), ("SATURATION_ROUNDS", 2)):
        monkeypatch.setattr(fleet, name, value)


def test_benchmark_json_matches_the_emitted_tables():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(
        run.END_TO_END
    )
    from perfbench import layers

    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tiny, ctx):
    ctx.trace = trace
    result = MODULES[workload].run(ctx)
    final = run.report(workload, SEED, trace, result)
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        emitted = final["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], Real)
    assert final["correct"], result.notes
    assert final["failed"] == 0 and final["attempted"] >= 1
    json.dumps(final)


def test_guard_counts_repeat_for_a_seed(tiny, ctx):
    ctx.trace = True
    first = forge.run(ctx).guards
    assert first == forge.run(ctx).guards
    assert first["workload.units"] > 0 and first["forge.children"] > 0


def test_corrupted_sweep_output_is_a_failure(monkeypatch, ctx):
    from repro.bench import get_benchmark
    from repro.experiments.parallel import run_sweep

    monkeypatch.setattr(sweep, "RUNS", 1)
    report = run_sweep([get_benchmark("Search")], jobs=1, seed=5, runs=1)
    clean = Result()
    sweep.replay_check(ctx, 5, report, clean)
    assert clean.failed == 0
    for scenario in sweep.SCENARIOS:
        for outcome in getattr(report.results[0], scenario):
            outcome.overhead_cycles += 1.0
    corrupted = Result()
    sweep.replay_check(ctx, 5, report, corrupted)
    assert corrupted.failed == sweep.CHECKED_CELLS


def test_corrupted_fleet_response_is_a_failure(ctx):
    stream, phase = fleet.run_phase(ctx, 9, 200.0, 0.2)
    expected = fleet.serial_replay(stream)
    clean = Result()
    fleet.check_phase(expected, stream, phase, clean, "clean")
    assert clean.failed == 0 and clean.attempted == len(stream)
    tenant = stream[0][1]["app"]
    phase.bodies[tenant][0] = fleet.body_digest({"total_cycles": -1})
    corrupted = Result()
    fleet.check_phase(expected, stream, phase, corrupted, "corrupted")
    assert corrupted.failed == 1


def test_corrupted_forge_row_is_a_failure(monkeypatch, ctx):
    seed = 77
    stats, _, _, out = forge.forge_round(ctx, seed)
    assert stats.rows > 0
    clean = Result()
    forge.sample_check(ctx, [(seed, out)], clean)
    assert clean.failed == 0
    written = forge.shard_rows(out)
    monkeypatch.setattr(
        forge, "shard_rows",
        lambda _out: {key: label + 1 for key, label in written.items()},
    )
    corrupted = Result()
    forge.sample_check(ctx, [(seed, out)], corrupted)
    assert corrupted.failed >= forge.CHECKED_PAIRS


def test_fails_without_a_checkout(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *BENCH["command"][2:],
         "--workload", "paper-sweep", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
