"""Tests for the parallel experiment engine, telemetry, and result cache.

The engine's contract is strict: parallel results must be bitwise-identical
to the serial runner's for the same configuration, a second run of the same
sweep must come entirely from the cache, and every telemetry line must
validate against the documented schema (docs/experiments.md).
"""

import json

import pytest

from repro.__main__ import main
from repro.bench import get_benchmark
from repro.experiments import run_experiment, run_sweep
from repro.experiments.parallel import (
    DEFAULT_CHUNK,
    STATEFUL_SCENARIOS,
    execute_cell,
    map_parallel,
    plan_cells,
)
from repro.experiments.telemetry import (
    ResultCache,
    TelemetryLog,
    read_events,
    validate_event,
)

RUNS = 6
SEED = 11


def _square(x):
    return x * x


class TestMapParallelChunksize:
    """map_parallel submits one item per pool task; results come back in
    item order on the pool and inline alike."""

    ITEMS = list(range(23))
    WANT = [x * x for x in ITEMS]

    def test_default_chunksize_unchanged(self):
        results, _ = map_parallel(_square, self.ITEMS, jobs=2)
        assert results == self.WANT

    def test_chunksize_inline_path(self):
        results, parallel = map_parallel(_square, self.ITEMS, jobs=1)
        assert results == self.WANT
        assert parallel is False


@pytest.fixture(scope="module")
def serial():
    return run_experiment(get_benchmark("Search"), seed=SEED, runs=RUNS)


def assert_outcomes_identical(a, b, scenario):
    assert len(a) == len(b), scenario
    for x, y in zip(a, b):
        assert x.scenario == y.scenario
        assert x.cmdline == y.cmdline
        assert x.result == y.result
        assert x.total_cycles == y.total_cycles
        assert x.profile.compile_cycles == y.profile.compile_cycles
        assert x.accuracy == y.accuracy
        assert x.confidence_after == y.confidence_after
        assert x.applied_prediction == y.applied_prediction


class TestParallelMatchesSerial:
    def test_cell_grain_bitwise_identical(self, serial):
        par = run_experiment(
            get_benchmark("Search"), seed=SEED, runs=RUNS, jobs=3
        )
        assert par.sequence == serial.sequence
        for scenario in ("default", "rep", "evolve"):
            assert_outcomes_identical(
                getattr(serial, scenario), getattr(par, scenario), scenario
            )

    def test_evolve_summary_matches_serial(self, serial):
        par = run_experiment(
            get_benchmark("Search"), seed=SEED, runs=RUNS, jobs=2
        )
        assert serial.evolve_summary is not None
        assert par.evolve_summary == serial.evolve_summary

    def test_phase_scenario_supported(self):
        serial = run_experiment(
            get_benchmark("Search"),
            seed=SEED,
            runs=4,
            scenarios=("default", "phase"),
        )
        par = run_experiment(
            get_benchmark("Search"),
            seed=SEED,
            runs=4,
            scenarios=("default", "phase"),
            jobs=2,
        )
        assert_outcomes_identical(serial.phase, par.phase, "phase")


class TestCellPlanning:
    def test_stateful_scenarios_are_never_split(self):
        cells = plan_cells(get_benchmark("Search"), seed=SEED, runs=20)
        for cell in cells:
            if set(cell.scenarios) & STATEFUL_SCENARIOS:
                assert (cell.start, cell.stop) == (0, 20)

    def test_stateless_scenarios_are_chunked(self):
        cells = plan_cells(
            get_benchmark("Search"),
            seed=SEED,
            runs=2 * DEFAULT_CHUNK + 4,
            scenarios=("default",),
        )
        ranges = [(c.start, c.stop) for c in cells]
        assert ranges == [
            (0, DEFAULT_CHUNK),
            (DEFAULT_CHUNK, 2 * DEFAULT_CHUNK),
            (2 * DEFAULT_CHUNK, 2 * DEFAULT_CHUNK + 4),
        ]

    def test_cache_key_independent_of_jobs(self):
        # Chunk boundaries are fixed, so keys are too — changing --jobs
        # must not invalidate the cache.
        first = plan_cells(get_benchmark("Search"), seed=SEED, runs=RUNS)
        second = plan_cells(get_benchmark("Search"), seed=SEED, runs=RUNS)
        assert [c.cache_key() for c in first] == [c.cache_key() for c in second]
        assert all(0 < c.stop - c.start <= DEFAULT_CHUNK or
                   set(c.scenarios) & STATEFUL_SCENARIOS for c in first)

    def test_cache_key_changes_with_config(self):
        from repro.vm.config import VMConfig

        base = plan_cells(get_benchmark("Search"), seed=SEED, runs=RUNS)
        varied = plan_cells(
            get_benchmark("Search"),
            seed=SEED,
            runs=RUNS,
            config=VMConfig(sample_interval=80_000),
        )
        assert base[0].cache_key() != varied[0].cache_key()


class TestResultCache:
    def test_second_sweep_is_all_hits(self, tmp_path, serial):
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(
            [get_benchmark("Search")], jobs=1, seed=SEED, runs=RUNS, cache=cache
        )
        assert first.cells_cached == 0
        assert first.cells_executed == first.cells_total > 0

        cache2 = ResultCache(tmp_path / "cache")
        second = run_sweep(
            [get_benchmark("Search")], jobs=1, seed=SEED, runs=RUNS, cache=cache2
        )
        assert second.cells_executed == 0
        assert second.cells_cached == second.cells_total == first.cells_total
        assert cache2.store.hits == second.cells_total

        for scenario in ("default", "rep", "evolve"):
            assert_outcomes_identical(
                getattr(serial, scenario),
                getattr(second.results[0], scenario),
                scenario,
            )

    def test_different_seed_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(
            [get_benchmark("Search")], jobs=1, seed=SEED, runs=4, cache=cache
        )
        other = ResultCache(tmp_path / "cache")
        run_sweep(
            [get_benchmark("Search")], jobs=1, seed=SEED + 1, runs=4, cache=other
        )
        assert other.store.hits == 0

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = plan_cells(get_benchmark("Search"), seed=SEED, runs=4)
        key = cells[0].cache_key()
        cache.root.mkdir(parents=True)
        (cache.root / key.filename()).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.store.misses == 1


class TestTelemetry:
    def test_events_validate_against_schema(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryLog(path) as log:
            run_sweep(
                [get_benchmark("Search")],
                jobs=1,
                seed=SEED,
                runs=4,
                telemetry=log,
            )
        events = read_events(path)
        assert events, "no telemetry written"
        for event in events:
            assert validate_event(event) == [], event

    def test_run_events_cover_every_cell_run(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryLog(path) as log:
            run_sweep(
                [get_benchmark("Search")],
                jobs=1,
                seed=SEED,
                runs=4,
                telemetry=log,
            )
        runs = [e for e in read_events(path) if e["event"] == "run"]
        # 3 scenarios × 4 runs, each with seed == global run index.
        assert len(runs) == 12
        for event in runs:
            assert event["seed"] == event["run"]
            assert event["benchmark"] == "Search"
            assert event["total_cycles"] > 0
            assert event["methods_per_level"]

    def test_cache_hits_are_reported(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        cache_dir = tmp_path / "cache"
        run_sweep(
            [get_benchmark("Search")],
            jobs=1,
            seed=SEED,
            runs=4,
            cache=ResultCache(cache_dir),
        )
        with TelemetryLog(path) as log:
            run_sweep(
                [get_benchmark("Search")],
                jobs=1,
                seed=SEED,
                runs=4,
                cache=ResultCache(cache_dir),
                telemetry=log,
            )
        events = read_events(path)
        assert events and all(e["event"] == "cache_hit" for e in events)

    def test_jsonl_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryLog(path) as log:
            log.append({"event": "cell", "v": 1, "benchmark": "X",
                        "scenario": "default", "start": 0, "stop": 1,
                        "wall_s": 0.1, "cached": False})
        for line in path.read_text().splitlines():
            json.loads(line)


class TestWorker:
    def test_execute_cell_runs_requested_range_only(self):
        runs = DEFAULT_CHUNK + 4
        cells = plan_cells(
            get_benchmark("Search"),
            seed=SEED,
            runs=runs,
            scenarios=("default",),
        )
        payload = execute_cell(cells[1])
        outs = payload["outcomes"]["default"]
        assert len(outs) == 4
        serial = run_experiment(
            get_benchmark("Search"), seed=SEED, runs=runs, scenarios=("default",)
        )
        assert_outcomes_identical(serial.default[DEFAULT_CHUNK:], outs, "default")


class TestSweepCLI:
    def test_sweep_command_with_cache_and_telemetry(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        telemetry = tmp_path / "tel.jsonl"
        argv = [
            "sweep", "Search", "--runs", "3", "--jobs", "2",
            "--telemetry", str(telemetry), "--cache-dir", str(tmp_path / "c"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Search" in out and "0 cached" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out
        hits = [e for e in read_events(telemetry) if e["event"] == "cache_hit"]
        assert hits

    def test_sweep_no_cache_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "Search", "--runs", "2", "--no-cache"]) == 0
        assert "cache:" not in capsys.readouterr().out
        assert not (tmp_path / ".repro_cache").exists()

    def test_sweep_strict_exits_nonzero_on_failed_cells(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments.parallel as parallel
        from repro.experiments.parallel import CellFailure, SweepReport

        monkeypatch.chdir(tmp_path)
        degraded = SweepReport(
            results=[],
            cells_total=2,
            cells_cached=0,
            cells_executed=1,
            cells_failed=1,
            failures=[
                CellFailure(
                    benchmark="Search", scenario="default", start=0,
                    stop=2, reason="timeout", detail="hung", attempts=2,
                )
            ],
        )
        monkeypatch.setattr(
            parallel, "run_sweep", lambda *a, **kw: degraded
        )
        argv = ["sweep", "Search", "--runs", "2", "--no-cache"]
        # Default: degraded sweeps return surviving results, exit 0 —
        # but the failure is surfaced in the summary and on stderr.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "1 FAILED" in captured.out
        assert "failed cell" in captured.err
        assert "timeout" in captured.err
        # --strict: any failed cell makes the exit status non-zero.
        assert main(argv + ["--strict"]) == 1
        assert "1 cell(s) failed" in capsys.readouterr().err
