"""Tests for the ``python -m repro`` command-line interface."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.__main__ import main

BASELINE = Path(__file__).parent.parent / "benchmarks" / "BENCH_baseline.json"


@pytest.fixture(scope="class")
def bare_bench(tmp_path_factory):
    """One quick run of the whole bench suite, gated on an inflated baseline.

    The run writes its report, then the gate trips on a copy of the
    checked-in baseline with one gated ratio inflated past anything a
    runner can reach. Both bare-bench tests read this one run.
    """
    tmp = tmp_path_factory.mktemp("bare_bench")
    baseline = json.loads(BASELINE.read_text())
    baseline["speedup"]["geomean"] *= 100
    inflated = tmp / "baseline.json"
    inflated.write_text(json.dumps(baseline))
    out = tmp / "BENCH_vm.json"
    argv = ["bench", "--quick", "--out", str(out), "--baseline", str(inflated)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        status = main(argv)
    return SimpleNamespace(
        status=status,
        out=stdout.getvalue(),
        err=stderr.getvalue(),
        report_path=out,
    )


class TestCLI:
    def test_list_prints_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("Mtrt", "Compress", "RayTracer", "Search"):
            assert name in out

    def test_bare_bench_runs_vm_suite(self, bare_bench):
        # Bare `repro bench` is the fast-engine wall-clock suite in quick
        # mode; it prints the speedups and writes the report.
        assert "speedup" in bare_bench.out
        assert f"report -> {bare_bench.report_path}" in bare_bench.out
        report = json.loads(bare_bench.report_path.read_text())
        assert report["quick"] is True
        assert report["speedup"]["geomean"] > 1.0
        assert all(row["speedup"] > 0 for row in report["workloads"])
        assert all(row["speedup_compiled"] > 0 for row in report["workloads"])

    def test_bare_bench_regression_gate(self, bare_bench):
        # A baseline demanding an impossible speedup must trip the gate.
        assert bare_bench.status == 1
        assert "REGRESSION: geomean speedup regressed" in bare_bench.err

    def test_bench_runs_scenarios(self, capsys):
        assert main(["bench", "Search", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "evolve" in out
        assert out.count("\n") >= 5

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_table1_reduced(self, capsys):
        assert main(["table1", "--runs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Program" in out and "RayTracer" in out

    def test_gc_study_reduced(self, capsys):
        assert main(["gc-study", "--runs", "8"]) == 0
        assert "GC-selection" in capsys.readouterr().out

    def test_fuzz_smoke(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        assert (
            main(
                [
                    "fuzz",
                    "--seed",
                    "0",
                    "--iterations",
                    "3",
                    "--corpus-dir",
                    str(corpus),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3/3" in out
        assert "0 divergence(s)" in out
        # clean campaign: nothing written to the corpus
        assert not corpus.exists() or not list(corpus.glob("*.ml"))
