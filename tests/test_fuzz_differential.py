"""Tests for the differential executor and the end-to-end fuzz loop.

The acceptance tests at the bottom break an optimization pass, an
engine's cost accounting and the compiled tier's tick delivery on
purpose and require the harness to catch each bug and shrink it to a
minimal reproducer — the whole point of the subsystem.
"""

from pathlib import Path

import pytest

from repro.lang import compile_source
from repro.testing import (
    REFERENCE,
    default_variants,
    execute_variant,
    generate,
    load_corpus,
    replay_corpus,
    run_differential,
    run_fuzz,
)
from repro.vm.opt.passes.constant_folding import _FOLDERS
from repro.vm.program import Op


CORPUS_DIR = Path(__file__).parent / "corpus"


class TestVariantMatrix:
    def test_default_variants_cover_levels_and_passes(self):
        variants = default_variants()
        configs = list(dict.fromkeys(v.config for v in variants))
        assert configs[:4] == ["base", "L0", "L1", "L2"]
        assert "pass:constant_folding" in configs
        assert "pass:tail_call" in configs
        assert "pass:dce" in configs
        assert configs[-2:] == ["adaptive", "plan"]
        assert len(configs) == 12
        # Every config on every engine.
        assert {(v.config, v.engine) for v in variants} == {
            (config, engine)
            for config in configs
            for engine in ("reference", "fast", "compiled")
        }
        assert len(variants) == 36

    def test_outcome_tracks_output_and_heap(self):
        source = """
        fn main() {
          print(3);
          alloc(64);
          print(max(7, 2));
          return 0;
        }
        """
        program = compile_source(source, name="obs")
        reference = execute_variant(program, (), REFERENCE)
        assert reference.kind == "ok"
        assert len(reference.output) == 2
        assert reference.heap[1] >= 1  # allocation_count
        report = run_differential(program, ())
        assert not report.divergences
        assert len(report.outcomes) == len(default_variants())
        for observed in report.outcomes.values():
            assert observed.value == reference.value
            assert observed.output == reference.output
            assert observed.heap == reference.heap

    def test_faulting_program_faults_identically_everywhere(self):
        # Constant folding deliberately leaves div-by-zero unfolded so
        # the fault stays a runtime fault under every configuration.
        program = compile_source("fn main() { return 1 / 0; }", name="div0")
        report = run_differential(program, ())
        assert report.reference.kind == "error"
        assert not report.divergences


class TestGeneratedBatchInvariant:
    def test_zero_divergences_across_batch(self):
        for i in range(30):
            case = generate(1, i)
            program = compile_source(case.source, name=f"d{i}")
            report = run_differential(program, case.args)
            assert not report.skipped, i
            assert not report.divergences, (
                i,
                [d.describe() for d in report.divergences],
            )


class TestBrokenPassAcceptance:
    """ISSUE acceptance: an intentionally-broken pass must be caught and
    minimized to a reproducer of at most 10 instructions."""

    @pytest.fixture
    def broken_sub(self, monkeypatch):
        monkeypatch.setitem(_FOLDERS, Op.SUB, lambda a, b: a - b + 1)

    def test_broken_fold_caught_and_minimized(self, broken_sub, tmp_path):
        report = run_fuzz(
            seed=0,
            iterations=20,
            jobs=1,  # inline: the monkeypatch must stay visible
            corpus_dir=str(tmp_path),
        )
        assert not report.ok
        finding = report.findings[0]
        assert "pass:constant_folding" in finding.divergent
        assert finding.instructions <= 10
        assert finding.reproducer is not None
        entries = load_corpus(tmp_path)
        assert entries and entries[0].meta["seed"] == 0

    def test_corpus_replays_clean_after_fix(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(_FOLDERS, Op.SUB, lambda a, b: a - b + 1)
            report = run_fuzz(
                seed=0, iterations=20, jobs=1, corpus_dir=str(tmp_path)
            )
            assert report.findings
        # Patch undone — the "fix" landed; the stored reproducer must now
        # pass the whole matrix, which is exactly what tier-1 replay does.
        for entry, replay in replay_corpus(tmp_path):
            assert not replay.divergences, entry.name


class TestFuzzDriver:
    def test_clean_campaign_reports_ok(self):
        report = run_fuzz(seed=3, iterations=10, jobs=1)
        assert report.ok
        assert report.checked == 10
        assert "10/10" in report.describe()

    def test_time_budget_stops_early(self):
        report = run_fuzz(seed=0, iterations=500, jobs=1, time_budget=0.0)
        assert report.checked < 500


class TestBrokenEngineAcceptance:
    """A cost-accounting bug in one engine is caught with no flag: by the
    corpus replay and by a plain fuzz campaign, labelled with the config,
    the engine and the diverging field."""

    @pytest.fixture
    def broken_call_cost(self, monkeypatch):
        import repro.vm.closures as closures

        monkeypatch.setattr(closures, "_W_CALL", closures._W_CALL + 1)

    def test_corpus_replay_catches_engine_bug(self, broken_call_cost):
        labels = [
            label
            for _, report in replay_corpus(CORPUS_DIR)
            for label in report.labels()
        ]
        assert any(":compiled:" in label for label in labels), labels

    def test_fuzz_catches_engine_bug(self, broken_call_cost):
        report = run_fuzz(seed=0, iterations=5, jobs=1)
        assert not report.ok
        for finding in report.findings:
            assert all(":compiled:" in v for v in finding.divergent)


class TestBrokenTickAcceptance:
    """A sample tick the compiled tier delivers one instruction late is
    caught by the corpus replay, in an adaptive config: the recompile the
    tick applies then changes the speed one instruction too late."""

    @pytest.fixture
    def late_tick(self, monkeypatch):
        import repro.vm.closures as closures

        def late_replay(vm, state, name, works, clock, mcycles, mwork,
                        executed):
            speed = state.compiled.speed_factor
            due = False
            for work in works:
                if work.__class__ is tuple:
                    work, gc = work
                    if gc:
                        work = work + gc / speed
                cost = work * speed
                clock = clock + cost
                mcycles = mcycles + cost
                mwork = mwork + work
                executed += 1
                if due:  # the previous instruction reached the tick
                    vm.mc[name] = mcycles
                    vm.mw[name] = mwork
                    clock = closures._tick(vm, clock, name)
                    speed = state.compiled.speed_factor
                due = clock >= vm.sampler._next_tick
            if due:
                vm.mc[name] = mcycles
                vm.mw[name] = mwork
                clock = closures._tick(vm, clock, name)
            return clock, mcycles, mwork, executed

        monkeypatch.setattr(closures, "_replay", late_replay)

    def test_corpus_replay_catches_late_tick(self, late_tick):
        labels = [
            label
            for _, report in replay_corpus(CORPUS_DIR)
            for label in report.labels()
        ]
        assert any(
            label.startswith(("adaptive:compiled:", "plan:compiled:"))
            for label in labels
        ), labels
        assert all(":compiled:" in label for label in labels), labels
