"""Unit tests for AOS controllers and the Rep profile repository."""

import gc
import weakref

import pytest

from repro.aos import (
    AdaptiveController,
    PairPlanController,
    PairStrategy,
    ProfileRepository,
    RecompilePair,
)
from repro.vm import DEFAULT_CONFIG, Interpreter, JITCompiler, run_program


class TestAdaptiveController:
    def test_recompiles_hot_method(self, hot_program):
        interp = Interpreter(hot_program)
        controller = AdaptiveController(interp)
        profile = interp.run((2000,))
        assert profile.final_levels["kernel"] > -1
        assert controller.decisions
        assert any(m == "kernel" for m, _, _ in controller.decisions)

    def test_beats_baseline_on_hot_loop(self, hot_program):
        _, base = run_program(hot_program, args=(2000,))
        interp = Interpreter(hot_program)
        AdaptiveController(interp)
        adaptive = interp.run((2000,))
        assert adaptive.total_cycles < base.total_cycles

    def test_excluded_methods_untouched(self, hot_program):
        interp = Interpreter(hot_program)
        AdaptiveController(interp, exclude=frozenset({"kernel"}))
        profile = interp.run((2000,))
        assert profile.final_levels["kernel"] == -1

    def test_short_run_not_overcompiled(self, hot_program):
        interp = Interpreter(hot_program)
        AdaptiveController(interp)
        profile = interp.run((3,))
        # Too little work to justify any recompilation.
        assert all(level == -1 for level in profile.final_levels.values())

    def test_a_finished_run_is_freed_without_the_cyclic_collector(
        self, hot_program
    ):
        # The controller holds the interpreter; a finished run detaches
        # it, so the run (and the JIT it holds) goes with its last
        # reference instead of waiting for a collection.
        def run():
            interp = Interpreter(hot_program)
            AdaptiveController(interp)
            interp.run((200,))
            assert not interp.sampler.has_listeners
            return weakref.ref(interp), weakref.ref(interp.jit)

        gc.disable()
        try:
            refs = run()
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestPairPlanController:
    def test_plan_executed_at_thresholds(self, hot_program):
        strategy = PairStrategy({"kernel": (RecompilePair(2, 1),)})
        interp = Interpreter(hot_program)
        PairPlanController(interp, strategy)
        profile = interp.run((2000,))
        assert profile.final_levels["kernel"] == 1
        kernel_events = [
            e for e in profile.compile_events if e.method == "kernel"
        ]
        assert [e.level for e in kernel_events] == [-1, 1]

    def test_multi_pair_plan_staged(self, hot_program):
        strategy = PairStrategy(
            {"kernel": (RecompilePair(1, 0), RecompilePair(5, 2))}
        )
        interp = Interpreter(hot_program)
        PairPlanController(interp, strategy)
        profile = interp.run((2000,))
        kernel_levels = [
            e.level for e in profile.compile_events if e.method == "kernel"
        ]
        assert kernel_levels == [-1, 0, 2]

    def test_unplanned_methods_untouched(self, hot_program):
        strategy = PairStrategy({"kernel": (RecompilePair(1, 2),)})
        interp = Interpreter(hot_program)
        PairPlanController(interp, strategy)
        profile = interp.run((2000,))
        assert profile.final_levels["main"] == -1


class TestProfileRepository:
    @pytest.fixture
    def repo(self, hot_program):
        jit = JITCompiler(hot_program, DEFAULT_CONFIG)
        return ProfileRepository(jit, DEFAULT_CONFIG.sample_interval)

    def run_and_record(self, repo, hot_program, n, runs=1):
        for _ in range(runs):
            interp = Interpreter(hot_program, jit=repo.jit)
            AdaptiveController(interp)
            repo.record_run(interp.run((n,)))

    def test_empty_repository_has_empty_strategy(self, repo):
        assert len(repo.strategy()) == 0

    def test_hot_history_produces_plan(self, repo, hot_program):
        self.run_and_record(repo, hot_program, 2000, runs=3)
        strategy = repo.strategy()
        assert "kernel" in strategy.plans
        plan = strategy.plan_for("kernel")
        assert plan[-1].level >= 1

    def test_cold_history_produces_no_plan(self, repo, hot_program):
        self.run_and_record(repo, hot_program, 2, runs=3)
        assert repo.strategy().plan_for("kernel") == ()

    def test_strategy_cached_until_new_run(self, repo, hot_program):
        self.run_and_record(repo, hot_program, 2000)
        first = repo.strategy()
        assert repo.strategy() is first
        self.run_and_record(repo, hot_program, 2000)
        assert repo.strategy() is not first

    def test_history_backfills_missing_methods(self, repo, hot_program):
        self.run_and_record(repo, hot_program, 2000, runs=2)
        assert repo.run_count == 2
        for works in repo._history.values():
            assert len(works) == 2

    def test_plan_cost_decreases_with_useful_plan(self, repo, hot_program):
        """For a heavy workload, the planned cost must beat the no-plan cost."""
        self.run_and_record(repo, hot_program, 2000)
        work = repo._history["kernel"][-1]
        no_plan = repo._plan_cost("kernel", (), work)
        plan = (RecompilePair(1, 2),)
        assert repo._plan_cost("kernel", plan, work) < no_plan

    def test_plan_cost_short_run_prefers_no_plan(self, repo, hot_program):
        plan = (RecompilePair(1, 2),)
        tiny_work = 1000.0
        assert repo._plan_cost("kernel", plan, tiny_work) >= repo._plan_cost(
            "kernel", (), tiny_work
        )

    def test_repository_strategy_speeds_up_future_runs(self, repo, hot_program):
        self.run_and_record(repo, hot_program, 2000, runs=3)
        strategy = repo.strategy()
        interp = Interpreter(hot_program, jit=repo.jit)
        PairPlanController(interp, strategy)
        planned = interp.run((2000,))
        _, base = run_program(hot_program, args=(2000,))
        assert planned.total_cycles < base.total_cycles


class TestWorkHistogram:
    def test_small_histories_kept_exact(self):
        from repro.aos.repository import _histogram

        hist = _histogram([3.0, 1.0, 2.0], buckets=10)
        assert hist.values == (1.0, 2.0, 3.0)
        assert sum(hist.weights) == pytest.approx(1.0)

    def test_large_histories_bucketed(self):
        from repro.aos.repository import _histogram

        hist = _histogram([float(i) for i in range(100)], buckets=10)
        assert len(hist.values) <= 11
        assert sum(hist.weights) == pytest.approx(1.0)
        assert list(hist.values) == sorted(hist.values)

    def test_empty_history(self):
        from repro.aos.repository import _histogram

        hist = _histogram([], buckets=4)
        assert hist.values == ()
