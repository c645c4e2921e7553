"""Focused tests for the experiment runner's scenario plumbing."""

import pytest

from repro.bench import get_benchmark
from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def with_phase():
    return run_experiment(
        get_benchmark("Search"),
        seed=6,
        runs=6,
        scenarios=("default", "rep", "evolve", "phase"),
    )


class TestPhaseScenario:
    def test_phase_outcomes_populated(self, with_phase):
        assert len(with_phase.phase) == 6
        assert all(out.scenario == "phase" for out in with_phase.phase)

    def test_phase_results_agree(self, with_phase):
        for default, phase in zip(with_phase.default, with_phase.phase):
            assert default.result == phase.result

    def test_phase_speedups_available(self, with_phase):
        speedups = with_phase.speedups("phase")
        assert len(speedups) == 6
        assert all(s > 0 for s in speedups)

    def test_unknown_scenario_speedups_rejected(self, with_phase):
        with pytest.raises(KeyError):
            with_phase.speedups("quantum")


class TestRunnerParameterPlumbing:
    def test_gamma_and_threshold_reach_the_vm(self):
        result = run_experiment(
            get_benchmark("Search"),
            seed=6,
            runs=3,
            scenarios=("evolve",),
            gamma=0.42,
            threshold=0.9,
        )
        assert result.evolve_vm.confidence.gamma == 0.42
        assert result.evolve_vm.confidence.threshold == 0.9

    def test_tree_params_reach_the_models(self):
        from repro.learning.tree import TreeParams

        params = TreeParams(max_depth=2)
        result = run_experiment(
            get_benchmark("Search"),
            seed=6,
            runs=3,
            scenarios=("evolve",),
            tree_params=params,
        )
        assert result.evolve_vm.models.tree_params.max_depth == 2

    def test_default_runs_come_from_benchmark(self):
        bench = get_benchmark("Search")
        result = run_experiment(bench, seed=6, scenarios=("default",))
        assert len(result.default) == bench.runs

    def test_custom_config_used_everywhere(self):
        from repro.vm.config import VMConfig

        config = VMConfig(sample_interval=80_000)
        result = run_experiment(
            get_benchmark("Search"),
            seed=6,
            runs=3,
            config=config,
            scenarios=("default", "evolve"),
        )
        assert result.evolve_vm.config.sample_interval == 80_000

    def test_every_scenario_runs_on_the_requested_engine(self, monkeypatch):
        from repro.experiments import run_sweep
        from repro.vm import interpreter

        def refuse(*args, **kwargs):
            raise AssertionError("the fast engine ran under engine='reference'")

        monkeypatch.setattr(interpreter, "run_fast", refuse)
        report = run_sweep(
            [get_benchmark("Search")],
            jobs=1,
            runs=2,
            scenarios=("default", "rep", "evolve", "phase"),
            engine="reference",
            backoff_s=0.0,
        )
        assert report.cells_failed == 0, report.failures
        result = report.results[0]
        for scenario in ("default", "rep", "evolve", "phase"):
            assert len(getattr(result, scenario)) == 2, scenario
