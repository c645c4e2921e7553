"""Tests for the chaos harness and the ``repro chaos`` CLI."""

import pytest

from repro.__main__ import main
from repro.resilience.chaos import (
    ChaosReport,
    ChaosViolation,
    _build_reference,
    _check_rollback_pillar,
    _check_state_pillar,
    run_chaos,
)
from repro.resilience.degradation import DegradationReport
from repro.resilience.faults import FaultPlan, FaultyFS
from repro.scenarios.drift import get_drift_spec


@pytest.fixture(scope="module")
def reference():
    return _build_reference(0, "Search", 2)


@pytest.fixture(scope="module")
def drift_reference():
    return _build_reference(
        0, "Search", 3, drift_spec=get_drift_spec("abrupt")
    )


class TestRunChaos:
    def test_campaign_holds_invariants(self, tmp_path):
        report = run_chaos(
            seed=0, iterations=6, runs=2,
            sweep_every=3, workdir=str(tmp_path),
        )
        assert report.ok, [v.describe() for v in report.violations]
        assert report.completed == 6
        # The chaos fault mix actually fires and is actually survived.
        assert report.faults_injected > 0
        assert report.degradations > 0
        assert report.quarantines > 0
        assert "0 violation(s)" in report.describe()

    def test_same_seed_same_campaign(self, tmp_path):
        kwargs = dict(
            iterations=3, runs=2, sweep_every=0,
            workdir=str(tmp_path),
        )
        a = run_chaos(seed=5, **kwargs)
        b = run_chaos(seed=5, **kwargs)
        assert (a.faults_injected, a.degradations, a.quarantines) == (
            b.faults_injected, b.degradations, b.quarantines
        )

    def test_violations_flip_ok(self):
        report = ChaosReport(seed=0, iterations=1, benchmark="Search")
        assert report.ok
        report.violations.append(
            ChaosViolation(iteration=0, kind="divergence", detail="x")
        )
        assert not report.ok
        assert "divergence" in report.violations[0].describe()


class TestHarnessDetectsViolations:
    """The chaos invariants must be falsifiable, not vacuously green."""

    def test_doctored_reference_is_caught(self, reference, tmp_path):
        # Poison the expected post-run observations: a correct system now
        # looks "wrong", which must surface as a divergence violation.
        real_warm, real_cold = reference.warm_post, reference.cold_post
        reference.warm_post = ("bogus", -1.0)
        reference.cold_post = ("bogus", -1.0)
        try:
            found = []
            _check_state_pillar(
                reference,
                FaultyFS(FaultPlan(seed=0)),  # no faults at all
                DegradationReport(),
                tmp_path,
                found,
            )
        finally:
            reference.warm_post, reference.cold_post = real_warm, real_cold
        assert any(kind == "divergence" for kind, _ in found)

    def test_clean_fs_state_pillar_is_green(self, reference, tmp_path):
        found = []
        _check_state_pillar(
            reference,
            FaultyFS(FaultPlan(seed=0)),
            DegradationReport(),
            tmp_path / "clean",
            found,
        )
        assert found == []


class TestDriftChaos:
    """Combined drift+fault campaigns: the rollback pillar."""

    def test_drift_campaign_holds_invariants(self, tmp_path):
        report = run_chaos(
            seed=0, iterations=3, runs=3,
            sweep_every=2, workdir=str(tmp_path), drift=True,
        )
        assert report.ok, [v.describe() for v in report.violations]
        assert report.drift is True
        assert report.completed == 3
        assert report.faults_injected > 0

    def test_drift_reference_has_rollback_signature(self, drift_reference):
        assert drift_reference.drift_spec is not None
        assert drift_reference.rollback_signature != ()

    def test_clean_fs_rollback_pillar_is_green(
        self, drift_reference, tmp_path
    ):
        found = []
        _check_rollback_pillar(
            drift_reference,
            FaultyFS(FaultPlan(seed=0)),
            DegradationReport(),
            tmp_path / "clean",
            found,
        )
        assert found == []

    def test_doctored_rollback_signature_is_caught(
        self, drift_reference, tmp_path
    ):
        real = drift_reference.rollback_signature
        drift_reference.rollback_signature = ("bogus",)
        try:
            found = []
            _check_rollback_pillar(
                drift_reference,
                FaultyFS(FaultPlan(seed=0)),
                DegradationReport(),
                tmp_path / "doctored",
                found,
            )
        finally:
            drift_reference.rollback_signature = real
        assert any(kind == "divergence" for kind, _ in found)


    def test_a_registry_restoring_a_wrong_generation_is_caught(
        self, drift_reference, tmp_path, monkeypatch
    ):
        from repro.resilience import chaos

        class ForgetfulRegistry(chaos.ModelRegistry):
            def load_into(self, vm):
                restored = super().load_into(vm)
                self.generations[vm.app.name] = 0
                return restored

        monkeypatch.setattr(chaos, "ModelRegistry", ForgetfulRegistry)
        found = []
        _check_rollback_pillar(
            drift_reference,
            FaultyFS(FaultPlan(seed=0)),
            DegradationReport(),
            tmp_path / "forgetful",
            found,
        )
        assert any(kind == "divergence" for kind, _ in found)


class TestChaosCLI:
    def test_cli_green_run_exits_zero(self, capsys):
        code = main(["chaos", "--iterations", "2", "--runs", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chaos seed=1" in out
        assert "all resilience invariants held" in out

    def test_cli_rejects_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["chaos", "NoSuchBench", "--iterations", "1"])

    def test_cli_drift_flag(self, capsys):
        code = main(
            ["chaos", "--iterations", "1", "--runs", "3", "--drift"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "drifted input schedule" in out
