"""Crash-safety tests for evolvable-VM state persistence.

The contract (docs/robustness.md): ``load_state_file`` never raises. A
missing, torn, bit-flipped, or semantically invalid state file is
quarantined with a machine-readable reason and the VM boots with empty
records — the paper's low-confidence path, where the reactive adaptive
optimizer carries the run. A VM that failed to load must still run, and
run exactly like a freshly constructed one.
"""

import json

import pytest

from repro.core import (
    EvolvableVM,
    load_state_file,
    save_state,
    state_to_dict,
)
from repro.core.records import STATE_KIND
from repro.resilience.degradation import DegradationReport
from repro.resilience.envelope import decode_envelope
from repro.resilience.faults import FaultPlan, FaultyFS
from repro.resilience.quarantine import quarantine_dir

TRAIN = ["-m 1 -n 50", "-m 2 -n 1200", "-m 1 -n 1200", "-m 2 -n 50",
         "-m 1 -n 50", "-m 2 -n 1200"]


@pytest.fixture
def trained(toy_app):
    vm = EvolvableVM(toy_app)
    for i, cmd in enumerate(TRAIN):
        vm.run(cmd, rng_seed=i)
    return vm


@pytest.fixture
def state_path(trained, tmp_path):
    path = str(tmp_path / "state.json")
    assert save_state(trained, path)
    return path


def assert_cold_boot(toy_app, vm):
    """The degraded VM behaves exactly like a freshly constructed one."""
    assert vm.run_count == 0
    assert vm.confidence.value == EvolvableVM(toy_app).confidence.value
    fresh = EvolvableVM(toy_app).run(TRAIN[0], rng_seed=0)
    outcome = vm.run(TRAIN[0], rng_seed=0)
    assert outcome.result == fresh.result
    assert outcome.total_cycles == fresh.total_cycles
    assert not outcome.applied_prediction


class TestDegradationLedger:
    """Dedupe + monotonic sequencing of the degradation ledger.

    Repeated identical degradations (the same fault firing every run of
    a long campaign) must not grow the ledger unboundedly, while the
    counting APIs keep reporting total occurrences.
    """

    def test_identical_records_collapse_but_count(self):
        report = DegradationReport()
        for _ in range(50):
            report.record("sweep", "retry", "exception", detail="boom")
        assert len(report.events) == 1
        assert len(report) == 50
        assert report.count(component="sweep", action="retry") == 50
        assert report.occurrences(report.events[0]) == 50
        assert "sweep/retry×50" in report.describe()

    def test_distinct_records_get_monotonic_seq(self):
        report = DegradationReport()
        first = report.record("state", "quarantine", "bad-magic")
        report.record("state", "quarantine", "bad-magic")  # duplicate
        second = report.record("telemetry", "drop-event", "ENOSPC")
        third = report.record("state", "quarantine", "bad-crc")
        assert [e.seq for e in report.events] == [
            first.seq, second.seq, third.seq
        ]
        # Sequence numbers are arrival ordinals: the duplicate advanced
        # the clock, so later entries sit strictly after it.
        assert first.seq == 0
        assert first.seq < second.seq < third.seq
        assert len(report.events) == 3
        assert len(report) == 4

    def test_differing_detail_is_not_a_duplicate(self):
        report = DegradationReport()
        report.record("state", "store-failed", "OSError", detail="disk a")
        report.record("state", "store-failed", "OSError", detail="disk b")
        assert len(report.events) == 2
        assert report.count(component="state") == 2

    def test_extend_preserves_occurrence_counts(self):
        a = DegradationReport()
        for _ in range(3):
            a.record("sweep", "retry", "exception")
        b = DegradationReport()
        b.record("state", "quarantine", "bad-crc")
        b.extend(a)
        assert len(b.events) == 2
        assert len(b) == 4
        assert b.count(component="sweep", action="retry") == 3
        # Re-sequenced into the receiving report's monotonic order.
        assert b.events[0].seq < b.events[1].seq


class TestEnvelopeRoundTrip:
    def test_state_file_is_an_envelope(self, state_path):
        with open(state_path, "rb") as fh:
            payload = decode_envelope(fh.read(), STATE_KIND)
        assert json.loads(payload)["format"] == 1

    def test_round_trip_restores_learning(self, toy_app, trained, state_path):
        restored = EvolvableVM(toy_app)
        report = DegradationReport()
        assert load_state_file(restored, state_path, report=report)
        assert len(report) == 0
        assert restored.confidence.value == pytest.approx(
            trained.confidence.value
        )
        assert restored.run_count == trained.run_count
        assert restored.models.method_names == trained.models.method_names

    def test_legacy_plain_json_still_loads(self, toy_app, trained, tmp_path):
        # State files written before the envelope existed.
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(state_to_dict(trained)))
        restored = EvolvableVM(toy_app)
        assert load_state_file(restored, str(path))
        assert restored.run_count == trained.run_count


class TestLoadNeverRaises:
    def test_missing_file_is_cold_start(self, toy_app, tmp_path):
        vm = EvolvableVM(toy_app)
        report = DegradationReport()
        assert not load_state_file(vm, str(tmp_path / "none"), report=report)
        event = report.events[0]
        assert (event.component, event.action, event.reason) == (
            "state", "cold-start", "missing"
        )
        assert_cold_boot(toy_app, vm)

    @pytest.mark.parametrize(
        "corruptor,reason",
        [
            (lambda blob: blob[: len(blob) // 2], "truncated"),
            (lambda blob: blob + b"x", "length-mismatch"),
            (
                lambda blob: blob[:-10] + bytes([blob[-10] ^ 1]) + blob[-9:],
                "checksum-mismatch",
            ),
            (lambda blob: b"garbage header\npayload", "bad-magic"),
            (lambda blob: b"", "truncated-header"),
        ],
    )
    def test_corrupt_envelope_quarantines(
        self, toy_app, state_path, corruptor, reason
    ):
        with open(state_path, "rb") as fh:
            blob = fh.read()
        with open(state_path, "wb") as fh:
            fh.write(corruptor(blob))

        vm = EvolvableVM(toy_app)
        report = DegradationReport()
        assert not load_state_file(vm, state_path, report=report)
        assert report.count(component="state", action="quarantine") == 1
        assert report.events[0].reason == reason
        assert quarantine_dir(state_path).exists()
        assert_cold_boot(toy_app, vm)

    def test_valid_envelope_invalid_json_quarantines(
        self, toy_app, state_path
    ):
        from repro.resilience.envelope import write_envelope

        write_envelope(state_path, b"not json at all", kind=STATE_KIND)
        report = DegradationReport()
        vm = EvolvableVM(toy_app)
        assert not load_state_file(vm, state_path, report=report)
        assert report.events[0].reason == "invalid-json"

    def test_valid_json_invalid_state_quarantines(self, toy_app, state_path):
        from repro.resilience.envelope import write_json_envelope

        write_json_envelope(
            state_path, {"format": 1, "application": "other"}, kind=STATE_KIND
        )
        report = DegradationReport()
        vm = EvolvableVM(toy_app)
        assert not load_state_file(vm, state_path, report=report)
        assert report.events[0].reason == "invalid-state"
        # The failed load must not have half-restored anything.
        assert_cold_boot(toy_app, vm)

    def test_malformed_counters_quarantine(self, toy_app, trained, state_path):
        from repro.resilience.envelope import write_json_envelope

        state = {**state_to_dict(trained), "counters": {"generation": "3"}}
        write_json_envelope(state_path, state, kind=STATE_KIND)
        report = DegradationReport()
        vm = EvolvableVM(toy_app)
        assert not load_state_file(vm, state_path, report=report)
        assert report.events[0].reason == "invalid-state"
        assert_cold_boot(toy_app, vm)

    def test_legacy_state_with_non_object_methods_quarantines(
        self, tmp_path
    ):
        # A plain-JSON state (the legacy, pre-envelope format) whose
        # "methods" is a list, not an object.
        from repro.bench import get_benchmark
        from repro.serving import ModelRegistry, Tenant

        app, _ = get_benchmark("Search").build(seed=0)
        registry = ModelRegistry(tmp_path)
        path = registry.state_path("Search")
        legacy = {
            "format": 1, "application": "Search", "confidence": 0.5,
            "run_count": 1, "methods": [],
        }
        path.write_text(json.dumps(legacy))

        report = DegradationReport()
        assert not load_state_file(
            EvolvableVM(app), str(path), report=report
        )
        assert not path.exists()
        assert quarantine_dir(str(path)).exists()
        assert [
            e.reason for e in report.events
            if (e.component, e.action) == ("state", "cold-start")
        ] == ["invalid-state"]

        path.write_text(json.dumps(legacy))
        tenant = Tenant(app, registry=registry, refit_interval=None)
        assert tenant.generation == 0
        assert registry.cold_started == ["Search"]

    def test_eio_read_is_cold_start_without_quarantine(
        self, toy_app, state_path
    ):
        fs = FaultyFS(FaultPlan(seed=0, io_error_read=1.0))
        report = DegradationReport()
        vm = EvolvableVM(toy_app)
        assert not load_state_file(vm, state_path, fs=fs, report=report)
        # The file itself may be fine — transient I/O error, no quarantine.
        assert report.count(action="quarantine") == 0
        assert report.count(component="state", action="cold-start") == 1


class TestSaveNeverFatal:
    def test_full_disk_reports_and_returns_false(self, trained, tmp_path):
        fs = FaultyFS(FaultPlan(seed=0, io_error_write=1.0))
        report = DegradationReport()
        path = str(tmp_path / "state.json")
        assert not save_state(trained, path, fs=fs, report=report)
        event = report.events[0]
        assert (event.component, event.action) == ("state", "store-failed")

    def test_torn_save_detected_on_next_load(self, toy_app, trained, tmp_path):
        fs = FaultyFS(FaultPlan(seed=2, torn_write=1.0))
        path = str(tmp_path / "state.json")
        assert save_state(trained, path, fs=fs)  # the tear is silent
        report = DegradationReport()
        vm = EvolvableVM(toy_app)
        assert not load_state_file(vm, path, report=report)
        assert report.count(component="state", action="quarantine") == 1
        assert_cold_boot(toy_app, vm)
