"""Direct unit tests for :mod:`repro.experiments.telemetry`.

The parallel-engine tests exercise telemetry end-to-end; these pin the
pieces down in isolation: the JSONL event schema, cache-key stability,
and the cache hit/miss paths (including corrupt entries).
"""

import json
from types import SimpleNamespace

from repro.experiments.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    CacheKey,
    ResultCache,
    TelemetryLog,
    cell_event,
    config_digest,
    read_events,
    run_event,
    validate_event,
)
from repro.vm.config import DEFAULT_CONFIG
from repro.vm.profiles import RunProfile


def _fake_outcome(**overrides):
    """A stand-in for RunOutcome with exactly the fields run_event reads."""
    profile = RunProfile()
    fields = {
        "profile": profile,
        "total_cycles": 1234,
        "overhead_cycles": 56,
        "confidence_after": 0.5,
        "accuracy": 0.75,
        "applied_prediction": True,
    }
    fields.update(overrides)
    return SimpleNamespace(**fields)


class TestEventSchema:
    def test_run_event_is_valid(self):
        event = run_event(
            benchmark="Mtrt",
            scenario="evolve",
            run_index=3,
            input_index=1,
            cmdline="-size 10",
            rng_seed=3,
            outcome=_fake_outcome(),
            wall_s=0.25,
        )
        assert validate_event(event) == []
        assert event["v"] == TELEMETRY_SCHEMA_VERSION

    def test_cell_events_are_valid(self):
        for kind in ("cell", "cache_hit"):
            event = cell_event(kind, "Mtrt", "default", 0, 8, cached=True)
            assert validate_event(event) == []

    def test_missing_field_reported(self):
        event = cell_event("cell", "Mtrt", "default", 0, 8)
        del event["stop"]
        assert any("stop" in p for p in validate_event(event))

    def test_wrong_type_reported(self):
        event = cell_event("cell", "Mtrt", "default", 0, 8)
        event["start"] = "zero"
        assert any("start" in p for p in validate_event(event))

    def test_unknown_kind_rejected(self):
        assert validate_event({"event": "mystery"}) == [
            "unknown event kind 'mystery'"
        ]

    def test_stale_schema_version_rejected(self):
        event = cell_event("cell", "Mtrt", "default", 0, 8)
        event["v"] = TELEMETRY_SCHEMA_VERSION + 1
        assert any("schema version" in p for p in validate_event(event))

    def test_methods_per_level_keys_checked(self):
        event = run_event(
            benchmark="Mtrt",
            scenario="rep",
            run_index=0,
            input_index=0,
            cmdline="",
            rng_seed=0,
            outcome=_fake_outcome(),
        )
        event["methods_per_level"] = {2: 1}  # int key: invalid over JSON
        assert any("methods_per_level" in p for p in validate_event(event))


class TestConfigDigest:
    def test_insensitive_to_argument_order(self):
        a = config_digest(seed=1, gamma=0.7, config=DEFAULT_CONFIG)
        b = config_digest(config=DEFAULT_CONFIG, gamma=0.7, seed=1)
        assert a == b

    def test_sensitive_to_values(self):
        assert config_digest(gamma=0.7) != config_digest(gamma=0.8)

    def test_sensitive_to_names(self):
        assert config_digest(gamma=0.7) != config_digest(threshold=0.7)


class TestCacheKey:
    def test_filename_is_deterministic(self):
        key = CacheKey("Mtrt", "default", 0, 8, 1, "abc123")
        assert key.filename() == key.filename()
        assert key.filename().endswith(".pkl")

    def test_filename_distinguishes_every_field(self):
        base = CacheKey("Mtrt", "default", 0, 8, 1, "abc123")
        variants = [
            CacheKey("Jess", "default", 0, 8, 1, "abc123"),
            CacheKey("Mtrt", "rep", 0, 8, 1, "abc123"),
            CacheKey("Mtrt", "default", 1, 8, 1, "abc123"),
            CacheKey("Mtrt", "default", 0, 9, 1, "abc123"),
            CacheKey("Mtrt", "default", 0, 8, 2, "abc123"),
            CacheKey("Mtrt", "default", 0, 8, 1, "zzz999"),
        ]
        names = {v.filename() for v in variants}
        assert base.filename() not in names
        assert len(names) == len(variants)


class TestResultCache:
    KEY = CacheKey("Mtrt", "default", 0, 8, 1, "abc123")

    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(self.KEY) is None
        cache.put(self.KEY, {"outcomes": [1, 2, 3]})
        assert cache.get(self.KEY) == {"outcomes": [1, 2, 3]}
        assert cache.store.hits == 1
        assert cache.store.misses == 1
        assert cache.store.stores == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, {"ok": True})
        (tmp_path / self.KEY.filename()).write_bytes(b"not a pickle")
        assert cache.get(self.KEY) is None
        assert cache.store.misses == 1

    def test_no_stray_tmp_files_after_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(self.KEY, {"ok": True})
        assert not list(tmp_path.glob("*.tmp"))


class TestTelemetryLog:
    def test_lazy_open(self, tmp_path):
        log = TelemetryLog(tmp_path / "sub" / "events.jsonl")
        assert not (tmp_path / "sub").exists()
        log.append({"event": "cell", "v": 1})
        assert log.path.exists()
        log.close()

    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            cell_event("cell", "Mtrt", "default", 0, 8, wall_s=0.5),
            cell_event("cache_hit", "Mtrt", "rep", 0, 8, cached=True),
        ]
        with TelemetryLog(path) as log:
            log.extend(events)
            assert log.events_written == 2
        assert read_events(path) == events

    def test_appends_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetryLog(path) as log:
            log.append(cell_event("cell", "Mtrt", "default", 0, 8))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "cell"
