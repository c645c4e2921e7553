"""Per-artifact corruption tests: every persisted artifact type degrades.

The acceptance bar for the crash-safe layer: corrupting any persisted
artifact — result-cache entry, telemetry log tail — by
truncation or bit flip yields quarantine + graceful fallback, never an
exception and never a wrong result. (VM state files are covered in
``test_resilience_records.py``.)
"""

import pytest

from repro.experiments.telemetry import (
    CacheKey,
    ResultCache,
    TelemetryLog,
    cell_event,
    read_events,
)
from repro.resilience.degradation import DegradationReport
from repro.resilience.quarantine import QUARANTINE_DIR, quarantine_dir

KEY = CacheKey("Search", "default", 0, 8, 11, "abc123")
PAYLOAD = {"outcomes": [1, 2, 3], "wall_s": 0.5}


def truncate(path):
    blob = path.read_bytes()
    path.write_bytes(blob[: max(1, len(blob) // 2)])


def bit_flip(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    path.write_bytes(bytes(blob))


CORRUPTORS = [truncate, bit_flip]


class TestResultCacheCorruption:
    @pytest.mark.parametrize("corrupt", CORRUPTORS)
    def test_corrupt_entry_quarantines_and_misses(self, tmp_path, corrupt):
        report = DegradationReport()
        cache = ResultCache(tmp_path, report=report)
        cache.put(KEY, PAYLOAD)
        entry = cache._path(KEY)
        corrupt(entry)

        assert cache.get(KEY) is None
        assert cache.store.quarantined == 1
        assert not entry.exists()
        assert quarantine_dir(entry).exists()
        assert report.count(component="result-cache", action="quarantine") == 1
        assert report.count(component="result-cache", action="cache-miss") == 1
        # A re-put repopulates; the cache recovers fully.
        cache.put(KEY, PAYLOAD)
        assert cache.get(KEY) == PAYLOAD

    def test_wrong_kind_envelope_misses(self, tmp_path):
        from repro.resilience.envelope import write_envelope

        cache = ResultCache(tmp_path)
        cache.put(KEY, PAYLOAD)
        write_envelope(cache._path(KEY), b"x", kind="vm-state")
        assert cache.get(KEY) is None


class TestTelemetryTailCorruption:
    def _write_log(self, tmp_path, n=4):
        path = tmp_path / "events.jsonl"
        log = TelemetryLog(path)
        events = [
            cell_event("cell", "Search", "default", i, i + 1, wall_s=None)
            for i in range(n)
        ]
        log.extend(events)
        return path, events

    def test_truncated_tail_line_skipped_with_warning(self, tmp_path):
        path, events = self._write_log(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # tear the last line

        report = DegradationReport()
        with pytest.warns(RuntimeWarning, match="skipped"):
            read_back = read_events(path, report=report)
        assert read_back == events[:-1]
        assert report.count(component="telemetry", action="skip-line") == 1

    def test_bit_flipped_middle_line_skipped_rest_survive(self, tmp_path):
        path, events = self._write_log(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:5] + "\x00" + lines[1][6:]
        path.write_text("\n".join(lines) + "\n")

        with pytest.warns(RuntimeWarning):
            read_back = read_events(path)
        assert read_back == [events[0]] + events[2:]

    def test_strict_mode_raises_instead(self, tmp_path):
        path, _ = self._write_log(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])
        with pytest.raises(ValueError):
            read_events(path, strict=True)

    def test_clean_log_reads_without_warning(self, tmp_path):
        import warnings

        path, events = self._write_log(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_events(path) == events
