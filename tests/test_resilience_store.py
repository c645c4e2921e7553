"""The cache-entry policy, checked through the cache that uses it.

The sweep result cache keeps its entries in one
:class:`~repro.resilience.store.EntryStore`. The read side (quarantine +
miss on corruption) is covered in ``test_resilience_corruption.py``;
these tests pin the write side.
"""

import pytest

from repro.experiments.telemetry import CacheKey, ResultCache
from repro.resilience.degradation import DegradationReport
from repro.resilience.faults import FaultPlan, FaultyFS


def result_cache(root, **kwargs):
    cache = ResultCache(root, **kwargs)
    return cache, CacheKey("Search", "default", 0, 8, 11, "abc123"), cache.store


CACHES = pytest.mark.parametrize("make", [result_cache], ids=["result-cache"])


@CACHES
def test_a_failed_store_is_recorded_and_counted(make, tmp_path):
    report = DegradationReport()
    full_disk = FaultyFS(FaultPlan(io_error_write=1.0))
    cache, key, store = make(tmp_path, fs=full_disk, report=report)
    cache.put(key, {"v": 1})
    [event] = report.events
    assert (event.component, event.action, event.reason) == (
        store.component, "store-failed", "OSError"
    )
    assert (store.stores, store.store_failures) == (0, 1)
    assert not any(tmp_path.iterdir())


@CACHES
def test_an_existing_entry_is_never_rewritten(make, tmp_path):
    cache, key, store = make(tmp_path)
    cache.put(key, {"v": 1})
    cache.put(key, {"v": 2})
    assert store.stores == 1
    fresh, _, _ = make(tmp_path)
    assert fresh.get(key) == {"v": 1}
