"""One keyed store for regenerable entries: the cache-entry disk policy.

The sweep result cache keeps entries that can always be recomputed, one
pickled payload per file under one directory. (JIT artifacts are cheaper
to recompile than to read back, so they are not persisted at all; see
:mod:`repro.vm.opt.artifact_cache`.) This is the only implementation of
the policy:

- **get** verifies the entry's envelope. A corrupt entry (torn,
  bit-flipped, wrong kind, unpicklable) is quarantined, recorded as
  ``<component>/cache-miss``, and read as a miss, never a wrong hit.
- **put** never rewrites an existing entry (a key fully determines its
  payload); a new one is enveloped and published atomically. An I/O
  failure is recorded as ``<component>/store-failed`` and costs a
  recompute later, never correctness.

Its counters feed ``repro sweep``'s ``cache:`` line.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from .degradation import DegradationReport
from .envelope import (
    REAL_FS,
    EnvelopeError,
    FileSystem,
    decode_envelope,
    encode_envelope,
)
from .quarantine import quarantine_file


class EntryStore:
    """Immutable pickled entries of one envelope *kind* under *root*;
    *component* (``result-cache``) names it in degradation records."""

    def __init__(
        self,
        root: str | Path,
        *,
        kind: str,
        component: str,
        fs: FileSystem = REAL_FS,
        report: DegradationReport | None = None,
    ):
        self.root = Path(root)
        self.kind = kind
        self.component = component
        self.fs = fs
        self.report = report
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self.store_failures = 0

    def path(self, name: str) -> Path:
        return self.root / name

    def get(self, name: str):
        """The entry stored under *name*, or ``None`` on a miss."""
        path = self.path(name)
        try:
            blob = self.fs.read_bytes(path)
        except OSError:
            self.misses += 1
            return None
        try:
            entry = pickle.loads(decode_envelope(blob, self.kind))
        except (
            EnvelopeError,
            pickle.PickleError,
            EOFError,
            AttributeError,
            ValueError,
        ) as exc:
            reason = getattr(exc, "reason", type(exc).__name__)
            quarantine_file(
                path, reason, str(exc),
                component=self.component, fs=self.fs, report=self.report,
            )
            if self.report is not None:
                self.report.record(
                    self.component, "cache-miss", reason, path=str(path)
                )
            self.quarantined += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, name: str, entry) -> None:
        """Publish *entry* under *name* unless an entry is already there."""
        path = self.path(name)
        if self.fs.exists(path):
            return
        blob = encode_envelope(
            pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL), self.kind
        )
        try:
            self.fs.write_bytes_atomic(path, blob)
        except OSError as exc:
            self.store_failures += 1
            if self.report is not None:
                self.report.record(
                    self.component, "store-failed", type(exc).__name__,
                    detail=str(exc), path=str(path),
                )
            return
        self.stores += 1

    def describe(self) -> str:
        extra = ""
        if self.quarantined:
            extra += f", {self.quarantined} quarantined"
        if self.store_failures:
            extra += f", {self.store_failures} store failure(s)"
        return f"{self.hits} hit(s), {self.misses} miss(es){extra}"
