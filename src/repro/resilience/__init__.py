"""Resilience subsystem: crash-safe persistence, fault injection, chaos.

Three pillars (see ``docs/robustness.md``):

1. **Envelope** (:mod:`.envelope`) — every cross-run artifact (a VM's or
   serving tenant's state record, JIT artifacts, result-cache cells) is
   persisted atomically inside a versioned, checksummed envelope; loads
   verify before trusting. The two caches keep their entries in one
   :class:`EntryStore` (:mod:`.store`), the only implementation of the
   regenerable-entry policy: a corrupt entry is a quarantined miss, a
   failed store is recorded, an existing entry is never rewritten.
2. **Quarantine + degradation** (:mod:`.quarantine`,
   :mod:`.degradation`) — a corrupt artifact is moved to a
   ``.quarantine/`` sibling with a machine-readable reason, and the
   caller falls back to the paper's low-confidence path (empty records,
   reactive optimization, cache miss), recording the decision in a
   :class:`DegradationReport`.
3. **Fault injection + chaos** (:mod:`.faults`, :mod:`.chaos`) — seeded
   filesystem and worker faults, and the ``repro chaos`` campaign that
   asserts the invariants: results bit-identical to fault-free whenever
   produced, never an unhandled exception, quarantine + fallback on
   every injected corruption.
"""

from .degradation import DegradationEvent, DegradationReport
from .envelope import (
    ENVELOPE_VERSION,
    REAL_FS,
    EnvelopeError,
    FileSystem,
    decode_envelope,
    encode_envelope,
    read_envelope,
    read_json_envelope,
    read_pickle_envelope,
    write_envelope,
    write_json_envelope,
    write_pickle_envelope,
)
from .faults import (
    FaultPlan,
    FaultyFS,
    InjectedFault,
    StaleLockError,
    WorkerFaultPlan,
)
from .quarantine import (
    QUARANTINE_DIR,
    QuarantineRecord,
    quarantine_dir,
    quarantine_file,
)
from .store import EntryStore

__all__ = [
    "DegradationEvent",
    "DegradationReport",
    "ENVELOPE_VERSION",
    "EntryStore",
    "EnvelopeError",
    "FaultPlan",
    "FaultyFS",
    "FileSystem",
    "InjectedFault",
    "QUARANTINE_DIR",
    "QuarantineRecord",
    "REAL_FS",
    "StaleLockError",
    "WorkerFaultPlan",
    "decode_envelope",
    "encode_envelope",
    "quarantine_dir",
    "quarantine_file",
    "read_envelope",
    "read_json_envelope",
    "read_pickle_envelope",
    "write_envelope",
    "write_json_envelope",
    "write_pickle_envelope",
]
