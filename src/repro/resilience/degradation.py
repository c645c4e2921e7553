"""Degradation accounting: every fallback, recorded.

The resilience contract is "never crashed, never wrong, only slower" —
corruption or I/O failure degrades to the paper's low-confidence path
(empty records, reactive adaptive optimization, cache misses) instead of
propagating. :class:`DegradationReport` is the ledger of those
decisions: every quarantine, cold-start, dropped telemetry event, cell
retry, and serial re-execution lands here so tests, the chaos harness,
and the CLI can assert exactly *how* a run survived.

The ledger deduplicates: identical degradations (same component, action,
reason, detail, and path) are stored once — the entry keeps its
monotonic sequence number from the first occurrence and an occurrence
count — so a fault that fires on every run of a long campaign cannot
grow the ledger without bound. Counting APIs (:meth:`~DegradationReport
.count`, ``len()``) still report *total* occurrences, so existing
"retried exactly twice" assertions keep their meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter

#: The identity under which repeated degradations collapse into one
#: ledger entry.
DedupeKey = tuple[str, str, str, str, str | None]


@dataclass(frozen=True)
class DegradationEvent:
    """One recorded fallback decision (unique per dedupe key)."""

    #: Which subsystem degraded: ``state`` / ``result-cache`` /
    #: ``telemetry`` / ``sweep`` / ``serving``.
    component: str
    #: What it did instead of failing: ``quarantine`` / ``cold-start`` /
    #: ``cache-miss`` / ``store-failed`` / ``drop-event`` / ``skip-line`` /
    #: ``retry`` / ``serial-reexec`` / ``cell-failed`` / ``timeout`` /
    #: ``rollback`` / ``forced-retrain``.
    action: str
    #: Machine-readable cause (an :class:`EnvelopeError` reason, an errno
    #: name, an exception type name, …).
    reason: str
    detail: str = ""
    path: str | None = None
    #: Monotonic arrival ordinal of this entry's *first* occurrence
    #: (0-based, unique within one report).
    seq: int = 0

    @property
    def dedupe_key(self) -> DedupeKey:
        return (self.component, self.action, self.reason, self.detail,
                self.path)

    def describe(self) -> str:
        where = f" [{self.path}]" if self.path else ""
        what = f": {self.detail}" if self.detail else ""
        return f"{self.component}/{self.action} ({self.reason}){where}{what}"


class DegradationReport:
    """Accumulates :class:`DegradationEvent` records across one run.

    ``events`` holds one entry per distinct degradation, ordered by
    first occurrence; :meth:`occurrences` exposes how often each entry
    repeated. ``len()`` and :meth:`count` total occurrences, not unique
    entries.
    """

    def __init__(self) -> None:
        self.events: list[DegradationEvent] = []
        self._by_key: dict[DedupeKey, DegradationEvent] = {}
        self._occurrences: Counter[DedupeKey] = Counter()
        self._next_seq = 0

    def record(
        self,
        component: str,
        action: str,
        reason: str,
        detail: str = "",
        path: str | None = None,
    ) -> DegradationEvent:
        key: DedupeKey = (
            component,
            action,
            reason,
            detail,
            str(path) if path is not None else None,
        )
        event = self._by_key.get(key)
        if event is None:
            event = DegradationEvent(
                component=component,
                action=action,
                reason=reason,
                detail=detail,
                path=key[4],
                seq=self._next_seq,
            )
            self.events.append(event)
            self._by_key[key] = event
        self._next_seq += 1
        self._occurrences[key] += 1
        return event

    def occurrences(self, event: DegradationEvent) -> int:
        """How many times *event*'s degradation was recorded."""
        return self._occurrences[event.dedupe_key]

    def extend(self, other: "DegradationReport") -> None:
        """Fold *other*'s ledger in, preserving its occurrence counts.

        Entries new to this report are re-sequenced into this report's
        monotonic order (sequence numbers are report-local).
        """
        for event in other.events:
            repeats = other._occurrences[event.dedupe_key]
            for _ in range(repeats):
                self.record(
                    event.component,
                    event.action,
                    event.reason,
                    event.detail,
                    event.path,
                )

    def count(
        self, component: str | None = None, action: str | None = None
    ) -> int:
        return sum(
            self._occurrences[e.dedupe_key]
            for e in self.events
            if (component is None or e.component == component)
            and (action is None or e.action == action)
        )

    def __len__(self) -> int:
        return sum(self._occurrences.values())

    def __bool__(self) -> bool:
        # Truthiness follows existence, not emptiness, so callers can
        # write ``report or DegradationReport()`` without surprises.
        return True

    def describe(self) -> str:
        if not self.events:
            return "no degradations"
        counts: Counter[str] = Counter()
        for event in self.events:
            counts[f"{event.component}/{event.action}"] += (
                self._occurrences[event.dedupe_key]
            )
        parts = ", ".join(
            f"{name}×{count}" for name, count in sorted(counts.items())
        )
        return f"{len(self)} degradation(s): {parts}"
