"""The per-application model registry behind the serving fleet.

Each tenant's **record** — its learned state (per-method training data +
confidence) plus its generation and rollback counters — is persisted in
one crash-safe resilience envelope, the same ``vm-state`` artifact
:mod:`repro.core.records` writes for batch runs, one file per
application under one registry root:

    <registry>/<app>.state

Loading is quarantine-aware and never fatal: a missing, torn, or
corrupted state file cold-starts that tenant with empty records (the
paper's low-confidence path) and generation 0, while the file is moved
to ``.quarantine/`` with a machine-readable reason sidecar. Every such
decision lands in the registry's
:class:`~repro.resilience.degradation.DegradationReport`, and
:meth:`ModelRegistry.startup_summary` condenses it so the server can
refuse to boot *silently* degraded — ``repro serve`` prints the summary
on stderr and emits it as a ``serve_degradation`` telemetry event.

The **model generation** is a per-tenant counter bumped by every hot
swap (offline ``refit_all`` + atomic forest-pointer flip) and every
rollback. Responses carry the generation that served them, so operators
can correlate behavior changes with swaps. A swap or rollback publishes
the model and the generation that names it in one atomic write, so a
respawned shard restores both or neither. Registries written before the
counters moved into the envelope still restore their models; their
counters restart at 0.
"""

from __future__ import annotations

import re
from pathlib import Path

from ..core.evolvable import EvolvableVM
from ..core.records import load_state_file, save_state
from ..resilience.degradation import DegradationReport
from ..resilience.envelope import REAL_FS, FileSystem

#: Filename suffix for per-tenant state artifacts.
STATE_SUFFIX = ".state"


def _safe_name(app_name: str) -> str:
    """Filesystem-safe rendering of a tenant name (collision-tolerant:
    tenants are validated unique upstream by the fleet)."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", app_name)


class ModelRegistry:
    """Crash-safe persistence + generation tracking for a tenant fleet."""

    def __init__(
        self,
        root: str | Path | None,
        *,
        fs: FileSystem = REAL_FS,
        report: DegradationReport | None = None,
    ):
        #: ``None`` root = ephemeral registry (nothing persists; every
        #: tenant cold-starts and saves are no-ops). Used by tests and
        #: by studies that must not touch the working directory.
        self.root = Path(root) if root is not None else None
        self.fs = fs
        self.report = report if report is not None else DegradationReport()
        self.generations: dict[str, int] = {}
        self.restored: list[str] = []
        self.cold_started: list[str] = []
        #: Automatic rollbacks performed per tenant (``docs/robustness.md``,
        #: "Drift and rollback").
        self.rollbacks: dict[str, int] = {}

    def state_path(self, app_name: str) -> Path | None:
        if self.root is None:
            return None
        return self.root / f"{_safe_name(app_name)}{STATE_SUFFIX}"

    # -- startup ------------------------------------------------------------
    def load_into(self, vm: EvolvableVM) -> bool:
        """Restore *vm* from its tenant's state file (never raises).

        Returns ``True`` when state was fully restored; any failure
        cold-starts the tenant, quarantines the artifact, and records
        the decision in :attr:`report`.
        """
        name = vm.app.name
        self.generations.setdefault(name, 0)
        path = self.state_path(name)
        state = None if path is None else load_state_file(
            vm, str(path), fs=self.fs, report=self.report
        )
        if state is None:
            self.cold_started.append(name)
            return False
        counters = state.get("counters", {})
        self.generations[name] = counters.get("generation", 0)
        self.rollbacks[name] = counters.get("rollbacks", 0)
        self.restored.append(name)
        return True

    # -- swap + persistence --------------------------------------------------
    def note_swap(self, app_name: str) -> int:
        """Bump and return the tenant's model generation; the next
        :meth:`save` publishes it with the model."""
        self.generations[app_name] = self.generations.get(app_name, 0) + 1
        return self.generations[app_name]

    def note_rollback(self, app_name: str) -> int:
        """Record an automatic rollback; returns the new generation.

        A rollback *deploys* the restored last-good model, so it bumps
        the generation like any swap — responses never claim an old
        generation number for what is operationally a new deployment
        (the monotone counter is what lets operators correlate behavior
        changes with model flips).
        """
        self.rollbacks[app_name] = self.rollbacks.get(app_name, 0) + 1
        return self.note_swap(app_name)

    def save(self, vm: EvolvableVM) -> bool:
        """Persist *vm*'s learned state with its tenant's generation and
        rollback counters, in one publish; I/O failures degrade
        (recorded), they never take the serving loop down."""
        name = vm.app.name
        path = self.state_path(name)
        if path is None:
            return False
        counters = {
            "generation": self.generations.get(name, 0),
            "rollbacks": self.rollbacks.get(name, 0),
        }
        return save_state(
            vm, str(path), fs=self.fs, report=self.report, counters=counters
        )

    # -- observability -------------------------------------------------------
    def startup_summary(self) -> dict:
        """Machine-readable account of how the registry came up.

        ``degraded`` is True whenever any tenant failed to restore for a
        reason other than a simply-missing file (quarantine, I/O error) —
        the condition ``repro serve`` must surface, never swallow.
        """
        quarantines = self.report.count(action="quarantine")
        return {
            "registry": str(self.root) if self.root is not None else None,
            "tenants": sorted(self.generations),
            "restored": sorted(self.restored),
            "cold_started": sorted(self.cold_started),
            "quarantined": quarantines,
            "degradations": len(self.report),
            "degraded": quarantines > 0
            or any(
                event.action == "cold-start" and event.reason != "missing"
                for event in self.report.events
            ),
        }

    def describe_startup(self) -> str:
        """Human-readable startup summary (the stderr surface)."""
        summary = self.startup_summary()
        lines = [
            f"model registry: {summary['registry'] or '(ephemeral)'} — "
            f"{len(summary['restored'])} tenant(s) restored, "
            f"{len(summary['cold_started'])} cold-started, "
            f"{summary['quarantined']} quarantined"
        ]
        if summary["degraded"]:
            lines.append(
                "WARNING: registry degraded on startup "
                f"({self.report.describe()}); affected tenants boot with "
                "empty records (reactive optimizer, low confidence)"
            )
            for event in self.report.events:
                lines.append(f"  - {event.describe()}")
        return "\n".join(lines)
