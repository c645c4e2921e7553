"""Persistence of the evolvable VM's learned state across processes.

The paper's VM evolves across *production runs* — separate process
lifetimes. This module serializes what must survive: the per-method
training datasets (feature rows + ideal levels) and the confidence value.
A serving tenant's record also carries its generation and rollback
counters, in the same payload. Models are rebuilt from data on load
(they are cheap to refit and this keeps the format version-stable).

State is persisted through the crash-safe envelope
(:mod:`repro.resilience.envelope`): atomic publish, versioned header,
content checksum. Loading is **never fatal**: a missing, torn,
bit-flipped, or semantically invalid state file is quarantined to a
``.quarantine/`` sibling with a machine-readable reason, the decision is
recorded in a :class:`~repro.resilience.degradation.DegradationReport`,
and the VM boots with empty records — exactly the paper's low-confidence
path, where the reactive adaptive optimizer carries the run. State is
also applied **transactionally**: the payload is fully parsed and staged
before the VM is touched, so a corrupt file can never leave a VM
half-restored.
"""

from __future__ import annotations

import json

from ..aos.strategy import LevelStrategy
from ..resilience.degradation import DegradationReport
from ..resilience.envelope import (
    REAL_FS,
    EnvelopeError,
    FileSystem,
    decode_envelope,
    encode_envelope,
)
from ..resilience.quarantine import quarantine_file
from ..xicl.features import FeatureKind, FeatureVector
from .evolvable import EvolvableVM

FORMAT_VERSION = 1

#: Envelope kind tag for persisted VM state.
STATE_KIND = "vm-state"


def state_to_dict(vm: EvolvableVM) -> dict:
    """Serialize *vm*'s learned state (models' data + confidence)."""
    methods: dict[str, dict] = {}
    for method in vm.models.method_names:
        model = vm.models.model_for(method)
        ds = model.dataset
        methods[method] = {
            "columns": list(ds.columns),
            "kinds": [ds.kind_of(c).value for c in ds.columns],
            "rows": [
                {"values": list(row.values), "label": row.label}
                for row in ds.rows
            ],
        }
    return {
        "format": FORMAT_VERSION,
        "application": vm.app.name,
        "confidence": vm.confidence.value,
        "gamma": vm.confidence.gamma,
        "threshold": vm.confidence.threshold,
        "run_count": vm.run_count,
        "methods": methods,
    }


def _stage_state(vm: EvolvableVM, state: dict):
    """Parse *state* completely without touching *vm*.

    Returns ``(confidence, run_count, observations)`` where observations
    is a list of ``(FeatureVector, LevelStrategy)`` pairs ready to apply.
    Raises ``ValueError``/``KeyError``/``TypeError`` on any invalid
    payload — crucially *before* any VM mutation, so a bad file can
    never leave the VM half-restored.
    """
    if state.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported state format {state.get('format')!r}")
    if state.get("application") != vm.app.name:
        raise ValueError(
            f"state is for {state.get('application')!r}, VM runs {vm.app.name!r}"
        )
    confidence = float(state["confidence"])
    run_count = int(state["run_count"])
    counters = state.get("counters", {})
    if not isinstance(counters, dict) or not all(
        type(value) is int for value in counters.values()
    ):
        raise ValueError(f"malformed counters {counters!r}")
    methods = state["methods"]
    if not isinstance(methods, dict):
        raise ValueError(f"malformed methods: {type(methods).__name__}")
    observations: list[tuple[FeatureVector, LevelStrategy]] = []
    for method, payload in methods.items():
        columns = payload["columns"]
        kinds = [FeatureKind(kind) for kind in payload["kinds"]]
        for row in payload["rows"]:
            vector = FeatureVector()
            for name, kind, value in zip(columns, kinds, row["values"]):
                if value is None:
                    continue
                vector.append_value(name, value, kind)
            observations.append(
                (vector, LevelStrategy({method: int(row["label"])}))
            )
    return confidence, run_count, observations


def load_state(vm: EvolvableVM, state: dict) -> None:
    """Restore serialized state into a freshly constructed *vm*.

    The VM must wrap the same application (checked by name). Parsing is
    staged: nothing is applied unless the whole payload is valid.
    """
    confidence, run_count, observations = _stage_state(vm, state)
    vm.confidence.value = confidence
    vm.run_count = run_count
    for vector, strategy in observations:
        vm.models.observe_run(vector, strategy)
    # One offline-construction pass rebuilds every method tree (shared
    # presort across methods) and compiles the flattened prediction
    # forest, so the first run after restore predicts without training.
    vm.models.refit_all()


def restore_state(vm: EvolvableVM, state: dict) -> None:
    """Replace a **live** VM's learned state wholesale (the rollback path).

    :func:`load_state` assumes a freshly constructed VM; this variant
    first discards whatever the VM has learned since, then replays the
    snapshot. The parse is staged exactly like a load, so an invalid
    snapshot raises *before* any mutation — a failed rollback leaves the
    current (bad but functional) generation serving, never a half-wiped
    VM. The drift monitor is re-armed too: detector baselines built
    against the rolled-back generation would be noise.
    """
    confidence, run_count, observations = _stage_state(vm, state)
    vm.models.reset()
    vm.confidence.value = confidence
    vm.run_count = run_count
    for vector, strategy in observations:
        vm.models.observe_run(vector, strategy)
    vm.models.refit_all()
    if vm.drift is not None:
        vm.drift.reset()


def save_state(
    vm: EvolvableVM,
    path: str,
    *,
    fs: FileSystem = REAL_FS,
    report: DegradationReport | None = None,
    counters: dict[str, int] | None = None,
) -> bool:
    """Atomically persist *vm*'s learned state inside an envelope.

    *counters* (a serving tenant's generation and rollback count) are
    published in the same payload, so they can never disagree with the
    model they name. Returns ``True`` on success. An I/O failure (full
    disk, stale lock) is not fatal to the VM — learning simply does not
    persist this run; the failure is recorded in *report* and ``False``
    is returned.
    """
    state = state_to_dict(vm)
    if counters:
        state["counters"] = counters
    payload = json.dumps(state, sort_keys=True).encode("utf-8")
    try:
        fs.write_bytes_atomic(path, encode_envelope(payload, STATE_KIND))
    except OSError as exc:
        if report is not None:
            report.record(
                "state", "store-failed", type(exc).__name__,
                detail=str(exc), path=path,
            )
        return False
    return True


def load_state_file(
    vm: EvolvableVM,
    path: str,
    *,
    fs: FileSystem = REAL_FS,
    report: DegradationReport | None = None,
) -> dict | None:
    """Restore *vm* from *path*; never raises on a bad or missing file.

    Returns the restored state, counters included, or ``None``. Any
    failure — missing file, I/O error, torn/bit-flipped envelope, invalid
    JSON, wrong application, malformed rows or counters — leaves the VM
    exactly as constructed (empty records: the reactive adaptive
    optimizer runs, the paper's low-confidence path), quarantines the
    offending file, and records the fallback in *report*.

    Plain-JSON state files written before the envelope existed still
    load (legacy fallback), so upgrading does not discard learning.
    """
    try:
        blob = fs.read_bytes(path)
    except FileNotFoundError:
        if report is not None:
            report.record(
                "state", "cold-start", "missing",
                detail="no state file; starting with empty records",
                path=path,
            )
        return None
    except OSError as exc:
        if report is not None:
            report.record(
                "state", "cold-start", type(exc).__name__,
                detail=str(exc), path=path,
            )
        return None

    reason, detail = "corrupt", ""
    try:
        try:
            payload = decode_envelope(blob, expected_kind=STATE_KIND)
        except EnvelopeError as exc:
            if exc.reason in ("bad-magic", "truncated-header") and (
                blob.lstrip()[:1] == b"{"
            ):
                payload = blob  # legacy pre-envelope plain JSON
            else:
                reason = exc.reason
                raise
        state = json.loads(payload)
        load_state(vm, state)
        return state
    except EnvelopeError as exc:
        detail = str(exc)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        reason, detail = "invalid-json", str(exc)
    except (KeyError, ValueError, TypeError) as exc:
        reason, detail = "invalid-state", f"{type(exc).__name__}: {exc}"
    except OSError as exc:
        reason, detail = type(exc).__name__, str(exc)

    quarantine_file(
        path, reason, detail, component="state", fs=fs, report=report
    )
    if report is not None:
        report.record(
            "state", "cold-start", reason,
            detail="state quarantined; booting with empty records "
            "(reactive adaptive optimizer)",
            path=path,
        )
    return None
