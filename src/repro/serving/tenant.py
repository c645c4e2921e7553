"""Resident serving tenants: one warm evolvable VM per application.

A :class:`Tenant` wraps one application in **serving mode**: the
:class:`~repro.core.evolvable.EvolvableVM` stays resident across the
whole request stream (one JIT code cache, one translator cache, one
learner), but — unlike the batch Figure-7 loop — the end-of-run
``refit_all`` is *deferred* (``EvolvableVM(defer_refits=True)``). Runs
still observe their posterior ideal strategies and update confidence;
model construction happens only at an explicit **swap** point:

    swap = offline ``refit_all`` + one atomic flip of the compiled
    :class:`~repro.learning.flat.FlatForest` pointer + a registry
    generation bump + one crash-safe save of the state and generation.

The flip is a single attribute assignment of a fully-built immutable
forest, so a prediction in flight reads either the old generation or the
new one, never a half-swapped model (a test hammers this from threads).

A tenant answers every predict one way: :meth:`Tenant.predict_batch`
featurizes each distinct cmdline of the hop and answers them all with one
compiled batch-kernel call
(:meth:`~repro.core.model_builder.ModelBuilder.predict_all_batch`). A
lone predict is a batch of one. Nothing is memoized across hops, so an
answer always comes from the live forest — including trees a drift
firing refit inside :meth:`Tenant.run`.

Tenants share one in-memory layer fleet-wide, the **JIT artifact layer**
(:mod:`repro.vm.opt.artifact_cache`): every tenant's compiler publishes
into it, so a method shape compiled for one tenant warms every other
tenant with the same program, and artifacts with equal code share one
closure.
"""

from __future__ import annotations

from collections import deque

from ..core.application import Application
from ..core.evolvable import DRIFT_WINDOW, EvolvableVM, RunOutcome
from ..core.records import restore_state, state_to_dict
from ..resilience.quarantine import quarantine_file
from ..vm.config import DEFAULT_CONFIG, VMConfig
from ..vm.opt.artifact_cache import JITArtifactCache
from ..vm.opt.jit import JITCompiler
from .registry import ModelRegistry


def run_payload(outcome: RunOutcome, generation: int) -> dict:
    """The deterministic slice of one run's outcome (the response body).

    Everything here is a pure function of the tenant's request history,
    so the concurrency suite can compare it bit-for-bit against a serial
    replay; wall-clock metadata is attached separately by the server.
    """
    return {
        "result": outcome.result,
        "total_cycles": outcome.total_cycles,
        "overhead_cycles": outcome.overhead_cycles,
        "applied_prediction": bool(outcome.applied_prediction),
        "predicted": (
            {m: int(lvl) for m, lvl in outcome.predicted.levels.items()}
            if outcome.predicted is not None
            else None
        ),
        "accuracy": outcome.accuracy,
        "confidence": outcome.confidence_after,
        "generation": generation,
        "drift_methods": list(outcome.drift_methods),
    }


class Tenant:
    """One application resident in the fleet."""

    def __init__(
        self,
        app: Application,
        *,
        registry: ModelRegistry,
        config: VMConfig = DEFAULT_CONFIG,
        artifact_cache: JITArtifactCache | None = None,
        refit_interval: int | None = 25,
        probation_window: int | None = 8,
        probation_margin: float = 0.15,
        max_rollbacks: int = 2,
        **vm_kwargs,
    ):
        self.app = app
        self.name = app.name
        self.registry = registry
        self.refit_interval = refit_interval
        #: Post-swap accuracy probation (``docs/robustness.md``, "Drift
        #: and rollback"): the first *probation_window* learned runs of a
        #: fresh generation must keep mean accuracy within
        #: *probation_margin* of the pre-swap baseline, or the tenant
        #: rolls back to the last generation that passed probation.
        #: ``probation_window=None`` disables the whole mechanism.
        self.probation_window = probation_window
        self.probation_margin = probation_margin
        #: Consecutive rollbacks that trip the watchdog (forced re-train
        #: from the recent window + state-file quarantine).
        self.max_rollbacks = max_rollbacks
        jit = JITCompiler(app.program, config, artifact_cache=artifact_cache)
        self.vm = EvolvableVM(
            app,
            config=config,
            jit=jit,
            cache_translations=True,
            defer_refits=True,
            **vm_kwargs,
        )
        restored = registry.load_into(self.vm)
        #: Runs observed since the last swap (drives auto-swap policy).
        self.runs_since_swap = 0
        self.runs_total = 0
        self.predicts_total = 0
        self.swaps_total = 0
        #: Predicts answered from an earlier identical cmdline in the
        #: same hop (see :meth:`predict_batch`).
        self.predict_cache_hits = 0
        self.rollbacks_total = 0
        self.retrains_total = 0
        #: Snapshot of the last generation that passed probation — the
        #: rollback target. A restored tenant trusts its persisted state
        #: (it was saved by a generation that was serving); a cold one
        #: has nothing to roll back to until a swap survives probation.
        self._last_good: dict | None = (
            state_to_dict(self.vm) if restored else None
        )
        #: Active probation: {"generation", "baseline", "runs", "acc_sum"}.
        self._probation: dict | None = None
        self._consecutive_rollbacks = 0
        #: Recent learned-run accuracies; their mean at swap time is the
        #: probation baseline the fresh generation must defend.
        self._recent_acc: deque[float] = deque(
            maxlen=max(1, probation_window or 1)
        )

    @property
    def generation(self) -> int:
        return self.registry.generations.get(self.name, 0)

    # -- ops (always called from the tenant's single serialized worker) -----
    def run(self, cmdline: str, seed: int | None = None) -> dict:
        """Execute once, learn (observation only — no refit), and report.

        Also advances the post-swap probation: when a fresh generation's
        probation window closes under the baseline by more than the
        margin, the rollback happens *here*, inside the tenant's
        serialized stream — the response that triggered it carries the
        ``rollback`` record, and every later response already serves the
        restored generation.
        """
        rng_seed = seed if seed is not None else self.runs_total
        outcome = self.vm.run(cmdline, rng_seed=rng_seed)
        self.runs_since_swap += 1
        self.runs_total += 1
        rollback = self._note_probation_run(outcome)
        payload = run_payload(outcome, self.generation)
        payload["rollback"] = rollback
        return payload

    def predict(self, cmdline: str) -> dict:
        """Strategy prediction only, for one cmdline: a batch of one."""
        return self.predict_batch([cmdline])[0]

    def predict_batch(self, cmdlines: list[str]) -> list[dict]:
        """Answer a hop of predicts with one batched kernel call.

        Each distinct cmdline is featurized once; the whole hop is
        answered by a single
        :meth:`~repro.core.model_builder.ModelBuilder.predict_all_batch`
        call. A repeated cmdline reuses its first occurrence's levels
        and counts in ``predict_cache_hits``. Prediction mutates no
        model state, so responses are bit-identical to answering the
        cmdlines one at a time, in order. No execution, no training.
        """
        distinct = list(dict.fromkeys(cmdlines))
        self.predicts_total += len(cmdlines)
        self.predict_cache_hits += len(cmdlines) - len(distinct)
        if self.vm.translator is None:
            # No XICL spec: nothing to featurize or predict.
            levels = {cmdline: {} for cmdline in distinct}
        else:
            fvectors = [
                self.vm.translator.build_fvector(
                    self.app.split_cmdline(cmdline)
                )
                for cmdline in distinct
            ]
            levels = {
                cmdline: {
                    method: int(label) for method, label in labels.items()
                }
                for cmdline, labels in zip(
                    distinct, self.vm.models.predict_all_batch(fvectors)
                )
            }
        return [
            self._predict_response(levels[cmdline]) for cmdline in cmdlines
        ]

    def _predict_response(self, levels: dict) -> dict:
        return {
            "levels": levels,
            "methods_modeled": len(self.vm.models),
            "confidence": self.vm.confidence.value,
            "confident": self.vm.confidence.confident,
            "generation": self.generation,
        }

    def swap(self) -> dict:
        """Offline refit + atomic generation flip + crash-safe save.

        The fresh generation enters **probation**: its first
        ``probation_window`` learned runs must keep mean accuracy within
        ``probation_margin`` of the pre-swap baseline (the mean of the
        most recent learned runs), or it is rolled back automatically.
        """
        baseline = (
            sum(self._recent_acc) / len(self._recent_acc)
            if self._recent_acc
            else None
        )
        # Count the attempt before the refit: a swap that raises is
        # retried after another refit interval, not after every run.
        runs = self.runs_since_swap
        self.runs_since_swap = 0
        self.vm.models.refit_all()
        generation = self.registry.note_swap(self.name)
        saved = self.registry.save(self.vm)
        self.swaps_total += 1
        if self.probation_window is not None and baseline is not None:
            self._probation = {
                "generation": generation,
                "baseline": baseline,
                "runs": 0,
                "acc_sum": 0.0,
            }
        return {
            "generation": generation,
            "runs_refit": runs,
            "observations": sum(
                len(self.vm.models.model_for(m).dataset)
                for m in self.vm.models.method_names
            ),
            "persisted": saved,
            "probation": self._probation is not None,
        }

    def due_for_swap(self) -> bool:
        return (
            self.refit_interval is not None
            and self.runs_since_swap >= self.refit_interval
        )

    # -- probation + automatic rollback ---------------------------------------
    def _note_probation_run(self, outcome: RunOutcome) -> dict | None:
        """Fold one run into the active probation; returns the rollback
        record when this run closed the window in the red, else None."""
        probation = self._probation
        if outcome.accuracy is not None and probation is not None:
            probation["runs"] += 1
            probation["acc_sum"] += outcome.accuracy
        if outcome.accuracy is not None:
            self._recent_acc.append(outcome.accuracy)
        if probation is None or probation["runs"] < self.probation_window:
            return None
        # Probation window closed: verdict time.
        self._probation = None
        mean = probation["acc_sum"] / probation["runs"]
        if mean >= probation["baseline"] - self.probation_margin:
            # The generation defended the baseline: it becomes the new
            # rollback target and the rollback streak resets.
            self._consecutive_rollbacks = 0
            self._last_good = state_to_dict(self.vm)
            return None
        return self._rollback(probation, mean)

    def _rollback(self, probation: dict, mean: float) -> dict:
        """Restore the last-good generation (see ``docs/robustness.md``).

        The restore itself is transactional (staged parse before any
        mutation) and the persist goes through the crash-safe envelope's
        atomic publish — a crash mid-rollback leaves either the old or
        the new state file, never a torn one, so the tenant reboots into
        a *whole* generation either way.
        """
        report = self.registry.report
        state_path = self.registry.state_path(self.name)
        from_generation = probation["generation"]
        if self._last_good is None:
            # Nothing trustworthy to restore — a cold tenant whose first
            # generation flunked. Serving the flunked model beats wiping
            # learning entirely; the ledger records that judgment call.
            report.record(
                "serving", "rollback-skipped", "no-last-good",
                detail=f"tenant {self.name}: generation {from_generation} "
                f"failed probation (mean accuracy {mean:.3f} vs baseline "
                f"{probation['baseline']:.3f}) but no generation ever "
                "passed probation; keeping it",
                path=str(state_path) if state_path else None,
            )
            return {
                "from_generation": from_generation,
                "to_generation": None,
                "watchdog": False,
            }
        self.rollbacks_total += 1
        self._consecutive_rollbacks += 1
        restore_state(self.vm, self._last_good)
        generation = self.registry.note_rollback(self.name)
        self.registry.save(self.vm)
        report.record(
            "serving", "rollback", "probation-failed",
            detail=f"tenant {self.name}: generation {from_generation} mean "
            f"accuracy {mean:.3f} fell more than {self.probation_margin} "
            f"below baseline {probation['baseline']:.3f}; restored "
            f"last-good state as generation {generation}",
            path=str(state_path) if state_path else None,
        )
        watchdog = self._consecutive_rollbacks >= self.max_rollbacks
        if watchdog:
            self._force_retrain()
        return {
            "from_generation": from_generation,
            "to_generation": self.generation,
            "watchdog": watchdog,
        }

    def _force_retrain(self) -> None:
        """Watchdog: repeated rollbacks mean the last-good snapshot no
        longer matches the traffic either (a real regime change, not a
        bad refit). Quarantine the state artifact for the post-mortem,
        re-train every model from only the recent window, and make the
        result the new baseline."""
        self.retrains_total += 1
        report = self.registry.report
        state_path = self.registry.state_path(self.name)
        if state_path is not None and self.registry.fs.exists(state_path):
            quarantine_file(
                state_path,
                "repeated-rollbacks",
                detail=f"tenant {self.name}: {self._consecutive_rollbacks} "
                "consecutive rollbacks; forcing re-train from the recent "
                "window",
                component="serving",
                fs=self.registry.fs,
                report=report,
            )
        for method in self.vm.models.method_names:
            self.vm.models.trim_method_history(method, DRIFT_WINDOW)
        self.vm.models.refit_all()
        if self.vm.drift is not None:
            self.vm.drift.reset()
        generation = self.registry.note_swap(self.name)
        self.registry.save(self.vm)
        report.record(
            "serving", "forced-retrain", "repeated-rollbacks",
            detail=f"tenant {self.name}: re-trained from the last "
            f"{DRIFT_WINDOW} observations per method as "
            f"generation {generation}",
            path=str(state_path) if state_path else None,
        )
        # The old last-good is demonstrably stale; the re-trained model
        # must earn rollback-target status through its own probation.
        self._last_good = None
        self._consecutive_rollbacks = 0
        baseline = (
            sum(self._recent_acc) / len(self._recent_acc)
            if self._recent_acc
            else None
        )
        if self.probation_window is not None and baseline is not None:
            self._probation = {
                "generation": generation,
                "baseline": baseline,
                "runs": 0,
                "acc_sum": 0.0,
            }

    def stats(self) -> dict:
        return {
            "app": self.name,
            "generation": self.generation,
            "runs": self.runs_total,
            "predicts": self.predicts_total,
            "swaps": self.swaps_total,
            "runs_since_swap": self.runs_since_swap,
            "confidence": self.vm.confidence.value,
            "methods_modeled": len(self.vm.models),
            "predict_cache_hits": self.predict_cache_hits,
            "rollbacks": self.rollbacks_total,
            "retrains": self.retrains_total,
            "on_probation": self._probation is not None,
            "drift_detections": (
                self.vm.drift.detections if self.vm.drift is not None else 0
            ),
        }


def build_fleet(
    apps: list[Application],
    *,
    registry: ModelRegistry,
    config: VMConfig = DEFAULT_CONFIG,
    refit_interval: int | None = 25,
) -> list[Tenant]:
    """Assemble resident tenants over one shared in-memory JIT artifact
    cache. Options a caller needs per tenant (an execution engine, a
    cross-program prior, probation settings) go to :class:`Tenant`."""
    names = [app.name for app in apps]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in fleet: {names}")
    artifact_cache = JITArtifactCache()
    return [
        Tenant(
            app,
            registry=registry,
            config=config,
            artifact_cache=artifact_cache,
            refit_interval=refit_interval,
        )
        for app in apps
    ]
