"""The evolvable virtual machine: the paper's Figure 7 loop, plus the
Default and Rep scenario drivers it is evaluated against.

One :class:`EvolvableVM` instance persists across the production runs of
one application. Each :meth:`run`:

1. extracts the input's feature vector through the XICL translator;
2. if confidence exceeds the threshold, predicts a per-method optimization
   strategy and applies it proactively (each predicted method is
   recompiled to its level right after its first baseline compile; the
   reactive optimizer is left in charge of unpredicted methods only);
3. otherwise runs under the default reactive optimizer;
4. after the run, computes the posterior *ideal* strategy from the sampled
   profile via the cost-benefit model, scores the (actual or would-be)
   prediction against it, folds the accuracy into the decayed confidence,
   and updates the per-method models (offline stage).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..aos.controller import AdaptiveController, PairPlanController
from ..aos.cost_benefit import CostBenefitModel
from ..aos.repository import ProfileRepository
from ..aos.strategy import LevelStrategy
from ..learning.tree import TreeParams
from ..vm.config import DEFAULT_CONFIG, VMConfig
from ..vm.heap import DEFAULT_GC_POLICY, GCCostModel
from ..vm.interpreter import Interpreter
from ..vm.opt.jit import JITCompiler
from ..vm.profiles import RunProfile
from ..xicl.features import FeatureVector
from .accuracy import per_method_accuracy, prediction_accuracy
from .application import Application
from .confidence import (
    DEFAULT_GAMMA,
    DEFAULT_THRESHOLD,
    ConfidenceTracker,
    DriftMonitor,
)
from .gc_selection import GCDecision, GCSelector
from .model_builder import ModelBuilder
from .predictor import StrategyPredictor

#: Observations kept per drifted method when its history trims — roughly
#: the post-shift window the refit should learn from.
DRIFT_WINDOW = 12


@dataclass
class RunOutcome:
    """Everything observed about one execution under one scenario."""

    scenario: str
    cmdline: str
    result: object
    profile: RunProfile
    overhead_cycles: float = 0.0
    fvector: FeatureVector | None = None
    predicted: LevelStrategy | None = None
    ideal: LevelStrategy | None = None
    accuracy: float | None = None
    confidence_before: float | None = None
    confidence_after: float | None = None
    applied_prediction: bool = False
    gc_decision: GCDecision | None = None
    #: Methods whose changepoint detector fired on this run (almost
    #: always empty; non-empty means the VM trimmed their stale history
    #: and scheduled targeted refits).
    drift_methods: tuple[str, ...] = ()

    @property
    def total_cycles(self) -> float:
        """Run time including the evolvable machinery's overhead."""
        return self.profile.total_cycles + self.overhead_cycles

    def speedup_vs(self, baseline: "RunOutcome") -> float:
        """This run's speedup relative to *baseline* (same input)."""
        return baseline.total_cycles / self.total_cycles


class EvolvableVM:
    """A virtual machine that evolves across the runs of one application."""

    def __init__(
        self,
        app: Application,
        config: VMConfig = DEFAULT_CONFIG,
        gamma: float = DEFAULT_GAMMA,
        threshold: float = DEFAULT_THRESHOLD,
        tree_params: TreeParams = TreeParams(),
        min_rows: int = 2,
        jit: JITCompiler | None = None,
        select_gc: bool = False,
        gc_model: GCCostModel = GCCostModel(),
        cache_translations: bool = False,
        defer_refits: bool = False,
        engine: str = "compiled",
        prior=None,
        detect_drift: bool = True,
        drift_monitor: DriftMonitor | None = None,
    ):
        self.app = app
        self.config = config
        #: Execution-engine knob, forwarded to every Interpreter this VM
        #: constructs ("compiled"/"fast"/"reference"). Under "compiled"
        #: the adaptive runs, sample listeners and all, execute on the
        #: closure-compiled tier.
        self.engine = engine
        self.jit = jit if jit is not None else JITCompiler(app.program, config)
        self.cost_benefit = CostBenefitModel(self.jit, config.sample_interval)
        #: Optional cross-program prior
        #: (:class:`~repro.learning.forge.prior.CrossProgramPrior`, or any
        #: object with ``predict_program(program, args) -> dict[str, int]``):
        #: per-method cold-start advice. Consulted per run — when the
        #: confidence-gated predictor declines (i.e. before this
        #: application has its own history), :meth:`run` asks the prior
        #: with the program's static features *plus this run's entry
        #: arguments* (the ``i_*`` columns of the forge schema), so the
        #: advice is input-discriminative. The static (argument-free)
        #: advice additionally seeds the per-method fallback for
        #: still-unfitted models inside gated predictions. Level −1
        #: advice means "stay baseline": the first-invocation hook
        #: ignores it and the adaptive controller's exclude set stops
        #: reactive promotion.
        self.prior = prior
        prior_levels = (
            prior.predict_program(app.program) if prior is not None else {}
        )
        self.models = ModelBuilder(
            tree_params, min_rows=min_rows, prior_levels=prior_levels
        )
        self.confidence = ConfidenceTracker(gamma=gamma, threshold=threshold)
        self.predictor = StrategyPredictor(self.models, self.confidence)
        self.translator = app.make_translator()
        self.gc_model = gc_model
        self.gc_selector = (
            GCSelector(
                gamma=gamma,
                threshold=threshold,
                tree_params=tree_params,
                gc_model=gc_model,
                min_rows=min_rows,
            )
            if select_gc
            else None
        )
        self.run_count = 0
        self.outcomes: list[RunOutcome] = []
        #: Optional memoization of (cmdline → feature vector): a server
        #: handling many identical request shapes amortizes translation;
        #: only cache misses pay extraction overhead. Off by default — the
        #: paper's per-run protocol always translates.
        self.cache_translations = cache_translations
        self._translation_cache: dict[str, FeatureVector] = {}
        #: Serving mode (see ``docs/serving.md``): when True, :meth:`run`
        #: still observes every finished run but skips the end-of-run
        #: ``refit_all`` — model construction happens only at an explicit
        #: swap point (:class:`~repro.serving.tenant.Tenant.swap`), so
        #: predictions answer from the last deployed model generation.
        self.defer_refits = defer_refits
        #: Per-method changepoint detection (see ``docs/robustness.md``,
        #: "Drift and rollback"): the global tracker keeps gating
        #: prediction exactly as in the paper, while the monitor watches
        #: each method's own smoothed accuracy and names the ones whose
        #: model went stale. ``detect_drift=False`` restores the
        #: pre-drift-layer behavior bit-for-bit.
        if drift_monitor is not None:
            self.drift = drift_monitor
        elif detect_drift:
            self.drift = DriftMonitor()
        else:
            self.drift = None

    # -- the Figure 7 loop ----------------------------------------------------
    def run(
        self,
        cmdline: str | list[str],
        rng_seed: int = 0,
        runtime_features: dict[str, object] | None = None,
    ) -> RunOutcome:
        """Execute the application once, learn from it, and return the
        outcome. Appends to :attr:`outcomes`.

        *runtime_features* models the paper's ``updateV``/``done`` channel:
        values the application computes during initialization (or at an
        interactive point) that should join the input feature vector before
        prediction. They are applied through the translator's channel, and
        ``done()`` is signalled before the strategy predictor runs.
        """
        tokens = self.app.split_cmdline(cmdline)
        cmd_str = cmdline if isinstance(cmdline, str) else " ".join(cmdline)
        overhead_cycles = 0.0
        fvector: FeatureVector | None = None
        predicted: LevelStrategy | None = None

        if self.translator is not None:
            cached = (
                self._translation_cache.get(cmd_str)
                if self.cache_translations and not runtime_features
                else None
            )
            if cached is not None:
                fvector = cached
            else:
                fvector = self.translator.build_fvector(tokens)
                if runtime_features:
                    self.translator.channel.update_many(runtime_features)
                    self.translator.channel.done()
                overhead_cycles += self.predictor.overhead.extraction_cycles(
                    fvector
                )
                if self.cache_translations and not runtime_features:
                    self._translation_cache[cmd_str] = fvector
            predicted, predict_cycles = self.predictor.maybe_predict(fvector)
            overhead_cycles += predict_cycles
        # Without an XICL spec the VM behaves exactly like the default one.

        args = (
            self.app.entry_args(tokens, fvector)
            if fvector is not None
            else self.app.launcher(tokens, FeatureVector(), self.app.filesystem)
        )
        if fvector is not None and predicted is None and self.prior is not None:
            # Cold start: no confident in-app model yet. Ask the
            # cross-program prior; its feature row sees the program's
            # statics plus this run's entry arguments, so the advice
            # discriminates between inputs even with zero history.
            advice = self.prior.predict_program(self.app.program, args)
            if advice:
                predicted = LevelStrategy(dict(advice))

        conf_before = self.confidence.value
        gc_decision: GCDecision | None = None
        gc_policy = DEFAULT_GC_POLICY
        if self.gc_selector is not None and fvector is not None:
            gc_decision = self.gc_selector.select(fvector)
            gc_policy = gc_decision.applied
        interp = Interpreter(
            self.app.program,
            config=self.config,
            rng_seed=rng_seed,
            jit=self.jit,
            first_invocation_hook=(
                predicted.level_for if predicted is not None else None
            ),
            gc_policy=gc_policy,
            gc_model=self.gc_model,
            engine=self.engine,
        )
        exclude = (
            frozenset(predicted.levels) if predicted is not None else frozenset()
        )
        AdaptiveController(interp, exclude=exclude)
        profile = interp.run(args)

        outcome = RunOutcome(
            scenario="evolve",
            cmdline=cmd_str,
            result=interp.result,
            profile=profile,
            overhead_cycles=overhead_cycles,
            fvector=fvector,
            predicted=predicted,
            applied_prediction=predicted is not None,
            confidence_before=conf_before,
            gc_decision=gc_decision,
        )

        if self.translator is not None and fvector is not None:
            # Self-evaluation: score the applied prediction, or the
            # would-be prediction when the gate was closed.
            scored = (
                predicted
                if predicted is not None
                else self.predictor.posterior_predict(fvector)
            )
            ideal = self.cost_benefit.ideal_strategy(profile)
            accuracy = prediction_accuracy(scored, ideal, profile)
            self.confidence.update(accuracy)
            drifted: tuple[str, ...] = ()
            if self.drift is not None:
                drifted = self.drift.observe(
                    per_method_accuracy(scored, ideal, profile)
                )
            # Offline stage: extend and (unless deferred to an explicit
            # serving-layer swap) rebuild the models — the run-start
            # prediction above reads the flattened forest compiled here.
            self.models.observe_run(fvector, ideal)
            if drifted:
                # Drift response: the pre-shift history of exactly these
                # methods misleads their trees. Trim each to the recent
                # window (this run's observation included) and, in
                # serving mode where refits are otherwise deferred to a
                # swap point, refit just the affected trees now — stale
                # drifted models must not keep answering until the next
                # scheduled swap.
                for method in drifted:
                    self.models.trim_method_history(method, DRIFT_WINDOW)
                if self.defer_refits:
                    self.models.refit_methods(drifted)
            if not self.defer_refits:
                self.models.refit_all()
            outcome.predicted = scored
            outcome.ideal = ideal
            outcome.accuracy = accuracy
            outcome.confidence_after = self.confidence.value
            outcome.drift_methods = drifted

        if (
            self.gc_selector is not None
            and gc_decision is not None
            and fvector is not None
        ):
            self.gc_selector.observe(gc_decision, fvector, profile)

        self.run_count += 1
        self.outcomes.append(outcome)
        return outcome


# ---------------------------------------------------------------------------
# Scenario drivers for the comparisons (Default and Rep)
# ---------------------------------------------------------------------------

def run_default(
    app: Application,
    cmdline: str | list[str],
    config: VMConfig = DEFAULT_CONFIG,
    jit: JITCompiler | None = None,
    rng_seed: int = 0,
    engine: str = "compiled",
) -> RunOutcome:
    """One run under the default (reactive) adaptive optimization scheme."""
    return run_reactive(
        "default", AdaptiveController, app, cmdline, config, jit, rng_seed,
        engine,
    )


def run_reactive(
    scenario: str,
    controller,
    app: Application,
    cmdline: str | list[str],
    config: VMConfig,
    jit: JITCompiler | None,
    rng_seed: int,
    engine: str,
) -> RunOutcome:
    """One stateless run with *controller* attached (the Default scheme's
    :class:`AdaptiveController`, or the phase comparator's controller)."""
    tokens = app.split_cmdline(cmdline)
    cmd_str = cmdline if isinstance(cmdline, str) else " ".join(cmdline)
    translator = app.make_translator()
    fvector = (
        translator.build_fvector(tokens)
        if translator is not None
        else FeatureVector()
    )
    interp = Interpreter(
        app.program, config=config, rng_seed=rng_seed, jit=jit, engine=engine
    )
    controller(interp)
    profile = interp.run(app.entry_args(tokens, fvector))
    return RunOutcome(
        scenario=scenario,
        cmdline=cmd_str,
        result=interp.result,
        profile=profile,
        fvector=fvector,
    )


class RepVM:
    """The repository-based optimizer (Rep) across the runs of one app.

    Each run applies the single history-derived
    :class:`~repro.aos.strategy.PairStrategy` (input-agnostic) and then
    folds its own profile back into the repository — no confidence guard,
    exactly the unconditional prediction the paper contrasts against.
    """

    def __init__(
        self,
        app: Application,
        config: VMConfig = DEFAULT_CONFIG,
        jit: JITCompiler | None = None,
        engine: str = "compiled",
    ):
        self.app = app
        self.config = config
        self.engine = engine
        self.jit = jit if jit is not None else JITCompiler(app.program, config)
        self.repository = ProfileRepository(self.jit, config.sample_interval)
        self.outcomes: list[RunOutcome] = []
        self.frozen_strategy = None  # optionally fixed (Figure 9 protocol)

    def run(self, cmdline: str | list[str], rng_seed: int = 0) -> RunOutcome:
        tokens = self.app.split_cmdline(cmdline)
        cmd_str = cmdline if isinstance(cmdline, str) else " ".join(cmdline)
        translator = self.app.make_translator()
        fvector = (
            translator.build_fvector(tokens)
            if translator is not None
            else FeatureVector()
        )
        strategy = (
            self.frozen_strategy
            if self.frozen_strategy is not None
            else self.repository.strategy()
        )
        interp = Interpreter(
            self.app.program,
            config=self.config,
            rng_seed=rng_seed,
            jit=self.jit,
            engine=self.engine,
        )
        PairPlanController(interp, strategy)
        AdaptiveController(interp, exclude=frozenset(strategy.plans))
        profile = interp.run(self.app.entry_args(tokens, fvector))
        if self.frozen_strategy is None:
            self.repository.record_run(profile)
        outcome = RunOutcome(
            scenario="rep",
            cmdline=cmd_str,
            result=interp.result,
            profile=profile,
            fvector=fvector,
            predicted=strategy.final_levels(),
            applied_prediction=len(strategy) > 0,
        )
        self.outcomes.append(outcome)
        return outcome
