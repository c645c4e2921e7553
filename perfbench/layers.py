"""Where the traced run puts its spans, and how spans become metrics.

Each entry of :func:`install` wraps one public function of one layer of
``repro``; the span names are ``<layer>.<operation>``. Times reported
per layer are *self* times: a span's duration minus its child spans,
so ``serve.run_s`` is ``Tenant.run`` without the VM run, translation
and prediction it calls.
"""

from __future__ import annotations

from .trace import Tracer

#: Every per-layer metric the traced run reports, with its unit. A
#: workload that does not exercise a layer reports 0 for it.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("vm.run_s", "s"),
    ("vm.resume_s", "s"),
    ("vm.instructions", "count"),
    ("vm.mips", "Minstr/s"),
    ("vm.runs.reference", "count"),
    ("vm.runs.fast", "count"),
    ("vm.runs.compiled", "count"),
    ("vm.compiled_refusals", "count"),
    ("jit.compile_s", "s"),
    ("jit.compiles", "count"),
    ("jit.artifact_hit_ratio", "ratio"),
    ("aos.samples", "count"),
    ("aos.controller_s", "s"),
    ("aos.ideal_s", "s"),
    ("xicl.translate_s", "s"),
    ("xicl.translations", "count"),
    ("core.predict_s", "s"),
    ("core.gate_open_frac", "ratio"),
    ("learning.refit_s", "s"),
    ("learning.refits", "count"),
    ("learning.kernel_s", "s"),
    ("learning.kernel_rows", "count"),
    ("learning.prior_fit_s", "s"),
    ("forge.label_s", "s"),
    ("forge.children", "count"),
    ("forge.shard_write_s", "s"),
    ("lang.compile_s", "s"),
    ("testing.generate_s", "s"),
    ("resilience.envelope_writes", "count"),
    ("resilience.envelope_write_s", "s"),
    ("resilience.envelope_bytes", "bytes"),
    ("experiments.cache_put_s", "s"),
    ("serve.transport_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_s", "s"),
    ("serve.predict_s", "s"),
    ("serve.swap_s", "s"),
    ("serve.swaps", "count"),
    ("serve.registry_save_s", "s"),
    ("serve.batch_size_mean", "count"),
    ("serve.predict_cache_hit_ratio", "ratio"),
    ("serve.shard_busy_frac.0", "ratio"),
    ("serve.shard_busy_frac.1", "ratio"),
    ("serve.shard_share.0", "ratio"),
    ("serve.shard_share.1", "ratio"),
    ("serve.gen_late_max_ms", "ms"),
    ("serve.backlog_end.r1", "count"),
    ("serve.backlog_end.r2", "count"),
    ("serve.latency_p50_ms.r1", "ms"),
    ("serve.latency_p99_ms.r1", "ms"),
    ("serve.latency_p50_ms.r2", "ms"),
    ("serve.latency_p99_ms.r2", "ms"),
    ("serve.samples.r1", "count"),
    ("serve.samples.r2", "count"),
    ("workload.units", "count"),
    ("guard.drift", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
)

#: Tenant operations; their outermost spans are a shard's busy time.
SERVE_OPS = frozenset({"serve.run", "serve.predict", "serve.swap"})


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.aos.controller import AdaptiveController, PairPlanController
    from repro.aos.cost_benefit import CostBenefitModel
    from repro.aos.phase import PhaseAdaptiveController
    from repro.core.model_builder import ModelBuilder
    from repro.core.predictor import StrategyPredictor
    from repro.experiments.telemetry import ResultCache
    from repro.learning.flat import FlatForest
    from repro.learning.forge import pipeline
    from repro.learning.forge.prior import CrossProgramPrior
    from repro.learning.forge.shards import ShardWriter
    from repro.resilience.envelope import FileSystem
    from repro.serving.registry import ModelRegistry
    from repro.serving.tenant import Tenant
    from repro.vm import interpreter
    from repro.vm.opt import pipeline as opt_pipeline
    from repro.vm.opt.artifact_cache import JITArtifactCache
    from repro.vm.opt.jit import JITCompiler
    from repro.xicl.translator import XICLTranslator

    count = tracer.count
    tracer.interval_names = SERVE_OPS

    # vm: one top-level Interpreter.run per program run; a compiled-tier
    # bail-out replays on a nested run, which is not a second run.
    def before_run(args, kwargs):
        return tracer.inside("vm.run")

    def after_run(args, kwargs, profile, nested):
        if not nested:
            count("vm.top_runs")
            count("vm.instructions", profile.instructions_executed)

    def before_resume(args, kwargs):
        return args[0]._resume_executed

    def after_resume(args, kwargs, profile, prefix):
        count("forge.children")
        count("vm.instructions", profile.instructions_executed - prefix)

    tracer.wrap(interpreter.Interpreter, "run", "vm.run",
                before=before_run, after=after_run)
    tracer.wrap(interpreter.Interpreter, "resume", "vm.resume",
                before=before_resume, after=after_resume)
    tracer.wrap(
        interpreter, "resolve_compiled", None,
        after=lambda a, k, entry, t: entry is None
        and count("vm.compiled_refusals"),
    )
    tracer.wrap(interpreter, "run_compiled", None,
                after=lambda a, k, r, t: count("vm.runs.compiled"))
    tracer.wrap(interpreter, "run_fast", None,
                after=lambda a, k, r, t: count("vm.runs.fast"))

    # vm.opt
    tracer.wrap(JITCompiler, "compile", "jit.compile")
    tracer.wrap(opt_pipeline, "run_pipeline", None,
                after=lambda a, k, r, t: count("jit.compiles"))

    def after_artifact_get(args, kwargs, artifact, token):
        count("jit.artifact_gets")
        if artifact is not None:
            count("jit.artifact_hits")

    tracer.wrap(JITArtifactCache, "get", None, after=after_artifact_get)

    # aos
    for controller in (
        AdaptiveController, PairPlanController, PhaseAdaptiveController
    ):
        tracer.wrap(controller, "on_sample", "aos.on_sample")
    tracer.wrap(CostBenefitModel, "ideal_strategy", "aos.ideal")

    # xicl, core
    tracer.wrap(XICLTranslator, "build_fvector", "xicl.translate")

    def after_gate(args, kwargs, result, token):
        count("core.gate_checks")
        if result[0] is not None:
            count("core.gate_open")

    tracer.wrap(StrategyPredictor, "maybe_predict", "core.predict",
                after=after_gate)
    tracer.wrap(StrategyPredictor, "posterior_predict", "core.predict")

    # learning
    tracer.wrap(ModelBuilder, "refit_all", "learning.refit")
    tracer.wrap(
        FlatForest, "predict_batch", "learning.kernel",
        after=lambda a, k, rows, t: count("learning.kernel_rows", len(rows)),
    )
    tracer.wrap(CrossProgramPrior, "fit_from_store", "learning.prior_fit")

    # learning.forge, lang, testing (names the forge pipeline imported)
    tracer.wrap(pipeline, "label_forked", "forge.label")
    tracer.wrap(pipeline, "compile_module", "lang.compile")
    tracer.wrap(pipeline, "generate", "testing.generate")
    tracer.wrap(ShardWriter, "add", "forge.shard_write")
    tracer.wrap(ShardWriter, "close", "forge.shard_write")

    # resilience, experiments
    def after_write(args, kwargs, result, token):
        count("resilience.envelope_writes")
        data = args[2] if len(args) > 2 else kwargs["data"]
        count("resilience.envelope_bytes", len(data))

    tracer.wrap(FileSystem, "write_bytes_atomic", "resilience.envelope_write",
                after=after_write)
    tracer.wrap(ResultCache, "put", "experiments.cache_put")

    # serving
    tracer.wrap(Tenant, "run", "serve.run")
    tracer.wrap(Tenant, "predict", "serve.predict")
    tracer.wrap(Tenant, "predict_batch", "serve.predict")
    tracer.wrap(Tenant, "swap", "serve.swap")
    tracer.wrap(ModelRegistry, "save", "serve.registry_save")


def metrics(snap: dict) -> dict[str, float]:
    """Per-layer metrics from a tracer snapshot (see :data:`PER_LAYER`)."""
    agg = snap["agg"]
    counts = snap["counts"]

    def self_s(*names: str) -> float:
        return sum(agg.get(name, (0, 0, 0))[2] for name in names) / 1e9

    def calls(name: str) -> int:
        return agg.get(name, (0, 0, 0))[0]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    top_runs = counts.get("vm.top_runs", 0)
    compiled = counts.get("vm.runs.compiled", 0)
    fast = counts.get("vm.runs.fast", 0)
    vm_s = self_s("vm.run", "vm.resume")
    instructions = counts.get("vm.instructions", 0)
    return {
        "vm.run_s": self_s("vm.run"),
        "vm.resume_s": self_s("vm.resume"),
        "vm.instructions": instructions,
        "vm.mips": ratio(instructions, vm_s) / 1e6,
        "vm.runs.reference": top_runs - compiled - fast,
        "vm.runs.fast": fast,
        "vm.runs.compiled": compiled,
        "vm.compiled_refusals": counts.get("vm.compiled_refusals", 0),
        "jit.compile_s": self_s("jit.compile"),
        "jit.compiles": counts.get("jit.compiles", 0),
        "jit.artifact_hit_ratio": ratio(
            counts.get("jit.artifact_hits", 0),
            counts.get("jit.artifact_gets", 0),
        ),
        "aos.samples": calls("aos.on_sample"),
        "aos.controller_s": self_s("aos.on_sample"),
        "aos.ideal_s": self_s("aos.ideal"),
        "xicl.translate_s": self_s("xicl.translate"),
        "xicl.translations": calls("xicl.translate"),
        "core.predict_s": self_s("core.predict"),
        "core.gate_open_frac": ratio(
            counts.get("core.gate_open", 0), counts.get("core.gate_checks", 0)
        ),
        "learning.refit_s": self_s("learning.refit"),
        "learning.refits": calls("learning.refit"),
        "learning.kernel_s": self_s("learning.kernel"),
        "learning.kernel_rows": counts.get("learning.kernel_rows", 0),
        "learning.prior_fit_s": self_s("learning.prior_fit"),
        "forge.label_s": self_s("forge.label"),
        "forge.children": counts.get("forge.children", 0),
        "forge.shard_write_s": self_s("forge.shard_write"),
        "lang.compile_s": self_s("lang.compile"),
        "testing.generate_s": self_s("testing.generate"),
        "resilience.envelope_writes": counts.get(
            "resilience.envelope_writes", 0
        ),
        "resilience.envelope_write_s": self_s("resilience.envelope_write"),
        "resilience.envelope_bytes": counts.get("resilience.envelope_bytes", 0),
        "experiments.cache_put_s": self_s("experiments.cache_put"),
        "serve.run_s": self_s("serve.run"),
        "serve.predict_s": self_s("serve.predict"),
        "serve.swap_s": self_s("serve.swap"),
        "serve.swaps": calls("serve.swap"),
        "serve.registry_save_s": self_s("serve.registry_save"),
        "trace.spans": sum(calls for calls, _, _ in agg.values()),
    }


def busy_seconds(intervals: list) -> float:
    """Length of the union of ``(start_ns, end_ns)`` intervals, in s."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total / 1e9
