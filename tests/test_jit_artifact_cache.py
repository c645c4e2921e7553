"""Tests for the in-memory JIT artifact layer a sweep's cells share."""

import gc
import pickle
import weakref

import pytest

from repro.lang import compile_source
from repro.vm import DEFAULT_CONFIG, Interpreter, JITArtifactCache, JITCompiler, VMConfig
from repro.vm.opt.artifact_cache import artifact_key, method_digest, program_digest

SRC = """
fn main(n) {
  var total = 0;
  var i = 0;
  while (i < n) { total = total + helper(i); i = i + 1; }
  return total;
}
fn helper(x) { return x * 2 + 1; }
"""

#: Same `main` bytecode as SRC, but `helper` differs — inlining pulls the
#: callee body into `main`, so artifacts must NOT be shared between the two.
SRC_OTHER_CALLEE = SRC.replace("x * 2 + 1", "x * 3 - 1")


@pytest.fixture
def program():
    return compile_source(SRC)


def test_memory_hit_and_miss_accounting(program):
    cache = JITArtifactCache()
    jit_a = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
    first = jit_a.compile("main", 2)
    assert cache.stats()["misses"] == 1

    # A different compiler instance (a new "run") hits the shared cache.
    jit_b = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
    second = jit_b.compile("main", 2)
    assert second is first
    assert cache.stats()["hits"] == 1

    # The per-run memo absorbs repeat compiles; cache stats don't move.
    jit_b.compile("main", 2)
    assert cache.stats()["hits"] == 1


def test_levels_get_distinct_entries(program):
    cache = JITArtifactCache()
    jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
    assert jit.compile("main", 1).level == 1
    assert jit.compile("main", 2).level == 2
    assert cache.stats()["entries"] == 2


def test_config_digest_invalidates(program):
    cache = JITArtifactCache()
    JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache).compile("main", 2)
    other_config = VMConfig(sample_interval=DEFAULT_CONFIG.sample_interval * 2)
    JITCompiler(program, other_config, artifact_cache=cache).compile("main", 2)
    # Different config → different key → no cross-config sharing.
    assert cache.stats()["hits"] == 0
    assert cache.stats()["misses"] == 2


def test_tier_passes_invalidate(program):
    from repro.vm.opt.passes import peephole

    cache = JITArtifactCache()
    full = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
    full.compile("main", 2)
    single = JITCompiler(
        program, DEFAULT_CONFIG, tier_passes={2: (peephole,)}, artifact_cache=cache
    )
    single.compile("main", 2)
    assert cache.stats()["hits"] == 0


def test_program_context_prevents_inlining_confusion():
    # `main` is byte-identical in both programs, but its callee differs;
    # a per-method digest alone would unsoundly share the inlined artifact.
    prog_a = compile_source(SRC)
    prog_b = compile_source(SRC_OTHER_CALLEE)
    assert method_digest(prog_a.method("main")) == method_digest(
        prog_b.method("main")
    )
    assert program_digest(prog_a) != program_digest(prog_b)

    cache = JITArtifactCache()
    a = JITCompiler(prog_a, DEFAULT_CONFIG, artifact_cache=cache).compile("main", 2)
    b = JITCompiler(prog_b, DEFAULT_CONFIG, artifact_cache=cache).compile("main", 2)
    assert cache.stats()["hits"] == 0
    assert a.code != b.code


def test_compile_cycles_charged_identically_on_hit(program):
    cache = JITArtifactCache()

    def run(level):
        jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
        interp = Interpreter(
            program, jit=jit, first_invocation_hook=lambda name: level
        )
        profile = interp.run((50,))
        return (
            profile.total_cycles,
            profile.compile_cycles,
            tuple(
                (e.method, e.level, e.cycles, e.at_clock)
                for e in profile.compile_events
            ),
        )

    cold = run(2)
    assert cache.stats()["misses"] > 0
    warm = run(2)
    assert cache.stats()["hits"] > 0
    # Bit-identical clocks and compile events whether artifacts were
    # compiled fresh or pulled from the cache.
    assert cold == warm


def test_artifact_key_is_order_sensitive():
    key_a = artifact_key("m", "p", 2, "c", ("peephole", "dce"))
    key_b = artifact_key("m", "p", 2, "c", ("dce", "peephole"))
    assert key_a != key_b


def test_levels_with_equal_code_share_one_closure(program):
    # Levels -1 and 0 both run the method's own bytecode, so in one layer
    # (or one compiler without a layer) they share one closure object;
    # level 2 rewrites the code and gets its own.
    from repro.vm.closures import ensure_closure

    for layer in (JITArtifactCache(), None):
        jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=layer)
        baseline, quick, optimized = (
            jit.compile("main", level) for level in (-1, 0, 2)
        )
        assert baseline is not quick and baseline.code == quick.code
        fn = ensure_closure(baseline, jit)
        assert ensure_closure(quick, jit) is fn
        assert ensure_closure(optimized, jit) is not fn
        assert len(jit.closures) == 2


def test_closures_of_equal_but_differently_typed_constants_differ():
    # `2 == 2.0` and `0.0 == -0.0` (with equal hashes), but the emitter
    # writes a constant by its repr: `n / 2` floors where `n / 2.0` does
    # not, and a folded `-0.0` keeps its sign. Programs sharing one layer
    # must not share these closures.
    layer = JITArtifactCache()

    def run(src, level, engine):
        program = compile_source(src)
        jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=layer)
        interp = Interpreter(
            program, jit=jit, engine=engine,
            first_invocation_hook=lambda name: level,
        )
        interp.run((7,))
        return repr(interp.result)

    pairs = (
        ("fn main(n) { return n / 2; }", "fn main(n) { return n / 2.0; }", -1),
        ("fn main(n) { return 0.0; }", "fn main(n) { return -0.0; }", 2),
    )
    for first, second, level in pairs:
        compiled = [run(src, level, "compiled") for src in (first, second)]
        reference = [run(src, level, "reference") for src in (first, second)]
        assert compiled == reference
        assert compiled[0] != compiled[1]
    assert len(layer.closures) == 4


def test_shared_closure_runs_each_level_at_its_own_speed(program):
    # One closure serves artifacts of different speed factors: the speed
    # comes from the run's method state, so clocks stay exact per level.
    def run(level, layer):
        jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=layer)
        interp = Interpreter(
            program, jit=jit, engine="compiled",
            first_invocation_hook=lambda name: level,
        )
        profile = interp.run((40,))
        return interp.result, profile.total_cycles, profile.compile_cycles

    layer = JITArtifactCache()
    shared = [run(level, layer) for level in (-1, 0)]
    alone = [run(level, None) for level in (-1, 0)]
    assert shared == alone
    assert shared[0][1] != shared[1][1]


def test_sweep_cell_identical_with_cache_on_and_off():
    # Acceptance criterion: a Table I sweep cell's virtual-cycle results
    # are bit-identical with no artifact layer, a cold one and a warm one.
    from repro.bench import get_benchmark
    from repro.experiments.parallel import (
        CellSpec,
        derive_sequence,
        execute_cell,
    )

    bench = get_benchmark("Compress")
    sequence = tuple(derive_sequence(bench, seed=0, n_runs=3))
    spec = CellSpec(
        benchmark=bench.name,
        scenarios=("default", "rep"),
        start=0,
        stop=3,
        seed=0,
        sequence=sequence,
        config=DEFAULT_CONFIG,
        gamma=None,
        threshold=None,
        tree_params=None,
    )

    def run_cell(layer):
        payload = execute_cell(spec, layer=layer)
        return {
            scenario: [
                (
                    outcome.profile.total_cycles,
                    outcome.profile.compile_cycles,
                    tuple(sorted(outcome.profile.samples.items())),
                )
                for outcome in outcomes
            ]
            for scenario, outcomes in payload["outcomes"].items()
        }

    layer = JITArtifactCache()
    off = run_cell(None)
    cold = run_cell(layer)
    assert layer.hits == 0
    warm = run_cell(layer)
    assert layer.hits > 0
    assert off == cold == warm


def test_cached_artifact_pickles_without_decode_memo(program):
    from repro.vm.closures import ensure_closure
    from repro.vm.fastpath import ensure_decoded

    layer = JITArtifactCache()
    jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=layer)
    compiled = jit.compile("main", 2)
    ensure_decoded(compiled)
    ensure_closure(compiled, jit)
    clone = pickle.loads(pickle.dumps(compiled))
    assert clone == compiled
    for memo in ("_decoded", "_closure", "_closure_unsupported"):
        assert memo not in clone.__dict__


def test_a_sweep_drops_its_layer_when_it_returns(monkeypatch):
    # A process that sweeps again and again keeps no artifact layer
    # alive between sweeps, so its memory stays flat and every sweep
    # compiles cold. The layer goes as the sweep returns, not at the next
    # cyclic collection.
    from repro.bench import get_benchmark
    from repro.experiments import parallel

    layers = []

    class Tracked(JITArtifactCache):
        def __init__(self):
            super().__init__()
            layers.append(weakref.ref(self))

    monkeypatch.setattr(parallel, "JITArtifactCache", Tracked)
    gc.disable()
    try:
        for _ in range(2):
            report = parallel.run_sweep(
                [get_benchmark("Search")], jobs=1, runs=2,
                scenarios=("default", "rep", "evolve"), backoff_s=0.0,
            )
            assert report.cells_failed == 0, report.failures
        assert len(layers) == 2
        assert [ref() for ref in layers] == [None, None]
    finally:
        gc.enable()


def test_one_sweep_builds_each_program_and_closure_once(monkeypatch):
    # One serial sweep of the eleven Table I programs compiles each
    # program from MiniLang once, and builds one closure per distinct
    # code, fewer than the artifacts it enters. A second sweep in the
    # same process redoes the same work: nothing outlives a sweep.
    from collections import Counter

    from repro.bench import all_benchmarks
    from repro.bench import base
    from repro.experiments.parallel import run_sweep
    from repro.vm import closures
    from repro.vm.opt import pipeline

    counts = Counter()
    entered: dict[int, tuple] = {}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(base, "compile_source")
    counting(pipeline, "run_pipeline")
    counting(closures, "emit_closure_source")
    real_ensure = closures.ensure_closure

    def ensure(compiled, *args):
        fn = real_ensure(compiled, *args)
        entered[id(compiled)] = (compiled, fn)
        return fn

    monkeypatch.setattr(closures, "ensure_closure", ensure)

    def sweep(benches):
        counts.clear()
        entered.clear()
        report = run_sweep(benches, jobs=1, seed=0, runs=3)
        assert report.cells_executed == 33 and report.cells_failed == 0
        artifacts = [compiled for compiled, _ in entered.values()]
        closures_built = {id(fn) for _, fn in entered.values()}
        return Counter(counts), artifacts, len(closures_built)

    benches = all_benchmarks()
    first, artifacts, distinct = sweep(benches)
    assert first["compile_source"] == 11
    assert first["emit_closure_source"] == distinct < len(artifacts)
    by_method = {}
    for compiled in artifacts:
        method = (compiled.method_name, compiled.code)
        by_method.setdefault(method, {})[compiled.level] = (
            compiled.__dict__["_closure"]
        )
    assert any(
        -1 in levels and 0 in levels and levels[-1] is levels[0]
        for levels in by_method.values()
    )

    second, _, _ = sweep(benches)
    assert second["compile_source"] == 0  # the programs stay on the instances
    assert second["run_pipeline"] == first["run_pipeline"]
    assert second["emit_closure_source"] == first["emit_closure_source"]
