"""Unit tests for the cross-run JIT artifact cache."""

import pickle

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


def test_disk_roundtrip(tmp_path, program):
    dir_ = tmp_path / "jit"
    cache_a = JITArtifactCache(dir_)
    first = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache_a).compile(
        "main", 2
    )
    # A brand-new cache (fresh process, same directory) hits via disk.
    cache_b = JITArtifactCache(dir_)
    second = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache_b).compile(
        "main", 2
    )
    assert cache_b.stats()["disk_hits"] == 1
    assert second is not first
    assert second == first
    assert second.compile_cycles == first.compile_cycles
    assert second.speed_factor == first.speed_factor


def test_disk_corruption_is_a_miss(tmp_path, program):
    dir_ = tmp_path / "jit"
    cache = JITArtifactCache(dir_)
    jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
    compiled = jit.compile("main", 2)
    key = jit._artifact_key("main", 2)
    (dir_ / f"{key}.pkl").write_bytes(b"not a pickle")
    fresh = JITArtifactCache(dir_)
    assert fresh.get(key) is None
    assert fresh.stats()["misses"] == 1
    # And a recompile through the fresh cache still works.
    recompiled = JITCompiler(
        program, DEFAULT_CONFIG, artifact_cache=fresh
    ).compile("main", 2)
    assert recompiled == compiled


def test_artifact_key_is_order_sensitive():
    key_a = artifact_key("m", "p", 2, "c", ("peephole", "dce"))
    key_b = artifact_key("m", "p", 2, "c", ("dce", "peephole"))
    assert key_a != key_b


def test_sweep_cell_identical_with_cache_on_and_off(tmp_path):
    # Acceptance criterion: a Table I sweep cell's virtual-cycle results
    # are bit-identical with the JIT artifact cache off, cold, and warm.
    from repro.bench import get_benchmark
    from repro.experiments.parallel import (
        _ARTIFACT_CACHES,
        CellSpec,
        derive_sequence,
        execute_cell,
    )

    bench = get_benchmark("Compress")
    sequence = tuple(derive_sequence(bench, seed=0, n_runs=3))
    jit_dir = str(tmp_path / "jit")

    def run_cell(cache_dir):
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
            jit_cache_dir=cache_dir,
        )
        payload = execute_cell(spec)
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

    off = run_cell(None)
    cold = run_cell(jit_dir)
    _ARTIFACT_CACHES.pop(jit_dir, None)  # simulate a fresh worker process
    warm = run_cell(jit_dir)
    stats = _ARTIFACT_CACHES.pop(jit_dir).stats()
    assert stats["disk_hits"] > 0
    assert off == cold == warm


def test_cell_cache_key_ignores_jit_cache_dir(tmp_path):
    # Artifact reuse never changes results, so it must not invalidate the
    # sweep's result cache.
    from repro.bench import get_benchmark
    from repro.experiments.parallel import CellSpec, derive_sequence

    bench = get_benchmark("Compress")
    sequence = tuple(derive_sequence(bench, seed=0, n_runs=2))

    def key(cache_dir):
        return CellSpec(
            benchmark=bench.name,
            scenarios=("default",),
            start=0,
            stop=2,
            seed=0,
            sequence=sequence,
            config=DEFAULT_CONFIG,
            gamma=None,
            threshold=None,
            tree_params=None,
            jit_cache_dir=cache_dir,
        ).cache_key()

    assert key(None) == key(str(tmp_path / "jit"))


def test_cached_artifact_pickles_without_decode_memo(tmp_path, program):
    from repro.vm.fastpath import ensure_decoded

    dir_ = tmp_path / "jit"
    cache = JITArtifactCache(dir_)
    jit = JITCompiler(program, DEFAULT_CONFIG, artifact_cache=cache)
    compiled = jit.compile("main", 2)
    ensure_decoded(compiled)  # attach the memo...
    key = jit._artifact_key("main", 2)
    # ...then force a fresh disk write and reload.
    raw = pickle.dumps(compiled)
    clone = pickle.loads(raw)
    assert "_decoded" not in clone.__dict__
    assert JITArtifactCache(dir_).get(key) is not None


def test_sweeps_keep_only_the_current_cache_directory(tmp_path):
    # A process that sweeps with one fresh cache directory after another
    # keeps only the current directory's cache, so its memory stays flat.
    from repro.bench import get_benchmark
    from repro.experiments.parallel import _ARTIFACT_CACHES, run_sweep

    for name in ("first", "second"):
        report = run_sweep(
            [get_benchmark("Search")],
            jobs=1,
            runs=2,
            scenarios=("default",),
            jit_cache_dir=str(tmp_path / name),
            backoff_s=0.0,
        )
        assert report.cells_failed == 0, report.failures
    assert list(_ARTIFACT_CACHES) == [str(tmp_path / "second")]
