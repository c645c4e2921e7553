"""Tests for the forge dataset factory: labeler equivalence, shards,
the cross-program prior, the pipeline, and prior-backed cold start.

The labeler's contract is the strictest in the repository: the forked
labeling of any program×input pair must be *bit-identical* (labels,
cycles, compile cycles, faults, heap effects) to labeling by full
independent re-runs — in both child modes — and the whole pipeline must
produce byte-identical shards at any parallelism.
"""

import hashlib
import pickle

import pytest

from repro.core.evolvable import EvolvableVM
from repro.experiments.server_study import build_server_app
from repro.lang import compile_source
from repro.learning.forge import (
    CrossProgramPrior,
    ShardStore,
    ShardWriter,
    forge_columns,
    label_forked,
    label_naive,
    labels_equal,
    merge_matrices,
    method_feature_vector,
    program_features,
    run_forge,
)
from repro.learning.forge.features import forge_kinds, row_values
from repro.learning.forge.labeler import FORGE_CONFIG
from repro.learning.forge.pipeline import (
    WORKLOAD_REPS,
    input_args,
    wrap_workload,
)
from repro.learning.matrix import TrainingMatrix
from repro.testing import compile_module, generate
from repro.vm.config import VMConfig
from repro.vm.opt.jit import JITCompiler

#: Seeded equivalence corpus: enough programs to cover helpers,
#: recursion (tail and non-tail), loops, arrays, and heap intrinsics.
CORPUS_SEED = 5
CORPUS_SIZE = 12
INPUTS_PER_PROGRAM = 2

FAULTING_SOURCE = """
fn main(n) {
  return 1 / (n - n);
}
"""

LOOPING_SOURCE = """
fn main(n) {
  var i = 0;
  var total = 0;
  while (i < 100000) {
    total = total + i;
    i = i + 1;
  }
  return total;
}
"""


GC_SOURCE = """
fn main(n) {
  var i = 0;
  var total = 0;
  while (i < n) {
    total = total + churn(i);
    i = i + 1;
  }
  return total;
}
fn churn(k) {
  var j = 0;
  var s = 0;
  while (j < 30) {
    s = s + alloc(3000 + j * 7);
    j = j + 1;
  }
  return s + k;
}
"""

#: (program index, input) pairs of the workload corpus: ``wrap_workload``
#: over ``generate(CORPUS_SEED, index)`` with the ``"workload"`` input
#: profile. Each pair's naive labels promote some method. They are long
#: runs that cross many sample ticks, and their children run forced code
#: with shadowed siblings.
WORKLOAD_PAIRS = ((0, 2), (1, 0), (2, 2), (4, 0), (6, 0))


def corpus():
    for index in range(CORPUS_SIZE):
        gp = generate(CORPUS_SEED, index)
        program = compile_module(gp.module)
        for k in range(INPUTS_PER_PROGRAM):
            yield program, input_args(CORPUS_SEED, index, k, gp.args)


class TestLabelerEquivalence:
    def test_forked_equals_naive_early_stop(self):
        for program, args in corpus():
            naive = label_naive(program, args)
            forked = label_forked(program, args, early_stop=True)
            assert labels_equal(naive, forked), (program.name, args)

    def test_forked_equals_naive_full_suffix(self):
        for program, args in corpus():
            naive = label_naive(program, args)
            forked = label_forked(program, args, early_stop=False)
            assert labels_equal(naive, forked), (program.name, args)

    def test_forked_equals_naive_on_workload_profile(self):
        for index, k in WORKLOAD_PAIRS:
            gp = generate(CORPUS_SEED, index)
            program = compile_module(wrap_workload(gp.module))
            args = input_args(
                CORPUS_SEED, index, k, gp.args, profile="workload"
            )
            naive = label_naive(program, args)
            assert max(label.ideal for label in naive.labels.values()) > -1
            for early_stop in (True, False):
                forked = label_forked(program, args, early_stop=early_stop)
                assert labels_equal(naive, forked), (index, k, early_stop)

    def test_shared_jit_and_plan_cache_do_not_change_labels(self):
        gp = generate(CORPUS_SEED, 1)
        program = compile_module(gp.module)
        jit = JITCompiler(program, FORGE_CONFIG)
        plan_cache: dict = {}
        for k in range(4):
            args = input_args(CORPUS_SEED, 1, k, gp.args)
            fresh = label_forked(program, args)
            shared = label_forked(
                program, args, jit=jit, plan_cache=plan_cache
            )
            assert labels_equal(fresh, shared), args
        assert plan_cache  # the partition was actually cached

    def test_fault_edge_divide_by_zero(self):
        program = compile_source(FAULTING_SOURCE)
        naive = label_naive(program, (3,))
        forked = label_forked(program, (3,))
        assert naive.fault is not None
        assert labels_equal(naive, forked)
        assert forked.labels == {}

    def test_fuel_exhaustion_edge(self):
        # A run that dies on the instruction budget must label (or
        # fault) identically under both labelers — children inherit the
        # parent's remaining fuel accounting.
        program = compile_source(LOOPING_SOURCE)
        config = VMConfig(max_instructions=5_000)
        naive = label_naive(program, (1,), config=config)
        forked = label_forked(program, (1,), config=config)
        assert naive.fault is not None
        assert labels_equal(naive, forked)

    def test_gc_edge(self):
        # Collector pauses inside methods with shadow accounts: every
        # account must replay the pre-divided GC fold at its own speed.
        program = compile_source(GC_SOURCE)
        naive = label_naive(program, (40,))
        assert naive.profile.gc_count > 0
        for early_stop in (True, False):
            forked = label_forked(program, (40,), early_stop=early_stop)
            assert labels_equal(naive, forked), early_stop
            assert forked.labels["churn"].outcomes[0].derived

    def test_labels_are_complete(self):
        program = compile_module(generate(CORPUS_SEED, 2).module)
        labels = label_forked(program, generate(CORPUS_SEED, 2).args)
        assert labels.fault is None
        assert labels.labels
        for method, label in labels.labels.items():
            assert label.ideal is not None, method


class TestFeatures:
    def test_columns_sorted_and_stable(self):
        columns = forge_columns()
        assert list(columns) == sorted(columns)
        assert columns == forge_columns()
        assert len(columns) == len(forge_kinds())

    def test_row_values_width(self):
        gp = generate(CORPUS_SEED, 0)
        program = compile_module(gp.module)
        pfeats = program_features(program)
        values = row_values(pfeats, program.method("main"), gp.args)
        assert len(values) == len(forge_columns())

    def test_method_feature_vector_skips_missing(self):
        gp = generate(CORPUS_SEED, 0)
        program = compile_module(gp.module)
        fvector = method_feature_vector(program, "main", gp.args)
        assert len(fvector) > 0
        assert len(fvector) <= len(forge_columns())


class TestShards:
    def _write_rows(self, tmp_path, rows, shard_rows=4):
        writer = ShardWriter(
            tmp_path, forge_columns(), forge_kinds(), shard_rows=shard_rows
        )
        for values, label, group in rows:
            writer.add(values, label, group)
        writer.close()
        return writer

    def _sample_rows(self, n=10):
        gp = generate(CORPUS_SEED, 0)
        program = compile_module(gp.module)
        pfeats = program_features(program)
        method = program.method("main")
        return [
            (row_values(pfeats, method, (i,)), i % 3, "main")
            for i in range(n)
        ]

    def test_roundtrip(self, tmp_path):
        rows = self._sample_rows(10)
        writer = self._write_rows(tmp_path, rows, shard_rows=4)
        assert writer.shards_written == 3
        assert writer.max_resident_rows == 4
        store = ShardStore(tmp_path)
        assert store.total_rows() == 10
        back = [
            (values, label, group)
            for shard in store.iter_shards()
            for values, label, group in zip(
                shard.values, shard.labels, shard.groups
            )
        ]
        assert back == [
            (tuple(v), label, group) for v, label, group in rows
        ]

    def test_schema_width_enforced(self, tmp_path):
        writer = ShardWriter(tmp_path, forge_columns(), forge_kinds())
        with pytest.raises(ValueError):
            writer.add((1, 2, 3), 0, "main")

    def test_closed_writer_rejects_rows(self, tmp_path):
        rows = self._sample_rows(2)
        writer = self._write_rows(tmp_path, rows)
        with pytest.raises(RuntimeError):
            writer.add(rows[0][0], 0, "main")

    def test_merge_identical_to_fresh_presort(self, tmp_path):
        # The k-way merge of per-shard presorted orders must equal a
        # from-scratch presort of the concatenation, bit for bit.
        rows = self._sample_rows(11)
        self._write_rows(tmp_path, rows, shard_rows=3)
        store = ShardStore(tmp_path)
        matrices = [shard.matrix() for shard in store.iter_shards()]
        merged = merge_matrices(matrices)
        fresh = TrainingMatrix(
            merged.columns, merged.kinds, merged.values
        )
        assert merged.numeric_order == fresh.numeric_order
        assert merged.category_order == fresh.category_order

    def test_merge_rejects_schema_mismatch(self):
        a = TrainingMatrix(("x",), forge_kinds()[:1], ((1,),))
        b = TrainingMatrix(("y",), forge_kinds()[:1], ((1,),))
        with pytest.raises(ValueError):
            merge_matrices([a, b])


def _shard_digest(directory):
    store = ShardStore(directory)
    digest = hashlib.sha256()
    for path in store.paths():
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestPipeline:
    def test_end_to_end(self, tmp_path):
        stats, prior = run_forge(
            tmp_path, programs=12, inputs_per_program=2, seed=3, jobs=1
        )
        assert stats.rows > 0
        assert stats.shards >= 1
        assert stats.trained is True
        assert "*" in stats.clusters
        assert ShardStore(tmp_path).total_rows() == stats.rows
        assert (tmp_path / "prior.bin").exists()
        assert prior.rows_trained == stats.rows

    def test_jobs_invariance_byte_identical(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_forge(
            serial_dir, programs=8, inputs_per_program=2, seed=9,
            jobs=1, train=False,
        )
        run_forge(
            parallel_dir, programs=8, inputs_per_program=2, seed=9,
            jobs=2, train=False,
        )
        assert _shard_digest(serial_dir) == _shard_digest(parallel_dir)

    def test_shard_rows_bounds_memory(self, tmp_path):
        stats, _ = run_forge(
            tmp_path, programs=6, inputs_per_program=2, seed=3,
            jobs=1, shard_rows=8, train=False,
        )
        assert stats.max_resident_rows <= 8
        assert stats.shards >= 2

    def test_input_args_deterministic_and_in_domain(self):
        a = input_args(1, 2, 3, (0, 0))
        # Pure in (seed, index, k, arity): base values do not matter.
        assert a == input_args(1, 2, 3, (9, 9))
        assert len(a) == 2
        assert all(0 <= v <= 9 for v in a)
        base = (4, 7)
        assert input_args(1, 2, 0, base) == base  # input 0 = fuzz parity

    def test_input_args_workload_profile(self):
        drawn = [
            input_args(1, 2, k, (0, 0), profile="workload")
            for k in range(40)
        ]
        assert drawn == [
            input_args(1, 2, k, (3, 3), profile="workload")
            for k in range(40)
        ]
        reps = [args[0] for args in drawn]
        assert set(reps) <= set(WORKLOAD_REPS)
        # The reps ladder actually spans the crossover: both the
        # baseline-staying bottom and the promoting top occur.
        assert min(reps) == min(WORKLOAD_REPS)
        assert max(reps) == max(WORKLOAD_REPS)
        assert all(
            0 <= v <= 9 for args in drawn for v in args[1:]
        )
        with pytest.raises(ValueError):
            input_args(1, 2, 3, (0,), profile="typo")

    def test_wrap_workload_scales_work_with_reps(self):
        gp = generate(CORPUS_SEED, 1)
        program = compile_module(wrap_workload(gp.module))
        assert "app" in program.method_names
        light = label_naive(
            program, (1,) + gp.args, config=FORGE_CONFIG
        )
        heavy = label_naive(
            program, (200,) + gp.args, config=FORGE_CONFIG
        )
        assert light.fault is None and heavy.fault is None
        work = lambda lab: sum(
            ml.outcomes[-1].cycles for ml in lab.labels.values()
        )
        assert work(heavy) > 50 * work(light)


class TestPrior:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("forge")
        stats, prior = run_forge(
            tmp, programs=30, inputs_per_program=4, seed=3, jobs=1
        )
        return tmp, stats, prior

    def test_predicts_unseen_program(self, trained):
        _tmp, _stats, prior = trained
        gp = generate(99, 0)  # a stream the prior never saw
        program = compile_module(gp.module)
        levels = prior.predict_program(program)
        assert levels
        assert set(levels) <= set(program.method_names)

    def test_save_load_roundtrip(self, trained):
        tmp, _stats, prior = trained
        loaded = CrossProgramPrior.load(tmp / "prior.bin")
        gp = generate(99, 1)
        program = compile_module(gp.module)
        assert loaded.predict_program(program) == prior.predict_program(
            program
        )
        assert loaded.clusters == prior.clusters

    def test_saved_prior_drops_derived_state(self, trained):
        tmp, _stats, prior = trained
        loaded = CrossProgramPrior.load(tmp / "prior.bin")
        assert loaded._builder._forest is None
        assert len(loaded._builder._matrix_cache) == 0
        # ...and the live prior keeps its cache (save must not mutate).
        assert prior._builder._forest is not None

    def test_prior_is_picklable_after_load(self, trained):
        tmp, _stats, _prior = trained
        loaded = CrossProgramPrior.load(tmp / "prior.bin")
        again = pickle.loads(pickle.dumps(loaded))
        gp = generate(99, 2)
        program = compile_module(gp.module)
        assert again.predict_program(program) == loaded.predict_program(
            program
        )


class TestColdStart:
    @pytest.fixture(scope="class")
    def prior(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("forge-cold")
        _stats, prior = run_forge(
            tmp, programs=30, inputs_per_program=4, seed=3, jobs=1
        )
        return prior

    def test_first_run_applies_prior_advice(self, prior):
        app = build_server_app()
        vm = EvolvableVM(app, prior=prior)
        # The prior is consulted with this run's entry arguments
        # (the i_* feature columns), not just the program statics.
        tokens = app.split_cmdline("-e search -b 8192")
        args = app.entry_args(tokens, vm.translator.build_fvector(tokens))
        advice = prior.predict_program(app.program, args)
        assert advice
        outcome = vm.run("-e search -b 8192", rng_seed=0)
        assert outcome.applied_prediction is True
        assert dict(outcome.predicted.levels) == advice

    def test_without_prior_first_run_is_unguided(self):
        app = build_server_app()
        vm = EvolvableVM(app)
        outcome = vm.run("-e search -b 8192", rng_seed=0)
        assert outcome.applied_prediction is False

    def test_own_models_take_over_from_prior(self, prior):
        # predict() consults the prior only for methods without a
        # fitted in-app tree.
        app = build_server_app()
        vm = EvolvableVM(app, prior=prior, min_rows=2)
        for i in range(6):
            vm.run(f"-e search -b {512 * (i + 1)}", rng_seed=i)
        fvector = vm.translator.build_fvector(
            app.split_cmdline("-e search -b 4096")
        )
        fitted = set(vm.models.predict_all(fvector))
        merged = vm.models.predict(fvector)
        assert fitted  # in-app models actually fitted
        for method in fitted:
            assert method in merged.levels

    def test_tenant_passes_prior(self, prior, tmp_path):
        from repro.serving.registry import ModelRegistry
        from repro.serving.tenant import Tenant

        registry = ModelRegistry(str(tmp_path / "registry"))
        tenant = Tenant(build_server_app(), registry=registry, prior=prior)
        assert tenant.vm.prior is prior
        payload = tenant.run("-e search -b 8192")
        assert payload["applied_prediction"] is True
