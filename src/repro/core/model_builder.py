"""The model builder: per-method input→level classification trees.

One application owns one :class:`ModelBuilder`, which owns one
:class:`~repro.learning.incremental.IncrementalClassifier` per Java method.
After each run the builder observes (input feature vector → the method's
posterior ideal level); before a run it assembles a
:class:`~repro.aos.strategy.LevelStrategy` by routing the new input's
features through every method's tree.

Performance shape (the paper's premise is that both sides stay cheap):

- **Offline construction** (:meth:`refit_all`, run end): every per-method
  dataset holds the *same* feature matrix — only labels differ — so one
  :class:`~repro.learning.matrix.MatrixCache` is shared across all
  classifiers and each distinct matrix is presorted once per pass, not
  once per method. Refits optionally fan out across processes through
  :func:`~repro.experiments.parallel.map_parallel` with a deterministic
  by-method merge. After fitting, the trees are compiled into a
  :class:`~repro.learning.flat.FlatForest`.
- **Prediction** (:meth:`predict` / :meth:`predict_all`, run start): one
  pass of the flattened forest — the input vector is projected onto the
  shared column universe once and walked through every tree as flat
  arrays. Prediction never trains: stale models answer from their last
  fitted tree (``refit_all`` is the explicit, end-of-run training point).
"""

from __future__ import annotations

from ..aos.strategy import LevelStrategy
from ..learning.flat import FlatForest, compile_forest
from ..learning.incremental import IncrementalClassifier
from ..learning.matrix import MatrixCache, TrainingMatrix, matrix_key
from ..learning.tree import ENGINES, ClassificationTree, TreeParams
from ..xicl.features import FeatureVector


def _refit_group(item: tuple) -> list:
    """Worker for parallel offline construction: fit one matrix cohort.

    *item* is ``(columns, kinds, rows_x, engine, entries)`` where entries
    are ``(method, labels, params)`` — every method in the group shares
    the same feature matrix, which is presorted exactly once here.
    Returns ``[(method, root_node), ...]`` in entry order.
    """
    from ..learning.fasttree import build_tree
    from ..learning.dataset import Dataset, Row

    columns, kinds, rows_x, engine, entries = item
    out = []
    if engine == "reference":
        for method, labels, params in entries:
            ds = Dataset()
            ds._columns = list(columns)
            ds._kinds = dict(zip(columns, kinds))
            ds._rows = [
                Row(values, label) for values, label in zip(rows_x, labels)
            ]
            tree = ClassificationTree(params, engine="reference").fit(ds)
            out.append((method, tree.root))
    else:
        matrix = TrainingMatrix(columns, kinds, rows_x)
        for method, labels, params in entries:
            out.append((method, build_tree(matrix, labels, params)))
    return out


class ModelBuilder:
    """Builds and queries the per-method predictive models."""

    def __init__(
        self,
        tree_params: TreeParams = TreeParams(),
        min_rows: int = 2,
        engine: str = "auto",
        prior_levels: dict[str, int] | None = None,
    ):
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be 'auto', 'fast', or 'reference', got {engine!r}"
            )
        self.tree_params = tree_params
        self.min_rows = min_rows
        self.engine = engine
        self._models: dict[str, IncrementalClassifier] = {}
        self._matrix_cache = MatrixCache()
        self._forest: FlatForest | None = None
        #: Cross-program cold-start advice (see
        #: :class:`~repro.learning.forge.prior.CrossProgramPrior`): static
        #: per-method levels consulted only for methods that have no
        #: fitted tree yet — once a method's own model fits, its in-app
        #: prediction always wins.
        self.prior_levels = dict(prior_levels) if prior_levels else {}

    # -- learning -------------------------------------------------------------
    def observe_run(self, fvector: FeatureVector, ideal: LevelStrategy) -> None:
        """Record one finished run: its input features and ideal strategy.

        O(methods) bookkeeping only — no training, and the compiled
        forest is left in place so predictions between observe and refit
        answer from the last fitted trees.
        """
        for method, level in ideal.levels.items():
            model = self._models.get(method)
            if model is None:
                model = IncrementalClassifier(
                    self.tree_params,
                    self.min_rows,
                    engine=self.engine,
                    matrix_cache=self._matrix_cache,
                )
                self._models[method] = model
            model.observe(fvector, level)

    def refit_all(self, jobs: int = 1) -> None:
        """Offline model construction: rebuild every method's tree.

        With ``jobs > 1`` the per-method fits fan out through
        :func:`~repro.experiments.parallel.map_parallel`, grouped by
        shared feature matrix so each worker presorts its cohort's matrix
        once; results merge deterministically by method (bit-identical to
        the serial path, which a test asserts). Either way the fitted
        trees are recompiled into the flattened prediction forest.
        """
        if jobs > 1 and len(self._models) > 1:
            self._refit_parallel(jobs)
        else:
            for model in self._models.values():
                model.refit()
        self._compile_forest()

    def _refit_parallel(self, jobs: int) -> None:
        from ..experiments.parallel import map_parallel

        groups: dict[tuple, list] = {}
        skipped: list[IncrementalClassifier] = []
        for method in sorted(self._models):
            model = self._models[method]
            if len(model.dataset) < model.min_rows:
                skipped.append(model)
                continue
            try:
                key = matrix_key(model.dataset)
            except TypeError:  # unhashable feature value: fit in-process
                model.refit()
                continue
            labels = model.dataset.labels()
            groups.setdefault(key, []).append((method, labels, model.params))
        items = [
            (columns, kinds, rows_x, self.engine, entries)
            for (columns, kinds, rows_x), entries in groups.items()
        ]
        results, _ = map_parallel(_refit_group, items, jobs)
        for fitted in results:
            for method, root in fitted:
                model = self._models[method]
                tree = ClassificationTree(model.params, engine=model.engine)
                tree.root = root
                tree._dataset = model.dataset
                tree._dataset_columns = model.dataset.columns
                model.adopt_tree(tree)
                model.fit_count += 1
        for model in skipped:
            # Mirror serial refit(): too little history keeps the old tree.
            model._stale = False

    def reset(self) -> None:
        """Discard all learned state — models, presort cache, compiled
        forest — **in place**, so references other components hold (the
        strategy predictor, serving tenants) stay valid. The rollback
        path wipes the builder with this and then replays the last-good
        observations into it."""
        self._models.clear()
        self._matrix_cache = MatrixCache()
        self._forest = None

    def refit_methods(self, methods: tuple[str, ...] | list[str]) -> int:
        """Targeted offline construction: rebuild only *methods*' trees.

        The drift-response path — when the changepoint detector names
        the methods whose models went stale, only their trees refit (the
        rest of the forest answered fine and keeps its fitted trees).
        The flattened forest recompiles iff anything refit. Returns the
        number of models refit.
        """
        hit = [m for m in sorted(set(methods)) if m in self._models]
        for method in hit:
            self._models[method].refit()
        if hit:
            self._compile_forest()
        return len(hit)

    def trim_method_history(self, method: str, keep_last: int) -> int:
        """Forget one method's pre-drift observations (keep the recent
        window); returns rows dropped. Unknown methods are a no-op."""
        model = self._models.get(method)
        if model is None:
            return 0
        return model.trim_history(keep_last)

    def _compile_forest(self) -> None:
        self._forest = compile_forest(
            {
                method: model.tree
                for method, model in self._models.items()
                if model.tree is not None and model.tree.root is not None
            }
        )

    # -- prediction -------------------------------------------------------------
    @property
    def forest(self) -> FlatForest:
        """The flattened prediction forest over all fitted method trees.

        Compiled eagerly by :meth:`refit_all`; compiling here (first
        query of a builder that never refitted, e.g. right after state
        restore skipped) only flattens already-fitted trees — it never
        trains.
        """
        if self._forest is None:
            self._compile_forest()
        return self._forest

    def predict_all(self, fvector: FeatureVector) -> dict[str, object]:
        """Raw per-method predicted labels, one forest pass, no training."""
        return self.forest.predict_all(fvector)

    def predict_all_batch(
        self, fvectors: list[FeatureVector]
    ) -> list[dict[str, object]]:
        """Batched :meth:`predict_all`: one compiled batch-kernel call
        (:meth:`~repro.learning.flat.FlatForest.predict_batch`) answering
        the whole query matrix, bit-identical to calling
        :meth:`predict_all` per vector. The serving layer routes drained
        predict batches through this so a queue drain costs one kernel
        pass, not one tree descent per request. Never trains."""
        return self.forest.predict_batch(fvectors)

    def predict(self, fvector: FeatureVector) -> LevelStrategy:
        """Predicted per-method levels for the input *fvector*.

        Methods whose models lack a fitted tree fall back to
        :attr:`prior_levels` when present, and are omitted otherwise (no
        advice). Runs on the startup hot path: a single flattened-forest
        pass from the last explicit :meth:`refit_all` — never a refit.
        """
        levels = {
            method: int(label)
            for method, label in self.predict_all(fvector).items()
        }
        for method, level in self.prior_levels.items():
            if method not in levels:
                levels[method] = int(level)
        return LevelStrategy(levels)

    # -- introspection ------------------------------------------------------
    @property
    def method_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._models))

    def __len__(self) -> int:
        return len(self._models)

    def model_for(self, method: str) -> IncrementalClassifier | None:
        return self._models.get(method)

    def presort_stats(self) -> dict:
        """Shared-presort cache stats (hits = per-method fits that reused
        another method's presorted matrix)."""
        return self._matrix_cache.stats()

    def used_features(self) -> tuple[str, ...]:
        """Union of features any method model actually splits on."""
        names: list[str] = []
        for method in sorted(self._models):
            for feature in self._models[method].used_features():
                if feature not in names:
                    names.append(feature)
        return tuple(names)

    def summary(self) -> dict:
        """Pickle-safe snapshot of the model state for reporting.

        Workers of the parallel experiment engine return this instead of
        the builder itself (trees hold closures over per-app state), so
        Table-I-style reports work without the live models.
        """
        return {
            "methods_modeled": len(self._models),
            "features_total": self.raw_feature_count(),
            "features_used": list(self.used_features()),
        }

    def raw_feature_count(self) -> int:
        """Width of the raw feature vectors the models were trained on."""
        widths = [
            len(model.dataset.columns)
            for model in self._models.values()
            if len(model.dataset) > 0
        ]
        return max(widths, default=0)

    def mean_cv_accuracy(self, k: int = 5, seed: int = 0) -> float:
        """Average per-method cross-validated accuracy (model diagnostic).

        The run-loop confidence (Figure 7) is the operational quality
        measure; this CV score is the offline complement used for
        model-quality reporting and ablations.
        """
        scores = [
            model.cv_accuracy(k=k, seed=seed)
            for model in self._models.values()
            if model.n_observations >= 2
        ]
        if not scores:
            return 0.0
        return sum(scores) / len(scores)
