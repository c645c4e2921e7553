"""Cross-program prior: cold-start level prediction for unseen programs.

Within one application the paper's :class:`ModelBuilder` learns per
method from that application's own run history — a brand-new program
starts cold (no advice until enough runs accumulate). The forge trains
a *prior* over thousands of generated programs: rows are keyed by
method-name cluster (generated programs share a tiny method namespace —
``main``, helper, recursive — so name is a meaningful cohort) plus a
global ``"*"`` cluster that absorbs everything. Prediction for an
unseen program's method resolves the most specific fitted cluster.

The prior *is* a :class:`ModelBuilder` whose "methods" are clusters:
training reuses ``refit_all(jobs=N)`` — shared presort cache, parallel
offline construction, flattened forest — unchanged. Rows are appended
directly to the per-cluster datasets (the schema is fixed by
:func:`~.features.forge_columns`, so no per-row column alignment is
needed at dataset scale).

Persisted with the resilience envelope (kind ``forge-prior``) so a
serving fleet can load it at tenant admission for prior-backed cold
start.
"""

from __future__ import annotations

from pathlib import Path

from ...resilience.envelope import (
    FileSystem,
    REAL_FS,
    read_pickle_envelope,
    write_pickle_envelope,
)
from ...xicl.features import FeatureVector
from ..dataset import Row
from ..incremental import IncrementalClassifier
from ..matrix import matrix_key
from ..tree import TreeParams
from .features import forge_columns, forge_kinds, method_feature_vector
from .shards import ShardStore, merge_matrices

#: Envelope kind tag for persisted priors.
PRIOR_KIND = "forge-prior"

#: The catch-all cluster every row also joins.
GLOBAL_CLUSTER = "*"


class CrossProgramPrior:
    """Per-cluster level models fitted on forge-labeled corpora."""

    def __init__(
        self,
        tree_params: TreeParams = TreeParams(),
        min_rows: int = 8,
    ):
        # Imported here to avoid a package cycle (core imports learning).
        from ...core.model_builder import ModelBuilder

        self._builder = ModelBuilder(tree_params, min_rows=min_rows)
        self.rows_trained = 0

    # -- training -----------------------------------------------------------
    def _model(self, cluster: str) -> IncrementalClassifier:
        builder = self._builder
        model = builder.model_for(cluster)
        if model is None:
            model = IncrementalClassifier(
                builder.tree_params,
                builder.min_rows,
                matrix_cache=builder._matrix_cache,
            )
            columns = forge_columns()
            model.dataset._columns = list(columns)
            model.dataset._kinds = dict(zip(columns, forge_kinds()))
            builder._models[cluster] = model
        return model

    def observe_row(self, cluster: str, values: tuple, label: int) -> None:
        """Append one labeled row to *cluster* and the global cluster."""
        row = Row(tuple(values), int(label))
        for name in (cluster, GLOBAL_CLUSTER):
            model = self._model(name)
            model.dataset._rows.append(row)
            model._stale = True
        self.rows_trained += 1

    def fit_from_store(self, store: ShardStore, jobs: int = 1) -> None:
        """Load every shard, fan rows into clusters, refit all models.

        The global cluster's rows are exactly the shard concatenation,
        so its presorted matrix is obtained by *merging* the per-shard
        presorts (:func:`~.shards.merge_matrices`) and primed into the
        builder's shared matrix cache rather than re-sorted from
        scratch. ``refit_all(jobs)`` then trains every cluster through
        the standard offline-construction path.
        """
        columns = forge_columns()
        shard_matrices = []
        for shard in store.iter_shards():
            if shard.columns != columns:
                raise ValueError(
                    f"shard schema {shard.columns[:3]}… does not match "
                    "forge_columns()"
                )
            shard_matrices.append(shard.matrix())
            for values, label, group in zip(
                shard.values, shard.labels, shard.groups
            ):
                self.observe_row(group, values, label)
        if shard_matrices:
            merged = merge_matrices(shard_matrices)
            cache = self._builder._matrix_cache
            global_ds = self._model(GLOBAL_CLUSTER).dataset
            try:
                cache._entries[matrix_key(global_ds)] = merged
            except TypeError:  # unhashable value: skip priming
                pass
        self.refit(jobs=jobs)

    def refit(self, jobs: int = 1) -> None:
        self._builder.refit_all(jobs=jobs)

    # -- prediction ---------------------------------------------------------
    def predict_level(
        self, method_name: str, fvector: FeatureVector
    ) -> int | None:
        """Predicted level for one method, most specific cluster first."""
        for cluster in (method_name, GLOBAL_CLUSTER):
            model = self._builder.model_for(cluster)
            if model is not None and model.is_fitted:
                label = model.predict(fvector)
                if label is not None:
                    return int(label)
        return None

    def predict_program(self, program, args: tuple = ()) -> dict[str, int]:
        """Per-method predicted levels for a whole (unseen) program."""
        out: dict[str, int] = {}
        for name in program.method_names:
            level = self.predict_level(
                name, method_feature_vector(program, name, args)
            )
            if level is not None:
                out[name] = level
        return out

    # -- introspection ------------------------------------------------------
    @property
    def clusters(self) -> tuple[str, ...]:
        return self._builder.method_names

    def summary(self) -> dict:
        return {
            "clusters": list(self.clusters),
            "rows_trained": self.rows_trained,
            "presort": self._builder.presort_stats(),
        }

    # -- persistence --------------------------------------------------------
    def save(self, path: str | Path, fs: FileSystem = REAL_FS) -> None:
        """Persist through the crash-safe envelope (kind ``forge-prior``)."""
        builder = self._builder
        forest = builder._forest
        cache = builder._matrix_cache
        entries = cache._entries
        # Both are derived state: the flat forest rebuilds lazily on the
        # first query and presorted matrices rebuild on the next refit.
        # At dataset scale the cached matrices would double the file.
        builder._forest = None
        cache._entries = {}
        try:
            write_pickle_envelope(path, self, kind=PRIOR_KIND, fs=fs)
        finally:
            builder._forest = forest
            cache._entries = entries

    @classmethod
    def load(cls, path: str | Path, fs: FileSystem = REAL_FS):
        prior = read_pickle_envelope(path, kind=PRIOR_KIND, fs=fs)
        if not isinstance(prior, cls):
            raise ValueError(f"envelope at {path} does not hold a {cls.__name__}")
        return prior
