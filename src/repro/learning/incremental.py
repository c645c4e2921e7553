"""Incremental model wrapper: accumulate observations, refit on demand.

The paper separates learning into *online lightweight data collection*
(append the run's feature vector and observed label) and *offline model
construction* (rebuild the classification tree after the run ends). This
wrapper implements that split strictly: :meth:`observe` is O(1)
bookkeeping, :meth:`refit` rebuilds the tree from the accumulated
history, and :meth:`predict` **never trains** — it serves the last
fitted tree (possibly stale) or declines. Prediction sits on the
run-*start* hot path; paying training cost there would invert the
paper's whole cost model, so an implicit refit-on-predict is not merely
avoided but impossible by construction
(``tests/test_learning_crossval.py`` pins this with a regression test).
"""

from __future__ import annotations

from ..xicl.features import FeatureVector
from .crossval import cross_validated_accuracy
from .dataset import Dataset
from .matrix import MatrixCache
from .tree import ClassificationTree, TreeParams


class IncrementalClassifier:
    """A classification tree that grows with the run history."""

    def __init__(
        self,
        params: TreeParams = TreeParams(),
        min_rows: int = 2,
        matrix_cache: MatrixCache | None = None,
    ):
        self.params = params
        self.min_rows = min_rows
        self.dataset = Dataset()
        #: Shared presort cache: a ModelBuilder passes one cache to all of
        #: its per-method classifiers so identical feature matrices are
        #: presorted once per refit pass, not once per method.
        self.matrix_cache = matrix_cache
        self._tree: ClassificationTree | None = None
        self._stale = True
        #: Number of tree fits performed (regression guard: prediction
        #: must never bump this).
        self.fit_count = 0

    # -- online stage ---------------------------------------------------------
    def observe(self, vector: FeatureVector, label: object) -> None:
        """Record one (input features, observed label) pair."""
        self.dataset.add(vector, label)
        self._stale = True

    @property
    def n_observations(self) -> int:
        return len(self.dataset)

    def trim_history(self, keep_last: int) -> int:
        """Forget all but the last *keep_last* observations.

        The drift response path: when this method's regime shifted, the
        pre-shift rows actively mislead the tree, so the caller trims to
        the recent window and refits. Returns the rows dropped; marks
        the model stale only if anything was dropped.
        """
        dropped = self.dataset.truncate_to_last(keep_last)
        if dropped:
            self._stale = True
        return dropped

    # -- offline stage --------------------------------------------------------
    def refit(self) -> None:
        """Rebuild the tree from all accumulated observations.

        The only place training happens. With fewer than ``min_rows``
        observations the previous tree (if any) is kept.
        """
        if len(self.dataset) >= self.min_rows:
            cache = self.matrix_cache
            matrix = cache.get(self.dataset) if cache is not None else None
            self._tree = ClassificationTree(self.params).fit(
                self.dataset, matrix=matrix
            )
            self.fit_count += 1
        self._stale = False

    def adopt_tree(self, tree: ClassificationTree) -> None:
        """Install a tree fitted elsewhere (the parallel offline path)."""
        self._tree = tree
        self._stale = False

    @property
    def is_fitted(self) -> bool:
        return self._tree is not None

    @property
    def stale(self) -> bool:
        """True when observations arrived after the last :meth:`refit`."""
        return self._stale

    @property
    def tree(self) -> ClassificationTree | None:
        """The last fitted tree (stale or fresh), or None."""
        return self._tree

    def predict(self, vector: FeatureVector) -> object | None:
        """Predicted label from the **last fitted** tree, or None.

        Never trains: a stale model predicts from its previous tree, an
        unfitted model declines. Callers refit explicitly at run end.
        """
        if self._tree is None:
            return None
        return self._tree.predict(vector)

    def used_features(self) -> tuple[str, ...]:
        if self._tree is None:
            return ()
        return self._tree.used_features()

    def cv_accuracy(self, k: int = 5, seed: int = 0) -> float:
        """Cross-validated accuracy over the accumulated history."""
        return cross_validated_accuracy(self.dataset, self.params, k=k, seed=seed)

    def render(self) -> str:
        if self._tree is None:
            return "<insufficient history>"
        return self._tree.render()
