"""Shared presorted training matrix: the fast trainer's columnar view.

Naive tree construction re-sorts every feature column at every node of
every tree. In this system the waste is compounded by the workload
shape: one :class:`~repro.core.model_builder.ModelBuilder` owns hundreds
of per-method trees whose feature matrices are *identical* (every method
observes the same run's feature vector) and differ only in labels. A
:class:`TrainingMatrix` therefore captures everything about a dataset's
features that is label-independent — per-column sorted row orders for
numeric features, repr-sorted category lists for categorical features —
so it can be computed once per program and reused across every
per-method fit, every tree node, and every cross-validation fold.

:class:`MatrixCache` keys matrices by *content* (columns, kinds, row
values), not object identity, so per-method datasets that went through
the same sequence of observations resolve to one shared presort.
"""

from __future__ import annotations

import threading

from ..xicl.features import FeatureKind
from .dataset import Dataset


class TrainingMatrix:
    """Label-independent, presorted columnar view of a feature matrix.

    - ``numeric_order[j]`` — for a numeric column *j*: row indices whose
      value is present (not ``None``), ascending by value (stable, so
      ties keep row order). ``None`` for categorical columns.
    - ``category_order[j]`` — for a categorical column *j*: the distinct
      observed categories sorted by ``repr`` (the reference trainer's
      candidate order). ``None`` for numeric columns.
    """

    __slots__ = ("columns", "kinds", "values", "numeric_order", "category_order")

    def __init__(
        self,
        columns: tuple[str, ...],
        kinds: tuple[FeatureKind, ...],
        values: tuple[tuple, ...],
    ):
        self.columns = columns
        self.kinds = kinds
        self.values = values
        numeric_order: list[tuple[int, ...] | None] = []
        category_order: list[tuple | None] = []
        for j, kind in enumerate(kinds):
            present = [i for i, row in enumerate(values) if row[j] is not None]
            if kind is FeatureKind.NUMERIC:
                present.sort(key=lambda i: values[i][j])
                numeric_order.append(tuple(present))
                category_order.append(None)
            else:
                numeric_order.append(None)
                category_order.append(
                    tuple(sorted({values[i][j] for i in present}, key=repr))
                )
        self.numeric_order = tuple(numeric_order)
        self.category_order = tuple(category_order)

    @property
    def n_rows(self) -> int:
        return len(self.values)

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "TrainingMatrix":
        columns = dataset.columns
        return cls(
            columns,
            tuple(dataset.kind_of(c) for c in columns),
            tuple(row.values for row in dataset.rows),
        )


def matrix_key(dataset: Dataset) -> tuple:
    """Content key identifying a dataset's feature matrix (labels excluded)."""
    columns = dataset.columns
    return (
        columns,
        tuple(dataset.kind_of(c) for c in columns),
        tuple(row.values for row in dataset.rows),
    )


class MatrixCache:
    """Content-keyed LRU cache of :class:`TrainingMatrix` instances.

    Sized for the per-program workload: within one ``refit_all`` pass the
    per-method datasets collapse to a handful of distinct matrices (one
    per method cohort — methods that joined the history at the same run),
    so a small capacity captures all the sharing.
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: dict[tuple, TrainingMatrix] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # The lock keeps the LRU reorder + eviction sequence atomic when
        # callers share one ModelBuilder across threads.
        self._lock = threading.Lock()

    def get(self, dataset: Dataset) -> TrainingMatrix:
        """The (possibly shared) presorted matrix for *dataset*'s features."""
        try:
            key = matrix_key(dataset)
        except TypeError:  # unhashable feature value: presort without caching
            return TrainingMatrix.from_dataset(dataset)
        with self._lock:
            cached = self._entries.pop(key, None)
            if cached is not None:
                self.hits += 1
                self._entries[key] = cached  # re-insert: most recently used
                return cached
            self.misses += 1
        # Presort outside the lock — it is the expensive part, and a
        # concurrent miss on the same key just builds an equal matrix.
        matrix = TrainingMatrix.from_dataset(dataset)
        with self._lock:
            self._entries[key] = matrix
            while len(self._entries) > self.capacity:
                self._entries.pop(next(iter(self._entries)))
                self.evictions += 1
        return matrix

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    # The forge prior pickles its ModelBuilder (shared cache included);
    # locks don't pickle, so drop it and recreate on load.
    def __getstate__(self) -> dict:
        state = {
            "capacity": self.capacity,
            "_entries": self._entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
