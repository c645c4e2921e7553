"""Classification trees (CART-style, entropy-driven), from scratch.

The paper selects classification trees for their simplicity, mixed
categorical/numeric feature handling, interpretability, and — crucially —
*automatic feature selection*: features that never reduce impurity never
appear in the tree, which is how the raw XICL vectors (deliberately
over-complete) shrink to the "used features" column of Table I.

Splits are binary: numeric features split on ``value <= threshold``
(thresholds at midpoints of consecutive distinct values); categorical
features split on ``value == category``. Rows with a missing value for the
split feature route to the child that received more training rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..xicl.features import FeatureKind, FeatureVector
from .dataset import Dataset, Row


def entropy(counts: dict[object, int]) -> float:
    """Shannon entropy (bits) of a label distribution.

    Counts are summed in a canonical (sorted) order so two engines that
    agree on the count *multiset* — but accumulated it in different
    orders — produce bitwise-identical floats. The fast trainer's
    bit-identity guarantee rests on this.
    """
    total = sum(counts.values())
    if total == 0:
        return 0.0
    result = 0.0
    for count in sorted(counts.values()):
        if count:
            p = count / total
            result -= p * math.log2(p)
    return result


@dataclass(frozen=True)
class Split:
    """A candidate binary split of one node."""

    column: str
    column_index: int
    kind: FeatureKind
    threshold: object            # numeric bound or the matched category
    gain: float

    def goes_left(self, value: object) -> bool | None:
        """True → left child, False → right, None → missing value."""
        if value is None:
            return None
        if self.kind is FeatureKind.NUMERIC:
            return value <= self.threshold
        return value == self.threshold

    def describe(self) -> str:
        op = "<=" if self.kind is FeatureKind.NUMERIC else "=="
        return f"{self.column} {op} {self.threshold!r}"


@dataclass
class Node:
    """One tree node; leaves carry a label, inner nodes a split."""

    label: object = None
    counts: dict[object, int] = field(default_factory=dict)
    split: Split | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    size: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass(frozen=True)
class TreeParams:
    """Learning hyper-parameters."""

    max_depth: int = 12
    min_samples_split: int = 4
    min_samples_leaf: int = 1
    min_gain: float = 1e-9


#: Valid values for the training-engine knob (mirrors the interpreter's).
ENGINES = ("fast", "reference")


class ClassificationTree:
    """A fitted classification tree.

    Two training engines produce bit-identical trees (same splits, same
    thresholds, same tie-breaks, same float gains):

    - ``"fast"`` (default) — the sweep-line builder over a shared
      presorted :class:`~repro.learning.matrix.TrainingMatrix`
      (:mod:`repro.learning.fasttree`);
    - ``"reference"`` — the original per-threshold rescan below, kept
      verbatim as the executable specification.

    Every learning layer above the tree trains with the fast builder;
    only the equivalence suite (``tests/test_learning_equivalence.py``,
    which holds the engines to bit-identity the same way the VM's
    engine-equivalence suite does) and the learning bench name the
    reference builder.
    """

    def __init__(self, params: TreeParams = TreeParams(), engine: str = "fast"):
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be 'fast' or 'reference', got {engine!r}"
            )
        self.params = params
        self.engine = engine
        self.root: Node | None = None
        self._dataset_columns: tuple[str, ...] = ()
        self._dataset: Dataset | None = None

    @property
    def fitted_columns(self) -> tuple[str, ...]:
        """The column order the tree's split indices refer to."""
        return self._dataset_columns

    # -- fitting -------------------------------------------------------------
    def fit(self, dataset: Dataset, matrix=None) -> "ClassificationTree":
        """Fit on all of *dataset*.

        *matrix* optionally supplies a presorted
        :class:`~repro.learning.matrix.TrainingMatrix` of the dataset's
        features (the shared-presort path); it is only consulted by the
        fast engine and must describe exactly *dataset*'s rows.
        """
        if len(dataset) == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        self._dataset = dataset
        self._dataset_columns = dataset.columns
        if self.engine == "reference":
            self.root = self._grow(list(dataset.rows), dataset, depth=0)
        else:
            from .fasttree import build_tree
            from .matrix import TrainingMatrix

            if matrix is None:
                matrix = TrainingMatrix.from_dataset(dataset)
            self.root = build_tree(matrix, dataset.labels(), self.params)
        return self

    def fit_indices(
        self, dataset: Dataset, indices: list[int], matrix=None
    ) -> "ClassificationTree":
        """Fit on a row subset of *dataset* (cross-validation folds).

        Equivalent to ``fit(dataset.subset(indices))`` but — on the fast
        engine — reuses one shared presorted *matrix* of the full dataset
        across every fold instead of re-sorting per fold.
        """
        if not indices:
            raise ValueError("cannot fit a tree on an empty dataset")
        self._dataset = dataset
        self._dataset_columns = dataset.columns
        if self.engine == "reference":
            rows = [dataset.rows[i] for i in indices]
            self.root = self._grow(rows, dataset, depth=0)
        else:
            from .fasttree import build_tree
            from .matrix import TrainingMatrix

            if matrix is None:
                matrix = TrainingMatrix.from_dataset(dataset)
            self.root = build_tree(
                matrix, dataset.labels(), self.params, indices=indices
            )
        return self

    def _grow(self, rows: list[Row], dataset: Dataset, depth: int) -> Node:
        counts: dict[object, int] = {}
        for row in rows:
            counts[row.label] = counts.get(row.label, 0) + 1
        label = max(counts.items(), key=lambda kv: (kv[1], repr(kv[0])))[0]
        node = Node(label=label, counts=counts, size=len(rows))
        params = self.params
        if (
            len(counts) <= 1
            or len(rows) < params.min_samples_split
            or depth >= params.max_depth
        ):
            return node
        split = self._best_split(rows, dataset)
        if split is None or split.gain < params.min_gain:
            return node
        left_rows, right_rows = self._partition(rows, split)
        if (
            len(left_rows) < params.min_samples_leaf
            or len(right_rows) < params.min_samples_leaf
        ):
            return node
        node.split = split
        node.left = self._grow(left_rows, dataset, depth + 1)
        node.right = self._grow(right_rows, dataset, depth + 1)
        return node

    @staticmethod
    def _partition(rows: list[Row], split: Split) -> tuple[list[Row], list[Row]]:
        left: list[Row] = []
        right: list[Row] = []
        pending: list[Row] = []
        for row in rows:
            side = split.goes_left(row.values[split.column_index])
            if side is None:
                pending.append(row)
            elif side:
                left.append(row)
            else:
                right.append(row)
        # Missing values follow the larger child.
        (left if len(left) >= len(right) else right).extend(pending)
        return left, right

    def _best_split(self, rows: list[Row], dataset: Dataset) -> Split | None:
        parent_counts: dict[object, int] = {}
        for row in rows:
            parent_counts[row.label] = parent_counts.get(row.label, 0) + 1
        parent_entropy = entropy(parent_counts)
        total = len(rows)
        best: Split | None = None
        for index, column in enumerate(dataset.columns):
            kind = dataset.kind_of(column)
            present = [
                (row.values[index], row.label)
                for row in rows
                if row.values[index] is not None
            ]
            if len(present) < 2:
                continue
            if kind is FeatureKind.NUMERIC:
                candidates = self._numeric_thresholds(present)
            else:
                candidates = sorted({value for value, _ in present}, key=repr)
            for threshold in candidates:
                left_counts: dict[object, int] = {}
                right_counts: dict[object, int] = {}
                for value, label in present:
                    if (
                        value <= threshold
                        if kind is FeatureKind.NUMERIC
                        else value == threshold
                    ):
                        left_counts[label] = left_counts.get(label, 0) + 1
                    else:
                        right_counts[label] = right_counts.get(label, 0) + 1
                n_left = sum(left_counts.values())
                n_right = sum(right_counts.values())
                if n_left == 0 or n_right == 0:
                    continue
                children = (
                    n_left / total * entropy(left_counts)
                    + n_right / total * entropy(right_counts)
                )
                gain = parent_entropy - children
                if best is None or gain > best.gain + 1e-12:
                    best = Split(
                        column=column,
                        column_index=index,
                        kind=kind,
                        threshold=threshold,
                        gain=gain,
                    )
        return best

    @staticmethod
    def _numeric_thresholds(present: list[tuple[object, object]]) -> list[float]:
        values = sorted({value for value, _ in present})
        return [
            (a + b) / 2.0 for a, b in zip(values, values[1:])
        ]

    # -- prediction ------------------------------------------------------------
    def predict_values(self, values: tuple) -> object:
        """Predict from values already aligned to the training columns."""
        if self.root is None:
            raise ValueError("tree is not fitted")
        node = self.root
        while not node.is_leaf:
            side = node.split.goes_left(values[node.split.column_index])
            if side is None:
                side = node.left.size >= node.right.size
            node = node.left if side else node.right
        return node.label

    def predict(self, vector: FeatureVector) -> object:
        """Predict the label for a feature vector (aligned by name)."""
        if self._dataset is None:
            raise ValueError("tree is not fitted")
        return self.predict_values(self._dataset.vector_values(vector))

    # -- introspection ---------------------------------------------------------
    def used_features(self) -> tuple[str, ...]:
        """Features actually appearing in splits — the selected features."""
        found: list[str] = []

        def visit(node: Node | None) -> None:
            if node is None or node.is_leaf:
                return
            if node.split.column not in found:
                found.append(node.split.column)
            visit(node.left)
            visit(node.right)

        visit(self.root)
        return tuple(found)

    def depth(self) -> int:
        def d(node: Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(d(node.left), d(node.right))

        return d(self.root)

    def node_count(self) -> int:
        def count(node: Node | None) -> int:
            if node is None:
                return 0
            return 1 + count(node.left) + count(node.right)

        return count(self.root)

    def render(self) -> str:
        """ASCII rendering, for interpretability (a paper selling point)."""
        if self.root is None:
            return "<unfitted>"
        lines: list[str] = []

        def walk(node: Node, depth: int, branch: str) -> None:
            pad = "  " * depth
            if node.is_leaf:
                lines.append(f"{pad}{branch}-> {node.label!r} {node.counts}")
                return
            lines.append(f"{pad}{branch}[{node.split.describe()}]")
            walk(node.left, depth + 1, "y ")
            walk(node.right, depth + 1, "n ")

        walk(self.root, 0, "")
        return "\n".join(lines)
