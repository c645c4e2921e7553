"""Cross-validation utilities for model-quality estimation.

The paper's discriminative predictor measures model quality through
cross-validation; these helpers provide deterministic k-fold (and
leave-one-out for small histories) accuracy estimates.
"""

from __future__ import annotations

from random import Random

from .dataset import Dataset
from .matrix import TrainingMatrix
from .tree import ClassificationTree, TreeParams


def kfold_indices(n: int, k: int, seed: int = 0) -> list[list[int]]:
    """Deterministically shuffle ``range(n)`` into *k* folds (possibly
    uneven; never empty as long as ``n >= k``)."""
    if n <= 0:
        raise ValueError("need at least one row")
    k = max(2, min(k, n))
    indices = list(range(n))
    Random(seed).shuffle(indices)
    folds: list[list[int]] = [[] for _ in range(k)]
    for position, index in enumerate(indices):
        folds[position % k].append(index)
    return folds


def cross_validated_accuracy(
    dataset: Dataset,
    params: TreeParams = TreeParams(),
    k: int = 5,
    seed: int = 0,
) -> float:
    """Mean held-out accuracy of trees fit on k−1 folds.

    Falls back to leave-one-out when the dataset is smaller than *k*.
    Returns 0.0 for datasets too small to validate at all (a single row),
    keeping early-history confidence conservative.

    Every fold fit reuses **one** shared presorted
    :class:`~repro.learning.matrix.TrainingMatrix` of the full dataset
    (fold trees are bit-identical to fitting on a per-fold subset with
    the reference builder, so the scores are too).
    """
    n = len(dataset)
    if n < 2:
        return 0.0
    matrix = TrainingMatrix.from_dataset(dataset)
    folds = kfold_indices(n, k, seed=seed)
    correct = 0
    counted = 0
    for fold in folds:
        if not fold:
            continue
        held = set(fold)
        train_idx = [i for i in range(n) if i not in held]
        if not train_idx:
            continue
        tree = ClassificationTree(params).fit_indices(
            dataset, train_idx, matrix=matrix
        )
        for i in fold:
            row = dataset.rows[i]
            # Project the row onto the training column order (identical
            # columns; fit_indices shares them).
            if tree.predict_values(row.values) == row.label:
                correct += 1
            counted += 1
    if counted == 0:
        return 0.0
    return correct / counted
