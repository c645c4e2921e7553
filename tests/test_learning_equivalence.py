"""Engine-equivalence suite for the learning layer.

The fast trainer (shared presort + sweep-line split search) must be
**bit-identical** to the reference builder: same splits, same thresholds,
same tie-breaks, same float gains, same missing-value routing — over a
fixed corpus of edge-case datasets and ≥50 seeded random datasets with
mixed numeric/categorical/missing features.
This is the learning-layer counterpart of the VM's
``test_engine_equivalence.py``.
"""

from random import Random

import pytest

from repro.learning import (
    ClassificationTree,
    Dataset,
    TrainingMatrix,
    TreeParams,
    cross_validated_accuracy,
    kfold_indices,
)
from repro.xicl import FeatureVector

N_RANDOM_DATASETS = 50

DEEP = TreeParams(max_depth=40, min_samples_split=2, min_samples_leaf=1)


def vec(items):
    v = FeatureVector()
    for name, value in items:
        v.append_value(name, value)
    return v


def kv(**features):
    return vec(list(features.items()))


def random_pairs(seed: int, n: int = 90):
    """Mixed numeric/categorical features, ~7% missing per feature,
    labels correlated with the features plus noise."""
    rng = Random(seed)
    cats = ["red", "green", "blue", "odd one"]
    pairs = []
    for _ in range(n):
        items = []
        if rng.random() > 0.07:
            items.append(("n_int", rng.randint(0, 12)))
        if rng.random() > 0.07:
            items.append(("n_float", rng.uniform(-4.0, 4.0)))
        if rng.random() > 0.07:
            items.append(("cat", rng.choice(cats)))
        if rng.random() > 0.07:
            items.append(("n_dup", rng.choice([1, 1, 2, 3, 3])))
        signal = sum(1 for name, value in items if name == "n_int" and value > 6)
        label = ["a", "b", "c"][(signal + rng.randint(0, 2)) % 3]
        pairs.append((vec(items), label))
    return pairs


def random_dataset(seed: int, n: int = 90) -> Dataset:
    return Dataset.from_pairs(random_pairs(seed, n))


def assert_nodes_identical(a, b, path="root"):
    """Recursive structural equality, including bitwise-equal gains."""
    assert (a is None) == (b is None), path
    if a is None:
        return
    assert a.label == b.label, f"{path}: label"
    assert a.counts == b.counts, f"{path}: counts"
    assert a.size == b.size, f"{path}: size"
    assert (a.split is None) == (b.split is None), f"{path}: leafness"
    if a.split is not None:
        assert a.split.column == b.split.column, f"{path}: split column"
        assert a.split.column_index == b.split.column_index, path
        assert a.split.kind == b.split.kind, f"{path}: split kind"
        assert a.split.threshold == b.split.threshold, f"{path}: threshold"
        assert a.split.gain == b.split.gain, (
            f"{path}: gain not bitwise equal "
            f"({a.split.gain!r} != {b.split.gain!r})"
        )
    assert_nodes_identical(a.left, b.left, path + "/y")
    assert_nodes_identical(a.right, b.right, path + "/n")


def fit_both(dataset, params=DEEP):
    ref = ClassificationTree(params, engine="reference").fit(dataset)
    fast = ClassificationTree(params, engine="fast").fit(dataset)
    return ref, fast


# -- corpus: hand-picked edge cases -----------------------------------------

def corpus_datasets():
    # Pure numeric signal.
    grid = Dataset()
    for x in range(11):
        for y in range(3):
            grid.add(kv(x=x, y=y), "low" if x <= 5 else "high")
    yield "grid", grid

    # Categorical only.
    colors = Dataset()
    for color, label in [("red", 1), ("red", 1), ("blue", 2), ("green", 2)]:
        for _ in range(3):
            colors.add(kv(color=color), label)
    yield "colors", colors

    # Single row / pure labels.
    pure = Dataset()
    for x in range(10):
        pure.add(kv(x=x), "only")
    yield "pure", pure

    # Tie-break stress: two features carrying identical signal — the
    # first column must win in both engines.
    ties = Dataset()
    for x in range(12):
        ties.add(kv(a=x, b=x), "lo" if x < 6 else "hi")
    yield "ties", ties

    # Duplicated values (groups larger than one) + missing values.
    dups = Dataset()
    rng = Random(7)
    for i in range(60):
        items = []
        if i % 9 != 0:
            items.append(("v", rng.choice([1, 1, 1, 2, 5, 5])))
        items.append(("c", rng.choice(["p", "q"])))
        dups.add(vec(items), "x" if i % 3 else "y")
    yield "dups-missing", dups

    # Adjacent floats: midpoint (a+b)/2 can round onto b.
    close = Dataset()
    a = 1.0
    b = float.fromhex("0x1.0000000000001p+0")  # next float up from 1.0
    for i in range(8):
        close.add(kv(v=a if i % 2 else b), "s" if i % 2 else "t")
    for i in range(8):
        close.add(kv(v=2.0 + i), "s" if i < 4 else "t")
    yield "adjacent-floats", close

    # Mixed-kind wide dataset with label noise.
    noisy = Dataset()
    rng = Random(13)
    for _ in range(100):
        noisy.add(
            kv(
                x=rng.uniform(0, 100),
                n=rng.uniform(0, 100),
                c=rng.choice(["u", "v", "w"]),
            ),
            ("low" if rng.random() < 0.12 else "high")
            if rng.random() < 0.5
            else "low",
        )
    yield "noisy", noisy


@pytest.mark.parametrize(
    "name,dataset", list(corpus_datasets()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_corpus_bit_identical(name, dataset):
    ref, fast = fit_both(dataset)
    assert_nodes_identical(ref.root, fast.root)
    assert ref.render() == fast.render()
    assert ref.used_features() == fast.used_features()


# -- seeded random datasets --------------------------------------------------

@pytest.mark.parametrize("seed", range(N_RANDOM_DATASETS))
def test_random_datasets_bit_identical(seed):
    dataset = random_dataset(seed)
    ref, fast = fit_both(dataset)
    assert_nodes_identical(ref.root, fast.root)

    # Missing-value routing at prediction time: identical answers,
    # including vectors with absent features.
    rng = Random(seed + 10_000)
    for _ in range(25):
        items = []
        if rng.random() > 0.4:
            items.append(("n_int", rng.randint(-2, 14)))
        if rng.random() > 0.4:
            items.append(("n_float", rng.uniform(-6.0, 6.0)))
        if rng.random() > 0.4:
            items.append(("cat", rng.choice(["red", "blue", "nope"])))
        query = vec(items)
        assert ref.predict(query) == fast.predict(query)


@pytest.mark.parametrize("seed", range(0, N_RANDOM_DATASETS, 5))
def test_random_datasets_default_params_identical(seed):
    # The production hyper-parameters (depth cap, split minima) hit the
    # early-stop paths; they must agree too.
    ref, fast = fit_both(random_dataset(seed), TreeParams())
    assert_nodes_identical(ref.root, fast.root)


@pytest.mark.parametrize("seed", range(0, N_RANDOM_DATASETS, 5))
def test_fold_subset_fits_identical(seed):
    """fit_indices over a shared full-dataset matrix == subset fits."""
    dataset = random_dataset(seed)
    n = len(dataset)
    matrix = TrainingMatrix.from_dataset(dataset)
    for offset in range(3):
        indices = [i for i in range(n) if i % 3 != offset]
        ref = ClassificationTree(DEEP, engine="reference").fit_indices(
            dataset, indices
        )
        fast = ClassificationTree(DEEP, engine="fast").fit_indices(
            dataset, indices, matrix=matrix
        )
        assert_nodes_identical(ref.root, fast.root)
        # And against the pre-existing subset-dataset path.
        subset = ClassificationTree(DEEP, engine="reference").fit(
            dataset.subset(indices)
        )
        assert subset.render() == fast.render()


@pytest.mark.parametrize("seed", range(0, N_RANDOM_DATASETS, 10))
def test_cross_validation_identical(seed):
    """cross_validated_accuracy (fast builder, one shared presort) scores
    exactly what the reference builder scores on the same folds."""
    dataset = random_dataset(seed)
    n = len(dataset)
    correct = counted = 0
    for fold in kfold_indices(n, 5):
        held = set(fold)
        train = [i for i in range(n) if i not in held]
        tree = ClassificationTree(DEEP, engine="reference").fit_indices(
            dataset, train
        )
        for i in fold:
            row = dataset.rows[i]
            correct += tree.predict_values(row.values) == row.label
            counted += 1
    assert cross_validated_accuracy(dataset, DEEP) == correct / counted
