"""Unit tests for the classification tree and dataset."""

import pytest

from repro.learning import (
    ClassificationTree,
    Dataset,
    TreeParams,
    entropy,
)
from repro.xicl import FeatureKind, FeatureVector


def vec(**features):
    v = FeatureVector()
    for name, value in features.items():
        v.append_value(name, value)
    return v


def grid_dataset():
    """Labels decided by x <= 5 over a numeric grid (pure signal)."""
    ds = Dataset()
    for x in range(11):
        for y in range(3):
            ds.add(vec(x=x, y=y), "low" if x <= 5 else "high")
    return ds


class TestEntropy:
    def test_pure_distribution_zero(self):
        assert entropy({"a": 10}) == 0.0

    def test_uniform_binary_is_one_bit(self):
        assert entropy({"a": 5, "b": 5}) == pytest.approx(1.0)

    def test_empty_distribution(self):
        assert entropy({}) == 0.0

    def test_skew_less_than_uniform(self):
        assert entropy({"a": 9, "b": 1}) < entropy({"a": 5, "b": 5})


class TestDataset:
    def test_columns_align_by_name(self):
        ds = Dataset()
        ds.add(vec(a=1, b=2), "x")
        ds.add(vec(b=5, a=4), "y")
        assert ds.columns == ("a", "b")
        assert ds.rows[1].values == (4, 5)

    def test_new_columns_widen_old_rows_with_none(self):
        ds = Dataset()
        ds.add(vec(a=1), "x")
        ds.add(vec(a=2, b=3), "y")
        assert ds.rows[0].values == (1, None)

    def test_missing_features_are_none(self):
        ds = Dataset()
        ds.add(vec(a=1, b=2), "x")
        ds.add(vec(a=3), "y")
        assert ds.rows[1].values == (3, None)

    def test_label_counts_and_majority(self):
        ds = Dataset()
        for label in ("a", "b", "a"):
            ds.add(vec(x=1), label)
        assert ds.label_counts() == {"a": 2, "b": 1}
        assert ds.majority_label() == "a"

    def test_majority_of_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset().majority_label()

    def test_subset_shares_columns(self):
        ds = grid_dataset()
        sub = ds.subset([0, 5, 10])
        assert sub.columns == ds.columns
        assert len(sub) == 3

    def test_kind_recorded(self):
        ds = Dataset()
        v = FeatureVector()
        v.append_value("num", 3)
        v.append_value("cat", "red")
        ds.add(v, "x")
        assert ds.kind_of("num") is FeatureKind.NUMERIC
        assert ds.kind_of("cat") is FeatureKind.CATEGORICAL


class TestTreeFitting:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            ClassificationTree().fit(Dataset())

    def test_learns_numeric_threshold(self):
        tree = ClassificationTree().fit(grid_dataset())
        assert tree.predict(vec(x=2, y=0)) == "low"
        assert tree.predict(vec(x=9, y=1)) == "high"
        assert tree.used_features() == ("x",)

    def test_learns_categorical_split(self):
        ds = Dataset()
        for color, label in [("red", 1), ("red", 1), ("blue", 2), ("green", 2)]:
            for _ in range(3):
                ds.add(vec(color=color), label)
        tree = ClassificationTree().fit(ds)
        assert tree.predict(vec(color="red")) == 1
        assert tree.predict(vec(color="blue")) == 2

    def test_irrelevant_features_excluded(self):
        # y carries no signal; automatic feature selection must drop it.
        tree = ClassificationTree().fit(grid_dataset())
        assert "y" not in tree.used_features()

    def test_pure_dataset_yields_leaf(self):
        ds = Dataset()
        for x in range(10):
            ds.add(vec(x=x), "only")
        tree = ClassificationTree().fit(ds)
        assert tree.root.is_leaf
        assert tree.depth() == 0

    def test_max_depth_respected(self):
        params = TreeParams(max_depth=1)
        ds = Dataset()
        # Requires depth 2 to separate fully (xor-ish pattern).
        for x in range(8):
            for y in range(8):
                ds.add(vec(x=x, y=y), (x <= 3) ^ (y <= 3))
        tree = ClassificationTree(params).fit(ds)
        assert tree.depth() <= 1

    def test_min_samples_split_respected(self):
        ds = grid_dataset()
        tree = ClassificationTree(TreeParams(min_samples_split=1000)).fit(ds)
        assert tree.root.is_leaf

    def test_missing_value_routes_to_larger_child(self):
        tree = ClassificationTree().fit(grid_dataset())
        # 18 'high' rows vs 15 'low' rows (x in 6..10 vs 0..5): predict must
        # not crash and must return one of the labels.
        assert tree.predict(vec(y=1)) in ("low", "high")

    def test_deterministic_fit(self):
        t1 = ClassificationTree().fit(grid_dataset())
        t2 = ClassificationTree().fit(grid_dataset())
        assert t1.render() == t2.render()

    def test_node_count_consistent_with_depth(self):
        tree = ClassificationTree().fit(grid_dataset())
        assert tree.node_count() >= 2 * tree.depth() + 1

    def test_render_mentions_split_feature(self):
        tree = ClassificationTree().fit(grid_dataset())
        assert "x <=" in tree.render()

    def test_unfitted_predict_rejected(self):
        with pytest.raises(ValueError):
            ClassificationTree().predict(vec(x=1))

    def test_engine_knob_validated(self):
        for engine in ("turbo", "auto"):
            with pytest.raises(ValueError):
                ClassificationTree(engine=engine)
