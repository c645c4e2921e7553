"""Unit tests for cross-validation and the incremental classifier."""

import pytest

from repro.learning import (
    IncrementalClassifier,
    cross_validated_accuracy,
    kfold_indices,
)
from repro.learning.dataset import Dataset
from repro.xicl import FeatureVector


def vec(**features):
    v = FeatureVector()
    for name, value in features.items():
        v.append_value(name, value)
    return v


def signal_dataset(n=40):
    ds = Dataset()
    for i in range(n):
        ds.add(vec(x=i), "a" if i < n // 2 else "b")
    return ds


class TestKFold:
    def test_folds_partition_everything(self):
        folds = kfold_indices(23, 5, seed=1)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(23))

    def test_folds_roughly_even(self):
        folds = kfold_indices(20, 4, seed=0)
        assert all(len(fold) == 5 for fold in folds)

    def test_k_clamped_to_n(self):
        folds = kfold_indices(3, 10, seed=0)
        assert len(folds) == 3

    def test_deterministic_given_seed(self):
        assert kfold_indices(10, 3, seed=7) == kfold_indices(10, 3, seed=7)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            kfold_indices(0, 3)


class TestCrossValidation:
    def test_strong_signal_scores_high(self):
        assert cross_validated_accuracy(signal_dataset()) > 0.85

    def test_pure_noise_scores_low(self):
        ds = Dataset()
        for i in range(30):
            ds.add(vec(x=i % 3), "a" if i % 2 else "b")
        assert cross_validated_accuracy(ds) < 0.8

    def test_single_row_returns_zero(self):
        ds = Dataset()
        ds.add(vec(x=1), "a")
        assert cross_validated_accuracy(ds) == 0.0

    def test_two_rows_leave_one_out(self):
        ds = Dataset()
        ds.add(vec(x=1), "a")
        ds.add(vec(x=9), "b")
        score = cross_validated_accuracy(ds)
        assert 0.0 <= score <= 1.0


class TestIncrementalClassifier:
    def test_no_prediction_before_min_rows(self):
        model = IncrementalClassifier(min_rows=3)
        model.observe(vec(x=1), "a")
        model.refit()
        assert model.predict(vec(x=1)) is None
        assert model.render() == "<insufficient history>"

    def test_predicts_after_enough_history(self):
        model = IncrementalClassifier()
        for i in range(10):
            model.observe(vec(x=i), "low" if i < 5 else "high")
        model.refit()
        assert model.predict(vec(x=0)) == "low"
        assert model.predict(vec(x=9)) == "high"

    def test_refit_picks_up_new_data(self):
        model = IncrementalClassifier()
        for i in range(10):
            model.observe(vec(x=i), "low")
        model.refit()
        assert model.predict(vec(x=100)) == "low"
        # New regime: all subsequent high x values flip the label.
        for i in range(100, 140, 4):
            model.observe(vec(x=i), "high")
        model.refit()
        assert model.predict(vec(x=120)) == "high"

    def test_observation_count(self):
        model = IncrementalClassifier()
        for i in range(7):
            model.observe(vec(x=i), "a")
        assert model.n_observations == 7

    def test_used_features_empty_before_fit(self):
        assert IncrementalClassifier().used_features() == ()

    def test_cv_accuracy_delegates(self):
        model = IncrementalClassifier()
        for i in range(20):
            model.observe(vec(x=i), "a" if i < 10 else "b")
        assert model.cv_accuracy() > 0.8

    def test_predict_never_fits(self):
        """Regression: prediction is the startup hot path — it must never
        pay training cost, not even when the model is stale or unfitted."""
        model = IncrementalClassifier()
        for i in range(10):
            model.observe(vec(x=i), "low" if i < 5 else "high")
        # Unfitted + stale: predict declines rather than training.
        assert model.predict(vec(x=0)) is None
        assert model.fit_count == 0
        model.refit()
        assert model.fit_count == 1
        # Stale again: predict serves the last fitted tree, still no fit.
        model.observe(vec(x=100), "high")
        assert model.stale
        assert model.predict(vec(x=0)) == "low"
        assert model.used_features() == ("x",)
        assert "x <=" in model.render()
        assert model.fit_count == 1

    def test_refit_below_min_rows_keeps_previous_tree(self):
        model = IncrementalClassifier(min_rows=2)
        model.observe(vec(x=1), "a")
        model.observe(vec(x=9), "b")
        model.refit()
        assert model.is_fitted
        tree_before = model.tree
        model.dataset._rows.clear()  # simulate history reset
        model.refit()
        assert model.tree is tree_before
