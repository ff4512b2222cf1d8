"""Fisher discriminant: hand-solved system, invariances, optimality."""

import numpy as np
import pytest

from conftest import make_gaussians
from deeplda import (
    DataError,
    Dataset,
    LdaModel,
    NumericalError,
    ShapeError,
    fisher_ratio,
    fit_fisher,
    predict_lda,
)

# Hand-solved 2-D system: class 0 at {(0,0),(1,0),(0,1)}, class 1 at
# {(3,2),(4,2),(3,3)}. Scatter S_w = [[4/3,-2/3],[-2/3,4/3]], mean gap
# (3,2), so S_w w = (3,2) gives w = (4, 3.5); equal priors put the
# threshold at w . (mu0+mu1)/2 = 12.
HAND_X = np.array([
    [0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
    [3.0, 2.0], [4.0, 2.0], [3.0, 3.0],
])
HAND_Y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
HAND_MEANS = (HAND_X[:3].mean(axis=0), HAND_X[3:].mean(axis=0))


def _hand_dataset():
    return Dataset(x=HAND_X, y=HAND_Y, feature_names=("u", "v"))


class TestFitFisher:
    def test_hand_solved_direction_and_threshold(self):
        model = fit_fisher(_hand_dataset(), ridge=0.0)
        assert np.allclose(model.w, [4.0, 3.5], atol=1e-12)
        assert abs(model.b - 12.0) < 1e-12
        assert np.allclose(HAND_MEANS[0], [1 / 3, 1 / 3])
        assert np.allclose(HAND_MEANS[1], [10 / 3, 7 / 3])
        assert abs(model.w @ (HAND_MEANS[0] + HAND_MEANS[1]) / 2.0 - model.b) < 1e-12

    def test_hand_example_classifies_all_points(self):
        model = fit_fisher(_hand_dataset(), ridge=0.0)
        _, labels = predict_lda(model, HAND_X)
        assert labels.tolist() == [0, 0, 0, 1, 1, 1]

    @pytest.mark.parametrize("ridge", [-1e-6, float("nan"), float("inf")])
    def test_negative_or_non_finite_ridge_refused(self, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and >= 0"):
            fit_fisher(_hand_dataset(), ridge=ridge)

    def test_default_ridge_barely_moves_hand_solution(self):
        model = fit_fisher(_hand_dataset())
        assert np.allclose(model.w, [4.0, 3.5], atol=1e-5)

    def test_spherical_classes_align_with_mean_gap(self):
        ds = make_gaussians(4000, 3, 2.0, seed=10)
        model = fit_fisher(ds)
        gap = ds.x[ds.y == 1].mean(axis=0) - ds.x[ds.y == 0].mean(axis=0)
        cos = model.w @ gap / (np.linalg.norm(model.w) * np.linalg.norm(gap))
        assert cos > np.cos(np.radians(1.0))

    def test_equal_means_defaults_to_majority_prior(self):
        g = np.random.default_rng(11)
        x = g.normal(0, 1, (300, 4))
        y = np.concatenate([np.zeros(200), np.ones(100)])
        ds = Dataset(x=x, y=y)
        model = fit_fisher(ds)
        _, labels = predict_lda(model, ds.x)
        acc = float(np.mean(labels == y))
        assert abs(acc - 2 / 3) < 0.1

    def test_single_class_rejected(self):
        ds = Dataset(x=np.arange(6.0).reshape(3, 2), y=np.ones(3))
        with pytest.raises(DataError):
            fit_fisher(ds)


class TestPredictLda:
    def test_midpoint_scores_zero_and_ties_positive(self):
        model = fit_fisher(_hand_dataset(), ridge=0.0)
        mid = (HAND_MEANS[0] + HAND_MEANS[1]) / 2.0
        scores, labels = predict_lda(model, mid.reshape(1, -1))
        assert abs(scores[0]) < 1e-12
        assert labels[0] == 1

    def test_width_mismatch(self):
        model = fit_fisher(_hand_dataset())
        with pytest.raises(ShapeError):
            predict_lda(model, np.ones((2, 3)))

    def test_feature_scaling_with_refit_keeps_labels(self):
        ds = make_gaussians(300, 4, 1.5, seed=12)
        scale = np.array([10.0, 0.1, 3.0, 0.5])
        scaled = Dataset(x=ds.x * scale, y=ds.y, feature_names=ds.feature_names)
        base = fit_fisher(ds, ridge=0.0)
        refit = fit_fisher(scaled, ridge=0.0)
        _, labels_base = predict_lda(base, ds.x)
        _, labels_refit = predict_lda(refit, scaled.x)
        assert np.array_equal(labels_base, labels_refit)

    def test_translation_refit_keeps_labels(self):
        ds = make_gaussians(250, 3, 1.5, seed=13)
        shift = np.array([100.0, -40.0, 7.0])
        moved = Dataset(x=ds.x + shift, y=ds.y, feature_names=ds.feature_names)
        _, labels_base = predict_lda(fit_fisher(ds), ds.x)
        _, labels_moved = predict_lda(fit_fisher(moved), moved.x)
        assert np.array_equal(labels_base, labels_moved)


class TestFisherOptimality:
    def test_fitted_direction_beats_random_directions(self):
        g = np.random.default_rng(14)
        for trial in range(3):
            ds = make_gaussians(60, 4, 1.0, seed=100 + trial)
            model = fit_fisher(ds)
            fitted = fisher_ratio(model.w, ds)
            randoms = g.normal(size=(1000, 4))
            assert all(fisher_ratio(r, ds) <= fitted * (1 + 1e-9) for r in randoms)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_ratio_of_one_class_is_a_data_error(self, label):
        # The mean of the empty class once warned and gave nan or inf.
        ds = Dataset(x=HAND_X, y=np.full(6, label))
        with pytest.raises(DataError, match="both classes required"):
            fisher_ratio(np.ones(2), ds)

    @pytest.mark.parametrize("w", [np.ones(3), np.ones(1), np.ones((2, 2))])
    def test_ratio_of_a_direction_of_another_width_is_a_shape_error(self, w):
        with pytest.raises(ShapeError, match=r"dataset expects \(2,\)"):
            fisher_ratio(w, _hand_dataset())


class TestLdaModel:
    def test_non_finite_model_rejected(self):
        with pytest.raises(NumericalError):
            LdaModel(w=np.array([np.inf, 1.0]), b=0.0)
        with pytest.raises(NumericalError):
            LdaModel(w=np.ones(2), b=np.nan)
