"""Classical two-class Fisher linear discriminant baseline.

The discriminant direction solves (S_w + ridge I) w = mu1 - mu0, where
S_w is the within-class scatter (sum of squared deviations, not the
pooled covariance). The threshold is the class-mean midpoint projected
onto w, shifted by a prior term scaled to match the pooled-covariance
Gaussian rule under the scatter parameterization: because S_w is about
(n - 2) times the pooled covariance, the textbook ln(prior ratio) shift
is divided by max(n - 2, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .exceptions import DataError, NumericalError, ShapeError


@dataclass(frozen=True, eq=False)
class LdaModel:
    """Fitted discriminant: direction w and threshold b."""

    w: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.float64).reshape(-1))
        object.__setattr__(self, "b", float(self.b))
        if not np.isfinite(self.w).all() or not np.isfinite(self.b):
            raise NumericalError("discriminant contains non-finite values")

    @property
    def n_features(self) -> int:
        return self.w.shape[0]


def fit_fisher(train: Dataset, ridge: float = 1e-6) -> LdaModel:
    """Fit Fisher LDA on a binary dataset.

    Priors come from training frequencies. Requires both classes present.
    """
    if not 0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    mask1 = train.y == 1.0
    x0 = train.x[~mask1]
    x1 = train.x[mask1]
    if x0.shape[0] == 0 or x1.shape[0] == 0:
        raise DataError(
            f"both classes required: got {x0.shape[0]} negative and {x1.shape[0]} positive rows"
        )
    mu0 = x0.mean(axis=0)
    mu1 = x1.mean(axis=0)
    d0 = x0 - mu0
    d1 = x1 - mu1
    scatter = d0.T @ d0 + d1.T @ d1
    n = train.n_rows
    try:
        w = np.linalg.solve(scatter + ridge * np.eye(train.n_features), mu1 - mu0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"within-class scatter solve failed: {exc}") from None
    if not np.isfinite(w).all():
        raise NumericalError("within-class scatter solve produced non-finite direction")
    prior0 = x0.shape[0] / n
    prior1 = x1.shape[0] / n
    b = float(w @ (mu0 + mu1) / 2.0) - np.log(prior1 / prior0) / max(n - 2, 1)
    return LdaModel(w=w, b=b)


def predict_lda(model: LdaModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores w.x - b and labels (score >= 0 is the positive class)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ShapeError(f"input has shape {x.shape}, model expects (n, {model.n_features})")
    scores = x @ model.w - model.b
    labels = (scores >= 0.0).astype(np.int64)
    return scores, labels


def fisher_ratio(w: np.ndarray, ds: Dataset) -> float:
    """Fisher criterion of the projection onto w.

    Squared gap between projected class means over the summed
    within-class scatter of the projections. A ``w`` of another width than
    the features raises :class:`ShapeError`, and a dataset without both
    classes :class:`DataError`.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape != (ds.n_features,):
        raise ShapeError(f"direction has shape {w.shape}, dataset expects ({ds.n_features},)")
    proj = ds.x @ w
    p0 = proj[ds.y == 0.0]
    p1 = proj[ds.y == 1.0]
    if p0.size == 0 or p1.size == 0:
        raise DataError(
            f"both classes required: got {p0.size} negative and {p1.size} positive rows"
        )
    between = (p0.mean() - p1.mean()) ** 2
    within = float(np.sum((p0 - p0.mean()) ** 2) + np.sum((p1 - p1.mean()) ** 2))
    if within == 0.0:
        return np.inf if between > 0 else 0.0
    return between / within
