"""Confusion-matrix metrics and training-curve bookkeeping.

The positive class is label 1 throughout. Metrics with a degenerate
denominator (no predicted positives, no actual positives, precision and
recall both zero) return 0.0 and emit a :class:`DegenerateMetricWarning`
instead of producing NaN, so reports stay total.

Training curves serialize to a CSV with the fixed header
``Epochs,accuracy,loss,val_accuracy,val_loss`` and floats printed with six
significant digits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class DegenerateMetricWarning(UserWarning):
    """A metric denominator was zero; the metric was reported as 0.0."""


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name, value in (("tp", self.tp), ("fp", self.fp), ("fn", self.fn), ("tn", self.tn)):
            if int(value) != value or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def _as_binary_vector(name: str, values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    arr = arr.astype(np.float64)
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def confusion(pred_labels, true_labels) -> ConfusionMatrix:
    """Count the 2x2 contingency of predictions against truth."""
    pred = _as_binary_vector("pred_labels", pred_labels)
    true = _as_binary_vector("true_labels", true_labels)
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.shape[0]} predictions, {true.shape[0]} labels")
    if pred.shape[0] < 1:
        raise ValueError("need at least one sample")
    return ConfusionMatrix(
        tp=int(np.sum((pred == 1) & (true == 1))),
        fp=int(np.sum((pred == 1) & (true == 0))),
        fn=int(np.sum((pred == 0) & (true == 1))),
        tn=int(np.sum((pred == 0) & (true == 0))),
    )


def _ratio(numerator: int, denominator: int, what: str) -> float:
    if denominator == 0:
        warnings.warn(f"{what} undefined (zero denominator); reporting 0.0",
                      DegenerateMetricWarning, stacklevel=3)
        return 0.0
    return numerator / denominator


def accuracy(cm: ConfusionMatrix) -> float:
    return _ratio(cm.tp + cm.tn, cm.total, "accuracy")


def precision(cm: ConfusionMatrix) -> float:
    return _ratio(cm.tp, cm.tp + cm.fp, "precision")


def recall(cm: ConfusionMatrix) -> float:
    return _ratio(cm.tp, cm.tp + cm.fn, "recall")


def _f_from(p: float, r: float) -> float:
    if p + r == 0.0:
        warnings.warn("f_score undefined (precision + recall is zero); reporting 0.0",
                      DegenerateMetricWarning, stacklevel=3)
        return 0.0
    return 2.0 * p * r / (p + r)


def f_score(cm: ConfusionMatrix) -> float:
    return _f_from(precision(cm), recall(cm))


def report_dict(cm: ConfusionMatrix) -> dict:
    """Machine-readable report: counts plus the four headline metrics.
    Each degenerate metric warns once."""
    acc, p, r = accuracy(cm), precision(cm), recall(cm)
    return {
        "tp": cm.tp,
        "fp": cm.fp,
        "fn": cm.fn,
        "tn": cm.tn,
        "total": cm.total,
        "accuracy": acc,
        "precision": p,
        "recall": r,
        "f_score": _f_from(p, r),
    }


def format_report(cm: ConfusionMatrix) -> str:
    """Aligned plain-text report with the 2x2 matrix and the four metrics."""
    m = report_dict(cm)
    width = max(6, len(str(cm.total)))
    lines = [
        "confusion matrix (positive class = 1)",
        f"            {'pred=1':>{width}}  {'pred=0':>{width}}",
        f"  actual=1  {cm.tp:>{width}}  {cm.fn:>{width}}",
        f"  actual=0  {cm.fp:>{width}}  {cm.tn:>{width}}",
        "",
    ] + [f"{name:<9}  {m[name]:.6f}" for name in ("accuracy", "precision", "recall", "f_score")]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of training curves: accuracies in [0, 1], losses >= 0."""

    epoch: int
    accuracy: float
    loss: float
    val_accuracy: float
    val_loss: float

    def __post_init__(self):
        if self.epoch < 1:
            raise ValueError(f"epoch indices start at 1, got {self.epoch}")
        for name in ("accuracy", "val_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("loss", "val_loss"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass
class TrainingHistory:
    """Per-epoch records with contiguous epoch indices 1..E, and the last
    validation pass's probabilities (set by ``fit``, None before)."""

    records: list[EpochRecord] = field(default_factory=list)
    val_probs: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for i, rec in enumerate(self.records, start=1):
            if rec.epoch != i:
                raise ValueError(f"epoch indices must be 1..E contiguous; index {i} holds {rec.epoch}")

    def append(self, record: EpochRecord) -> None:
        if record.epoch != len(self.records) + 1:
            raise ValueError(
                f"expected epoch {len(self.records) + 1} next, got {record.epoch}"
            )
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]


CURVE_HEADER = ("Epochs", "accuracy", "loss", "val_accuracy", "val_loss")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def history_to_csv(history: TrainingHistory, path) -> None:
    """Write curves in the fixed column order, newline-terminated."""
    if len(history) == 0:
        raise ValueError("refusing to write an empty history")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CURVE_HEADER) + "\n")
        for r in history:
            fh.write(
                f"{r.epoch},{_fmt(r.accuracy)},{_fmt(r.loss)},"
                f"{_fmt(r.val_accuracy)},{_fmt(r.val_loss)}\n"
            )
