"""Tabular ingestion for binary classification experiments.

The input format is a UTF-8 comma-separated file with a single header row.
A small schema (JSON with keys ``target``, ``drop``, ``positive_label``)
names the label column, the columns to discard (identifiers, empty
columns), and the token that maps to class 1. Everything else is treated
as a numeric feature: cells that do not parse as finite numbers count as
missing and are imputed with the column median computed over the whole
table. Standardization statistics are fitted on the training split only
and applied unchanged elsewhere.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, ShapeError
from .rng import SplitMix64


@dataclass(frozen=True)
class DataSchema:
    """Column roles for one dataset file."""

    target: str
    drop: tuple[str, ...] = ()
    positive_label: str = "1"

    def __post_init__(self):
        object.__setattr__(self, "drop", tuple(self.drop))
        if self.target in self.drop:
            raise DataError(f"target column {self.target!r} is also listed in drop")


def load_schema(path) -> DataSchema:
    """Read a schema JSON file (keys: target, drop, positive_label)."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"schema file not found: {path}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are both ValueErrors.
        raise DataError(f"schema file {path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(raw, dict) or "target" not in raw:
        raise DataError(f"schema file {path} must be an object with a 'target' key")
    unknown = set(raw) - {"target", "drop", "positive_label"}
    if unknown:
        raise DataError(f"schema file {path} has unknown keys: {sorted(unknown)}")
    drop = raw.get("drop", [])
    if not isinstance(drop, list):
        raise DataError(f"schema file {path}: 'drop' must be a list of column names")
    return DataSchema(
        target=str(raw["target"]),
        drop=tuple(str(c) for c in drop),
        positive_label=str(raw.get("positive_label", "1")),
    )


@dataclass(frozen=True)
class RawTable:
    """Parsed but untyped CSV content: a header and a grid of strings."""

    header: list[str]
    cells: list[list[str]]

    @property
    def n_rows(self) -> int:
        return len(self.cells)


def load_csv(path, schema: DataSchema) -> RawTable:
    """Parse a CSV file and validate it against the schema.

    Every data row must have exactly as many cells as the header; the
    target and all drop columns must exist.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"data file {path} is not a readable UTF-8 CSV: {exc}") from None
    if not rows:
        raise DataError(f"data file {path} is empty")
    header = [h.strip() for h in rows[0]]
    cells = rows[1:]
    for i, row in enumerate(cells, start=1):
        if len(row) != len(header):
            raise DataError(
                f"row {i}: expected {len(header)} cells per the header, got {len(row)}"
            )
    if schema.target not in header:
        raise DataError(f"target column {schema.target!r} not found in header")
    for col in schema.drop:
        if col not in header:
            raise DataError(f"drop column {col!r} not found in header")
    return RawTable(header=header, cells=cells)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus binary labels, immutable after construction."""

    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        x = np.ascontiguousarray(np.asarray(self.x, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=np.float64)).reshape(-1)
        if x.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {x.shape}")
        if x.shape[0] < 1:
            raise DataError("dataset must contain at least one row")
        if y.shape[0] != x.shape[0]:
            raise ShapeError(f"{x.shape[0]} feature rows but {y.shape[0]} labels")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("labels must all be 0 or 1")
        if not np.all(np.isfinite(x)):
            raise DataError("features contain non-finite values after cleaning")
        if self.feature_names and len(self.feature_names) != x.shape[1]:
            raise ShapeError(
                f"{len(self.feature_names)} feature names for {x.shape[1]} columns"
            )
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


def _parse_cell(token: str) -> float:
    """Numeric value of one cell, or NaN when missing/unparseable."""
    token = token.strip()
    if not token:
        return math.nan
    try:
        value = float(token)
    except ValueError:
        return math.nan
    # Textual NaN/inf are non-values for our purposes, not measurements.
    return value if math.isfinite(value) else math.nan


def clean(raw: RawTable, schema: DataSchema) -> Dataset:
    """Turn a raw table into a numeric dataset.

    Drops the schema's identifier columns, parses features (whitespace
    tolerated, anything unparseable treated as missing), imputes missing
    cells with the column median over the full table, and maps the target
    column to {0, 1} via ``schema.positive_label``. The target column may
    contain at most two distinct tokens.
    """
    if raw.n_rows < 1:
        raise DataError("table has no data rows")
    dropped = set(schema.drop)
    target_idx = [i for i, h in enumerate(raw.header) if h == schema.target]
    if not target_idx:
        raise DataError(f"target column {schema.target!r} not found in header")
    if len(target_idx) > 1:
        raise DataError(f"target column {schema.target!r} appears more than once")
    target_col = target_idx[0]
    feature_cols = [
        i for i, h in enumerate(raw.header) if i != target_col and h not in dropped
    ]
    if not feature_cols:
        raise DataError("no feature columns remain after schema drops")

    x = np.empty((raw.n_rows, len(feature_cols)), dtype=np.float64)
    for r, row in enumerate(raw.cells):
        for j, c in enumerate(feature_cols):
            x[r, j] = _parse_cell(row[c])

    names = [raw.header[c] for c in feature_cols]
    missing = np.isnan(x)
    for j in np.nonzero(missing.any(axis=0))[0]:
        col = x[:, j]
        present = col[~np.isnan(col)]
        if present.size == 0:
            raise DataError(f"column {names[j]!r} has no usable values")
        # Two values near the float64 limit average to inf: a data error below.
        with np.errstate(over="ignore"):
            col[np.isnan(col)] = np.median(present)

    y = np.empty(raw.n_rows, dtype=np.float64)
    negative_token = None
    for r, row in enumerate(raw.cells, start=1):
        token = row[target_col].strip()
        if not token:
            raise DataError(f"row {r}: empty target cell")
        if token == schema.positive_label:
            y[r - 1] = 1.0
        elif negative_token is None or token == negative_token:
            negative_token = token
            y[r - 1] = 0.0
        else:
            raise DataError(
                f"row {r}: target token {token!r} (already saw {negative_token!r}; "
                f"positive label is {schema.positive_label!r})"
            )
    return Dataset(x=x, y=y, feature_names=names)


class Standardizer:
    """Per-feature z-scoring with statistics frozen at fit time.

    Create one with :func:`fit_standardizer` on the training split; there
    is no API that updates the statistics from later data, which is what
    keeps validation rows out of the normalization.
    """

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        std = np.asarray(std, dtype=np.float64).reshape(-1)
        if mean.shape != std.shape:
            raise ShapeError(f"mean shape {mean.shape} differs from std shape {std.shape}")
        if not np.all(std > 0):
            raise DataError("standard deviations must be positive")
        self.mean = mean
        self.std = std

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]


def fit_standardizer(train: Dataset) -> Standardizer:
    """Fit per-feature mean and standard deviation on the training split.

    Constant columns get a substitute deviation of 1 so they standardize
    to exactly zero.
    """
    mean = train.x.mean(axis=0)
    std = train.x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return Standardizer(mean, std)


def apply_standardizer(s: Standardizer, ds: Dataset) -> Dataset:
    """Apply fitted statistics to any dataset (never refits)."""
    if ds.n_features != s.n_features:
        raise ShapeError(
            f"standardizer was fitted on {s.n_features} features, dataset has {ds.n_features}"
        )
    z = (ds.x - s.mean) / s.std
    return Dataset(x=z, y=ds.y, feature_names=ds.feature_names)


def stratified_split(
    ds: Dataset, val_fraction: float, rng: SplitMix64
) -> tuple[Dataset, Dataset]:
    """Split into train and validation parts preserving class proportions.

    Each class is shuffled independently (class 0 consumes the stream
    first) and contributes round(count * val_fraction) rows to the
    validation part, which keeps both split ratios within one sample of
    the full-data ratio. Row indices within each part are re-sorted so the
    output order does not encode the class grouping.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    val_parts = []
    train_parts = []
    for cls in (0.0, 1.0):
        idx = np.nonzero(ds.y == cls)[0]
        if idx.size == 0:
            raise DataError(f"class {int(cls)} has zero samples; cannot stratify")
        shuffled = idx[rng.permutation(idx.size)]
        n_val = int(math.floor(idx.size * val_fraction + 0.5))
        val_parts.append(shuffled[:n_val])
        train_parts.append(shuffled[n_val:])
    val_idx = np.sort(np.concatenate(val_parts))
    train_idx = np.sort(np.concatenate(train_parts))
    if train_idx.size == 0 or val_idx.size == 0:
        raise DataError(
            f"val_fraction {val_fraction} leaves an empty split for "
            f"{ds.n_rows} rows; choose a less extreme fraction"
        )
    names = list(ds.feature_names)
    return (
        Dataset(x=ds.x[train_idx], y=ds.y[train_idx], feature_names=names),
        Dataset(x=ds.x[val_idx], y=ds.y[val_idx], feature_names=names),
    )
