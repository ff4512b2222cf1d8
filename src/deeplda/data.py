"""Tabular ingestion for binary classification experiments.

The input format is a UTF-8 comma-separated file with a single header row.
A small schema (JSON with keys ``target``, ``drop``, ``positive_label``)
names the label column, the columns to discard (identifiers, empty
columns), and the token that maps to class 1. Everything else is treated
as a numeric feature: cells that do not parse as finite numbers count as
missing. :func:`load_split` and :func:`read_blocks` parse a file row by row
into flat float64 buffers, never holding it as strings. :func:`load_split`
fits the column medians that fill missing cells, and the standardizer, on
the training rows only, as one :class:`Standardizer`; :func:`read_blocks`
fills and standardizes a scored file with it by the same code, a block at a
time. :func:`clean` fills a table that :func:`load_csv` holds as strings
with the table's own medians.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter

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


def read_json(path, what: str):
    """The document in JSON file ``path``; one that is missing, not UTF-8, not
    JSON or nested too deeply raises :class:`DataError` naming ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are both ValueErrors.
        raise DataError(f"{what} {path} is not valid UTF-8 JSON: {exc}") from None


def write_json(doc, path) -> None:
    """Write ``doc`` as strict JSON: sorted keys, indented, newline-terminated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def load_schema(path) -> DataSchema:
    """Read a schema JSON file (keys: target, drop, positive_label)."""
    raw = read_json(path, "schema file")
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


@contextmanager
def _csv_rows(path):
    """The stripped header of a CSV file and a reader of its other rows, which
    the ``with`` block consumes; a file that is missing, empty or not a
    readable UTF-8 CSV raises :class:`DataError`, also while its rows are read."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise DataError(f"data file {path} is empty")
            yield [h.strip() for h in header], rows
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"data file {path} is not a readable UTF-8 CSV: {exc}") from None


def _columns(header: list[str], schema: DataSchema) -> tuple[int, list[int]]:
    """The target column's index and the feature columns' indices."""
    if schema.target not in header:
        raise DataError(f"target column {schema.target!r} not found in header")
    for col in schema.drop:
        if col not in header:
            raise DataError(f"drop column {col!r} not found in header")
    if header.count(schema.target) > 1:
        raise DataError(f"target column {schema.target!r} appears more than once")
    target_col = header.index(schema.target)
    dropped = set(schema.drop)
    feature_cols = [i for i, h in enumerate(header) if i != target_col and h not in dropped]
    if not feature_cols:
        raise DataError("no feature columns remain after schema drops")
    _check_names([header[i] for i in feature_cols])
    return target_col, feature_cols


def _check_names(names) -> None:
    """Refuse a feature name that no header gives: one with surrounding whitespace, or a repeat."""
    for name in names:
        if name != name.strip():
            raise DataError(f"feature column {name!r} has surrounding whitespace, "
                            "which a header's names are stripped of")
    if len(set(names)) < len(names):
        twice = next(name for name in names if names.count(name) > 1)
        raise DataError(f"feature column {twice!r} appears more than once")


def _feature_names(header: list[str], schema: DataSchema) -> tuple[str, ...]:
    return tuple(header[c] for c in _columns(header, schema)[1])


def _numbered(header: list[str], rows):
    """The data rows numbered from 1, each checked to be as wide as the header."""
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(
                f"row {i}: expected {len(header)} cells per the header, got {len(row)}"
            )
        yield i, row


def load_csv(path, schema: DataSchema) -> RawTable:
    """Parse a CSV file and validate it against the schema.

    The target and all drop columns must exist, and every data row must
    have exactly as many cells as the header. Unlike :func:`load_split`,
    it holds the whole file, as strings.
    """
    with _csv_rows(path) as (header, rows):
        _columns(header, schema)
        return RawTable(header=header, cells=[row for _, row in _numbered(header, rows)])


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
        if self.feature_names and len(self.feature_names) != x.shape[1]:
            raise ShapeError(
                f"{len(self.feature_names)} feature names for {x.shape[1]} columns"
            )
        if not np.all(np.isfinite(x)):
            names = self.feature_names or range(x.shape[1])
            name = names[int(np.argmin(np.isfinite(x).all(axis=0)))]
            raise DataError(f"column {name!r} holds non-finite values after cleaning")
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


def _row_blocks(header: list[str], rows, schema: DataSchema, size: int | None = None):
    """The data rows' feature values and labels, consuming ``rows`` one at a
    time, as pairs of flat float64 arrays of ``size`` rows each, the last
    perhaps fewer (every row in one pair when ``size`` is None).

    Row widths and target tokens are checked as the rows come, and a defect
    names its row, counted from 1. Feature cells go straight into the buffer
    with the bits of :func:`_parse_cell`, except that infinities stay (see
    :func:`_dataset`): ``float`` ignores surrounding whitespace as
    ``str.strip`` does, an empty cell reads as "nan", and a row where
    ``float`` fails falls back to :func:`_parse_cell` cell by cell.
    """
    target_col, cols = _columns(header, schema)
    get = itemgetter(*cols) if len(cols) > 1 else lambda row: (row[cols[0]],)
    values = array("d")
    labels = array("d")
    negative_token = None
    n = 0
    for n, row in _numbered(header, rows):
        tokens = get(row)
        try:
            values.extend([float(t or "nan") for t in tokens])
        except ValueError:
            values.extend([_parse_cell(t) for t in tokens])
        token = row[target_col].strip()
        if not token:
            raise DataError(f"row {n}: empty target cell")
        if token == schema.positive_label:
            labels.append(1.0)
        elif negative_token is None or token == negative_token:
            negative_token = token
            labels.append(0.0)
        else:
            raise DataError(
                f"row {n}: target token {token!r} (already saw {negative_token!r}; "
                f"positive label is {schema.positive_label!r})"
            )
        if len(labels) == size:
            yield values, labels
            values, labels = array("d"), array("d")
    if n == 0:
        raise DataError("table has no data rows")
    if labels:
        yield values, labels


def _dataset(names: tuple[str, ...], values: array, labels: array, medians: np.ndarray,
             standardizer: Standardizer | None = None) -> Dataset:
    """Rows that :func:`_row_blocks` parsed, or a gather of them, as a
    :class:`Dataset` over the same buffers. Missing cells (NaN, and the
    infinities the parse kept) take ``medians``. With a ``standardizer`` the
    features are then standardized in place by :func:`_standardize`."""
    x = np.frombuffer(values).reshape(-1, len(names))
    np.copyto(x, medians, where=~np.isfinite(x))
    if standardizer is not None:
        _standardize(standardizer, x)
    return Dataset(x=x, y=np.frombuffer(labels), feature_names=names)


def _medians(x: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    """Each column's median over its usable (finite) cells; a column with none
    raises :class:`DataError`. Two values near the float64 limit average to inf."""
    medians = np.empty(len(names))
    with np.errstate(over="ignore"):
        for j, (name, col) in enumerate(zip(names, x.T)):
            present = col[np.isfinite(col)]
            if present.size == 0:
                raise DataError(f"column {name!r} has no usable values")
            medians[j] = np.median(present)
    return medians


def clean(raw: RawTable, schema: DataSchema) -> Dataset:
    """Turn a raw table into a numeric dataset.

    Drops the schema's identifier columns, parses features (whitespace
    tolerated, anything unparseable treated as missing), imputes missing
    cells with the column median over the full table, and maps the target
    column to {0, 1} via ``schema.positive_label``. The target column may
    contain at most two distinct tokens. The header and row widths are
    checked as :func:`load_csv` checks them.
    """
    names = _feature_names(raw.header, schema)
    ((values, labels),) = _row_blocks(raw.header, raw.cells, schema)
    x = np.frombuffer(values).reshape(-1, len(names))
    return _dataset(names, values, labels, _medians(x, names))


def load_split(path, schema: DataSchema, val_fraction: float, rng: SplitMix64) -> tuple:
    """A CSV file's training and validation parts, drawn by :func:`stratified_split`'s
    rule, and the :class:`Standardizer` fitted on the training rows only, with the
    column medians that filled them. A column whose training cells have no usable
    value, or a median past the float64 range, raises :class:`DataError` naming it.
    Both parts are filled and standardized in place, as :func:`read_blocks` fills and
    standardizes a scored file, except that a validation cell that leaves the float64
    range when standardized takes its column's median, where a scored one raises: no
    validation cell decides whether the split loads."""
    with _csv_rows(path) as (header, rows):
        names = _feature_names(header, schema)
        ((values, labels),) = _row_blocks(header, rows, schema)
    x = np.frombuffer(values).reshape(-1, len(names))
    y = np.frombuffer(labels)
    train_idx, val_idx = _split_indices(y, val_fraction, rng)
    medians = _medians(x[train_idx], names)
    for name, median in zip(names, medians):
        if not math.isfinite(median):
            raise DataError(f"column {name!r} has no finite median to record")
    std = fit_standardizer(_dataset(names, x[train_idx], y[train_idx], medians), medians)
    # The fitted record judges the validation cells too: one that leaves the
    # float64 range when standardized is missing, as one past it when parsed is.
    val_x = x[val_idx]
    val_x[np.isinf(_standardize(std, val_x.copy()))] = np.nan
    train = _dataset(names, x[train_idx], y[train_idx], medians, std)
    val = _dataset(names, val_x, y[val_idx], medians, std)
    return train, val, std


def read_blocks(path, schema: DataSchema, size: int, standardizer: Standardizer):
    """The rows of a CSV file as :class:`Dataset` blocks of ``size`` rows (at
    least 2), to be scored by a model that records its preprocessing in
    ``standardizer``.

    The header is checked before any row: its feature names must equal the
    standardizer's. A last block of one row joins the one before, so one block
    is held back. Each block's missing cells take the standardizer's medians,
    and it is standardized in its own buffer by :func:`_standardize`, so memory
    does not grow with the file; a row defect is raised when its block is read.
    """
    with _csv_rows(path) as (header, rows):
        found = _feature_names(header, schema)
        names = standardizer.names
        if found != names:
            i = next(i for i in range(len(found) + 1) if found[i:i + 1] != names[i:i + 1])
            got, want = (repr(n[i]) if i < len(n) else "absent" for n in (found, names))
            raise DataError(f"dataset feature {i + 1} is {got}, the model's is {want} "
                            f"(the dataset has {len(found)} features, the model {len(names)})")
        held = None
        for block in _row_blocks(header, rows, schema, size):
            if held is not None and len(block[1]) == 1:  # the last block, as size > 1
                held[0].extend(block[0])
                held[1].extend(block[1])
                continue
            if held is not None:
                yield _dataset(found, *held, standardizer.medians, standardizer)
            held = block
        yield _dataset(found, *held, standardizer.medians, standardizer)


class Standardizer:
    """A model's fitted preprocessing: the column medians that fill missing cells,
    then the per-feature means and deviations that scale them, for the features
    ``names`` (none, or one a feature, as :class:`Dataset` holds them).

    Create one with :func:`fit_standardizer` on the training split; there
    is no API that updates the statistics from later data, which is what
    keeps validation rows out of the normalization. Construction refuses
    arrays of unequal lengths, a non-finite value, a deviation not above 0 and
    a name that no data file's header can give (:func:`_check_names`).
    """

    def __init__(self, mean: np.ndarray, std: np.ndarray, medians: np.ndarray, names=()):
        self.mean, self.std, self.medians = (np.asarray(a, dtype=np.float64).reshape(-1)
                                             for a in (mean, std, medians))
        self.names = tuple(names)
        if not self.mean.shape == self.std.shape == self.medians.shape:
            raise ShapeError("standardizer means, deviations and medians have shapes "
                             f"{self.mean.shape}, {self.std.shape} and {self.medians.shape}")
        if self.names and len(self.names) != self.n_features:
            raise ShapeError(f"{len(self.names)} feature names for {self.n_features} features")
        _check_names(self.names)
        if not np.all(np.isfinite([self.mean, self.std, self.medians])):
            raise DataError("standardizer means, deviations and medians must be finite")
        if not np.all(self.std > 0):
            raise DataError("standard deviations must be positive")

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]


def fit_standardizer(train: Dataset, medians: np.ndarray) -> Standardizer:
    """Fit per-feature mean and standard deviation on the training split, and
    record them with the ``medians`` that filled its missing cells and its
    feature names.

    Constant columns get a substitute deviation of 1 so they standardize
    to exactly zero. A column whose mean or deviation passes the float64
    range raises :class:`DataError` naming it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.x.mean(axis=0)
        std = train.x.std(axis=0)
    for name, m, d in zip(train.feature_names or range(train.n_features), mean, std):
        if not (math.isfinite(m) and math.isfinite(d)):
            raise DataError(f"column {name!r} has no finite mean and deviation to record")
    return Standardizer(mean, np.where(std > 0, std, 1.0), medians, train.feature_names)


def _standardize(s: Standardizer, x: np.ndarray) -> np.ndarray:
    """``x``, standardized in place; a width other than ``s``'s raises :class:`ShapeError`."""
    if x.shape[1] != s.n_features:
        raise ShapeError(
            f"standardizer was fitted on {s.n_features} features, dataset has {x.shape[1]}"
        )
    with np.errstate(over="ignore"):  # Dataset names a column that left the float64 range
        x -= s.mean
        x /= s.std
    return x


def apply_standardizer(s: Standardizer, ds: Dataset) -> Dataset:
    """Apply fitted statistics to a copy of any dataset (never refits)."""
    return Dataset(x=_standardize(s, ds.x.copy()), y=ds.y, feature_names=ds.feature_names)


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
    return tuple(Dataset(x=ds.x[i], y=ds.y[i], feature_names=ds.feature_names)
                 for i in _split_indices(ds.y, val_fraction, rng))


def _split_indices(y: np.ndarray, val_fraction: float, rng: SplitMix64) -> tuple:
    """The training and validation row indices of :func:`stratified_split`."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    val_parts = []
    train_parts = []
    for cls in (0.0, 1.0):
        idx = np.nonzero(y == cls)[0]
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
            f"{y.size} rows; choose a less extreme fraction"
        )
    return train_idx, val_idx
