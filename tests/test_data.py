"""CSV ingestion, cleaning, standardization, stratified splitting."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeplda import (
    DataError,
    DeepLdaError,
    DataSchema,
    Dataset,
    RawTable,
    ShapeError,
    Standardizer,
    apply_standardizer,
    clean,
    fit_standardizer,
    load_csv,
    load_schema,
    stratified_split,
)
from deeplda.rng import SplitMix64


def _write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA = DataSchema(target="label", drop=("id",), positive_label="1")


class TestSchema:
    def test_target_in_drop_rejected(self):
        with pytest.raises(DataError):
            DataSchema(target="y", drop=("y",))

    def test_load_schema_roundtrip(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"target": "y", "drop": ["a"], "positive_label": "yes"}))
        s = load_schema(p)
        assert s == DataSchema(target="y", drop=("a",), positive_label="yes")

    def test_load_schema_unknown_key(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"target": "y", "tarXet": "oops"}))
        with pytest.raises(DataError, match="unknown keys"):
            load_schema(p)

    def test_load_schema_drop_must_be_a_list(self, tmp_path):
        path = _write(tmp_path, json.dumps({"target": "y", "drop": 5}), "s.json")
        with pytest.raises(DataError, match="'drop' must be a list"):
            load_schema(path)

    def test_load_schema_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_schema(tmp_path / "nope.json")


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        p = _write(tmp_path, "id,a,label\n1,0.5,1\n2,0.6,0\n3,0.7,1\n")
        raw = load_csv(p, SCHEMA)
        assert raw.n_rows == 3
        assert raw.header == ["id", "a", "label"]

    def test_ragged_row_cites_row_number(self, tmp_path):
        p = _write(tmp_path, "id,a,label\n1,0.5,1\n2,0.6\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p, SCHEMA)

    def test_missing_target_column_named(self, tmp_path):
        p = _write(tmp_path, "id,a,b\n1,0.5,0.2\n")
        with pytest.raises(DataError, match="'label'"):
            load_csv(p, SCHEMA)

    def test_missing_drop_column_named(self, tmp_path):
        p = _write(tmp_path, "a,label\n0.5,1\n")
        with pytest.raises(DataError, match="'id'"):
            load_csv(p, SCHEMA)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "ghost.csv", SCHEMA)

    def test_clinical_file_keeps_41_features(self, clinical_csv):
        csv_path, schema_path = clinical_csv
        schema = load_schema(schema_path)
        ds = clean(load_csv(csv_path, schema), schema)
        assert ds.n_features == 41
        assert ds.n_rows == 541
        assert int(ds.y.sum()) == 177


class TestClean:
    def test_clean_numeric_table_passes_through(self):
        raw = RawTable(header=["a", "b", "label"],
                       cells=[["1.5", "2", "1"], ["-3", "0.25", "0"]])
        ds = clean(raw, DataSchema(target="label"))
        assert ds.x.tolist() == [[1.5, 2.0], [-3.0, 0.25]]
        assert ds.y.tolist() == [1.0, 0.0]
        assert ds.feature_names == ("a", "b")

    def test_median_imputation(self):
        raw = RawTable(header=["a", "label"],
                       cells=[["1", "0"], ["", "0"], ["3", "1"]])
        ds = clean(raw, DataSchema(target="label"))
        assert ds.x[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_whitespace_and_junk_cells_impute(self):
        raw = RawTable(header=["a", "label"],
                       cells=[[" 4 ", "0"], ["n/a", "1"], ["8", "1"], ["inf", "0"]])
        ds = clean(raw, DataSchema(target="label"))
        assert ds.x[:, 0].tolist() == [4.0, 6.0, 8.0, 6.0]

    def test_overflowing_median_is_data_error(self):
        raw = RawTable(header=["a", "label"],
                       cells=[["1.7e308", "0"], ["", "0"], ["1.7e308", "1"]])
        with pytest.raises(DataError, match="non-finite"):
            clean(raw, DataSchema(target="label"))

    def test_all_missing_column_rejected(self):
        raw = RawTable(header=["a", "b", "label"],
                       cells=[["", "1", "0"], ["x", "2", "1"]])
        with pytest.raises(DataError, match="'a'"):
            clean(raw, DataSchema(target="label"))

    def test_target_token_mapping(self):
        raw = RawTable(header=["a", "label"],
                       cells=[["1", "yes"], ["2", "no"], ["3", "yes"]])
        ds = clean(raw, DataSchema(target="label", positive_label="yes"))
        assert ds.y.tolist() == [1.0, 0.0, 1.0]

    def test_third_target_token_cites_row(self):
        raw = RawTable(header=["a", "label"],
                       cells=[["1", "1"], ["2", "0"], ["3", "maybe"]])
        with pytest.raises(DataError, match="row 3"):
            clean(raw, DataSchema(target="label"))

    def test_empty_target_cell_cites_row(self):
        raw = RawTable(header=["a", "label"], cells=[["1", "1"], ["2", ""]])
        with pytest.raises(DataError, match="row 2"):
            clean(raw, DataSchema(target="label"))

    def test_duplicate_target_column_rejected(self):
        raw = RawTable(header=["label", "label"], cells=[["1", "1"]])
        with pytest.raises(DataError, match="more than once"):
            clean(raw, DataSchema(target="label"))

    def test_missing_target_column_rejected(self):
        raw = RawTable(header=["a", "b"], cells=[["1", "2"]])
        with pytest.raises(DataError, match="'label'"):
            clean(raw, DataSchema(target="label"))

    def test_clean_is_idempotent_on_clean_numeric_tables(self):
        raw = RawTable(header=["a", "b", "label"],
                       cells=[["1.25", "-9", "1"], ["0.5", "2", "0"]])
        schema = DataSchema(target="label")
        once = clean(raw, schema)
        again_raw = RawTable(
            header=["a", "b", "label"],
            cells=[[repr(v) for v in row] + [str(int(lab))]
                   for row, lab in zip(once.x.tolist(), once.y.tolist())],
        )
        twice = clean(again_raw, schema)
        assert np.array_equal(once.x, twice.x)
        assert np.array_equal(once.y, twice.y)


class TestDataset:
    def test_rejects_non_binary_labels(self):
        with pytest.raises(DataError):
            Dataset(x=np.ones((2, 1)), y=np.array([0.0, 2.0]))

    def test_rejects_nan_features(self):
        with pytest.raises(DataError):
            Dataset(x=np.array([[np.nan], [1.0]]), y=np.array([0.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(x=np.empty((0, 3)), y=np.empty(0))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(x=np.ones((1, 2)), y=np.array([1.0]), feature_names=("only",))

    def test_arrays_frozen(self):
        ds = Dataset(x=np.ones((1, 1)), y=np.array([1.0]))
        with pytest.raises(ValueError):
            ds.x[0, 0] = 5.0


class TestStandardizer:
    def test_fit_gives_zero_mean_unit_std(self):
        g = np.random.default_rng(1)
        ds = Dataset(x=g.normal(3, 7, (50, 4)), y=(g.random(50) > 0.5).astype(float))
        z = apply_standardizer(fit_standardizer(ds), ds)
        assert np.all(np.abs(z.x.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.x.std(axis=0) - 1.0) < 1e-9)

    def test_constant_column_maps_to_zeros(self):
        ds = Dataset(x=np.array([[5.0, 1.0], [5.0, 2.0]]), y=np.array([0.0, 1.0]))
        z = apply_standardizer(fit_standardizer(ds), ds)
        assert z.x[:, 0].tolist() == [0.0, 0.0]

    def test_validation_uses_train_statistics(self):
        train = Dataset(x=np.array([[0.0], [2.0]]), y=np.array([0.0, 1.0]))
        val = Dataset(x=np.array([[10.0]]), y=np.array([1.0]))
        s = fit_standardizer(train)
        out = apply_standardizer(s, val)
        assert out.x[0, 0] == (10.0 - 1.0) / 1.0

    def test_feature_width_mismatch(self):
        s = fit_standardizer(Dataset(x=np.ones((2, 3)) * [[1], [2]], y=np.array([0.0, 1.0])))
        with pytest.raises(ShapeError):
            apply_standardizer(s, Dataset(x=np.ones((1, 2)), y=np.array([0.0])))

    def test_no_refit_api_exists(self):
        assert not any(
            hasattr(Standardizer, name)
            for name in ("fit", "partial_fit", "update", "refit")
        )

    def test_rejects_nonpositive_std(self):
        with pytest.raises(DataError):
            Standardizer(mean=np.zeros(2), std=np.array([1.0, 0.0]))


def _balanced_dataset(n0, n1, seed=0):
    g = np.random.default_rng(seed)
    x = g.normal(size=(n0 + n1, 3))
    y = np.concatenate([np.zeros(n0), np.ones(n1)])
    g.shuffle(y)
    return Dataset(x=x, y=y)


class TestStratifiedSplit:
    def test_50_50_at_fraction_point_2(self):
        ds = _balanced_dataset(50, 50)
        train, val = stratified_split(ds, 0.2, SplitMix64(4))
        assert val.n_rows == 20
        assert int(val.y.sum()) == 10
        assert train.n_rows == 80
        assert int(train.y.sum()) == 40

    def test_same_seed_same_membership(self):
        ds = _balanced_dataset(40, 30, seed=5)
        t1, v1 = stratified_split(ds, 0.25, SplitMix64(9))
        t2, v2 = stratified_split(ds, 0.25, SplitMix64(9))
        assert np.array_equal(v1.x, v2.x)
        assert np.array_equal(t1.x, t2.x)

    def test_541_rows_validation_size_and_ratio(self):
        ds = _balanced_dataset(364, 177, seed=6)
        train, val = stratified_split(ds, 0.2, SplitMix64(2))
        assert val.n_rows in (108, 109)
        global_ratio = 177 / 541
        for part in (train, val):
            ratio = part.y.mean()
            assert abs(ratio - global_ratio) <= 1.0 / part.n_rows

    def test_union_is_permutation_and_intersection_empty(self):
        ds = _balanced_dataset(13, 17, seed=7)
        train, val = stratified_split(ds, 0.3, SplitMix64(1))
        combined = np.vstack([train.x, val.x])
        key = lambda m: sorted(map(tuple, m.tolist()))
        assert key(combined) == key(ds.x)
        train_rows = set(map(tuple, train.x.tolist()))
        val_rows = set(map(tuple, val.x.tolist()))
        assert not train_rows & val_rows

    def test_single_class_rejected(self):
        ds = Dataset(x=np.ones((3, 1)) * [[1], [2], [3]], y=np.ones(3))
        with pytest.raises(DataError):
            stratified_split(ds, 0.5, SplitMix64(0))

    def test_fraction_bounds_rejected(self):
        ds = _balanced_dataset(5, 5)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                stratified_split(ds, bad, SplitMix64(0))

    def test_extreme_fraction_leaving_empty_split_rejected(self):
        ds = _balanced_dataset(2, 2)
        with pytest.raises(DataError, match="empty split"):
            stratified_split(ds, 0.9, SplitMix64(0))
        with pytest.raises(DataError, match="empty split"):
            stratified_split(ds, 0.05, SplitMix64(0))

    @given(n0=st.integers(2, 40), n1=st.integers(2, 40),
           frac=st.floats(0.1, 0.9), seed=st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_conservation_and_stratification_property(self, n0, n1, frac, seed):
        g = np.random.default_rng(seed % (2**31))
        x = np.arange(float(n0 + n1)).reshape(-1, 1)
        y = np.concatenate([np.zeros(n0), np.ones(n1)])
        g.shuffle(y)
        ds = Dataset(x=x, y=y)
        expect_val1 = int(np.floor(n1 * frac + 0.5))
        expect_val0 = int(np.floor(n0 * frac + 0.5))
        n_val = expect_val0 + expect_val1
        if n_val == 0 or n_val == ds.n_rows:
            with pytest.raises(DataError):
                stratified_split(ds, frac, SplitMix64(seed))
            return
        train, val = stratified_split(ds, frac, SplitMix64(seed))
        assert train.n_rows + val.n_rows == ds.n_rows
        all_ids = sorted(train.x[:, 0].tolist() + val.x[:, 0].tolist())
        assert all_ids == x[:, 0].tolist()
        assert int(val.y.sum()) == expect_val1
        assert val.n_rows - int(val.y.sum()) == expect_val0


# --- hostile input -------------------------------------------------------------

_NAMES = ["label", "id", "a", "b"]
_CELLS = ["", "1", "0", "x", " 2.5 ", "-0", "nan", "inf", "1e308", "1.7e308", "1e999",
          "\x00", "\ufeff", "\xe9"]
_TOKENS = _NAMES + _CELLS + ['"', '""', "\r", "\n", ","]


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
    | st.sampled_from(_NAMES),
    _json_containers,
    max_leaves=8,
)
_schema_bytes = st.one_of(
    st.binary(max_size=64),
    st.fixed_dictionaries(
        {"target": st.sampled_from(_NAMES)},
        optional={"drop": st.lists(st.sampled_from(_NAMES), max_size=2),
                  "positive_label": st.sampled_from(["1", "0", "x"])},
    ).map(lambda d: json.dumps(d).encode("utf-8")),
    st.dictionaries(st.sampled_from(["target", "drop", "positive_label", "other"]),
                    _json_values, max_size=4).map(lambda d: json.dumps(d).encode("utf-8")),
)
_csv_bytes = st.one_of(
    st.binary(max_size=256),
    st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4, unique=True).flatmap(
        lambda header: st.lists(st.lists(st.sampled_from(_CELLS), min_size=len(header),
                                         max_size=len(header)), max_size=8).map(
            lambda rows: "\n".join(",".join(row) for row in [header] + rows).encode("utf-8"))),
    st.lists(st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=4), max_size=8).map(
        lambda rows: "\n".join(",".join(row) for row in rows).encode("utf-8")),
)


@given(schema_bytes=_schema_bytes, csv_bytes=_csv_bytes)
@settings(max_examples=300, deadline=None)
def test_loaders_raise_only_package_errors_on_arbitrary_bytes(schema_bytes, csv_bytes):
    """Whatever bytes the files hold, the loaders either succeed or raise a
    DeepLdaError subclass (or an OSError); nothing else escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        schema_path = os.path.join(tmp, "schema.json")
        csv_path = os.path.join(tmp, "data.csv")
        with open(schema_path, "wb") as fh:
            fh.write(schema_bytes)
        with open(csv_path, "wb") as fh:
            fh.write(csv_bytes)
        try:
            schema = load_schema(schema_path)
        except (DeepLdaError, OSError):
            schema = SCHEMA  # keep exercising the CSV path
        try:
            clean(load_csv(csv_path, schema), schema)
        except (DeepLdaError, OSError):
            pass
