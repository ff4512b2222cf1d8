"""CSV ingestion, cleaning, standardization, stratified splitting."""

import csv
import itertools
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    load_split,
    stratified_split,
)
from conftest import traced_peak, write_clinical_csv
from deeplda.data import _csv_rows, _feature_names, _medians, _parse_cell, read_blocks
from deeplda.rng import SplitMix64


def _write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def _cell_by_cell(cells, cols):
    """The features clean should give: :func:`_parse_cell` of every cell in
    ``cols``, then each column's NaNs set to the median of its values."""
    want = np.array([[_parse_cell(row[c]) for c in cols] for row in cells])
    with np.errstate(over="ignore"):
        for col in want.T:
            col[np.isnan(col)] = np.median(col[~np.isnan(col)])
    return want


SCHEMA = DataSchema(target="label", drop=("id",), positive_label="1")
FEATURES = ("a", "b")  # the feature columns of an "id,a,b,label" file under SCHEMA


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

    # Cells that float() reads as they are, reads only after the empty-cell
    # rule, reads as non-finite, or rejects, so a row takes the fallback.
    PARSE_TOKENS = ["", "  ", "\t1.5 ", "1_000", "nan", "-inf", "1e999", "0x10", "-0", "+.5",
                    "abc", " 1.5 ", "\u0661\u0662.\u0665", "2.25"]

    def test_row_parse_matches_cell_parse_bitwise(self, tmp_path):
        tokens = itertools.product(self.PARSE_TOKENS, repeat=2)
        cells = [[str(i), a, b, str(i % 2)] for i, (a, b) in enumerate(tokens)]
        path = _write_rows(tmp_path / "t.csv", [["id", "a", "b", "label"]] + cells)
        got = clean(load_csv(path, SCHEMA), SCHEMA).x
        want = _cell_by_cell(cells, [1, 2])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_clean_matches_cell_by_cell_reference_bitwise(self):
        tokens = itertools.product(self.PARSE_TOKENS, repeat=2)
        cells = [[a, str(i), b, str(i % 2)] for i, (a, b) in enumerate(tokens)]
        raw = RawTable(header=["a", "id", "b", "label"], cells=cells)
        got = clean(raw, SCHEMA).x
        want = _cell_by_cell(cells, [0, 2])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(st.lists(st.lists(st.one_of(st.sampled_from(PARSE_TOKENS), st.text(max_size=6),
                                       st.floats().map(repr)), min_size=3, max_size=3),
                    min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_row_parse_matches_cell_parse_on_any_text(self, cells):
        # A last row of zeros gives every column a usable value.
        cells = [row + [str(i % 2)] for i, row in enumerate(cells + [["0", "0", "0"]])]
        raw = RawTable(header=["a", "b", "c", "label"], cells=cells)
        want = _cell_by_cell(cells, [0, 1, 2])
        if not np.all(np.isfinite(want)):  # a median overflowed
            with pytest.raises(DataError, match="non-finite"):
                clean(raw, DataSchema(target="label"))
            return
        got = clean(raw, DataSchema(target="label")).x
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

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


# One defect per file, and a part of the message both readers give for it.
SINGLE_DEFECTS = {
    "row width": ("id,a,label\n1,0.5,1\n2,0.6\n", "row 2: expected 3 cells per the header, got 2"),
    "missing target": ("id,a,b\n1,0.5,0.2\n", "target column 'label' not found in header"),
    "missing drop": ("a,label\n0.5,1\n", "drop column 'id' not found in header"),
    "duplicate target": ("id,a,label,label\n1,0.5,1,1\n", "target column 'label' appears more"),
    "duplicate feature": ("id,a,a,label\n1,0.5,0.6,1\n",
                          "feature column 'a' appears more than once"),
    "empty target": ("id,a,label\n1,0.5,1\n2,0.6, \n", "row 2: empty target cell"),
    "third target token": ("id,a,label\n1,0.5,1\n2,0.6,0\n3,0.7,maybe\n",
                           "row 3: target token 'maybe' (already saw '0'"),
    "no usable values": ("id,a,b,label\n1,,2,1\n2,x,3,0\n3,,4,1\n4,y,5,0\n",
                         "column 'a' has no usable values"),
    "no feature columns": ("id,label\n1,1\n", "no feature columns remain"),
    "no data rows": ("id,a,label\n", "table has no data rows"),
    "empty file": ("", "t.csv is empty"),
    "non-UTF-8": (b"id,a,label\n1,\xff,1\n", "t.csv is not a readable UTF-8 CSV: 'utf-8' codec"),
    "over-long field": ("id,a,label\n1," + "9" * 200_000 + ",1\n",
                        "t.csv is not a readable UTF-8 CSV: field larger than field limit"),
}


class TestLoadDataset:
    """Whole-file reads: :func:`load_split`, which reads a row at a time and
    fits on the training rows, against ``clean(load_csv(...))``, which holds
    the file as strings and fills it from its own medians."""

    @pytest.mark.parametrize("text, message", SINGLE_DEFECTS.values(), ids=SINGLE_DEFECTS)
    def test_single_defect_gives_the_same_error_as_clean(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(DataError, match=re.escape(message)) as streamed:
            load_split(path, SCHEMA, 0.25, SplitMix64(0))
        with pytest.raises(DataError) as whole:
            clean(load_csv(path, SCHEMA), SCHEMA)
        assert str(streamed.value) == str(whole.value)

    def test_header_defect_is_reported_before_row_widths(self, tmp_path):
        path = _write(tmp_path, "id,a,b\n1,0.5\n")
        for read in (lambda: load_split(path, SCHEMA, 0.25, SplitMix64(0)),
                     lambda: load_csv(path, SCHEMA)):
            with pytest.raises(DataError, match="target column 'label' not found"):
                read()

    def test_memory_grows_by_the_feature_matrix_only(self, tmp_path):
        peaks = []
        for rows in (2000, 8000):
            csv_path, schema_path = write_clinical_csv(
                tmp_path / f"{rows}.csv", tmp_path / "schema.json", n_rows=rows,
                n_positive=rows // 3)
            schema = load_schema(schema_path)
            with traced_peak() as read_peak:
                train, val, _ = load_split(csv_path, schema, 0.25, SplitMix64(0))
                peaks.append(read_peak())
            assert train.n_rows + val.n_rows == rows
        # 41 features and a label are 336 bytes a row, held once as read and
        # once as the two parts: about 670 bytes a row. The strings of a
        # whole-file read take about 2.6 KB a row.
        assert peaks[1] - peaks[0] < 6000 * 1000

    @given(st.lists(st.tuples(st.sampled_from(TestClean.PARSE_TOKENS),
                              st.sampled_from(TestClean.PARSE_TOKENS),
                              st.sampled_from(["0", "1"])), min_size=1, max_size=16),
           st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
           st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_standardizing_as_read_equals_apply_standardizer(self, rows, mean, std):
        # read_blocks standardizes each block in the buffer it is parsed into,
        # apply_standardizer a copy of a loaded table; errors included, they agree.
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_rows(os.path.join(tmp, "t.csv"), [["id", "a", "b", "label"]]
                               + [[str(i), *row] for i, row in enumerate(rows)])
            outcomes = []
            for read in (lambda: next(read_blocks(path, SCHEMA, len(rows) + 1, Standardizer(
                             mean, std, _own_medians(rows), FEATURES))),
                         lambda: apply_standardizer(Standardizer(mean, std, np.zeros(2)),
                                                    clean(load_csv(path, SCHEMA), SCHEMA))):
                try:
                    ds = read()
                except DataError as exc:
                    outcomes.append(str(exc))
                else:
                    outcomes.append((ds.x.view(np.uint64).tolist(), ds.y.tolist(),
                                     ds.feature_names))
        assert outcomes[0] == outcomes[1]

    def test_a_width_other_than_the_standardizers_is_a_shape_error(self, tmp_path):
        path = _write(tmp_path, "id,a,b,label\n1,0.5,2,1\n2,x,3,0\n")
        s = Standardizer(np.zeros(3), np.ones(3), np.zeros(3), ("a", "b", "c"))
        with pytest.raises(ShapeError, match="fitted on 3 features, dataset has 2"):
            apply_standardizer(s, clean(load_csv(path, SCHEMA), SCHEMA))
        # read_blocks compares the names, so another width is refused by its header,
        # before any row defect.
        path = _write(tmp_path, "id,a,b,label\n1,0.5,2,1\n2,x\n")
        with pytest.raises(DataError, match=re.escape(
                "dataset feature 3 is absent, the model's is 'c' "
                "(the dataset has 2 features, the model 3)")):
            next(read_blocks(path, SCHEMA, 4, s))


_ROWS = st.lists(st.tuples(st.sampled_from(TestClean.PARSE_TOKENS),
                          st.sampled_from(TestClean.PARSE_TOKENS),
                          st.sampled_from(["0", "1"])), min_size=1, max_size=16)


def _own_medians(rows):
    """The medians :func:`clean` fills blank cells with in a file of
    ``rows``, each an "a" and a "b" cell and a label."""
    return _medians(np.array([[_parse_cell(c) for c in row[:2]] for row in rows]), FEATURES)


_IDENTITY = (np.zeros(2), np.ones(2), np.zeros(2))  # two features' means, deviations, medians


def _bits(blocks):
    return [(b.x.view(np.uint64).tolist(), b.y.tolist(), b.feature_names) for b in blocks]


class TestReadBlocks:
    @given(_ROWS, st.integers(2, 5), st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
           st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
           st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_blocks_equal_the_rows_read_one_at_a_time(self, rows, size, medians, mean, std):
        s = Standardizer(mean, std, medians, FEATURES)
        header = ["id", "a", "b", "label"]
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_rows(os.path.join(tmp, "t.csv"),
                               [header] + [[str(i), *row] for i, row in enumerate(rows)])
            blocks = list(read_blocks(path, SCHEMA, size, s))
            one_at_a_time = []
            for i, row in enumerate(rows):
                one = _write_rows(os.path.join(tmp, f"{i}.csv"), [header, [str(i), *row]])
                one_at_a_time += read_blocks(one, SCHEMA, size, s)
        got = np.concatenate([b.x for b in blocks])
        want = np.concatenate([b.x for b in one_at_a_time])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert np.concatenate([b.y for b in blocks]).tolist() == [float(r[2]) for r in rows]
        # Blocks of `size` rows, and a last block of one row joins the one before.
        starts = list(range(0, len(rows), size))
        if len(starts) > 1 and len(rows) - starts[-1] == 1:
            starts.pop()
        assert [b.n_rows for b in blocks] == np.diff(starts + [len(rows)]).tolist()

    @given(_ROWS, st.integers(2, 5), st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
           st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_the_files_own_medians_give_cleans_features(self, rows, size, mean, std):
        s = Standardizer(mean, std, np.zeros(2))
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_rows(os.path.join(tmp, "t.csv"), [["id", "a", "b", "label"]]
                               + [[str(i), *row] for i, row in enumerate(rows)])
            try:
                whole = apply_standardizer(s, clean(load_csv(path, SCHEMA), SCHEMA))
            except DataError as exc:
                assert "has no usable values" in str(exc)
                return
            own = Standardizer(mean, std, _own_medians(rows), FEATURES)
            blocks = list(read_blocks(path, SCHEMA, size, own))
        got = np.concatenate([b.x for b in blocks])
        assert got.view(np.uint64).tolist() == whole.x.view(np.uint64).tolist()

    def test_the_header_is_checked_before_any_row(self, tmp_path):
        path = _write(tmp_path, "id,a,b,label\n1,0.5\n")
        s = Standardizer(np.zeros(2), np.ones(2), np.zeros(2), ("a", "c"))
        with pytest.raises(DataError, match=re.escape(
                "dataset feature 2 is 'b', the model's is 'c' "
                "(the dataset has 2 features, the model 2)")):
            next(read_blocks(path, SCHEMA, 4, s))
        with pytest.raises(DataError, match="row 1: expected 4 cells"):
            next(read_blocks(path, SCHEMA, 4, Standardizer(*_IDENTITY, FEATURES)))

    def test_a_row_defect_names_its_row_in_a_later_block(self, tmp_path):
        path = _write(tmp_path, "id,a,b,label\n" + "1,0.5,2,0\n" * 9 + "2,x,3,y\n")
        with pytest.raises(DataError, match="row 10: target token 'y'"):
            list(read_blocks(path, SCHEMA, 4, Standardizer(*_IDENTITY, FEATURES)))


def _split_rows(labels, val_fraction, seed):
    """The 0-based training and validation row numbers that stratified_split draws."""
    ids = Dataset(x=np.arange(float(len(labels))).reshape(-1, 1), y=labels)
    return [part.x[:, 0].astype(int).tolist()
            for part in stratified_split(ids, val_fraction, SplitMix64(seed))]


def _write_labeled(path, cells, labels):
    return _write_rows(path, [["id", "a", "b", "label"]]
                       + [[str(i), *row, str(y)] for i, (row, y) in enumerate(zip(cells, labels))])


_TRAINING_CELL = st.floats(-1e6, 1e6).map(repr) | st.sampled_from(TestClean.PARSE_TOKENS)
_VALIDATION_CELL = st.just("") | st.floats().map(repr) | st.sampled_from(TestClean.PARSE_TOKENS)


class TestLoadSplit:
    def test_a_dropped_name_may_appear_more_than_once(self, tmp_path):
        # Two unnamed trailing columns, both dropped by the one "" entry.
        path = _write(tmp_path, "id,a,b,label,,\n" + "".join(
            f"{i},{i}.5,{i % 3},{i % 2},,\n" for i in range(8)))
        train, val, std = load_split(path, DataSchema(target="label", drop=("id", "")),
                                     0.25, SplitMix64(0))
        assert train.feature_names == val.feature_names == std.names == ("a", "b")
        assert train.n_rows + val.n_rows == 8

    def test_without_blank_cells_it_is_the_standardized_stratified_split(self, tmp_path):
        g = np.random.default_rng(3)
        labels = [i % 3 == 0 for i in range(40)]
        path = _write_labeled(tmp_path / "t.csv", g.normal(size=(40, 2)).tolist(),
                              [int(y) for y in labels])
        train, val, std = load_split(path, SCHEMA, 0.25, SplitMix64(7))
        want_train, want_val = stratified_split(clean(load_csv(path, SCHEMA), SCHEMA), 0.25,
                                                SplitMix64(7))
        want_std = fit_standardizer(want_train, [np.median(col) for col in want_train.x.T])
        for got, want in ((train, want_train), (val, want_val)):
            want = apply_standardizer(want_std, want)
            assert got.x.view(np.uint64).tolist() == want.x.view(np.uint64).tolist()
            assert got.y.tolist() == want.y.tolist()
            assert got.feature_names == ("a", "b")
        for got, want in ((std.mean, want_std.mean), (std.std, want_std.std),
                          (std.medians, want_std.medians)):
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert std.names == ("a", "b")

    @given(st.data(), st.lists(st.tuples(_TRAINING_CELL, _TRAINING_CELL), min_size=6,
                               max_size=20),
           st.sampled_from([0.2, 0.25, 0.5]), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_validation_cells_do_not_reach_the_fitted_record(self, data, cells, frac, seed):
        # Blank or change every feature cell of the validation rows: the
        # medians, the standardizer and the training rows keep their bits.
        labels = [i % 2 for i in range(len(cells))]
        _, val_rows = _split_rows(labels, frac, seed)
        changed = [list(row) for row in cells]
        for i in val_rows:
            changed[i] = [data.draw(_VALIDATION_CELL) for _ in changed[i]]
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            for k, table in enumerate((cells, changed)):
                path = _write_labeled(os.path.join(tmp, f"{k}.csv"), table, labels)
                try:
                    train, _, std = load_split(path, SCHEMA, frac, SplitMix64(seed))
                except DataError as exc:
                    outcomes.append(str(exc))
                else:
                    outcomes.append([a.view(np.uint64).tolist()
                                     for a in (std.medians, std.mean, std.std, train.x,
                                               train.y)])
        assert outcomes[0] == outcomes[1]

    def test_a_column_is_judged_by_its_training_cells_only(self, tmp_path):
        labels = [i % 2 for i in range(10)]
        train_rows, val_rows = _split_rows(labels, 0.2, 0)
        for rows, outcome in ((val_rows, None), (train_rows, 4.0)):
            cells = [["", str(i)] for i in range(10)]
            cells[rows[0]][0] = "4"  # the column's only usable cell
            path = _write_labeled(tmp_path / "t.csv", cells, labels)
            if outcome is None:
                with pytest.raises(DataError, match="column 'a' has no usable values"):
                    load_split(path, SCHEMA, 0.2, SplitMix64(0))
            else:
                _, val, std = load_split(path, SCHEMA, 0.2, SplitMix64(0))
                assert std.medians[0] == outcome
                assert val.x[:, 0].tolist() == [0.0] * val.n_rows  # filled, then centred

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # as outside the test suite
    def test_a_validation_cell_that_overflows_when_standardized_takes_the_median(
            self, tmp_path, recwarn):
        # Column b's training deviation is about 1e-91, so 1.9e217 standardizes past
        # the float64 range; a blank validation cell takes the same median.
        labels = [i % 2 for i in range(11)]
        _, val_rows = _split_rows(labels, 0.2, 0)
        cells = [["0.0", "0.0"] for _ in labels]
        cells[3][1] = "3.3e-91"
        tables = []
        for big in ("", "1.9e217"):
            for i in val_rows:
                cells[i] = ["0.0", big]
            tables.append(load_split(_write_labeled(tmp_path / "t.csv", cells, labels),
                                     SCHEMA, 0.2, SplitMix64(0)))
        assert 3 not in val_rows
        (train, val, std), (train2, val2, std2) = tables
        assert std.std[1] < 1e-90
        for got, want in ((val2.x, val.x), (train2.x, train.x), (std2.mean, std.mean),
                          (std2.std, std.std), (std2.medians, std.medians)):
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert not recwarn.list

    def test_an_overflowing_median_is_not_recorded(self, tmp_path):
        # Eight training rows: the median averages two values near the float64 limit.
        cells = [["1e308", "0"], ["1.5e308", "1"]] * 5
        labels = [i % 2 for i in range(10)]
        path = _write_labeled(tmp_path / "t.csv", cells, labels)
        # No cell is blank, so none is filled.
        assert clean(load_csv(path, SCHEMA), SCHEMA).n_rows == 10
        with pytest.raises(DataError, match="column 'a' has no finite median to record"):
            load_split(path, SCHEMA, 0.2, SplitMix64(0))


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


def _fit(ds):
    """The standardizer of a dataset without blank cells, with its own medians."""
    return fit_standardizer(ds, np.median(ds.x, axis=0))


class TestStandardizer:
    def test_fit_gives_zero_mean_unit_std(self):
        g = np.random.default_rng(1)
        ds = Dataset(x=g.normal(3, 7, (50, 4)), y=(g.random(50) > 0.5).astype(float))
        z = apply_standardizer(_fit(ds), ds)
        assert np.all(np.abs(z.x.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.x.std(axis=0) - 1.0) < 1e-9)

    def test_constant_column_maps_to_zeros(self):
        ds = Dataset(x=np.array([[5.0, 1.0], [5.0, 2.0]]), y=np.array([0.0, 1.0]))
        z = apply_standardizer(_fit(ds), ds)
        assert z.x[:, 0].tolist() == [0.0, 0.0]

    def test_validation_uses_train_statistics(self):
        train = Dataset(x=np.array([[0.0], [2.0]]), y=np.array([0.0, 1.0]))
        val = Dataset(x=np.array([[10.0]]), y=np.array([1.0]))
        s = _fit(train)
        out = apply_standardizer(s, val)
        assert out.x[0, 0] == (10.0 - 1.0) / 1.0

    def test_feature_width_mismatch(self):
        s = _fit(Dataset(x=np.ones((2, 3)) * [[1], [2]], y=np.array([0.0, 1.0])))
        with pytest.raises(ShapeError):
            apply_standardizer(s, Dataset(x=np.ones((1, 2)), y=np.array([0.0])))

    def test_fit_records_the_medians_it_is_given_and_the_names(self):
        ds = Dataset(x=np.array([[1.0, 4.0], [3.0, 8.0]]), y=np.array([0.0, 1.0]),
                     feature_names=("a", "b"))
        medians = np.array([0.1, -7.5])  # not the filled rows' medians
        s = fit_standardizer(ds, medians)
        assert s.medians.view(np.uint64).tolist() == medians.view(np.uint64).tolist()
        assert s.names == ("a", "b")
        assert s.mean.tolist() == [2.0, 6.0] and s.std.tolist() == [1.0, 2.0]

    def test_no_refit_api_exists(self):
        assert not any(
            hasattr(Standardizer, name)
            for name in ("fit", "partial_fit", "update", "refit")
        )

    def test_apply_keeps_the_bits_of_the_whole_expression(self):
        g = np.random.default_rng(8)
        ds = Dataset(x=g.normal(3.0, 50.0, size=(300, 7)), y=np.zeros(300))
        s = Standardizer(g.normal(size=7), g.uniform(0.1, 10.0, size=7), np.zeros(7))
        want = (ds.x - s.mean) / s.std
        got = apply_standardizer(s, ds).x
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rejects_nonpositive_std(self):
        # A non-finite statistic is refused too: an infinite std would zero
        # its feature and a NaN mean would blame the scored data.
        for mean, std in (([0.0, 0.0], [1.0, 0.0]), ([0.0, 0.0], [1.0, -2.0]),
                          ([0.0, 0.0], [1.0, np.inf]), ([0.0, 0.0], [np.nan, 1.0]),
                          ([np.nan, 0.0], [1.0, 1.0]), ([0.0, -np.inf], [1.0, 1.0])):
            with pytest.raises(DataError):
                Standardizer(mean=np.array(mean), std=np.array(std), medians=np.zeros(2))

    @pytest.mark.parametrize("median", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_median(self, median):
        # A scored file's blank cell would take it and fail as bad data.
        with pytest.raises(DataError, match="means, deviations and medians must be finite"):
            Standardizer(np.zeros(2), np.ones(2), [0.0, median], ("a", "b"))

    @pytest.mark.parametrize("mean, std, medians", [
        ([0.0] * 3, [1.0] * 2, [0.0] * 2),
        ([0.0] * 2, [1.0] * 3, [0.0] * 2),
        ([0.0] * 2, [1.0] * 2, [0.0] * 3),  # more medians than the file's two features
        ([0.0] * 2, [1.0] * 2, [0.0]),
    ])
    def test_rejects_arrays_of_unequal_lengths(self, mean, std, medians):
        with pytest.raises(ShapeError, match="means, deviations and medians have shapes"):
            Standardizer(mean, std, medians, FEATURES)

    @pytest.mark.parametrize("names", [("a",), ("a", "b", "c")])
    def test_rejects_a_name_count_other_than_none_or_the_width(self, names):
        with pytest.raises(ShapeError, match=f"{len(names)} feature names for 2 features"):
            Standardizer(*_IDENTITY, names)
        assert Standardizer(*_IDENTITY).names == ()

    @pytest.mark.parametrize("names, why", [
        (("a", "a"), "feature column 'a' appears more than once"),
        ((" a", "b"), "feature column ' a' has surrounding whitespace"),
    ], ids=["repeated", "surrounding whitespace"])
    def test_rejects_a_name_no_header_can_give(self, names, why):
        # A model that recorded one would load and then score no file.
        with pytest.raises(DataError, match=re.escape(why)):
            Standardizer(*_IDENTITY, names)


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


def _scored(path, schema):
    """Every block :func:`read_blocks` gives for ``path``, scored as by a model
    of the file's own feature names with zero medians and deviations of 0.01."""
    with _csv_rows(path) as (header, _):
        names = _feature_names(header, schema)
    zeros = np.zeros(len(names))
    s = Standardizer(zeros, np.full(len(names), 0.01), zeros, names)
    return list(read_blocks(path, schema, 2, s))


_LABEL_ONLY = b'{"target": "label"}'


@given(schema_bytes=_schema_bytes, csv_bytes=_csv_bytes)
# A finite median whose training mean overflows, as train and baseline read it.
@example(schema_bytes=_LABEL_ONLY,
         csv_bytes=b"a,label\n" + b"1.7e308,0\n1.7e308,1\n" * 2 + b"1.7e308,0\n0,1\n0,0\n")
# A cell that overflows when standardized with a small deviation, as evaluate reads it.
@example(schema_bytes=_LABEL_ONLY, csv_bytes=b"a,label\n1.7e308,0\n0,1\n")
@settings(max_examples=300, deadline=None)
def test_loaders_raise_only_package_errors_on_arbitrary_bytes(schema_bytes, csv_bytes):
    """Whatever bytes the files hold, the loaders either succeed or raise a
    DeepLdaError subclass (or an OSError); nothing else escapes, and numpy
    warns of nothing (the suite runs RuntimeWarning as an error)."""
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
        for read in (lambda: clean(load_csv(csv_path, schema), schema),
                     lambda: load_split(csv_path, schema, 0.25, SplitMix64(0)),
                     lambda: _scored(csv_path, schema)):
            try:
                read()
            except (DeepLdaError, OSError):
                pass
