"""Confusion metrics, report formats, the curve CSV format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeplda import (
    ConfusionMatrix,
    EpochRecord,
    TrainingHistory,
    accuracy,
    confusion,
    f_score,
    format_report,
    history_to_csv,
    precision,
    recall,
)
from deeplda.metrics import CURVE_HEADER, DegenerateMetricWarning


class TestConfusion:
    def test_counts_by_quadrant(self):
        cm = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 1)
        assert cm.total == 5

    def test_rejects_non_binary_and_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1, 2], [1, 0])
        with pytest.raises(ValueError):
            confusion([1], [1, 0])
        with pytest.raises(ValueError):
            confusion([], [])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=1)


class TestHeadlineValues:
    """The reference counts behind the reported headline percentages."""

    CM = ConfusionMatrix(tp=8, fp=1, fn=2, tn=22)

    def test_precision_8_of_9(self):
        assert abs(precision(self.CM) - 0.8888) <= 0.0005

    def test_recall_80_percent(self):
        assert abs(recall(self.CM) - 0.80) <= 0.0005

    def test_f_score(self):
        assert abs(f_score(self.CM) - 0.8421) <= 0.0005

    def test_accuracy_30_of_33(self):
        assert abs(accuracy(self.CM) - 0.90909) <= 0.0005

    def test_exhaustive_search_finds_this_matrix_first(self):
        # smallest-total integer matrix hitting all four values at once
        hits = []
        for total in range(1, self.CM.total + 1):
            for tp in range(total + 1):
                for fp in range(total + 1 - tp):
                    for fn in range(total + 1 - tp - fp):
                        tn = total - tp - fp - fn
                        if tp + fp == 0 or tp + fn == 0:
                            continue
                        cm = ConfusionMatrix(tp, fp, fn, tn)
                        if (abs(precision(cm) - 0.8888) <= 0.0005
                                and abs(recall(cm) - 0.80) <= 0.0005
                                and abs(f_score(cm) - 0.8421) <= 0.0005
                                and abs(accuracy(cm) - 0.90909) <= 0.0005):
                            hits.append(cm)
            if hits:
                break
        assert hits == [self.CM]


class TestDegenerateMetrics:
    def test_no_predicted_positives_warns(self):
        cm = ConfusionMatrix(tp=0, fp=0, fn=3, tn=7)
        with pytest.warns(DegenerateMetricWarning):
            assert precision(cm) == 0.0

    def test_no_actual_positives_warns(self):
        cm = ConfusionMatrix(tp=0, fp=2, fn=0, tn=8)
        with pytest.warns(DegenerateMetricWarning):
            assert recall(cm) == 0.0

    def test_f_score_zero_when_both_zero(self):
        cm = ConfusionMatrix(tp=0, fp=0, fn=0, tn=5)
        with pytest.warns(DegenerateMetricWarning):
            assert f_score(cm) == 0.0


class TestReport:
    def test_format_contains_matrix_and_all_four_lines(self):
        text = format_report(ConfusionMatrix(8, 1, 2, 22))
        assert "confusion matrix (positive class = 1)" in text
        for line in ("accuracy   0.909091", "precision  0.888889",
                     "recall     0.800000", "f_score    0.842105"):
            assert line in text
        assert "pred=1" in text and "actual=0" in text

    def test_format_report_aligns_counts(self):
        text = format_report(ConfusionMatrix(2, 0, 1, 2))
        row1 = next(l for l in text.splitlines() if l.startswith("  actual=1"))
        assert row1.split() == ["actual=1", "2", "1"]


class TestMetricBoundsProperty:
    @given(tp=st.integers(0, 200), fp=st.integers(0, 200),
           fn=st.integers(0, 200), tn=st.integers(0, 200))
    @settings(max_examples=120, deadline=None)
    def test_all_metrics_lie_in_unit_interval(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        cm = ConfusionMatrix(tp, fp, fn, tn)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateMetricWarning)
            for metric in (accuracy, precision, recall, f_score):
                assert 0.0 <= metric(cm) <= 1.0

    @given(pred=st.lists(st.integers(0, 1), min_size=1, max_size=60),
           true=st.lists(st.integers(0, 1), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_confusion_total_equals_sample_count(self, pred, true):
        n = min(len(pred), len(true))
        cm = confusion(pred[:n], true[:n])
        assert cm.total == n


class TestHistory:
    def _history(self, n=3):
        h = TrainingHistory()
        for e in range(1, n + 1):
            h.append(EpochRecord(e, 0.5 + e / 100, 1.0 / e, 0.4 + e / 100, 1.1 / e))
        return h

    def test_epoch_contiguity_enforced(self):
        h = self._history(2)
        with pytest.raises(ValueError):
            h.append(EpochRecord(5, 0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            TrainingHistory(records=[EpochRecord(2, 0.5, 0.5, 0.5, 0.5)])

    def test_record_validation(self):
        with pytest.raises(ValueError):
            EpochRecord(0, 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            EpochRecord(1, 1.2, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            EpochRecord(1, 0.5, -0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            EpochRecord(1, 0.5, float("nan"), 0.5, 0.5)

    def test_csv_header_and_formatting(self, tmp_path):
        path = tmp_path / "curve.csv"
        h = TrainingHistory()
        h.append(EpochRecord(1, 0.5, 0.693147180559945, 0.25, 1.0))
        h.append(EpochRecord(2, 0.75, 0.25, 0.5, 0.125))
        history_to_csv(h, path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "Epochs,accuracy,loss,val_accuracy,val_loss"
        assert lines[1] == "1,0.5,0.693147,0.25,1"
        assert text.endswith("\n")

    def test_empty_history_refused(self, tmp_path):
        with pytest.raises(ValueError):
            history_to_csv(TrainingHistory(), tmp_path / "x.csv")

    def test_curve_header_constant(self):
        assert CURVE_HEADER == ("Epochs", "accuracy", "loss", "val_accuracy", "val_loss")
