"""Command-line behavior: artifacts, determinism, exit codes, reports."""

import contextlib
import csv
import io
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import deeplda.cli
from conftest import child_env
from deeplda import Dataset, SplitMix64, stratified_split
from deeplda.cli import main
from deeplda.data import _parse_cell


def _run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def _tree(path):
    """The bytes of every file under ``path`` by relative name, the bytes of
    ``path`` itself if it is a file, its target if it is a link, or None if
    nothing is there."""
    path = Path(path)
    if not os.path.lexists(path):
        return None
    if path.is_symlink():
        return os.readlink(path)
    if not path.is_dir():
        return path.read_bytes()
    return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
            for p in sorted(path.rglob("*"))}


RUN_FILES = ["lda.csv", "manifest.json", "metrics.txt", "model", "svm.csv"]
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def _train_args(toy_csv, out_dir, *extra):
    csv_path, schema_path = toy_csv
    return ["train", "--data", str(csv_path), "--schema", str(schema_path),
            "--out", str(out_dir), *extra]


FAST = ("--epochs", "3", "--lr", "1e-3")


class TestTrainCommand:
    def test_emits_exactly_five_artifacts(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = _run(capsys, *_train_args(toy_csv, out, *FAST))
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "lda.csv", "manifest.json", "metrics.txt", "model", "svm.csv",
        ]
        assert sorted(p.name for p in (out / "model").iterdir()) == [
            "manifest.json", "phase1.npz", "phase2.npz",
        ]

    def test_every_file_and_directory_of_a_run_is_synced_once(self, toy_csv, tmp_path,
                                                              capsys, monkeypatch):
        # Files are known by inode, which the renames of the swap keep.
        synced, real_fsync = [], os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            synced.append((st.st_dev, st.st_ino))
            real_fsync(fd)

        out = tmp_path / "run"
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fsync)
            assert _run(capsys, *_train_args(toy_csv, out, "--epochs", "1"))[0] == 0
        landed = [tmp_path, out, *out.rglob("*")]
        assert len(landed) == 10  # the parent, the run, model/ and seven files
        assert sorted(synced) == sorted((os.stat(p).st_dev, os.stat(p).st_ino) for p in landed)

    def test_phase1_scores_no_row_twice_per_pass(self, toy_csv, tmp_path, capsys,
                                                   monkeypatch):
        # Phase 1 scores the validation rows once per epoch and the training
        # rows once; phase 2's validation input and the report reuse passes.
        import deeplda.network
        import deeplda.pipeline

        rows = []
        real = deeplda.network.predict

        def counting(net, x, *args, **kwargs):
            if net.spec.input_dim != 1:
                rows.append(len(x))
            return real(net, x, *args, **kwargs)

        monkeypatch.setattr(deeplda.network, "predict", counting)
        monkeypatch.setattr(deeplda.pipeline, "predict", counting)
        out = tmp_path / "run"
        assert _run(capsys, *_train_args(toy_csv, out, *FAST))[0] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sum(rows) == 3 * manifest["n_val"] + manifest["n_train"]

    def test_same_seed_byte_identical_outputs(self, toy_csv, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(capsys, *_train_args(toy_csv, a, "--seed", "7", *FAST))[0] == 0
        assert _run(capsys, *_train_args(toy_csv, b, "--seed", "7", *FAST))[0] == 0
        for name in ("lda.csv", "svm.csv", "metrics.txt",
                     "model/phase1.npz", "model/phase2.npz", "model/manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_lives_in_model_manifest_only(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert _run(capsys, *_train_args(toy_csv, out, "--seed", "7", *FAST))[0] == 0
        model_manifest = json.loads((out / "model" / "manifest.json").read_text())
        run_manifest = json.loads((out / "manifest.json").read_text())
        assert model_manifest["seed"] == run_manifest["seed"] == 7
        for config in (model_manifest["config1"], model_manifest["config2"],
                       run_manifest["phase1"], run_manifest["phase2"]):
            assert "seed" not in config

    def test_retrain_into_same_directory_replaces_model(self, toy_csv, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(capsys, *_train_args(toy_csv, a, "--seed", "1", *FAST))[0] == 0
        assert _run(capsys, *_train_args(toy_csv, b, "--seed", "2", *FAST))[0] == 0
        assert _run(capsys, *_train_args(toy_csv, a, "--seed", "2", *FAST))[0] == 0
        assert sorted(p.name for p in a.iterdir()) == [
            "lda.csv", "manifest.json", "metrics.txt", "model", "svm.csv",
        ]
        for name in ("phase1.npz", "phase2.npz", "manifest.json"):
            assert (a / "model" / name).read_bytes() == (b / "model" / name).read_bytes()

    def test_empty_out_directory_is_replaced_by_the_run(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        assert _run(capsys, *_train_args(toy_csv, out, *FAST))[0] == 0
        assert sorted(p.name for p in out.iterdir()) == RUN_FILES
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    @pytest.mark.parametrize("kind", ["file", "directory with a foreign file",
                                      "previous run with a foreign file",
                                      "foreign directory named through a missing one",
                                      "working directory named by an empty string"])
    def test_out_that_is_not_a_run_is_refused_before_any_work(self, toy_csv, tmp_path,
                                                               capsys, monkeypatch, kind):
        out = tmp_path / "run"
        arg = {"foreign directory named through a missing one": str(tmp_path / "no" / ".." / "run"),
               "working directory named by an empty string": ""}.get(kind, str(out))
        monkeypatch.chdir(out.parent)
        if kind == "file":
            out.write_text("not a run")
        else:
            if kind.startswith("previous run"):
                assert _run(capsys, *_train_args(toy_csv, out, *FAST))[0] == 0
            else:
                out.mkdir()
            (out / "notes.txt").write_text("kept")
        before = _tree(tmp_path)
        # The data file does not exist: reading it first would be another data error.
        code, _, err = _run(capsys, "train", "--data", str(tmp_path / "missing.csv"),
                            "--schema", str(toy_csv[1]), "--out", arg)
        assert code == 2
        assert f"--out {arg} is not absent" in err
        assert "missing.csv" not in err
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("previous", [False, True])
    def test_failed_write_leaves_no_partial_run(self, toy_csv, tmp_path, capsys, monkeypatch,
                                                previous):
        out = tmp_path / "run"
        if previous:
            assert _run(capsys, *_train_args(toy_csv, out, "--seed", "1", *FAST))[0] == 0
        before = _tree(out)
        calls = []

        def fail_after_model_save(history, path):
            calls.append(os.listdir(os.path.join(os.path.dirname(path), "model")))
            raise OSError("disk full")

        monkeypatch.setattr(deeplda.cli, "history_to_csv", fail_after_model_save)
        code, _, err = _run(capsys, *_train_args(toy_csv, out, "--seed", "2", *FAST))
        assert code == 2
        assert "disk full" in err
        assert sorted(calls[0]) == ["manifest.json", "phase1.npz", "phase2.npz"]
        assert _tree(out) == before  # None for a fresh --out
        assert sorted(p.name for p in tmp_path.iterdir()) == (["run"] if previous else [])

    @pytest.mark.parametrize("error, code, line", [
        (KeyboardInterrupt(), 130, "deeplda: interrupted"),
        (MemoryError("Unable to allocate 8.00 EiB"), 2,
         "deeplda: out of memory: Unable to allocate 8.00 EiB"),
        (MemoryError(), 2, "deeplda: out of memory"),
    ], ids=["interrupt", "out of memory", "out of memory without a message"])
    def test_interrupt_or_out_of_memory_ends_in_one_line(self, toy_csv, tmp_path, capsys,
                                                         monkeypatch, error, code, line):
        out = tmp_path / "run"
        assert _run(capsys, *_train_args(toy_csv, out, "--seed", "1", *FAST))[0] == 0
        before = _tree(out)

        def fail(model, directory):
            raise error

        monkeypatch.setattr(deeplda.cli, "_write_two_phase", fail)
        got, _, err = _run(capsys, *_train_args(toy_csv, out, "--seed", "2", *FAST))
        assert got == code
        # click puts a newline before its Abort, which ends a terminal's "^C" line.
        assert [text for text in err.splitlines() if text] == [line]
        assert _tree(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]  # no *.tmp-* sibling

    def test_sigterm_ends_in_one_line_and_restores_the_handler(self, toy_csv, tmp_path,
                                                               capsys, monkeypatch):
        out = tmp_path / "run"
        previous = signal.getsignal(signal.SIGTERM)
        monkeypatch.setattr(deeplda.cli, "_write_two_phase",
                            lambda model, directory: os.kill(os.getpid(), signal.SIGTERM))
        code, _, err = _run(capsys, *_train_args(toy_csv, out, "--seed", "2", *FAST))
        assert (code, err) == (143, "deeplda: terminated\n")
        assert list(tmp_path.iterdir()) == []
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_sigterm_during_the_swap_leaves_out_as_it_was(self, clinical_csv, clinical_run,
                                                          tmp_path):
        # A real `train` in a child process, held inside the swap (after the
        # model is written) until the signal comes.
        out = tmp_path / "run"
        shutil.copytree(clinical_run, out)
        before = _tree(out)
        code = ("import sys, time, deeplda.cli\n"
                "deeplda.cli.history_to_csv = lambda *args: time.sleep(600)\n"
                "sys.exit(deeplda.cli.main(sys.argv[1:]))")
        proc = subprocess.Popen([sys.executable, "-c", code,
                                 *_train_args(clinical_csv, out, "--epochs", "1")],
                                env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 300
            while not list(tmp_path.glob("run.tmp-*")) and proc.poll() is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        # One epoch predicts one class, so the report before the swap warns.
        lines = [line for line in err.splitlines() if not line.startswith("deeplda: warning: ")]
        assert (proc.returncode, lines) == (143, ["deeplda: terminated"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]  # no *.tmp-* sibling
        assert _tree(out) == before

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_is_numerical_error(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, err = _run(capsys, *_train_args(toy_csv, out, "--epochs", "2",
                                                 "--lr", "1e300"))
        assert code == 3
        assert "numerical error: phase 1:" in err
        assert "epoch 1, batch" in err
        assert "Traceback" not in err
        assert not (out / "model").exists()

    def test_different_seed_changes_curves(self, toy_csv, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        _run(capsys, *_train_args(toy_csv, a, "--seed", "1", *FAST))
        _run(capsys, *_train_args(toy_csv, b, "--seed", "2", *FAST))
        assert (a / "lda.csv").read_bytes() != (b / "lda.csv").read_bytes()

    def test_manifest_materializes_defaults(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = _run(capsys, *_train_args(toy_csv, out, "--epochs", "2"))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["val_fraction"] == 0.2
        for phase in ("phase1", "phase2"):
            assert manifest[phase]["learning_rate"] == 1e-5
            assert manifest[phase]["batch_size"] == 64
            assert manifest[phase]["epochs"] == 2
            assert manifest[phase]["l2_lambda"] == 0.01

    def test_curve_files_have_fixed_header(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "run"
        _run(capsys, *_train_args(toy_csv, out, *FAST))
        for name in ("lda.csv", "svm.csv"):
            first = (out / name).read_text().splitlines()[0]
            assert first == "Epochs,accuracy,loss,val_accuracy,val_loss"

    def test_config_file_resolution_order(self, toy_csv, tmp_path, capsys):
        csv_path, schema_path = toy_csv
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "data": str(csv_path),
            "schema": str(schema_path),
            "out": str(tmp_path / "from_config"),
            "seed": 5,
            "epochs": 2,
            "lr": 1e-4,
            "phase2": {"epochs": 4},
        }))
        code, _, _ = _run(capsys, "train", "--config", str(cfg), "--lr", "1e-3")
        assert code == 0
        manifest = json.loads((tmp_path / "from_config" / "manifest.json").read_text())
        # flag beats config file
        assert manifest["phase1"]["learning_rate"] == 1e-3
        assert manifest["phase2"]["learning_rate"] == 1e-3
        # phase section beats top level
        assert manifest["phase1"]["epochs"] == 2
        assert manifest["phase2"]["epochs"] == 4
        assert manifest["seed"] == 5

    def test_unknown_config_key_is_usage_error(self, toy_csv, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lr": 1e-3, "epoch": 5}))
        code, _, err = _run(capsys, "train", "--config", str(cfg))
        assert code == 1
        assert "epoch" in err

    @pytest.mark.parametrize("phase", ["phase1", "phase2"])
    def test_unknown_key_in_a_phase_section_is_usage_error(self, toy_csv, tmp_path, capsys,
                                                          phase):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({phase: {"lr": 1e-3, "epoch": 5}}))
        code, _, err = _run(capsys, *_train_args(toy_csv, tmp_path / "run", "--config", str(cfg)))
        assert code == 1
        assert f"unknown keys in '{phase}': ['epoch']" in err
        assert not (tmp_path / "run").exists()

    def test_missing_required_option(self, toy_csv, tmp_path, capsys):
        csv_path, schema_path = toy_csv
        code, _, err = _run(capsys, "train", "--data", str(csv_path),
                            "--schema", str(schema_path))
        assert code == 1
        assert "--out" in err

    @pytest.mark.parametrize("how", ["flag", "top-level config", "phase1 config",
                                     "phase2 config"])
    def test_zero_epochs_is_usage_error_before_any_work(self, tmp_path, capsys, how):
        cfg = {"flag": {}, "top-level config": {"epochs": 0},
               "phase1 config": {"phase1": {"epochs": 0}},
               "phase2 config": {"phase2": {"epochs": 0}}}[how]
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        out = tmp_path / "run"
        # The data file does not exist: reading it would be a data error (2).
        code, _, err = _run(capsys, "train", "--data", str(tmp_path / "missing.csv"),
                            "--schema", str(tmp_path / "missing.json"), "--out", str(out),
                            "--config", str(tmp_path / "run.json"),
                            *(["--epochs", "0"] if how == "flag" else []))
        assert code == 1
        assert "epochs must be at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        {"lr": None}, {"val_fraction": {}}, {"seed": [1]}, {"phase2": {"epochs": [3]}},
        {"data": 5}, {"schema": ["s.json"]}, {"out": 5},
        {"epochs": 2.7}, {"batch_size": True}, {"seed": 1.9}, {"lr": "1e-3"},
        {"val_fraction": "0.2"}, {"phase1": {"threshold": False}},
        {"lr": float("nan")}, {"l2": float("inf")}, {"phase2": {"lr": -float("inf")}},
    ], ids=repr)
    def test_ill_typed_config_value_is_usage_error_before_any_work(self, tmp_path, capsys,
                                                                   cfg):
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        args = {"--data": str(tmp_path / "missing.csv"), "--schema": str(tmp_path / "s.json"),
                "--out": str(tmp_path / "run")}
        for key in ("data", "schema", "out"):  # the config value is used only without a flag
            if key in cfg:
                del args[f"--{key}"]
        # The data file does not exist: reading it would be a data error (2).
        code, _, err = _run(capsys, "train", "--config", str(tmp_path / "run.json"),
                            *[x for item in args.items() for x in item])
        assert code == 1
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"),
                                            ("--l2", "nan"), ("--l2", "inf")])
    def test_non_finite_rate_flag_is_usage_error_before_any_work(self, tmp_path, capsys,
                                                                 flag, value):
        out = tmp_path / "run"
        # The data file does not exist: reading it would be a data error (2).
        code, _, err = _run(capsys, "train", "--data", str(tmp_path / "missing.csv"),
                            "--schema", str(tmp_path / "s.json"), "--out", str(out),
                            flag, value)
        assert code == 1
        assert "must be finite" in err
        assert not out.exists()

    def test_integer_learning_rate_is_recorded_as_float(self, toy_csv, tmp_path, capsys):
        (tmp_path / "run.json").write_text(json.dumps({"lr": 1}))
        out = tmp_path / "run"
        code, _, _ = _run(capsys, *_train_args(toy_csv, out, "--epochs", "1",
                                               "--config", str(tmp_path / "run.json")))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for phase in ("phase1", "phase2"):
            rate = manifest[phase]["learning_rate"]
            assert type(rate) is float and rate == 1.0


@pytest.fixture(scope="module")
def overfit_run(toy_csv, tmp_path_factory):
    # weight decay off so the small run converges instead of shrinking
    out = tmp_path_factory.mktemp("overfit") / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(_train_args(toy_csv, out, "--epochs", "80",
                                "--lr", "1e-3", "--l2", "0", "--seed", "3"))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def clinical_run(clinical_csv, tmp_path_factory):
    """A one-epoch run on the clinical-shaped file, whose cells are ~1% blank."""
    out = tmp_path_factory.mktemp("clinical") / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(_train_args(clinical_csv, out, "--epochs", "1"))
    assert code == 0
    return out


class TestEvaluateCommand:

    def test_training_data_of_overfit_run_scores_high(
            self, toy_csv, overfit_run, capsys):
        csv_path, schema_path = toy_csv
        code, stdout, _ = _run(capsys, "evaluate", "--model",
                               str(overfit_run / "model"), "--data", str(csv_path),
                               "--schema", str(schema_path))
        assert code == 0
        acc = float(re.search(r"accuracy\s+([0-9.]+)", stdout).group(1))
        assert acc >= 0.99

    def test_report_contains_matrix_and_four_metrics(
            self, toy_csv, overfit_run, capsys):
        csv_path, schema_path = toy_csv
        _, stdout, _ = _run(capsys, "evaluate", "--model",
                            str(overfit_run / "model"), "--data", str(csv_path),
                            "--schema", str(schema_path))
        assert "confusion matrix (positive class = 1)" in stdout
        for metric in ("accuracy", "precision", "recall", "f_score"):
            assert re.search(rf"{metric}\s+[0-9.]+", stdout)
        assert "pred=1" in stdout

    def test_swapped_positive_label_transposes_roles(
            self, toy_csv, overfit_run, tmp_path, capsys):
        csv_path, schema_path = toy_csv
        swapped = tmp_path / "swapped.schema.json"
        original = json.loads(schema_path.read_text())
        original["positive_label"] = "0"
        swapped.write_text(json.dumps(original))

        def counts(schema_file):
            _, stdout, _ = _run(capsys, "evaluate", "--model",
                                str(overfit_run / "model"), "--data", str(csv_path),
                                "--schema", str(schema_file))
            rows = re.findall(r"actual=[10]\s+(\d+)\s+(\d+)", stdout)
            (tp, fn), (fp, tn) = rows
            return int(tp), int(fp), int(fn), int(tn)

        tp, fp, fn, tn = counts(schema_path)
        tp2, fp2, fn2, tn2 = counts(swapped)
        assert (tp2, fp2, fn2, tn2) == (fp, tp, tn, fn)

    @staticmethod
    def _narrowed(schema_path, tmp_path):
        """A copy of the schema that also drops feature ``a``."""
        narrowed = tmp_path / "narrow.schema.json"
        original = json.loads(schema_path.read_text())
        original["drop"] = original["drop"] + ["a"]
        narrowed.write_text(json.dumps(original))
        return narrowed

    def test_feature_mismatch_is_data_error(self, toy_csv, overfit_run,
                                            tmp_path, capsys):
        # The file is one feature narrower than the model's standardizer,
        # which evaluate applies as it reads: the model's names are still
        # what the message compares.
        csv_path, schema_path = toy_csv
        code, _, err = _run(capsys, "evaluate", "--model",
                            str(overfit_run / "model"), "--data", str(csv_path),
                            "--schema", str(self._narrowed(schema_path, tmp_path)))
        assert code == 2
        assert "features" in err
        assert "['b', 'c', 'd', 'e'] do not match the model's ['a', 'b'" in err
        assert "Traceback" not in err

    def test_renamed_feature_is_data_error(self, toy_csv, overfit_run, tmp_path, capsys):
        # As wide as the model's features, so the standardizer alone would take it.
        csv_path, schema_path = toy_csv
        header, rest = csv_path.read_text(encoding="utf-8").split("\n", 1)
        assert header.startswith("id,a,b,")
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(header.replace("id,a,", "id,a2,", 1) + "\n" + rest,
                           encoding="utf-8")
        code, _, err = _run(capsys, "evaluate", "--model", str(overfit_run / "model"),
                            "--data", str(renamed), "--schema", str(schema_path))
        assert code == 2
        assert "['a2', 'b', 'c', 'd', 'e'] do not match the model's ['a', 'b'" in err
        assert "Traceback" not in err

    @staticmethod
    def _edited_model(run, tmp_path, edit):
        """A copy of ``run``'s model directory whose manifest ``edit`` changed."""
        model = tmp_path / "model"
        model.mkdir()
        for p in (run / "model").iterdir():
            (model / p.name).write_bytes(p.read_bytes())
        manifest = json.loads((model / "manifest.json").read_text())
        edit(manifest)
        (model / "manifest.json").write_text(json.dumps(manifest))
        return model

    def test_model_with_null_feature_names_is_refused(self, toy_csv, overfit_run, tmp_path,
                                                      capsys):
        model = self._edited_model(overfit_run, tmp_path, lambda d: d.update(feature_names=None))
        csv_path, schema_path = toy_csv
        code, _, err = _run(capsys, "evaluate", "--model", str(model), "--data", str(csv_path),
                            "--schema", str(self._narrowed(schema_path, tmp_path)))
        assert code == 2
        assert err == (f"deeplda: data error: model manifest {model / 'manifest.json'} is "
                       "malformed: feature_names must be a list of strings, got None\n")

    def test_names_are_checked_before_any_row(self, toy_csv, overfit_run, tmp_path, capsys):
        csv_path, schema_path = toy_csv
        header, rest = csv_path.read_text(encoding="utf-8").split("\n", 1)
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(header.replace("id,a,", "id,a2,", 1) + "\n" + rest + "1,2\n",
                           encoding="utf-8")
        code, _, err = _run(capsys, "evaluate", "--model", str(overfit_run / "model"),
                            "--data", str(renamed), "--schema", str(schema_path))
        assert code == 2
        assert "do not match the model's" in err and "row 101" not in err

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # as outside the test suite
    def test_a_cell_that_overflows_when_standardized_is_one_data_error(
            self, toy_csv, overfit_run, tmp_path, capsys):
        model = self._edited_model(overfit_run, tmp_path,
                                   lambda d: d["standardizer"]["std"].__setitem__(0, 0.01))
        csv_path, schema_path = toy_csv
        header, first, rest = csv_path.read_text(encoding="utf-8").split("\n", 2)
        first = first.split(",")
        first[header.split(",").index("a")] = "1.7e308"
        path = tmp_path / "big.csv"
        path.write_text("\n".join([header, ",".join(first), rest]), encoding="utf-8")
        code, _, err = _run(capsys, "evaluate", "--model", str(model), "--data", str(path),
                            "--schema", str(schema_path))
        assert code == 2
        assert err == "deeplda: data error: column 'a' holds non-finite values after cleaning\n"

    @staticmethod
    def _blank_weight_row(clinical_csv, tmp_path):
        """The clinical file's header and first row, with that row's weight blank."""
        with open(clinical_csv[0], newline="", encoding="utf-8") as fh:
            header, row = itertools.islice(csv.reader(fh), 2)
        row[header.index("Weight (Kg)")] = ""
        path = tmp_path / "one.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, row])
        return path

    def test_one_row_with_a_blank_cell_takes_the_training_median(
            self, clinical_csv, clinical_run, tmp_path, capsys):
        path = self._blank_weight_row(clinical_csv, tmp_path)
        code, stdout, err = _run(capsys, "evaluate", "--model", str(clinical_run / "model"),
                                 "--data", str(path), "--schema", str(clinical_csv[1]))
        assert code == 0, err
        counts = re.findall(r"actual=[10]\s+(\d+)\s+(\d+)", stdout)
        assert sum(int(c) for row in counts for c in row) == 1

    def test_model_without_medians_is_refused(self, clinical_csv, clinical_run, tmp_path,
                                              capsys):
        model = self._edited_model(clinical_run, tmp_path, lambda d: d.pop("medians"))
        path = self._blank_weight_row(clinical_csv, tmp_path)
        code, _, err = _run(capsys, "evaluate", "--model", str(model),
                            "--data", str(path), "--schema", str(clinical_csv[1]))
        assert code == 2
        assert err == (f"deeplda: data error: model manifest {model / 'manifest.json'} "
                       "lacks the key 'medians'\n")

    def test_train_records_the_medians_it_imputed_with(self, clinical_csv, clinical_run):
        # The median of each column's parsed, usable cells over the training
        # rows only: the rows stratified_split draws at the run's seed.
        with open(clinical_csv[0], newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        manifest = json.loads((clinical_run / "model" / "manifest.json").read_text())
        run = json.loads((clinical_run / "manifest.json").read_text())
        labels = [float(row[header.index("PCOS (Y/N)")] == "1") for row in rows]
        ids = Dataset(x=np.arange(float(len(rows))).reshape(-1, 1), y=labels)
        train, _ = stratified_split(ids, run["val_fraction"], SplitMix64(manifest["seed"]))
        train_rows = [rows[int(i)] for i in train.x[:, 0]]
        assert len(train_rows) == run["n_train"]
        names = manifest["feature_names"]
        want = []
        for name in names:
            j = header.index(name)
            values = np.array([_parse_cell(row[j]) for row in train_rows])
            want.append(np.median(values[~np.isnan(values)]))
        assert np.array(manifest["medians"]).view(np.uint64).tolist() == \
            np.array(want).view(np.uint64).tolist()
        assert any(any(row[header.index(n)] == "" for row in train_rows) for n in names)

    @pytest.mark.parametrize("damage", [
        "manifest_without_config1",
        "manifest_config_ill_typed",
        "manifest_feature_names_ill_typed",
        "manifest_std_infinite",
        "manifest_mean_nan",
        "manifest_medians_nan",
        "manifest_medians_short",
        "manifest_medians_ill_typed",
        "manifest_medians_bool",
        "phase1_truncated",
        "phase1_not_zip",
        "phase1_missing_w1",
        "phase2_missing_b0",
        "phase1_header_not_json",
        "phase1_header_wrong_format",
        "phase1_relu_output",
        "phase2_no_layers",
        "phase2_dropout_only",
        "phase2_two_unit_head",
        "phase2_weight_nan",
        "phase1_bias_infinite",
        "format_1_directory",
    ])
    def test_malformed_model_is_data_error(self, toy_csv, overfit_run, tmp_path,
                                           capsys, damage):
        model = tmp_path / "model"
        model.mkdir()
        for p in (overfit_run / "model").iterdir():
            (model / p.name).write_bytes(p.read_bytes())
        manifest = json.loads((model / "manifest.json").read_text())

        def rewrite(name, drop=(), **replace):
            with np.load(model / name, allow_pickle=False) as npz:
                entries = {k: npz[k] for k in npz.files if k not in drop}
            entries.update(replace)
            with open(model / name, "wb") as fh:
                np.savez(fh, **entries)

        def respec(name, edit, drop=(), **replace):
            """Rewrite a network file's layer list to ``edit(layers)``."""
            with np.load(model / name, allow_pickle=False) as npz:
                header = json.loads(npz["header"][()])
            header["spec"]["layers"] = edit(header["spec"]["layers"])
            rewrite(name, drop, header=np.array(json.dumps(header)), **replace)

        if damage == "manifest_without_config1":
            del manifest["config1"]
        elif damage == "manifest_config_ill_typed":
            manifest["config2"]["threshold"] = "half"
        elif damage == "manifest_feature_names_ill_typed":
            manifest["feature_names"] = 5
        elif damage == "manifest_std_infinite":
            manifest["standardizer"]["std"][0] = float("inf")  # written as Infinity
        elif damage == "manifest_mean_nan":
            manifest["standardizer"]["mean"][0] = float("nan")  # written as NaN
        elif damage == "manifest_medians_nan":
            manifest["medians"][0] = float("nan")  # written as NaN
        elif damage == "manifest_medians_short":
            manifest["medians"].pop()
        elif damage == "manifest_medians_ill_typed":
            manifest["medians"][0] = "0.5"
        elif damage == "manifest_medians_bool":
            manifest["medians"][0] = True
        elif damage == "phase1_truncated":
            blob = (model / "phase1.npz").read_bytes()
            (model / "phase1.npz").write_bytes(blob[: len(blob) // 3])
        elif damage == "phase1_not_zip":
            (model / "phase1.npz").write_bytes(b"\x93NUMPY not a model")
        elif damage == "phase1_missing_w1":
            rewrite("phase1.npz", drop=("w1",))
        elif damage == "phase2_missing_b0":
            rewrite("phase2.npz", drop=("b0",))
        elif damage == "phase1_header_not_json":
            rewrite("phase1.npz", header=np.array("{not json"))
        elif damage == "phase1_header_wrong_format":
            rewrite("phase1.npz", header=np.array('{"format": "deeplda.network/1"}'))
        elif damage == "phase1_relu_output":
            respec("phase1.npz", lambda layers: layers[:-1] + [
                dict(layers[-1], activation="relu")])
        elif damage == "phase2_no_layers":  # phase 2 is dense, dropout, dense
            respec("phase2.npz", lambda layers: [], drop=("w0", "b0", "w1", "b1"))
        elif damage == "phase2_dropout_only":
            respec("phase2.npz", lambda layers: [layers[1]], drop=("w0", "b0", "w1", "b1"))
        elif damage == "phase2_two_unit_head":
            respec("phase2.npz", lambda layers: layers[:-1] + [dict(layers[-1], units=2)],
                   w1=np.ones((100, 2)), b1=np.zeros((1, 2)))
        elif damage in ("phase2_weight_nan", "phase1_bias_infinite"):
            # A NaN weight would score every row as class 0 and exit 0.
            name, entry, value = (("phase2.npz", "w1", np.nan) if damage == "phase2_weight_nan"
                                  else ("phase1.npz", "b2", -np.inf))
            with np.load(model / name, allow_pickle=False) as npz:
                poked = npz[entry].copy()
            poked.flat[poked.size // 2] = value
            rewrite(name, **{entry: poked})
        elif damage == "format_1_directory":
            # Format 1 kept a seed in each config and JSON networks.
            manifest["format"] = "deeplda.two-phase/1"
            for key in ("config1", "config2"):
                manifest[key]["seed"] = 0
            for name in ("phase1", "phase2"):
                (model / f"{name}.npz").unlink()
                (model / f"{name}.json").write_text('{"format": "deeplda.network/1"}')
        (model / "manifest.json").write_text(json.dumps(manifest))

        csv_path, schema_path = toy_csv
        code, _, err = _run(capsys, "evaluate", "--model", str(model),
                            "--data", str(csv_path), "--schema", str(schema_path))
        assert code == 2
        assert "data error" in err
        assert "Traceback" not in err
        if damage == "format_1_directory":
            assert "'deeplda.two-phase/1'" in err and "'deeplda.two-phase/2'" in err
        if damage.startswith("manifest_"):
            assert str(model / "manifest.json") in err
        if damage in ("phase2_weight_nan", "phase1_bias_infinite"):
            assert "hold a NaN or infinite value" in err

    def test_missing_model_dir(self, toy_csv, tmp_path, capsys):
        csv_path, schema_path = toy_csv
        code, _, _ = _run(capsys, "evaluate", "--model", str(tmp_path / "none"),
                          "--data", str(csv_path), "--schema", str(schema_path))
        assert code == 2


class TestInspectCommand:
    def test_default_lists_wide_network_counts(self, capsys):
        code, stdout, _ = _run(capsys, "inspect")
        assert code == 0
        for token in ("43,008", "1,049,600", "1,025", "2,143,233"):
            assert token in stdout
        assert stdout.count("1,049,600") == 2

    def test_phase_two_counts(self, capsys):
        code, stdout, _ = _run(capsys, "inspect", "--phase", "2")
        assert code == 0
        for token in ("200", "101", "301"):
            assert token in stdout
        assert "dropout 0.5" in stdout

    def test_custom_input_dim_recomputes(self, capsys):
        code, stdout, _ = _run(capsys, "inspect", "--input-dim", "10")
        assert code == 0
        assert "11,264" in stdout
        assert "2,111,489" in stdout

    def test_phase_out_of_range_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "inspect", "--phase", "3")
        assert code == 1

    def test_phase_two_input_width_is_fixed(self, capsys):
        code, stdout, err = _run(capsys, "inspect", "--phase", "2", "--input-dim", "3")
        assert code == 1
        assert "phase 2 input width is fixed at 1" in err
        assert stdout == ""

    def test_input_dim_below_one_is_usage_error(self, capsys):
        # The library's ValueError, mapped to exit 1 by main.
        code, stdout, err = _run(capsys, "inspect", "--input-dim", "0")
        assert code == 1
        assert err == "deeplda: usage error: input_dim must be >= 1, got 0\n"
        assert stdout == ""


class TestBaselineCommand:
    def test_report_format_matches_evaluate(self, toy_csv, capsys):
        csv_path, schema_path = toy_csv
        code, stdout, _ = _run(capsys, "baseline", "--data", str(csv_path),
                               "--schema", str(schema_path), "--seed", "7")
        assert code == 0
        assert "confusion matrix (positive class = 1)" in stdout
        for metric in ("accuracy", "precision", "recall", "f_score"):
            assert re.search(rf"{metric}\s+[0-9.]+", stdout)

    def test_separable_toy_is_perfectly_classified(self, toy_csv, capsys):
        csv_path, schema_path = toy_csv
        _, stdout, _ = _run(capsys, "baseline", "--data", str(csv_path),
                            "--schema", str(schema_path), "--seed", "7")
        acc = float(re.search(r"accuracy\s+([0-9.]+)", stdout).group(1))
        assert acc == 1.0

    def test_singular_scatter_without_ridge_is_numerical_error(
            self, tmp_path, capsys):
        csv_path = tmp_path / "flat.csv"
        rows = ["a,b,label"]
        g = np.random.default_rng(0)
        for i in range(20):
            rows.append(f"{g.normal():.4f},5.0,{i % 2}")
        csv_path.write_text("\n".join(rows) + "\n")
        schema_path = tmp_path / "flat.schema.json"
        schema_path.write_text(json.dumps({"target": "label"}))
        code, _, err = _run(capsys, "baseline", "--data", str(csv_path),
                            "--schema", str(schema_path), "--ridge", "0")
        assert code == 3
        assert "numerical" in err

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-1"])
    def test_non_finite_ridge_is_usage_error(self, toy_csv, tmp_path, capsys, ridge):
        # The ridge is checked before any data is read, so a missing data
        # file does not turn the usage error into a data error.
        csv_path, schema_path = toy_csv
        for data in (csv_path, tmp_path / "missing.csv"):
            code, stdout, err = _run(capsys, "baseline", "--data", str(data),
                                     "--schema", str(schema_path), "--ridge", ridge)
            assert code == 1, (data, err)
            assert "ridge must be finite and >= 0" in err
            assert "Traceback" not in err
            assert "confusion matrix" not in stdout


class TestExitCodes:
    def test_missing_data_file(self, toy_csv, tmp_path, capsys):
        _, schema_path = toy_csv
        code, _, err = _run(capsys, "train", "--data", str(tmp_path / "no.csv"),
                            "--schema", str(schema_path), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "not found" in err

    def test_unknown_option(self, capsys):
        code, _, err = _run(capsys, "train", "--nope")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = _run(capsys, "frobnicate")
        assert code == 1

    def test_bad_val_fraction(self, toy_csv, tmp_path, capsys):
        csv_path, schema_path = toy_csv
        code, _, _ = _run(capsys, "train", "--data", str(csv_path),
                          "--schema", str(schema_path), "--out", str(tmp_path / "o"),
                          "--val-fraction", "1.5")
        assert code == 1

    def test_oversized_csv_field_is_data_error(self, toy_csv, tmp_path, capsys):
        _, schema_path = toy_csv
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text("a,label\n" + "x" * 200_000 + ",1\n", encoding="utf-8")
        code, _, err = _run(capsys, "baseline", "--data", str(csv_path),
                            "--schema", str(schema_path))
        assert code == 2
        assert "data error" in err
        assert "Traceback" not in err

    def test_non_utf8_data_is_data_error(self, toy_csv, tmp_path, capsys):
        _, schema_path = toy_csv
        csv_path = tmp_path / "latin1.csv"
        csv_path.write_bytes(b"a,label\n\xe9\xff,1\n")
        code, _, err = _run(capsys, "baseline", "--data", str(csv_path),
                            "--schema", str(schema_path))
        assert code == 2
        assert "data error" in err
        assert "Traceback" not in err

    def test_non_utf8_schema_is_data_error(self, toy_csv, tmp_path, capsys):
        csv_path, _ = toy_csv
        schema_path = tmp_path / "latin1.schema.json"
        schema_path.write_bytes(b'{"target": "\xe9t\xe9"}')
        code, _, err = _run(capsys, "baseline", "--data", str(csv_path),
                            "--schema", str(schema_path))
        assert code == 2
        assert "data error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content", [b"{not json", b'{"seed": "\xe9"}'],
                             ids=["not JSON", "not UTF-8"])
    def test_unreadable_config_is_data_error(self, toy_csv, tmp_path, capsys, content):
        config = tmp_path / "run.json"
        config.write_bytes(content)
        code, _, err = _run(capsys, *_train_args(toy_csv, tmp_path / "run", "--config",
                                                 str(config)))
        assert code == 2
        assert f"config file {config} is not valid UTF-8 JSON" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize("where", ["config", "schema", "model manifest", "network header"])
    def test_json_nested_too_deeply_is_data_error_naming_the_file(
            self, toy_csv, overfit_run, tmp_path, capsys, where):
        csv_path, schema_path = toy_csv
        model = tmp_path / "model"
        model.mkdir()
        for p in (overfit_run / "model").iterdir():
            (model / p.name).write_bytes(p.read_bytes())
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP_JSON)
        if where == "config":
            args, named = ["baseline", "--data", str(csv_path), "--config", str(deep),
                           "--schema", str(schema_path)], deep
        elif where == "schema":
            args, named = ["baseline", "--data", str(csv_path), "--schema", str(deep)], deep
        else:
            if where == "model manifest":
                named = model / "manifest.json"
                named.write_text(DEEP_JSON)
            else:
                named = model / "phase2.npz"
                with np.load(named, allow_pickle=False) as npz:
                    entries = {k: npz[k] for k in npz.files}
                entries["header"] = np.array(DEEP_JSON)
                with open(named, "wb") as fh:
                    np.savez(fh, **entries)
            args = ["evaluate", "--model", str(model), "--data", str(csv_path),
                    "--schema", str(schema_path)]
        code, stdout, err = _run(capsys, *args)
        assert code == 2
        assert "data error" in err
        assert str(named) in err
        assert "Traceback" not in stdout + err

    @pytest.mark.parametrize("command", ["train", "baseline"])
    def test_a_column_usable_only_in_a_validation_row_is_data_error(self, tmp_path, capsys,
                                                                    command):
        labels = [i % 2 for i in range(20)]
        ids = Dataset(x=np.arange(20.0).reshape(-1, 1), y=labels)
        _, val = stratified_split(ids, 0.2, SplitMix64(0))
        rows = [["", str(i), str(y)] for i, y in enumerate(labels)]
        rows[int(val.x[0, 0])][0] = "4"
        data = tmp_path / "t.csv"
        with open(data, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["a", "b", "label"]] + rows)
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"target": "label"}))
        out = tmp_path / "run"
        args = ["--out", str(out)] if command == "train" else []
        code, stdout, err = _run(capsys, command, "--data", str(data), "--schema", str(schema),
                                 *args)
        assert code == 2
        assert err == "deeplda: data error: column 'a' has no usable values\n"
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["schema.json", "t.csv"]

    @pytest.mark.filterwarnings("default::RuntimeWarning")  # as outside the test suite
    @pytest.mark.parametrize("command", ["train", "baseline"])
    def test_a_column_whose_mean_overflows_is_one_data_error(self, tmp_path, capsys, command):
        # Its median over the training rows is finite, its mean is not.
        data = tmp_path / "t.csv"
        data.write_text("a,b,label\n" + "".join(f"{a},{i},{i % 2}\n" for i, a in
                                                 enumerate(["1.7e308"] * 5 + ["0"] * 2)))
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"target": "label"}))
        args = ["--out", str(tmp_path / "run")] if command == "train" else []
        code, _, err = _run(capsys, command, "--data", str(data), "--schema", str(schema),
                            *args)
        assert code == 2
        assert err == ("deeplda: data error: column 'a' has no finite mean and deviation "
                       "to record\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["schema.json", "t.csv"]

    def test_help_exits_zero(self, capsys):
        code, stdout, _ = _run(capsys, "--help")
        assert code == 0
        for cmd in ("train", "evaluate", "inspect", "baseline"):
            assert cmd in stdout


class TestWarnings:
    """Warnings reach the user as single ``deeplda: warning:`` lines."""

    def test_degenerate_metric_warning_is_one_line(self, toy_csv, tmp_path, capsys):
        # A threshold no probability reaches makes the report's precision undefined.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"phase2": {"threshold": 0.999999}}))
        code, stdout, err = _run(capsys, *_train_args(toy_csv, tmp_path / "run", *FAST,
                                                      "--config", str(config)))
        assert code == 0
        assert "precision  0.000000" in stdout
        assert "deeplda: warning: precision undefined" in err
        assert "metrics.py" not in err
        assert all(line.startswith("deeplda: warning: ") for line in err.splitlines())

    def test_degenerate_evaluate_warns_once_per_metric(self, toy_csv, tmp_path, capsys):
        csv_path, schema_path = toy_csv
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"phase2": {"threshold": 0.999999}}))
        run = tmp_path / "run"
        assert _run(capsys, *_train_args(toy_csv, run, *FAST, "--config", str(config)))[0] == 0
        code, stdout, err = _run(capsys, "evaluate", "--model", str(run / "model"),
                                 "--data", str(csv_path), "--schema", str(schema_path))
        assert code == 0
        assert "precision  0.000000" in stdout
        lines = err.splitlines()
        assert "deeplda: warning: precision undefined (zero denominator); reporting 0.0" in lines
        assert all(line.startswith("deeplda: warning: ") for line in lines)
        assert len(lines) == len(set(lines))

    @pytest.mark.filterwarnings("default:overflow:RuntimeWarning")
    def test_numpy_overflow_warning_is_one_line(self, toy_csv, tmp_path, capsys):
        code, _, err = _run(capsys, *_train_args(toy_csv, tmp_path / "run", "--epochs", "2",
                                                 "--lr", "1e300"))
        assert code == 3
        assert "deeplda: warning: overflow encountered" in err
        assert "network.py" not in err
        assert all(line.startswith("deeplda: ") for line in err.splitlines())


# The process-boundary property: every input to `train` maps to a documented
# exit code, never a traceback, and a failed run leaves --out as it was.
# Each example breaks a drawn set of its five inputs; the others are drawn
# from valid values, so a share of the examples trains (1 epoch, at most 20
# rows). --epochs is always given, and never above 1, so no drawn config
# value makes a run long.
_INPUTS = ("flags", "config", "schema", "csv", "out")
# Valid values include huge rates, which pass the checks and then diverge (exit 3).
_VALID_FLAGS = {"--lr": ["0.001", "1e-5", "0.1", "1e300"], "--l2": ["0", "0.01", "1e308"],
                "--batch-size": ["8", "64", "9" * 30], "--seed": ["0", "7", "9" * 30],
                "--val-fraction": ["0.25", "0.5"]}
_HOSTILE_FLAGS = {"--lr": ["0", "-1", "nan", "inf", "-inf", "1e400", "x"],
                  "--l2": ["-1", "nan", "inf", "1e308", "1e400", "x"],
                  "--batch-size": ["0", "-1", "-" + "9" * 30, "1.5", "x"],
                  "--seed": ["-1", "1.5", "x"],
                  "--val-fraction": ["0", "1", "-0.5", "nan", "inf", "1e308", "0.999"]}
_HOSTILE_EPOCHS = ["0", "-1", "-" + "9" * 30, "1.5", "nan", "x"]
_PHASE_KEYS = ("lr", "epochs", "batch_size", "l2", "threshold")
_VALID_CONFIG = {"lr": "0.001", "epochs": "3", "batch_size": "8", "l2": "0",
                 "threshold": "0.5", "data": '"d.csv"', "schema": '"s.json"', "out": '"o"',
                 "seed": "3", "val_fraction": "0.25"}
_any_json = st.one_of(
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                 max_leaves=6).map(json.dumps),  # NaN and Infinity included
    st.sampled_from([DEEP_JSON, "[" * 900 + "]" * 900]),
)
# What --out holds before the run: the kinds train may replace, and the others.
_RUN_OUT = ["absent", "empty directory", "previous run",
            "previous run, named through a missing one",
            "link to an empty directory", "link to a previous run"]
_FOREIGN_OUT = ["file", "dangling link", "foreign directory", "previous run with a foreign file",
                "foreign directory, named through a missing one"]
_CELLS = ["0.5", "-1.25", "3", "7e-3", "", " 2 "]
_JUNK_CELLS = ["x", "nan", "1e999", '"', "\x00", "a,b"]


def _object(members: dict) -> bytes:
    return ("{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in members.items()) + "}").encode()


def _config(value, keys):
    """A run config mapping some of ``keys`` to texts drawn from ``value(key)``;
    a phase section may instead be an object of phase keys."""
    phase = st.fixed_dictionaries({}, optional={k: value(k) for k in _PHASE_KEYS}).map(_object)
    return st.fixed_dictionaries({}, optional={
        k: phase.map(bytes.decode) | value(k) if k.startswith("phase") else value(k)
        for k in keys}).map(_object)


def _csv(rows) -> bytes:
    return ("id,a,b,label\n"
            + "".join(f"{i},{a},{b},{y}\n" for i, (a, b, y) in enumerate(rows))).encode()


_BOTH_CLASSES = [("1", "2", "0"), ("3", "-1", "1"), ("0", "5", "0"), ("2", "2", "1")]


@st.composite
def _flags(draw, broken, valid, hostile):
    pools = [valid] + ([hostile] if broken else [])
    return draw(st.fixed_dictionaries({}, optional={
        flag: st.one_of(*[st.sampled_from(pool[flag]) for pool in pools]) for flag in valid}))


@st.composite
def _data_files(draw, broken):
    """Run-config, schema and CSV bytes, each valid unless named in ``broken``
    (no config file is None)."""
    known = list(_VALID_CONFIG) + ["phase1", "phase2"]
    if "config" in broken:
        config = draw(_config(lambda key: _any_json | st.just(_VALID_CONFIG.get(key, "1")),
                              known + ["other"])
                      | _any_json.map(str.encode) | st.binary(max_size=16))
    else:
        config = draw(st.none() | _config(lambda key: st.just(_VALID_CONFIG.get(key, "{}")),
                                          known))
    if "schema" in broken:
        schema = draw(st.binary(max_size=24) | st.sampled_from([
            b'{"target": "zz"}', b'{"target": "label", "drop": ["label"]}',
            b'{"target": "label", "other": 1}', b"[]", DEEP_JSON.encode()]))
    else:
        schema = draw(st.sampled_from([
            b'{"target": "label"}', b'{"target": "label", "drop": ["id"], "positive_label": "1"}']))
    if "csv" in broken:
        cell = st.sampled_from(_CELLS + _JUNK_CELLS)
        row = st.tuples(cell, cell, st.sampled_from(["0", "1", "2", "x", ""]))
        csv = draw(st.binary(max_size=64) | st.lists(row, max_size=20).map(_csv))
    else:
        cell = st.sampled_from(_CELLS)
        row = st.tuples(cell, cell, st.sampled_from("01"))
        csv = _csv(_BOTH_CLASSES + draw(st.lists(row, max_size=16)))
    return config, schema, csv


@st.composite
def _train_inputs(draw):
    broken = draw(st.sets(st.sampled_from(_INPUTS)))
    flags = draw(_flags("flags" in broken, _VALID_FLAGS, _HOSTILE_FLAGS))
    flags["--epochs"] = draw(st.sampled_from(["1"] + _HOSTILE_EPOCHS if "flags" in broken
                                             else ["1"]))
    config, schema, csv = draw(_data_files(broken))
    out = draw(st.sampled_from(_FOREIGN_OUT if "out" in broken else _RUN_OUT))
    return flags, config, schema, csv, out


def _write_inputs(tmp, config, schema, csv) -> list[str]:
    """Write the drawn files into ``tmp``; the flags that name them."""
    args = []
    for flag, name, blob in (("--data", "d.csv", csv), ("--schema", "s.json", schema),
                             ("--config", "c.json", config)):
        if blob is not None:  # only the config is ever absent
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write(blob)
            args += [flag, path]
    return args


def _main_in_process(argv) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and output, which keep the contract:
    a documented exit code and no traceback."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    output = stdout.getvalue() + stderr.getvalue()
    assert code in (0, 1, 2, 3), output
    assert "Traceback" not in output
    return code, output


def _stand_in_run(path):
    """A previous run's names, with small contents: the CLI never reads a
    previous run, so this shows as well as a real one whether it is kept."""
    os.makedirs(os.path.join(path, "model"))
    for name in ["lda.csv", "svm.csv", "metrics.txt", "manifest.json",
                 "model/phase1.npz", "model/phase2.npz", "model/manifest.json"]:
        with open(os.path.join(path, name), "w") as fh:
            fh.write(f"previous {name}\n")


@pytest.mark.filterwarnings("default::RuntimeWarning")  # as outside the test suite
@given(inputs=_train_inputs())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_train_keeps_the_exit_code_contract_on_any_input(inputs):
    flags, config, schema, csv, out_kind = inputs
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_inputs(tmp, config, schema, csv)
        out, real = os.path.join(tmp, "run"), os.path.join(tmp, "real")
        if out_kind.startswith("link to"):
            if out_kind.endswith("previous run"):
                _stand_in_run(real)
            else:
                os.mkdir(real)
            os.symlink(real, out)
        elif out_kind == "file":
            with open(out, "w") as fh:
                fh.write("not a run\n")
        elif out_kind == "dangling link":
            os.symlink(os.path.join(tmp, "nowhere"), out)
        elif out_kind == "empty directory" or out_kind.startswith("foreign directory"):
            os.mkdir(out)
        elif out_kind.startswith("previous run"):
            _stand_in_run(out)
        if "foreign" in out_kind:
            with open(os.path.join(out, "notes.txt"), "w") as fh:
                fh.write("kept\n")
        before, real_before = _tree(out), _tree(real)
        if out_kind.endswith("named through a missing one"):
            out_arg = os.path.join(tmp, "no", "..", "run")  # the same path once normalized
        else:
            out_arg = out
        code, output = _main_in_process(["train", *files, "--out", out_arg,
                                         *[x for item in flags.items() for x in item]])
        assert not [name for name in os.listdir(tmp) if ".tmp-" in name]
        assert _tree(real) == real_before  # never written or deleted through a link
        if code == 0:
            assert out_kind in _RUN_OUT
            assert sorted(os.listdir(out)) == RUN_FILES
        else:
            assert _tree(out) == before, output


# The same property for `evaluate` and `baseline`. `evaluate` scores copies
# of one model trained here, some with one byte flipped or one file removed,
# and must leave the model directory as it found it.
_BASELINE_FLAGS = {"--ridge": ["0", "1e-6", "1e-3", "1e300"], "--seed": ["0", "7", "9" * 30],
                   "--val-fraction": ["0.25", "0.5"]}
_HOSTILE_BASELINE_FLAGS = {"--ridge": ["-1", "-1e-300", "nan", "inf", "-inf", "1e400", "x"],
                           "--seed": _HOSTILE_FLAGS["--seed"],
                           "--val-fraction": _HOSTILE_FLAGS["--val-fraction"]}
_MODEL_FILES = ("manifest.json", "phase1.npz", "phase2.npz")
_MODEL_SCHEMA = b'{"target": "label", "drop": ["id"], "positive_label": "1"}'


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """A model's file bytes by name, and for each file the byte ranges worth
    flipping: all of the manifest, and each archive's entry headers (zip and
    .npy) and its central directory with the end record."""
    tmp = tmp_path_factory.mktemp("evaluated")
    (tmp / "d.csv").write_bytes(_csv(_BOTH_CLASSES * 3))
    (tmp / "s.json").write_bytes(_MODEL_SCHEMA)
    assert main(["train", "--data", str(tmp / "d.csv"), "--schema", str(tmp / "s.json"),
                 "--out", str(tmp / "run"), "--epochs", "1", "--lr", "1e-3"]) == 0
    blobs = {name: (tmp / "run" / "model" / name).read_bytes() for name in _MODEL_FILES}
    ranges = {"manifest.json": [(0, len(blobs["manifest.json"]) - 1)]}
    for name in _MODEL_FILES[1:]:
        with zipfile.ZipFile(io.BytesIO(blobs[name])) as archive:
            ranges[name] = [(info.header_offset, info.header_offset + 200)
                            for info in archive.infolist()]
            ranges[name].append((archive.start_dir, len(blobs[name]) - 1))
    return blobs, ranges


@st.composite
def _damaged(draw, blobs, ranges):
    """The model's files, intact or with one removed or one byte flipped;
    and whether they are intact."""
    kind = draw(st.sampled_from(["intact", "removed", "flipped", "flipped"]))
    if kind == "intact":
        return dict(blobs), True
    name = draw(st.sampled_from(_MODEL_FILES))
    files = {n: blob for n, blob in blobs.items() if n != name}
    if kind == "flipped":
        blob = bytearray(blobs[name])
        low, high = draw(st.sampled_from(ranges[name]))
        blob[draw(st.integers(low, high))] ^= draw(st.integers(1, 255))
        files[name] = bytes(blob)
    return files, False


@pytest.mark.filterwarnings("default::RuntimeWarning")  # as outside the test suite
@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_evaluate_keeps_the_exit_code_contract_and_the_model(trained_model, data):
    broken = data.draw(st.sets(st.sampled_from(["config", "schema", "csv"])))
    config, schema, csv = data.draw(_data_files(broken))
    files, intact = data.draw(_damaged(*trained_model))
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model")
        os.mkdir(model)
        for name, blob in files.items():
            with open(os.path.join(model, name), "wb") as fh:
                fh.write(blob)
        code, output = _main_in_process(["evaluate", "--model", model,
                                         *_write_inputs(tmp, config, schema, csv)])
        assert _tree(model) == files, output
        if intact and not broken and schema == _MODEL_SCHEMA:
            assert code == 0, output


@st.composite
def _baseline_inputs(draw):
    broken = draw(st.sets(st.sampled_from(["flags", "config", "schema", "csv"])))
    flags = draw(_flags("flags" in broken, _BASELINE_FLAGS, _HOSTILE_BASELINE_FLAGS))
    return flags, *draw(_data_files(broken))


@pytest.mark.filterwarnings("default::RuntimeWarning")  # as outside the test suite
@given(inputs=_baseline_inputs())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_baseline_keeps_the_exit_code_contract_on_any_input(inputs):
    flags, config, schema, csv = inputs
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["baseline", *_write_inputs(tmp, config, schema, csv),
                *[x for item in flags.items() for x in item]]
        written = sorted(os.listdir(tmp))
        _main_in_process(argv)
        assert sorted(os.listdir(tmp)) == written  # baseline writes nothing
