"""Command-line behavior: artifacts, determinism, exit codes, reports."""

import contextlib
import io
import json
import re

import numpy as np
import pytest

from deeplda.cli import main


def _run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_feature_mismatch_is_data_error(self, toy_csv, overfit_run,
                                            tmp_path, capsys):
        csv_path, schema_path = toy_csv
        narrowed = tmp_path / "narrow.schema.json"
        original = json.loads(schema_path.read_text())
        original["drop"] = original["drop"] + ["a"]
        narrowed.write_text(json.dumps(original))
        code, _, err = _run(capsys, "evaluate", "--model",
                            str(overfit_run / "model"), "--data", str(csv_path),
                            "--schema", str(narrowed))
        assert code == 2
        assert "features" in err

    @pytest.mark.parametrize("damage", [
        "manifest_without_config1",
        "manifest_config_ill_typed",
        "manifest_feature_names_ill_typed",
        "manifest_std_infinite",
        "manifest_mean_nan",
        "phase1_truncated",
        "phase1_not_zip",
        "phase1_missing_w1",
        "phase2_missing_b0",
        "phase1_header_not_json",
        "phase1_header_wrong_format",
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
