"""Acceptance gates for the whole package.

Each test checks one headline guarantee and prints a single verdict line
(`[PASS]`/`[FAIL]`) naming the criterion; run with `-s` to see the lines
as they happen. Slow training-based gates sit at the bottom.
"""

import contextlib
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from conftest import make_gaussians
from test_gradients import (
    HEAD,
    REDUCED_WIDE,
    REL_TOL,
    _analytic,
    _batch,
    _worst_relative_error,
)

from deeplda.cli import main
from deeplda.data import (
    Dataset,
    Standardizer,
    apply_standardizer,
    clean,
    fit_standardizer,
    load_csv,
    load_schema,
    stratified_split,
)
from deeplda.fisher import fit_fisher, predict_lda
from deeplda.metrics import (
    ConfusionMatrix,
    accuracy,
    confusion,
    f_score,
    precision,
    recall,
)
from deeplda.network import (
    Gradients,
    TrainConfig,
    adam_step,
    fit,
    forward,
    init_network,
)
from deeplda.pipeline import build_phase1_spec, build_phase2_spec, predict_two_phase, train_two_phase
from deeplda.rng import SplitMix64


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _quiet(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _curve_rows(path):
    lines = path.read_text().strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def test_parameter_parity(capsys):
    code1 = main(["inspect", "--phase", "1"])
    out1 = capsys.readouterr().out
    code2 = main(["inspect", "--phase", "2"])
    out2 = capsys.readouterr().out
    wide_ok = (code1 == 0 and out1.count("1,049,600") == 2
               and all(t in out1 for t in ("43,008", "1,025", "2,143,233")))
    head_ok = (code2 == 0
               and all(t in out2 for t in ("200", "0", "101", "301")))
    with capsys.disabled():
        _verdict(
            "parameter parity",
            wide_ok and head_ok,
            "phase 1 reports 43,008 / 1,049,600 / 1,049,600 / 1,025 "
            "(total 2,143,233); phase 2 reports 200 / 0 / 101 (total 301)",
        )


def test_metric_reconstruction():
    targets = {"accuracy": 0.90909, "precision": 0.8888,
               "recall": 0.80, "f_score": 0.8421}
    tol = 0.0005

    def matches(cm):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = {"accuracy": accuracy(cm), "precision": precision(cm),
                   "recall": recall(cm), "f_score": f_score(cm)}
        return all(abs(got[k] - v) <= tol for k, v in targets.items())

    hits = []
    for total in range(1, 34):
        for tp, fp, fn in itertools.product(range(total + 1), repeat=3):
            tn = total - tp - fp - fn
            if tn < 0:
                continue
            cm = ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
            if matches(cm):
                hits.append(cm)
    expected = ConfusionMatrix(tp=8, fp=1, fn=2, tn=22)
    _verdict(
        "metric reconstruction",
        hits == [expected],
        "tp=8 fp=1 fn=2 tn=22 is the unique smallest confusion matrix "
        "reproducing 0.90909 / 0.8888 / 0.80 / 0.8421 within 0.0005",
    )


def test_gradient_correctness():
    worst = 0.0
    for seed in (1, 2, 3):
        net = init_network(REDUCED_WIDE, SplitMix64(seed))
        x, y = _batch(REDUCED_WIDE, seed)
        grads = _analytic(net, x, y, None)
        worst = max(worst, _worst_relative_error(net, x, y, None, grads))

        net = init_network(HEAD, SplitMix64(seed))
        x, y = _batch(HEAD, seed)
        _, cache = forward(net, x, mode="train", rng=SplitMix64(seed + 7))
        masks = cache.dropout_masks()
        grads = _analytic(net, x, y, masks)
        worst = max(worst, _worst_relative_error(net, x, y, masks, grads))
    _verdict(
        "gradient correctness",
        worst < REL_TOL,
        f"worst central-difference relative error {worst:.2e} < {REL_TOL} "
        "over 3 seeds, reduced sigmoid stack and relu/dropout head",
    )


def test_baseline_sanity():
    d, sep = 2, 1.2
    ds = make_gaussians(n_per_class=25000, d=d, sep=sep, seed=11)
    train, val = stratified_split(ds, 0.2, SplitMix64(4))
    model = fit_fisher(train)
    _, labels = predict_lda(model, val.x)
    acc = accuracy(confusion(labels, val.y))
    bayes = 0.5 * (1.0 + math.erf(sep * math.sqrt(d) / (2.0 * math.sqrt(2.0))))
    gap_pp = abs(acc - bayes) * 100.0
    true_dir = np.ones(d) / math.sqrt(d)
    w = model.w / np.linalg.norm(model.w)
    angle = math.degrees(math.acos(min(1.0, abs(float(w @ true_dir)))))
    _verdict(
        "baseline sanity",
        gap_pp <= 2.0 and angle <= 1.0,
        f"fisher validation accuracy {acc:.4f} vs closed-form bayes "
        f"{bayes:.4f} (gap {gap_pp:.2f}pp <= 2pp); direction within "
        f"{angle:.3f} degrees of the true mean gap (<= 1)",
    )


def test_property_suites(clinical_csv):
    csv_path, schema_path = clinical_csv
    schema = load_schema(schema_path)
    ds = clean(load_csv(csv_path, schema), schema)

    # split conservation and stratification
    train, val = stratified_split(ds, 0.25, SplitMix64(9))
    conserved = train.n_rows + val.n_rows == ds.n_rows
    all_rows = sorted(map(tuple, ds.x.tolist()))
    split_rows = sorted(map(tuple, np.vstack([train.x, val.x]).tolist()))
    conserved = conserved and all_rows == split_rows
    n1 = int(ds.y.sum())
    n0 = ds.n_rows - n1
    want1 = int(np.floor(n1 * 0.25 + 0.5))
    want0 = int(np.floor(n0 * 0.25 + 0.5))
    stratified = (int(val.y.sum()) == want1
                  and val.n_rows - int(val.y.sum()) == want0)

    # standardizer fits on train only and cannot be refitted
    std = fit_standardizer(train)
    val_s = apply_standardizer(std, val)
    leak_free = np.array_equal(val_s.x, (val.x - std.mean) / std.std)
    no_refit = not any(hasattr(Standardizer, a)
                       for a in ("fit", "refit", "partial_fit", "update"))

    # dropout layers are identity at inference, whatever the rate
    x = SplitMix64(12).uniform_matrix(16, 1, -2.0, 2.0)
    out_a, _ = forward(init_network(build_phase2_spec(), SplitMix64(5)), x)
    from deeplda.network import NetworkSpec, dense, dropout
    harsher = NetworkSpec(1, (dense(100, "relu"), dropout(0.9),
                              dense(1, "sigmoid")))
    out_b, _ = forward(init_network(harsher, SplitMix64(5)), x)
    dropout_identity = np.array_equal(out_a, out_b)

    # metric range bounds over an exhaustive small grid
    bounded = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for tp, fp, fn, tn in itertools.product(range(4), repeat=4):
            if tp + fp + fn + tn == 0:
                continue
            cm = ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
            for m in (accuracy, precision, recall, f_score):
                bounded = bounded and 0.0 <= m(cm) <= 1.0

    # adam step with zero gradients moves nothing
    net = init_network(REDUCED_WIDE, SplitMix64(2))
    before = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    zero = Gradients(weights=[np.zeros_like(w) for w in net.weights],
                     biases=[np.zeros_like(b) for b in net.biases])
    adam_step(net, zero, learning_rate=1e-3)
    after = list(net.weights) + list(net.biases)
    fixed_point = all(np.array_equal(a, b) for a, b in zip(before, after))

    checks = {
        "split conservation/stratification": conserved and stratified,
        "standardizer leakage guard": leak_free and no_refit,
        "dropout inference identity": dropout_identity,
        "metric range bounds": bounded,
        "adam zero-gradient fixed point": fixed_point,
    }
    failed = [k for k, ok in checks.items() if not ok]
    _verdict(
        "property suites",
        not failed,
        "all held" if not failed else f"failed: {', '.join(failed)}",
    )


def test_capacity_sanity(clinical_csv):
    csv_path, schema_path = clinical_csv
    schema = load_schema(schema_path)
    ds = clean(load_csv(csv_path, schema), schema)
    idx = np.concatenate([np.flatnonzero(ds.y == 0)[:16],
                          np.flatnonzero(ds.y == 1)[:16]])
    sub = Dataset(x=ds.x[idx], y=ds.y[idx], feature_names=ds.feature_names)
    sub = apply_standardizer(fit_standardizer(sub), sub)

    rng = SplitMix64(0)
    net = init_network(build_phase1_spec(input_dim=sub.n_features), rng)
    _, hist = fit(net, sub, sub, TrainConfig(learning_rate=1e-3, epochs=80), rng)
    first_hit = next((r.epoch for r in hist.records if r.accuracy >= 0.99), None)
    _verdict(
        "capacity sanity",
        first_hit is not None,
        f"phase-1 network at lr 1e-3 reached >= 99% training accuracy on a "
        f"32-row subset at epoch {first_hit} (limit 200)",
    )


def test_determinism(toy_csv, tmp_path):
    csv_path, schema_path = toy_csv
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _ = _quiet(["train", "--data", str(csv_path), "--schema",
                          str(schema_path), "--out", str(out), "--seed", "7",
                          "--epochs", "6", "--lr", "1e-3"])
        assert code == 0
        outs.append(out)
    compared = ["lda.csv", "svm.csv", "model/phase1.npz",
                "model/phase2.npz", "model/manifest.json"]
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in compared)
    _verdict(
        "determinism",
        identical,
        "repeat runs at seed 7 produced byte-identical "
        + ", ".join(compared),
    )


@pytest.mark.slow
def test_end_to_end_synthetic():
    # sep 2.0: wide margin keeps the sigmoid stack out of its known
    # seed-sensitive collapse region under default weight decay
    ds = make_gaussians(n_per_class=250, d=41, sep=2.0, seed=6)
    train, val = stratified_split(ds, 0.2, SplitMix64(6))
    std = fit_standardizer(train)
    train_s = apply_standardizer(std, train)
    val_s = apply_standardizer(std, val)
    config = TrainConfig(learning_rate=1e-3)
    model, _, _ = train_two_phase(train_s, val_s, config, config, SplitMix64(0))
    _, labels = predict_two_phase(model, val_s.x)
    acc = accuracy(confusion(labels, val_s.y))
    _verdict(
        "end-to-end synthetic oracle",
        acc >= 0.95,
        f"two-phase pipeline at lr 1e-3 on 400/100 well-separated 41-D "
        f"gaussians reached validation accuracy {acc:.3f} (>= 0.95)",
    )


@pytest.mark.slow
def test_default_run_on_clinical_shaped_data(clinical_csv, tmp_path):
    csv_path, schema_path = clinical_csv
    out = tmp_path / "default"
    code, _ = _quiet(["train", "--data", str(csv_path), "--schema",
                      str(schema_path), "--out", str(out)])
    rows1 = _curve_rows(out / "lda.csv")
    rows2 = _curve_rows(out / "svm.csv")
    first_loss = float(rows1[0][2])
    final_loss = float(rows1[-1][2])
    report = (out / "metrics.txt").read_text()
    manifest = json.loads((out / "manifest.json").read_text())
    ok = (code == 0 and len(rows1) == 100 and len(rows2) == 100
          and final_loss < first_loss and "accuracy" in report
          and manifest["phase1"]["learning_rate"] == 1e-5)
    _verdict(
        "default-config run on clinical-shaped data",
        ok,
        f"100+100 epochs completed; phase-1 train loss {first_loss:.4f} -> "
        f"{final_loss:.4f}; report and curves emitted; logged final "
        f"accuracies train {rows2[-1][1]} / validation {rows2[-1][3]} "
        "(no numeric gate, reference headline 0.9835/0.90909 depends on an "
        "unstated split and seed)",
    )
