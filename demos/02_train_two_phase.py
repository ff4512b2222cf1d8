"""Train the two-phase classifier on synthetic data and keep the artifacts.

Phase 1 is the wide all-sigmoid network; phase 2 retrains a small
relu/dropout head on phase 1's scalar probabilities. The run here uses a
raised learning rate and few epochs so it finishes in seconds.
"""

import tempfile
from pathlib import Path

import numpy as np

from deeplda.data import Dataset, apply_standardizer, fit_standardizer, stratified_split
from deeplda.metrics import confusion, format_report, history_to_csv
from deeplda.network import TrainConfig
from deeplda.pipeline import (
    load_two_phase,
    predict_two_phase,
    save_two_phase,
    train_two_phase,
)
from deeplda.rng import SplitMix64


def two_gaussians(n_per_class: int, d: int, sep: float, seed: int) -> Dataset:
    g = np.random.default_rng(seed)
    x = np.vstack([
        g.normal(-sep / 2.0, 1.0, (n_per_class, d)),
        g.normal(+sep / 2.0, 1.0, (n_per_class, d)),
    ])
    y = np.repeat([0.0, 1.0], n_per_class)
    names = tuple(f"f{i}" for i in range(d))
    return Dataset(x=x, y=y, feature_names=names)


def main() -> None:
    ds = two_gaussians(n_per_class=150, d=41, sep=2.0, seed=5)
    train, val = stratified_split(ds, 0.2, SplitMix64(5))
    # A model records the preprocessing that fresh rows need in one
    # standardizer: the feature names, the scaler and the training medians
    # that fill blank cells (the synthetic rows have none, so the medians
    # are those of the raw training columns).
    std = fit_standardizer(train, np.median(train.x, axis=0))
    train_s = apply_standardizer(std, train)
    val_s = apply_standardizer(std, val)
    print(f"data: {train_s.n_rows} train / {val_s.n_rows} validation, "
          f"{train_s.n_features} features")

    config = TrainConfig(learning_rate=1e-3, epochs=12)
    model, hist1, hist2 = train_two_phase(train_s, val_s, config, config, SplitMix64(0), std)

    print("\nphase-1 curve (last three epochs):")
    for rec in hist1.records[-3:]:
        print(f"  epoch {rec.epoch:3d}  acc {rec.accuracy:.3f}  "
              f"loss {rec.loss:.4f}  val_acc {rec.val_accuracy:.3f}")
    print("phase-2 curve (last three epochs):")
    for rec in hist2.records[-3:]:
        print(f"  epoch {rec.epoch:3d}  acc {rec.accuracy:.3f}  "
              f"loss {rec.loss:.4f}  val_acc {rec.val_accuracy:.3f}")

    _, labels = predict_two_phase(model, val_s.x)
    print("\nvalidation report:")
    print(format_report(confusion(labels, val_s.y)), end="")

    with tempfile.TemporaryDirectory(prefix="two-phase-demo-") as tmp:
        out = Path(tmp) / "model"
        save_two_phase(model, out)
        history_to_csv(hist1, out.parent / "phase1_curve.csv")
        print(f"\nsaved model directory: {out}")
        print(f"saved curve: {out.parent / 'phase1_curve.csv'}")

        reloaded = load_two_phase(out)
        _, labels2 = predict_two_phase(reloaded, val_s.x)
        print(f"reloaded model agrees on all {len(labels2)} predictions: "
              f"{bool(np.array_equal(labels, labels2))}")


if __name__ == "__main__":
    main()
