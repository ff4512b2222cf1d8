"""Shared fixtures: synthetic datasets and CSV files for the suite.

Test data is generated with numpy's own generator (the suite may use any
RNG; only the library under test is restricted to its deterministic
stream). The session-scoped clinical CSV mirrors the shape of the public
polycystic-ovary-syndrome sheet this project targets: 541 rows, 177
positive, 41 numeric feature columns, two identifier columns, one blank
trailing column, and sparse missing cells.
"""

import csv
import json
import os
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import deeplda
from deeplda import Dataset

CLINICAL_FEATURES = [
    "Age (yrs)", "Weight (Kg)", "Height(Cm)", "BMI", "Blood Group",
    "Pulse rate(bpm)", "RR (breaths/min)", "Hb(g/dl)", "Cycle(R/I)",
    "Cycle length(days)", "Marraige Status (Yrs)", "Pregnant(Y/N)",
    "No. of aborptions", "I beta-HCG(mIU/mL)", "II beta-HCG(mIU/mL)",
    "FSH(mIU/mL)", "LH(mIU/mL)", "FSH/LH", "Hip(inch)", "Waist(inch)",
    "Waist:Hip Ratio", "TSH (mIU/L)", "AMH(ng/mL)", "PRL(ng/mL)",
    "Vit D3 (ng/mL)", "PRG(ng/mL)", "RBS(mg/dl)", "Weight gain(Y/N)",
    "hair growth(Y/N)", "Skin darkening (Y/N)", "Hair loss(Y/N)",
    "Pimples(Y/N)", "Fast food (Y/N)", "Reg.Exercise(Y/N)",
    "BP _Systolic (mmHg)", "BP _Diastolic (mmHg)", "Follicle No. (L)",
    "Follicle No. (R)", "Avg. F size (L) (mm)", "Avg. F size (R) (mm)",
    "Endometrium (mm)",
]

TARGET = "PCOS (Y/N)"


def make_gaussians(n_per_class: int, d: int, sep: float, seed: int) -> Dataset:
    """Two spherical Gaussian clouds at +-sep/2 per coordinate."""
    g = np.random.default_rng(seed)
    x0 = g.normal(-sep / 2.0, 1.0, (n_per_class, d))
    x1 = g.normal(+sep / 2.0, 1.0, (n_per_class, d))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n_per_class), np.ones(n_per_class)])
    order = g.permutation(2 * n_per_class)
    names = tuple(f"f{i}" for i in range(d))
    return Dataset(x=x[order], y=y[order], feature_names=names)


@contextmanager
def traced_peak():
    """Trace Python allocations for the ``with`` block, which gets a function
    that reads the peak so far in bytes. Tracing stops however the block
    ends, so a failing test leaves no tracing on for the tests after it."""
    tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_env(**overrides) -> dict:
    """This process's environment for a child Python process, with the
    imported ``deeplda`` package first on ``PYTHONPATH`` and ``overrides``
    set."""
    src = str(Path(deeplda.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def _clinical_row(g, label: int) -> list:
    s = 1.0 if label else 0.0
    binary = lambda p: str(int(g.random() < p))
    follicle_l = max(0, int(round(g.normal(6 + 8 * s, 3))))
    follicle_r = max(0, int(round(g.normal(6 + 9 * s, 3))))
    weight = g.normal(59 + 6 * s, 10)
    height = g.normal(156, 6)
    bmi = weight / (height / 100) ** 2
    hip = g.normal(38 + s, 3)
    waist = g.normal(33 + 1.5 * s, 3)
    fsh = abs(g.normal(5.5, 2.5)) + 0.1
    lh = abs(g.normal(2.5 + 4 * s, 2)) + 0.1
    vals = [
        g.normal(31 - 2 * s, 5),          # Age (yrs)
        weight,
        height,
        bmi,
        g.integers(11, 19),               # Blood Group code
        g.normal(73, 4),                  # Pulse rate(bpm)
        g.integers(16, 23),               # RR (breaths/min)
        g.normal(11.2, 0.8),              # Hb(g/dl)
        binary(0.2 + 0.5 * s),            # Cycle(R/I): irregular flag
        g.normal(5, 1.5),                 # Cycle length(days)
        abs(g.normal(7, 4)),              # Marraige Status (Yrs)
        binary(0.4 - 0.2 * s),            # Pregnant(Y/N)
        g.integers(0, 3),                 # No. of aborptions
        abs(g.normal(250, 400)),          # I beta-HCG
        abs(g.normal(230, 350)),          # II beta-HCG
        fsh,
        lh,
        fsh / lh,
        hip,
        waist,
        waist / hip,
        abs(g.normal(2.6, 1.5)),          # TSH (mIU/L)
        abs(g.normal(3.5 + 4 * s, 2.5)),  # AMH(ng/mL)
        abs(g.normal(24, 12)),            # PRL(ng/mL)
        abs(g.normal(30, 15)),            # Vit D3 (ng/mL)
        abs(g.normal(0.45, 0.3)),         # PRG(ng/mL)
        g.normal(100, 12),                # RBS(mg/dl)
        binary(0.25 + 0.45 * s),          # Weight gain(Y/N)
        binary(0.12 + 0.45 * s),          # hair growth(Y/N)
        binary(0.15 + 0.45 * s),          # Skin darkening (Y/N)
        binary(0.4 + 0.15 * s),           # Hair loss(Y/N)
        binary(0.35 + 0.3 * s),           # Pimples(Y/N)
        binary(0.4 + 0.35 * s),           # Fast food (Y/N)
        binary(0.25),                     # Reg.Exercise(Y/N)
        g.normal(114, 7),                 # BP _Systolic (mmHg)
        g.normal(76, 5),                  # BP _Diastolic (mmHg)
        follicle_l,
        follicle_r,
        g.normal(15 + 3 * s, 3),          # Avg. F size (L) (mm)
        g.normal(15 + 3 * s, 3),          # Avg. F size (R) (mm)
        g.normal(8.5 + 0.8 * s, 1.8),     # Endometrium (mm)
    ]
    out = []
    for v in vals:
        if isinstance(v, str):
            out.append(v)
        elif isinstance(v, (int, np.integer)):
            out.append(str(int(v)))
        else:
            out.append(f"{float(v):.4f}")
    return out


def write_clinical_csv(csv_path, schema_path, n_rows=541, n_positive=177, seed=20):
    """Reference-shaped stand-in file plus its schema; returns both paths."""
    g = np.random.default_rng(seed)
    labels = np.zeros(n_rows, dtype=int)
    labels[:n_positive] = 1
    g.shuffle(labels)
    header = ["Sl. No", "Patient File No."] + [TARGET] + CLINICAL_FEATURES + [""]
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, label in enumerate(labels):
            feats = _clinical_row(g, int(label))
            # sprinkle ~1% missing cells into non-flag feature columns
            for j in range(len(feats)):
                if g.random() < 0.01 and len(feats[j]) > 1:
                    feats[j] = ""
            w.writerow([str(i + 1), str(10000 + i + 1), str(int(label))] + feats + [""])
    schema = {
        "target": TARGET,
        "drop": ["Sl. No", "Patient File No.", ""],
        "positive_label": "1",
    }
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
    return csv_path, schema_path


@pytest.fixture(scope="session")
def clinical_csv(tmp_path_factory):
    base = tmp_path_factory.mktemp("clinical")
    return write_clinical_csv(base / "clinical.csv", base / "clinical.schema.json")


@pytest.fixture(scope="session")
def toy_csv(tmp_path_factory):
    """Small separable 5-feature file: 60 negative, 40 positive rows."""
    tmp_path = tmp_path_factory.mktemp("toy")
    g = np.random.default_rng(3)
    rows = []
    for i in range(100):
        label = 1 if i >= 60 else 0
        mu = 2.0 if label else -2.0
        feats = [f"{v:.4f}" for v in g.normal(mu, 1.0, 5)]
        rows.append([str(i + 1)] + feats + [str(label), ""])
    g.shuffle(rows)
    path = tmp_path / "toy.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "a", "b", "c", "d", "e", "outcome", ""])
        w.writerows(rows)
    schema_path = tmp_path / "toy.schema.json"
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump({"target": "outcome", "drop": ["id", ""], "positive_label": "1"}, fh)
    return path, schema_path
