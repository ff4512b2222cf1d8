"""Walk a messy CSV through loading, cleaning, splitting, and scaling.

Synthesizes a small tabular file the way clinical exports tend to arrive:
an id column nobody wants, a few blank and junk cells, a trailing empty
column, and a yes/no target. Then shows each preparation stage.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from deeplda.data import clean, load_csv, load_schema, load_split, stratified_split
from deeplda.rng import SplitMix64


def synthesize(path: Path, n_rows: int = 120) -> None:
    g = np.random.default_rng(7)
    lines = ["record_id,bmi,glucose,insulin,cycle_days,diagnosis,"]
    for i in range(n_rows):
        label = "yes" if i % 3 == 0 else "no"
        base = 1.5 if label == "yes" else -1.5
        vals = [f"{v:.3f}" for v in g.normal(base, 1.0, 4)]
        # sprinkle the usual damage: blanks and stray text
        if i % 17 == 0:
            vals[1] = ""
        if i % 29 == 0:
            vals[2] = "n/a"
        lines.append(f"{i + 1},{','.join(vals)},{label},")
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="prepare-demo-") as tmp:
        workdir = Path(tmp)
        csv_path = workdir / "visits.csv"
        schema_path = workdir / "visits.schema.json"
        synthesize(csv_path)
        schema_path.write_text(json.dumps({
            "target": "diagnosis",
            "drop": ["record_id", ""],
            "positive_label": "yes",
        }, indent=2))
        print(f"wrote {csv_path}")

        schema = load_schema(schema_path)
        raw = load_csv(csv_path, schema)
        print(f"raw table: {raw.n_rows} rows x {len(raw.header)} columns")

        ds = clean(raw, schema)
        # What `deeplda train` does: split first, then fit the medians and the
        # scaler on the training rows, so no validation cell reaches either.
        train_s, val_s, std = load_split(csv_path, schema, 0.2, SplitMix64(0))
    print(f"cleaned: {ds.n_rows} rows, {ds.n_features} features "
          f"({', '.join(ds.feature_names)})")
    print(f"positives: {int(ds.y.sum())} of {ds.n_rows} "
          "(blank and junk cells imputed with column medians)")

    train, val = stratified_split(ds, val_fraction=0.2, rng=SplitMix64(0))
    print(f"split: {train.n_rows} train / {val.n_rows} validation, "
          f"val positives {int(val.y.sum())}")

    print("load_split standardizes both parts with training statistics only:")
    print(f"  train feature means  {np.round(train_s.x.mean(axis=0), 6)}")
    print(f"  val feature means    {np.round(val_s.x.mean(axis=0), 3)} "
          "(not zero, and that is the point)")
    print("clean imputed with medians over all rows; load_split takes them "
          "from the training rows only and records them in its standardizer:")
    print(f"  all-row medians      {np.round(np.median(ds.x, axis=0), 3)}")
    print(f"  training medians     {np.round(std.medians, 3)} for {', '.join(std.names)}")


if __name__ == "__main__":
    main()
