"""Drive every CLI command programmatically in a scratch directory.

The same walkthrough works from a shell; this script calls `main` directly
so the whole tour runs with one interpreter start.

    deeplda train --data visits.csv --schema visits.schema.json --out run/
    deeplda evaluate --model run/model --data visits.csv --schema ...
    deeplda inspect --phase 1
    deeplda baseline --data visits.csv --schema visits.schema.json
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from deeplda.cli import main


def synthesize(path: Path, n_rows: int = 160) -> None:
    g = np.random.default_rng(13)
    lines = ["id,f1,f2,f3,f4,f5,target"]
    for i in range(n_rows):
        label = i % 2
        mu = 1.8 if label else -1.8
        vals = ",".join(f"{v:.3f}" for v in g.normal(mu, 1.0, 5))
        lines.append(f"{i},{vals},{label}")
    path.write_text("\n".join(lines) + "\n")


def step(title: str, argv: list[str]) -> None:
    print(f"\n$ deeplda {' '.join(argv)}")
    code = main(argv)
    print(f"(exit code {code})")


def main_demo() -> None:
    with tempfile.TemporaryDirectory(prefix="cli-demo-") as tmp:
        workdir = Path(tmp)
        csv_path = workdir / "visits.csv"
        schema_path = workdir / "visits.schema.json"
        run_dir = workdir / "run"
        synthesize(csv_path)
        schema_path.write_text(json.dumps(
            {"target": "target", "drop": ["id"], "positive_label": "1"}))

        step("train", ["train", "--data", str(csv_path), "--schema",
                       str(schema_path), "--out", str(run_dir),
                       "--epochs", "10", "--lr", "1e-3", "--l2", "0"])
        print("artifacts:", sorted(p.name for p in run_dir.iterdir()))

        step("evaluate", ["evaluate", "--model", str(run_dir / "model"),
                          "--data", str(csv_path), "--schema", str(schema_path)])
        step("inspect", ["inspect", "--phase", "1"])
        step("inspect", ["inspect", "--phase", "2"])
        step("baseline", ["baseline", "--data", str(csv_path),
                          "--schema", str(schema_path)])


if __name__ == "__main__":
    main_demo()
