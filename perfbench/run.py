"""deeplda benchmark: the real CLI as a child process, one command at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a deeplda checkout; it needs ``src/deeplda`` and the
suite's data generator in ``tests/conftest.py`` and exits with code 2 without
a result when either is missing.

Each invocation sets up ``SETUP_REPEATS`` times (inputs generated from the
seed with ``write_clinical_csv``, the evaluated model trained, one untimed
warm-up command) and reports the median as ``setup_s``. It then runs the
workload's command in a closed loop with one client for ``--seconds``
seconds and reports medians. Every command is checked: exit code 0, the
five run-directory artifacts with the fixed curve header, byte-identical
output to the invocation's warm-up, and, for ``evaluate``, the printed
report recomputed in this process from ``load_two_phase`` and
``predict_two_phase``.

With ``--trace 1`` the untraced loop is followed by ``TRACED_RUNS`` runs of
the same command under ``traced_cli.py``, and the result carries the
per-layer metrics derived from their spans instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record with
the environment and every sample is written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFTEST = ROOT / "tests" / "conftest.py"
OUT_DIR = ROOT / ".perfbench"

# One BLAS thread for every process: at two threads a batch-64 epoch is
# slower and a batch-512 epoch faster, so an unpinned count would measure
# the scheduler rather than the code.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SETUP_REPEATS = 2
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 150.0
RUN_ARTIFACTS = {"model", "lda.csv", "svm.csv", "metrics.txt", "manifest.json"}
CURVE_HEADER = "Epochs,accuracy,loss,val_accuracy,val_loss"
PHASE2_EPOCHS = 100  # the CLI default; the benchmark never overrides it
CLINICAL_ROWS, CLINICAL_POSITIVES = 541, 177

E2E_UNITS = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "model_bytes": "B",
    "accuracy": "ratio",
    "setup_s": "s",
}

LAYER_UNITS = {
    "network.forward_train_ms": "ms",
    "network.backward_ms": "ms",
    "network.adam_ms": "ms",
    "network.fit_self_ms": "ms",
    "network.step_ms_p50": "ms",
    "network.step_ms_p99": "ms",
    "network.steps": "count",
    "network.forward_infer_ms_per_row": "ms",
    "network.self_ms": "ms",
    "linalg.transpose_calls": "count",
    "linalg.transpose_bytes": "B",
    "linalg.matmul_ms": "ms",
    "linalg.self_ms": "ms",
    "pipeline.save_ms": "ms",
    "pipeline.load_ms": "ms",
    "pipeline.phase1_fit_s": "s",
    "pipeline.phase2_fit_s": "s",
    "pipeline.transform_ms": "ms",
    "pipeline.self_ms": "ms",
    "data.load_csv_ms": "ms",
    "data.clean_ms": "ms",
    "data.prep_ms": "ms",
    "data.rows": "count",
    "data.self_ms": "ms",
    "rng.draws": "count",
    "rng.ms": "ms",
    "metrics.ms": "ms",
    "cli.self_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_s": "s",
    "computed.gemm_flops_per_step": "flop",
    "computed.adam_bytes_per_step": "B",
    "computed.transpose_bytes_per_step": "B",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "train" or "evaluate"
    rows: int  # rows of the file the measured command reads
    batch_size: int
    phase1_epochs: int  # train: the run length; evaluate: the evaluated model's


# Why each workload exists is recorded in BENCHMARK.json. The epoch counts
# fix the length of one train command; phase 2 keeps its default 100.
WORKLOADS = {
    "train_clinical": Workload("train_clinical", "train", CLINICAL_ROWS, 64, 2),
    "train_bulk": Workload("train_bulk", "train", 4000, 512, 1),
    "evaluate_bulk": Workload("evaluate_bulk", "evaluate", 10000, 64, 1),
}

# Tiny variants for --quick and --self-test: same commands, small inputs.
QUICK = {
    "train_clinical": Workload("train_clinical", "train", 160, 64, 1),
    "train_bulk": Workload("train_bulk", "train", 600, 512, 1),
    "evaluate_bulk": Workload("evaluate_bulk", "evaluate", 300, 64, 1),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


# --- child processes ----------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], cwd: Path) -> Sample:
    """Run one child to completion; time it from spawn to exit."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Sample(
        wall_s=wall,
        exit_code=proc.returncode,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def cli_argv(args: list[str]) -> list[str]:
    return ["-m", "deeplda.cli"] + args


# --- inputs and set-up ---------------------------------------------------------


def load_generator():
    """The suite's conftest module (for write_clinical_csv), imported read-only."""
    if not (SRC / "deeplda" / "cli.py").is_file() or not CONFTEST.is_file():
        raise BenchError(f"run from a deeplda checkout: need {SRC / 'deeplda'} and {CONFTEST}")
    sys.dont_write_bytecode = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = importlib.util.spec_from_file_location("perfbench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def positives_for(rows: int) -> int:
    """Keep the clinical sheet's class ratio (177 of 541) at any size."""
    return max(1, round(rows * CLINICAL_POSITIVES / CLINICAL_ROWS))


def write_train_config(path: Path, data: Path, schema: Path, wl: Workload) -> None:
    # The model seed stays at the CLI default: the benchmark seed varies the
    # data only, so the printed accuracy is comparable across seeds.
    config = {
        "data": str(data), "schema": str(schema), "val_fraction": 0.2,
        "lr": 1e-5, "l2": 0.01, "batch_size": wl.batch_size,
        "phase1": {"epochs": wl.phase1_epochs},
    }
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


@dataclass
class Setup:
    directory: Path
    args: list[str]  # the deeplda command line
    warmup: Sample
    reference: dict  # what every repeat must reproduce
    model_dir: Path  # written by the train command, or read by evaluate
    rows: int  # rows one command processes: phase-1 epochs x train rows, or rows scored
    accuracy: float  # as the warm-up printed it
    seconds: float


def set_up(wl: Workload, seed: int, directory: Path, write_csv) -> Setup:
    """Generate inputs, train the evaluated model, run one warm-up command."""
    t0 = time.perf_counter()
    directory.mkdir(parents=True)
    schema = directory / "schema.json"
    train_rows = wl.rows if wl.command == "train" else CLINICAL_ROWS
    train_csv = directory / "train.csv"
    write_csv(train_csv, schema, n_rows=train_rows, n_positive=positives_for(train_rows),
              seed=[seed, 1])
    write_train_config(directory / "config.json", train_csv, schema, wl)
    if wl.command == "train":
        args = ["train", "--config", "config.json", "--out", "run"]
        model_dir = directory / "run" / "model"
    else:
        trained = spawn(cli_argv(["train", "--config", "config.json", "--out", "model_run"]),
                        directory)
        if trained.exit_code != 0:
            raise BenchError(f"training the evaluated model failed: {trained.stderr.strip()}")
        model_dir = directory / "model_run" / "model"
        data = directory / "eval.csv"
        write_csv(data, schema, n_rows=wl.rows, n_positive=positives_for(wl.rows), seed=[seed, 2])
        args = ["evaluate", "--model", str(model_dir), "--data", str(data), "--schema", str(schema)]
    warmup = spawn(cli_argv(args), directory)
    problems = check_common(warmup)
    if not problems and wl.command == "train":
        problems = check_train_run(wl, directory / "run")
    try:
        accuracy = parse_accuracy(warmup.stdout)
        rows = wl.phase1_epochs * parse_train_rows(warmup.stdout) if wl.command == "train" else wl.rows
    except ValueError as exc:
        problems.append(str(exc))
    if problems:
        raise BenchError(f"warm-up {wl.name} run failed: {'; '.join(problems)}")
    return Setup(directory, args, warmup, fingerprint(wl, warmup, directory), model_dir, rows,
                 accuracy, time.perf_counter() - t0)


# --- output checks -------------------------------------------------------------


def check_common(sample: Sample) -> list[str]:
    if sample.exit_code != 0:
        return [f"exit code {sample.exit_code}: {sample.stderr.strip()[-300:]}"]
    return []


def tree_digest(path: Path) -> dict:
    """sha256 of every file under path, keyed by relative name."""
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(path))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def fingerprint(wl: Workload, sample: Sample, directory: Path) -> dict:
    if wl.command == "train":
        return {"stdout": sample.stdout, "files": tree_digest(directory / "run")}
    return {"stdout": sample.stdout}


def check_train_run(wl: Workload, run_dir: Path) -> list[str]:
    problems = []
    present = {p.name for p in run_dir.iterdir()} if run_dir.is_dir() else set()
    if present != RUN_ARTIFACTS:
        problems.append(f"run directory holds {sorted(present)}, expected {sorted(RUN_ARTIFACTS)}")
        return problems
    if not (run_dir / "model").is_dir():
        problems.append("run/model is not a directory")
    for name, epochs in (("lda.csv", wl.phase1_epochs), ("svm.csv", PHASE2_EPOCHS)):
        lines = (run_dir / name).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != CURVE_HEADER:
            problems.append(f"{name} header is {lines[:1]!r}, expected {CURVE_HEADER!r}")
        elif len(lines) != epochs + 1:
            problems.append(f"{name} has {len(lines) - 1} epoch rows, expected {epochs}")
    return problems


def check_sample(wl: Workload, setup: Setup, sample: Sample) -> list[str]:
    problems = check_common(sample)
    if problems:
        return problems
    if wl.command == "train":
        problems += check_train_run(wl, setup.directory / "run")
    got = fingerprint(wl, sample, setup.directory)
    if got != setup.reference:
        ref_files, got_files = setup.reference.get("files", {}), got.get("files", {})
        diff = sorted(k for k in ref_files.keys() | got_files.keys()
                      if ref_files.get(k) != got_files.get(k))
        what = f"files {diff}" if diff else "stdout"
        problems.append(f"output differs from the warm-up run of this invocation: {what}")
    return problems


def expected_evaluate_report(setup: Setup) -> str:
    """The evaluate report recomputed in this process from the public API."""
    from deeplda import (apply_standardizer, clean, confusion, format_report, load_csv,
                         load_schema, load_two_phase, predict_two_phase)

    model = load_two_phase(str(setup.model_dir))
    schema = load_schema(str(setup.directory / "schema.json"))
    ds = clean(load_csv(str(setup.directory / "eval.csv"), schema), schema)
    x = ds.x if model.standardizer is None else apply_standardizer(model.standardizer, ds).x
    _, labels = predict_two_phase(model, x, model.config2.threshold)
    with warnings.catch_warnings():  # a constant predictor warns; the report is still exact
        warnings.simplefilter("ignore")
        return format_report(confusion(labels, ds.y.astype(int))) + "\n"


def parse_accuracy(stdout: str) -> float:
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "accuracy":
            return float(parts[1])
    raise ValueError("no accuracy line in the command's output")


def parse_train_rows(stdout: str) -> int:
    # "trained E1+E2 epochs on N rows (M validation)"
    for line in stdout.splitlines():
        if line.startswith("trained ") and " on " in line:
            return int(line.split(" on ", 1)[1].split()[0])
    raise ValueError("no 'trained ... on N rows' line in the command's output")


# --- the measured loop -----------------------------------------------------------


def measure(wl: Workload, setup: Setup, seconds: float) -> tuple[list[Sample], list[list[str]]]:
    """Closed loop, one client: the next command starts when the last ends.
    Returns the samples and each one's failed checks."""
    samples, problems = [], []
    t_end = time.perf_counter() + seconds
    while True:
        if wl.command == "train":
            shutil.rmtree(setup.directory / "run")
        sample = spawn(cli_argv(setup.args), setup.directory)
        samples.append(sample)
        problems.append(check_sample(wl, setup, sample))
        if time.perf_counter() >= t_end:
            return samples, problems


def end_to_end(setup: Setup, samples: list[Sample], setup_s: list[float]) -> dict:
    wall = statistics.median(s.wall_s for s in samples)
    return {
        "wall_s": wall,
        "rows_per_s": setup.rows / wall,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "model_bytes": float(tree_bytes(setup.model_dir)),
        "accuracy": setup.accuracy,
        "setup_s": statistics.median(setup_s),
    }


# --- tracing -----------------------------------------------------------------------


def traced_run(wl: Workload, setup: Setup, index: int) -> tuple[Sample, dict]:
    """One run of the workload's command under traced_cli.py: (sample, spans)."""
    spans_path = setup.directory / f"spans{index}.json"
    if wl.command == "train":
        shutil.rmtree(setup.directory / "run")
    sample = spawn([str(HERE / "traced_cli.py"), str(spans_path), "--"] + setup.args,
                   setup.directory)
    trace = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.is_file() else {}
    return sample, trace


def self_times(spans: list) -> list[int]:
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(trace: dict) -> tuple[dict, list[str], dict]:
    """Per-layer metrics from one traced run, the names marked absent, and
    the phase-1 fit accounting.

    A metric is absent, and reads 0, when a function it needs no longer
    exists in the library or when the workload never reached that code
    (no training step in ``evaluate``). Totals over functions that exist but
    were not called read a measured 0.
    """
    spans = trace["spans"]
    own = self_times(spans)
    wrapped = set(trace.get("wrapped", ()))
    ms = 1e-6

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(idxs):
        return sum(spans[i][2] - spans[i][1] for i in idxs)

    def layer_self(layer):
        return sum(own[i] for i, s in enumerate(spans) if s[0].startswith(layer + "."))

    def info(i, key):
        return (spans[i][4] or {}).get(key)

    out: dict[str, float] = {}
    absent: list[str] = []

    def put(name, value, *requires):
        """requires: wrapped names; one ending in "." stands for any function of that layer."""
        have = all(any(w.startswith(r) for w in wrapped) if r.endswith(".") else r in wrapped
                   for r in requires)
        if value is None or not have:
            absent.append(name)
            value = 0.0
        out[name] = float(value)

    fits = named("network.fit")
    p1 = fits[0] if fits else None
    p2 = fits[1] if len(fits) > 1 else None
    kids = [i for i, s in enumerate(spans) if p1 is not None and s[3] == p1]
    fwd_train = [i for i in kids if spans[i][0] == "network.forward" and info(i, "mode") == "train"]
    bwd = [i for i in kids if spans[i][0] == "network.backward"]
    adam = [i for i in kids if spans[i][0] == "network.adam_step"]
    steps = len(adam)
    step_ms, start = [], None
    for i in kids:  # a step runs from its train-mode forward to the end of its Adam update
        if i in fwd_train:
            start = spans[i][1]
        elif spans[i][0] == "network.adam_step" and start is not None:
            step_ms.append((spans[i][2] - start) * ms)
            start = None

    def per_step(ns):
        return ns * ms / steps if steps else None

    put("network.forward_train_ms", per_step(total(fwd_train)), "network.forward")
    put("network.backward_ms", per_step(total(bwd)), "network.backward")
    put("network.adam_ms", per_step(total(adam)), "network.adam_step")
    put("network.fit_self_ms", per_step(own[p1]) if p1 is not None else None, "network.fit")
    put("network.step_ms_p50", percentile(step_ms, 50) if step_ms else None)
    put("network.step_ms_p99", percentile(step_ms, 99) if step_ms else None)
    put("network.steps", steps if steps else None, "network.adam_step")
    infer = [i for i in named("network.forward") if info(i, "mode") == "infer"]
    infer_rows = sum(info(i, "rows") or 0 for i in infer)
    put("network.forward_infer_ms_per_row",
        total(infer) * ms / infer_rows if infer_rows else None, "network.forward")
    put("network.self_ms", layer_self("network") * ms, "network.")

    transposes = named("linalg.transpose")
    put("linalg.transpose_calls", len(transposes), "linalg.transpose")
    put("linalg.transpose_bytes", sum(info(i, "bytes") or 0 for i in transposes),
        "linalg.transpose")
    put("linalg.matmul_ms", total(named("linalg.matmul")) * ms, "linalg.matmul")
    put("linalg.self_ms", layer_self("linalg") * ms, "linalg.")

    put("pipeline.save_ms", total(named("pipeline.save_two_phase")) * ms,
        "pipeline.save_two_phase")
    put("pipeline.load_ms", total(named("pipeline.load_two_phase")) * ms,
        "pipeline.load_two_phase")
    put("pipeline.phase1_fit_s", total([p1]) * 1e-9 if p1 is not None else None)
    put("pipeline.phase2_fit_s", total([p2]) * 1e-9 if p2 is not None else None)
    put("pipeline.transform_ms", total(named("pipeline.transform_phase1")) * ms,
        "pipeline.transform_phase1")
    put("pipeline.self_ms", layer_self("pipeline") * ms, "pipeline.")

    put("data.load_csv_ms", total(named("data.load_csv")) * ms, "data.load_csv")
    put("data.clean_ms", total(named("data.clean")) * ms, "data.clean")
    prep = (named("data.stratified_split") + named("data.fit_standardizer")
            + named("data.apply_standardizer"))
    put("data.prep_ms", total(prep) * ms, "data.stratified_split", "data.apply_standardizer")
    put("data.rows", sum(info(i, "rows") or 0 for i in named("data.load_csv")), "data.load_csv")
    put("data.self_ms", layer_self("data") * ms, "data.")

    rng_spans = [i for i, s in enumerate(spans) if s[0].startswith("rng.")]
    outer_rng = [i for i in rng_spans
                 if spans[i][3] < 0 or not spans[spans[i][3]][0].startswith("rng.")]
    draws = [info(i, "draws") for i in outer_rng]
    put("rng.draws", sum(draws) if None not in draws else None, "rng.")
    put("rng.ms", layer_self("rng") * ms, "rng.")
    put("metrics.ms", layer_self("metrics") * ms, "metrics.")
    put("cli.self_ms", layer_self("cli") * ms, "cli.main")
    put("cli.import_ms", trace["import_ns"] * ms)

    accounting = {}
    if steps:
        step_children = total(fwd_train) + total(bwd) + total(adam) + own[p1]
        accounting = {
            "phase1_fit_ms": total([p1]) * ms,
            "step_children_ms": step_children * ms,
            "unaccounted_ms": (total([p1]) - step_children) * ms,
            "phase2_steps": sum(1 for s in spans if p2 is not None and s[3] == p2
                                and s[0] == "network.adam_step"),
        }
    return out, absent, accounting


def computed_counts(wl: Workload, n_features: int) -> dict:
    """Work per phase-1 step at the workload's batch size, derived from the
    layer shapes rather than measured."""
    from deeplda.network import param_count
    from deeplda.pipeline import build_phase1_spec

    spec = build_phase1_spec(n_features)
    shapes = spec.dense_shapes()
    b = wl.batch_size
    # x @ W forward, a_in.T @ dz and dz @ W.T backward: three GEMMs per dense layer
    flops = 3 * 2 * b * sum(fan_in * units for fan_in, units in shapes)
    # Adam reads param, grad, m, v and writes param, m, v
    adam_bytes = param_count(spec) * 7 * 8
    # backward copies a_in.T (b x fan_in) and W.T (fan_in x units) per dense layer
    transpose_bytes = sum(b * fan_in + fan_in * units for fan_in, units in shapes) * 8
    return {
        "computed.gemm_flops_per_step": float(flops),
        "computed.adam_bytes_per_step": float(adam_bytes),
        "computed.transpose_bytes_per_step": float(transpose_bytes),
    }


# --- environment record -------------------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


# --- one invocation -------------------------------------------------------------------


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path,
        setup_repeats: int) -> dict:
    conftest = load_generator()
    env = environment(seed)
    setups, setup_s = [], []
    for k in range(setup_repeats):
        if setups:
            shutil.rmtree(setups[-1].directory)
        setups.append(set_up(wl, seed, work / f"setup{k}", conftest.write_clinical_csv))
        setup_s.append(setups[-1].seconds)
    setup = setups[-1]
    samples, sample_problems = measure(wl, setup, seconds)
    # A fault in the output every run reproduced fails every run.
    shared = []
    if wl.command == "evaluate" and setup.warmup.stdout != expected_evaluate_report(setup):
        shared.append("evaluate report differs from format_report(confusion(...)) "
                      "recomputed from load_two_phase and predict_two_phase")
    problems = shared + [f"run {i + 1}: {p}" for i, ps in enumerate(sample_problems) for p in ps]
    attempted = len(samples)
    failed = sum(1 for ps in sample_problems if ps or shared)
    e2e = end_to_end(setup, samples, setup_s)
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "setup_s_samples": setup_s,
              "wall_s_samples": [s.wall_s for s in samples],
              "peak_rss_mb_samples": [s.peak_rss_mb for s in samples],
              "end_to_end": e2e}
    metrics = {name: (value, E2E_UNITS[name]) for name, value in e2e.items()}
    if trace:
        traces = []
        for i in range(TRACED_RUNS):
            sample, spans = traced_run(wl, setup, i)
            attempted += 1
            bad = check_sample(wl, setup, sample) + ([] if spans else ["no spans written"])
            if bad:
                failed += 1
                problems += [f"traced run {i + 1}: {p}" for p in bad]
            else:
                traces.append((sample, layer_metrics(spans)))
        metrics = {}
        if traces:
            for name in ("rng.draws", "network.steps", "linalg.transpose_calls", "data.rows"):
                values = sorted({m[name] for _, (m, _, _) in traces})
                if len(values) > 1:
                    failed += 1
                    problems.append(f"count {name} did not repeat exactly: {values}")
            layer = {name: statistics.median(m[name] for _, (m, _, _) in traces)
                     for name in traces[0][1][0]}
            layer["trace.overhead_s"] = statistics.median(s.wall_s for s, _ in traces) - e2e["wall_s"]
            layer.update(computed_counts(wl, len(conftest.CLINICAL_FEATURES)))
            metrics = {name: (layer[name], LAYER_UNITS[name]) for name in LAYER_UNITS}
            record.update(per_layer=layer, absent=traces[0][1][1], fit_accounting=traces[0][1][2],
                          traced_wall_s=[s.wall_s for s, _ in traces])
    env["loadavg_after"] = os.getloadavg()
    record.update(attempted=attempted, failed=failed, problems=problems,
                  error_rate=failed / attempted)
    record["result"] = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record


def report(record: dict) -> None:
    """Human-readable lines; the JSON result line is printed by the caller."""
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"git {env['git_sha'] or 'unknown'}  nproc {env['nproc']}  "
          f"threads {env['threads']['OPENBLAS_NUM_THREADS']}  "
          f"load {env['loadavg_before'][0]:.2f}->{env['loadavg_after'][0]:.2f}")
    print(f"  wall_s median of {len(record['wall_s_samples'])} samples; "
          f"setup_s median of {len(record['setup_s_samples'])} set-ups")
    for name, m in record["result"]["metrics"].items():
        note = "  (absent)" if name in record.get("absent", ()) else ""
        print(f"  {name:<36s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"  {'error_rate':<36s} {record['error_rate']:>16.6g} ratio "
          f"({record['failed']} of {record['attempted']} runs)")
    acc = record.get("fit_accounting")
    if acc:
        print(f"  phase-1 fit {acc['phase1_fit_ms']:.1f} ms; forward_train+backward+adam+"
              f"fit_self {acc['step_children_ms']:.1f} ms; unaccounted "
              f"{acc['unaccounted_ms']:.1f} ms vs tracing overhead "
              f"{record['per_layer']['trace.overhead_s'] * 1e3:.1f} ms")
    for p in record["problems"]:
        print(f"  FAILED CHECK: {p}")


def invoke(wl: Workload, seed: int, seconds: float, trace: bool, setup_repeats: int) -> dict:
    work = OUT_DIR / "work" / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record = run(wl, seed, seconds, trace, work, setup_repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


# --- self-test ---------------------------------------------------------------------------


def self_test() -> int:
    """Quick variant of every workload, traced and untraced: every metric
    named in BENCHMARK.json is present with its unit and no run fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {w["name"] for w in spec["workloads"]}
    errors = []
    if declared != set(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {sorted(declared)} != {sorted(WORKLOADS)}")
    for trace, section, units in ((False, "end_to_end", E2E_UNITS),
                                  (True, "per_layer", LAYER_UNITS)):
        want = {m["name"]: m["unit"] for m in spec[section]}
        if want != units:
            errors.append(f"{section} in BENCHMARK.json differs from the code: "
                          f"{sorted(set(want.items()) ^ set(units.items()))}")
        for name in WORKLOADS:
            record = invoke(QUICK[name], 1, 0.0, trace, setup_repeats=1)
            result = record["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            if got != want:
                errors.append(f"{tag}: metrics {sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"] or result["failed"] or record["error_rate"] != 0:
                errors.append(f"{tag}: error_rate {record['error_rate']}: {record['problems']}")
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
            if bad:
                errors.append(f"{tag}: non-finite metrics {bad}")
            print(f"self-test {tag}: {len(got)} metrics, "
                  f"{result['attempted']} runs, {result['failed']} failed")
    for e in errors:
        print(f"SELF-TEST FAILED: {e}")
    print("self-test passed" if not errors else "self-test failed")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one set-up")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload in quick mode and check the metric set")
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)  # this process imports numpy too (the evaluate check)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        table = QUICK if args.quick else WORKLOADS
        # setup_s is an end-to-end metric: a traced or quick run sets up once.
        repeats = 1 if args.quick or args.trace else SETUP_REPEATS
        record = invoke(table[args.workload], args.seed, args.seconds, bool(args.trace), repeats)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
