"""Command-line entry points: train, evaluate, inspect, baseline.

One command is one process and one deterministic run. Options resolve as
flags over config-file values over built-in defaults, and the fully
resolved configuration is written into every run manifest so a run
directory plus its seed reproduces every emitted file byte for byte.

Exit codes: 0 success, 1 usage error, 2 data error or out of memory,
3 numerical error, 130 interrupted (Ctrl-C), 143 terminated (SIGTERM).
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import sys
import warnings

import click

from .data import load_schema, load_split, read_json, write_json
from .exceptions import ContractError, DataError, NumericalError, ShapeError
from .fisher import fit_fisher, predict_lda
from .metrics import confusion, format_report, history_to_csv
from .network import TrainConfig, layer_param_counts, param_count
from .pipeline import (
    _write_two_phase,
    build_phase1_spec,
    build_phase2_spec,
    evaluate_two_phase,
    load_two_phase,
    replacing,
    train_two_phase,
)
from .rng import SplitMix64

RUN_FORMAT = "deeplda.run/1"
RUN_FILES = {"model", "lda.csv", "svm.csv", "metrics.txt", "manifest.json"}

DEFAULT_SEED = 0
DEFAULT_VAL_FRACTION = 0.2

# Run-config keys of one phase and the TrainConfig fields they set.
_PHASE_FIELDS = {
    "lr": "learning_rate", "epochs": "epochs", "batch_size": "batch_size",
    "l2": "l2_lambda", "threshold": "threshold",
}
# The other scalar run-config keys, each with its type and that type's name.
_SCALAR_TYPES = {
    "data": (str, "a string"), "schema": (str, "a string"), "out": (str, "a string"),
    "seed": (int, "an integer"), "val_fraction": ((int, float), "a number"),
}
_TOP_KEYS = set(_PHASE_FIELDS) | set(_SCALAR_TYPES) | {"phase1", "phase2"}


def _load_run_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = read_json(path, "config file")
    if not isinstance(doc, dict):
        raise click.UsageError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, (kind, name) in _SCALAR_TYPES.items():
        value = doc.get(key)
        if key in doc and (isinstance(value, bool) or not isinstance(value, kind)):
            raise click.UsageError(f"config key {key!r} must be {name}, got {value!r}")
    for phase in ("phase1", "phase2"):
        section = doc.get(phase, {})
        if not isinstance(section, dict):
            raise click.UsageError(f"config section {phase!r} must be an object")
        bad = set(section) - set(_PHASE_FIELDS)
        if bad:
            raise click.UsageError(f"unknown keys in {phase!r}: {sorted(bad)}")
    return doc


def _resolve_phase(cfg: dict, section: str, flags: dict) -> TrainConfig:
    """Precedence inside one phase: flag, then phase section, then top level."""
    merged = {k: cfg[k] for k in _PHASE_FIELDS if k in cfg}
    merged.update(cfg.get(section, {}))
    merged.update({k: v for k, v in flags.items() if v is not None})
    try:
        return TrainConfig(**{_PHASE_FIELDS[k]: v for k, v in merged.items()})
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"{section}: {exc}") from None


def _given(flag, cfg: dict, key: str, default=None):
    """A flag's value if it was given, else the run config's, else ``default``."""
    return flag if flag is not None else cfg.get(key, default)


def _require(value, flag: str):
    if value is None:
        raise click.UsageError(f"missing required option {flag}")
    return value


def _resolve_common(cfg: dict, data, schema, seed, val_fraction, out):
    """The shared options, flag over config: ``--data`` and ``--schema`` are required."""
    val_fraction = _given(val_fraction, cfg, "val_fraction", DEFAULT_VAL_FRACTION)
    if not 0.0 < val_fraction < 1.0:
        raise click.UsageError(f"val-fraction must lie in (0, 1), got {val_fraction}")
    return (_require(_given(data, cfg, "data"), "--data"),
            _require(_given(schema, cfg, "schema"), "--schema"),
            _given(seed, cfg, "seed", DEFAULT_SEED), val_fraction, _given(out, cfg, "out"))


@click.group(name="deeplda")
def cli():
    """Two-phase deep discriminant classifier for tabular binary data."""


def _common_options(fn):
    for args, kwargs in reversed([
        (("--data",), dict(default=None, help="Training CSV path.")),
        (("--schema",), dict(default=None, help="Dataset schema JSON path.")),
        (("--config",), dict(default=None, help="Run-config JSON file.")),
        (("--seed",), dict(type=int, default=None, help="Random seed (default 0).")),
        (("--val-fraction",), dict(type=float, default=None,
                                   help="Validation fraction (default 0.2).")),
    ]):
        fn = click.option(*args, **kwargs)(fn)
    return fn


@cli.command(name="train")
@_common_options
@click.option("--lr", type=float, default=None, help="Learning rate for both phases.")
@click.option("--epochs", type=int, default=None, help="Epochs for both phases.")
@click.option("--batch-size", type=int, default=None, help="Mini-batch size.")
@click.option("--l2", type=float, default=None, help="L2 kernel coefficient (phase 1).")
@click.option("--out", default=None, help="Output directory for run artifacts.")
def cmd_train(data, schema, config, seed, val_fraction, lr, epochs, batch_size, l2, out):
    """Train both phases and write a self-describing run directory."""
    cfg = _load_run_config(config)
    data, schema, seed, val_fraction, out = _resolve_common(
        cfg, data, schema, seed, val_fraction, out
    )
    _require(out, "--out")
    flags = {"lr": lr, "epochs": epochs, "batch_size": batch_size, "l2": l2}
    config1 = _resolve_phase(cfg, "phase1", flags)
    config2 = _resolve_phase(cfg, "phase2", flags)
    target = os.path.abspath(out)  # the path replacing() swaps: "" or "x/../run" included
    if os.path.lexists(target) and not (
            os.path.isdir(target) and set(os.listdir(target)) <= RUN_FILES):
        raise DataError(f"--out {out} is not absent, an empty directory or a previous run")

    rng = SplitMix64(seed)
    train_ds, val_ds, std = load_split(data, load_schema(schema), val_fraction, rng)
    model, history1, history2 = train_two_phase(train_ds, val_ds, config1, config2, rng,
                                                std, seed)

    # Each phase's last validation pass scored the validation rows; phase 2's end to end.
    labels = {phase: history.val_probs[:, 0] >= config.threshold for phase, history, config
              in (("phase1", history1, config1), ("phase2", history2, config2))}
    degenerate = {phase: bool(pred.all() or not pred.any()) for phase, pred in labels.items()}
    for phase, pred in labels.items():
        if degenerate[phase]:
            why = " (phase 1 does not)" if phase == "phase2" and not degenerate["phase1"] else ""
            warnings.warn(f"phase {phase[-1]} predicts class {int(pred[0])} "
                          f"for all {pred.size} validation rows{why}")
    report = format_report(confusion(labels["phase2"], val_ds.y))

    with replacing(out) as tmp:  # which syncs model/ with the rest of the run
        model_dir = os.path.join(tmp, "model")
        os.mkdir(model_dir)
        _write_two_phase(model, model_dir)
        history_to_csv(history1, os.path.join(tmp, "lda.csv"))
        history_to_csv(history2, os.path.join(tmp, "svm.csv"))
        with open(os.path.join(tmp, "metrics.txt"), "w", encoding="utf-8", newline="") as fh:
            fh.write(report + "\n")
        write_json({
            "format": RUN_FORMAT,
            "data": data,
            "schema": schema,
            "seed": seed,
            "val_fraction": val_fraction,
            "phase1": config1.to_dict(),
            "phase2": config2.to_dict(),
            "n_train": train_ds.n_rows,
            "n_val": val_ds.n_rows,
            "n_features": train_ds.n_features,
            "degenerate": degenerate,
        }, os.path.join(tmp, "manifest.json"))

    click.echo(f"run directory: {out}")
    click.echo(f"trained {config1.epochs}+{config2.epochs} epochs "
               f"on {train_ds.n_rows} rows ({val_ds.n_rows} validation)")
    click.echo("validation report:")
    click.echo(report)


@cli.command(name="evaluate")
@click.option("--model", "model_dir", default=None, help="Model directory from a train run.")
@click.option("--data", default=None, help="CSV to evaluate on.")
@click.option("--schema", default=None, help="Dataset schema JSON path.")
@click.option("--config", default=None, help="Run-config JSON file.")
def cmd_evaluate(model_dir, data, schema, config):
    """Print the metric report of a saved model on a dataset."""
    cfg = _load_run_config(config)
    _require(model_dir, "--model")
    data = _require(_given(data, cfg, "data"), "--data")
    schema = _require(_given(schema, cfg, "schema"), "--schema")
    model = load_two_phase(model_dir)
    click.echo(format_report(evaluate_two_phase(model, data, load_schema(schema))))


@cli.command(name="inspect")
@click.option("--phase", type=click.IntRange(1, 2), default=1,
              help="Which phase spec to describe.")
@click.option("--input-dim", type=int, default=None,
              help="Feature width for phase 1 (default 41).")
def cmd_inspect(phase, input_dim):
    """Print per-layer and total parameter counts for a phase spec."""
    if phase == 1:
        spec = build_phase1_spec(input_dim if input_dim is not None else 41)
    else:
        if input_dim is not None and input_dim != 1:
            raise click.UsageError("phase 2 input width is fixed at 1")
        spec = build_phase2_spec()
    click.echo(f"phase {phase} (input_dim={spec.input_dim})")
    counts = layer_param_counts(spec)
    for i, (layer, count) in enumerate(zip(spec.layers, counts), start=1):
        if layer.kind == "dense":
            desc = f"dense {layer.units} {layer.activation}"
        else:
            desc = f"dropout {layer.rate:g}"
        click.echo(f"  layer {i}  {desc:<22s} {count:>12,d}")
    click.echo(f"  total {'':<24s} {param_count(spec):>12,d}")


@cli.command(name="baseline")
@_common_options
@click.option("--ridge", type=float, default=1e-6, help="Scatter ridge term.")
def cmd_baseline(data, schema, config, seed, val_fraction, ridge):
    """Fisher discriminant on the same split a train run would use."""
    cfg = _load_run_config(config)
    data, schema, seed, val_fraction, _ = _resolve_common(
        cfg, data, schema, seed, val_fraction, None
    )
    if not 0 <= ridge < math.inf:  # fit_fisher checks too, but only after the data is read
        raise click.UsageError(f"ridge must be finite and >= 0, got {ridge}")
    rng = SplitMix64(seed)
    train_ds, val_ds, _ = load_split(data, load_schema(schema), val_fraction, rng)
    model = fit_fisher(train_ds, ridge)
    scores, labels = predict_lda(model, val_ds.x)
    click.echo(f"fisher baseline on {val_ds.n_rows} validation rows (seed {seed})")
    click.echo(format_report(confusion(labels, val_ds.y)))


def _show_warning(message, *args, **kwargs):
    print(f"deeplda: warning: {message}", file=sys.stderr)


class _Terminated(BaseException):
    """Raised by the SIGTERM handler, so a swap in progress removes its sibling."""


def _terminate(signum, frame):
    raise _Terminated


def main(argv=None) -> int:
    """Run ``argv`` (default ``sys.argv[1:]``) and return its documented exit
    code; it never raises ``SystemExit``. Each Python warning is printed as one
    ``deeplda: warning:`` line, without the library source line. While it runs,
    SIGTERM ends the command as Ctrl-C does; the previous handler is restored.
    When stdout's reader has gone, file descriptor 1 is left on the null device."""
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            with cli.make_context("deeplda", sys.argv[1:] if argv is None else list(argv)) as ctx:
                cli.invoke(ctx)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except (KeyboardInterrupt, EOFError):  # the empty line ends a terminal's "^C" line
        print("\ndeeplda: interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("deeplda: terminated", file=sys.stderr)
        return 143
    except (DataError, ShapeError, OSError) as exc:
        print(f"deeplda: data error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # What stdout still buffers goes to the null device, not to a failing exit flush.
            with contextlib.suppress(AttributeError, OSError):  # stdout None or without an fd
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except MemoryError as exc:
        print(f"deeplda: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 2
    except (NumericalError, ContractError, ArithmeticError) as exc:
        print(f"deeplda: numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"deeplda: usage error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
