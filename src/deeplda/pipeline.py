"""Two-phase classifier: deep discriminator, then a scalar-input head.

Phase 1 is a wide sigmoid network that maps the feature vector to one
probability. Phase 2 is a small relu-plus-dropout head trained on those
scalar outputs against the same labels. The phases are trained
independently, in sequence, from one shared random stream.
"""

from __future__ import annotations

import os
import shutil
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Standardizer, read_json, write_json
from .exceptions import DataError, NumericalError, ShapeError
from .metrics import TrainingHistory
from .network import (
    Network,
    NetworkSpec,
    TrainConfig,
    dense,
    dropout,
    fit,
    init_network,
    load_network,
    predict,
    save_network,
)
from .rng import SplitMix64

TWO_PHASE_FORMAT = "deeplda.two-phase/2"

PHASE1_HIDDEN = 1024
PHASE2_HIDDEN = 100
PHASE2_DROPOUT = 0.5


def build_phase1_spec(input_dim: int = 41, l2_lambda: float = 0.01) -> NetworkSpec:
    """Discriminator spec: three 1024-unit sigmoid layers, sigmoid output.

    The L2 coefficient applies to the hidden kernels only; the output
    kernel is left unregularized.
    """
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    return NetworkSpec(
        input_dim=input_dim,
        layers=(
            dense(PHASE1_HIDDEN, "sigmoid", l2_lambda),
            dense(PHASE1_HIDDEN, "sigmoid", l2_lambda),
            dense(PHASE1_HIDDEN, "sigmoid", l2_lambda),
            dense(1, "sigmoid"),
        ),
    )


def build_phase2_spec() -> NetworkSpec:
    """Head spec: scalar input, 100 relu units, dropout 0.5, sigmoid out."""
    return NetworkSpec(
        input_dim=1,
        layers=(
            dense(PHASE2_HIDDEN, "relu"),
            dropout(PHASE2_DROPOUT),
            dense(1, "sigmoid"),
        ),
    )


@dataclass
class TwoPhaseModel:
    """Both trained networks plus the preprocessing used to feed them.

    ``standardizer`` and ``feature_names`` describe what phase 1 expects;
    they are carried for serialization and later inference, never applied
    by the pipeline functions themselves.
    """

    phase1: Network
    phase2: Network
    config1: TrainConfig = field(default_factory=TrainConfig)
    config2: TrainConfig = field(default_factory=TrainConfig)
    standardizer: Standardizer | None = None
    feature_names: tuple[str, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        for phase, net in ((1, self.phase1), (2, self.phase2)):
            if not net.spec.has_binary_output():
                raise ShapeError(f"phase {phase} must end in one sigmoid unit")
        if self.phase2.spec.input_dim != 1:
            raise ShapeError("phase 2 must consume a single column")
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))


def transform_phase1(model: TwoPhaseModel, x: np.ndarray) -> np.ndarray:
    """Infer-mode phase-1 probabilities: the (n, 1) input for phase 2."""
    return predict(model.phase1, x)[0]


def _fit_phase(phase: int, net: Network, *args) -> tuple[Network, TrainingHistory]:
    try:
        return fit(net, *args)
    except NumericalError as exc:
        raise NumericalError(f"phase {phase}: {exc}") from None


def train_two_phase(
    train: Dataset,
    val: Dataset,
    config1: TrainConfig,
    config2: TrainConfig,
    rng: SplitMix64,
    standardizer: Standardizer | None = None,
) -> tuple[TwoPhaseModel, TrainingHistory, TrainingHistory]:
    """Train both phases in sequence from one random stream.

    Draw order: phase-1 init, phase-1 fit, phase-2 init, phase-2 fit.
    Phase 1 learns on the given features; its infer-mode outputs on the
    train and validation rows become the datasets phase 2 trains on, so
    phase-2 history rows are measured on transformed validation data, and
    ``history2.val_probs`` are the model's validation probabilities.
    Phase 1 is returned without its Adam moments, as :func:`load_two_phase`
    gives it back, so phase 2 and the caller do not hold them.
    The datasets are used as given (standardize beforehand if desired);
    ``standardizer`` is only recorded on the returned model. A loss that
    goes non-finite raises :class:`NumericalError` naming the phase.
    """
    if train.n_features != val.n_features:
        raise ShapeError(
            f"train has {train.n_features} features, validation has {val.n_features}"
        )
    phase1 = init_network(build_phase1_spec(train.n_features, config1.l2_lambda), rng)
    phase1, history1 = _fit_phase(1, phase1, train, val, config1, rng)
    phase1.moments = None  # twice phase 1's parameters, never read again
    model = TwoPhaseModel(phase1=phase1, phase2=init_network(build_phase2_spec(), rng),
                          config1=config1, config2=config2, standardizer=standardizer,
                          feature_names=train.feature_names)
    # fit's last validation pass already scored val.x with the final weights.
    train2 = Dataset(x=transform_phase1(model, train.x), y=train.y,
                     feature_names=("phase1_prob",))
    val2 = Dataset(x=history1.val_probs, y=val.y, feature_names=("phase1_prob",))
    _, history2 = _fit_phase(2, model.phase2, train2, val2, config2, rng)
    return model, history1, history2


def predict_two_phase(
    model: TwoPhaseModel, x: np.ndarray, threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """End-to-end probabilities and labels: phase 2 on phase-1 output."""
    return predict(model.phase2, transform_phase1(model, x), threshold)


PHASE_FILES = ("phase1.npz", "phase2.npz")
MANIFEST_FILE = "manifest.json"


def _fsync(path) -> None:
    """Flush a file's or a directory's data and metadata to the disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _raise(exc: OSError) -> None:
    raise exc


@contextmanager
def replacing(directory):
    """Yield a new sibling of ``directory`` that replaces it, and any directory there,
    when the block ends; if the block raises, the sibling goes and ``directory`` stays.
    Every file and directory in the sibling is synced before the swap and the parent
    directory after it, so after an OS crash ``directory`` holds no file shorter than
    written. Once the sibling has landed nothing raises: a previous directory that
    cannot be removed, or a parent that cannot be synced, is named in a warning."""
    target = os.path.abspath(directory)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.tmp-{os.getpid()}"
    stale = f"{tmp}.old"
    os.mkdir(tmp)
    moved = False
    try:
        yield tmp
        # Each directory after its contents; a directory that cannot be listed raises.
        for root, _, files in os.walk(tmp, topdown=False, onerror=_raise):
            for name in files:
                _fsync(os.path.join(root, name))
            _fsync(root)
        # os.replace cannot overwrite a non-empty directory, so an existing
        # one is moved aside first and deleted once the new one is in place.
        if os.path.isdir(target):
            os.replace(target, stale)
            moved = True
        os.replace(tmp, target)
    except BaseException:
        if moved:  # the new directory did not land: put the old one back
            os.replace(stale, target)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    try:
        _fsync(os.path.dirname(target))
    except OSError as exc:
        warnings.warn(f"{target} holds the new run, but its parent directory "
                      f"could not be synced: {exc}")
    if moved:  # the new directory has landed, so removing the old one is best effort
        try:
            if os.path.islink(stale):  # a link to a directory: the link goes, its target stays
                os.unlink(stale)
            else:
                shutil.rmtree(stale)
        except OSError as exc:
            warnings.warn(f"{target} holds the new run, but the previous one is left "
                          f"at {stale}: {exc}")


def save_two_phase(model: TwoPhaseModel, directory) -> None:
    """Write a model directory: both network files plus a manifest.

    The manifest records the per-phase configs, the seed, the feature
    names, and the standardizer, so a saved run can be reloaded and
    applied to fresh raw data. The directory lands through :func:`replacing`,
    so a save that fails leaves no partial model.
    """
    manifest = {
        "format": TWO_PHASE_FORMAT,
        "config1": model.config1.to_dict(),
        "config2": model.config2.to_dict(),
        "seed": model.seed,
        "feature_names": list(model.feature_names) if model.feature_names else None,
        "standardizer": None
        if model.standardizer is None
        else {
            "mean": model.standardizer.mean.tolist(),
            "std": model.standardizer.std.tolist(),
        },
    }
    with replacing(directory) as tmp:
        save_network(model.phase1, os.path.join(tmp, PHASE_FILES[0]), {"phase": 1})
        save_network(model.phase2, os.path.join(tmp, PHASE_FILES[1]), {"phase": 2})
        write_json(manifest, os.path.join(tmp, MANIFEST_FILE))


def load_two_phase(directory) -> TwoPhaseModel:
    """Load a directory written by :func:`save_two_phase`.

    A missing or malformed manifest or network file, or a manifest of
    another format, raises :class:`DataError`.
    """
    path = os.path.join(directory, MANIFEST_FILE)
    manifest = read_json(path, "model manifest")
    found = manifest.get("format") if isinstance(manifest, dict) else type(manifest).__name__
    if found != TWO_PHASE_FORMAT:
        raise DataError(f"{path} is not a two-phase model manifest "
                        f"(format={found!r}, expected {TWO_PHASE_FORMAT!r})")
    try:
        config1 = TrainConfig.from_dict(manifest["config1"])
        config2 = TrainConfig.from_dict(manifest["config2"])
        names = manifest["feature_names"]
        if names is not None and not (
            isinstance(names, list) and all(isinstance(n, str) for n in names)
        ):
            raise TypeError(f"feature_names must be a list of strings or null, got {names!r}")
        std = manifest["standardizer"]
        standardizer = None
        if std is not None:
            mean, dev = std["mean"], std["std"]
            if not all(isinstance(s, list) and all(type(v) in (int, float) for v in s)
                       for s in (mean, dev)):
                raise TypeError("standardizer mean and std must be flat lists of JSON numbers")
            if not len(mean) == len(dev) == len(names or mean):
                raise ValueError(f"standardizer has {len(mean)} means and {len(dev)} "
                                 f"deviations for {len(names or mean)} features")
            standardizer = Standardizer(mean, dev)  # which refuses NaN and infinities
        seed = manifest["seed"]
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise TypeError(f"seed must be an integer or null, got {seed!r}")
    except KeyError as exc:
        raise DataError(f"model manifest {path} lacks the key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: 10**400
        raise DataError(f"model manifest {path} is malformed: {exc}") from None
    return TwoPhaseModel(
        phase1=load_network(os.path.join(directory, PHASE_FILES[0])),
        phase2=load_network(os.path.join(directory, PHASE_FILES[1])),
        config1=config1,
        config2=config2,
        standardizer=standardizer,
        feature_names=tuple(names) if names else None,
        seed=seed,
    )
