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

from .data import DataSchema, Dataset, Standardizer, read_blocks, read_json, write_json
from .exceptions import DataError, NumericalError, ShapeError
from .metrics import ConfusionMatrix, TrainingHistory, confusion
from .network import (
    ROWS,
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
    scorer,
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


def _check_inputs(width: int, standardizer: Standardizer) -> None:
    """Refuse preprocessing without a feature name for each of phase 1's ``width``
    inputs; the :class:`Standardizer` holds a mean, a deviation and a median for each."""
    names = getattr(standardizer, "names", None)
    if names is None or len(names) != width:
        got = "none" if names is None else len(names)
        raise ShapeError(f"phase 1's {width} inputs need {width} feature names, got {got}")


@dataclass(frozen=True)
class TwoPhaseModel:
    """Both trained networks plus the preprocessing used to feed them.

    ``standardizer`` names the features phase 1 expects, and holds the medians
    that fill missing cells of a file the model scores (:func:`evaluate_two_phase`)
    and the statistics that scale them; ``train`` fits it on the training rows only.
    Construction refuses networks that do not chain and a standardizer without one
    feature name per phase-1 input, and the model is frozen, so it stays as checked.
    """

    phase1: Network
    phase2: Network
    standardizer: Standardizer
    config1: TrainConfig = field(default_factory=TrainConfig)
    config2: TrainConfig = field(default_factory=TrainConfig)
    seed: int | None = None

    def __post_init__(self):
        for phase, net in ((1, self.phase1), (2, self.phase2)):
            if not net.spec.has_binary_output():
                raise ShapeError(f"phase {phase} must end in one sigmoid unit")
        if self.phase2.spec.input_dim != 1:
            raise ShapeError("phase 2 must consume a single column")
        _check_inputs(self.phase1.spec.input_dim, self.standardizer)


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
    standardizer: Standardizer,
    seed: int | None = None,
) -> tuple[TwoPhaseModel, TrainingHistory, TrainingHistory]:
    """Train both phases in sequence from one random stream.

    Draw order: phase-1 init, phase-1 fit, phase-2 init, phase-2 fit.
    Phase 1 learns on the given features; its infer-mode outputs on the
    train and validation rows become the datasets phase 2 trains on, so
    phase-2 history rows are measured on transformed validation data, and
    ``history2.val_probs`` are the model's validation probabilities.
    Phase 1 drops its Adam moments once fitted, as :func:`load_two_phase` gives
    it back, so phase 2 and a save (``np.savez`` copies each array) stay below
    phase 1's peak. The datasets are used as given, as
    :func:`~deeplda.data.load_split` returns them with the ``standardizer`` the model
    records, beside ``seed``; a standardizer :class:`TwoPhaseModel` refuses is refused
    before phase 1 is made.
    A loss that goes non-finite, or an epoch loss sum that overflows, raises
    :class:`NumericalError` naming the phase.
    """
    _check_inputs(train.n_features, standardizer)
    phase1 = init_network(build_phase1_spec(train.n_features, config1.l2_lambda), rng)
    phase1, history1 = _fit_phase(1, phase1, train, val, config1, rng)
    phase1.moments = None  # twice phase 1's parameters, never read again
    model = TwoPhaseModel(phase1=phase1, phase2=init_network(build_phase2_spec(), rng),
                          standardizer=standardizer, config1=config1, config2=config2, seed=seed)
    # fit's last validation pass already scored val.x with the final weights.
    train2 = Dataset(x=predict(phase1, train.x)[0], y=train.y,
                     feature_names=("phase1_prob",))
    val2 = Dataset(x=history1.val_probs, y=val.y, feature_names=("phase1_prob",))
    _, history2 = _fit_phase(2, model.phase2, train2, val2, config2, rng)  # in place
    return model, history1, history2


def predict_two_phase(
    model: TwoPhaseModel, x: np.ndarray, threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """End-to-end probabilities and labels: phase 2 on phase-1 output."""
    return predict(model.phase2, predict(model.phase1, x)[0], threshold)


def evaluate_two_phase(model: TwoPhaseModel, path, schema: DataSchema) -> ConfusionMatrix:
    """The confusion counts of ``model``'s labels on a CSV file.

    The file is read by :func:`~deeplda.data.read_blocks` with the model's
    standardizer, in blocks of :data:`~deeplda.network.ROWS` rows, and each
    block goes through one :func:`~deeplda.network.scorer` per phase as it
    comes, so a model scores a file of any length in the memory of one block
    and one pair of buffers per phase. The labels equal
    :func:`predict_two_phase`'s on the same features.
    """
    score1, score2 = scorer(model.phase1), scorer(model.phase2)
    counts = ConfusionMatrix(0, 0, 0, 0)
    for block in read_blocks(path, schema, ROWS, model.standardizer):
        counts += confusion(score2(score1(block.x))[:, 0] >= model.config2.threshold, block.y)
    return counts


PHASE_FILES = ("phase1.npz", "phase2.npz")
MANIFEST_FILE = "manifest.json"
PREPROCESSING = ("feature_names", "standardizer", "medians")


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
    written. Once the sibling has landed only an interrupt raises, and the previous
    directory goes all the same: one that cannot be removed, or a parent that cannot
    be synced, is named in a warning. A sibling already there for this process's pid
    was left by a killed process that had it, so it is removed first; but a set-aside
    previous directory stays while ``directory`` is missing, as it holds the only one."""
    target = os.path.abspath(directory)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = f"{target}.tmp-{os.getpid()}"
    stale = f"{tmp}.old"
    if os.path.isdir(tmp) and not os.path.islink(tmp):  # a live process's pid is its own
        shutil.rmtree(tmp)
    if os.path.isdir(target) and os.path.lexists(stale):  # the swap sets target aside there
        _remove(stale)
    try:
        os.mkdir(tmp)
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
        os.replace(tmp, target)
        try:
            _fsync(os.path.dirname(target))
        except OSError as exc:
            warnings.warn(f"{target} holds the new run, but its parent directory "
                          f"could not be synced: {exc}")
    except BaseException:
        # What is on disk says how far the swap got, also when a signal
        # handler raised just after a rename had been made.
        if os.path.lexists(tmp):  # the new directory did not land
            if os.path.lexists(stale) and not os.path.lexists(target):
                os.replace(stale, target)  # put the old one back
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        _remove_stale(target, stale)  # it landed, or the sibling was never made
        raise
    _remove_stale(target, stale)


def _remove_stale(target: str, stale: str) -> None:
    """Remove the previous directory that :func:`replacing` set aside at ``stale``,
    if any, now that ``target`` holds the new one; a failure is only a warning."""
    if not os.path.lexists(stale):
        return
    try:
        _remove(stale)
    except OSError as exc:
        warnings.warn(f"{target} holds the new run, but the previous one is left "
                      f"at {stale}: {exc}")
    except BaseException:  # an interrupt part way: finish the removal, then raise it
        shutil.rmtree(stale, ignore_errors=True)
        raise


def _remove(path: str) -> None:
    """Remove a directory, or a link to one, whose target then stays."""
    if os.path.islink(path):
        os.unlink(path)
    else:
        shutil.rmtree(path)


def save_two_phase(model: TwoPhaseModel, directory) -> None:
    """Write a model directory: both network files plus a manifest.

    The manifest records the per-phase configs, the seed, the feature
    names, the standardizer and the medians, so a saved run can be reloaded
    and applied to fresh raw data; every model holds them. The directory
    lands through :func:`replacing`, so a save that fails leaves no partial
    model.
    """
    with replacing(directory) as tmp:
        _write_two_phase(model, tmp)


def _write_two_phase(model: TwoPhaseModel, directory) -> None:
    """Write :func:`save_two_phase`'s files into the existing, empty ``directory``,
    which the caller lands; a run directory lands its ``model/`` with the run."""
    manifest = {
        "format": TWO_PHASE_FORMAT,
        "config1": model.config1.to_dict(),
        "config2": model.config2.to_dict(),
        "seed": model.seed,
        "feature_names": list(model.standardizer.names),
        "standardizer": {
            "mean": model.standardizer.mean.tolist(),
            "std": model.standardizer.std.tolist(),
        },
        "medians": model.standardizer.medians.tolist(),
    }
    for net, name in zip((model.phase1, model.phase2), PHASE_FILES):
        save_network(net, os.path.join(directory, name))
    write_json(manifest, os.path.join(directory, MANIFEST_FILE))


def load_two_phase(directory) -> TwoPhaseModel:
    """Load a directory written by :func:`save_two_phase`.

    A missing or malformed manifest or network file, or a manifest of
    another format, raises :class:`DataError`. The manifest must hold
    :data:`PREPROCESSING` as JSON: a list of feature names, and standardizer
    means and deviations and medians as flat lists of finite JSON numbers of
    one length.
    Networks and preprocessing that :class:`TwoPhaseModel` refuses, such as
    a name count other than phase 1's inputs or a phase-2 file that is not a
    scalar-input head, raise :class:`DataError` naming the directory.
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
        names, std, medians = (manifest[key] for key in PREPROCESSING)
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise TypeError(f"feature_names must be a list of strings, got {names!r}")
        if not isinstance(std, dict):
            raise TypeError(f"standardizer must be an object, got {std!r}")
        for what, value in (("standardizer means", std["mean"]),
                            ("standardizer deviations", std["std"]), ("medians", medians)):
            if not (isinstance(value, list) and all(type(v) in (int, float) for v in value)):
                raise TypeError(f"{what} must be a flat list of JSON numbers")
        standardizer = Standardizer(std["mean"], std["std"], medians, names)  # which checks it
        seed = manifest["seed"]
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise TypeError(f"seed must be an integer or null, got {seed!r}")
    except KeyError as exc:
        raise DataError(f"model manifest {path} lacks the key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: 10**400
        raise DataError(f"model manifest {path} is malformed: {exc}") from None
    phase1, phase2 = (load_network(os.path.join(directory, name)) for name in PHASE_FILES)
    try:
        return TwoPhaseModel(phase1=phase1, phase2=phase2, standardizer=standardizer,
                             config1=config1, config2=config2, seed=seed)
    except ValueError as exc:  # ShapeError is one
        raise DataError(f"{path} does not describe the networks in {directory}: {exc}") from None
