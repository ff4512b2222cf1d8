"""Dense feed-forward binary classifiers with hand-written backpropagation.

Layer conventions: a batch is an (n, features) matrix; a dense layer with
weights W of shape (fan_in, units) and a bias row b of shape (1, units)
computes ``act(x @ W + b)``. Dropout is inverted: at train time each unit
is zeroed with probability ``rate`` and survivors are scaled by
``1 / (1 - rate)``, so inference is a plain forward pass. The training
objective is binary cross-entropy on clamped probabilities plus the L2
kernel penalties (weights only, never biases) declared per layer, and
parameters are updated with bias-corrected Adam.

Everything here is deterministic given the :class:`~deeplda.rng.SplitMix64`
stream passed in; the draw order is documented on each consumer.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .exceptions import ContractError, DataError, NumericalError, ShapeError
from .metrics import EpochRecord, TrainingHistory
from .rng import BLOCK, SplitMix64

ACTIVATIONS = ("sigmoid", "relu", "none")

# Probability clamp for the cross-entropy; matches the Adam epsilon scale.
BCE_EPS = 1e-7


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, computed in place in the C-contiguous ``z``.

    The bits equal the two-branch form, 1/(1+exp(-z)) for z >= 0 and
    exp(z)/(1+exp(z)) below, and exp(-|z|) cannot overflow. Both branches
    are one division num/(1+e) with e = exp(-|z|): num is max(e, [z >= 0]),
    which is 1 where z >= 0 (there e <= 1) and e elsewhere, and NaN stays
    NaN. The array is walked in blocks of :data:`BLOCK` values through one
    block of scratch, with no mask and no full-size temporary.
    """
    flat = z.reshape(-1)
    scratch = np.empty(min(BLOCK, flat.size))
    for start in range(0, flat.size, BLOCK):
        e = flat[start : start + BLOCK]
        num = np.greater_equal(e, 0.0, out=scratch[: e.size])
        np.exp(np.negative(np.abs(e, out=e), out=e), out=e)
        np.maximum(e, num, out=num)
        e += 1.0
        np.divide(num, e, out=e)
    return z


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """Apply an activation in place in ``z`` and return it."""
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    return z


def _activation_gradient(name: str, a_out: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """``delta * act'(z)``, with act' expressed through the activation
    output, as one new array (``delta`` itself for no activation)."""
    if name == "none":
        return delta
    if name == "sigmoid":
        g = np.subtract(1.0, a_out)
        g *= a_out
    else:
        # relu; subgradient 0 at z == 0.
        g = np.greater(a_out, 0.0, out=np.empty_like(a_out))
    g *= delta
    return g


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a dense transform or a dropout regularizer.

    Dense layers use ``units``, ``activation`` and ``l2_lambda``; dropout
    layers use ``rate`` only.
    """

    kind: str
    units: int = 0
    activation: str = "none"
    l2_lambda: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind == "dense":
            if self.units < 1:
                raise ValueError(f"dense layer needs units >= 1, got {self.units}")
            if self.activation not in ACTIVATIONS:
                raise ValueError(
                    f"unknown activation {self.activation!r}; choose from {ACTIVATIONS}"
                )
            if self.l2_lambda < 0:
                raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        elif self.kind == "dropout":
            if not 0.0 <= self.rate < 1.0:
                raise ValueError(f"dropout rate must lie in [0, 1), got {self.rate}")
        else:
            raise ValueError(f"unknown layer kind {self.kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "dense":
            return {
                "kind": "dense",
                "units": self.units,
                "activation": self.activation,
                "l2_lambda": self.l2_lambda,
            }
        return {"kind": "dropout", "rate": self.rate}

    @staticmethod
    def from_dict(d: dict) -> "LayerSpec":
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind == "dense":
            return dense(int(d["units"]), str(d["activation"]), float(d.get("l2_lambda", 0.0)))
        if kind == "dropout":
            return dropout(float(d["rate"]))
        raise ValueError(f"unknown layer kind in {d!r}")


def dense(units: int, activation: str = "none", l2_lambda: float = 0.0) -> LayerSpec:
    return LayerSpec(kind="dense", units=units, activation=activation, l2_lambda=l2_lambda)


def dropout(rate: float) -> LayerSpec:
    return LayerSpec(kind="dropout", rate=rate)


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative architecture: input width plus an ordered layer list."""

    input_dim: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        object.__setattr__(self, "layers", tuple(self.layers))

    def dense_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, units) for each dense layer, chained through the stack."""
        shapes = []
        width = self.input_dim
        for layer in self.layers:
            if layer.kind == "dense":
                shapes.append((width, layer.units))
                width = layer.units
        return shapes

    @property
    def output_dim(self) -> int:
        width = self.input_dim
        for layer in self.layers:
            if layer.kind == "dense":
                width = layer.units
        return width

    def has_binary_output(self) -> bool:
        if not self.layers:
            return False
        last = self.layers[-1]
        return last.kind == "dense" and last.units == 1 and last.activation == "sigmoid"

    def to_dict(self) -> dict:
        return {"input_dim": self.input_dim, "layers": [l.to_dict() for l in self.layers]}

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        return NetworkSpec(
            input_dim=int(d["input_dim"]),
            layers=tuple(LayerSpec.from_dict(l) for l in d["layers"]),
        )


def layer_param_counts(spec: NetworkSpec) -> list[int]:
    """Trainable parameters per layer; dropout layers contribute 0."""
    counts = []
    shapes = iter(spec.dense_shapes())
    for layer in spec.layers:
        if layer.kind == "dense":
            fan_in, units = next(shapes)
            counts.append(fan_in * units + units)
        else:
            counts.append(0)
    return counts


def param_count(spec: NetworkSpec) -> int:
    """Total trainable parameters (weights plus biases) of a spec."""
    return sum(layer_param_counts(spec))


@dataclass
class AdamState:
    """Per-parameter Adam moments; m and v are zero until the first step."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7

    @staticmethod
    def zeros(shape: tuple[int, ...]) -> "AdamState":
        return AdamState(m=np.zeros(shape), v=np.zeros(shape))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    Defaults follow the reference experiment: learning rate 1e-5, 100
    epochs, batches of 64, L2 coefficient 0.01 on regularized kernels.
    ``epochs=0`` is allowed and makes ``fit`` a no-op.
    """

    learning_rate: float = 1e-5
    epochs: int = 100
    batch_size: int = 64
    l2_lambda: float = 0.01
    threshold: float = 0.5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l2_lambda < 0:
            raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "l2_lambda": self.l2_lambda,
            "threshold": self.threshold,
        }

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        """Inverse of :meth:`to_dict`; drops the unused ``seed`` key that
        format-1 model manifests carry."""
        if not isinstance(d, dict):
            raise DataError(f"a train config must be an object, got {d!r}")
        return TrainConfig(**{k: v for k, v in d.items() if k != "seed"})


class Network:
    """Instantiated parameters for a :class:`NetworkSpec`.

    The network holds C-contiguous copies of the arrays it is given, and
    :func:`adam_step` updates them in place. ``version`` counts optimizer
    steps; forward caches remember the version they were computed against
    so a stale cache cannot silently feed a backward pass.
    """

    def __init__(self, spec: NetworkSpec, weights: list[np.ndarray], biases: list[np.ndarray]):
        shapes = spec.dense_shapes()
        if len(weights) != len(shapes) or len(biases) != len(shapes):
            raise ShapeError(
                f"spec has {len(shapes)} dense layers but got "
                f"{len(weights)} weight and {len(biases)} bias arrays"
            )
        self.spec = spec
        self.weights = []
        self.biases = []
        for k, (fan_in, units) in enumerate(shapes):
            w = np.array(weights[k], dtype=np.float64, order="C")
            b = np.array(biases[k], dtype=np.float64, order="C")
            if w.shape != (fan_in, units):
                raise ShapeError(
                    f"dense layer {k}: expected weights {(fan_in, units)}, got {w.shape}"
                )
            if b.shape != (1, units):
                raise ShapeError(f"dense layer {k}: expected bias (1, {units}), got {b.shape}")
            self.weights.append(w)
            self.biases.append(b)
        self.adam_w = [AdamState.zeros(w.shape) for w in self.weights]
        self.adam_b = [AdamState.zeros(b.shape) for b in self.biases]
        self.version = 0

    def dense_layers(self) -> list[LayerSpec]:
        return [l for l in self.spec.layers if l.kind == "dense"]


def init_network(spec: NetworkSpec, rng: SplitMix64) -> Network:
    """Fresh network: Glorot-uniform weights, zero biases, zero Adam state.

    Each dense layer's weights are drawn in stack order as one row-major
    block from ``[-sqrt(6/(fan_in+units)), +sqrt(6/(fan_in+units))]``.
    """
    if not spec.has_binary_output():
        raise ValueError("spec must end in a dense layer with 1 unit and sigmoid activation")
    weights = []
    biases = []
    for fan_in, units in spec.dense_shapes():
        limit = np.sqrt(6.0 / (fan_in + units))
        weights.append(rng.uniform_matrix(fan_in, units, -limit, limit))
        biases.append(np.zeros((1, units)))
    return Network(spec, weights, biases)


@dataclass
class ForwardCache:
    """Intermediate activations and dropout masks from one forward pass."""

    version: int
    records: list[tuple] = field(default_factory=list)
    output_shape: tuple[int, int] = (0, 0)

    def dropout_masks(self) -> list[np.ndarray]:
        """Scaled masks in layer order (for replaying a frozen pass)."""
        return [rec[1] for rec in self.records if rec[0] == "dropout" and rec[1] is not None]


def _run_layers(
    net: Network,
    x: np.ndarray,
    mode: str,
    rng: SplitMix64 | None,
    dropout_masks: list[np.ndarray] | None,
    records: list[tuple] | None,
) -> np.ndarray:
    """The layer loop of :func:`forward` and :func:`predict`; each layer's
    input and output are appended to ``records`` unless it is None."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.spec.input_dim:
        raise ShapeError(
            f"input has shape {x.shape}, network expects (n, {net.spec.input_dim})"
        )
    a = x
    dense_i = 0
    mask_i = 0
    for layer in net.spec.layers:
        if layer.kind == "dense":
            z = a @ net.weights[dense_i]
            z += net.biases[dense_i]
            a_out = _activate(layer.activation, z)
            if records is not None:
                records.append(("dense", dense_i, a, a_out))
            a = a_out
            dense_i += 1
        elif mode == "train":
            if dropout_masks is not None:
                mask = np.asarray(dropout_masks[mask_i], dtype=np.float64)
                if mask.shape != a.shape:
                    raise ShapeError(
                        f"dropout mask {mask_i} has shape {mask.shape}, activations {a.shape}"
                    )
                mask_i += 1
            else:
                if rng is None:
                    raise ValueError("train-mode forward through dropout needs an rng")
                mask = rng.uniforms(a.size).reshape(a.shape)
                np.greater_equal(mask, layer.rate, out=mask)
                mask /= 1.0 - layer.rate
            a = a * mask
            if records is not None:
                records.append(("dropout", mask))
        elif records is not None:
            records.append(("dropout", None))
    return a


def forward(
    net: Network,
    x: np.ndarray,
    mode: str = "infer",
    rng: SplitMix64 | None = None,
    dropout_masks: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch and keep what :func:`backward` needs.

    In train mode dropout masks are drawn from ``rng`` (one block per
    dropout layer, in stack order), or taken from ``dropout_masks`` to
    replay a frozen pass. In infer mode dropout is the identity and no
    randomness is consumed, but the cache is still complete.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    cache = ForwardCache(version=net.version)
    out = _run_layers(net, x, mode, rng, dropout_masks, cache.records)
    cache.output_shape = out.shape
    return out, cache


def bce_loss(pred: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Binary cross-entropy over clamped probabilities, with its gradient.

    Probabilities are clamped to [BCE_EPS, 1 - BCE_EPS] before the logs;
    the returned gradient is d loss / d pred of that clamped composite, so
    it is exactly zero where the clamp is active.
    """
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape or pred.ndim != 2 or pred.shape[1] != 1:
        raise ShapeError(
            f"pred and y must share shape (n, 1); got {pred.shape} and {y.shape}"
        )
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError("labels must all be 0 or 1")
    n = pred.shape[0]
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    interior = (pred > BCE_EPS) & (pred < 1.0 - BCE_EPS)
    grad = np.where(interior, -(y / p - (1.0 - y) / (1.0 - p)) / n, 0.0)
    return loss, grad


def _l2_value(net: Network) -> float:
    """Total L2 kernel penalty under each layer's own coefficient."""
    total = 0.0
    for layer, w in zip(net.dense_layers(), net.weights):
        if layer.l2_lambda > 0.0:
            total += layer.l2_lambda * float(np.sum(w * w))
    return total


def l2_penalty(net: Network, lam: float | None = None) -> tuple[float, list[np.ndarray]]:
    """L2 penalty over dense-layer weights (biases excluded) and its gradient.

    With ``lam=None`` each layer's spec coefficient applies (this is what
    training uses); passing a float applies that single coefficient to
    every dense layer's weights.
    """
    if lam is not None and lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    penalty = 0.0
    grads = []
    for layer, w in zip(net.dense_layers(), net.weights):
        coeff = layer.l2_lambda if lam is None else lam
        penalty += coeff * float(np.sum(w * w))
        grads.append(2.0 * coeff * w)
    return penalty, grads


@dataclass
class Gradients:
    """d objective / d parameter, aligned with Network.weights / .biases."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def _add_scaled(dst: np.ndarray, alpha: float, src: np.ndarray) -> None:
    """``dst += alpha * src`` for C-contiguous arrays, in blocks of
    :data:`BLOCK` values. The bits equal the whole-array form, but no
    full-size temporary is made: a fresh one per step is fresh pages that
    the kernel faults in and zeroes every time."""
    d, s = dst.reshape(-1), src.reshape(-1)
    scratch = np.empty(min(BLOCK, d.size))
    for start in range(0, d.size, BLOCK):
        db = d[start : start + BLOCK]
        db += np.multiply(alpha, s[start : start + BLOCK], out=scratch[: db.size])


def backward(net: Network, cache: ForwardCache, loss_grad: np.ndarray) -> Gradients:
    """Reverse-mode gradients of loss plus the per-layer L2 penalties.

    The cache must come from a forward pass against the network's current
    parameters; dropout layers reuse the exact mask and scaling recorded
    there.
    """
    if cache.version != net.version:
        raise ContractError(
            f"stale forward cache: computed at version {cache.version}, "
            f"network is at version {net.version}"
        )
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != cache.output_shape:
        raise ShapeError(
            f"loss gradient has shape {loss_grad.shape}, forward output was {cache.output_shape}"
        )
    dense_specs = net.dense_layers()
    d_weights: list[np.ndarray] = [None] * len(net.weights)  # type: ignore[list-item]
    d_biases: list[np.ndarray] = [None] * len(net.biases)  # type: ignore[list-item]
    delta = loss_grad
    for rec in reversed(cache.records):
        if rec[0] == "dense":
            _, k, a_in, a_out = rec
            w = net.weights[k]
            dz = _activation_gradient(dense_specs[k].activation, a_out, delta)
            # a_in.T is copied: with a one-column dz the product is a BLAS gemv,
            # whose summation order depends on the operand layout.
            dw = np.ascontiguousarray(a_in.T) @ dz
            lam = dense_specs[k].l2_lambda
            if lam > 0.0:
                _add_scaled(dw, 2.0 * lam, w)
            d_weights[k] = dw
            d_biases[k] = dz.sum(axis=0, keepdims=True)
            delta = dz @ w.T
        else:
            mask = rec[1]
            if mask is not None:
                delta = delta * mask
    return Gradients(weights=d_weights, biases=d_biases)


def adam_step(net: Network, grads: Gradients, learning_rate: float) -> Network:
    """One Adam update over every parameter, in place.

    t += 1; m, v track the first and second gradient moments; the update
    is ``lr * mhat / (sqrt(vhat) + eps)`` with bias-corrected moments.
    Arrays are updated in place in blocks of :data:`BLOCK` values, in
    the textbook operation order, so the bits equal the whole-array form.
    """
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    if len(grads.weights) != len(net.weights) or len(grads.biases) != len(net.biases):
        raise ShapeError("gradient list lengths do not match the network")
    groups = list(zip(net.weights + net.biases, grads.weights + grads.biases,
                      net.adam_w + net.adam_b))
    for i, (p, g, _) in enumerate(groups):
        if g.shape != p.shape:
            raise ShapeError(f"gradient {i} has shape {g.shape}, parameter has {p.shape}")
    scratch = np.empty((2, BLOCK))
    for p, g, st in groups:
        st.t += 1
        b1, b2 = st.beta1, st.beta2
        c1, c2 = 1.0 - b1**st.t, 1.0 - b2**st.t
        # Views, not copies: parameters and moments are C-contiguous.
        flat = (p.reshape(-1), np.ravel(g), st.m.reshape(-1), st.v.reshape(-1))
        for start in range(0, p.size, BLOCK):
            pb, gb, mb, vb = (a[start : start + BLOCK] for a in flat)
            s1, s2 = scratch[:, : pb.size]
            mb *= b1  # m = b1*m + (1-b1)*g
            mb += np.multiply(1.0 - b1, gb, out=s1)
            vb *= b2  # v = b2*v + (1-b2)*(g*g)
            np.multiply(gb, gb, out=s1)
            s1 *= 1.0 - b2
            vb += s1
            np.divide(mb, c1, out=s1)  # lr*mhat / (sqrt(vhat) + eps)
            s1 *= learning_rate
            np.divide(vb, c2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += st.epsilon
            s1 /= s2
            pb -= s1
    net.version += 1
    return net


def predict(
    net: Network, x: np.ndarray, threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Infer-mode probabilities and hard labels (prob >= threshold -> 1),
    holding one layer's activations at a time."""
    probs = _run_layers(net, x, "infer", None, None, None)
    labels = (probs[:, 0] >= threshold).astype(np.int64)
    return probs, labels


def fit(
    net: Network,
    train: Dataset,
    val: Dataset,
    config: TrainConfig,
    rng: SplitMix64,
) -> tuple[Network, TrainingHistory]:
    """Mini-batch training loop.

    Per epoch: shuffle the training rows (one permutation draw), walk
    mini-batches of ``config.batch_size`` including the final partial one,
    and for each run forward (train mode, dropout masks drawn per batch),
    binary cross-entropy plus L2 penalty, backward, and one Adam step.
    Train metrics are batch-size-weighted running averages computed before
    each update; validation metrics come from one full infer-mode pass
    after the epoch. Reported losses include the L2 penalty. A batch or
    validation loss that is not finite raises :class:`NumericalError`
    naming the epoch and batch.
    """
    if train.n_rows < 1:
        raise DataError("training set is empty")
    if train.n_features != net.spec.input_dim:
        raise ShapeError(
            f"training features have width {train.n_features}, "
            f"network expects {net.spec.input_dim}"
        )
    if val.n_features != net.spec.input_dim:
        raise ShapeError(
            f"validation features have width {val.n_features}, "
            f"network expects {net.spec.input_dim}"
        )
    n = train.n_rows
    y_train = train.y.reshape(-1, 1)
    y_val = val.y.reshape(-1, 1)
    val_truth = val.y >= 0.5
    history = TrainingHistory()
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        xs = train.x[order]
        ys = y_train[order]
        correct = 0
        loss_sum = 0.0
        for batch, start in enumerate(range(0, n, config.batch_size), start=1):
            xb = xs[start : start + config.batch_size]
            yb = ys[start : start + config.batch_size]
            out, cache = forward(net, xb, mode="train", rng=rng)
            bce, grad = bce_loss(out, yb)
            loss = bce + _l2_value(net)
            if not math.isfinite(loss):
                raise NumericalError(f"training loss is {loss} at epoch {epoch}, batch {batch}")
            loss_sum += loss * xb.shape[0]
            pred_pos = out[:, 0] >= config.threshold
            correct += int(np.sum(pred_pos == (yb[:, 0] >= 0.5)))
            adam_step(net, backward(net, cache, grad), config.learning_rate)
        val_out, val_labels = predict(net, val.x, config.threshold)
        val_bce, _ = bce_loss(val_out, y_val)
        val_acc = float(np.mean((val_labels == 1) == val_truth))
        val_loss = val_bce + _l2_value(net)
        if not math.isfinite(val_loss):
            raise NumericalError(f"validation loss is {val_loss} after epoch {epoch}")
        history.append(
            EpochRecord(
                epoch=epoch,
                accuracy=correct / n,
                loss=loss_sum / n,
                val_accuracy=val_acc,
                val_loss=val_loss,
            )
        )
    return net, history


# --- serialization ---------------------------------------------------------

NETWORK_FORMAT = "deeplda.network/2"
# Nested-list JSON of the first format: still read, no longer written.
NETWORK_FORMAT_V1 = "deeplda.network/1"
_ZIP_MAGIC = b"PK\x03\x04"


def save_network(net: Network, path, metadata: dict | None = None) -> None:
    """Write a ``deeplda.network/2`` file: an uncompressed ``.npz`` archive.

    Entries ``w0, b0, w1, b1, ...`` hold the raw float64 parameters, so a
    round trip is bit-exact. Entry ``header`` is a 0-d unicode array with
    the sorted-key JSON of the format tag, the spec and ``metadata``. No
    clock value is stored, so equal networks give equal bytes. The file is
    written at ``path`` as given, whatever its suffix.
    """
    header = {"format": NETWORK_FORMAT, "spec": net.spec.to_dict(), "metadata": metadata or {}}
    arrays = {"header": np.array(json.dumps(header, sort_keys=True, allow_nan=False))}
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{k}"] = w
        arrays[f"b{k}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _header_spec(doc, fmt: str) -> NetworkSpec:
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
        raise DataError(f"not a serialized network (format={found!r}, expected {fmt!r})")
    return NetworkSpec.from_dict(doc["spec"])


def _network_from_arrays(spec: NetworkSpec, arrays: dict) -> Network:
    n = len(spec.dense_shapes())
    expected = sorted(f"{p}{k}" for k in range(n) for p in "wb")
    if sorted(arrays) != expected:
        raise DataError(f"parameter arrays {sorted(arrays)} do not match the spec's {expected}")
    if any(a.dtype != np.float64 for a in arrays.values()):
        raise DataError("parameter arrays must be float64")
    return Network(spec, [arrays[f"w{k}"] for k in range(n)], [arrays[f"b{k}"] for k in range(n)])


def load_network(path) -> Network:
    """Load a network file written by :func:`save_network` (Adam state fresh).

    ``deeplda.network/1`` JSON files are read as well. A file that is not
    a well-formed network of either format raises :class:`DataError`.
    """
    try:
        with open(path, "rb") as fh:
            is_npz = fh.read(len(_ZIP_MAGIC)) == _ZIP_MAGIC
            fh.seek(0)
            if is_npz:
                with np.load(fh, allow_pickle=False) as npz:
                    # Only plain stored entries, so no decompressor or decryptor runs.
                    if any(i.compress_type != zipfile.ZIP_STORED or i.flag_bits & 0x1
                           for i in npz.zip.infolist()):
                        raise DataError("archive entries must be stored plain, "
                                        "without compression or encryption")
                    header = npz["header"]
                    if header.shape != () or header.dtype.kind != "U":
                        raise DataError("header is not a 0-d unicode array")
                    spec = _header_spec(json.loads(header[()]), NETWORK_FORMAT)
                    arrays = {name: npz[name] for name in npz.files if name != "header"}
                return _network_from_arrays(spec, arrays)
            doc = json.loads(fh.read())
            spec = _header_spec(doc, NETWORK_FORMAT_V1)
            arrays = {
                f"{p}{k}": np.asarray(a, dtype=np.float64)
                for p, key in (("w", "weights"), ("b", "biases"))
                for k, a in enumerate(doc[key])
            }
            return _network_from_arrays(spec, arrays)
    except FileNotFoundError:
        raise DataError(f"model file not found: {path}") from None
    except (OSError, EOFError, NotImplementedError, zipfile.BadZipFile,
            KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model file {path} is not a valid network file: {exc}") from None
