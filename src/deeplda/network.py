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
import numbers
import sys
import tokenize
import zipfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset
from .exceptions import ContractError, DataError, NumericalError, ShapeError
from .metrics import EpochRecord, TrainingHistory
from .rng import BLOCK, SplitMix64

ACTIVATIONS = ("sigmoid", "relu", "none")

# Probability clamp for the cross-entropy; matches the Adam epsilon scale.
BCE_EPS = 1e-7

# Adam hyperparameters, shared by every parameter (Kingma & Ba, Algorithm 1).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7

# Rows per block of a :func:`scorer`, whose two shared buffers hold ROWS + 1
# rows of the widest layer. Each block's GEMM packs the weight matrix again,
# so smaller blocks cost more time than the memory they save (timings in the
# README's design notes). With one BLAS thread the blocks keep the bits of
# the whole-matrix pass: a GEMM split by rows keeps them for blocks of two
# or more rows, and the one-column output layer's gemv, which takes rows in
# groups of four, keeps them when every block starts at a multiple of four.
# A one-row block would take numpy's gemv path in every layer, so a
# trailing one joins the block before it. (With several BLAS threads gemv
# can also split rows at a point that depends on the row count.)
ROWS = 128

# Most rows per block of a dense layer's weight gradient, which the backward
# walk makes and consumes a block at a time in one buffer. A batch takes its
# row count rounded up to a multiple of 64 (see _grad_rows), so a small batch
# holds a small block. Batch 512 stops at 256, as the buffer holds its
# 512 x 512 sigmoid scratch too; a one-unit layer takes its DELTA_COLS rows
# whole. With one BLAS thread the blocks keep the whole product's bits at the
# phase-1 and phase-2 shapes, one-unit output layers included (tested), but
# not at every shape (see the README).
GRAD_ROWS = 256

# Columns per block of a dense layer's input gradient ``dz @ W.T`` in the
# backward walk, which halves that gradient's memory at batch 512 (timings
# in the README). With one BLAS thread the blocks keep the whole product's
# bits when the input width is a multiple of 512 and a block has over
# 100**3 multiply-adds; smaller products run through small-matrix kernels
# that sum in another order, and a partial block ends in edge tiles.
# Elsewhere the product is made whole, except an outer product (one-column
# dz), each of whose values is one product.
DELTA_COLS = 512


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


def _activation_gradient(name: str, a: np.ndarray, delta: np.ndarray,
                         scratch: np.ndarray) -> np.ndarray:
    """Overwrite the activation output ``a`` with ``delta * act'(z)``, act'
    expressed through ``a``, and return it. The bits equal the product form
    ``((1 - a) * a) * delta`` (sigmoid) or ``[a > 0] * delta`` (relu); the
    sigmoid's ``1 - a`` goes through ``scratch``, an array of ``a``'s shape."""
    if name == "none":
        np.copyto(a, delta)
        return a
    if name == "sigmoid":
        a *= np.subtract(1.0, a, out=scratch)
    else:
        np.greater(a, 0.0, out=a)  # relu; subgradient 0 at z == 0
    a *= delta
    return a


def _type_fields(obj, ints: tuple[str, ...], reals: tuple[str, ...]) -> None:
    """Type the named fields of a frozen dataclass: ``ints`` must be
    integers and are stored as int, ``reals`` numbers stored as float; a
    bool or any other type raises TypeError, and a NaN or infinite real
    raises ValueError."""
    for names, kind, what, cast in ((ints, numbers.Integral, "an integer", int),
                                    (reals, numbers.Real, "a number", float)):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise TypeError(f"{name} must be {what}, got {value!r}")
            if cast is float and not abs(value) <= sys.float_info.max:  # NaN, inf, 10**400
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(obj, name, cast(value))


@dataclass(frozen=True)
class LayerSpec:
    """One layer: a dense transform or a dropout regularizer.

    Dense layers use ``units``, ``activation`` and ``l2_lambda``; dropout
    layers use ``rate`` only. Numbers are typed as in :class:`TrainConfig`.
    """

    kind: str
    units: int = 0
    activation: str = "none"
    l2_lambda: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        _type_fields(self, ("units",), ("l2_lambda", "rate"))
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
            return dense(d["units"], d["activation"], d.get("l2_lambda", 0.0))
        if kind == "dropout":
            return dropout(d["rate"])
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
        _type_fields(self, ("input_dim",), ())
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
            input_dim=d["input_dim"],
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


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    Defaults follow the reference experiment: learning rate 1e-5, 100
    epochs, batches of 64, L2 coefficient 0.01. :func:`fit` never reads
    ``l2_lambda``: each layer's coefficient comes from its spec.
    :func:`~deeplda.pipeline.train_two_phase` builds phase 1's spec from
    ``config1.l2_lambda``, and ``config2.l2_lambda`` is only recorded.
    At least one epoch is required. The counts must be integers and the
    rates numbers, never bools (TypeError otherwise); the rates are
    stored as floats.
    """

    learning_rate: float = 1e-5
    epochs: int = 100
    batch_size: int = 64
    l2_lambda: float = 0.01
    threshold: float = 0.5

    def __post_init__(self):
        _type_fields(self, ("epochs", "batch_size"), ("learning_rate", "l2_lambda", "threshold"))
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l2_lambda < 0:
            raise ValueError(f"l2_lambda must be >= 0, got {self.l2_lambda}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        """Inverse of :meth:`to_dict`; a non-mapping or an unknown key raises TypeError."""
        return TrainConfig(**d)


class Network:
    """Instantiated parameters for a :class:`NetworkSpec`.

    The network takes over the arrays it is given, converting (and so
    copying) only those that are not C-contiguous float64, and
    :func:`adam_step` updates them in place. ``version`` counts optimizer
    steps; forward caches remember the version they were computed against
    so a stale cache cannot silently feed a backward pass. ``moments`` holds
    one Adam ``(m, v)`` pair per array of ``weights + biases``; it is None
    until the first Adam step, so a network only scored holds none.
    """

    def __init__(self, spec: NetworkSpec, weights: list[np.ndarray], biases: list[np.ndarray]):
        shapes = spec.dense_shapes()
        if not shapes:
            raise ShapeError("spec has no dense layer")
        if len(weights) != len(shapes) or len(biases) != len(shapes):
            raise ShapeError(
                f"spec has {len(shapes)} dense layers but got "
                f"{len(weights)} weight and {len(biases)} bias arrays"
            )
        self.spec = spec
        self.weights = []
        self.biases = []
        for k, (fan_in, units) in enumerate(shapes):
            w = np.ascontiguousarray(weights[k], dtype=np.float64)
            b = np.ascontiguousarray(biases[k], dtype=np.float64)
            if w.shape != (fan_in, units):
                raise ShapeError(
                    f"dense layer {k}: expected weights {(fan_in, units)}, got {w.shape}"
                )
            if b.shape != (1, units):
                raise ShapeError(f"dense layer {k}: expected bias (1, {units}), got {b.shape}")
            self.weights.append(w)
            self.biases.append(b)
        self.moments: list[tuple[np.ndarray, np.ndarray]] | None = None
        self.version = 0

    def dense_layers(self) -> list[LayerSpec]:
        return [l for l in self.spec.layers if l.kind == "dense"]


def init_network(spec: NetworkSpec, rng: SplitMix64) -> Network:
    """Fresh network: Glorot-uniform weights, zero biases, no Adam moments.

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
    """What one forward pass keeps: per dense layer, bottom-up, a record
    ``(a_in, a_out, masks)`` of its input, its output and the scaled dropout
    masks applied to that output in layer order; and every mask drawn."""

    version: int
    records: list[tuple[np.ndarray, np.ndarray, list[np.ndarray]]] = field(default_factory=list)
    masks: list[np.ndarray] = field(default_factory=list)

    def dropout_masks(self) -> list[np.ndarray]:
        """Scaled masks in layer order (for replaying a frozen pass)."""
        return list(self.masks)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` with its bits. With an inner dimension of
    1, matmul's non-BLAS loop computes ``0 + a*b``; ``np.dot``'s GEMM gives
    the same bits, signed zeros included, in under half the time."""
    if a.shape[1] != 1:
        return np.matmul(a, b, out=out)
    return np.dot(a, b, out=out)


def _checked_input(net: Network, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.spec.input_dim:
        raise ShapeError(
            f"input has shape {x.shape}, network expects (n, {net.spec.input_dim})"
        )
    return x


def _dense(layer: LayerSpec, a: np.ndarray, w: np.ndarray, b: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """``act(a @ W + b)``, written into ``out`` if given."""
    z = _matmul(a, w, out)
    z += b
    return _activate(layer.activation, z)


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
    a = _checked_input(net, x)
    if mode == "train" and dropout_masks is not None:
        n_dropout = sum(layer.kind == "dropout" for layer in net.spec.layers)
        if len(dropout_masks) != n_dropout:
            raise ShapeError(f"got {len(dropout_masks)} dropout masks for "
                             f"{n_dropout} dropout layers")
    cache = ForwardCache(version=net.version)
    k = 0
    for layer in net.spec.layers:
        if layer.kind == "dense":
            a_out = _dense(layer, a, net.weights[k], net.biases[k])
            cache.records.append((a, a_out, []))
            a, k = a_out, k + 1
        elif mode == "train":
            i = len(cache.masks)
            if dropout_masks is not None:
                mask = np.asarray(dropout_masks[i], dtype=np.float64)
                if mask.shape != a.shape:
                    raise ShapeError(
                        f"dropout mask {i} has shape {mask.shape}, activations {a.shape}"
                    )
            elif rng is None:
                raise ValueError("train-mode forward through dropout needs an rng")
            else:
                mask = rng.keep_mask(a.size, layer.rate).reshape(a.shape)
            a = a * mask
            cache.masks.append(mask)
            if cache.records:  # nothing reads a gradient through masks on the input
                cache.records[-1][2].append(mask)
    return a, cache


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
    return _bce(pred, y)


def _bce(pred: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """:func:`bce_loss` of float64 ``(n, 1)`` arrays whose labels are known
    to be 0 or 1, unchecked. The ufuncs give the bits of ``np.clip`` and
    ``np.mean`` without those functions' Python wrappers."""
    n = len(pred)
    p = np.minimum(np.maximum(pred, BCE_EPS), 1.0 - BCE_EPS)
    q, r = 1.0 - y, 1.0 - p
    terms = y * np.log(p)
    terms += q * np.log(r)
    interior = (pred > BCE_EPS) & (pred < 1.0 - BCE_EPS)
    return -float(terms.sum() / n), np.where(interior, -(y / p - q / r) / n, 0.0)


def l2_penalty(net: Network) -> float:
    """Total L2 penalty: each dense layer's coefficient times one BLAS dot of
    its flat weights with themselves, which makes no temporary; biases are
    excluded. :func:`backward` adds its gradient."""
    total = 0.0
    for layer, w in zip(net.dense_layers(), net.weights):
        if layer.l2_lambda > 0.0:
            total += layer.l2_lambda * float(np.dot(w.ravel(), w.ravel()))
    return total


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


def _delta_cols(n: int, units: int, fan_in: int) -> int:
    """Columns per block of the input gradient made from an (n, units) dz."""
    if units == 1 or (fan_in % DELTA_COLS == 0 and n * units * DELTA_COLS > 100**3):
        return DELTA_COLS
    return fan_in


def _grad_rows(n: int) -> int:
    """Rows per block of the weight gradient made from an n-row batch."""
    return min(GRAD_ROWS, -(-n // 64) * 64)


def _backward_walk(net: Network, cache: ForwardCache, loss_grad: np.ndarray):
    """Reverse-mode gradients of loss plus the per-layer L2 penalties, one
    dense layer at a time, top-down. Yields ``(i, start, g)``: ``g`` is the
    gradient of rows ``start : start + len(g)`` of parameter ``i`` of
    ``net.weights + net.biases``.

    The walk consumes the cache: it pops ``cache.records`` top-down and
    writes each dense layer's activation gradient ``dz`` over its recorded
    output. It yields layer k's bias gradient, then visits ``W_k`` in blocks
    of rows R (see :data:`DELTA_COLS`), the columns R of the layer's input:
    it makes the input gradient ``dz @ W_k[R].T`` from rows not yet updated,
    yields the weight gradient ``a_in.T @ dz`` of rows R, made on the
    transposed view in blocks of at most :func:`_grad_rows` rows inside R
    (all of R at one unit) whose L2 term reads only their own rows, so the
    consumer may update each block at once, and then writes the layer
    below's ``dz`` over that layer's output columns R, which nothing reads
    again. Both kinds of block
    go through one buffer each, so a consumer that drops each block holds
    the activations not yet read and the two.
    """
    if cache.version != net.version:
        raise ContractError(
            f"stale forward cache: computed at version {cache.version}, "
            f"network is at version {net.version}"
        )
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    records = cache.records
    if loss_grad.shape != records[-1][1].shape:
        raise ShapeError(f"loss gradient has shape {loss_grad.shape}, "
                         f"forward output was {records[-1][1].shape}")
    specs, n_dense, n = net.dense_layers(), len(net.weights), len(loss_grad)
    shapes = net.spec.dense_shapes()
    widths = [min(_delta_cols(n, units, fan_in), fan_in) for fan_in, units in shapes]
    # For the weight-gradient blocks and the sigmoid's 1 - a.
    block = np.empty(max(max(min(fan_in, _grad_rows(n)) * units, n * width)
                         for (fan_in, units), width in zip(shapes, widths)))
    deltas = np.empty(n * max(widths[1:], default=0))
    k = n_dense - 1
    a_in, a_out, masks = records.pop()
    for mask in reversed(masks):
        loss_grad = loss_grad * mask
    dz = _activation_gradient(specs[k].activation, a_out, loss_grad, np.empty(a_out.shape))
    del a_out, masks
    while True:
        w, lam, width = net.weights[k], specs[k].l2_lambda, widths[k]
        units = w.shape[1]
        step = width if units == 1 else _grad_rows(n)  # see GRAD_ROWS
        yield n_dense + k, 0, dz.sum(axis=0, keepdims=True)
        below = records.pop() if records else None  # its output becomes the next dz
        for start in range(0, len(w), width):
            rows = slice(start, start + width)
            if below:
                cols = len(w[rows])
                delta = _matmul(dz, w[rows].T, deltas[: n * cols].reshape(n, cols))
            end = min(start + width, len(w))
            for sub in range(start, end, step):
                a = a_in[:, sub : min(sub + step, end)]
                dw = np.matmul(a.T, dz, out=block[: a.shape[1] * units].reshape(-1, units))
                if lam > 0.0:
                    _add_scaled(dw, 2.0 * lam, w[sub : sub + len(dw)])
                yield k, sub, dw
                del a, dw
            if below:
                for mask in reversed(below[2]):
                    delta *= mask[:, rows]
                _activation_gradient(specs[k - 1].activation, below[1][:, rows], delta,
                                     block[: delta.size].reshape(delta.shape))
        if below is None:
            return
        a_in, dz, _ = below
        k -= 1
        del below


def backward(net: Network, cache: ForwardCache, loss_grad: np.ndarray) -> Gradients:
    """Reverse-mode gradients of loss plus the per-layer L2 penalties.

    The cache must come from a forward pass against the network's current
    parameters; dropout layers reuse the exact mask and scaling recorded
    there. The cache is left as it was: the walk, which overwrites the
    activation outputs, runs on copies of them.
    """
    params = net.weights + net.biases
    grads: list[np.ndarray] = [None] * len(params)  # type: ignore[list-item]
    records = [(a_in, a_out.copy(), masks) for a_in, a_out, masks in cache.records]
    for i, start, g in _backward_walk(net, replace(cache, records=records), loss_grad):
        if start == 0:
            grads[i] = np.empty(params[i].shape)
        grads[i][start : start + len(g)] = g
    n_dense = len(net.weights)
    return Gradients(weights=grads[:n_dense], biases=grads[n_dense:])


def _adam_apply(net: Network, blocks, learning_rate: float, scratch: np.ndarray) -> None:
    """Adam step ``t = net.version + 1`` of each ``(i, start, g)`` row block
    that ``blocks`` yields (see :func:`_backward_walk`), as it arrives. The
    moments are made as zeros on first use; the version is bumped at the end.
    The bias corrections are folded into the step size and epsilon once a
    step (Kingma & Ba, arXiv:1412.6980, §2), which drops two divisions a value."""
    if net.moments is None:
        net.moments = [(np.zeros(p.shape), np.zeros(p.shape)) for p in net.weights + net.biases]
    t, params = net.version + 1, net.weights + net.biases
    root_c2 = math.sqrt(1.0 - ADAM_BETA2**t)
    alpha, eps_hat = learning_rate * root_c2 / (1.0 - ADAM_BETA1**t), ADAM_EPSILON * root_c2
    for i, start, g in blocks:
        rows = slice(start, start + len(g))
        m, v = net.moments[i]
        _adam_update(params[i][rows], g, m[rows], v[rows], alpha, eps_hat, scratch)
        del g  # freed before the walk makes the next block
    net.version = t


def _adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, alpha: float,
                 eps_hat: float, scratch: np.ndarray) -> None:
    """Adam update of one parameter array and its moments, in place, in the
    folded form ``p -= alpha*m / (sqrt(v) + eps_hat)``, in blocks of
    :data:`BLOCK` values through ``scratch`` (shape (2, BLOCK)), so the bits
    equal the whole-array form."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    # Views, not copies: parameters and moments are C-contiguous.
    p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
    for start in range(0, p.size, BLOCK):
        rows = slice(start, start + BLOCK)
        pb, gb, mb, vb = p[rows], g[rows], m[rows], v[rows]
        s1, s2 = scratch[:, : pb.size]
        mb *= b1  # m = b1*m + (1-b1)*g
        mb += np.multiply(1.0 - b1, gb, out=s1)
        vb *= b2  # v = b2*v + (1-b2)*(g*g)
        np.multiply(gb, gb, out=s1)
        s1 *= 1.0 - b2
        vb += s1
        np.sqrt(vb, out=s2)  # alpha*m / (sqrt(v) + eps_hat)
        s2 += eps_hat
        np.multiply(alpha, mb, out=s1)
        s1 /= s2
        pb -= s1


def adam_step(net: Network, grads: Gradients, learning_rate: float) -> Network:
    """One Adam update over every parameter, in place.

    The step number is ``t = net.version + 1``. m and v, made as zeros by
    the first step, track the first and second gradient moments; the update
    is ``lr * mhat / (sqrt(vhat) + eps)`` with bias-corrected moments.
    Every shape is checked before any array is touched.
    """
    if learning_rate <= 0:
        raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
    if len(grads.weights) != len(net.weights) or len(grads.biases) != len(net.biases):
        raise ShapeError("gradient list lengths do not match the network")
    params, gs = net.weights + net.biases, grads.weights + grads.biases
    for i, (p, g) in enumerate(zip(params, gs)):
        if g.shape != p.shape:
            raise ShapeError(f"gradient {i} has shape {g.shape}, parameter has {p.shape}")
    _adam_apply(net, ((i, 0, g) for i, g in enumerate(gs)), learning_rate, np.empty((2, BLOCK)))
    return net


def predict(
    net: Network, x: np.ndarray, threshold: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Infer-mode probabilities from a :func:`scorer`, and labels (prob >= threshold -> 1)."""
    probs = scorer(net)(x)
    labels = (probs[:, 0] >= threshold).astype(np.int64)
    return probs, labels


def scorer(net: Network):
    """A function from a matrix of rows to its infer-mode probabilities.

    Only the dense layers run, since dropout is the identity at inference.
    The rows go through them in blocks of :data:`ROWS`, holding one layer's
    input and output for one block at a time, so activation memory does not
    grow with the row count. All blocks of all the matrices it is given share
    two buffers, made for the first one with room for ``ROWS + 1`` rows once
    it has ``ROWS``: a file read in blocks of ``ROWS`` rows, the last perhaps
    one longer, is scored with one pair. The bits equal the whole-matrix
    :func:`forward`: blocks start at multiples of ``ROWS`` and a trailing
    one-row block joins the block before it (see :data:`ROWS`).
    """
    layers = net.dense_layers()
    width = max(layer.units for layer in layers)
    scratch = (np.empty(0), np.empty(0))

    def score(x: np.ndarray) -> np.ndarray:
        nonlocal scratch
        x = _checked_input(net, x)
        n = x.shape[0]
        size = (n if n < ROWS else ROWS + 1) * width
        if scratch[0].size < size:
            scratch = (np.empty(size), np.empty(size))
        starts = list(range(0, n, ROWS))
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        probs = np.empty((n, layers[-1].units))
        for start, stop in zip(starts, starts[1:] + [n]):
            a = x[start:stop]
            for k, (layer, w, b) in enumerate(zip(layers, net.weights, net.biases)):
                out = scratch[k % 2][: len(a) * w.shape[1]].reshape(len(a), -1)
                a = _dense(layer, a, w, b, out)
            probs[start:stop] = a
        return probs

    return score


def fit(
    net: Network,
    train: Dataset,
    val: Dataset,
    config: TrainConfig,
    rng: SplitMix64,
) -> tuple[Network, TrainingHistory]:
    """Mini-batch training loop.

    Per epoch: draw one permutation of the training rows and gather from
    ``train`` the mini-batches of ``config.batch_size`` rows it lists,
    including the final partial one. For each run forward (train mode,
    dropout masks drawn per batch), binary cross-entropy plus L2 penalty,
    and one Adam step fused into the backward walk: each dense layer's bias
    and then its weights, a block of :func:`_grad_rows` rows at a time, are
    updated top-down as soon as the rows' part of its input gradient is
    made, all with step ``t = version + 1``. The walk consumes the batch's
    forward cache, writing each activation gradient over the activations it
    has read, so a step holds its activations plus one block of an input
    gradient and one of a weight gradient. Adam is elementwise and
    :func:`adam_step` applies the same update, so the bits equal
    :func:`backward` followed by :func:`adam_step`.
    Train metrics are batch-size-weighted running averages computed before
    each update; validation metrics come from one full infer-mode pass
    after the epoch, whose probabilities the history keeps as
    ``val_probs``. Reported losses include the L2 penalty. ``fit`` is the
    one place that checks these numbers: a batch loss that is not finite,
    or one that overflows the epoch's weighted loss sum, raises
    :class:`NumericalError` naming the epoch and batch, and so does a
    validation loss that is not finite, naming the epoch.
    """
    for what, ds in (("training", train), ("validation", val)):
        if ds.n_features != net.spec.input_dim:
            raise ShapeError(f"{what} features have width {ds.n_features}, "
                             f"network expects {net.spec.input_dim}")
    n = train.n_rows
    y_train = train.y.reshape(-1, 1)
    y_val = val.y.reshape(-1, 1)
    val_truth = val.y >= 0.5
    history = TrainingHistory()
    scratch = np.empty((2, BLOCK))
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        correct = 0
        loss_sum = 0.0
        for batch, start in enumerate(range(0, n, config.batch_size), start=1):
            rows = order[start : start + config.batch_size]
            xb, yb = train.x[rows], y_train[rows]
            out, cache = forward(net, xb, mode="train", rng=rng)
            bce, grad = _bce(out, yb)  # Dataset has checked the labels
            loss = bce + l2_penalty(net)
            if not math.isfinite(loss):
                raise NumericalError(f"training loss is {loss} at epoch {epoch}, batch {batch}")
            loss_sum += loss * xb.shape[0]
            if not math.isfinite(loss_sum):
                raise NumericalError(f"training loss sum overflows at epoch {epoch}, batch {batch}")
            pred_pos = out[:, 0] >= config.threshold
            correct += int(np.sum(pred_pos == (yb[:, 0] >= 0.5)))
            # The cache is fit's own, so the walk may overwrite it.
            _adam_apply(net, _backward_walk(net, cache, grad), config.learning_rate, scratch)
        val_out, val_labels = predict(net, val.x, config.threshold)
        history.val_probs = val_out
        val_bce, _ = _bce(val_out, y_val)
        val_acc = float(np.mean((val_labels == 1) == val_truth))
        val_loss = val_bce + l2_penalty(net)
        if not math.isfinite(val_loss):
            raise NumericalError(f"validation loss is {val_loss} after epoch {epoch}")
        history.records.append(
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
_ZIP_MAGIC = b"PK\x03\x04"


def save_network(net: Network, path) -> None:
    """Write a ``deeplda.network/2`` file: an uncompressed ``.npz`` archive.

    Entries ``w0, b0, w1, b1, ...`` hold the raw float64 parameters, so a
    round trip is bit-exact. Entry ``header`` is a 0-d unicode array with
    the sorted-key JSON of the format tag and the spec. No clock value is
    stored, so equal networks give equal bytes. The file is written at
    ``path`` as given, whatever its suffix.
    """
    header = {"format": NETWORK_FORMAT, "spec": net.spec.to_dict()}
    arrays = {"header": np.array(json.dumps(header, sort_keys=True, allow_nan=False))}
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"w{k}"] = w
        arrays[f"b{k}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_network(path) -> Network:
    """Load a network file written by :func:`save_network`; the network
    holds no Adam moments. The header's other keys are not read (older
    files carry a ``metadata`` object). A file that is not a well-formed
    ``deeplda.network/2`` archive, or whose parameters are not all finite,
    raises :class:`DataError`.
    """
    try:
        with open(path, "rb") as fh:
            # np.load would also return a bare .npy array; networks are zip archives.
            if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
                raise DataError(f"not a {NETWORK_FORMAT} archive (no zip signature)")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                # Only plain stored entries, so no decompressor or decryptor runs.
                if any(i.compress_type != zipfile.ZIP_STORED or i.flag_bits & 0x1
                       for i in npz.zip.infolist()):
                    raise DataError("archive entries must be stored plain, "
                                    "without compression or encryption")
                header = npz["header"]
                if header.shape != () or header.dtype.kind != "U":
                    raise DataError("header is not a 0-d unicode array")
                doc = json.loads(header[()])
                if not isinstance(doc, dict) or doc.get("format") != NETWORK_FORMAT:
                    found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
                    raise DataError(f"not a serialized network "
                                    f"(format={found!r}, expected {NETWORK_FORMAT!r})")
                spec = NetworkSpec.from_dict(doc["spec"])
                arrays = {name: npz[name] for name in npz.files if name != "header"}
        n = len(spec.dense_shapes())
        expected = sorted(f"{p}{k}" for k in range(n) for p in "wb")
        if sorted(arrays) != expected:
            raise DataError(f"parameter arrays {sorted(arrays)} do not match "
                            f"the spec's {expected}")
        if any(a.dtype != np.float64 for a in arrays.values()):
            raise DataError("parameter arrays must be float64")
        net = Network(spec, [arrays[f"w{k}"] for k in range(n)],
                      [arrays[f"b{k}"] for k in range(n)])
        # min and max make no bool temporary, and a NaN propagates through both.
        bad = [k for k in expected if not -math.inf < arrays[k].min() <= arrays[k].max() < math.inf]
        if bad:
            raise DataError(f"parameter arrays {bad} hold a NaN or infinite value")
        return net
    except FileNotFoundError:
        raise DataError(f"model file not found: {path}") from None
    # numpy re-reads a damaged version-1 .npy header with tokenize, which can raise TokenError.
    except (OSError, EOFError, NotImplementedError, zipfile.BadZipFile, KeyError, TypeError,
            ValueError, RecursionError, tokenize.TokenError) as exc:
        raise DataError(f"model file {path} is not a valid network file: {exc}") from None
