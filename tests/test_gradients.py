"""Analytic gradients against central finite differences.

The objective checked is the full training objective: binary
cross-entropy plus each layer's L2 kernel penalty. Dropout layers are
replayed with frozen masks so the objective is differentiable.
"""

import numpy as np
import pytest

from deeplda import (
    Gradients,
    Network,
    NetworkSpec,
    backward,
    bce_loss,
    dense,
    dropout,
    forward,
    init_network,
    l2_penalty,
)
from deeplda.rng import SplitMix64

H = 1e-6
REL_TOL = 1e-4

REDUCED_WIDE = NetworkSpec(
    41, (dense(32, "sigmoid", 0.01), dense(32, "sigmoid", 0.01),
         dense(32, "sigmoid", 0.01), dense(1, "sigmoid"))
)
HEAD = NetworkSpec(1, (dense(100, "relu"), dropout(0.5), dense(1, "sigmoid")))
MIXED = NetworkSpec(
    5, (dense(16, "relu", 0.02), dropout(0.3), dense(8, "none", 0.0),
        dense(1, "sigmoid"))
)


def _objective(net, x, y, masks):
    if masks is not None:
        out, _ = forward(net, x, mode="train", dropout_masks=masks)
    else:
        out, _ = forward(net, x, mode="infer")
    loss, _ = bce_loss(out, y)
    return loss + l2_penalty(net)


def _batch(spec, seed, n=8):
    x = SplitMix64(seed + 1000).uniform_matrix(n, spec.input_dim, -1.5, 1.5)
    y = (SplitMix64(seed + 2000).uniforms(n) > 0.5).astype(float).reshape(-1, 1)
    return x, y


def _analytic(net, x, y, masks):
    if masks is not None:
        out, cache = forward(net, x, mode="train", dropout_masks=masks)
    else:
        out, cache = forward(net, x, mode="infer")
    _, lgrad = bce_loss(out, y)
    return backward(net, cache, lgrad)


def _worst_relative_error(net, x, y, masks, grads, per_layer_samples=20):
    worst = 0.0
    for params, gs in ((net.weights, grads.weights), (net.biases, grads.biases)):
        for k in range(len(params)):
            flat = params[k].reshape(-1)
            gflat = gs[k].reshape(-1)
            idx = np.linspace(0, flat.size - 1, min(flat.size, per_layer_samples)).astype(int)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + H
                fp = _objective(net, x, y, masks)
                flat[i] = orig - H
                fm = _objective(net, x, y, masks)
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * H)
                analytic = gflat[i]
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sigmoid_stack_with_l2_matches_finite_differences(seed):
    net = init_network(REDUCED_WIDE, SplitMix64(seed))
    x, y = _batch(REDUCED_WIDE, seed)
    grads = _analytic(net, x, y, None)
    assert _worst_relative_error(net, x, y, None, grads) < REL_TOL


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relu_dropout_head_with_frozen_mask_matches_finite_differences(seed):
    net = init_network(HEAD, SplitMix64(seed))
    x, y = _batch(HEAD, seed)
    _, cache = forward(net, x, mode="train", rng=SplitMix64(seed + 500))
    masks = cache.dropout_masks()
    grads = _analytic(net, x, y, masks)
    assert _worst_relative_error(net, x, y, masks, grads) < REL_TOL


def test_mixed_activations_match_finite_differences():
    net = init_network(MIXED, SplitMix64(4))
    x, y = _batch(MIXED, 4)
    _, cache = forward(net, x, mode="train", rng=SplitMix64(99))
    masks = cache.dropout_masks()
    grads = _analytic(net, x, y, masks)
    assert _worst_relative_error(net, x, y, masks, grads) < REL_TOL


def test_zero_loss_gradient_leaves_pure_l2_terms():
    net = init_network(REDUCED_WIDE, SplitMix64(5))
    x, _ = _batch(REDUCED_WIDE, 5)
    out, cache = forward(net, x, mode="infer")
    grads = backward(net, cache, np.zeros_like(out))
    for k, layer in enumerate(net.dense_layers()):
        expected = 2.0 * layer.l2_lambda * net.weights[k]
        assert np.allclose(grads.weights[k], expected, atol=1e-15)
        assert np.all(grads.biases[k] == 0.0)


def test_zero_loss_gradient_and_zero_lambda_gives_zero_gradients():
    spec = NetworkSpec(3, (dense(4, "relu"), dense(1, "sigmoid")))
    net = init_network(spec, SplitMix64(6))
    x = np.ones((2, 3))
    out, cache = forward(net, x, mode="infer")
    grads = backward(net, cache, np.zeros_like(out))
    assert all(np.all(g == 0.0) for g in grads.weights + grads.biases)


def test_dropped_unit_incoming_weights_get_exactly_l2_gradient():
    lam = 0.07
    spec = NetworkSpec(2, (dense(6, "relu", lam), dropout(0.5), dense(1, "sigmoid")))
    net = init_network(spec, SplitMix64(7))
    x = SplitMix64(70).uniform_matrix(4, 2, -1.0, 1.0)
    y = np.array([[1.0], [0.0], [1.0], [0.0]])
    # frozen mask dropping units 1 and 4 in every row, survivors scaled by 2
    mask = np.full((4, 6), 2.0)
    mask[:, [1, 4]] = 0.0
    out, cache = forward(net, x, mode="train", dropout_masks=[mask])
    _, lgrad = bce_loss(out, y)
    grads = backward(net, cache, lgrad)
    for j in (1, 4):
        expected = 2.0 * lam * net.weights[0][:, j]
        assert np.allclose(grads.weights[0][:, j], expected, atol=1e-15)
        assert grads.biases[0][0, j] == 0.0
    live = [j for j in range(6) if j not in (1, 4)]
    pure_l2 = 2.0 * lam * net.weights[0][:, live]
    assert not np.allclose(grads.weights[0][:, live], pure_l2)


def test_loss_grad_shape_must_match_forward_output():
    net = init_network(HEAD, SplitMix64(8))
    out, cache = forward(net, np.ones((3, 1)), mode="infer")
    with pytest.raises(Exception):
        backward(net, cache, np.zeros((4, 1)))
