"""Layer specs, initialization, forward pass, losses, Adam, serialization."""

import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeplda import (
    ContractError,
    DataError,
    Gradients,
    LayerSpec,
    Network,
    NetworkSpec,
    ShapeError,
    TrainConfig,
    adam_step,
    backward,
    bce_loss,
    dense,
    dropout,
    forward,
    init_network,
    l2_penalty,
    layer_param_counts,
    load_network,
    param_count,
    predict,
    save_network,
)
from conftest import child_env, traced_peak
from deeplda.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    BCE_EPS,
    BLOCK,
    ROWS,
    _activation_gradient,
    _add_scaled,
    _grad_rows,
    _matmul,
    _sigmoid,
)
from deeplda.rng import SplitMix64

WIDE_SPEC = NetworkSpec(41, (dense(1024, "sigmoid", 0.01),) * 3 + (dense(1, "sigmoid"),))
HEAD_SPEC = NetworkSpec(1, (dense(100, "relu"), dropout(0.5), dense(1, "sigmoid")))


class TestSpecs:
    def test_layer_spec_validation(self):
        with pytest.raises(ValueError):
            dense(0, "sigmoid")
        with pytest.raises(ValueError):
            dense(4, "softplus")
        with pytest.raises(ValueError):
            dense(4, "relu", -0.1)
        with pytest.raises(ValueError, match="l2_lambda must be finite"):
            dense(4, "relu", float("nan"))
        with pytest.raises(ValueError, match="rate must be finite"):
            dropout(float("inf"))
        with pytest.raises(ValueError):
            dropout(1.0)
        with pytest.raises(ValueError):
            LayerSpec(kind="conv")

    def test_wide_spec_param_counts(self):
        assert layer_param_counts(WIDE_SPEC) == [43008, 1049600, 1049600, 1025]
        assert param_count(WIDE_SPEC) == 2_143_233

    def test_head_spec_param_counts(self):
        assert layer_param_counts(HEAD_SPEC) == [200, 0, 101]
        assert param_count(HEAD_SPEC) == 301

    def test_zero_layer_spec_counts_zero(self):
        assert param_count(NetworkSpec(5, ())) == 0

    def test_narrow_first_layer_count(self):
        spec = NetworkSpec(1, (dense(1024, "sigmoid"), dense(1, "sigmoid")))
        assert layer_param_counts(spec)[0] == 2048

    def test_binary_output_detection(self):
        assert WIDE_SPEC.has_binary_output()
        assert not NetworkSpec(3, (dense(2, "sigmoid"),)).has_binary_output()
        assert not NetworkSpec(3, (dense(1, "relu"),)).has_binary_output()
        assert not NetworkSpec(3, ()).has_binary_output()


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-5
        assert cfg.epochs == 100
        assert cfg.batch_size == 64
        assert cfg.l2_lambda == 0.01
        assert cfg.threshold == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        for epochs in (0, -1):
            with pytest.raises(ValueError, match=f"epochs must be at least 1, got {epochs}"):
                TrainConfig(epochs=epochs)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(threshold=1.0)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 2.7), ("epochs", True), ("batch_size", 64.0), ("batch_size", "64"),
        ("learning_rate", "1e-3"), ("learning_rate", True), ("l2_lambda", None),
        ("threshold", False),
    ])
    def test_ill_typed_field_is_type_error(self, field, value):
        with pytest.raises(TypeError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "l2_lambda", "threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_rate_is_value_error(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    def test_integer_rates_are_stored_as_floats(self):
        cfg = TrainConfig(learning_rate=1, l2_lambda=0, epochs=np.int64(3))
        assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
        assert type(cfg.l2_lambda) is float and type(cfg.epochs) is int

    def test_round_trip(self):
        cfg = TrainConfig(learning_rate=1e-3, epochs=7)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_legacy_seed_key_is_refused(self):
        # format-1 manifests stored an unused ``seed`` in every config
        cfg = TrainConfig(learning_rate=1e-3, epochs=7)
        assert "seed" not in cfg.to_dict()
        with pytest.raises(TypeError, match="seed"):
            TrainConfig.from_dict({**cfg.to_dict(), "seed": 7})


class TestInit:
    def test_biases_zero(self):
        net = init_network(HEAD_SPEC, SplitMix64(0))
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_glorot_bounds_on_wide_layer(self):
        net = init_network(WIDE_SPEC, SplitMix64(1))
        limit = np.sqrt(6.0 / (41 + 1024))
        w = net.weights[0]
        assert w.shape == (41, 1024)
        assert np.all(np.abs(w) <= limit)

    def test_same_seed_bitwise_identical(self):
        a = init_network(HEAD_SPEC, SplitMix64(77))
        b = init_network(HEAD_SPEC, SplitMix64(77))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_adam_state_fresh(self):
        net = init_network(HEAD_SPEC, SplitMix64(0))
        assert net.moments is None and net.version == 0

    def test_requires_binary_output(self):
        with pytest.raises(ValueError):
            init_network(NetworkSpec(3, (dense(2, "sigmoid"),)), SplitMix64(0))

    def test_network_shape_validation(self):
        spec = NetworkSpec(2, (dense(1, "sigmoid"),))
        with pytest.raises(ShapeError):
            Network(spec, [np.ones((3, 1))], [np.zeros((1, 1))])
        with pytest.raises(ShapeError):
            Network(spec, [np.ones((2, 1))], [np.zeros((1, 2))])
        with pytest.raises(ShapeError):
            Network(spec, [], [])

    @pytest.mark.parametrize("layers", [(), (dropout(0.5),)], ids=["no layers", "dropout only"])
    def test_a_spec_without_a_dense_layer_is_refused(self, layers):
        # forward would record nothing for backward to start from.
        with pytest.raises(ShapeError, match="spec has no dense layer"):
            Network(NetworkSpec(3, layers), [], [])


class TestForward:
    def test_hand_value_sigmoid_of_two(self):
        spec = NetworkSpec(2, (dense(1, "sigmoid"),))
        net = Network(spec, [np.array([[1.0], [1.0]])], [np.zeros((1, 1))])
        out, _ = forward(net, np.array([[1.0, 1.0]]))
        assert abs(out[0, 0] - 0.8807970779778823) < 1e-12

    def test_zero_weights_give_half(self):
        spec = NetworkSpec(3, (dense(1, "sigmoid"),))
        net = Network(spec, [np.zeros((3, 1))], [np.zeros((1, 1))])
        out, _ = forward(net, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.all(out == 0.5)

    def test_relu_clamps_negative(self):
        spec = NetworkSpec(1, (dense(1, "relu"), dense(1, "sigmoid")))
        net = Network(
            spec,
            [np.array([[1.0]]), np.array([[1.0]])],
            [np.array([[-3.0]]), np.zeros((1, 1))],
        )
        out, cache = forward(net, np.array([[0.0]]))
        relu_out = cache.records[0][1]
        assert relu_out[0, 0] == 0.0
        assert out[0, 0] == 0.5

    def test_infer_invariant_to_dropout_rate(self):
        x = np.random.default_rng(4).normal(size=(6, 1))
        for rate in (0.0, 0.3, 0.9):
            spec = NetworkSpec(1, (dense(8, "relu"), dropout(rate), dense(1, "sigmoid")))
            net = init_network(spec, SplitMix64(5))
            out, _ = forward(net, x, mode="infer")
            base_spec = NetworkSpec(1, (dense(8, "relu"), dropout(0.5), dense(1, "sigmoid")))
            base = init_network(base_spec, SplitMix64(5))
            base_out, _ = forward(base, x, mode="infer")
            assert np.array_equal(out, base_out)

    def test_output_strictly_inside_unit_interval(self):
        net = init_network(HEAD_SPEC, SplitMix64(9))
        out, _ = forward(net, np.random.default_rng(1).normal(size=(64, 1)))
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)

    def test_shape_mismatch(self):
        net = init_network(HEAD_SPEC, SplitMix64(0))
        with pytest.raises(ShapeError):
            forward(net, np.ones((4, 2)))

    def test_train_mode_dropout_needs_rng(self):
        net = init_network(HEAD_SPEC, SplitMix64(0))
        with pytest.raises(ValueError):
            forward(net, np.ones((2, 1)), mode="train")

    def test_replayed_mask_of_wrong_shape_is_shape_error(self):
        net = init_network(HEAD_SPEC, SplitMix64(0))
        with pytest.raises(ShapeError, match=r"dropout mask 0 has shape \(3, 100\), "
                                             r"activations \(2, 100\)"):
            forward(net, np.ones((2, 1)), mode="train", dropout_masks=[np.ones((3, 100))])

    @pytest.mark.parametrize("count", [0, 2])
    def test_replayed_mask_count_must_match_the_dropout_layers(self, count):
        net = init_network(HEAD_SPEC, SplitMix64(0))
        masks = [np.ones((2, 100))] * count
        with pytest.raises(ShapeError, match=f"got {count} dropout masks for 1 dropout layers"):
            forward(net, np.ones((2, 1)), mode="train", dropout_masks=masks)

    def test_train_mode_scales_survivors(self):
        spec = NetworkSpec(1, (dense(50, "none"), dropout(0.5), dense(1, "sigmoid")))
        weights = [np.ones((1, 50)), np.ones((50, 1))]
        biases = [np.zeros((1, 50)), np.zeros((1, 1))]
        net = Network(spec, weights, biases)
        out, cache = forward(net, np.ones((1, 1)), mode="train", rng=SplitMix64(3))
        mask = cache.dropout_masks()[0]
        assert set(np.unique(mask)).issubset({0.0, 2.0})
        assert cache.records[0][2] == [mask]  # recorded on the output it scales


class TestBceLoss:
    def test_perfect_prediction_loss_near_zero(self):
        loss, _ = bce_loss(np.array([[1.0]]), np.array([[1.0]]))
        assert 0.0 < loss < 2e-7

    def test_half_prediction_is_ln_two(self):
        loss, _ = bce_loss(np.array([[0.5]]), np.array([[1.0]]))
        assert abs(loss - np.log(2.0)) < 1e-12

    def test_gradient_hand_value(self):
        _, grad = bce_loss(np.array([[0.5]]), np.array([[1.0]]))
        assert abs(grad[0, 0] - (-2.0)) < 1e-12

    def test_gradient_zero_in_clamped_region(self):
        _, grad = bce_loss(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))
        assert np.all(grad == 0.0)

    def test_rejects_bad_labels_and_shapes(self):
        with pytest.raises(DataError):
            bce_loss(np.array([[0.5]]), np.array([[0.5]]))
        with pytest.raises(ShapeError):
            bce_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))

    @given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_loss_nonnegative(self, preds, data):
        ys = data.draw(st.lists(st.integers(0, 1), min_size=len(preds), max_size=len(preds)))
        loss, _ = bce_loss(np.array(preds).reshape(-1, 1),
                           np.array(ys, dtype=float).reshape(-1, 1))
        assert loss >= 0.0
        assert np.isfinite(loss)


class TestL2Penalty:
    def _single_weight_net(self, w, lam=0.0):
        spec = NetworkSpec(1, (dense(1, "sigmoid", lam),))
        return Network(spec, [np.array([[w]])], [np.zeros((1, 1))])

    def test_zero_lambda(self):
        assert l2_penalty(self._single_weight_net(3.0)) == 0.0

    def test_hand_value(self):
        assert abs(l2_penalty(self._single_weight_net(3.0, 0.01)) - 0.09) < 1e-12

    def test_bias_never_contributes(self):
        spec = NetworkSpec(1, (dense(1, "sigmoid", 0.5),))
        a = Network(spec, [np.array([[2.0]])], [np.zeros((1, 1))])
        b = Network(spec, [np.array([[2.0]])], [np.array([[9.0]])])
        assert l2_penalty(a) == l2_penalty(b)

    def test_default_uses_per_layer_coefficients(self):
        spec = NetworkSpec(1, (dense(1, "none", 0.5), dense(1, "sigmoid", 0.0)))
        net = Network(spec, [np.array([[2.0]]), np.array([[3.0]])],
                      [np.zeros((1, 1)), np.zeros((1, 1))])
        assert l2_penalty(net) == 0.5 * 4.0


class TestAdam:
    def _scalar_net(self, w=0.5):
        spec = NetworkSpec(1, (dense(1, "sigmoid"),))
        return Network(spec, [np.array([[w]])], [np.zeros((1, 1))])

    def test_zero_gradient_is_fixed_point(self):
        net = self._scalar_net(0.7)
        g = Gradients(weights=[np.zeros((1, 1))], biases=[np.zeros((1, 1))])
        adam_step(net, g, 0.1)
        assert net.weights[0][0, 0] == 0.7

    def test_first_step_hand_value(self):
        net = self._scalar_net(0.5)
        g = Gradients(weights=[np.array([[1.0]])], biases=[np.zeros((1, 1))])
        adam_step(net, g, 0.001)
        expected = 0.5 - 0.001 * 1.0 / (1.0 + 1e-7)
        assert abs(net.weights[0][0, 0] - expected) < 1e-15

    def test_identical_histories_identical_updates(self):
        spec = NetworkSpec(1, (dense(2, "none"), dense(1, "sigmoid")))
        net = Network(spec, [np.array([[0.3, 0.3]]), np.array([[0.1], [0.1]])],
                      [np.zeros((1, 2)), np.zeros((1, 1))])
        g = Gradients(
            weights=[np.array([[0.5, 0.5]]), np.array([[0.2], [0.2]])],
            biases=[np.zeros((1, 2)), np.zeros((1, 1))],
        )
        for _ in range(5):
            adam_step(net, g, 0.01)
        w = net.weights[0]
        assert w[0, 0] == w[0, 1]

    def test_version_counter_advances(self):
        net = self._scalar_net()
        g = Gradients(weights=[np.zeros((1, 1))], biases=[np.zeros((1, 1))])
        assert net.version == 0
        adam_step(net, g, 0.1)
        assert net.version == 1

    def test_shape_mismatch_rejected(self):
        net = self._scalar_net()
        g = Gradients(weights=[np.zeros((2, 1))], biases=[np.zeros((1, 1))])
        with pytest.raises(ShapeError):
            adam_step(net, g, 0.1)

    @given(w=st.floats(-2, 2), steps=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_zero_gradient_fixed_point_property(self, w, steps):
        net = self._scalar_net(w)
        g = Gradients(weights=[np.zeros((1, 1))], biases=[np.zeros((1, 1))])
        for _ in range(steps):
            adam_step(net, g, 0.05)
        assert net.weights[0][0, 0] == w


class TestPredictAndCache:
    def test_threshold_tie_is_positive(self):
        spec = NetworkSpec(2, (dense(1, "sigmoid"),))
        net = Network(spec, [np.zeros((2, 1))], [np.zeros((1, 1))])
        probs, labels = predict(net, np.ones((3, 2)))
        assert np.all(probs == 0.5)
        assert labels.tolist() == [1, 1, 1]

    def test_label_rule_application(self):
        spec = NetworkSpec(1, (dense(1, "sigmoid"),))
        net = Network(spec, [np.array([[1.0]])], [np.zeros((1, 1))])
        logits = np.array([[-1.3862943611198906], [0.8472978603872034], [0.0]])
        probs, labels = predict(net, logits)
        assert np.allclose(probs[:, 0], [0.2, 0.7, 0.5])
        assert labels.tolist() == [0, 1, 1]

    # One row, and more rows than one block of ROWS holds.
    @pytest.mark.parametrize("rows", [1, 258])
    @pytest.mark.parametrize("kind", ["1-D", "3-D", "wrong width"])
    def test_predict_rejects_a_bad_input_shape(self, kind, rows):
        assert rows == 1 or rows > ROWS
        net = init_network(HEAD_SPEC, SplitMix64(0))
        x = {"1-D": np.ones(rows), "3-D": np.ones((rows, 1, 1)),
             "wrong width": np.ones((rows, 2))}[kind]
        with pytest.raises(ShapeError) as info:
            predict(net, x)
        assert str(info.value) == f"input has shape {x.shape}, network expects (n, 1)"

    def test_predict_is_pure(self):
        net = init_network(HEAD_SPEC, SplitMix64(2))
        x = np.random.default_rng(0).normal(size=(10, 1))
        p1, l1 = predict(net, x)
        p2, l2 = predict(net, x)
        assert np.array_equal(p1, p2)
        assert np.array_equal(l1, l2)

    def test_stale_cache_rejected_after_update(self):
        net = init_network(HEAD_SPEC, SplitMix64(3))
        x = np.ones((2, 1))
        out, cache = forward(net, x, mode="infer")
        loss, grad = bce_loss(out, np.array([[1.0], [0.0]]))
        grads = backward(net, cache, grad)
        adam_step(net, grads, 0.01)
        with pytest.raises(ContractError):
            backward(net, cache, grad)

    def test_backward_leaves_the_cache_intact(self):
        # The gradient check replays cache.dropout_masks() after backward, and
        # the walk that backward runs writes over the activations it has read.
        sigmoid = NetworkSpec(1, (dense(8, "sigmoid"),) * 2 + (dense(1, "sigmoid"),))
        for spec, n_masks in ((HEAD_SPEC, 1), (sigmoid, 0)):
            net = init_network(spec, SplitMix64(4))
            out, cache = forward(net, np.linspace(-1.0, 1.0, 6).reshape(6, 1), mode="train",
                                 rng=SplitMix64(5))
            records = list(cache.records)  # tuples: the same records hold the same arrays
            masks = [m.copy() for m in cache.dropout_masks()]
            arrays = [a.copy() for rec in records for a in rec[:2]]
            backward(net, cache, bce_loss(out, np.array([[1.0], [0.0]] * 3))[1])
            assert len(cache.records) == len(records)
            assert all(a is b for a, b in zip(cache.records, records))
            assert len(cache.dropout_masks()) == len(masks) == n_masks
            assert all(np.array_equal(a, b) for a, b in zip(cache.dropout_masks(), masks))
            after = [a for rec in cache.records for a in rec[:2]]
            assert len(after) == len(arrays) == 2 * len(net.weights)
            assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                       for a, b in zip(after, arrays))


def _two_branch_sigmoid(z):
    """The reference form: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _textbook_adam(p, g, m, v, t, lr):
    """Whole-array Adam step ``t`` with temporaries, in Algorithm 1's
    operation order: the new parameters and moments."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    mhat = m / (1.0 - ADAM_BETA1**t)
    vhat = v / (1.0 - ADAM_BETA2**t)
    return p - lr * mhat / (np.sqrt(vhat) + ADAM_EPSILON), m, v


def _folded_adam(p, g, m, v, t, lr):
    """The same step with the bias corrections folded into the step size and
    epsilon (Kingma & Ba, section 2), in the library's operation order."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    root_c2 = math.sqrt(1.0 - ADAM_BETA2**t)
    alpha = lr * root_c2 / (1.0 - ADAM_BETA1**t)
    return p - alpha * m / (np.sqrt(v) + ADAM_EPSILON * root_c2), m, v


class TestFastPathBits:
    """The in-place kernels give the same bits as their textbook forms."""

    def test_sigmoid_matches_two_branch_form(self):
        special = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan,
                   1e-300, -1e-300, 5e-324, -5e-324]
        flat = np.random.default_rng(6).normal(0.0, 20.0, size=3 * BLOCK + 5)
        # The special values straddle the start, each block boundary and the end.
        for edge in (0, BLOCK, 2 * BLOCK, 3 * BLOCK, flat.size):
            lo = min(max(edge - len(special) // 2, 0), flat.size - len(special))
            flat[lo : lo + len(special)] = special
        z = flat.reshape(-1, 1)
        expected = _two_branch_sigmoid(z)
        got = _sigmoid(z.copy())
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))

    def test_sigmoid_peak_memory_is_one_block(self):
        z = np.random.default_rng(7).normal(size=(1024, 1024))
        with traced_peak() as read_peak:
            _sigmoid(z)
            peak = read_peak()
        assert peak < 2 * BLOCK * 8

    def test_activation_gradient_matches_product_form(self):
        g = np.random.default_rng(10)
        shape = (301, 67)
        delta = g.normal(size=shape)
        delta[0, :3] = [0.0, -0.0, -1e-310]
        sig = 1.0 / (1.0 + np.exp(-g.normal(0.0, 5.0, size=shape)))
        relu = np.maximum(g.normal(size=shape), 0.0)
        for name, a, dact in (("sigmoid", sig, sig * (1.0 - sig)),
                              ("relu", relu, (relu > 0.0).astype(np.float64)),
                              ("none", sig, np.ones_like(sig))):
            # The walk writes over a column block of the layer's output.
            want, before = (delta * dact).view(np.uint64), delta.copy()
            for out in (a.copy(), np.hstack([a, a])[:, 67:]):
                got = _activation_gradient(name, out, delta, np.empty(shape))
                assert got is out and np.array_equal(got.view(np.uint64), want), name
                assert np.array_equal(delta, before)

    def test_train_dropout_mask_matches_threshold_form(self):
        net = init_network(HEAD_SPEC, SplitMix64(20))
        x = np.random.default_rng(11).normal(size=(300, 1))  # 30,000 draws: two blocks
        rng = SplitMix64(21, counter=5)
        _, cache = forward(net, x, mode="train", rng=rng)
        u = SplitMix64(21, counter=5).uniforms(300 * 100).reshape(300, 100)
        want = (u >= 0.5) / (1 - 0.5)
        (mask,) = cache.dropout_masks()
        assert np.array_equal(mask.view(np.uint64), want.view(np.uint64))
        assert rng.counter == 5 + 300 * 100

    @pytest.mark.parametrize("shape", [(1024, 1024), (41, 1024), (1024, 1), (100, 1), (1, 100),
                                       (3, 5), (16385, 1), (1000, 1001), (7, 49157)])
    def test_sum_squares_matches_numpy_sum(self, shape):
        # The L2 value is each regularised layer's coefficient times one BLAS
        # dot of its flat weights; the unregularised middle layer adds nothing.
        g = np.random.default_rng(12)
        spec = NetworkSpec(shape[0], (dense(shape[1], "sigmoid", 0.01), dense(3, "relu"),
                                      dense(1, "sigmoid", 0.003)))
        net = Network(spec, [g.normal(size=shape), g.normal(size=(shape[1], 3)),
                             g.normal(size=(3, 1))],
                      [np.zeros((1, shape[1])), np.zeros((1, 3)), np.zeros((1, 1))])
        want = 0.0
        for lam, k in ((0.01, 0), (0.003, 2)):
            flat = net.weights[k].ravel()
            want += lam * float(np.dot(flat, flat))
        assert l2_penalty(net) == want

    @given(st.integers(1, 6 * BLOCK + 41), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sum_squares_matches_numpy_sum_at_any_size(self, size, seed):
        # The dot sums in another order than np.sum's pairwise one, so the two
        # agree within the error bound of a sum of n positive terms, n*2**-53
        # relative each, and not always bit for bit.
        w = np.random.default_rng(seed).normal(0.0, 10.0, size=(size, 1))
        net = Network(NetworkSpec(size, (dense(1, "sigmoid", 0.01),)), [w], [np.zeros((1, 1))])
        got, want = l2_penalty(net), 0.01 * float(np.sum(w * w))
        assert abs(got - want) <= (2 * size + 8) * 2**-53 * want

    def test_sum_squares_holds_one_block_and_keeps_nothing(self):
        net = init_network(WIDE_SPEC, SplitMix64(13))
        with traced_peak():
            l2_penalty(net)
            current, peak = tracemalloc.get_traced_memory()
        # No weight-sized temporary, and no block of one either.
        assert peak < BLOCK * 8
        assert current < BLOCK * 8

    def test_bce_matches_clip_and_mean_form(self):
        g = np.random.default_rng(14)
        for n in (1, 4, 49, 64, 108, 1000):
            pred = g.uniform(size=(n, 1))
            pred[:4, 0] = [0.0, 1.0, 1e-9, 1.0 - 1e-9][:n]  # clamped, zero gradient
            y = (g.uniform(size=(n, 1)) < 0.3) * 1.0
            p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
            want = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
            interior = (pred > BCE_EPS) & (pred < 1.0 - BCE_EPS)
            want_grad = np.where(interior, -(y / p - (1.0 - y) / (1.0 - p)) / n, 0.0)
            loss, grad = bce_loss(pred, y)
            assert loss == want
            assert np.array_equal(grad.view(np.uint64), want_grad.view(np.uint64))

    def test_sigmoid_works_in_place(self):
        z = np.array([[-2.0, 0.0, 3.0]])
        out = _sigmoid(z)
        assert out is z

    def test_adam_matches_textbook_form_over_five_steps(self):
        # Bit for bit against the whole-array folded form, and within one
        # unit in the last place of |p| + t*lr per step of Algorithm 1's form.
        shape = (203, 211)  # 42,833 values: several blocks and a partial one
        assert shape[0] * shape[1] > 2 * BLOCK
        assert shape[0] * shape[1] % BLOCK != 0
        spec = NetworkSpec(203, (dense(211, "sigmoid"), dense(1, "sigmoid")))
        g, lr = np.random.default_rng(8), 0.003
        net = Network(spec, [g.normal(size=shape), g.normal(size=(211, 1))],
                      [g.normal(size=(1, 211)), g.normal(size=(1, 1))])
        params = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
        textbook = [p.copy() for p in params]
        moments = [(np.zeros(p.shape), np.zeros(p.shape)) for p in params]
        for t in range(1, 6):
            grads = Gradients(weights=[g.normal(size=shape), g.normal(size=(211, 1))],
                              biases=[g.normal(size=(1, 211)), g.normal(size=(1, 1))])
            adam_step(net, grads, lr)
            for i, grad in enumerate(grads.weights + grads.biases):
                textbook[i] = _textbook_adam(textbook[i], grad, *moments[i], t, lr)[0]
                params[i], *moments[i] = _folded_adam(params[i], grad, *moments[i], t, lr)
        assert net.version == 5
        assert len(net.moments) == len(params)
        drifted = 0
        for got, (m, v), want, (ref_m, ref_v), slow in zip(
                net.weights + net.biases, net.moments, params, moments, textbook):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(m, ref_m)
            assert np.array_equal(v, ref_v)
            assert np.all(np.abs(got - slow) <= 5 * np.spacing(np.abs(slow) + 5 * lr))
            drifted += int(np.count_nonzero(got != slow))
        assert drifted > 0  # the reference is the folded form, not the textbook one

    def test_add_scaled_matches_whole_array_form(self):
        g = np.random.default_rng(9)
        dst, src = g.normal(size=(203, 211)), g.normal(size=(203, 211))
        want = dst + 2.0 * 0.01 * src
        _add_scaled(dst, 2.0 * 0.01, src)
        assert np.array_equal(dst, want)

    def test_backward_makes_no_weight_sized_temporary(self):
        net = init_network(WIDE_SPEC, SplitMix64(5))
        x = np.random.default_rng(4).normal(size=(4, 41))
        out, cache = forward(net, x, mode="train")
        weight_bytes = 1024 * 1024 * 8
        with traced_peak() as read_peak:
            backward(net, cache, out - 1.0)
            peak = read_peak()
        # Two 1024x1024 weight gradients are held when the third is made.
        assert peak < 2.5 * weight_bytes

    def test_predict_matches_forward(self):
        net = init_network(WIDE_SPEC, SplitMix64(6))
        x = np.random.default_rng(2).normal(size=(50, 41))
        probs, _ = predict(net, x)
        assert np.array_equal(probs, forward(net, x, mode="infer")[0])

    def test_network_adopts_c_contiguous_float64_arrays(self):
        spec = NetworkSpec(3, (dense(4, "sigmoid"), dense(1, "sigmoid")))
        g = np.random.default_rng(1)
        weights = [g.normal(size=(3, 4)), g.normal(size=(4, 1))]
        biases = [np.zeros((1, 4)), np.zeros((1, 1))]
        net = Network(spec, weights, biases)
        for held, given in zip(net.weights + net.biases, weights + biases):
            assert held is given
        # Other dtypes and layouts are converted, which copies them.
        w32, wf = weights[0].astype(np.float32), np.asfortranarray(weights[0])
        for given in (w32, wf):
            held = Network(spec, [given, weights[1]], biases).weights[0]
            assert held is not given and held.flags.c_contiguous
            assert held.dtype == np.float64
            assert np.array_equal(held, given)

    def test_predict_holds_one_layer_at_a_time(self):
        spec = NetworkSpec(8, (dense(256, "sigmoid"),) * 6 + (dense(1, "sigmoid"),))
        net = init_network(spec, SplitMix64(4))
        x = np.random.default_rng(3).normal(size=(2000, 8))
        layer_bytes = 2000 * 256 * 8
        peaks = []
        for run in (lambda: forward(net, x, mode="infer"), lambda: predict(net, x)):
            with traced_peak() as read_peak:
                run()
                peaks.append(read_peak())
        assert peaks[0] > 6 * layer_bytes  # forward keeps every layer's output
        assert peaks[1] < 4 * layer_bytes

    def test_phase1_predict_holds_two_row_blocks_of_a_layer(self):
        net = init_network(WIDE_SPEC, SplitMix64(8))
        x = np.random.default_rng(5).normal(size=(1000, 41))
        with traced_peak() as read_peak:
            predict(net, x)
            peak = read_peak()
        # The two shared buffers of ROWS + 1 rows of 1,024 units: 2.1 MB at
        # 128 rows, 4.2 MB at 256.
        assert peak < 2.5e6

    def test_predict_blocks_keep_the_whole_matrix_bits(self):
        # numpy reads the BLAS thread count at import, so the check runs in a
        # child process pinned to one thread, where the bits are promised.
        code = textwrap.dedent("""
            import numpy as np
            from deeplda import build_phase1_spec, build_phase2_spec, forward, init_network, predict
            from deeplda.network import ROWS
            from deeplda.rng import SplitMix64

            for spec in (build_phase1_spec(), build_phase2_spec()):
                net = init_network(spec, SplitMix64(7))
                for n in (0, 1, 2, ROWS - 1, ROWS, ROWS + 1, ROWS + 2, 2 * ROWS + 1, 3 * ROWS + 5):
                    x = np.random.default_rng(n).normal(size=(n, spec.input_dim))
                    probs = predict(net, x)[0]
                    assert np.array_equal(probs, forward(net, x, mode="infer")[0]), (spec, n)
        """)
        env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("n", [1, 2, 5, 512])
    def test_outer_products_keep_the_matmul_bits(self, n):
        # Both uses: phase 2's fan-in-1 layer, (n, 1) @ (1, 100), and the
        # backward product of a one-unit layer, (n, 1) @ (1, 1024). Zero rows
        # times negative weights are where a bare multiply gives -0.0.
        g = np.random.default_rng(n)
        a = g.normal(size=(n, 1))
        a[::2] = 0.0
        # The walk multiplies by a transposed row block of the (1024, 1) weights.
        w = g.normal(size=(1024, 1))
        for b in (g.normal(size=(1, 100)), g.normal(size=(1, 1024)), w[512:].T):
            want = np.matmul(a, b).view(np.uint64)
            assert np.array_equal(_matmul(a, b).view(np.uint64), want)
            out = np.empty((n, b.shape[1]))
            assert _matmul(a, b, out) is out and np.array_equal(out.view(np.uint64), want)
        net = init_network(HEAD_SPEC, SplitMix64(n))
        net.biases[0][0, ::3] = g.normal(size=34)
        (_, a_out, _), *_ = forward(net, a, mode="infer")[1].records
        want = np.maximum(np.matmul(a, net.weights[0]) + net.biases[0], 0.0)
        assert np.array_equal(a_out.view(np.uint64), want.view(np.uint64))

    def test_backward_keeps_the_copy_everything_bits(self):
        # backward makes each weight gradient on the transposed view of a_in
        # in blocks of _grad_rows weight rows (a one-unit layer's in its
        # _delta_cols blocks), makes the input gradient in
        # blocks of DELTA_COLS columns where _delta_cols allows, writes each
        # activation gradient over the activations, and skips the first
        # layer's input gradient. The reference copies a_in.T where dz has
        # several columns, runs every product whole through matmul and makes
        # every input gradient and activation gradient as a new array. A
        # one-column dz makes a gemv, whose bits depend on the operand
        # layout, so there it multiplies on the view. The third spec has a
        # fan-in of 300, which ends in a partial block, and a 1024-wide input
        # gradient of a 512-unit layer, which 2 rows make whole. Rows 3-8
        # reach OpenBLAS's small-matrix kernels and 49 is the clinical
        # shape's trailing batch. One BLAS thread, where the bits are promised.
        code = textwrap.dedent("""
            import numpy as np
            from deeplda import (NetworkSpec, backward, bce_loss, build_phase1_spec,
                                 build_phase2_spec, dense, dropout, forward, init_network)
            from deeplda.network import GRAD_ROWS, _add_scaled
            from deeplda.rng import SplitMix64

            DACT = {"sigmoid": lambda a: (1.0 - a) * a, "relu": lambda a: (a > 0.0) * 1.0}

            def reference(net, cache, delta):
                layers = net.dense_layers()
                dws, dbs = [None] * len(layers), [None] * len(layers)
                for k, (a_in, a_out, masks) in reversed(list(enumerate(cache.records))):
                    for mask in reversed(masks):
                        delta = delta * mask
                    dz = DACT[layers[k].activation](a_out) * delta
                    if dz.shape[1] == 1:
                        dws[k] = a_in.T @ dz
                    else:
                        dws[k] = np.ascontiguousarray(a_in.T) @ dz
                    if layers[k].l2_lambda > 0.0:
                        _add_scaled(dws[k], 2.0 * layers[k].l2_lambda, net.weights[k])
                    dbs[k] = dz.sum(axis=0, keepdims=True)
                    delta = dz @ net.weights[k].T
                return dws + dbs

            assert 300 % GRAD_ROWS and 300 > GRAD_ROWS
            fan_in_300 = NetworkSpec(300, (dense(1024, "sigmoid", 0.01), dense(512, "relu", 0.02),
                                           dropout(0.25), dense(1, "sigmoid")))
            for spec in (build_phase1_spec(), build_phase2_spec(), fan_in_300):
                net = init_network(spec, SplitMix64(3))
                for n in (1, 2, 3, 4, 5, 8, 49, 63, 64, 512, 513):
                    g = np.random.default_rng(n)
                    x = g.normal(size=(n, spec.input_dim))
                    x[::3] = 0.0
                    out, cache = forward(net, x, mode="train", rng=SplitMix64(n))
                    grad = bce_loss(out, (g.uniform(size=(n, 1)) < 0.5) * 1.0)[1]
                    grad[::4] = 0.0
                    got = backward(net, cache, grad)
                    for k, (a, b) in enumerate(zip(got.weights + got.biases,
                                                   reference(net, cache, grad))):
                        assert a.shape == b.shape, (spec.input_dim, n, k)
                        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (
                            spec.input_dim, n, k)
        """)
        env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr

    def test_gradient_row_blocks_keep_the_whole_product_bits(self):
        # The walk makes a layer's weight gradient a_in.T @ dz in blocks of
        # _grad_rows(n) rows: the batch's row count rounded up to a multiple
        # of 64, at most GRAD_ROWS. Each block stays inside its block of
        # _delta_cols rows, so at 150 rows a 512-row block splits into 192,
        # 192 and 128. Blocks of n rows lose the whole product's bits at 2
        # to 8 and 33 rows. Here the walk's blocks keep them at the phase-1
        # shapes: fan-in 41 and 1024 into 1024 units, and the one-unit output
        # layers of both phases, fan-in 1024 and 100, whose whole product is
        # a gemv on the transposed view made in _delta_cols blocks; at the
        # batch sizes 64 and 512, a trailing 49 and odd counts. One BLAS
        # thread, where the bits are promised.
        assert [_grad_rows(n) for n in (1, 49, 64, 65, 113, 150, 512, 513)] == [
            64, 64, 64, 128, 128, 192, 256, 256]
        code = textwrap.dedent("""
            import numpy as np
            from deeplda.network import _delta_cols, _grad_rows

            for fan_in, units in ((41, 1024), (1024, 1024), (1024, 1), (100, 1)):
                for n in (1, 2, 49, 64, 113, 150, 512):
                    g = np.random.default_rng(n)
                    a, dz = g.normal(size=(n, fan_in)), g.normal(size=(n, units))
                    whole = (a.T if units == 1 else np.ascontiguousarray(a.T)) @ dz
                    width = min(_delta_cols(n, units, fan_in), fan_in)
                    step = width if units == 1 else _grad_rows(n)
                    covered = []
                    for outer in range(0, fan_in, width):
                        end = min(outer + width, fan_in)
                        for start in range(outer, end, step):
                            stop = min(start + step, end)
                            covered += range(start, stop)
                            got = np.matmul(a[:, start:stop].T, dz)
                            want = whole[start:stop]
                            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
                                fan_in, units, n, start)
                    assert covered == list(range(fan_in)), (fan_in, units, n)
        """)
        env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr

    def test_predict_memory_does_not_grow_with_rows(self):
        spec = NetworkSpec(8, (dense(256, "sigmoid"),) * 3 + (dense(1, "sigmoid"),))
        net = init_network(spec, SplitMix64(4))
        peaks = []
        for n in (2 * ROWS, 8 * ROWS):
            x = np.random.default_rng(n).normal(size=(n, 8))
            with traced_peak() as read_peak:
                predict(net, x)
                peaks.append(read_peak())
        assert peaks[1] <= 1.1 * peaks[0]


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _rewrite_npz(src, dst, drop=(), **replace):
    """Copy a network file's entries to ``dst``, minus ``drop``, with
    ``replace`` entries substituted or added."""
    with np.load(src, allow_pickle=False) as npz:
        entries = {name: npz[name] for name in npz.files if name not in drop}
    entries.update(replace)
    with open(dst, "wb") as fh:
        np.savez(fh, **entries)


def _head_header(layer=None, **edits):
    """A ``header`` entry for HEAD_SPEC with ``edits`` applied to the spec,
    or to its layer number ``layer``."""
    spec = HEAD_SPEC.to_dict()
    (spec if layer is None else spec["layers"][layer]).update(edits)
    return {"header": np.array(json.dumps({"format": "deeplda.network/2", "spec": spec,
                                           "metadata": {}}))}


class TestSerialization:
    def test_round_trip_is_value_exact(self, tmp_path):
        net = init_network(HEAD_SPEC, SplitMix64(11))
        path = tmp_path / "net.npz"
        save_network(net, path)
        back = load_network(path)
        for a, b in zip(net.weights, back.weights):
            assert np.array_equal(a, b)
        for a, b in zip(net.biases, back.biases):
            assert np.array_equal(a, b)
        assert back.spec == net.spec

    def test_param_parity_survives_round_trip(self, tmp_path):
        net = init_network(WIDE_SPEC, SplitMix64(0))
        path = tmp_path / "wide.npz"
        save_network(net, path)
        assert param_count(load_network(path).spec) == 2_143_233

    def test_load_holds_the_parameters_once(self, tmp_path):
        net = init_network(WIDE_SPEC, SplitMix64(0))
        save_network(net, tmp_path / "wide.npz")
        array_bytes = sum(a.nbytes for a in net.weights + net.biases)
        del net
        with traced_peak() as read_peak:
            back = load_network(tmp_path / "wide.npz")
            peak = read_peak()
        # No Adam moments: only the file's arrays.
        assert back.moments is None
        assert peak < 1.25 * array_bytes

    @pytest.mark.parametrize("spec", [HEAD_SPEC, WIDE_SPEC], ids=["head", "wide"])
    def test_file_bytes_equal_np_savez(self, tmp_path, spec):
        net = init_network(spec, SplitMix64(14))
        save_network(net, tmp_path / "net.npz", {"phase": 1})
        header = {"format": "deeplda.network/2", "spec": spec.to_dict(), "metadata": {"phase": 1}}
        entries = {"header": np.array(json.dumps(header, sort_keys=True))}
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            entries[f"w{k}"], entries[f"b{k}"] = w, b
        with open(tmp_path / "ref.npz", "wb") as fh:
            np.savez(fh, **entries)
        assert (tmp_path / "net.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()

    def test_file_layout(self, tmp_path):
        net = init_network(HEAD_SPEC, SplitMix64(12))
        path = tmp_path / "net.npz"
        save_network(net, path, {"phase": 2})
        with np.load(path, allow_pickle=False) as npz:
            assert sorted(npz.files) == ["b0", "b1", "header", "w0", "w1"]
            assert np.array_equal(npz["w1"], net.weights[1])
            header = npz["header"]
        assert header.shape == () and header.dtype.kind == "U"
        text = str(header[()])
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True)
        assert doc == {"format": "deeplda.network/2", "spec": HEAD_SPEC.to_dict(),
                       "metadata": {"phase": 2}}

    def test_written_at_the_given_name(self, tmp_path):
        # np.savez given a path would append ".npz"; the file goes exactly here
        net = init_network(HEAD_SPEC, SplitMix64(13))
        save_network(net, tmp_path / "net.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["net.bin"]
        assert load_network(tmp_path / "net.bin").spec == HEAD_SPEC

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        net = init_network(HEAD_SPEC, SplitMix64(14))
        blobs = []
        for i, stamp in enumerate((1.0e9, 1.7e9)):
            monkeypatch.setattr(time, "time", lambda: stamp)
            monkeypatch.setattr(time, "localtime", lambda *a: time.gmtime(stamp))
            save_network(net, tmp_path / f"n{i}.npz")
            blobs.append((tmp_path / f"n{i}.npz").read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_network(tmp_path / "ghost.npz")

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "something.else/9"}')
        with pytest.raises(DataError):
            load_network(p)

    @pytest.mark.parametrize("content", [
        b"", b"\x00\x01garbage", b"[1, 2, 3]", b"\xff\xfe",
        pytest.param(_npy_bytes(np.zeros((1, 1))), id="npy_array"),
        pytest.param(json.dumps({
            "format": "deeplda.network/1",
            "spec": NetworkSpec(1, (dense(1, "sigmoid"),)).to_dict(),
            "weights": [[[0.5]]], "biases": [[[0.0]]], "metadata": {},
        }).encode(), id="network_format_1_json"),
    ])
    def test_non_network_bytes_rejected(self, tmp_path, content):
        p = tmp_path / "x.npz"
        p.write_bytes(content)
        with pytest.raises(DataError, match="not a deeplda.network/2 archive"):
            load_network(p)

    @pytest.mark.parametrize("keep", [4, 1000, -100])
    def test_truncated_file_rejected(self, tmp_path, keep):
        save_network(init_network(HEAD_SPEC, SplitMix64(16)), tmp_path / "net.npz")
        blob = (tmp_path / "net.npz").read_bytes()
        (tmp_path / "cut.npz").write_bytes(blob[:keep])
        with pytest.raises(DataError):
            load_network(tmp_path / "cut.npz")

    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
                          min_size=1, max_size=8),
           keep=st.none() | st.floats(0, 1))
    def test_corrupted_bytes_never_load_silently(self, edits, keep):
        # A damaged file either raises DataError or still holds the exact
        # parameters (the byte hit a field the loader does not use).
        net = init_network(HEAD_SPEC, SplitMix64(19))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "net.npz")
            save_network(net, path)
            blob = bytearray(Path(path).read_bytes())
            for where, value in edits:
                blob[int(where * len(blob))] = value
            if keep is not None:
                blob = blob[: int(keep * len(blob))]
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                back = load_network(path)
            except DataError:
                return
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            assert np.array_equal(a, b)

    def test_an_unclosed_parenthesis_in_an_array_header_is_data_error(self, tmp_path):
        # numpy re-reads an array header that does not parse with tokenize,
        # which raises its own TokenError at an unclosed parenthesis. The
        # entry is long enough that its header is parsed before its CRC is checked.
        spec = NetworkSpec(1, (dense(1024, "sigmoid"), dense(1, "sigmoid")))
        save_network(init_network(spec, SplitMix64(21)), tmp_path / "net.npz")
        blob = (tmp_path / "net.npz").read_bytes()
        at = blob.index(b"'shape': (1, 1024), }") + len("'shape': (1, 1024")
        (tmp_path / "net.npz").write_bytes(blob[:at] + b"(" + blob[at + 1:])
        with pytest.raises(DataError, match="is not a valid network file"):
            load_network(tmp_path / "net.npz")

    @pytest.mark.parametrize("how", ["deflated", "encrypted"])
    def test_compressed_or_encrypted_entries_rejected(self, tmp_path, how):
        save_network(init_network(HEAD_SPEC, SplitMix64(20)), tmp_path / "net.npz")
        bad = tmp_path / "bad.npz"
        if how == "deflated":
            with zipfile.ZipFile(tmp_path / "net.npz") as src, \
                    zipfile.ZipFile(bad, "w", zipfile.ZIP_DEFLATED) as dst:
                for info in src.infolist():
                    dst.writestr(info.filename, src.read(info))
        else:  # set the encryption bit of each central-directory entry
            blob = bytearray((tmp_path / "net.npz").read_bytes())
            with zipfile.ZipFile(tmp_path / "net.npz") as src:
                pos, count = src.start_dir, len(src.infolist())
            for _ in range(count):
                assert blob[pos : pos + 4] == b"PK\x01\x02"
                blob[pos + 8] |= 0x1
                pos += 46 + sum(struct.unpack("<3H", blob[pos + 28 : pos + 34]))
            bad.write_bytes(blob)
        with pytest.raises(DataError, match="stored plain, without compression or encryption"):
            load_network(bad)

    @pytest.mark.parametrize("drop", ["w1", "b0", "header"])
    def test_missing_entry_rejected(self, tmp_path, drop):
        save_network(init_network(HEAD_SPEC, SplitMix64(17)), tmp_path / "net.npz")
        _rewrite_npz(tmp_path / "net.npz", tmp_path / "bad.npz", drop=(drop,))
        with pytest.raises(DataError, match=drop if drop == "header" else "arrays"):
            load_network(tmp_path / "bad.npz")

    @pytest.mark.parametrize("replace", [
        {"header": np.array("not json")},
        {"header": np.array('{"format": "deeplda.network/1", "spec": {}}')},
        {"header": np.array('{"format": "deeplda.network/2"}')},
        {"header": np.array('{"format": "deeplda.network/2", "spec": {"input_dim": 1}}')},
        {"header": np.array('["deeplda.network/2"]')},
        {"header": np.array(["a", "b"])},
        {"header": np.array(3)},
        # Ill-typed spec values that int() or float() would turn into valid ones.
        _head_header(input_dim=1.9),
        _head_header(0, l2_lambda="0.5"),
        _head_header(1, rate=False),
        _head_header(2, units=True),
        {"w2": np.zeros((1, 1))},
        {"w0": np.zeros((1, 100), dtype=np.float32)},
        {"w0": np.zeros((2, 100))},
        _head_header(0, l2_lambda=float("nan")),  # well-typed, but not finite
        {"header": np.array("[" * 200_000 + "]" * 200_000)},  # too deep for json.loads
    ])
    def test_bad_header_or_arrays_rejected(self, tmp_path, replace):
        save_network(init_network(HEAD_SPEC, SplitMix64(18)), tmp_path / "net.npz")
        _rewrite_npz(tmp_path / "net.npz", tmp_path / "bad.npz", **replace)
        with pytest.raises(DataError):
            load_network(tmp_path / "bad.npz")
