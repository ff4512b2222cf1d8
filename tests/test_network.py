"""Layer specs, initialization, forward pass, losses, Adam, serialization."""

import json
import os
import tempfile
import time

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
from conftest import write_v1_network
from deeplda.network import BLOCK, AdamState, _activation_gradient, _add_scaled, _sigmoid
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
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(threshold=1.0)

    def test_round_trip(self):
        cfg = TrainConfig(learning_rate=1e-3, epochs=7)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_legacy_seed_key_is_dropped(self):
        # format-1 manifests stored an unused ``seed`` in every config
        cfg = TrainConfig(learning_rate=1e-3, epochs=7)
        assert "seed" not in cfg.to_dict()
        assert TrainConfig.from_dict({**cfg.to_dict(), "seed": 7}) == cfg


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
        assert all(s.t == 0 and np.all(s.m == 0) and np.all(s.v == 0)
                   for s in net.adam_w + net.adam_b)

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
        relu_out = cache.records[0][3]
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

    def test_train_mode_scales_survivors(self):
        spec = NetworkSpec(1, (dense(50, "none"), dropout(0.5), dense(1, "sigmoid")))
        weights = [np.ones((1, 50)), np.ones((50, 1))]
        biases = [np.zeros((1, 50)), np.zeros((1, 1))]
        net = Network(spec, weights, biases)
        out, cache = forward(net, np.ones((1, 1)), mode="train", rng=SplitMix64(3))
        mask = cache.dropout_masks()[0]
        assert set(np.unique(mask)).issubset({0.0, 2.0})
        dropped_layer = cache.records[1]
        assert dropped_layer[0] == "dropout"


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
        net = self._single_weight_net(3.0)
        penalty, grads = l2_penalty(net, 0.0)
        assert penalty == 0.0
        assert np.all(grads[0] == 0.0)

    def test_hand_value(self):
        net = self._single_weight_net(3.0)
        penalty, grads = l2_penalty(net, 0.01)
        assert abs(penalty - 0.09) < 1e-12
        assert abs(grads[0][0, 0] - 0.06) < 1e-12

    def test_bias_never_contributes(self):
        spec = NetworkSpec(1, (dense(1, "sigmoid", 0.5),))
        a = Network(spec, [np.array([[2.0]])], [np.zeros((1, 1))])
        b = Network(spec, [np.array([[2.0]])], [np.array([[9.0]])])
        assert l2_penalty(a)[0] == l2_penalty(b)[0]

    def test_default_uses_per_layer_coefficients(self):
        spec = NetworkSpec(1, (dense(1, "none", 0.5), dense(1, "sigmoid", 0.0)))
        net = Network(spec, [np.array([[2.0]]), np.array([[3.0]])],
                      [np.zeros((1, 1)), np.zeros((1, 1))])
        penalty, grads = l2_penalty(net)
        assert penalty == 0.5 * 4.0
        assert grads[1][0, 0] == 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            l2_penalty(self._single_weight_net(1.0), -0.5)


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


def _two_branch_sigmoid(z):
    """The reference form: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _textbook_adam(p, g, st, lr):
    """Whole-array Adam with temporaries, in the library's operation order."""
    st.t += 1
    st.m = st.beta1 * st.m + (1.0 - st.beta1) * g
    st.v = st.beta2 * st.v + (1.0 - st.beta2) * (g * g)
    mhat = st.m / (1.0 - st.beta1**st.t)
    vhat = st.v / (1.0 - st.beta2**st.t)
    return p - lr * mhat / (np.sqrt(vhat) + st.epsilon)


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
        import tracemalloc

        z = np.random.default_rng(7).normal(size=(1024, 1024))
        tracemalloc.start()
        _sigmoid(z)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
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
            before = (a.copy(), delta.copy())
            got = _activation_gradient(name, a, delta)
            assert np.array_equal(got.view(np.uint64), (delta * dact).view(np.uint64)), name
            assert np.array_equal(a, before[0]) and np.array_equal(delta, before[1])

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

    def test_sigmoid_works_in_place(self):
        z = np.array([[-2.0, 0.0, 3.0]])
        out = _sigmoid(z)
        assert out is z

    def test_adam_matches_textbook_form_over_five_steps(self):
        shape = (203, 211)  # 42,833 values: several blocks and a partial one
        assert shape[0] * shape[1] > 2 * BLOCK
        assert shape[0] * shape[1] % BLOCK != 0
        spec = NetworkSpec(203, (dense(211, "sigmoid"), dense(1, "sigmoid")))
        g = np.random.default_rng(8)
        net = Network(spec, [g.normal(size=shape), g.normal(size=(211, 1))],
                      [g.normal(size=(1, 211)), g.normal(size=(1, 1))])
        params = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
        states = [AdamState.zeros(p.shape) for p in params]
        for _ in range(5):
            grads = Gradients(weights=[g.normal(size=shape), g.normal(size=(211, 1))],
                              biases=[g.normal(size=(1, 211)), g.normal(size=(1, 1))])
            adam_step(net, grads, 0.003)
            for i, grad in enumerate(grads.weights + grads.biases):
                params[i] = _textbook_adam(params[i], grad, states[i], 0.003)
        for got, st, want, ref in zip(net.weights + net.biases, net.adam_w + net.adam_b,
                                      params, states):
            assert np.array_equal(got, want)
            assert np.array_equal(st.m, ref.m)
            assert np.array_equal(st.v, ref.v)
            assert st.t == ref.t == 5

    def test_add_scaled_matches_whole_array_form(self):
        g = np.random.default_rng(9)
        dst, src = g.normal(size=(203, 211)), g.normal(size=(203, 211))
        want = dst + 2.0 * 0.01 * src
        _add_scaled(dst, 2.0 * 0.01, src)
        assert np.array_equal(dst, want)

    def test_backward_makes_no_weight_sized_temporary(self):
        import tracemalloc

        net = init_network(WIDE_SPEC, SplitMix64(5))
        x = np.random.default_rng(4).normal(size=(4, 41))
        out, cache = forward(net, x, mode="train")
        weight_bytes = 1024 * 1024 * 8
        tracemalloc.start()
        backward(net, cache, out - 1.0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # Two 1024x1024 weight gradients are held when the third is made.
        assert peak < 2.5 * weight_bytes

    def test_predict_matches_forward(self):
        net = init_network(WIDE_SPEC, SplitMix64(6))
        x = np.random.default_rng(2).normal(size=(50, 41))
        probs, _ = predict(net, x)
        assert np.array_equal(probs, forward(net, x, mode="infer")[0])

    def test_network_leaves_caller_arrays_unchanged(self):
        spec = NetworkSpec(3, (dense(4, "sigmoid"), dense(1, "sigmoid")))
        g = np.random.default_rng(1)
        weights = [g.normal(size=(3, 4)), g.normal(size=(4, 1))]
        biases = [np.zeros((1, 4)), np.zeros((1, 1))]
        before = [a.copy() for a in weights + biases]
        net = Network(spec, weights, biases)
        grads = Gradients(weights=[np.ones((3, 4)), np.ones((4, 1))],
                          biases=[np.ones((1, 4)), np.ones((1, 1))])
        adam_step(net, grads, 0.1)
        assert not np.array_equal(net.weights[0], before[0])
        for caller, original in zip(weights + biases, before):
            assert np.array_equal(caller, original)

    def test_predict_holds_one_layer_at_a_time(self):
        import tracemalloc

        spec = NetworkSpec(8, (dense(256, "sigmoid"),) * 6 + (dense(1, "sigmoid"),))
        net = init_network(spec, SplitMix64(4))
        x = np.random.default_rng(3).normal(size=(2000, 8))
        layer_bytes = 2000 * 256 * 8
        peaks = []
        for run in (lambda: forward(net, x, mode="infer"), lambda: predict(net, x)):
            tracemalloc.start()
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] > 6 * layer_bytes  # forward keeps every layer's output
        assert peaks[1] < 4 * layer_bytes


def _rewrite_npz(src, dst, drop=(), **replace):
    """Copy a network file's entries to ``dst``, minus ``drop``, with
    ``replace`` entries substituted or added."""
    with np.load(src, allow_pickle=False) as npz:
        entries = {name: npz[name] for name in npz.files if name not in drop}
    entries.update(replace)
    with open(dst, "wb") as fh:
        np.savez(fh, **entries)


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

    def test_format_1_json_still_loads(self, tmp_path):
        net = init_network(WIDE_SPEC, SplitMix64(15))
        write_v1_network(net, tmp_path / "net.json", {"phase": 1})
        back = load_network(tmp_path / "net.json")
        assert back.spec == net.spec
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            assert np.array_equal(a, b)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_network(tmp_path / "ghost.npz")

    def test_wrong_format_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "something.else/9"}')
        with pytest.raises(DataError):
            load_network(p)

    @pytest.mark.parametrize("content", [b"", b"\x00\x01garbage", b"[1, 2, 3]", b"\xff\xfe"])
    def test_non_network_bytes_rejected(self, tmp_path, content):
        p = tmp_path / "x.npz"
        p.write_bytes(content)
        with pytest.raises(DataError):
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
            blob = bytearray(open(path, "rb").read())
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
        {"w2": np.zeros((1, 1))},
        {"w0": np.zeros((1, 100), dtype=np.float32)},
        {"w0": np.zeros((2, 100))},
    ])
    def test_bad_header_or_arrays_rejected(self, tmp_path, replace):
        save_network(init_network(HEAD_SPEC, SplitMix64(18)), tmp_path / "net.npz")
        _rewrite_npz(tmp_path / "net.npz", tmp_path / "bad.npz", **replace)
        with pytest.raises(DataError):
            load_network(tmp_path / "bad.npz")
