"""Training-loop behavior: epoch accounting, determinism, metric timing."""

import numpy as np
import pytest

from conftest import traced_peak
from deeplda import (
    Dataset,
    NetworkSpec,
    NumericalError,
    ShapeError,
    TrainConfig,
    adam_step,
    backward,
    bce_loss,
    build_phase1_spec,
    build_phase2_spec,
    dense,
    dropout,
    fit,
    forward,
    init_network,
    l2_penalty,
)
from deeplda.rng import SplitMix64

SPEC = NetworkSpec(4, (dense(8, "sigmoid", 0.01), dense(1, "sigmoid")))


def _toy_sets(n_train=10, n_val=6, seed=0):
    g = np.random.default_rng(seed)
    names = ("a", "b", "c", "d")

    def one(n):
        y = np.concatenate([np.zeros(n // 2), np.ones(n - n // 2)])
        x = g.normal(0, 1, (n, 4)) + y[:, None] * 2.0
        return Dataset(x=x, y=y, feature_names=names)

    return one(n_train), one(n_val)


def test_history_row_count_equals_epochs():
    train, val = _toy_sets()
    net = init_network(SPEC, SplitMix64(1))
    cfg = TrainConfig(learning_rate=1e-3, epochs=7, batch_size=4)
    _, history = fit(net, train, val, cfg, SplitMix64(1))
    assert len(history) == 7
    assert [r.epoch for r in history] == list(range(1, 8))


def test_same_seed_bitwise_identical_histories():
    train, val = _toy_sets(seed=3)
    cfg = TrainConfig(learning_rate=1e-3, epochs=5, batch_size=4)

    def run():
        rng = SplitMix64(42)
        net = init_network(SPEC, rng)
        _, h = fit(net, train, val, cfg, rng)
        return [(r.accuracy, r.loss, r.val_accuracy, r.val_loss) for r in h]

    assert run() == run()


def test_partial_final_batch_is_trained_on():
    train, val = _toy_sets(n_train=10)
    rng = SplitMix64(4)
    net = init_network(SPEC, rng)
    cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4)
    net, _ = fit(net, train, val, cfg, rng)
    # 10 rows at batch 4 -> 3 updates per epoch (4, 4, 2)
    assert net.version == 3 * 3


def test_first_epoch_metrics_match_manual_single_batch_replay():
    train, val = _toy_sets(n_train=8, seed=5)
    cfg = TrainConfig(learning_rate=1e-2, epochs=1, batch_size=64)

    rng = SplitMix64(9)
    net = fit_net = init_network(SPEC, rng)
    fit_net, history = fit(fit_net, train, val, cfg, rng)

    mirror_rng = SplitMix64(9)
    mirror = init_network(SPEC, mirror_rng)
    order = mirror_rng.permutation(train.n_rows)
    xb = train.x[order]
    yb = train.y[order].reshape(-1, 1)
    out, cache = forward(mirror, xb, mode="train")
    pre_loss, lgrad = bce_loss(out, yb)
    pre_loss += l2_penalty(mirror)
    pre_acc = float(np.mean((out[:, 0] >= 0.5) == (yb[:, 0] >= 0.5)))
    adam_step(mirror, backward(mirror, cache, lgrad), cfg.learning_rate)
    val_out, _ = forward(mirror, val.x, mode="infer")
    val_bce, _ = bce_loss(val_out, val.y.reshape(-1, 1))
    val_loss = val_bce + l2_penalty(mirror)
    val_acc = float(np.mean((val_out[:, 0] >= 0.5) == (val.y >= 0.5)))

    rec = history[0]
    assert rec.loss == pre_loss
    assert rec.accuracy == pre_acc
    assert rec.val_loss == val_loss
    assert rec.val_accuracy == val_acc
    assert all(np.array_equal(a, b) for a, b in zip(fit_net.weights, mirror.weights))


def _sets(width, n_train, n_val, seed):
    g = np.random.default_rng(seed)
    names = tuple(f"f{i}" for i in range(width))

    def one(n):
        y = np.arange(n) % 2 * 1.0
        return Dataset(x=g.normal(0, 1, (n, width)) + y[:, None], y=y, feature_names=names)

    return one(n_train), one(n_val)


@pytest.mark.parametrize("spec, n_train, batch_size", [
    (build_phase2_spec(), 10, 4),
    (NetworkSpec(4, (dense(16, "sigmoid", 0.01), dense(8, "sigmoid", 0.02),
                     dense(1, "sigmoid"))), 10, 4),
    (NetworkSpec(300, (dense(1024, "sigmoid", 0.01), dense(512, "relu", 0.02), dropout(0.25),
                       dense(1, "sigmoid"))), 10, 4),
    (NetworkSpec(41, (dense(1024, "sigmoid", 0.01),) * 2 + (dense(1, "sigmoid"),)), 113, 64),
    (NetworkSpec(1024, (dense(1024, "sigmoid", 0.01), dense(1, "sigmoid", 0.01))), 263, 150),
], ids=["phase2-dropout", "sigmoid-l2", "fan-in-300", "batch-64-blocks", "batch-150-blocks"])
def test_fit_matches_forward_backward_adam_by_hand(spec, n_train, batch_size):
    # fit updates each block of rows inside the backward walk; by hand,
    # backward builds every gradient and adam_step applies them. A fan-in
    # of 300 ends in a partial block of 44 rows after four of 64. 10 rows
    # at batch 4 over 2 epochs: 6 steps, each epoch ending in a partial
    # batch of 2. 113 rows at batch 64: batches of 64 and 49 rows, whose
    # 1024-wide fan-in is split into blocks of 64 rows. 263 rows at batch
    # 150: blocks of 192 and 128 rows, neither of which divides the
    # 512-row blocks of the input gradient, at a 1024-wide fan-in in both
    # dense layers.
    train, val = _sets(spec.input_dim, n_train, 6, seed=11)
    cfg = TrainConfig(learning_rate=1e-2, epochs=2, batch_size=batch_size)
    rng = SplitMix64(21)
    fit_net, _ = fit(init_network(spec, rng), train, val, cfg, rng)

    rng = SplitMix64(21)
    net = init_network(spec, rng)
    y = train.y.reshape(-1, 1)
    for _ in range(cfg.epochs):
        order = rng.permutation(train.n_rows)
        xs, ys = train.x[order], y[order]
        for start in range(0, train.n_rows, cfg.batch_size):
            out, cache = forward(net, xs[start : start + cfg.batch_size], mode="train", rng=rng)
            grad = bce_loss(out, ys[start : start + cfg.batch_size])[1]
            adam_step(net, backward(net, cache, grad), cfg.learning_rate)

    assert fit_net.version == net.version == 2 * -(-n_train // batch_size)
    for got, want in zip(fit_net.weights + fit_net.biases, net.weights + net.biases):
        assert np.array_equal(got, want)
    assert len(fit_net.moments) == len(net.moments) == 2 * len(net.weights)
    for (m, v), (want_m, want_v) in zip(fit_net.moments, net.moments):
        assert np.array_equal(m, want_m)
        assert np.array_equal(v, want_v)


def _second_fit_peak():
    """tracemalloc peak of a one-step fit on a 1024-wide stack whose Adam
    moments exist, and the bytes of one 1024x1024 weight gradient."""
    spec = NetworkSpec(8, (dense(1024, "sigmoid", 0.01),) * 3 + (dense(1, "sigmoid"),))
    train, val = _sets(8, 4, 2, seed=12)
    cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4)
    rng = SplitMix64(13)
    net = init_network(spec, rng)
    fit(net, train, val, cfg, rng)  # makes the Adam moments
    with traced_peak() as read_peak:
        fit(net, train, val, cfg, rng)
        peak = read_peak()
    return peak, 1024 * 1024 * 8


def test_a_step_holds_one_layer_gradient_at_a_time():
    peak, weight_bytes = _second_fit_peak()
    # Above the parameters, moments and (4-row) activations: one 1024x1024
    # weight gradient plus block scratch. backward followed by adam_step
    # holds two such gradients when it makes the third.
    assert peak < 1.25 * weight_bytes


def test_a_step_holds_one_row_block_of_a_weight_gradient():
    peak, weight_bytes = _second_fit_peak()
    # The weight gradient is made in blocks of at most GRAD_ROWS = 256 rows
    # (2 MB) in one buffer: a whole 1024x1024 gradient would be 8 MB.
    assert peak < 0.5 * weight_bytes


def test_a_batch_512_step_holds_its_activations_and_two_blocks():
    # The walk writes each activation gradient over the activations it has
    # read and holds two 2 MiB blocks above them: one of the input
    # gradient's columns and one of a weight gradient's rows.
    train, val = _sets(41, 512, 2, seed=14)
    cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=512)
    rng = SplitMix64(15)
    net = init_network(build_phase1_spec(), rng)  # 41 -> 3 x 1024 sigmoid -> 1
    fit(net, train, val, cfg, rng)  # makes the Adam moments
    with traced_peak() as read_peak:
        fit(net, train, val, cfg, rng)
        peak = read_peak()
    activations = 3 * 512 * 1024 * 8
    assert peak < activations + 5 * 2**20


@pytest.mark.parametrize("n_train", [113, pytest.param(20_000, marks=pytest.mark.slow)])
def test_a_batch_64_step_holds_its_activations_and_small_blocks(n_train):
    # At batch 64 the weight-gradient blocks take 64 rows (0.5 MiB) and the
    # input-gradient blocks 0.25 MiB, and each batch is gathered from the
    # training set by its rows of the permutation, which is the only thing
    # fit holds per training row. 113 rows end in a partial batch. Blocks of
    # 256 rows and a shuffled copy of the set put the peak 2.7 MiB above the
    # activations at 113 rows and 9.2 MiB at 20,000.
    train, val = _sets(41, n_train, 2, seed=18)
    cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=64)
    rng = SplitMix64(17)
    net = init_network(build_phase1_spec(), rng)  # 41 -> 3 x 1024 sigmoid -> 1
    fit(net, *_sets(41, 64, 2, seed=16), cfg, rng)  # makes the Adam moments
    with traced_peak() as read_peak:
        fit(net, train, val, cfg, rng)
        peak = read_peak()
    activations, permutation = 3 * 64 * 1024 * 8, 8 * n_train
    assert peak < activations + permutation + 1.25 * 2**20


def test_reported_loss_includes_l2_penalty():
    train, val = _toy_sets(seed=6)
    spec_reg = NetworkSpec(4, (dense(8, "sigmoid", 0.05), dense(1, "sigmoid")))
    spec_free = NetworkSpec(4, (dense(8, "sigmoid", 0.0), dense(1, "sigmoid")))
    cfg = TrainConfig(learning_rate=1e-9, epochs=1)
    rng_a, rng_b = SplitMix64(7), SplitMix64(7)
    _, h_reg = fit(init_network(spec_reg, rng_a), train, val, cfg, rng_a)
    _, h_free = fit(init_network(spec_free, rng_b), train, val, cfg, rng_b)
    assert h_reg[0].loss > h_free[0].loss


def test_feature_width_mismatch_rejected():
    train, val = _toy_sets()
    wrong = NetworkSpec(3, (dense(4, "sigmoid"), dense(1, "sigmoid")))
    net = init_network(wrong, SplitMix64(0))
    with pytest.raises(ShapeError):
        fit(net, train, val, TrainConfig(), SplitMix64(0))


def test_validation_width_mismatch_rejected_before_training():
    train, _ = _toy_sets()
    val = Dataset(x=np.zeros((4, 3)), y=np.array([0.0, 1.0, 0.0, 1.0]),
                  feature_names=("a", "b", "c"))
    net = init_network(SPEC, SplitMix64(0))
    with pytest.raises(ShapeError, match="validation features have width 3, network expects 4"):
        fit(net, train, val, TrainConfig(), SplitMix64(0))
    assert net.version == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_validation_loss_that_is_not_finite_is_numerical_error():
    # One batch per epoch: its loss is taken before the update, which at
    # this rate sends the L2 penalty of the updated weights to infinity.
    train, val = _toy_sets()
    rng = SplitMix64(0)
    net = init_network(SPEC, rng)
    cfg = TrainConfig(learning_rate=1e300, epochs=2, batch_size=train.n_rows)
    with pytest.raises(NumericalError, match="validation loss is inf after epoch 1"):
        fit(net, train, val, cfg, rng)


def test_small_overfit_reaches_high_accuracy():
    # miniature of the wide-net capacity run: memorize 16 separable rows
    train, _ = _toy_sets(n_train=16, seed=8)
    spec = NetworkSpec(4, (dense(32, "sigmoid", 0.0), dense(1, "sigmoid")))
    rng = SplitMix64(12)
    net = init_network(spec, rng)
    cfg = TrainConfig(learning_rate=1e-2, epochs=80, batch_size=16, l2_lambda=0.0)
    _, history = fit(net, train, train, cfg, rng)
    assert max(r.accuracy for r in history) >= 0.99
