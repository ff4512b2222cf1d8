"""Check analytic gradients against central finite differences.

Runs the full objective (cross-entropy plus L2 penalty) through a reduced
sigmoid stack and a relu head with a frozen dropout mask, perturbs sampled
weights by +/- h, and compares slopes.
"""

import numpy as np

from deeplda.network import (
    NetworkSpec,
    bce_loss,
    backward,
    dense,
    dropout,
    forward,
    init_network,
    l2_penalty,
)
from deeplda.rng import SplitMix64

H = 1e-6

STACK = NetworkSpec(41, (dense(32, "sigmoid", 0.01), dense(32, "sigmoid", 0.01),
                         dense(32, "sigmoid", 0.01), dense(1, "sigmoid")))
HEAD = NetworkSpec(1, (dense(100, "relu"), dropout(0.5), dense(1, "sigmoid")))


def objective(net, x, y, masks):
    out, _ = forward(net, x, mode="train" if masks else "infer",
                     dropout_masks=masks)
    loss, _ = bce_loss(out, y)
    return loss + l2_penalty(net)


def worst_error(spec, seed, with_masks):
    rng = SplitMix64(seed)
    net = init_network(spec, rng)
    x = SplitMix64(seed + 100).uniform_matrix(8, spec.input_dim, -1.5, 1.5)
    y = (SplitMix64(seed + 200).uniforms(8) > 0.5).astype(float).reshape(-1, 1)

    masks = None
    if with_masks:
        _, cache = forward(net, x, mode="train", rng=SplitMix64(seed + 300))
        masks = cache.dropout_masks()
    out, cache = forward(net, x, mode="train" if masks else "infer",
                         dropout_masks=masks)
    _, lgrad = bce_loss(out, y)
    grads = backward(net, cache, lgrad)

    worst = 0.0
    for params, gs in ((net.weights, grads.weights), (net.biases, grads.biases)):
        for k, p in enumerate(params):
            flat, gflat = p.reshape(-1), gs[k].reshape(-1)
            for i in np.linspace(0, flat.size - 1, min(flat.size, 12)).astype(int):
                orig = flat[i]
                flat[i] = orig + H
                fp = objective(net, x, y, masks)
                flat[i] = orig - H
                fm = objective(net, x, y, masks)
                flat[i] = orig
                numeric = (fp - fm) / (2.0 * H)
                rel = abs(numeric - gflat[i]) / max(abs(numeric),
                                                    abs(gflat[i]), 1e-8)
                worst = max(worst, rel)
    return worst


def main() -> None:
    for name, spec, with_masks in (("sigmoid stack + L2", STACK, False),
                                   ("relu head + frozen dropout", HEAD, True)):
        for seed in (1, 2, 3):
            err = worst_error(spec, seed, with_masks)
            status = "ok" if err < 1e-4 else "SUSPECT"
            print(f"{name:28s} seed {seed}: worst relative error "
                  f"{err:.2e}  [{status}]")


if __name__ == "__main__":
    main()
