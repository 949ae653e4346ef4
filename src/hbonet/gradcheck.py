"""Finite-difference verification of every differentiable operation and of
the full blocks. Analytic gradients come from the tape's VJPs; numeric
evaluation runs the same forward kernels on a grad-disabled ``Tape`` and
never calls a VJP, so the two routes stay independent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, backward, eager, finite_diff_check
from .blocks import (
    BlockConfig,
    BlockKind,
    LayerParams,
    block_forward_node,
    init_block_params,
)

__all__ = ["CheckResult", "run_gradient_checks", "block_weight_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    rel_error: float

    def ok(self, threshold: float = 1e-5) -> bool:
        return self.rel_error < threshold


def _op_checks(step: float, rng: np.random.Generator) -> list[CheckResult]:
    results = []

    def add(name, op_builder, x):
        """Check the weighted sum of an op applied to the node input."""
        weights = rng.normal(size=eager(op_builder, x).shape)
        err = finite_diff_check(
            lambda t, xn: t.weighted_sum(op_builder(t, xn), weights), x, step)
        results.append(CheckResult(name, err))

    x4 = rng.normal(size=(2, 3, 6, 6))
    wd = rng.normal(size=(4, 3, 3, 3))

    add("conv2d/x", lambda t, xn: t.conv2d(xn, t.leaf(wd), stride=2, pad=1), x4)
    add("conv2d/w",
        lambda t, wn: t.conv2d(t.leaf(x4), wn, stride=2, pad=1), wd)

    wdep = rng.normal(size=(3, 3, 3))
    add("depthwise_conv/x",
        lambda t, xn: t.depthwise_conv(xn, t.leaf(wdep), stride=1), x4)
    add("depthwise_conv_s2/x",
        lambda t, xn: t.depthwise_conv(xn, t.leaf(wdep), stride=2), x4)
    add("depthwise_conv/w",
        lambda t, wn: t.depthwise_conv(t.leaf(x4), wn, stride=2), wdep)

    wpw = rng.normal(size=(5, 3))
    add("pointwise_conv/x", lambda t, xn: t.pointwise_conv(xn, t.leaf(wpw)), x4)
    add("pointwise_conv/w",
        lambda t, wn: t.pointwise_conv(t.leaf(x4), wn), wpw)

    # keep relu6 inputs clear of the kinks at 0 and 6 by more than the step
    xr = rng.uniform(-3, 9, size=(2, 3, 5, 5))
    xr[np.abs(xr) < 1e-3] += 0.01
    xr[np.abs(xr - 6) < 1e-3] += 0.01
    add("relu6/x", lambda t, xn: t.relu6(xn), xr)

    from .ops import BatchNormParams
    gamma = rng.normal(1.0, 0.2, size=3)
    beta = rng.normal(size=3)
    xbn = rng.normal(size=(4, 3, 5, 5))

    def bn_train(t, xn):
        p = BatchNormParams(gamma.copy(), beta.copy())
        return t.batchnorm(xn, t.leaf(gamma), t.leaf(beta), p, training=True)

    def bn_eval(t, xn):
        p = BatchNormParams(gamma.copy(), beta.copy(),
                            running_mean=np.array([0.1, -0.2, 0.3]),
                            running_var=np.array([1.1, 0.9, 1.3]))
        return t.batchnorm(xn, t.leaf(gamma), t.leaf(beta), p, training=False)

    add("batchnorm_train/x", bn_train, xbn)
    add("batchnorm_eval/x", bn_eval, xbn)

    def bn_gamma(t, gn):
        p = BatchNormParams(gamma.copy(), beta.copy())
        return t.batchnorm(t.leaf(xbn), gn, t.leaf(beta), p, training=True)

    add("batchnorm_train/gamma", bn_gamma, gamma)

    add("bilinear_upsample/x", lambda t, xn: t.bilinear_upsample(xn, 2), x4)
    add("avgpool/x", lambda t, xn: t.avgpool(xn, 2, 2), x4)
    add("eltadd/x", lambda t, xn: t.eltadd(xn, t.leaf(x4)), x4)
    add("concat_channels/x",
        lambda t, xn: t.concat_channels(xn, t.leaf(x4)), x4)
    add("take_first_channels/x",
        lambda t, xn: t.take_first_channels(xn, 2), x4)

    zl = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)

    err = finite_diff_check(lambda t, zn: t.label_smooth_ce(zn, labels, 0.1),
                            zl, step)
    results.append(CheckResult("label_smooth_ce/logits", err))
    return results


def block_weight_checks(cfg: BlockConfig, x: np.ndarray, step: float,
                        rng: np.random.Generator,
                        label: str) -> list[CheckResult]:
    """Finite differences for every weight tensor of one block, plus input.

    Batchnorm affines and running stats are randomized: with identity
    normalization and zero beta, clipped activations land exactly on the
    relu6 kink and central differences straddle it.
    """
    p = init_block_params(cfg, rng)
    for lp in p.values():
        if lp.bn is not None:
            c = lp.bn.channels
            lp.bn.gamma = rng.normal(1.0, 0.1, size=c)
            lp.bn.beta = rng.normal(0.0, 0.2, size=c)
            lp.bn.running_mean = rng.normal(0.0, 0.1, size=c)
            lp.bn.running_var = rng.uniform(0.8, 1.2, size=c)

    def run_eager(px: dict[str, LayerParams], arr: np.ndarray) -> np.ndarray:
        return eager(lambda tape, xn: block_forward_node(xn, cfg, px, tape),
                     arr).data

    weights = rng.normal(size=run_eager(p, x).shape)

    tape = Tape()
    xn = tape.leaf(x, "input")
    out = block_forward_node(xn, cfg, p, tape, training=False)
    loss = tape.weighted_sum(out, weights)
    grads = {n.name: g for n, g in backward(tape, loss).items()}

    results = []
    err = finite_diff_check(lambda a: float((run_eager(p, a) * weights).sum()),
                            x, step, analytic=grads["input"])
    results.append(CheckResult(f"{label}/input", err))

    for lname, lp in p.items():
        for suffix, owner, attr in lp.slots():
            pname = f"{lname}.{suffix}"
            original = getattr(owner, attr).copy()

            def numeric(a, owner=owner, attr=attr, original=original):
                setattr(owner, attr, a)
                try:
                    return float((run_eager(p, x) * weights).sum())
                finally:
                    setattr(owner, attr, original)

            err = finite_diff_check(numeric, original, step,
                                    analytic=grads[pname])
            results.append(CheckResult(f"{label}/{pname}", err))
    return results


def run_gradient_checks(step: float = 1e-6, seed: int = 0
                        ) -> list[CheckResult]:
    """The full verification sweep: every op, both HBO strides, the inverted
    residual, on small randomized shapes."""
    rng = np.random.default_rng(seed)
    results = _op_checks(step, rng)

    hbo_s1 = BlockConfig(4, 4, 2, 1, BlockKind.HARMONIOUS_BOTTLENECK)
    hbo_s2 = BlockConfig(4, 6, 2, 2, BlockKind.HARMONIOUS_BOTTLENECK)
    inv = BlockConfig(4, 4, 2, 1, BlockKind.INVERTED_RESIDUAL)
    x = rng.normal(size=(1, 4, 8, 8))
    results += block_weight_checks(hbo_s1, x, step, rng, "hbo_stride1")
    results += block_weight_checks(hbo_s2, x, step, rng, "hbo_stride2")
    results += block_weight_checks(inv, x, step, rng, "inverted_residual")
    return results
