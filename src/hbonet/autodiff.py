"""Reverse-mode differentiation over the op set, with a finite-difference
verifier as the correctness oracle.

A :class:`Tape` records operations in topological order; each node stores its
forward value (ndarray) and a vector-Jacobian closure. Forward values are
computed by the same ndarray kernels as the eager ops, so taped and eager
execution agree bitwise. With ``grad_enabled=False`` the tape computes values
without recording, which is the inference path. A :class:`ShapeTape` runs the
same wiring on shapes alone; the network's ledger and shape trace come from
that one symbolic run.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ops as _ops
from .ops import BatchNormParams
from .tensor import DimensionError

__all__ = ["Node", "Tape", "ShapeTape", "backward", "finite_diff_check"]


class Node:
    """One value in the recorded graph."""

    __slots__ = ("value", "parents", "vjp", "grad", "name", "tape")

    def __init__(self, value, parents, vjp, name, tape):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        self.name = name
        self.tape = tape

    @property
    def shape(self):
        return np.shape(self.value)

    def __repr__(self):
        return f"Node({self.name}, shape={self.shape})"


class Tape:
    """Operation recorder. One tape per training step; not thread-shared."""

    def __init__(self, grad_enabled: bool = True):
        self.grad_enabled = grad_enabled
        self.nodes: list[Node] = []

    def leaf(self, value: np.ndarray, name: str = "leaf") -> Node:
        node = Node(np.asarray(value, dtype=np.float64), (), None, name, self)
        if self.grad_enabled:
            self.nodes.append(node)
        return node

    def _check_out(self, out) -> None:
        if out is not None and self.grad_enabled:
            raise ValueError("an op writes into _out only with grad disabled; "
                             "a recorded node keeps its input for the VJP")

    def _record(self, value, parents, vjp, name) -> Node:
        if not self.grad_enabled:
            return Node(value, (), None, name, self)
        node = Node(value, tuple(parents), vjp, name, self)
        self.nodes.append(node)
        return node

    # -- taped operations ---------------------------------------------------

    def conv2d(self, x: Node, w: Node, stride: int = 1, pad: int = 0) -> Node:
        """Dense (ungrouped) convolution; used by the network stem."""
        xv, wv = x.value, w.value
        out = _ops._conv2d_nd(xv, wv, stride, pad)
        kh, kw = wv.shape[2], wv.shape[3]

        def vjp(g):
            xp = _ops._pad_nd(xv, pad)
            win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
            dw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
            dxp = np.zeros_like(xp)
            # scatter g through every kernel tap
            gw = np.tensordot(g, wv, axes=([1], [0]))  # (n, oh, ow, c, kh, kw)
            oh, ow = g.shape[2], g.shape[3]
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                        gw[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            h, wd = xv.shape[2], xv.shape[3]
            dx = dxp[:, :, pad:pad + h, pad:pad + wd]
            return dx, dw

        return self._record(out, (x, w), vjp, "conv2d")

    def depthwise_conv(self, x: Node, w: Node, stride: int = 1) -> Node:
        """Depthwise conv; ``w`` holds (c, kh, kw) weights, pad (k-1)/2."""
        xv, wv = x.value, w.value
        k = wv.shape[1]
        pad = (k - 1) // 2
        out = _ops._depthwise_nd(xv, wv, stride, pad)

        def vjp(g):
            # dw keeps the NCHW per-tap reduction, whose summation order is
            # the reference; dx is scattered tap by tap, i-major, into a
            # padded (c, h, w, n) buffer, as the forward gathers.
            h, wd = xv.shape[2], xv.shape[3]
            oh, ow = g.shape[2], g.shape[3]
            taps = _ops._depthwise_taps(k, k, stride, pad, h, wd, oh, ow)
            n = xv.shape[0]
            xp = _ops._pad_nd(xv, pad)
            dw = np.zeros_like(wv)
            prod = np.empty_like(g)
            product = _ops._sweep(ow)
            for i, j in taps:
                sl = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
                with product:
                    np.multiply(g, sl, out=prod)
                dw[:, i, j] = prod.sum(axis=(0, 2, 3))
            del xp, prod
            gt = np.ascontiguousarray(g.transpose(1, 2, 3, 0))
            tmp = np.empty_like(gt)
            dxt = np.zeros((xv.shape[1], h + 2 * pad, wd + 2 * pad, n))
            with _ops._sweep(ow * n if stride == 1 else n):
                for i, j in taps:
                    np.multiply(wv[:, i, j, None, None, None], gt, out=tmp)
                    dxt[:, i:i + stride * oh:stride,
                        j:j + stride * ow:stride] += tmp
            del gt, tmp
            dx = dxt[:, pad:pad + h, pad:pad + wd].transpose(3, 0, 1, 2)
            return np.ascontiguousarray(dx), dw

        return self._record(out, (x, w), vjp, "depthwise_conv")

    def pointwise_conv(self, x: Node, w: Node) -> Node:
        """1x1 conv; ``w`` holds a (c_out, c_in) matrix."""
        xv, wv = x.value, w.value
        out = _ops._pointwise_nd(xv, wv)

        def vjp(g):
            dw = np.tensordot(g, xv, axes=([0, 2, 3], [0, 2, 3]))
            dx = np.tensordot(wv.T, g, axes=([1], [1])).transpose(1, 0, 2, 3)
            return np.ascontiguousarray(dx), dw

        return self._record(out, (x, w), vjp, "pointwise_conv")

    def relu6(self, x: Node, *, _out: np.ndarray | None = None) -> Node:
        """min(max(x, 0), 6). ``_out`` (grad disabled only) receives the
        value, so a caller that owns ``x.value`` can pass it and skip an
        allocation."""
        self._check_out(_out)
        xv = x.value
        out = _ops._relu6_nd(xv, out=_out)
        # subgradient 0 at both kinks; only a recorded node needs the mask
        mask = ((xv > 0.0) & (xv < 6.0)) if self.grad_enabled else None

        def vjp(g):
            return (g * mask,)

        return self._record(out, (x,), vjp, "relu6")

    def batchnorm(self, x: Node, gamma: Node, beta: Node, p: BatchNormParams,
                  training: bool = False, *,
                  _out: np.ndarray | None = None) -> Node:
        """Per-channel batch norm; ``_out`` as in :meth:`relu6`."""
        self._check_out(_out)
        xv, gv, bv = x.value, gamma.value, beta.value
        if p.channels != xv.shape[1]:
            raise DimensionError(
                f"batchnorm has {p.channels} channels, input {xv.shape[1]}"
            )
        if training:
            mean = xv.mean(axis=(0, 2, 3))
            var = xv.var(axis=(0, 2, 3))
            p.running_mean[...] = (1 - p.momentum) * p.running_mean + p.momentum * mean
            p.running_var[...] = (1 - p.momentum) * p.running_var + p.momentum * var
            norm = _bn_normalize(xv, mean, var, p.eps)
            with _ops._sweep(xv.shape[2] * xv.shape[3]):
                out = np.multiply(gv[None, :, None, None], norm[1], out=_out)
                out += bv[None, :, None, None]
        else:
            # the eager op's folded kernel, so eager and taped agree bitwise;
            # the VJP normalizes by the same statistics, only when it runs,
            # so only a recorded node keeps a copy of them
            stats = (p.running_mean, p.running_var)
            if self.grad_enabled:
                stats = tuple(a.copy() for a in stats)
            out = _ops._bn_affine_nd(xv, *stats, gv, bv, p.eps, out=_out)

        def vjp(g):
            inv, xhat = norm if training else _bn_normalize(xv, *stats, p.eps)
            dgamma = (g * xhat).sum(axis=(0, 2, 3))
            dbeta = g.sum(axis=(0, 2, 3))
            sweep = _ops._sweep(g.shape[2] * g.shape[3])
            if training:
                with sweep:
                    gx = g * gv[None, :, None, None]
                    gx_xhat = gx * xhat
                mean_gx = gx.mean(axis=(0, 2, 3))
                mean_gx_xhat = gx_xhat.mean(axis=(0, 2, 3))
                del gx_xhat
                with sweep:
                    dx = inv[None, :, None, None] * (
                        gx
                        - mean_gx[None, :, None, None]
                        - xhat * mean_gx_xhat[None, :, None, None]
                    )
            else:
                with sweep:
                    dx = g * (gv * inv)[None, :, None, None]
            return dx, dgamma, dbeta

        return self._record(out, (x, gamma, beta), vjp, "batchnorm")

    def bilinear_upsample(self, x: Node, factor: int) -> Node:
        xv = x.value
        out = _ops._upsample_nd(xv, factor)
        h, w = xv.shape[2], xv.shape[3]

        def vjp(g):
            return (_ops._upsample_transpose_nd(g, factor, h, w),)

        return self._record(out, (x,), vjp, "bilinear_upsample")

    def avgpool(self, x: Node, kernel: int, stride: int) -> Node:
        xv = x.value
        out = _ops._avgpool_nd(xv, kernel, stride)

        def vjp(g):
            dx = np.zeros_like(xv)
            gk = g / (kernel * kernel)
            oh, ow = g.shape[2], g.shape[3]
            for i in range(kernel):
                for j in range(kernel):
                    dx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gk
            return (dx,)

        return self._record(out, (x,), vjp, "avgpool")

    def concat_channels(self, a: Node, b: Node) -> Node:
        ca = a.value.shape[1]
        out = np.concatenate([a.value, b.value], axis=1)

        def vjp(g):
            return g[:, :ca], g[:, ca:]

        return self._record(out, (a, b), vjp, "concat_channels")

    def take_first_channels(self, x: Node, m: int) -> Node:
        xv = x.value
        out = xv[:, :m].copy()

        def vjp(g):
            dx = np.zeros_like(xv)
            dx[:, :m] = g
            return (dx,)

        return self._record(out, (x,), vjp, "take_first_channels")

    def eltadd(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise DimensionError(
                f"eltadd mismatch: {a.value.shape} vs {b.value.shape}"
            )
        out = a.value + b.value

        def vjp(g):
            return g, g

        return self._record(out, (a, b), vjp, "eltadd")

    def flatten_spatial(self, x: Node) -> Node:
        """(n, c, 1, 1) -> (n, c) for the classifier head."""
        xv = x.value
        n, c = xv.shape[0], xv.shape[1]
        out = xv.reshape(n, c).copy()

        def vjp(g):
            return (g.reshape(xv.shape),)

        return self._record(out, (x,), vjp, "flatten_spatial")

    def add_bias(self, x: Node, bias: Node) -> Node:
        """Row-vector bias over (n, k) logits."""
        out = x.value + bias.value[None, :]

        def vjp(g):
            return g, g.sum(axis=0)

        return self._record(out, (x, bias), vjp, "add_bias")

    def sum_all(self, x: Node) -> Node:
        xv = x.value
        out = np.float64(xv.sum())

        def vjp(g):
            return (np.full_like(xv, float(g)),)

        return self._record(out, (x,), vjp, "sum_all")

    def weighted_sum(self, x: Node, weights: np.ndarray) -> Node:
        """sum(x * weights) for a fixed weight array; gradcheck helper."""
        xv = x.value
        out = np.float64((xv * weights).sum())

        def vjp(g):
            return (float(g) * weights,)

        return self._record(out, (x,), vjp, "weighted_sum")

    def label_smooth_ce(self, logits: Node, labels: np.ndarray, eps: float) -> Node:
        """Mean cross-entropy against (1-eps)*onehot + eps/K targets."""
        if not 0.0 <= eps < 1.0:
            raise ValueError(f"eps must be in [0, 1), got {eps}")
        z = logits.value
        n, k = z.shape
        labels = np.asarray(labels)
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError(f"label out of range for {k} classes")
        zmax = z.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax
        logp = z - logsumexp
        target = np.full((n, k), eps / k)
        target[np.arange(n), labels] += 1.0 - eps
        out = np.float64(-(target * logp).sum() / n)
        softmax = np.exp(logp)

        def vjp(g):
            return (float(g) * (softmax - target) / n,)

        return self._record(out, (logits,), vjp, "label_smooth_ce")


class Shape:
    """A :class:`ShapeTape` node value: the shape an array would have."""

    __slots__ = ("shape",)

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape


class ShapeTape(Tape):
    """Runs forward wiring on shapes instead of arrays, grad disabled: a
    leaf keeps the value it is given (an array or a :class:`Shape`), and
    every op returns a :class:`Shape` without computing anything.

    Each conv opens a row ``[name, MACs per sample, out (c, h, w), in (h, w)]``
    in ``rows``, named after its weight leaf without ``.weight``; each leaf
    adds its size to ``params[prefix]``, so weights, batch-norm affines and
    biases all count towards the row of their name. Only the ops a network
    forward runs are overridden.
    """

    def __init__(self):
        super().__init__(grad_enabled=False)
        self.rows: list[list] = []
        self.params: dict[str, int] = {}

    def _node(self, shape, name) -> Node:
        return Node(Shape(shape), (), None, name, self)

    def leaf(self, value, name: str = "leaf") -> Node:
        prefix = name.rpartition(".")[0]
        self.params[prefix] = self.params.get(prefix, 0) + math.prod(value.shape)
        return Node(value, (), None, name, self)

    def _conv(self, x, w, c, k, stride, pad, name) -> Node:
        n, _, h, wd = x.value.shape
        oh, ow = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
        macs = c * oh * ow * math.prod(w.value.shape[1:])
        self.rows.append([w.name.rpartition(".")[0], macs, (c, oh, ow), (h, wd)])
        return self._node((n, c, oh, ow), name)

    def conv2d(self, x, w, stride=1, pad=0):
        co, _, k, _ = w.value.shape
        return self._conv(x, w, co, k, stride, pad, "conv2d")

    def depthwise_conv(self, x, w, stride=1):
        c, k, _ = w.value.shape
        return self._conv(x, w, c, k, stride, (k - 1) // 2, "depthwise_conv")

    def pointwise_conv(self, x, w):
        return self._conv(x, w, w.value.shape[0], 1, 1, 0, "pointwise_conv")

    def _same(self, x, *args, **kwargs):
        return x

    # the builder's wiring adds only equal shapes (checked by the real tape)
    relu6 = batchnorm = add_bias = eltadd = _same

    def bilinear_upsample(self, x, factor):
        n, c, h, w = x.value.shape
        return self._node((n, c, h * factor, w * factor), "bilinear_upsample")

    def avgpool(self, x, kernel, stride):
        n, c, h, w = x.value.shape
        return self._node((n, c, (h - kernel) // stride + 1,
                           (w - kernel) // stride + 1), "avgpool")

    def concat_channels(self, a, b):
        n, c, h, w = a.value.shape
        return self._node((n, c + b.value.shape[1], h, w), "concat_channels")

    def take_first_channels(self, x, m):
        n, c, h, w = x.value.shape
        return self._node((n, min(m, c), h, w), "take_first_channels")

    def flatten_spatial(self, x):
        return self._node(x.value.shape[:2], "flatten_spatial")


def _bn_normalize(xv, mean, var, eps):
    """(1/sqrt(var + eps), xhat) of a batch-norm input, per channel."""
    inv = 1.0 / np.sqrt(var + eps)
    with _ops._sweep(xv.shape[2] * xv.shape[3]):
        xhat = xv - mean[None, :, None, None]
        xhat *= inv[None, :, None, None]
    return inv, xhat


def backward(tape: Tape, loss_node: Node) -> dict[Node, np.ndarray]:
    """Chain-rule sweep from a scalar loss; returns gradients for all leaves.

    Accumulation follows reverse creation order, so it is deterministic.
    Gradients are also left on ``node.grad`` for every reached node.
    """
    if np.shape(loss_node.value) != ():
        raise ValueError(
            f"loss must be scalar, got shape {np.shape(loss_node.value)}"
        )
    for node in tape.nodes:
        node.grad = None
    loss_node.grad = np.float64(1.0)
    for node in reversed(tape.nodes):
        if node.grad is None or node.vjp is None:
            continue
        parent_grads = node.vjp(node.grad)
        for parent, pg in zip(node.parents, parent_grads):
            if parent.grad is None:
                parent.grad = np.asarray(pg, dtype=np.float64)
            else:
                parent.grad = parent.grad + pg
    return {n: n.grad for n in tape.nodes
            if n.vjp is None and n.parents == () and n.grad is not None}


def finite_diff_check(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    step: float = 1e-6,
    analytic: np.ndarray | None = None,
    max_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between an analytic gradient and central differences.

    ``f`` maps an ndarray to a scalar. If ``analytic`` is not given it is
    obtained by running ``f`` over a tape (``f`` must then accept a Node).
    On tensors larger than ``max_coords`` a seeded sample of coordinates is
    checked. Relative error is |a - n| / max(1, |a|, |n|).
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    x = np.asarray(x, dtype=np.float64)
    if analytic is None:
        tape = Tape()
        xn = tape.leaf(x, "x")
        loss = f(xn)
        backward(tape, loss)
        analytic = xn.grad
        func = lambda arr: float(f(Tape(grad_enabled=False).leaf(arr)).value)
    else:
        func = lambda arr: float(f(arr))
    flat = x.ravel()
    total = flat.size
    if total <= max_coords:
        coords = np.arange(total)
    else:
        coords = np.random.default_rng(seed).choice(total, size=max_coords,
                                                    replace=False)
    aflat = np.asarray(analytic).ravel()
    worst = 0.0
    for idx in coords:
        orig = flat[idx]
        pert = x.copy().ravel()
        pert[idx] = orig + step
        fp = func(pert.reshape(x.shape))
        pert[idx] = orig - step
        fm = func(pert.reshape(x.shape))
        numeric = (fp - fm) / (2.0 * step)
        denom = max(1.0, abs(numeric), abs(aflat[idx]))
        worst = max(worst, abs(aflat[idx] - numeric) / denom)
    return worst
