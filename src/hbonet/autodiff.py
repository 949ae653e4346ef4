"""Reverse-mode differentiation over the op set, with a finite-difference
verifier as the correctness oracle.

The :class:`Tape` methods are the one description of each op. A method
checks its operands with the op's shape rule, which raises the op's named
error; computes the forward value with an ndarray kernel from
:mod:`hbonet.ops`; and, with grad enabled, records a node holding that value
and its vector-Jacobian closure, in topological order. With
``grad_enabled=False`` the tape computes values without recording. That is
the inference path, and the public Tensor ops in :mod:`hbonet.ops` and the
block functions are their tape ops run this way (:func:`eager`), so eager
and taped execution are one computation. A :class:`ShapeTape` runs the same
wiring on shapes alone, taking each op's output shape from the same rule;
the network's ledger and shape trace come from that one symbolic run.
"""
from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable

import numpy as np

from . import ops as _ops
from .tensor import DimensionError, Tensor, UnsupportedKernelError

__all__ = ["Node", "Tape", "ShapeTape", "TapeConsumedError", "backward",
           "eager", "finite_diff_check"]


class TapeConsumedError(RuntimeError):
    """``backward`` over a tape whose interior VJPs an earlier ``backward``
    already freed, or a read of a node value the tape released."""


class Node:
    """One value in the recorded graph. ``parents`` is ``()`` for a leaf and
    ``None`` for an op's output on a grad-disabled tape, which links no node
    to another. An interior node holds its value only while the forward may
    still read it: :meth:`Tape.release` drops it once no later op reads it,
    on either kind of tape, and an op writing into it through ``_out``
    takes the array over. VJPs keep what their closures captured, and
    ``backward`` keeps values."""

    __slots__ = ("value", "parents", "vjp", "grad", "name")

    def __init__(self, value, parents, vjp, name):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.name}, shape={self.shape})"


class _Released(Node):
    """A released node: reading its value, or recording an op on it, raises
    TapeConsumedError. Its own class keeps a live node's reads plain slots."""

    __slots__ = ()

    @property
    def value(self):
        raise TapeConsumedError(f"the {self.name} node's value was released")

    def __repr__(self):
        return f"Node({self.name}, released)"


# ---------------------------------------------------------------------------
# shape rules, keyed below by Tape method: a rule takes the method's arguments
# with each node replaced by its shape, raises the op's named error for a bad
# operand and returns the output shape. The Tape method calls it as its input
# check; ShapeTape returns its result.
# ---------------------------------------------------------------------------

# a stride, pad, factor, kernel or channel count must be one of these: a
# float one passes the range checks and fails deep in a numpy kernel
_INT = (int, np.integer)


def _conv2d_shape(x, w, stride=1, pad=0):
    """Dense weights (o, c, kh, kw)."""
    if len(w) != 4:
        raise UnsupportedKernelError(f"conv2d kernel must be (o, c, kh, kw), got {w}")
    if not (isinstance(stride, _INT) and isinstance(pad, _INT)):
        raise ValueError(f"stride and pad must be integers, got {stride!r}, {pad!r}")
    if stride < 1 or pad < 0:
        raise ValueError(f"need stride >= 1 and pad >= 0, got stride {stride}, pad {pad}")
    (n, c, h, wd), (kh, kw) = x, w[2:]
    if c != w[1]:
        raise DimensionError(f"input has {c} channels, kernel expects {w[1]}")
    if kh > h + 2 * pad or kw > wd + 2 * pad:
        raise DimensionError(f"kernel {kh}x{kw} does not fit input {h}x{wd} with pad {pad}")
    return n, w[0], (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1


def _depthwise_shape(x, w, stride=1, pad=None):
    """(c, kh, kw) weights; without ``pad``, kh == kw odd, stride 1 or 2
    and pad (k-1)/2."""
    if len(w) != 3 or (pad is None and (w[1] != w[2] or w[1] % 2 == 0)):
        raise UnsupportedKernelError(f"depthwise kernel must be (c, kh, kw), and (c, k, k) "
                                     f"with k odd unless a pad is given, got {w}")
    if pad is None:
        if stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {stride}")
        pad = (w[1] - 1) // 2
    return _conv2d_shape(x, (w[0], *w), stride, pad)


def _pointwise_shape(x, w):
    """(o, c) weights."""
    if len(w) != 2:
        raise UnsupportedKernelError(f"pointwise_conv kernel must be (o, c), got {w}")
    return _conv2d_shape(x, (*w, 1, 1))


def _batchnorm_shape(x, gamma, beta, p, training=False):
    if not (p.channels,) == gamma == beta == x[1:2]:
        raise DimensionError(f"batchnorm has {p.channels} channels (gamma {gamma}, "
                             f"beta {beta}), input {x[1]}")
    return x


def _upsample_shape(x, factor):
    if not isinstance(factor, _INT):
        raise ValueError(f"factor must be an integer, got {factor!r}")
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    n, c, h, w = x
    return n, c, h * factor, w * factor


def _avgpool_shape(x, kernel, stride):
    if not (isinstance(kernel, _INT) and isinstance(stride, _INT)):
        raise ValueError(f"kernel and stride must be integers, got {kernel!r}, {stride!r}")
    if kernel < 1 or stride < 1:
        raise ValueError("kernel and stride must be >= 1")
    n, c, h, w = x
    if kernel > h or kernel > w:
        raise DimensionError(f"pool kernel {kernel} exceeds input {h}x{w}")
    return n, c, (h - kernel) // stride + 1, (w - kernel) // stride + 1


def _concat_shape(a, b):
    n, c, h, w = a
    if (n, h, w) != (b[0], b[2], b[3]):
        raise DimensionError(f"concat mismatch: {a} vs {b}")
    return n, c + b[1], h, w


def _take_first_shape(x, m):
    if not isinstance(m, _INT):
        raise ValueError(f"channel count must be an integer, got {m!r}")
    n, c, h, w = x
    if not 1 <= m <= c:
        raise DimensionError(f"cannot take {m} of {c} channels")
    return n, m, h, w


def _eltadd_shape(a, b):
    if a != b:
        raise DimensionError(f"eltadd mismatch: {a} vs {b}")
    return a


def _add_bias_shape(x, bias):
    if len(x) != 2 or bias != x[1:]:
        raise DimensionError(f"bias {bias} does not fit logits {x}")
    return x


def _flatten_shape(x):
    if x[2:] != (1, 1):
        raise DimensionError(f"flatten_spatial needs a 1x1 map, as a global pool "
                             f"gives, got {x}")
    return x[:2]


_SHAPE_RULES = {
    "conv2d": _conv2d_shape,
    "depthwise_conv": _depthwise_shape,
    "pointwise_conv": _pointwise_shape,
    "relu6": lambda x: x,
    "batchnorm": _batchnorm_shape,
    "bilinear_upsample": _upsample_shape,
    "avgpool": _avgpool_shape,
    "concat_channels": _concat_shape,
    "take_first_channels": _take_first_shape,
    "eltadd": _eltadd_shape,
    "flatten_spatial": _flatten_shape,
    "add_bias": _add_bias_shape,
}


def _dense_view(wv: np.ndarray) -> np.ndarray:
    """Dense (o, c, kh, kw) weights as they are, a pointwise (o, c) matrix
    as its (o, c, 1, 1) view."""
    return wv if wv.ndim == 4 else wv[:, :, None, None]


# Elements of the depthwise VJP's product buffer (512 KB, so it stays in a
# typical L2 cache): the taps whose g * x products fit in it are summed into
# dw together. On the toy network's layers, 2**15 and 2**17 timed slower.
_DW_CHUNK = 1 << 16


class Tape:
    """Operation recorder. One tape per training step; not thread-shared."""

    def __init__(self, grad_enabled: bool = True):
        self.grad_enabled = grad_enabled
        self.nodes: list[Node] = []

    def leaf(self, value: np.ndarray, name: str = "leaf") -> Node:
        node = Node(np.asarray(value, dtype=np.float64), (), None, name)
        if self.grad_enabled:
            self.nodes.append(node)
        return node

    def _check_out(self, x: Node, out) -> None:
        """On either kind of tape ``_out`` must be the value of the op's own
        interior input ``x``, which no op that takes ``_out`` reads in its
        VJP: the caller vouches that no other op reads that array either,
        and the new node takes it over from ``x`` (:class:`Node`), so a
        later read of ``x`` raises rather than sees the overwritten array.
        The block forwards rely on this for the conv-BN-ReLU6 layers and the
        residual :meth:`eltadd`, which writes into the ``reduce_pw`` layer's
        output."""
        if out is not None and (x.parents == () or out is not x.value):
            raise ValueError("_out must be the value of the op's own "
                             "interior input node")

    def _record(self, value, parents, vjp, name, takes_x=False) -> Node:
        if self.grad_enabled:
            node = Node(value, tuple(parents), vjp, name)
            self.nodes.append(node)
        else:
            node = Node(value, None, None, name)
        return self.release(node, parents[0]) if takes_x else node

    def release(self, out: Node, *spent: Node) -> Node:
        """``out``, after dropping the value of each interior ``spent`` node,
        which no later forward op reads: the wiring wraps the op that reads
        them last. Both kinds of tape drop them, so an inference forward
        frees each activation at its last reader, as a recording forward
        does. Leaves, :class:`ShapeTape` nodes and ``out`` itself (a
        ShapeTape op may return its operand) keep their values."""
        for node in spent:
            if node.parents != () and node is not out and not isinstance(node, _Released):
                node.value = None
                node.__class__ = _Released
        return out

    # -- taped operations ---------------------------------------------------

    def conv2d(self, x: Node, w: Node, stride: int = 1, pad: int = 0) -> Node:
        """Dense convolution with zero padding; ``w`` holds (o, c, kh, kw)
        weights (the stem), as one GEMM over the input's columns
        (:meth:`_gemm_conv`). Depthwise weights go to :meth:`depthwise_conv`."""
        _conv2d_shape(x.shape, w.shape, stride, pad)
        return self._gemm_conv(x, w, stride, pad, "conv2d")

    def depthwise_conv(self, x: Node, w: Node, stride: int = 1,
                       pad: int | None = None) -> Node:
        """Depthwise convolution with zero padding; ``w`` holds (c, kh, kw)
        weights. Without ``pad`` the kernel is k x k, k odd, at stride 1 or 2
        with pad (k-1)/2, as the blocks use it; with ``pad`` any kernel,
        stride and pad, as ``ops.conv2d`` with groups == channels takes."""
        _depthwise_shape(x.shape, w.shape, stride, pad)
        xv, wv = x.value, w.value
        kh, kw = wv.shape[1], wv.shape[2]
        pad = (kh - 1) // 2 if pad is None else pad
        out = _ops._depthwise_nd(xv, wv, stride, pad)

        def vjp(g):
            # No sweep runs on NCHW rows. x, dx and g are held batch
            # innermost, x and dx as stride x stride phase planes, so each
            # tap's g * x product and its w * g scatter are one sweep over
            # rows of ow*n at any stride. dw takes the products of a chunk
            # of taps at once through _nchw_sums, which adds them in the
            # order of numpy's NCHW sum(axis=(0, 2, 3)); dx adds the taps
            # i-major from +0, as the forward gathers, and is interleaved
            # into NCHW once at the end.
            n, _, h, wd = xv.shape
            geo = _ops._depthwise_geometry(kh, kw, stride, pad, h, wd)
            oh, ow, taps = geo.oh, geo.ow, geo.taps
            gt = np.ascontiguousarray(g.transpose(1, 2, 3, 0))
            planes = _ops._phase_planes(xv, geo)
            dw = np.zeros_like(wv)
            chunk = max(1, _DW_CHUNK // gt.size)
            prod = np.empty((min(chunk, max(1, len(taps))), *gt.shape))
            sweep = _ops._sweep(ow * n)
            for k in range(0, len(taps), chunk):
                part = taps[k:k + chunk]
                with sweep:
                    for t, tap in enumerate(part):
                        np.multiply(gt, _ops._tap(planes, tap, oh, ow), out=prod[t])
                rows, cols, *_ = zip(*part)
                dw[:, rows, cols] = _ops._nchw_sums(prod[:len(part)]).T
            planes[...] = 0.0   # now the dx planes
            tmp = prod[0]
            with sweep:
                for tap in taps:
                    np.multiply(wv[:, tap[0], tap[1], None, None, None], gt, out=tmp)
                    _ops._tap(planes, tap, oh, ow)[...] += tmp
            del gt, prod, tmp   # freed before the NCHW copy
            return _ops._interleave_planes(planes, geo, h, wd), dw

        return self._record(out, (x, w), vjp, "depthwise_conv")

    def pointwise_conv(self, x: Node, w: Node) -> Node:
        """1x1 conv; ``w`` holds a (c_out, c_in) matrix: :meth:`conv2d`'s GEMM
        with a (c_out, c_in, 1, 1) view of it, over the input as its columns."""
        _pointwise_shape(x.shape, w.shape)
        return self._gemm_conv(x, w, 1, 0, "pointwise_conv")

    def _gemm_conv(self, x: Node, w: Node, stride: int, pad: int, name: str) -> Node:
        """Dense and pointwise convolution, ``ops._conv2d_nd`` with the
        (o, c, kh, kw) weights that ``w`` holds or, for a pointwise (o, c)
        matrix, their (o, c, 1, 1) view, recorded as op ``name``. The VJP
        holds g as an (o, n*oh*ow) matrix ``gm``: dw is ``gm`` times the
        columns reshaped to (n*oh*ow, c*kh*kw), and dx ``ops._add_columns``
        of the transposed weights times ``gm`` (layouts: ``hbonet.ops``).
        Its closure keeps ``x.value``, ``w.value``, ``stride`` and ``pad``,
        and forms the view again when it runs."""
        xv, wv = x.value, w.value
        out = _ops._conv2d_nd(xv, _dense_view(wv), stride, pad)

        def vjp(g):
            o, c, kh, kw = _dense_view(wv).shape
            n, _, oh, ow = g.shape
            gm = g.transpose(1, 0, 2, 3).reshape(o, -1)
            dw = np.dot(gm, _ops._columns(xv, kh, kw, stride, pad)
                        .transpose(3, 4, 5, 0, 1, 2).reshape(n * oh * ow, -1))
            dcols = np.dot(wv.reshape(o, -1).T, gm).reshape(c, kh, kw, n, oh, ow)
            return _ops._add_columns(dcols, xv.shape, stride, pad), dw.reshape(wv.shape)

        return self._record(out, (x, w), vjp, name)

    def relu6(self, x: Node, *, _out: np.ndarray | None = None) -> Node:
        """min(max(x, 0), 6), any shape. ``_out`` receives the value, so a
        caller that owns ``x.value`` can pass it and skip an allocation; it
        must be ``x.value`` of an interior ``x``, which the new node takes
        over (see :meth:`_check_out`), since the VJP reads only the mask."""
        self._check_out(x, _out)
        xv = x.value
        # subgradient 0 at both kinks; only a recorded node needs the mask,
        # taken before _out (which may be xv) is overwritten
        mask = ((xv > 0.0) & (xv < 6.0)) if self.grad_enabled else None
        out = _ops._relu6_nd(xv, out=_out)

        def vjp(g):
            return (g * mask,)

        return self._record(out, (x,), vjp, "relu6", _out is not None)

    def batchnorm(self, x: Node, gamma: Node, beta: Node,
                  p: _ops.BatchNormParams, training: bool = False, *,
                  _out: np.ndarray | None = None) -> Node:
        """Per-channel batch norm; ``_out`` as in :meth:`relu6`. Training
        mode normalizes by batch statistics (biased variance) and updates
        ``p``'s running stats in place, running <- (1 - momentum)*running +
        momentum*batch. Inference mode folds the running statistics into
        x * scale + shift. In both modes the VJP reads only ``inv`` and
        ``xhat``, taken before ``_out`` is written, so on either kind of
        tape the batch norm may write into its input."""
        self._check_out(x, _out)
        _batchnorm_shape(x.shape, gamma.shape, beta.shape, p)
        xv, gv, bv = x.value, gamma.value, beta.value
        if training:
            out = np.empty_like(xv) if _out is None else _out
            mean, var, inv, xhat = _bn_batch_normalize(xv, p.eps, out)
            p.running_mean[...] = (1 - p.momentum) * p.running_mean + p.momentum * mean
            p.running_var[...] = (1 - p.momentum) * p.running_var + p.momentum * var
            np.multiply(_ops._per_image(gv, *xv.shape[2:]), xhat, out=out)
            out += _ops._per_image(bv, *xv.shape[2:])
        else:
            if self.grad_enabled:   # only a recorded node runs its VJP
                inv, xhat = _bn_normalize(xv, p.running_mean, p.running_var, p.eps)
            out = _ops._bn_affine_nd(xv, p.running_mean, p.running_var, gv, bv,
                                     p.eps, out=_out)

        def vjp(g):
            # h and wd come from g: each name a VJP captures is one more
            # cell that every batch-norm node keeps until backward runs it
            h, wd = g.shape[2:]
            t = g * xhat
            dgamma = _ops._channel_sums(t)
            dbeta = _ops._channel_sums(g)
            if not training:
                with _ops._sweep(h * wd):
                    dx = g * (gv * inv)[None, :, None, None]
                return dx, dgamma, dbeta
            # inv * (gx - mean(gx) - xhat * mean(gx * xhat)), evaluated in
            # that order with two full-size arrays: t holds each product in
            # turn and dx is formed in gx. Each per-channel vector is swept
            # as one image's block (ops._per_image), and each mean is
            # numpy's, sum / count.
            count = g.size // g.shape[1]
            gx = g * _ops._per_image(gv, h, wd)
            np.multiply(gx, xhat, out=t)
            mean_gx = _ops._channel_sums(gx) / count
            mean_gx_xhat = _ops._channel_sums(t) / count
            np.multiply(xhat, _ops._per_image(mean_gx_xhat, h, wd), out=t)
            gx -= _ops._per_image(mean_gx, h, wd)
            gx -= t
            gx *= _ops._per_image(inv, h, wd)
            return gx, dgamma, dbeta

        return self._record(out, (x, gamma, beta), vjp, "batchnorm", _out is not None)

    def bilinear_upsample(self, x: Node, factor: int) -> Node:
        """Separable bilinear interpolation by an integer factor, with
        half-pixel centers: source coordinate (dst + 0.5)/factor - 0.5,
        clamped to borders. Factor 1 is an exact identity."""
        _upsample_shape(x.shape, factor)
        xv = x.value
        out = _ops._upsample_nd(xv, factor)
        h, w = xv.shape[2], xv.shape[3]

        def vjp(g):
            if factor == 1:
                return (g,)
            uh, uw = _ops._bilinear_matrix(h, factor), _ops._bilinear_matrix(w, factor)
            return ((uh.T[None, None] @ g) @ uw[None, None],)

        return self._record(out, (x,), vjp, "bilinear_upsample")

    def avgpool(self, x: Node, kernel: int, stride: int) -> Node:
        """Average pooling without padding."""
        _avgpool_shape(x.shape, kernel, stride)
        shape = x.shape
        out = _ops._avgpool_nd(x.value, kernel, stride)

        def vjp(g):
            dx = np.zeros(shape)
            gk = g / (kernel * kernel)
            oh, ow = g.shape[2], g.shape[3]
            for i in range(kernel):
                for j in range(kernel):
                    dx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gk
            return (dx,)

        return self._record(out, (x,), vjp, "avgpool")

    def concat_channels(self, a: Node, b: Node) -> Node:
        _concat_shape(a.shape, b.shape)
        ca = a.value.shape[1]
        out = np.concatenate([a.value, b.value], axis=1)

        def vjp(g):
            return g[:, :ca], g[:, ca:]

        return self._record(out, (a, b), vjp, "concat_channels")

    def take_first_channels(self, x: Node, m: int) -> Node:
        """The first ``m`` channels of ``x``, as the view ``x.value[:, :m]``
        rather than a copy: ``_out`` never targets an array that another op
        reads (see :meth:`_check_out`), so the view keeps its values. The
        VJP keeps only the input's shape."""
        shape = x.shape
        _take_first_shape(shape, m)
        out = x.value[:, :m]

        def vjp(g):
            dx = np.zeros(shape)
            dx[:, :m] = g
            return (dx,)

        return self._record(out, (x,), vjp, "take_first_channels")

    def eltadd(self, a: Node, b: Node, *, _out: np.ndarray | None = None) -> Node:
        """a + b. ``_out`` receives the sum as in :meth:`relu6`; it must be
        ``a.value`` of an interior ``a`` (see :meth:`_check_out`), since the
        VJP reads neither operand."""
        self._check_out(a, _out)
        _eltadd_shape(a.shape, b.shape)
        out = np.add(a.value, b.value, out=_out)

        def vjp(g):
            return g, g

        return self._record(out, (a, b), vjp, "eltadd", _out is not None)

    def flatten_spatial(self, x: Node) -> Node:
        """(n, c, 1, 1) -> (n, c) for the classifier head."""
        xv = x.value
        out = xv.reshape(_flatten_shape(x.shape)).copy()

        def vjp(g):
            return (g.reshape(xv.shape),)

        return self._record(out, (x,), vjp, "flatten_spatial")

    def add_bias(self, x: Node, bias: Node) -> Node:
        """Row-vector bias over (n, k) logits."""
        _add_bias_shape(x.shape, bias.shape)
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
        labels = np.asarray(labels)
        if z.ndim != 2 or labels.shape != z.shape[:1]:
            raise DimensionError(f"logits {z.shape} and labels {labels.shape} "
                                 f"are not (n, k) and (n,)")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got {labels.dtype}")
        n, k = z.shape
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


def eager(fn, *args, **kwargs) -> Tensor:
    """``fn(tape, *args, **kwargs)`` on a fresh grad-disabled tape, each
    Tensor or ndarray argument a leaf, as a Tensor: how the public ops run
    their Tape method and the block functions their forward wiring."""
    tape = Tape(grad_enabled=False)
    args = [tape.leaf(a.data if isinstance(a, Tensor) else a)
            if isinstance(a, (Tensor, np.ndarray)) else a for a in args]
    return Tensor._wrap(fn(tape, *args, **kwargs).value)


class Shape:
    """A :class:`ShapeTape` node value: the shape an array would have."""

    __slots__ = ("shape",)

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape

    @property
    def size(self) -> int:
        return math.prod(self.shape)


class ShapeTape(Tape):
    """Runs forward wiring on shapes instead of arrays, grad disabled: a
    leaf keeps the value it is given (an array or a :class:`Shape`), and
    each op that a network forward runs returns the :class:`Shape` its
    shape rule gives, raising the rule's error, and computes nothing.

    Each conv opens a row ``[name, MACs per sample, out (c, h, w), in (h, w)]``
    in ``rows``, named after its weight leaf without ``.weight``; each leaf
    adds its size to ``params[prefix]``, so weights, batch-norm affines and
    biases all count towards the row of their name.
    """

    def __init__(self):
        super().__init__(grad_enabled=False)
        self.rows: list[list] = []
        self.params: dict[str, int] = defaultdict(int)

    def leaf(self, value, name: str = "leaf") -> Node:
        self.params[name.rpartition(".")[0]] += value.size
        return Node(value, (), None, name)


def _symbolic_op(name: str, rule):
    """The ShapeTape method of op ``name``: its rule's shape, plus a row for
    each conv."""
    conv = name in ("conv2d", "depthwise_conv", "pointwise_conv")

    def op(self, x, *args, _out=None, **kwargs):
        xs = x.value.shape
        shapes = [a.value.shape if isinstance(a, Node) else a for a in args]
        shape = rule(xs, *shapes, **kwargs)
        if shape is xs:     # the operand's own shape: reuse its node
            return x
        if conv:
            macs = math.prod(shape[1:]) * math.prod(shapes[0][1:])
            self.rows.append([args[0].name.rpartition(".")[0], macs, shape[1:], xs[2:]])
        return Node(Shape(shape), (), None, name)

    op.__name__ = name
    return op


for _name, _rule in _SHAPE_RULES.items():
    setattr(ShapeTape, _name, _symbolic_op(_name, _rule))


def _bn_normalize(xv, mean, var, eps):
    """(1/sqrt(var + eps), xhat) of a batch-norm input, per channel."""
    inv = 1.0 / np.sqrt(var + eps)
    with _ops._sweep(xv.shape[2] * xv.shape[3]):
        xhat = xv - mean[None, :, None, None]
        xhat *= inv[None, :, None, None]
    return inv, xhat


def _bn_batch_normalize(xv, eps, scratch):
    """(mean, var, inv, xhat) of a training batch norm's input, from one
    sum, bit for bit ``xv.mean``, ``xv.var`` and :func:`_bn_normalize`.

    numpy's ``mean`` is ``sum`` then ``true_divide``; its ``var`` is the
    same ``sum`` and ``true_divide``, then ``subtract``, ``square``, ``sum``
    and ``true_divide``. Here the deviations ``xv - mean`` are kept and
    scaled in place into ``xhat``, and the squares go to ``scratch``, which
    may be ``xv`` itself: 5 full passes (two sums, the subtraction, the
    square and the scaling) where mean, var and normalize take 7. The sums
    are ``ops._channel_sums``, and ``mean`` and ``inv`` are swept as one
    image's block (``ops._per_image``), two allocations of 1/n of a pass.
    """
    n, _, h, w = xv.shape
    count = n * h * w
    mean = _ops._channel_sums(xv) / count
    xhat = xv - _ops._per_image(mean, h, w)
    var = _ops._channel_sums(np.square(xhat, out=scratch)) / count
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= _ops._per_image(inv, h, w)
    return mean, var, inv, xhat


def backward(tape: Tape, loss_node: Node) -> dict[Node, np.ndarray]:
    """Chain-rule sweep from a scalar loss; returns ``{leaf: gradient}`` for
    every leaf the loss reaches, and leaves each on ``leaf.grad``.

    Accumulation follows reverse creation order, so it is deterministic.
    Gradients are kept on leaves only: once an interior node's VJP has
    returned its parents' gradients, the node's ``grad`` and ``vjp`` (with
    whatever the closure holds) are set to ``None``, so the sweep holds only
    the gradients still to be propagated. A tape is differentiated once; a
    second ``backward`` over it raises :class:`TapeConsumedError`.
    """
    if np.shape(loss_node.value) != ():
        raise ValueError(
            f"loss must be scalar, got shape {np.shape(loss_node.value)}"
        )
    if any(node.parents and node.vjp is None for node in tape.nodes):
        raise TapeConsumedError(
            "this tape was already differentiated and its VJPs freed; "
            "record the forward on a new tape")
    for node in tape.nodes:
        node.grad = None
    loss_node.grad = np.float64(1.0)
    for node in reversed(tape.nodes):
        if node.grad is None or node.vjp is None:
            continue
        parent_grads = node.vjp(node.grad)
        node.grad = node.vjp = None
        for parent, pg in zip(node.parents, parent_grads):
            if parent.grad is None:
                parent.grad = np.asarray(pg, dtype=np.float64)
            else:
                parent.grad = parent.grad + pg
    return {n: n.grad for n in tape.nodes
            if n.parents == () and n.grad is not None}


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
    obtained by running ``f`` over a tape: ``f`` must then take
    ``(tape, node)`` and return the loss node it records on ``tape``.
    On tensors larger than ``max_coords`` a seeded sample of coordinates is
    checked. Relative error is |a - n| / max(1, |a|, |n|); a coordinate
    whose error is NaN makes the result NaN, which fails every threshold.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if max_coords < 1:
        raise ValueError(f"max_coords must be >= 1, got {max_coords}")
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("x is empty: there is no coordinate to check")
    if analytic is not None and np.shape(analytic) != x.shape:
        raise ValueError(f"analytic has shape {np.shape(analytic)}, x {x.shape}")
    if analytic is None:
        tape = Tape()
        xn = tape.leaf(x, "x")
        backward(tape, f(tape, xn))
        analytic = xn.grad

        def func(arr):
            t = Tape(grad_enabled=False)
            return float(f(t, t.leaf(arr)).value)
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
    errors = []
    for idx in coords:
        orig = flat[idx]
        pert = x.copy().ravel()
        pert[idx] = orig + step
        fp = func(pert.reshape(x.shape))
        pert[idx] = orig - step
        fm = func(pert.reshape(x.shape))
        numeric = (fp - fm) / (2.0 * step)
        denom = max(1.0, abs(numeric), abs(aflat[idx]))
        errors.append(abs(aflat[idx] - numeric) / denom)
    # np.max, unlike max(), carries a NaN through
    return float(np.max(errors, initial=0.0))
