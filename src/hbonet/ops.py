"""Optimized neural ops over NCHW tensors: the ndarray kernels (prefixed
``_nd``) and the public Tensor-level ops.

Each op is described once, as a :class:`~hbonet.autodiff.Tape` method: its
shape rule with the op's named errors, its kernel call here and its VJP.
The public functions take and return :class:`~hbonet.tensor.Tensor` and run
that method once on a grad-disabled tape (``autodiff.eager``), so eager and
taped values are one computation; they check only the ``ConvKernel`` fields
(groups, c_out, kernel size) that the tape never sees. Every convolution path is
tested against ``conv2d_oracle`` at 1e-12.

Dense and pointwise convolution are one GEMM (``_conv2d_nd``) oriented so
that BLAS writes NCHW: the (o, k) weight matrix times channel-major
(k, n*oh*ow) columns gives (o, n*oh*ow), whose two outer axes swap into NCHW,
a move of nothing at n == 1. The columns (``_columns``) are a strided view
of the padded input, one window per kernel tap, and ``_add_columns``,
their adjoint, scatters the VJP's column gradients into dx. Each GEMM
operand's layout sets its bits. A pointwise conv (1x1, stride 1, no
padding) multiplies numpy's reshape of the input's channel-major view: a
view where numpy can merge its axes (at n == 1, say), a C-contiguous copy
otherwise. Every other geometry multiplies a C-contiguous copy, and the
VJP's dw takes the columns as numpy reshapes them to (n*oh*ow, k). The
orientation sets the dense conv's bits: on OpenBLAS 0.3.31 the transposed
product, (n*oh*ow, k) by (k, o), gives the same bits wherever n*oh*ow is a
multiple of 8 and o <= 32, as in every HBONet stem and MobileNetV2's at a
resolution that is a multiple of 8; the logit pins in the tests rely on
it. Elsewhere OpenBLAS may round the two orientations differently on
products under about 10^6 multiply-adds: MobileNetV2 at resolution 33,
say, or the finite-difference check's (2, 3, 6, 6) conv.

Tensors are NCHW at every interface. Inside, depthwise convolution and
its VJP turn each kernel tap into long numpy sweeps over one layout: the
zero-padded input split into stride x stride phase planes
(``_phase_planes``), shape (s, s, c, hq, wq, n) with the batch innermost,
where a tap at any stride reads one (c, oh, ow, n) window. The planes hold
only the rows and columns that the live taps read (``_depthwise_geometry``):
on the 1x1 and 2x2 maps of a small network most of the padded input is
padding that no tap reads. The forward sweeps every batch size as one
contiguous slice per channel over a full-width output grid, one channel
block at a time, each block's planes built just before its sweep: a call
holds its input and output plus one block's planes, accumulator and
scratch. The first live tap's product is written straight into the
accumulator and then has +0 added, in place of a zero fill and an add of
the product to it: +0 + p and p + 0 are the same bits, a -0 product
included. The VJP holds g as (c, oh, ow, n) and scatters dx into phase
planes that are interleaved into NCHW once at the end. Each output and dx
element adds the same taps in the same order as a plain NCHW
shift-and-add, so the layouts give its values bit for bit.

The per-channel sums that set training bits follow an order written down
here rather than left to numpy: ``_nchw_sums`` is numpy 2.4.6's
``sum(axis=(0, 2, 3))`` of an NCHW array, computed from the batch-innermost
layout. That order starts from +0 and adds, in order over the batch, the
pairwise sum of each image's h*w run of a channel; a channel alone is one
run of n*h*w. A pairwise sum (``_pairwise``) adds a run under 8 elements in
sequence, a run of 8 to 128 in 8 interleaved lanes combined as
((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then its tail in
sequence, and splits a longer run at half its length, rounded down to a
multiple of 8. The depthwise ``dw`` and the global average pool take their
sums from it; a test pins it to numpy's bytes. The training batch norm and
its VJP take theirs from ``_channel_sums``, which works on NCHW arrays:
where c > 1 and h*w < 8 every run is added in sequence, so it adds all
runs at once, one (n, c) slice per position, and then reduces the batch;
elsewhere numpy's own sum is the fast one. Their means are these sums over
n*h*w, as numpy's ``mean`` is. A test pins both to numpy's bytes.

The training batch norm's per-channel vectors (mean, inverse deviation,
gamma, beta and the VJP's two means) are laid out as one image's (c, h, w)
block (``_per_image``) before they are swept over an (n, c, h, w) array, so
each sweep is n contiguous rows of c*h*w elements rather than n*c rows of
h*w, which on the toy network's 1x1 to 16x16 maps are 1 to 256 elements
long. The block costs 1/n of a pass; at n == 1 it would cost a whole one,
so the folded inference batch norm keeps its per-channel broadcast.

Per-channel elementwise sweeps (the depthwise taps, the inference
batch-norm affine) whose rows are long run inside ``_sweep``, which
shrinks numpy's ufunc buffer for their duration so that numpy walks the
arrays in place instead of copying both operands through the buffer; the
caller's buffer size is restored afterwards. The training batch norm's
sweeps need no scope: their rows are whole images. The buffer decides
only how a loop is driven, never an elementwise value, and reductions
stay outside the scope.

The batch-norm and ReLU6 kernels take an ``out`` array, and the tape's
batch norm, ReLU6 and residual add an ``_out``. ``blocks._apply_layer``
passes the conv output as ``out``, since only the batch norm reads it and
no VJP reads it, so a conv-BN-ReLU6 layer keeps one array instead of three,
in inference and in training alike; the values are the same bits. The
block forwards pass the ``reduce_pw`` layer's output as the residual add's
``_out`` for the same reason. On a recording tape ``Tape._check_out``
allows this only where the output is the value of the op's own interior
input. A channel slice on the tape is a view of its input, which no later
``_out`` targets.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# autodiff imports this module back for its kernels; each side reads the
# other's attributes only at call time, so either can be imported first
from . import autodiff as _autodiff
from .tensor import ConvKernel, DimensionError, Tensor, UnsupportedKernelError

__all__ = [
    "BatchNormParams",
    "conv2d",
    "depthwise_conv",
    "pointwise_conv",
    "relu6",
    "batchnorm",
    "bilinear_upsample",
    "avgpool",
    "concat_channels",
    "take_first_channels",
    "eltadd",
]


@dataclass
class BatchNormParams:
    """Per-channel affine + running statistics for batch normalization.

    gamma/beta are learnable; running_mean/running_var are state mutated by
    training-mode forward passes (biased variance on both sides).
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray = None
    running_var: np.ndarray = None
    eps: float = 1e-5
    momentum: float = 0.1

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        c = self.gamma.shape[0]
        if self.running_mean is None:
            self.running_mean = np.zeros(c)
        if self.running_var is None:
            self.running_var = np.ones(c)
        self.running_mean = np.asarray(self.running_mean, dtype=np.float64)
        self.running_var = np.asarray(self.running_var, dtype=np.float64)
        shapes = {a.shape for a in (self.gamma, self.beta, self.running_mean,
                                    self.running_var)}
        if shapes != {(c,)}:
            raise DimensionError(f"batchnorm parameter vectors disagree: {shapes}")
        if not (np.isfinite(self.running_mean).all() and np.isfinite(self.running_var).all()
                and (self.running_var >= 0).all()):
            raise ValueError("running_mean and running_var must be finite, running_var >= 0")
        if not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if not 0 <= self.momentum <= 1:
            raise ValueError(f"momentum must be in [0, 1], got {self.momentum}")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def identity(cls, c: int) -> "BatchNormParams":
        return cls(gamma=np.ones(c), beta=np.zeros(c))


# ---------------------------------------------------------------------------
# ndarray kernels (shared with the autodiff tape)
# ---------------------------------------------------------------------------

# numpy copies the operands of an elementwise sweep through its ufunc buffer
# when they cannot be walked with one stride (a per-channel broadcast such as
# scale[None, :, None, None], or a strided tap) and two or more of the
# sweep's innermost rows fit in the buffer. On rows of _LONG_ROW elements or
# more those copies cost more than they save, so such sweeps run with a
# buffer shorter than two rows and numpy walks the arrays in place; shorter
# rows keep the caller's buffer (numpy's default is 8192 elements), where
# the copies pay off. The buffer size never changes an elementwise result,
# only how the loop is driven.
_LONG_ROW = 96
_SHORT_BUFSIZE = 128


class _sweep:
    """``with _sweep(row):`` scope for elementwise sweeps whose innermost
    rows are ``row`` elements long. For long rows it sets a short ufunc
    buffer and restores the caller's size on exit, also when the body
    raises. Reductions (sum, mean, var) stay outside it. Reusable, not
    reentrant."""

    __slots__ = ("unbuffered", "saved")

    def __init__(self, row: int):
        self.unbuffered = row >= _LONG_ROW

    def __enter__(self):
        if self.unbuffered:
            self.saved = np.setbufsize(_SHORT_BUFSIZE)

    def __exit__(self, *exc):
        if self.unbuffered:
            np.setbufsize(self.saved)


def _pad_nd(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    out[:, :, pad:pad + h, pad:pad + w] = x
    return out


def _columns(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """The channel-major (c, kh, kw, n, oh, ow) columns of a kh x kw conv
    over NCHW ``x``, a strided view of the zero-padded input: column (c, i, j)
    is the window tap (i, j) reads from channel c. A 1x1 kernel at stride 1
    without padding skips the window view's Python cost: a view of ``x``."""
    if (kh, kw, stride, pad) == (1, 1, 1, 0):
        return x.transpose(1, 0, 2, 3)[:, None, None]
    win = sliding_window_view(_pad_nd(x, pad), (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)


def _add_columns(cols: np.ndarray, shape: tuple, stride: int, pad: int) -> np.ndarray:
    """The adjoint of ``_columns``: the (n, c, h, w) array ``shape`` whose
    every pixel sums the entries of the (c, kh, kw, n, oh, ow) ``cols``
    that read it. Each tap is added into a zero-padded array in i-major
    order, and the padding is cropped. For a 1x1 kernel at stride 1
    without padding this is the plain reshape, as a C-contiguous copy."""
    n, c, h, w = shape
    _, kh, kw, _, oh, ow = cols.shape
    if (kh, kw, stride, pad) == (1, 1, 1, 0):
        return np.ascontiguousarray(cols.reshape(c, n, h, w).transpose(1, 0, 2, 3))
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                cols[:, i, j].transpose(1, 0, 2, 3)
    return dxp[:, :, pad:pad + h, pad:pad + w]


def _conv2d_nd(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Dense (groups == 1) convolution, pointwise included, as one GEMM
    that writes NCHW: ``w`` as an (o, c*kh*kw) matrix times the
    ``_columns`` as a (c*kh*kw, n*oh*ow) matrix (layouts: module docstring)
    gives (o, n*oh*ow), NCHW once its two outer axes swap, a move of nothing
    at n == 1. Each output's c*kh*kw products are in (c, kh, kw) order, as
    in the transposed (n*oh*ow, c*kh*kw) by (c*kh*kw, o) product; the module
    docstring says where BLAS gives the two orientations the same bits."""
    o, c, kh, kw = w.shape
    cols = _columns(x, kh, kw, stride, pad)
    n, oh, ow = cols.shape[3:]
    cols = cols.reshape(c * kh * kw, -1)
    if (kh, kw, stride, pad) != (1, 1, 1, 0):   # a copy: frees the padded input
        cols = np.ascontiguousarray(cols)
    out = np.matmul(w.reshape(o, -1), cols)
    return np.ascontiguousarray(out.reshape(o, n, oh, ow).transpose(1, 0, 2, 3))


class _Geometry(NamedTuple):
    """One depthwise geometry: a kh x kw kernel at stride ``s`` and zero
    padding over an h x w map, giving an ``oh`` x ``ow`` output.

    The phase planes (``_phase_planes``) hold only the window of the padded
    input that the live taps read, each plane ``hq`` x ``wq``; the window
    holds the input's first ``hc`` rows and ``wc`` columns. ``copies``
    lists, per phase plane (a, b), the first input row y0 and column x0
    that land in it and where they land, (m0, q0). ``taps`` lists the live
    taps, i-major, as (i, j, a, b, r, q): kernel offset (i, j) reads its
    (oh, ow) window from plane (a, b) starting at (r, q) (``_tap``)."""

    s: int
    oh: int
    ow: int
    hq: int
    wq: int
    hc: int
    wc: int
    copies: tuple[tuple[int, int, int, int, int, int], ...]
    taps: tuple[tuple[int, int, int, int, int, int], ...]


@lru_cache(maxsize=None)
def _depthwise_geometry(kh: int, kw: int, s: int, pad: int,
                        h: int, w: int) -> _Geometry:
    """The geometry of a depthwise conv (see ``_Geometry``), cached: a
    network asks for the same few on every call.

    A kernel offset i is live along an axis if its strided window i, i+s,
    ..., i+s*(out-1) over the padded axis reaches a real position rather
    than only padding. A skipped tap only multiplies padding zeros; its +-0
    products change no sum, which starts from +0, so skipping it keeps
    every value bitwise. On small maps most of the padded input is padding
    no live tap reads: a 1x1 map under a 3x3 kernel pads to 3x3. The window
    drops it, and the real pixels past the last row or column a live tap
    reads. Without a live tap, on either axis, it holds no real pixel.
    """
    oh = (h + 2 * pad - kh) // s + 1
    ow = (w + 2 * pad - kw) // s + 1

    def axis(k, size, out):
        # live offsets as (i, phase, start), plane length, extent, copies
        live = [i for i in range(k)
                if any(pad <= i + s * m < pad + size for m in range(out))]
        first, last = (live[0], live[-1]) if live else (pad, pad)
        before = pad - first    # padding the window keeps before the real pixels
        length = out + (last - first) // s
        phases = [((a - before) % s, ((a - before) % s + before) // s)
                  for a in range(s)]
        return ([(i, (i - first) % s, (i - first) // s) for i in live],
                length, min(size, length * s - before), phases)

    rows, hq, hc, row_phases = axis(kh, h, oh)
    cols, wq, wc, col_phases = axis(kw, w, ow)
    if not (rows and cols):     # no live tap: planes of zeros, no copy
        hq, wq, hc, wc = oh, ow, 0, 0
    return _Geometry(s, oh, ow, hq, wq, hc, wc,
                     tuple((a, b, y0, x0, m0, q0)
                           for a, (y0, m0) in enumerate(row_phases)
                           for b, (x0, q0) in enumerate(col_phases)),
                     tuple((i, j, a, b, r, q) for i, a, r in rows
                           for j, b, q in cols))


# Elements per channel block of the flat depthwise accumulator (256 KB), so
# the accumulator and its multiply scratch stay in a typical L2 cache; the
# block's phase planes are about s*s times as large. With the sweeps
# unbuffered, blocks of 16k-64k elements time within 2% of each other over
# the batch-1 depthwise calls of HBONet and MobileNetV2 1.0@224; 8k and
# 128k are 14% and 26% slower. Tuned at batch 1 only: at batch 32 a block
# holds a few channels, and the toy training step's depthwise calls take
# 6-10% longer than one sweep per tap over all channels' (c, oh, ow, n)
# rows did, under 1% of the step.
_DW_BLOCK = 32768


def _depthwise_nd(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Depthwise convolution via shift-and-add; w has shape (c, kh, kw).
    Returns a C-contiguous NCHW array.

    The phase planes (``_phase_planes``, one spare row) are flattened per
    channel, so the window that tap (i, j, a, b, r, q) reads (``_tap``) is
    one contiguous slice of plane (a, b) at flat offset (r * wq + q) * n,
    oh*wq*n long, over a full-width (oh, wq) grid; with the batch innermost
    this holds at every batch size. The wq - ow columns past ow wrap into
    the next row and are dropped by the final NCHW copy; the spare row
    absorbs the last tap's overrun. Channels are swept in blocks of about
    ``_DW_BLOCK`` accumulator elements, each block's planes built into one
    reused buffer just before its sweep. Each output element adds its live
    taps (``_depthwise_geometry``) from +0 in i-major order, one multiply
    then one add each, as a plain NCHW shift-and-add over all kh*kw taps
    does, so the two agree bitwise.
    """
    n, c, h, wd = x.shape
    geo = _depthwise_geometry(w.shape[1], w.shape[2], stride, pad, h, wd)
    s, oh, ow, wq = geo.s, geo.oh, geo.ow, geo.wq
    span = oh * wq * n
    block = min(c, max(1, _DW_BLOCK // span))
    out = np.empty((n, c, oh, ow))
    # every block writes the same window pixels, so the rest stays zero
    planes = np.zeros((s, s, block, geo.hq + 1, wq, n))
    acc = np.empty((block, span))
    tmp = np.empty_like(acc)
    with _sweep(span):
        for c0 in range(0, c, block):
            c1 = min(c0 + block, c)
            flat = _phase_planes(x[:, c0:c1], geo, planes[:, :, :c1 - c0]) \
                .reshape(s, s, c1 - c0, -1)
            acc_b, tmp_b = acc[:c1 - c0], tmp[:c1 - c0]
            if not geo.taps:
                acc_b.fill(0.0)
            for k, (i, j, a, b, r, q) in enumerate(geo.taps):
                off = (r * wq + q) * n
                np.multiply(w[c0:c1, i, j, None],
                            flat[a, b, :, off:off + span],
                            out=tmp_b if k else acc_b)
                # +0 + p and p + 0 are the same bits, so the first product
                # goes straight into the accumulator and has +0 added there
                acc_b += tmp_b if k else 0.0
            out[:, c0:c1] = acc_b.reshape(c1 - c0, oh, wq, n)[:, :, :ow] \
                .transpose(3, 0, 1, 2)
    return out


def _phase_planes(x: np.ndarray, geo: _Geometry,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The window of ``geo`` over the zero-padded NCHW ``x`` as s x s phase
    planes of shape (s, s, c, hq, wq, n), batch innermost: window pixel
    (r, q), counted from the window's corner, sits in plane (r % s, q % s)
    at (r // s, q // s). Every tap reads the values it would read from the
    whole padded input. At s == 1 this is the padded (c, h, w, n) array cut
    to the window. With ``out``, an (s, s, c, hq + spare, wq, n) array that
    is zero wherever no window pixel lands (fresh zeros, or planes an earlier
    call for the same ``geo`` wrote), the planes are written into it."""
    n, c = x.shape[:2]
    s = geo.s
    planes = np.zeros((s, s, c, geo.hq, geo.wq, n)) if out is None else out
    for a, b, y0, x0, m0, q0 in geo.copies:
        src = x[:, :, y0:geo.hc:s, x0:geo.wc:s].transpose(1, 2, 3, 0)
        planes[a, b, :, m0:m0 + src.shape[1], q0:q0 + src.shape[2]] = src
    return planes


def _interleave_planes(planes: np.ndarray, geo: _Geometry, h: int, w: int) -> np.ndarray:
    """The inverse of ``_phase_planes``: the C-contiguous (n, c, h, w) array
    of the real pixels that ``planes`` holds, +0 where the window holds
    none."""
    c, n = planes.shape[2], planes.shape[5]
    s = geo.s
    out = np.empty((n, c, h, w)) if (geo.hc, geo.wc) == (h, w) else np.zeros((n, c, h, w))
    for a, b, y0, x0, m0, q0 in geo.copies:
        dst = out[:, :, y0:geo.hc:s, x0:geo.wc:s]
        dst[...] = planes[a, b, :, m0:m0 + dst.shape[2],
                          q0:q0 + dst.shape[3]].transpose(3, 0, 1, 2)
    return out


def _tap(planes: np.ndarray, tap: tuple, oh: int, ow: int) -> np.ndarray:
    """The (c, oh, ow, n) view of ``planes`` that ``tap``, an entry of
    ``_Geometry.taps``, reads."""
    _, _, a, b, r, q = tap
    return planes[a, b, :, r:r + oh, q:q + ow]


# the longest run numpy's pairwise sum adds in 8 lanes without splitting it
_PW_BLOCK = 128


def _pairwise(a: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum along axis 1 of an (r, m, k) array: (r, k), in
    the order the module docstring states, each step one sweep over all r
    and k. ``np.add.reduce`` over an outer axis adds the lanes' blocks in
    order, but from +0 rather than from the first block; that changes at
    most the sign of a zero sum, which the leading +0 of ``_nchw_sums``
    erases."""
    m = a.shape[1]
    if m < 8:
        out = a[:, 0].copy()
        for i in range(1, m):
            out += a[:, i]
        return out
    if m > _PW_BLOCK:
        half = m // 2 - (m // 2) % 8
        if m == 2 * half:   # two equal halves: both at once, as 2r runs
            both = _pairwise(a.reshape(-1, half, a.shape[2]))
            both = both.reshape(a.shape[0], 2, a.shape[2])
            return both[:, 0] + both[:, 1]
        out = _pairwise(a[:, :half])
        out += _pairwise(a[:, half:])
        return out
    m8 = m - m % 8
    lanes = np.add.reduce(a[:, :m8].reshape(a.shape[0], m8 // 8, 8, a.shape[2]),
                          axis=1)
    pairs = lanes[:, 0::2] + lanes[:, 1::2]
    quads = pairs[:, 0::2] + pairs[:, 1::2]
    out = quads[:, 0] + quads[:, 1]
    for i in range(m8, m):
        out += a[:, i]
    return out


def _nchw_sums(p: np.ndarray) -> np.ndarray:
    """Per-channel sums of (t, c, h, w, n) arrays held batch innermost:
    ``out[t]`` is, bit for bit, numpy 2.4.6's ``sum(axis=(0, 2, 3))`` of
    the C-contiguous (n, c, h, w) copy of ``p[t]``, in the order the module
    docstring states; ``test_nchw_sums_equal_numpy_sum`` pins it."""
    t, c, h, w, n = p.shape
    if c == 1:
        runs = p.reshape(t, h * w, n).transpose(0, 2, 1).reshape(t, -1, 1)
    else:
        runs = p.reshape(t * c, h * w, n)
    if runs.shape[2] == 1:
        # one run per row: lay the rows innermost, so each step of the
        # pairwise sum is one contiguous sweep over all of them
        partial = _pairwise(np.ascontiguousarray(runs[:, :, 0].T)[None])
    else:
        partial = np.ascontiguousarray(_pairwise(runs).T)
    # partial is (n, rows) with rows innermost, and two or more rows where
    # n > 1: reducing its outer axis adds from +0 over the batch in order
    return np.add.reduce(partial, axis=0).reshape(t, c)


def _channel_sums(x: np.ndarray) -> np.ndarray:
    """Per-channel sums of an (n, c, h, w) array, bit for bit numpy's
    ``x.sum(axis=(0, 2, 3))``; the module docstring states the order. Where
    c > 1 and a run of h*w is under 8 elements, numpy adds each run in
    sequence, so here the runs of all images and channels are added by one
    slice each, over an (n, c) array, and the batch by one reduce of its
    outer axis, which starts from +0 as numpy's does. Elsewhere it is
    numpy's own sum, whose loops are long enough."""
    n, c, h, w = x.shape
    if c == 1 or h * w >= 8:
        return x.sum(axis=(0, 2, 3))
    runs = x.reshape(n, c, h * w)
    part = runs[:, :, 0]
    for i in range(1, h * w):
        part = part + runs[:, :, i]
    return np.add.reduce(part, axis=0)


def _per_image(v: np.ndarray, h: int, w: int) -> np.ndarray:
    """A per-channel vector laid out as one image's (c, h, w) block, so a
    sweep of it over an (n, c, h, w) array runs one contiguous c*h*w row
    per image rather than n*c rows of h*w."""
    return np.repeat(v, h * w).reshape(-1, h, w)


def _relu6_nd(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """min(max(x, 0), 6), into ``out`` when given (which may be ``x``)."""
    out = np.maximum(x, 0.0, out=out)
    return np.minimum(out, 6.0, out=out)


def _bn_affine_nd(x: np.ndarray, mean: np.ndarray, var: np.ndarray,
                  gamma: np.ndarray, beta: np.ndarray, eps: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """x * scale + shift per channel, the folded inference batch norm,
    into ``out`` when given (which may be ``x``)."""
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    with _sweep(x.shape[2] * x.shape[3]):
        out = np.multiply(x, scale[None, :, None, None], out=out)
        out += shift[None, :, None, None]
    return out


@lru_cache(maxsize=None)
def _bilinear_matrix(size: int, factor: int) -> np.ndarray:
    """(size*factor, size) interpolation matrix under the half-pixel-center
    convention: src = (dst + 0.5)/factor - 0.5, clamped to borders."""
    out = np.zeros((size * factor, size))
    for d in range(size * factor):
        s = (d + 0.5) / factor - 0.5
        s = min(max(s, 0.0), size - 1.0)
        lo = int(np.floor(s))
        hi = min(lo + 1, size - 1)
        frac = s - lo
        out[d, lo] += 1.0 - frac
        out[d, hi] += frac
    out.flags.writeable = False
    return out


def _upsample_nd(x: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return x
    uh = _bilinear_matrix(x.shape[2], factor)
    uw = _bilinear_matrix(x.shape[3], factor)
    return (uh[None, None] @ x) @ uw.T[None, None]


def _avgpool_nd(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Average pooling without padding, each sum in an order stated here.

    - A kernel that covers the whole map (kernel == h == w, the global
      pool) divides each image's per-channel sum from ``_nchw_sums`` by
      kernel**2.
    - A 2x2 stride-2 pool adds its four strided taps. With two or more
      output columns the order is ((x00 + x01) + (x10 + x11)) + 0; with
      one it is (((+0 + x00) + x01) + x10) + x11.

    Each is bit for bit numpy's mean over the window view, which picks its
    sum's order from the view's shape; the trailing + 0 turns an all -0
    window's sum into the mean's +0 and leaves every other sum exact. Any
    other geometry (a 2x2 window at stride 1, say, or a kernel of 1 or 3 that
    leaves more than one output) still takes that mean; no network builds
    one.
    """
    n, c, h, w = x.shape
    if kernel == h == w:
        return (_nchw_sums(x.reshape(1, n * c, h, w, 1)) / (h * w)).reshape(n, c, 1, 1)
    if kernel == 2 and stride == 2:
        oh, ow = h // 2, w // 2
        t = [x[:, :, i:2 * oh:2, j:2 * ow:2] for i in (0, 1) for j in (0, 1)]
        if ow == 1:
            out = t[0] + 0.0
            out += t[1]
            out += t[2]
            out += t[3]
        else:
            out = t[0] + t[1]
            out += t[2] + t[3]
            out += 0.0
        out /= 4
        return out
    win = sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    return win[:, :, ::stride, ::stride].mean(axis=(-2, -1))


# ---------------------------------------------------------------------------
# public Tensor-level ops: each runs its Tape method once, grad disabled
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: ConvKernel, stride: int = 1, pad: int = 0) -> Tensor:
    """Dense (groups 1) or depthwise (groups == c_out == channels)
    convolution with zero padding; matches conv2d_oracle, including the
    errors it raises for a bad geometry. Groups 1 runs ``Tape.conv2d``;
    groups == channels runs ``Tape.depthwise_conv`` with the explicit pad,
    any kernel shape and stride. Other grouped kernels raise
    UnsupportedKernelError."""
    if x.c != w.c_in:
        raise DimensionError(f"input has {x.c} channels, kernel expects "
                             f"{w.groups}*{w.c_in_per_group}")
    if w.groups == 1:
        return _autodiff.eager(_autodiff.Tape.conv2d, x, w.data, stride, pad)
    if (w.groups, w.c_out) != (x.c, x.c):
        raise UnsupportedKernelError(f"conv2d takes groups 1 or groups == c_out == "
                                     f"{x.c}, got groups {w.groups}, c_out {w.c_out}")
    if pad is None:     # depthwise_conv's default pad (k-1)/2, not a conv2d pad
        raise ValueError("stride and pad must be integers, got pad None")
    return _autodiff.eager(_autodiff.Tape.depthwise_conv, x, w.data[:, 0], stride, pad)


def depthwise_conv(x: Tensor, w: ConvKernel, stride: int = 1) -> Tensor:
    """Per-channel k x k convolution, k odd, stride 1 or 2, implicit pad
    (k-1)/2. Output spatial dims are ceil(h/stride) x ceil(w/stride)."""
    if w.groups != x.c or w.c_in_per_group != 1:
        raise DimensionError(f"depthwise kernel groups={w.groups} does not "
                             f"match {x.c} input channels")
    return _autodiff.eager(_autodiff.Tape.depthwise_conv, x, w.data[:, 0], stride)


def pointwise_conv(x: Tensor, w: ConvKernel) -> Tensor:
    """1x1 convolution: per-pixel linear map over channels."""
    if w.k_h != 1 or w.k_w != 1 or w.groups != 1:
        raise UnsupportedKernelError(f"pointwise kernel must be 1x1 ungrouped, "
                                     f"got {w.shape} groups={w.groups}")
    return _autodiff.eager(_autodiff.Tape.pointwise_conv, x, w.data[:, :, 0, 0])


def relu6(x: Tensor) -> Tensor:
    return _autodiff.eager(_autodiff.Tape.relu6, x)


def batchnorm(x: Tensor, p: BatchNormParams, training: bool = False) -> Tensor:
    """Per-channel normalization; training mode updates ``p``'s running
    statistics in place (see ``Tape.batchnorm``)."""
    return _autodiff.eager(_autodiff.Tape.batchnorm, x, p.gamma, p.beta, p,
                           training)


def bilinear_upsample(x: Tensor, factor: int) -> Tensor:
    """Half-pixel-center bilinear interpolation by an integer factor."""
    return _autodiff.eager(_autodiff.Tape.bilinear_upsample, x, factor)


def avgpool(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Average pooling without padding."""
    return _autodiff.eager(_autodiff.Tape.avgpool, x, kernel, stride)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    return _autodiff.eager(_autodiff.Tape.concat_channels, a, b)


def take_first_channels(x: Tensor, m: int) -> Tensor:
    return _autodiff.eager(_autodiff.Tape.take_first_channels, x, m)


def eltadd(a: Tensor, b: Tensor) -> Tensor:
    return _autodiff.eager(_autodiff.Tape.eltadd, a, b)
