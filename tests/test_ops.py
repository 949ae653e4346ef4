"""Optimized neural ops: hand-computed cases, oracle equivalence, and
algebraic laws."""
import itertools
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hbonet import ops
from hbonet.autodiff import Tape, backward
from hbonet.network import build_network, forward, hbonet_spec
from hbonet.ops import BatchNormParams
from hbonet.tensor import (
    ConvKernel,
    DimensionError,
    Tensor,
    UnsupportedKernelError,
    conv2d_oracle,
    tensor_equal_within,
)
from hbonet.train import ToyConfig, make_synthetic_dataset, train_toy


class TestDepthwiseConv:
    def test_padding_pattern_hand_counted(self):
        """Ones kernel over a ones input: interior 9, edges 6, corners 4."""
        x = Tensor.full((1, 2, 4, 4), 1.0)
        w = ConvKernel(np.ones((2, 1, 3, 3)), groups=2)
        out = ops.depthwise_conv(x, w, stride=1)
        assert out.shape == (1, 2, 4, 4)
        for c in range(2):
            plane = out.data[0, c]
            assert plane[0, 0] == 4.0
            assert plane[0, 1] == 6.0
            assert plane[1, 1] == 9.0

    def test_stride2_halves_112_to_56(self):
        x = Tensor.zeros(1, 36, 112, 112)
        w = ConvKernel(np.zeros((36, 1, 3, 3)), groups=36)
        out = ops.depthwise_conv(x, w, stride=2)
        assert out.shape == (1, 36, 56, 56)

    def test_even_kernel_rejected(self):
        x = Tensor.zeros(1, 2, 4, 4)
        w = ConvKernel(np.zeros((2, 1, 4, 4)), groups=2)
        with pytest.raises(UnsupportedKernelError):
            ops.depthwise_conv(x, w)

    def test_group_mismatch(self):
        x = Tensor.zeros(1, 3, 4, 4)
        w = ConvKernel(np.zeros((2, 1, 3, 3)), groups=2)
        with pytest.raises(DimensionError):
            ops.depthwise_conv(x, w)

    @pytest.mark.parametrize("stride,k", [(1, 3), (2, 3), (1, 5), (2, 5)])
    def test_matches_oracle(self, stride, k):
        rng = np.random.default_rng(stride * 10 + k)
        x = Tensor(rng.normal(size=(2, 4, 9, 9)))
        w = ConvKernel(rng.normal(size=(4, 1, k, k)), groups=4)
        got = ops.depthwise_conv(x, w, stride=stride)
        want = conv2d_oracle(x, w, stride=stride, pad=(k - 1) // 2)
        assert tensor_equal_within(got, want, 1e-12)


def _depthwise_reference(x, w, stride, pad):
    """Plain NCHW shift-and-add over every tap, padding taps included: the
    bitwise reference for ``ops._depthwise_nd``; w has shape (c, kh, kw)."""
    kh, kw = w.shape[1], w.shape[2]
    xp = ops._pad_nd(x, pad)
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((x.shape[0], x.shape[1], oh, ow))
    for i in range(kh):
        for j in range(kw):
            out += w[None, :, i, j, None, None] * \
                xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return out


def _depthwise_vjp_reference(x, w, g, stride, pad=None):
    """Per-tap NCHW (dx, dw), pad (k-1)/2 unless given: the bitwise
    reference for the depthwise VJP of ``Tape.depthwise_conv``, with or
    without an explicit pad; w has shape (c, kh, kw)."""
    kh, kw = w.shape[1], w.shape[2]
    pad = (kh - 1) // 2 if pad is None else pad
    xp = ops._pad_nd(x, pad)
    oh, ow = g.shape[2], g.shape[3]
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            dw[:, i, j] = (g * sl).sum(axis=(0, 2, 3))
            dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                g * w[None, :, i, j, None, None]
    h, wd = x.shape[2], x.shape[3]
    return dxp[:, :, pad:pad + h, pad:pad + wd], dw


class TestDepthwiseBitwise:
    """The depthwise forward, at batch 1 and above, and its VJP against the
    NCHW reference: forward and dx byte for byte, dw byte for byte on the
    live taps and by value on all (a tap that sees only padding is skipped
    and is exactly 0 here)."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.sampled_from([1, 3, 32]), c=st.integers(1, 4),
           h=st.integers(1, 16), w=st.integers(1, 16),
           k=st.sampled_from([3, 5]), stride=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 16))
    @example(n=32, c=3, h=1, w=1, k=3, stride=1, seed=0)
    @example(n=3, c=2, h=2, w=3, k=5, stride=2, seed=1)
    @example(n=1, c=4, h=16, w=16, k=5, stride=2, seed=2)
    # many channel blocks, the last one ragged
    @example(n=1, c=37, h=112, w=112, k=5, stride=1, seed=3)
    @example(n=1, c=37, h=112, w=112, k=5, stride=2, seed=4)
    # oh*wq > _DW_BLOCK: each block holds one channel
    @example(n=1, c=3, h=190, w=190, k=3, stride=1, seed=5)
    def test_forward_dx_dw_equal_reference(self, n, c, h, w, k, stride, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w))
        wt = rng.normal(size=(c, k, k))
        tape = Tape()
        y = tape.depthwise_conv(tape.leaf(x), tape.leaf(wt), stride=stride)
        pad = (k - 1) // 2
        want = _depthwise_reference(x, wt, stride, pad)
        assert y.value.shape == want.shape
        assert y.value.tobytes() == want.tobytes()
        geo = ops._depthwise_geometry(k, k, stride, pad, h, w)
        g = rng.normal(size=want.shape)
        dx, dw = y.vjp(g)
        want_dx, want_dw = _depthwise_vjp_reference(x, wt, g, stride)
        assert dx.shape == want_dx.shape
        assert dx.tobytes() == want_dx.tobytes()
        assert np.array_equal(dw, want_dw)
        rows, cols, *_ = zip(*geo.taps)
        assert dw[:, rows, cols].tobytes() == want_dw[:, rows, cols].tobytes()

    @pytest.mark.parametrize("shape,stride,slack_mb", [
        pytest.param((1, 96, 112, 112), 2, 3, id="n1"),
        pytest.param((32, 32, 16, 16), 1, 1.5, id="n32"),
    ])
    def test_flat_layout_holds_one_block_of_planes(self, shape, stride, slack_mb):
        """A call builds each channel block's phase planes just before its
        sweep, into one block-sized buffer. On MobileNetV2's widest stride-2
        depthwise input it holds its output plus 1.5 MB; it held 10.2 MB
        more while it copied the whole input into phase planes up front. On a
        (32, 32, 16, 16) input it holds its output plus 0.7 MB; it held
        4.5 MB more while a batch swept every channel's planes at once."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape)
        w = rng.normal(size=(shape[1], 3, 3))
        tracemalloc.start()
        try:
            out = ops._depthwise_nd(x, w, stride, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + slack_mb * 2**20

    # a batch and a single image
    GROUPED = pytest.mark.parametrize("kh,kw,stride,pad,n", [
        pytest.param(*geom, n, id="-".join(map(str, geom)) + suffix)
        for n, suffix in ((3, ""), (1, "-n1"))
        for geom in [(1, 3, 1, 0), (3, 1, 2, 1), (2, 2, 1, 1), (5, 3, 2, 3),
                     (3, 3, 3, 0)]
    ])

    @GROUPED
    def test_grouped_conv_path_equals_reference(self, kh, kw, stride, pad, n):
        """conv2d with groups == channels reaches the same kernel, at any
        batch size, with any kernel shape and padding."""
        rng = np.random.default_rng(kh * 100 + kw * 10 + stride + pad)
        x = rng.normal(size=(n, 4, 7, 6))
        w = rng.normal(size=(4, 1, kh, kw))
        got = ops.conv2d(Tensor(x), ConvKernel(w, groups=4), stride, pad)
        want = _depthwise_reference(x, w[:, 0], stride, pad)
        assert got.data.tobytes() == want.tobytes()

    def test_grouped_conv_runs_the_depthwise_tape_op(self, monkeypatch):
        """conv2d with groups == channels is one ``Tape.depthwise_conv``
        call with its explicit pad, so a traced run names it depthwise."""
        calls, inner = [], Tape.depthwise_conv
        monkeypatch.setattr(Tape, "depthwise_conv", lambda self, x, w, *args:
                            calls.append(args) or inner(self, x, w, *args))
        ops.conv2d(Tensor(np.ones((1, 2, 5, 5))),
                   ConvKernel(np.ones((2, 1, 3, 2)), groups=2), 2, 1)
        assert calls == [(2, 1)]

    @GROUPED
    def test_grouped_conv_vjp_equals_reference(self, kh, kw, stride, pad, n):
        """The VJP of ``Tape.depthwise_conv`` with an explicit pad:
        non-square and even kernels, any padding, stride 3; dx and dw byte
        for byte."""
        rng = np.random.default_rng(kh * 100 + kw * 10 + stride + pad + n)
        x = rng.normal(size=(n, 4, 7, 6))
        w = rng.normal(size=(4, kh, kw))
        tape = Tape()
        y = tape.depthwise_conv(tape.leaf(x), tape.leaf(w), stride, pad)
        g = rng.normal(size=y.shape)
        dx, dw = y.vjp(g)
        want_dx, want_dw = _depthwise_vjp_reference(x, w, g, stride, pad)
        assert dx.tobytes() == want_dx.tobytes()
        assert dw.tobytes() == want_dw.tobytes()


class TestDepthwiseWindow:
    """The phase planes hold only the window that the live taps read. On the
    toy network's 1x1 and 2x2 maps most of the padded input is padding."""

    @pytest.mark.parametrize("n", [1, 32])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("hw", [1, 2])
    def test_trimmed_planes_equal_full_pad_reference(self, hw, k, stride, n):
        """Each live tap reads from the trimmed planes the bytes it reads
        from the whole padded input; forward, dx and dw equal the NCHW
        references byte for byte."""
        rng = np.random.default_rng(hw * 1000 + k * 100 + stride * 10 + n)
        c, pad = 3, (k - 1) // 2
        x = rng.normal(size=(n, c, hw, hw))
        wt = rng.normal(size=(c, k, k))
        want = _depthwise_reference(x, wt, stride, pad)
        oh, ow = want.shape[2], want.shape[3]
        geo = ops._depthwise_geometry(k, k, stride, pad, hw, hw)
        planes = ops._phase_planes(x, geo)
        xp = ops._pad_nd(x, pad)
        for tap in geo.taps:
            i, j = tap[:2]
            full = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            got = ops._tap(planes, tap, oh, ow)
            assert got.tobytes() == np.ascontiguousarray(
                full.transpose(1, 2, 3, 0)).tobytes()
        assert ops._depthwise_nd(x, wt, stride, pad).tobytes() == want.tobytes()
        tape = Tape()
        y = tape.depthwise_conv(tape.leaf(x), tape.leaf(wt), stride=stride)
        g = rng.normal(size=want.shape)
        dx, dw = y.vjp(g)
        want_dx, want_dw = _depthwise_vjp_reference(x, wt, g, stride)
        assert dx.tobytes() == want_dx.tobytes()
        assert dw.tobytes() == want_dw.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(kh=st.integers(1, 5), kw=st.integers(1, 5), stride=st.integers(1, 3),
           pad=st.integers(0, 3), h=st.integers(1, 9), w=st.integers(1, 9),
           n=st.integers(1, 2), seed=st.integers(0, 2 ** 16))
    @example(kh=1, kw=1, stride=3, pad=2, h=1, w=1, n=1, seed=0)   # no live tap
    @example(kh=5, kw=3, stride=2, pad=3, h=2, w=9, n=2, seed=1)
    @example(kh=1, kw=3, stride=2, pad=1, h=1, w=3, n=1, seed=2)   # rows dead, columns live
    def test_geometry_taps_read_their_windows(self, kh, kw, stride, pad, h, w, n, seed):
        """Through ``_tap`` on ``_phase_planes`` each live tap reads exactly
        the bytes of its strided window of the padded input; every kernel
        offset left out reads only padding; the planes are no larger than
        the rows and columns the live taps read, an output's worth where no
        tap is live, and then hold no real pixel."""
        assume(h + 2 * pad >= kh and w + 2 * pad >= kw)
        x = np.random.default_rng(seed).uniform(1.0, 2.0, size=(n, 2, h, w))
        oh, ow = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
        geo = ops._depthwise_geometry(kh, kw, stride, pad, h, w)
        assert (geo.oh, geo.ow) == (oh, ow)
        planes = ops._phase_planes(x, geo)

        def window(a, i, j):
            return ops._pad_nd(a, pad)[:, :, i:i + stride * oh:stride,
                                       j:j + stride * ow:stride]

        live = [tap[:2] for tap in geo.taps]
        assert live == sorted(set(live))    # i-major, each once
        for tap in geo.taps:
            want = np.ascontiguousarray(window(x, *tap[:2]).transpose(1, 2, 3, 0))
            got = ops._tap(planes, tap, oh, ow)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        real = np.ones_like(x)
        for i in range(kh):
            for j in range(kw):
                assert ((i, j) in live) == window(real, i, j).any()
        for axis, out, offsets in ((3, oh, [i for i, _ in live]),
                                   (4, ow, [j for _, j in live])):
            spread = max(offsets) - min(offsets) if offsets else 0
            read = (out - 1) * stride + spread + 1
            assert planes.shape[axis] <= -(-read // stride)
        if not live:
            assert not planes.any()

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_live_tap_gives_zeros(self, n):
        """A 1x1 kernel at stride 3 and pad 2 over a 1x1 map reads only
        padding: output, dx and dw are +0, as the reference gives."""
        rng = np.random.default_rng(n)
        x, w = rng.normal(size=(n, 2, 1, 1)), rng.normal(size=(2, 1, 1, 1))
        got = ops.conv2d(Tensor(x), ConvKernel(w, groups=2), 3, 2)
        want = _depthwise_reference(x, w[:, 0], 3, 2)
        assert got.shape == (n, 2, 2, 2)
        assert got.data.tobytes() == want.tobytes() == np.zeros(want.shape).tobytes()
        tape = Tape()
        y = tape.depthwise_conv(tape.leaf(x), tape.leaf(w[:, 0]), 3, 2)
        g = rng.normal(size=y.shape)
        dx, dw = y.vjp(g)
        want_dx, want_dw = _depthwise_vjp_reference(x, w[:, 0], g, 3, 2)
        assert dx.tobytes() == want_dx.tobytes() == np.zeros(x.shape).tobytes()
        assert dw.tobytes() == want_dw.tobytes()

    @pytest.mark.parametrize("k,stride,pad,hw", [
        (3, 1, 1, 1), (3, 2, 1, 2), (5, 1, 2, 1), (5, 2, 2, 2), (5, 1, 2, 2)])
    def test_planes_hold_only_the_live_window(self, k, stride, pad, hw):
        """Each plane has as many rows (and columns) as the padded rows from
        the first live tap's first read to the last one's last, over the
        stride: fewer than the whole padded input needs."""
        x = np.ones((2, 3, hw, hw))
        oh = (hw + 2 * pad - k) // stride + 1
        geo = ops._depthwise_geometry(k, k, stride, pad, hw, hw)
        rows = [i for i, *_ in geo.taps]
        planes = ops._phase_planes(x, geo)
        read = (oh - 1) * stride + max(rows) - min(rows) + 1
        assert planes.shape[3:5] == (-(-read // stride),) * 2
        assert planes.shape[3] < -(-(hw + 2 * pad) // stride)


@settings(max_examples=150, deadline=None)
@given(t=st.integers(1, 3), n=st.integers(1, 33), c=st.integers(1, 5),
       h=st.integers(1, 20), w=st.integers(1, 20),
       zeros=st.sampled_from(["none", "some", "signed", "all negative"]),
       seed=st.integers(0, 2 ** 16))
@example(t=1, n=32, c=1, h=16, w=16, zeros="none", seed=0)     # one merged run
@example(t=2, n=33, c=3, h=1, w=1, zeros="signed", seed=1)     # 1x1 maps
@example(t=1, n=5, c=2, h=20, w=19, zeros="none", seed=2)      # uneven split
@example(t=1, n=1, c=4, h=16, w=16, zeros="all negative", seed=3)
def test_nchw_sums_equal_numpy_sum(t, n, c, h, w, zeros, seed):
    """``ops._nchw_sums`` writes down numpy's ``sum(axis=(0, 2, 3))`` order;
    this fails if a numpy upgrade changes that order."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t, n, c, h, w)) * 10.0 ** rng.integers(-3, 4, (t, n, c, h, w))
    if zeros == "some":
        x[rng.random(x.shape) < 0.5] = 0.0
    elif zeros == "signed":
        x = np.where(rng.random(x.shape) < 0.5, -0.0, 0.0)
    elif zeros == "all negative":
        x = np.full(x.shape, -0.0)
    want = np.stack([x[k].sum(axis=(0, 2, 3)) for k in range(t)])
    got = ops._nchw_sums(np.ascontiguousarray(x.transpose(0, 2, 3, 4, 1)))
    assert got.tobytes() == want.tobytes()


# the edge values of the per-channel sums: signed zeros, subnormals and
# magnitudes whose 480-element sums stay finite
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e300, -1e300]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), c=st.integers(1, 8),
       hw=st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (1, 5), (2, 3),
                           (3, 2), (1, 7), (2, 4), (3, 3), (2, 5), (1, 11), (3, 4)]),
       values=st.sampled_from(["normal", "edge", "mixed", "all negative zero"]),
       first=st.integers(0, 1), seed=st.integers(0, 2 ** 16))
@example(n=32, c=72, hw=(2, 2), values="normal", first=0, seed=0)   # toy 2x2 layer
@example(n=32, c=216, hw=(1, 1), values="normal", first=0, seed=1)  # toy 1x1 layer
@example(n=2, c=1, hw=(1, 2), values="normal", first=0, seed=2)     # one merged run
@example(n=3, c=4, hw=(2, 2), values="all negative zero", first=0, seed=3)
def test_channel_sums_equal_numpy_sum(n, c, hw, values, first, seed):
    """``ops._channel_sums`` and the means taken from it are numpy's
    ``sum(axis=(0, 2, 3))`` and ``mean(axis=(0, 2, 3))`` bytes, on arrays
    and on the channel slices a concat's gradient passes on (``first``
    channels dropped); this fails if a numpy upgrade changes that order."""
    rng = np.random.default_rng(seed)
    shape = (n, c + first, *hw)
    edge = rng.choice(_EDGE_VALUES, size=shape)
    x = {"normal": rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape),
         "edge": edge,
         "mixed": np.where(rng.random(shape) < 0.5, edge, rng.normal(size=shape)),
         "all negative zero": np.full(shape, -0.0)}[values][:, first:]
    got = ops._channel_sums(x)
    assert got.tobytes() == x.sum(axis=(0, 2, 3)).tobytes()
    count = x.size // x.shape[1]
    assert (got / count).tobytes() == x.mean(axis=(0, 2, 3)).tobytes()


class TestPointwiseConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 5, 3, 3)))
        w = ConvKernel(np.eye(5).reshape(5, 5, 1, 1))
        assert tensor_equal_within(ops.pointwise_conv(x, w), x, 0.0)

    def test_rgb_sum(self):
        r, g, b = 0.2, 0.5, 0.9
        x = np.empty((1, 3, 4, 4))
        x[0, 0], x[0, 1], x[0, 2] = r, g, b
        w = ConvKernel(np.ones((1, 3, 1, 1)))
        out = ops.pointwise_conv(Tensor(x), w)
        assert np.allclose(out.data, r + g + b)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 6, 5, 5)))
        w = ConvKernel(rng.normal(size=(4, 6, 1, 1)))
        got = ops.pointwise_conv(x, w)
        want = conv2d_oracle(x, w, stride=1, pad=0)
        assert tensor_equal_within(got, want, 1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ops.pointwise_conv(Tensor.zeros(1, 3, 2, 2),
                               ConvKernel(np.zeros((2, 4, 1, 1))))


class TestDenseConv2d:
    @pytest.mark.parametrize("shape,kernel,groups,stride,pad,error", [
        ((1, 2, 2, 2), (2, 1, 5, 5), 2, 1, 0, DimensionError),
        ((1, 2, 4, 4), (3, 2, 5, 1), 1, 1, 0, DimensionError),
        ((1, 2, 4, 4), (3, 2, 3, 3), 1, 0, 1, ValueError),
        ((1, 2, 4, 4), (2, 1, 3, 3), 2, 1, -1, ValueError),
    ], ids=["kernel-over-map", "kernel-over-height", "stride-0", "pad-negative"])
    def test_bad_geometry_raises_like_oracle(self, shape, kernel, groups,
                                             stride, pad, error):
        x = Tensor.zeros(*shape)
        w = ConvKernel(np.zeros(kernel), groups=groups)
        for conv in (ops.conv2d, conv2d_oracle):
            with pytest.raises(error, match="fit|stride|pad"):
                conv(x, w, stride, pad)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_matches_oracle(self, stride, pad):
        rng = np.random.default_rng(stride * 7 + pad)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = ConvKernel(rng.normal(size=(5, 3, 3, 3)))
        got = ops.conv2d(x, w, stride=stride, pad=pad)
        want = conv2d_oracle(x, w, stride=stride, pad=pad)
        assert tensor_equal_within(got, want, 1e-12)

    @pytest.mark.parametrize("kernel,groups", [((4, 3, 3, 3), 2), ((12, 1, 3, 3), 6)],
                             ids=["general-groups", "channel-multiplier"])
    def test_general_groups_unsupported(self, kernel, groups):
        """Only groups 1 and depthwise groups == c_out == channels are
        supported; conv2d_oracle keeps general groups."""
        x = Tensor.zeros(1, 6, 6, 6)
        w = ConvKernel(np.zeros(kernel), groups=groups)
        with pytest.raises(UnsupportedKernelError, match="groups"):
            ops.conv2d(x, w, stride=1, pad=1)
        assert conv2d_oracle(x, w, stride=1, pad=1).shape == (1, kernel[0], 6, 6)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), c=st.integers(1, 5), o=st.integers(1, 6),
       kh=st.integers(1, 4), kw=st.integers(1, 4), stride=st.integers(1, 3),
       pad=st.integers(0, 2), h=st.integers(1, 9), w=st.integers(1, 9),
       seed=st.integers(0, 2 ** 16))
# the stem's geometry: 3 -> 32 channels, 3x3 at stride 2, pad 1
@example(n=1, c=3, o=32, kh=3, kw=3, stride=2, pad=1, h=9, w=9, seed=0)
@example(n=4, c=3, o=6, kh=2, kw=3, stride=2, pad=0, h=7, w=5, seed=1)
def test_gemm_kernels_match_oracle_into_fresh_arrays(n, c, o, kh, kw, stride,
                                                     pad, h, w, seed):
    """Dense ``conv2d`` (groups 1) and ``pointwise_conv`` match the oracle
    at 1e-12. Each kernel's output is a fresh C-contiguous, writeable NCHW
    array sharing no memory with its operands, since ``_apply_layer`` writes
    the batch norm and ReLU6 into it through ``_out``."""
    assume(kh <= h + 2 * pad and kw <= w + 2 * pad)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w))
    dense = rng.normal(size=(o, c, kh, kw))
    point = rng.normal(size=(o, c))
    X = Tensor(x)
    for got, want in (
            (ops.conv2d(X, ConvKernel(dense), stride, pad),
             conv2d_oracle(X, ConvKernel(dense), stride, pad)),
            (ops.pointwise_conv(X, ConvKernel(point[:, :, None, None])),
             conv2d_oracle(X, ConvKernel(point[:, :, None, None]), 1, 0))):
        assert tensor_equal_within(got, want, 1e-12)
    for out, wt in ((ops._conv2d_nd(x, dense, stride, pad), dense),
                    (ops._conv2d_nd(x, point[:, :, None, None], 1, 0), point)):
        assert out.flags.c_contiguous and out.flags.writeable
        assert not (np.shares_memory(out, x) or np.shares_memory(out, wt))


def _conv2d_vjp_reference(x, w, g, stride, pad):
    """(dx, dw) of a dense conv from two ``np.tensordot`` contractions over
    a window view of the padded input, then a per-tap scatter of g times
    the weights into a padded dx, i-major: the bitwise reference for
    ``Tape.conv2d``'s dw; its dx orients the weight GEMM the other way."""
    kh, kw = w.shape[2], w.shape[3]
    xp = ops._pad_nd(x, pad)
    win = np.lib.stride_tricks.sliding_window_view(
        xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    dw = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
    dxp = np.zeros_like(xp)
    gw = np.tensordot(g, w, axes=([1], [0]))   # (n, oh, ow, c, kh, kw)
    oh, ow = g.shape[2], g.shape[3]
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                gw[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    h, wd = x.shape[2], x.shape[3]
    return dxp[:, :, pad:pad + h, pad:pad + wd], dw


def _pointwise_vjp_reference(x, w, g):
    """(dx, dw) of a pointwise conv from the two ``np.dot`` calls that
    ``np.tensordot`` would make, on g as an (o, n*h*w) matrix: the bitwise
    reference for ``Tape.pointwise_conv``'s VJP; w has shape (o, c)."""
    n, c, h, wd = x.shape
    gm = g.transpose(1, 0, 2, 3).reshape(w.shape[0], -1)
    dw = np.dot(gm, x.transpose(0, 2, 3, 1).reshape(-1, c))
    dx = np.dot(w.T, gm).reshape(c, n, h, wd).transpose(1, 0, 2, 3)
    return dx, dw


def _gemm_conv_reference(x, w, stride, pad):
    """A dense conv as one GEMM over a C-contiguous copy of its columns,
    gathered one kernel tap at a time, and a pointwise conv ((o, c) weights)
    over numpy's reshape of the input's channel-major view: the bitwise
    reference for ``ops._conv2d_nd``."""
    n, c, h, wd = x.shape
    if w.ndim == 2:
        out = np.matmul(w, x.transpose(1, 0, 2, 3).reshape(c, -1))
        return np.ascontiguousarray(out.reshape(-1, n, h, wd).transpose(1, 0, 2, 3))
    o, _, kh, kw = w.shape
    oh, ow = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    xp = ops._pad_nd(x, pad)
    cols = np.empty((c, kh, kw, n, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + stride * oh:stride,
                               j:j + stride * ow:stride].transpose(1, 0, 2, 3)
    out = np.matmul(w.reshape(o, -1), cols.reshape(c * kh * kw, -1))
    return np.ascontiguousarray(out.reshape(o, n, oh, ow).transpose(1, 0, 2, 3))


def _add_columns_reference(cols, shape, stride, pad):
    """Each input pixel's sum, from +0, of the column entries that read it,
    taps i-major: one tap and output position at a time, padding skipped.
    The bitwise reference for ``ops._add_columns``."""
    n, c, h, w = shape
    _, kh, kw, _, oh, ow = cols.shape
    dx = np.zeros(shape)
    for i in range(kh):
        for j in range(kw):
            for r in range(oh):
                for q in range(ow):
                    row, col = r * stride + i - pad, q * stride + j - pad
                    if 0 <= row < h and 0 <= col < w:
                        dx[:, :, row, col] += cols[:, i, j, :, r, q].T
    return dx


class TestGemmConvVjp:
    """``Tape.conv2d`` and ``Tape.pointwise_conv`` share one GEMM and one
    VJP. Their outputs, dw of both ops and the pointwise dx are the bytes
    of the references; the dense dx, whose weight GEMM runs the other way,
    is within 1e-12. ``ops._add_columns`` is byte for byte the i-major
    scatter. A dense 1x1 kernel at stride 1 without padding runs the
    pointwise path, so its output is not compared with the dense
    reference's bytes, which it differs from over 1x1 maps."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 3, 32]), c=st.integers(1, 4), o=st.integers(1, 8),
           kh=st.integers(1, 3), kw=st.integers(1, 3), stride=st.integers(1, 2),
           pad=st.integers(0, 2), h=st.integers(1, 9), w=st.integers(1, 9),
           seed=st.integers(0, 2 ** 16))
    # the stems of the toy step and of 1.0@224, and the gradient check's conv
    @example(n=32, c=3, o=8, kh=3, kw=3, stride=2, pad=1, h=32, w=32, seed=0)
    @example(n=1, c=3, o=32, kh=3, kw=3, stride=2, pad=1, h=224, w=224, seed=4)
    @example(n=2, c=3, o=4, kh=3, kw=3, stride=2, pad=1, h=6, w=6, seed=1)
    @example(n=3, c=2, o=5, kh=1, kw=1, stride=1, pad=0, h=4, w=3, seed=2)
    # columns whose matrix numpy reshapes to a view that is not C-contiguous
    @example(n=1, c=1, o=1, kh=1, kw=2, stride=1, pad=0, h=1, w=3, seed=3)
    def test_dense(self, n, c, o, kh, kw, stride, pad, h, w, seed):
        assume(kh <= h + 2 * pad and kw <= w + 2 * pad)
        rng = np.random.default_rng(seed)
        x, wt = rng.normal(size=(n, c, h, w)), rng.normal(size=(o, c, kh, kw))
        tape = Tape()
        y = tape.conv2d(tape.leaf(x), tape.leaf(wt), stride, pad)
        if (kh, kw, stride, pad) != (1, 1, 1, 0):
            assert y.value.tobytes() == _gemm_conv_reference(x, wt, stride, pad).tobytes()
        g = rng.normal(size=y.shape)
        dx, dw = y.vjp(g)
        want_dx, want_dw = _conv2d_vjp_reference(x, wt, g, stride, pad)
        assert dw.shape == want_dw.shape and dw.tobytes() == want_dw.tobytes()
        assert dx.shape == want_dx.shape
        assert np.max(np.abs(dx - want_dx)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 3, 32]), c=st.integers(1, 12),
           o=st.integers(1, 12), h=st.integers(1, 9), w=st.integers(1, 9),
           seed=st.integers(0, 2 ** 16))
    @example(n=32, c=8, o=16, h=16, w=16, seed=0)
    @example(n=32, c=8, o=16, h=1, w=1, seed=1)     # an F-ordered column view
    def test_pointwise(self, n, c, o, h, w, seed):
        rng = np.random.default_rng(seed)
        x, wt = rng.normal(size=(n, c, h, w)), rng.normal(size=(o, c))
        tape = Tape()
        y = tape.pointwise_conv(tape.leaf(x), tape.leaf(wt))
        assert y.value.tobytes() == _gemm_conv_reference(x, wt, 1, 0).tobytes()
        g = rng.normal(size=y.shape)
        dx, dw = y.vjp(g)
        want_dx, want_dw = _pointwise_vjp_reference(x, wt, g)
        assert dw.shape == want_dw.shape and dw.tobytes() == want_dw.tobytes()
        assert dx.flags.c_contiguous
        assert dx.shape == want_dx.shape and dx.tobytes() == want_dx.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 3]), c=st.integers(1, 3),
           kh=st.integers(1, 3), kw=st.integers(1, 3), stride=st.integers(1, 2),
           pad=st.integers(0, 2), h=st.integers(1, 7), w=st.integers(1, 7),
           seed=st.integers(0, 2 ** 16))
    @example(n=1, c=1, kh=3, kw=3, stride=1, pad=1, h=5, w=5, seed=0)
    def test_add_columns_is_the_adjoint_scatter(self, n, c, kh, kw, stride, pad,
                                                h, w, seed):
        """``_add_columns`` equals the i-major reference byte for byte, and is
        the adjoint of ``_columns``: <cols(x), C> == <x, add_columns(C)>."""
        assume(kh <= h + 2 * pad and kw <= w + 2 * pad)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w))
        cols = ops._columns(x, kh, kw, stride, pad)
        d = rng.normal(size=cols.shape)
        got = ops._add_columns(d, x.shape, stride, pad)
        assert got.tobytes() == np.ascontiguousarray(
            _add_columns_reference(d, x.shape, stride, pad)).tobytes()
        assert np.isclose(np.vdot(cols, d), np.vdot(x, got), rtol=1e-12)
        if (kh, kw, stride, pad) == (1, 1, 1, 0):
            assert np.shares_memory(cols, x)


_GEOMETRY_CALLS = {
    "depthwise-stride": lambda x, v: ops.depthwise_conv(
        x, ConvKernel(np.ones((2, 1, 3, 3)), groups=2), stride=v),
    "conv2d-stride": lambda x, v: ops.conv2d(x, ConvKernel(np.ones((3, 2, 3, 3))), v, 1),
    "conv2d-pad": lambda x, v: ops.conv2d(x, ConvKernel(np.ones((3, 2, 3, 3))), 1, v),
    "grouped-conv-pad": lambda x, v: ops.conv2d(
        x, ConvKernel(np.ones((2, 1, 3, 3)), groups=2), 1, v),
    "upsample-factor": lambda x, v: ops.bilinear_upsample(x, v),
    "avgpool-kernel": lambda x, v: ops.avgpool(x, v, 2),
    "take-first": lambda x, v: ops.take_first_channels(x, v),
}


@pytest.mark.parametrize("op,value", [
    ("depthwise-stride", 2.0), ("conv2d-stride", 1.5), ("conv2d-pad", 1.0),
    ("upsample-factor", 2.0), ("avgpool-kernel", 2.0), ("take-first", 2.0),
    ("depthwise-stride", np.int64(2)), ("grouped-conv-pad", None),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_geometry_must_be_integer(op, value):
    """A float stride, pad, factor, kernel or channel count raises the op's
    ValueError from its shape rule, not a numpy TypeError from a kernel; a
    numpy integer is an integer. A None pad on a grouped conv2d is not
    ``Tape.depthwise_conv``'s default (k-1)/2, which conv2d does not take."""
    x = Tensor(np.arange(32.0).reshape(1, 2, 4, 4))
    call = _GEOMETRY_CALLS[op]
    if isinstance(value, np.integer):
        assert call(x, value).data.tobytes() == call(x, int(value)).data.tobytes()
    else:
        with pytest.raises(ValueError, match="integer"):
            call(x, value)


class TestRelu6:
    def test_definition(self):
        x = Tensor(np.array([-1.0, 3.0, 8.0, 0.0]).reshape(1, 1, 1, 4))
        out = ops.relu6(x)
        assert out.data.ravel().tolist() == [0.0, 3.0, 6.0, 0.0]

    def test_identity_region(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.uniform(0, 6, size=(1, 2, 3, 3)))
        assert tensor_equal_within(ops.relu6(x), x, 0.0)


class TestBatchNorm:
    @pytest.mark.parametrize("c", [1, 3, 96])
    def test_identity_equals_checked_construction(self, c):
        """``identity`` skips the checks but makes what the checked
        constructor makes: four distinct, writable, C-contiguous float64
        (c,) vectors, none shared with another identity."""
        p, q = BatchNormParams.identity(c), BatchNormParams.identity(c)
        want = BatchNormParams(np.ones(c), np.zeros(c))
        arrays = ("gamma", "beta", "running_mean", "running_var")
        for name in arrays:
            a = getattr(p, name)
            assert np.array_equal(a, getattr(want, name)), name
            assert a.dtype == np.float64 and a.shape == (c,), name
            assert a.flags.writeable and a.flags.c_contiguous, name
        assert (p.eps, p.momentum) == (want.eps, want.momentum)
        assert p.channels == c
        for a, b in itertools.combinations([getattr(r, n) for r in (p, q)
                                            for n in arrays], 2):
            assert not np.shares_memory(a, b)
        p.running_var *= 0.5    # as a training forward updates it in place
        assert np.array_equal(p.gamma, np.ones(c))
        for name in arrays:
            assert np.array_equal(getattr(q, name), getattr(want, name)), name

    def test_identity_parameters_inference(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        p = BatchNormParams.identity(3)
        out = ops.batchnorm(x, p, training=False)
        # only the eps in 1/sqrt(1 + eps) perturbs the identity
        assert np.max(np.abs(out.data - x.data)) <= 1e-5 * np.max(np.abs(x.data))

    def test_training_normalizes(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(3.0, 2.5, size=(8, 3, 6, 6)))
        p = BatchNormParams.identity(3)
        out = ops.batchnorm(x, p, training=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-10
        assert np.max(np.abs(var - 1.0)) < 1e-4

    def test_training_updates_running_stats(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(2.0, 1.0, size=(8, 2, 4, 4)))
        p = BatchNormParams.identity(2)
        ops.batchnorm(x, p, training=True)
        batch_mean = x.data.mean(axis=(0, 2, 3))
        assert np.allclose(p.running_mean, 0.1 * batch_mean)

    def test_affine_law(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        p = BatchNormParams(gamma=np.full(2, 2.0), beta=np.full(2, 3.0))
        xhat = ops.batchnorm(x, BatchNormParams.identity(2), training=False)
        out = ops.batchnorm(x, p, training=False)
        assert np.max(np.abs(out.data - (2.0 * xhat.data + 3.0))) < 1e-12

    def test_inference_is_per_channel_affine(self):
        """bn(a*x) == a*bn(x) + (1-a)*shift with the closed-form shift."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 4, 4))
        p = BatchNormParams(
            gamma=rng.normal(1, 0.2, 3), beta=rng.normal(size=3),
            running_mean=rng.normal(size=3), running_var=rng.uniform(0.5, 2, 3))
        a = 1.7
        lhs = ops.batchnorm(Tensor(a * x), p, training=False).data
        bnx = ops.batchnorm(Tensor(x), p, training=False).data
        shift = (p.beta - p.running_mean * p.gamma
                 / np.sqrt(p.running_var + p.eps))[None, :, None, None]
        assert np.max(np.abs(lhs - (a * bnx + (1 - a) * shift))) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ops.batchnorm(Tensor.zeros(1, 3, 2, 2),
                          BatchNormParams.identity(2))

    @pytest.mark.parametrize("field,value", [
        ("eps", np.nan), ("eps", np.inf), ("momentum", np.nan),
        ("momentum", -0.1), ("momentum", 1.5),
        ("running_mean", [0.0, np.nan]), ("running_mean", [np.inf, 0.0]),
        ("running_var", [1.0, np.nan]), ("running_var", [np.inf, 1.0]),
        ("gamma", 1.0),
    ])
    def test_bad_parameters_rejected(self, field, value):
        """A non-finite eps, a momentum outside [0, 1] or a non-finite
        running statistic raises: a NaN in any of them would spread NaN
        through every training batch norm. A gamma that is not a vector
        raises too, naming its shape."""
        with pytest.raises(ValueError, match=field):
            BatchNormParams(**{"gamma": np.ones(2), "beta": np.zeros(2), field: value})


@pytest.mark.parametrize("in_place", [False, True])
@pytest.mark.parametrize("shape", [(1, 5, 16, 16), (2, 5, 4, 4)],
                         ids=["long-rows", "short-rows"])
def test_epilogue_kernels_equal_their_formulas(shape, in_place):
    """The folded batch norm and ReLU6 give the bytes of x * scale + shift
    and min(max(x, 0), 6), into a fresh array or over their input."""
    rng = np.random.default_rng(12)
    x = rng.normal(0.0, 4.0, size=shape)
    c = shape[1]
    mean, var = rng.normal(size=c), rng.uniform(0.2, 3.0, c)
    gamma, beta = rng.normal(1.0, 0.3, c), rng.normal(size=c)
    scale = gamma / np.sqrt(var + 1e-5)
    shift = beta - mean * scale
    bn_want = x * scale[None, :, None, None] + shift[None, :, None, None]
    relu_want = np.minimum(np.maximum(bn_want, 0.0), 6.0)
    buf = x.copy()
    out = buf if in_place else None
    bn = ops._bn_affine_nd(buf, mean, var, gamma, beta, 1e-5, out=out)
    assert bn.tobytes() == bn_want.tobytes()
    relu = ops._relu6_nd(bn, out=out)
    assert relu.tobytes() == relu_want.tobytes()
    assert (relu is buf) == in_place


class TestBilinearUpsample:
    def test_factor_one_identity(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 2, 5, 5)))
        assert tensor_equal_within(ops.bilinear_upsample(x, 1), x, 0.0)

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_constant_preserved_exactly(self, factor):
        x = Tensor.full((1, 2, 4, 4), 2.5)
        out = ops.bilinear_upsample(x, factor)
        assert out.shape == (1, 2, 4 * factor, 4 * factor)
        assert np.all(out.data == 2.5)

    def test_2x2_factor2_hand_values(self):
        """Half-pixel-center interpolation of [[0,1],[2,3]], worked by hand:
        source coord (d + 0.5)/2 - 0.5 with border clamping gives 1-D weights
        [x0, .75x0+.25x1, .25x0+.75x1, x1] along each axis."""
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        out = ops.bilinear_upsample(x, 2)
        expected = np.array([
            [0.00, 0.25, 0.75, 1.00],
            [0.50, 0.75, 1.25, 1.50],
            [1.50, 1.75, 2.25, 2.50],
            [2.00, 2.25, 2.75, 3.00],
        ])
        assert np.max(np.abs(out.data[0, 0] - expected)) < 1e-15

    def test_corner_values_preserved(self):
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        out = ops.bilinear_upsample(x, 2).data[0, 0]
        assert (out[0, 0], out[0, -1], out[-1, 0], out[-1, -1]) == (0, 1, 2, 3)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            ops.bilinear_upsample(Tensor.zeros(1, 1, 2, 2), 0)


class TestAvgPool:
    def test_global_pool_shape(self):
        x = Tensor.zeros(1, 1600, 7, 7)
        out = ops.avgpool(x, 7, 7)
        assert out.shape == (1, 1600, 1, 1)

    def test_constant_input(self):
        x = Tensor.full((1, 3, 6, 6), 1.25)
        out = ops.avgpool(x, 2, 2)
        assert np.all(out.data == 1.25)

    def test_2x2_mean(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2))
        out = ops.avgpool(x, 2, 2)
        assert out.data.ravel().tolist() == [4.0]

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            ops.avgpool(Tensor.zeros(1, 1, 3, 3), 4, 1)


def _avgpool_reference(x, kernel, stride):
    """Mean over the sliding-window view: the bitwise reference for
    ``ops._avgpool_nd``."""
    win = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel),
                                                   axis=(2, 3))
    return win[:, :, ::stride, ::stride].mean(axis=(-2, -1))


# half the draws take the 2x2 stride-2 fast path
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), c=st.integers(1, 5), h=st.integers(1, 17),
       w=st.integers(1, 17),
       pool=st.sampled_from([(2, 2)] * 4 + [(1, 1), (2, 1), (3, 2), (7, 7)]),
       seed=st.integers(0, 2 ** 16))
@example(n=1, c=3, h=7, w=7, pool=(7, 7), seed=0)
@example(n=2, c=2, h=5, w=3, pool=(2, 2), seed=1)   # one output column
@example(n=1, c=4, h=9, w=10, pool=(2, 2), seed=2)
def test_avgpool_equals_window_mean(n, c, h, w, pool, seed):
    kernel, stride = pool
    assume(kernel <= min(h, w))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c, h, w)) * 10.0 ** rng.integers(-3, 4, (n, c, h, w))
    want = _avgpool_reference(x, kernel, stride)
    assert ops.avgpool(Tensor(x), kernel, stride).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape,pool", [
    ((1, 1600, 7, 7), (7, 7)), ((1, 1280, 10, 10), (10, 10)),
    ((3, 1, 5, 5), (5, 5)), ((1, 1, 9, 9), (9, 9)), ((32, 300, 1, 1), (1, 1)),
    ((2, 4, 2, 2), (2, 2)), ((4, 3, 16, 16), (16, 16)),
    ((2, 3, 5, 3), (2, 2)), ((3, 2, 4, 2), (2, 2)),   # one output column
    ((2, 3, 4, 6), (2, 2)), ((1, 4, 9, 10), (2, 2)),  # two or more columns
])
@pytest.mark.parametrize("zeros", ["none", "signed", "all negative"])
def test_stated_pool_orders_equal_window_mean_with_signed_zeros(shape, pool, zeros):
    """The global pool (``ops._nchw_sums``), the one-column 2x2 pool (taps
    in sequence from +0) and the wider 2x2 pool (pairs, then + 0) give the
    window mean's bits, also where the sum is a zero of either sign."""
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape)
    if zeros == "signed":
        x[rng.random(shape) < 0.5] *= -0.0
        x[rng.random(shape) < 0.3] = 0.0
    elif zeros == "all negative":
        x = np.full(shape, -0.0)
    want = _avgpool_reference(x, *pool)
    assert ops.avgpool(Tensor(x), *pool).data.tobytes() == want.tobytes()


class TestChannelOps:
    def test_concat_shape(self):
        a, b = Tensor.zeros(1, 10, 4, 4), Tensor.zeros(1, 10, 4, 4)
        assert ops.concat_channels(a, b).shape == (1, 20, 4, 4)

    def test_eltadd_identity(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        out = ops.eltadd(x, Tensor.zeros(2, 3, 4, 4))
        assert tensor_equal_within(out, x, 0.0)

    def test_take_first_is_a_view_on_a_tape_and_frozen_in_public(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 5, 3, 3))
        tape = Tape()
        xn = tape.leaf(x)
        y = tape.take_first_channels(xn, 3)
        assert np.shares_memory(y.value, xn.value)
        assert y.value.tobytes() == x[:, :3].tobytes()
        t = ops.take_first_channels(Tensor(x), 3)
        assert not t.data.flags.writeable
        assert t.data.tobytes() == x[:, :3].tobytes()

    def test_take_first_inverts_concat(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.normal(size=(1, 3, 4, 4)))
        b = Tensor(rng.normal(size=(1, 5, 4, 4)))
        back = ops.take_first_channels(ops.concat_channels(a, b), a.c)
        assert tensor_equal_within(back, a, 0.0)

    def test_spatial_mismatch(self):
        with pytest.raises(DimensionError):
            ops.concat_channels(Tensor.zeros(1, 2, 4, 4),
                                Tensor.zeros(1, 2, 5, 4))


@settings(max_examples=30, deadline=None)
@given(ca=st.integers(1, 6), cb=st.integers(1, 6), n=st.integers(1, 2),
       hw=st.integers(1, 5))
def test_concat_take_first_round_trip(ca, cb, n, hw):
    rng = np.random.default_rng(ca * 100 + cb * 10 + n + hw)
    a = Tensor(rng.normal(size=(n, ca, hw, hw)))
    b = Tensor(rng.normal(size=(n, cb, hw, hw)))
    cat = ops.concat_channels(a, b)
    assert tensor_equal_within(ops.take_first_channels(cat, ca), a, 0.0)
    assert cat.c == ca + cb


@contextmanager
def _caller_bufsize(size):
    """Run the body as a caller that set its own ufunc buffer size."""
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


class TestUfuncBufferScope:
    """The kernels shrink numpy's ufunc buffer only inside ``ops._sweep``:
    the caller's size is back afterwards, even when a kernel raises, and no
    value depends on the caller's size."""

    CALLER = 4096   # not numpy's default, so a reset to the default shows

    @staticmethod
    def _toy_net():
        return build_network(hbonet_spec(width=0.25, divisor=2,
                                         resolution=32, num_classes=3))

    def test_forward_restores_caller_bufsize(self):
        net = self._toy_net()
        x = np.random.default_rng(0).normal(size=(1, 3, 32, 32))
        with _caller_bufsize(self.CALLER):
            forward(net, Tensor(x))
            assert np.getbufsize() == self.CALLER

    def test_train_step_restores_caller_bufsize(self):
        net = self._toy_net()
        images, labels = make_synthetic_dataset(4, 1, 32, 0.3)
        with _caller_bufsize(self.CALLER):
            tape = Tape()
            logits = net.forward_node(tape.leaf(images, "input"), tape,
                                      training=True)
            backward(tape, tape.label_smooth_ce(logits, labels, 0.1))
            assert np.getbufsize() == self.CALLER

    def test_raising_scope_restores_caller_bufsize(self):
        x = np.ones((1, 2, 16, 16))
        stats = np.ones(2)
        with _caller_bufsize(self.CALLER):
            with pytest.raises(DimensionError):
                with ops._sweep(x.shape[2] * x.shape[3]):
                    assert np.getbufsize() == ops._SHORT_BUFSIZE
                    raise DimensionError("raised inside the scope")
            assert np.getbufsize() == self.CALLER
            # numpy itself raising mid-kernel: an ``out`` of the wrong shape
            with pytest.raises(ValueError):
                ops._bn_affine_nd(x, stats, stats, stats, stats, 1e-5,
                                  out=np.empty((1, 2, 16, 15)))
            assert np.getbufsize() == self.CALLER

    def test_values_do_not_depend_on_caller_bufsize(self):
        net = self._toy_net()
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32))
        got = {}
        for size in (16, 8192):
            with _caller_bufsize(size):
                logits = [forward(net, Tensor(x[:n])).tobytes()
                          for n in (1, 2)]
                log = train_toy(config=ToyConfig(num_samples=96), epochs=1)
            got[size] = logits, [(r.loss.hex(), r.accuracy) for r in log]
        assert got[16] == got[8192]
