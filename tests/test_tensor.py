"""Tensor container, indexing, golden-file format, and the convolution oracle.

The randomized oracle test compares against a second naive implementation
written scatter-style (loop over input positions, accumulate into outputs)
so the two routes share no loop structure.
"""
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbonet.tensor import (
    ConvKernel,
    DimensionError,
    MacCounter,
    Tensor,
    conv2d_oracle,
    load_tensor,
    save_tensor,
    tensor_equal_within,
)


def scatter_conv_reference(x, w, groups, stride, pad):
    """Independent reference: scatter each input pixel into the outputs."""
    n, c_in, h, win = x.shape
    c_out, cpg, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (win + 2 * pad - kw) // stride + 1
    opg = c_out // groups
    out = np.zeros((n, c_out, oh, ow))
    for i in range(n):
        for ic in range(c_in):
            g = ic // cpg
            for y in range(h):
                for xx in range(win):
                    v = x[i, ic, y, xx]
                    for ky in range(kh):
                        oy, rem = divmod(y + pad - ky, stride)
                        if rem or not (0 <= oy < oh):
                            continue
                        for kx in range(kw):
                            ox, rem2 = divmod(xx + pad - kx, stride)
                            if rem2 or not (0 <= ox < ow):
                                continue
                            for og in range(opg):
                                oc = g * opg + og
                                out[i, oc, oy, ox] += v * w[oc, ic % cpg, ky, kx]
    return out


class TestTensor:
    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3, 4)))

    def test_rejects_empty_dim(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((1, 0, 2, 2)))

    def test_index_formula_round_trip(self):
        """Element (i,j,y,x) lives at flat ((i*c + j)*h + y)*w + x."""
        n, c, h, w = 2, 3, 4, 5
        flat = np.arange(n * c * h * w, dtype=float)
        t = Tensor(flat, shape=(n, c, h, w))
        for i in range(n):
            for j in range(c):
                for y in range(h):
                    for x in range(w):
                        idx = ((i * c + j) * h + y) * w + x
                        assert t.at(i, j, y, x) == flat[idx]

    def test_data_is_immutable(self):
        t = Tensor.zeros(1, 1, 2, 2)
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 1.0

    def test_constructor_copies(self):
        arr = np.zeros((1, 1, 2, 2))
        t = Tensor(arr)
        arr[0, 0, 0, 0] = 5.0
        assert t.at(0, 0, 0, 0) == 0.0


class TestConvKernel:
    def test_depthwise_invariant(self):
        k = ConvKernel(np.zeros((4, 1, 3, 3)), groups=4)
        assert k.c_in == 4 and k.c_in_per_group == 1

    def test_groups_must_divide_c_out(self):
        with pytest.raises(DimensionError):
            ConvKernel(np.zeros((3, 1, 3, 3)), groups=2)


class TestConv2dOracle:
    def test_all_ones_3x3(self):
        x = Tensor.full((1, 1, 3, 3), 1.0)
        w = ConvKernel(np.ones((1, 1, 3, 3)))
        out = conv2d_oracle(x, w, stride=1, pad=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.at(0, 0, 0, 0) == 9.0

    def test_identity_pointwise(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        w = ConvKernel(np.eye(3).reshape(3, 3, 1, 1))
        out = conv2d_oracle(x, w)
        assert tensor_equal_within(out, x, 0.0)

    def test_against_scatter_reference(self):
        """Randomized 2x4x8x8 input, 6x4x3x3 kernel, stride 2, pad 1."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 4, 8, 8))
        w = rng.normal(size=(6, 4, 3, 3))
        got = conv2d_oracle(Tensor(x), ConvKernel(w), stride=2, pad=1)
        ref = scatter_conv_reference(x, w, groups=1, stride=2, pad=1)
        assert np.max(np.abs(got.data - ref)) <= 1e-12

    def test_grouped_against_scatter_reference(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 4, 6, 6))
        w = rng.normal(size=(4, 1, 3, 3))
        got = conv2d_oracle(Tensor(x), ConvKernel(w, groups=4), stride=1, pad=1)
        ref = scatter_conv_reference(x, w, groups=4, stride=1, pad=1)
        assert np.max(np.abs(got.data - ref)) <= 1e-12

    def test_channel_grouping_mismatch(self):
        x = Tensor.zeros(1, 3, 4, 4)
        w = ConvKernel(np.zeros((2, 2, 3, 3)))
        with pytest.raises(DimensionError):
            conv2d_oracle(x, w)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_same_padding_preserves_dims(self, k):
        rng = np.random.default_rng(k)
        x = Tensor(rng.normal(size=(1, 2, 7, 9)))
        w = ConvKernel(rng.normal(size=(3, 2, k, k)))
        out = conv2d_oracle(x, w, stride=1, pad=(k - 1) // 2)
        assert out.shape == (1, 3, 7, 9)

    def test_linearity(self):
        """oracle(a*x1 + b*x2) == a*oracle(x1) + b*oracle(x2)."""
        rng = np.random.default_rng(3)
        for _ in range(5):
            x1 = rng.normal(size=(1, 3, 5, 5))
            x2 = rng.normal(size=(1, 3, 5, 5))
            w = ConvKernel(rng.normal(size=(2, 3, 3, 3)))
            a, b = rng.normal(size=2)
            lhs = conv2d_oracle(Tensor(a * x1 + b * x2), w, 1, 1).data
            rhs = (a * conv2d_oracle(Tensor(x1), w, 1, 1).data
                   + b * conv2d_oracle(Tensor(x2), w, 1, 1).data)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_mac_counter(self):
        """Every output element costs exactly c_in_per_group * k_h * k_w."""
        x = Tensor.zeros(2, 3, 5, 5)
        w = ConvKernel(np.zeros((4, 3, 3, 3)))
        counter = MacCounter()
        out = conv2d_oracle(x, w, stride=2, pad=1, counter=counter)
        n_out = int(np.prod(out.shape))
        assert counter.macs == n_out * 3 * 3 * 3


class TestTensorEqualWithin:
    def test_reflexive_at_zero_tol(self):
        t = Tensor(np.random.default_rng(0).normal(size=(1, 2, 3, 3)))
        assert tensor_equal_within(t, t, 0.0)

    def test_difference_above_tol(self):
        a = Tensor.zeros(1, 1, 2, 2)
        b = Tensor.full((1, 1, 2, 2), 1e-6)
        assert not tensor_equal_within(a, b, 1e-7)

    def test_difference_below_tol(self):
        a = Tensor.zeros(1, 1, 2, 2)
        b = Tensor.full((1, 1, 2, 2), 1e-9)
        assert tensor_equal_within(a, b, 1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tensor_equal_within(Tensor.zeros(1, 1, 2, 2),
                                Tensor.zeros(1, 1, 2, 3), 0.0)


class TestGoldenFormat:
    def test_round_trip(self):
        t = Tensor(np.random.default_rng(5).normal(size=(2, 3, 4, 5)))
        buf = io.BytesIO()
        save_tensor(t, buf)
        buf.seek(0)
        back = load_tensor(buf)
        assert back.shape == t.shape
        assert tensor_equal_within(back, t, 0.0)

    def test_header_layout(self):
        """16-byte header: four little-endian u32 dims, then LE float64s."""
        t = Tensor(np.arange(4.0), shape=(1, 1, 2, 2))
        buf = io.BytesIO()
        save_tensor(t, buf)
        raw = buf.getvalue()
        assert len(raw) == 16 + 4 * 8
        assert np.frombuffer(raw[:16], dtype="<u4").tolist() == [1, 1, 2, 2]
        assert np.frombuffer(raw[16:], dtype="<f8").tolist() == [0, 1, 2, 3]

    def test_truncated_payload(self):
        t = Tensor.zeros(1, 1, 2, 2)
        buf = io.BytesIO()
        save_tensor(t, buf)
        data = buf.getvalue()[:-8]
        with pytest.raises(DimensionError):
            load_tensor(io.BytesIO(data))


class _ReadRecorder(io.BytesIO):
    """In-memory stream that records the size of every read request."""

    def __init__(self, data: bytes):
        super().__init__(data)
        self.requests = []

    def read(self, size=-1):
        self.requests.append(size)
        return super().read(size)


class TestCorruptHeader:
    """A header that disagrees with its payload fails before any large read;
    the claimed sizes are never allocated (reads stay within the file)."""

    @pytest.mark.parametrize("dims,payload", [
        ((0xFFFFFFFF,) * 4, 32),            # int64 product would overflow
        ((1000, 1000, 1000, 8), 32),        # asks for 64 GB
        ((1, 1, 2, 0), 0),                  # zero dim
        ((1, 1, 2, 2), 40),                 # one value too many
    ])
    def test_rejected_without_large_read(self, dims, payload):
        fp = _ReadRecorder(struct.pack("<4I", *dims) + bytes(payload))
        with pytest.raises(DimensionError):
            load_tensor(fp)
        assert all(0 <= r <= 16 for r in fp.requests), fp.requests

    def test_truncated_header(self):
        with pytest.raises(DimensionError):
            load_tensor(io.BytesIO(b"\x01\x00\x00"))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 2), c=st.integers(1, 4),
    h=st.integers(1, 6), w=st.integers(1, 6),
)
def test_index_round_trip_property(n, c, h, w):
    rng = np.random.default_rng(n * 1000 + c * 100 + h * 10 + w)
    arr = rng.normal(size=(n, c, h, w))
    t = Tensor(arr)
    assert t.at(n - 1, c - 1, h - 1, w - 1) == arr[n - 1, c - 1, h - 1, w - 1]
    assert t.data.ravel()[((0 * c + 0) * h + 0) * w + 0] == arr[0, 0, 0, 0]
