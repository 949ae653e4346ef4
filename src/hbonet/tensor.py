"""Rank-4 NCHW tensor container, kernels, and the brute-force convolution oracle.

Everything downstream (optimized ops, blocks, autodiff) is verified against
``conv2d_oracle``, so this module stays deliberately naive and auditable:
explicit zero padding, explicit loops over output elements, float64 only.
"""
from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO

import numpy as np

__all__ = [
    "DimensionError",
    "UnsupportedKernelError",
    "Tensor",
    "ConvKernel",
    "MacCounter",
    "conv2d_oracle",
    "tensor_equal_within",
    "save_tensor",
    "load_tensor",
]


class DimensionError(ValueError):
    """Shape or channel-grouping mismatch between operands."""


class UnsupportedKernelError(ValueError):
    """Kernel geometry outside what an operation supports (e.g. even size)."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.flags.writeable and not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


class Tensor:
    """Immutable rank-4 (batch, channel, height, width) float64 array.

    Element (i, j, y, x) lives at flat index ((i*c + j)*h + y)*w + x, i.e.
    C-contiguous row-major NCHW order.
    """

    __slots__ = ("data",)

    def __init__(self, data, shape: tuple[int, int, int, int] | None = None):
        arr = np.array(data, dtype=np.float64)
        if shape is not None:
            arr = arr.reshape(shape)
        if arr.ndim != 4:
            raise DimensionError(f"Tensor must be rank 4, got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise DimensionError(f"all dims must be >= 1, got {arr.shape}")
        object.__setattr__(self, "data", _freeze(arr))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Adopt an array we own without copying. Internal fast path."""
        t = object.__new__(cls)
        object.__setattr__(t, "data", _freeze(arr))
        return t

    @classmethod
    def zeros(cls, n: int, c: int, h: int, w: int) -> "Tensor":
        return cls._wrap(np.zeros((n, c, h, w)))

    @classmethod
    def full(cls, shape: tuple[int, int, int, int], value: float) -> "Tensor":
        return cls._wrap(np.full(shape, float(value)))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    def at(self, i: int, j: int, y: int, x: int) -> float:
        return float(self.data[i, j, y, x])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class ConvKernel:
    """Convolution weights of shape (c_out, c_in_per_group, k_h, k_w).

    ``groups == c_in`` with ``c_in_per_group == 1`` is the depthwise case,
    ``k_h == k_w == 1`` with ``groups == 1`` the pointwise case.
    """

    __slots__ = ("data", "groups")

    def __init__(self, data, groups: int = 1):
        arr = np.array(data, dtype=np.float64)
        if arr.ndim != 4:
            raise DimensionError(f"ConvKernel must be rank 4, got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise DimensionError(f"all dims must be >= 1, got {arr.shape}")
        if groups < 1:
            raise DimensionError(f"groups must be positive, got {groups}")
        if arr.shape[0] % groups != 0:
            raise DimensionError(
                f"c_out={arr.shape[0]} not divisible by groups={groups}"
            )
        object.__setattr__(self, "data", _freeze(arr))
        object.__setattr__(self, "groups", int(groups))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def c_out(self) -> int:
        return self.data.shape[0]

    @property
    def c_in_per_group(self) -> int:
        return self.data.shape[1]

    @property
    def k_h(self) -> int:
        return self.data.shape[2]

    @property
    def k_w(self) -> int:
        return self.data.shape[3]

    @property
    def c_in(self) -> int:
        return self.groups * self.c_in_per_group

    def __repr__(self) -> str:
        return f"ConvKernel(shape={self.shape}, groups={self.groups})"


class MacCounter:
    """Mutable multiply-accumulate tally threaded through the oracle."""

    __slots__ = ("macs",)

    def __init__(self):
        self.macs = 0

    def add(self, count: int) -> None:
        self.macs += int(count)


def conv2d_oracle(
    x: Tensor,
    w: ConvKernel,
    stride: int = 1,
    pad: int = 0,
    counter: MacCounter | None = None,
) -> Tensor:
    """Direct-loop grouped 2-D convolution over zero-padded input.

    The value of each output element is the plain sum of products across the
    full (c_in_per_group, k_h, k_w) window, padding zeros included, so the
    multiplication count per output element is always c_in_per_group*k_h*k_w.
    Intentionally slow; used as the correctness oracle for optimized paths.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    if x.c != w.groups * w.c_in_per_group:
        raise DimensionError(
            f"input has {x.c} channels, kernel expects "
            f"groups*c_in_per_group = {w.groups}*{w.c_in_per_group}"
        )
    n, c_in, h, w_in = x.shape
    c_out, cpg, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w_in + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise DimensionError(
            f"kernel {kh}x{kw} does not fit input {h}x{w_in} with pad {pad}"
        )
    xp = np.zeros((n, c_in, h + 2 * pad, w_in + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w_in] = x.data
    out = np.zeros((n, c_out, oh, ow))
    out_per_group = c_out // w.groups
    win_size = cpg * kh * kw
    for i in range(n):
        for oc in range(c_out):
            g = oc // out_per_group
            kern = w.data[oc]
            chans = xp[i, g * cpg:(g + 1) * cpg]
            for oy in range(oh):
                y0 = oy * stride
                for ox in range(ow):
                    x0 = ox * stride
                    window = chans[:, y0:y0 + kh, x0:x0 + kw]
                    out[i, oc, oy, ox] = np.sum(window * kern)
                    if counter is not None:
                        counter.add(win_size)
    return Tensor._wrap(out)


def tensor_equal_within(a: Tensor, b: Tensor, tol: float) -> bool:
    """True iff shapes match and max absolute elementwise difference <= tol."""
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    return bool(np.max(np.abs(a.data - b.data)) <= tol)


_HEADER = struct.Struct("<4I")


def save_tensor(t: Tensor, fp: BinaryIO) -> None:
    """Golden-file dump: 16-byte header of four little-endian u32 dims,
    followed by n*c*h*w little-endian float64 values in index order."""
    fp.write(_HEADER.pack(*t.shape))
    fp.write(t.data.astype("<f8").tobytes())


def load_tensor(fp: BinaryIO) -> Tensor:
    """Read a file written by :func:`save_tensor` from a seekable stream.

    The header is checked before the payload is read: every dim must be
    >= 1 and the bytes left in the stream must be exactly n*c*h*w float64
    values, so a corrupt header raises ``DimensionError`` instead of asking
    for an arbitrary amount of memory.
    """
    header = fp.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise DimensionError(
            f"truncated tensor header: expected {_HEADER.size} bytes, "
            f"got {len(header)}")
    shape = _HEADER.unpack(header)
    if min(shape) < 1:
        raise DimensionError(f"all dims must be >= 1, got {shape}")
    nbytes = math.prod(shape) * 8
    start = fp.tell()
    available = fp.seek(0, io.SEEK_END) - start
    fp.seek(start)
    if available != nbytes:
        raise DimensionError(
            f"tensor payload of shape {shape} needs {nbytes} bytes, "
            f"stream holds {available}")
    arr = np.frombuffer(fp.read(nbytes), dtype="<f8").astype(np.float64)
    return Tensor(arr.reshape(shape))
