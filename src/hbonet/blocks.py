"""The two building blocks: MobileNetV2-style inverted residual and the
harmonious bottleneck (spatial contraction-expansion around a channel
expansion-contraction body, with half the output channels copied from the
input).

Block structure is expressed once as a layer table, read once per block to
make one :class:`LayerParams` per row, which carries the row; the forward
wiring walks those layers. The complexity ledger consumes the forward wiring
itself, run on shapes by the network builder, and the test suite pins the
forward against a straight-line composition of the primitive ops.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np

from .autodiff import Node, Tape, eager
from .ops import BatchNormParams
from .tensor import Tensor

__all__ = [
    "ConfigError",
    "BlockKind",
    "BlockConfig",
    "ConvLayerSpec",
    "LayerParams",
    "make_divisible",
    "block_layer_table",
    "init_block_params",
    "inverted_residual_forward",
    "harmonious_bottleneck_forward",
    "block_forward_node",
    "hbo_forward_node",
    "inverted_residual_forward_node",
]


class ConfigError(ValueError):
    """Invalid block or network configuration."""


class BlockKind(Enum):
    INVERTED_RESIDUAL = "inverted_residual"
    HARMONIOUS_BOTTLENECK = "harmonious_bottleneck"


def make_divisible(c: float, divisor: int) -> int:
    """Round a scaled channel count down to a multiple of ``divisor``.

    Never returns less than ``divisor``; if rounding down would fall below
    90% of ``c`` the result is bumped up by one divisor step instead.
    """
    if c <= 0:
        raise ValueError(f"channel count must be positive, got {c}")
    if divisor not in (2, 4, 8):
        raise ValueError(f"divisor must be one of 2/4/8, got {divisor}")
    n = max(divisor, int(c) // divisor * divisor)
    if n < 0.9 * c:
        n += divisor
    return n


@dataclass(frozen=True)
class BlockConfig:
    """Shape-level description of one block; kernel shapes follow from it."""

    c_in: int
    c_out: int
    t: int
    stride: int
    kind: BlockKind
    contraction_count: int = 1

    def __post_init__(self):
        if self.stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {self.stride}")
        if self.t < 1:
            raise ConfigError(f"expansion factor must be >= 1, got {self.t}")
        if self.kind is BlockKind.HARMONIOUS_BOTTLENECK:
            if self.c_out % 2 != 0:
                raise ConfigError(f"HBO needs even c_out, got {self.c_out}")
            if self.contraction_count < 1:
                raise ConfigError("contraction_count must be >= 1")
        else:
            if self.contraction_count != 1:
                raise ConfigError("contraction_count only applies to HBO blocks")

    @property
    def hidden(self) -> int:
        return self.t * self.c_in

    @property
    def half(self) -> int:
        return self.c_out // 2

    @property
    def shortcut_width(self) -> int:
        """Channels copied from the (possibly pooled) input: half the output,
        clipped when channel rounding leaves the input narrower than that."""
        return min(self.half, self.c_in)

    @property
    def main_width(self) -> int:
        return self.c_out - self.shortcut_width

    @property
    def use_residual(self) -> bool:
        if self.kind is BlockKind.INVERTED_RESIDUAL:
            return self.stride == 1 and self.c_in == self.c_out
        # the source leaves the HBO EltAdd endpoints open: add whenever channels permit
        return self.c_in >= self.main_width


class ConvLayerSpec(NamedTuple):
    """One convolution row of a block's layer table: immutable, as a frozen
    dataclass is, at a quarter of its construction cost, which every build
    pays once per layer."""

    name: str
    kind: str           # 'dense' | 'depthwise' | 'pointwise'
    c_in: int
    c_out: int
    kernel: int
    stride: int
    bn: bool
    act: bool

    @property
    def groups(self) -> int:
        return self.c_in if self.kind == "depthwise" else 1

    @property
    def pad(self) -> int:
        return (self.kernel - 1) // 2

    def weight_shape(self) -> tuple[int, int, int, int]:
        """The 4-D (c_out, c_in_per_group, k, k) shape the weight is drawn in."""
        cpg = 1 if self.kind == "depthwise" else self.c_in
        return (self.c_out, cpg, self.kernel, self.kernel)

    def leaf_shape(self) -> tuple[int, ...]:
        """The shape the weight's tape leaf takes: (c, k, k) depthwise,
        (o, c) pointwise, (o, c, k, k) dense."""
        if self.kind == "depthwise":
            return (self.c_out, self.kernel, self.kernel)
        if self.kind == "pointwise":
            return (self.c_out, self.c_in)
        return self.weight_shape()


@dataclass
class LayerParams:
    """One layer: its table row and its learnable arrays, each in the shape
    of the tape leaf that takes it: the weight as (c, k, k) depthwise, (o, c)
    pointwise and (o, c, k, k) dense; the batch norm's gamma and beta; an
    optional bias."""

    spec: ConvLayerSpec
    weight: np.ndarray
    bn: BatchNormParams | None
    bias: np.ndarray | None = None

    def slots(self) -> Iterator[tuple[str, object, str]]:
        """(leaf suffix, owner, attribute) of each learnable array, in the
        order the layer's forward records their leaves."""
        yield "weight", self, "weight"
        if self.bn is not None:
            yield "gamma", self.bn, "gamma"
            yield "beta", self.bn, "beta"
        if self.bias is not None:
            yield "bias", self, "bias"


def block_layer_table(cfg: BlockConfig) -> tuple[ConvLayerSpec, ...]:
    """The block's convolution sequence; shapes fully determined by cfg.

    Harmonious bottleneck main branch:
      contract_dw   5x5 depthwise, stride 2 (spatial contraction)
      expand_pw     1x1 to t*c_in (kept even at t == 1)
      body_dw       3x3 depthwise
      reduce_pw     1x1 linear down to c_out/2
      casc{u}_dw/pw extra contraction units (cascade variants), linear
      smooth_dw     depthwise after bilinear expansion: 5x5 for stride-1
                    blocks (true 2^k upsample), 3x3 for stride-2 blocks
    The shortcut half is a copy and holds no parameters.
    """
    if cfg.kind is BlockKind.INVERTED_RESIDUAL:
        rows = []
        if cfg.t != 1:
            rows.append(ConvLayerSpec("expand_pw", "pointwise", cfg.c_in,
                                      cfg.hidden, 1, 1, True, True))
        rows.append(ConvLayerSpec("body_dw", "depthwise", cfg.hidden,
                                  cfg.hidden, 3, cfg.stride, True, True))
        rows.append(ConvLayerSpec("reduce_pw", "pointwise", cfg.hidden,
                                  cfg.c_out, 1, 1, True, False))
        return tuple(rows)

    main = cfg.main_width
    rows = [
        ConvLayerSpec("contract_dw", "depthwise", cfg.c_in, cfg.c_in,
                      5, 2, True, True),
        ConvLayerSpec("expand_pw", "pointwise", cfg.c_in, cfg.hidden,
                      1, 1, True, True),
        ConvLayerSpec("body_dw", "depthwise", cfg.hidden, cfg.hidden,
                      3, 1, True, True),
        ConvLayerSpec("reduce_pw", "pointwise", cfg.hidden, main,
                      1, 1, True, False),
    ]
    for u in range(2, cfg.contraction_count + 1):
        rows.append(ConvLayerSpec(f"casc{u}_dw", "depthwise", main, main,
                                  3, 2, True, False))
        rows.append(ConvLayerSpec(f"casc{u}_pw", "pointwise", main, main,
                                  1, 1, True, False))
    smooth_k = 5 if cfg.stride == 1 else 3
    rows.append(ConvLayerSpec("smooth_dw", "depthwise", main, main,
                              smooth_k, 1, True, True))
    return tuple(rows)


# The one element behind every weightless array. It is read-only, so every
# view of it is too.
_ONE_ZERO = np.zeros(1)
_ONE_ZERO.flags.writeable = False


def _zero_view(shape: tuple[int, ...]) -> np.ndarray:
    """A read-only float64 array of zeros in ``shape`` that holds one element:
    every stride is 0. It costs the same at any size, so a weightless network
    of any width fits in memory; training replaces it with new arrays."""
    # positional buffer, offset and strides: keywords cost a third more
    return np.ndarray(shape, np.float64, _ONE_ZERO, 0, (0,) * len(shape))


def _init_layer(spec: ConvLayerSpec,
                rng: np.random.Generator | None) -> LayerParams:
    """Conv weights ~ N(0, 2/fan_out), or without ``rng`` a read-only zero
    view of one element (:func:`_zero_view`); BN gamma 1 beta 0, always real
    arrays, since a training forward updates the running statistics in
    place. The weight is drawn in ``spec.weight_shape()`` and kept in its
    leaf's shape, ``spec.leaf_shape()``, in which a zero view is made
    directly."""
    if rng is None:
        w = _zero_view(spec.leaf_shape())
    else:
        fan_out = spec.kernel * spec.kernel * spec.c_out // spec.groups
        w = rng.normal(0.0, np.sqrt(2.0 / fan_out),
                       size=spec.weight_shape()).reshape(spec.leaf_shape())
    return LayerParams(spec, w,
                       BatchNormParams.identity(spec.c_out) if spec.bn else None)


def init_block_params(cfg: BlockConfig, rng: np.random.Generator | None = None,
                      zero: bool = False) -> dict[str, LayerParams]:
    """Kaiming-style init: conv weights ~ N(0, 2/fan_out), BN gamma 1 beta 0;
    the layers keyed by table name, in table order. ``zero=True`` gives
    read-only zero weights instead (see :func:`_init_layer`)."""
    if rng is None:
        rng = np.random.default_rng(0)
    return {spec.name: _init_layer(spec, None if zero else rng)
            for spec in block_layer_table(cfg)}


# ---------------------------------------------------------------------------
# forward wiring (single implementation via the tape). The wiring releases
# each value after its last reader (Tape.release), and no local name keeps a
# spent node: a grad-disabled forward then frees each activation once it is
# spent, and a recording one each array that no VJP captured.
# ---------------------------------------------------------------------------

def _apply_layer(tape: Tape, x: Node, lp: LayerParams, training: bool,
                 prefix: str = "") -> Node:
    spec = lp.spec
    base = f"{prefix}{spec.name}"
    w = tape.leaf(lp.weight, f"{base}.weight")
    if spec.kind == "depthwise":
        y = tape.depthwise_conv(x, w, stride=spec.stride)
    elif spec.kind == "pointwise":
        y = tape.pointwise_conv(x, w)
    else:
        y = tape.conv2d(x, w, stride=spec.stride, pad=spec.pad)
    # Only this layer reads the fresh conv output, so its batch norm and
    # ReLU6 overwrite it instead of allocating two more arrays, and the
    # layer's recorded nodes share that one array: the batch-norm and ReLU6
    # VJPs read neither it nor the batch-norm output.
    if lp.bn is not None:
        y = tape.batchnorm(y, tape.leaf(lp.bn.gamma, f"{base}.gamma"),
                           tape.leaf(lp.bn.beta, f"{base}.beta"),
                           lp.bn, training, _out=y.value)
    if spec.act:
        y = tape.relu6(y, _out=y.value)
    return y


def inverted_residual_forward_node(x: Node, cfg: BlockConfig,
                                   p: dict[str, LayerParams], tape: Tape,
                                   training: bool = False,
                                   prefix: str = "") -> Node:
    layers = iter(p.values())   # expand_pw (if t != 1), body, reduce
    y = _apply_layer(tape, x, next(layers), training, prefix)
    if not cfg.use_residual:    # then the first layer is x's last reader
        y = tape.release(y, x)
    for lp in layers:
        y = _apply_layer(tape, y, lp, training, prefix)
    if cfg.use_residual:
        y = tape.eltadd(y, x, _out=y.value)
    return y


def hbo_forward_node(x: Node, cfg: BlockConfig, p: dict[str, LayerParams],
                     tape: Tape, training: bool = False,
                     prefix: str = "") -> Node:
    n, c, h, w = x.value.shape
    k = cfg.contraction_count
    if h % (2 ** k) or w % (2 ** k):
        raise ConfigError(
            f"input {h}x{w} not divisible by 2^{k} contraction"
        )

    def layer(y, name):
        return _apply_layer(tape, y, p[f"{prefix}{name}"], training, prefix)

    # The shortcut is taken first, so that contract_dw is x's last reader
    # and x is dropped before the expanded body runs. At stride 2 it is the
    # pool of a view of x; at stride 1 the view itself keeps x's array to
    # the concat. The pool works per channel, so pooling only the kept
    # channels gives the same values.
    short = tape.take_first_channels(x, cfg.shortcut_width)
    if cfg.stride == 2:
        short = tape.release(tape.avgpool(short, 2, 2), short)
    body_in = tape.release(layer(x, "contract_dw"), x)
    y = layer(body_in, "expand_pw")
    if not cfg.use_residual:    # then expand_pw is body_in's last reader
        y = tape.release(y, body_in)
    for name in ("body_dw", "reduce_pw"):   # no name holds a spent value
        y = layer(y, name)
    if cfg.use_residual:
        # the residual add writes into the reduce_pw output, which no VJP
        # reads, and reads body_in last, through a view
        y = tape.release(tape.eltadd(y, tape.take_first_channels(body_in, cfg.main_width),
                                     _out=y.value), body_in)
    for u in range(2, k + 1):
        for name in (f"casc{u}_dw", f"casc{u}_pw"):
            y = layer(y, name)
    factor = 2 ** k if cfg.stride == 1 else 2 ** (k - 1)
    if factor > 1:
        y = tape.release(tape.bilinear_upsample(y, factor), y)
    y = layer(y, "smooth_dw")
    return tape.release(tape.concat_channels(y, short), y, short)


def block_forward_node(x: Node, cfg: BlockConfig, p: dict[str, LayerParams],
                       tape: Tape, training: bool = False,
                       prefix: str = "") -> Node:
    """Either kind's forward, chosen by ``cfg.kind``. ``p`` maps each layer's
    base name, ``prefix`` plus its table name, to the layer."""
    fn = (hbo_forward_node if cfg.kind is BlockKind.HARMONIOUS_BOTTLENECK
          else inverted_residual_forward_node)
    return fn(x, cfg, p, tape, training, prefix)


def inverted_residual_forward(x: Tensor, cfg: BlockConfig,
                              p: dict[str, LayerParams]) -> Tensor:
    """Expand, depthwise-filter, linearly contract; skip when shape-preserving."""
    return eager(lambda tape, xn: inverted_residual_forward_node(xn, cfg, p, tape), x)


def harmonious_bottleneck_forward(x: Tensor, cfg: BlockConfig,
                                  p: dict[str, LayerParams]) -> Tensor:
    """Spatially contracted bottleneck body plus a copied shortcut half.

    Output is concat(main, shortcut): the first c_out/2 channels are
    computed, the last c_out/2 are the input's leading channels (stride 1)
    or their 2x2-average-pooled version (stride 2).
    """
    return eager(lambda tape, xn: hbo_forward_node(xn, cfg, p, tape), x)
