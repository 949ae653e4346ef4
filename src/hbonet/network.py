"""Declarative network builder: a stage table (operator, t, c, n, s) plus a
width multiplier and input resolution become a runnable network with exact
shape tracing.

Canonical stage tables ship as JSON documents under ``hbonet/specs``; the CLI
presets and the builder convenience constructors read them from there.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .autodiff import Node, Tape
from .blocks import (
    BlockConfig,
    BlockKind,
    BlockParams,
    ConfigError,
    ConvLayerSpec,
    LayerParams,
    _apply_layer,
    block_layer_table,
    hbo_forward_node,
    init_block_params,
    inverted_residual_forward_node,
    make_divisible,
)
from .ops import BatchNormParams
from .tensor import ConvKernel, Tensor

__all__ = [
    "StageSpec",
    "NetworkSpec",
    "Network",
    "default_divisor",
    "load_stage_table",
    "preset_stage_table",
    "hbonet_spec",
    "mobilenetv2_spec",
    "build_network",
    "build_hbonet",
    "build_mobilenetv2",
    "forward",
    "trace_shapes",
]

_OPS = {"conv3x3", "hbo", "inverted_residual", "conv1x1_linear", "conv1x1",
        "avgpool", "classifier"}

SUPPORTED_WIDTHS = (0.1, 0.25, 0.35, 0.5, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class StageSpec:
    """One stage-table row: ``n`` repeats, the first at stride ``s``."""

    op: str
    t: int | None = None
    c: int | None = None
    n: int = 1
    s: int = 1
    width_exempt: bool = False

    def __post_init__(self):
        if not isinstance(self.op, str) or self.op not in _OPS:
            raise ConfigError(f"unknown operator {self.op!r}")
        for key in ("t", "c", "n"):   # t and c may be absent, n may not
            value = getattr(self, key)
            if (key == "n" or value is not None) and \
                    not (_is_int(value) and value >= 1):
                raise ConfigError(f"'{key}' must be a positive integer, got {value!r}")
        if not _is_int(self.s) or self.s not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {self.s!r}")
        if not isinstance(self.width_exempt, bool):
            raise ConfigError(
                f"'width_exempt' must be true or false, got {self.width_exempt!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    stages: tuple[StageSpec, ...]
    width: float = 1.0
    divisor: int = 8
    input_resolution: int = 224
    num_classes: int = 1000
    contraction_variant: int = 1
    seed: int = 0


def default_divisor(width: float) -> int:
    """Channel divisibility policy: width 0.1 uses 4, widths 0.5/0.25 use 2,
    everything else 8."""
    if width == 0.1:
        return 4
    if width in (0.5, 0.25):
        return 2
    return 8


def _scale_channels(c: int, spec: NetworkSpec, exempt: bool) -> int:
    if spec.width == 1.0:
        return c
    if exempt and spec.width < 1.0:
        return c
    return make_divisible(c * spec.width, spec.divisor)


def load_stage_table(doc: dict) -> tuple[str, tuple[StageSpec, ...]]:
    """Parse a stage-table JSON document, reporting the offending row index."""
    if not isinstance(doc, dict):
        raise ConfigError(
            f"stage table must be a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if not _is_int(version) or version != 1:
        raise ConfigError(f"unsupported format_version {version!r}")
    rows = doc.get("stages", [])
    if not isinstance(rows, list):
        raise ConfigError(f"'stages' must be a list, got {type(rows).__name__}")
    stages = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ConfigError(
                f"stage {i}: must be a JSON object, got {type(row).__name__}")
        try:
            stages.append(StageSpec(
                op=row["op"],
                t=row.get("t"),
                c=row.get("c"),
                n=row.get("n", 1),
                s=row.get("s", 1),
                width_exempt=row.get("width_exempt", False),
            ))
        except (KeyError, ConfigError) as exc:
            raise ConfigError(f"stage {i}: {exc}") from exc
        if stages[-1].op in ("conv3x3", "conv1x1", "conv1x1_linear", "hbo",
                             "inverted_residual") and stages[-1].c is None:
            raise ConfigError(f"stage {i}: operator {stages[-1].op!r} needs 'c'")
        if stages[-1].op in ("hbo", "inverted_residual") and stages[-1].t is None:
            raise ConfigError(f"stage {i}: operator {stages[-1].op!r} needs 't'")
    if not stages:
        raise ConfigError("stage table is empty")
    name = doc.get("name", "network")
    if not isinstance(name, str):
        raise ConfigError(f"'name' must be a string, got {type(name).__name__}")
    return name, tuple(stages)


def preset_stage_table(preset: str) -> dict:
    """Load one of the canonical stage tables shipped with the package."""
    try:
        text = resources.files("hbonet.specs").joinpath(f"{preset}.json").read_text()
    except FileNotFoundError:
        raise ConfigError(f"unknown preset {preset!r}") from None
    return json.loads(text)


def hbonet_spec(width: float = 1.0, resolution: int = 224,
                divisor: int | None = None, num_classes: int = 1000,
                variant: int = 1, seed: int = 0) -> NetworkSpec:
    name, stages = load_stage_table(preset_stage_table("hbonet"))
    return NetworkSpec(name, stages, width,
                       default_divisor(width) if divisor is None else divisor,
                       resolution, num_classes, variant, seed)


def mobilenetv2_spec(width: float = 1.0, resolution: int = 224,
                     divisor: int | None = None, num_classes: int = 1000,
                     seed: int = 0) -> NetworkSpec:
    name, stages = load_stage_table(preset_stage_table("mobilenetv2"))
    if divisor is None:
        divisor = 4 if width == 0.1 else 8
    return NetworkSpec(name, stages, width, divisor, resolution, num_classes,
                       1, seed)


# ---------------------------------------------------------------------------
# network units
# ---------------------------------------------------------------------------

class ConvUnit:
    """A standalone convolution (stem, projections, head)."""

    def __init__(self, name: str, stage: str, spec: ConvLayerSpec,
                 rng: np.random.Generator | None):
        self.name = name
        self.stage = stage
        self.spec = spec
        if rng is None:
            w = np.zeros(spec.weight_shape())
        else:
            fan_out = spec.kernel * spec.kernel * spec.c_out // spec.groups
            w = rng.normal(0.0, np.sqrt(2.0 / fan_out), size=spec.weight_shape())
        self.params = LayerParams(
            ConvKernel(w, groups=spec.groups),
            BatchNormParams.identity(spec.c_out) if spec.bn else None,
        )

    def forward_node(self, x: Node, tape: Tape, training: bool) -> Node:
        return _apply_layer(tape, x, self.spec, self.params, training)

    def out_shape(self, c: int, h: int, w: int) -> tuple[int, int, int]:
        oh, ow = self.spec.out_hw(h, w)
        return self.spec.c_out, oh, ow

    def ledger_rows(self, c, h, w):
        oh, ow = self.spec.out_hw(h, w)
        return [(self.name, self.spec.macs(h, w), self.spec.param_count(),
                 (self.spec.c_out, oh, ow))]

    def named_params(self):
        yield self.name, self.params

    def conv_layers(self, c, h, w):
        yield self.name, self.spec, (h, w)


class BlockUnit:
    def __init__(self, name: str, stage: str, cfg: BlockConfig,
                 rng: np.random.Generator | None):
        self.name = name
        self.stage = stage
        self.cfg = cfg
        self.params = init_block_params(cfg, rng or np.random.default_rng(0),
                                        zero=rng is None)

    def forward_node(self, x: Node, tape: Tape, training: bool) -> Node:
        fn = (hbo_forward_node if self.cfg.kind is BlockKind.HARMONIOUS_BOTTLENECK
              else inverted_residual_forward_node)
        return fn(x, self.cfg, self.params, tape, training,
                  prefix=f"{self.name}.")

    def out_shape(self, c, h, w):
        s = self.cfg.stride
        return self.cfg.c_out, h // s, w // s

    def _shape_walk(self, h, w):
        """Mirror the forward wiring's spatial geometry per conv layer."""
        cfg = self.cfg
        if cfg.kind is BlockKind.INVERTED_RESIDUAL:
            for spec in block_layer_table(cfg):
                yield spec, (h, w)
                h, w = spec.out_hw(h, w)
            return
        for spec in block_layer_table(cfg):
            if spec.name == "smooth_dw":
                f = 2 ** cfg.contraction_count if cfg.stride == 1 \
                    else 2 ** (cfg.contraction_count - 1)
                h, w = h * f, w * f
            yield spec, (h, w)
            h, w = spec.out_hw(h, w)

    def ledger_rows(self, c, h, w):
        rows = []
        for spec, (hi, wi) in self._shape_walk(h, w):
            oh, ow = spec.out_hw(hi, wi)
            rows.append((f"{self.name}.{spec.name}", spec.macs(hi, wi),
                         spec.param_count(), (spec.c_out, oh, ow)))
        return rows

    def named_params(self):
        for lname, lp in self.params:
            yield f"{self.name}.{lname}", lp

    def conv_layers(self, c, h, w):
        for spec, (hi, wi) in self._shape_walk(h, w):
            yield f"{self.name}.{spec.name}", spec, (hi, wi)


class PoolUnit:
    """Global average pool (kernel equals the incoming spatial size)."""

    def __init__(self, name: str, stage: str):
        self.name = name
        self.stage = stage
        self.params = None

    def forward_node(self, x: Node, tape: Tape, training: bool) -> Node:
        k = x.value.shape[2]
        return tape.avgpool(x, k, k)

    def out_shape(self, c, h, w):
        return c, 1, 1

    def ledger_rows(self, c, h, w):
        return [(self.name, 0, 0, (c, 1, 1))]

    def named_params(self):
        return iter(())

    def conv_layers(self, c, h, w):
        return iter(())


class ClassifierUnit:
    """1x1 convolution onto the class logits, with a zero-initialized bias."""

    def __init__(self, name: str, stage: str, c_in: int, num_classes: int,
                 rng: np.random.Generator | None):
        self.name = name
        self.stage = stage
        self.c_in = c_in
        self.num_classes = num_classes
        if rng is None:
            self.weight = np.zeros((num_classes, c_in))
        else:
            # kaiming-style 2/fan_out blows up here (fan_out is only the
            # class count); a small normal keeps initial logits near zero
            self.weight = rng.normal(0.0, 0.01, size=(num_classes, c_in))
        self.bias = np.zeros(num_classes)

    def forward_node(self, x: Node, tape: Tape, training: bool) -> Node:
        y = tape.pointwise_conv(x, tape.leaf(self.weight, f"{self.name}.weight"))
        y = tape.flatten_spatial(y)
        return tape.add_bias(y, tape.leaf(self.bias, f"{self.name}.bias"))

    def out_shape(self, c, h, w):
        return self.num_classes, 1, 1

    def ledger_rows(self, c, h, w):
        macs = h * w * self.c_in * self.num_classes
        n_params = self.c_in * self.num_classes + self.num_classes
        return [(self.name, macs, n_params, (self.num_classes, 1, 1))]

    def conv_layers(self, c, h, w):
        spec = ConvLayerSpec(self.name, "pointwise", self.c_in,
                             self.num_classes, 1, 1, False, False)
        yield self.name, spec, (h, w)


class Network:
    """Immutable-once-built layer list; parameters live in the units."""

    def __init__(self, spec: NetworkSpec, units: list):
        self.spec = spec
        self.units = units

    def forward_node(self, x: Node, tape: Tape, training: bool = False) -> Node:
        y = x
        for unit in self.units:
            y = unit.forward_node(y, tape, training)
        return y

    def parameters(self) -> dict[str, np.ndarray]:
        """Flat name -> array of every learnable parameter, builder order."""
        out: dict[str, np.ndarray] = {}
        for unit in self.units:
            if isinstance(unit, ClassifierUnit):
                out[f"{unit.name}.weight"] = unit.weight
                out[f"{unit.name}.bias"] = unit.bias
                continue
            for base, lp in unit.named_params():
                out[f"{base}.weight"] = lp.kernel.data
                if lp.bn is not None:
                    out[f"{base}.gamma"] = lp.bn.gamma
                    out[f"{base}.beta"] = lp.bn.beta
        return out

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        for unit in self.units:
            if isinstance(unit, ClassifierUnit):
                unit.weight = np.asarray(values[f"{unit.name}.weight"],
                                         dtype=np.float64)
                unit.bias = np.asarray(values[f"{unit.name}.bias"],
                                       dtype=np.float64)
                continue
            for base, lp in unit.named_params():
                lp.kernel = ConvKernel._wrap(
                    np.asarray(values[f"{base}.weight"], dtype=np.float64)
                    .reshape(lp.kernel.shape),
                    groups=lp.kernel.groups,
                )
                if lp.bn is not None:
                    lp.bn.gamma = np.asarray(values[f"{base}.gamma"],
                                             dtype=np.float64)
                    lp.bn.beta = np.asarray(values[f"{base}.beta"],
                                            dtype=np.float64)

    def conv_layers(self):
        """Every convolution with its input spatial dims at spec resolution."""
        c, h, w = 3, self.spec.input_resolution, self.spec.input_resolution
        for unit in self.units:
            yield from unit.conv_layers(c, h, w)
            c, h, w = unit.out_shape(c, h, w)


def _cap_contraction(k: int, h: int, w: int) -> int:
    kb = 0
    while kb < k and h % 2 == 0 and w % 2 == 0:
        h //= 2
        w //= 2
        kb += 1
    return kb


def build_network(spec: NetworkSpec, init_weights: bool = True) -> Network:
    """Instantiate units from the stage table, validating shapes as we go.

    ``init_weights=False`` builds with zero weights; enough for the ledger
    and shape tracing, and much faster for wide networks.
    """
    if spec.input_resolution < 32:
        raise ConfigError(f"input resolution {spec.input_resolution} too small")
    rng = np.random.default_rng(spec.seed) if init_weights else None
    units: list = []
    c, h, w = 3, spec.input_resolution, spec.input_resolution
    counts: dict[str, int] = {}

    for i, st in enumerate(spec.stages):
        stage_name = _stage_name(st, counts)
        if st.op == "conv3x3":
            cout = _scale_channels(st.c, spec, st.width_exempt)
            conv = ConvLayerSpec(stage_name, "dense", c, cout, 3, st.s, True, True)
            units.append(ConvUnit(stage_name, stage_name, conv, rng))
        elif st.op in ("conv1x1", "conv1x1_linear"):
            cout = _scale_channels(st.c, spec, st.width_exempt)
            act = st.op == "conv1x1"
            conv = ConvLayerSpec(stage_name, "pointwise", c, cout, 1, 1, True, act)
            units.append(ConvUnit(stage_name, stage_name, conv, rng))
        elif st.op in ("hbo", "inverted_residual"):
            cout = _scale_channels(st.c, spec, st.width_exempt)
            hh, ww = h, w
            for r in range(st.n):
                stride = st.s if r == 0 else 1
                cin = c if r == 0 else cout
                if st.op == "hbo":
                    if hh % 2 or ww % 2:
                        raise ConfigError(
                            f"stage {i} ({stage_name}): spatial {hh}x{ww} not "
                            f"divisible by 2 for the contraction"
                        )
                    k = _cap_contraction(spec.contraction_variant, hh, ww)
                    cfg = BlockConfig(cin, cout, st.t, stride,
                                      BlockKind.HARMONIOUS_BOTTLENECK,
                                      contraction_count=k)
                else:
                    cfg = BlockConfig(cin, cout, st.t, stride,
                                      BlockKind.INVERTED_RESIDUAL)
                units.append(BlockUnit(f"{stage_name}_{r + 1}", stage_name,
                                       cfg, rng))
                hh, ww = hh // stride, ww // stride
        elif st.op == "avgpool":
            units.append(PoolUnit(stage_name, stage_name))
        elif st.op == "classifier":
            units.append(ClassifierUnit(stage_name, stage_name, c,
                                        spec.num_classes, rng))
        c, h, w = _stage_out_shape(units, st, c, h, w)
    return Network(spec, units)


def _stage_name(st: StageSpec, counts: dict[str, int]) -> str:
    base = {"conv3x3": "conv1", "conv1x1_linear": "proj", "conv1x1": "head",
            "avgpool": "pool", "classifier": "classifier",
            "hbo": "hbo", "inverted_residual": "invres"}[st.op]
    if st.op in ("hbo", "inverted_residual"):
        counts[base] = counts.get(base, 0) + 1
        return f"{base}{counts[base]}"
    counts[base] = counts.get(base, 0) + 1
    return base if counts[base] == 1 else f"{base}{counts[base]}"


def _stage_out_shape(units, st, c, h, w):
    if st.op in ("hbo", "inverted_residual"):
        cout = units[-1].cfg.c_out
        return cout, h // st.s, w // st.s
    return units[-1].out_shape(c, h, w)


def build_hbonet(spec: NetworkSpec | None = None, **kwargs) -> Network:
    """The harmonious-bottleneck network from the canonical stage table."""
    if spec is None:
        spec = hbonet_spec(**kwargs)
    return build_network(spec)


def build_mobilenetv2(spec: NetworkSpec | None = None, **kwargs) -> Network:
    """Reference inverted-residual baseline from its canonical stage table."""
    if spec is None:
        spec = mobilenetv2_spec(**kwargs)
    return build_network(spec)


def forward(net: Network, x: Tensor) -> np.ndarray:
    """Inference pass; returns logits of shape (batch, num_classes)."""
    res = net.spec.input_resolution
    if x.c != 3 or x.h != res or x.w != res:
        raise ConfigError(
            f"network built for 3x{res}x{res} input, got "
            f"{x.c}x{x.h}x{x.w}"
        )
    tape = Tape(grad_enabled=False)
    out = net.forward_node(tape.leaf(x.data, "input"), tape, training=False)
    return out.value


def trace_shapes(net: Network, resolution: int | None = None
                 ) -> list[tuple[str, tuple[int, int, int]]]:
    """Symbolic stage-level shape propagation; no activations allocated."""
    if resolution is None:
        resolution = net.spec.input_resolution
    if resolution != net.spec.input_resolution:
        raise ConfigError(
            f"network built for resolution {net.spec.input_resolution}, "
            f"cannot trace {resolution}"
        )
    rows: list[tuple[str, tuple[int, int, int]]] = []
    c, h, w = 3, resolution, resolution
    for unit in net.units:
        c, h, w = unit.out_shape(c, h, w)
        if rows and rows[-1][0] == unit.stage:
            rows[-1] = (unit.stage, (c, h, w))
        else:
            rows.append((unit.stage, (c, h, w)))
    return rows
