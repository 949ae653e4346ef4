"""Declarative network builder: a stage table (operator, t, c, n, s) plus a
width multiplier and input resolution become a runnable network.

The builder runs each unit's forward wiring once on a
:class:`~hbonet.autodiff.ShapeTape` as it appends the unit. That one symbolic
run gives every unit's output shape, which sizes the next unit, and one
record per convolution (MACs, parameters, input and output shape); the
complexity ledger, :func:`trace_shapes` and :meth:`Network.conv_layers` read
those records.

Canonical stage tables ship as JSON documents under ``hbonet/specs``; the CLI
presets and the builder convenience constructors read them from there.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .autodiff import Node, Shape, ShapeTape, Tape
from .blocks import (
    BlockConfig,
    BlockKind,
    ConfigError,
    ConvLayerSpec,
    LayerParams,
    _apply_layer,
    _init_layer,
    block_forward_node,
    block_layer_table,
    make_divisible,
)
from .tensor import DimensionError, Tensor

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


def default_divisor(width: float, name: str = "hbonet") -> int:
    """Channel divisibility policy of the stage table called ``name`` at
    ``width``: width 0.1 uses 4 and every other width 8, except that an
    HBONet table (any table not named ``mobilenetv2``) uses 2 at widths
    0.5 and 0.25."""
    if width == 0.1:
        return 4
    if width in (0.5, 0.25) and name != "mobilenetv2":
        return 2
    return 8


def _scale_channels(c: int, spec: NetworkSpec, exempt: bool) -> int:
    if spec.width == 1.0:
        return c
    if exempt and spec.width < 1.0:
        return c
    return make_divisible(c * spec.width, spec.divisor)


_TABLE_KEYS = ("format_version", "name", "stages")
_ROW_KEYS = tuple(f.name for f in fields(StageSpec))


def _check_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    """A misspelled key would otherwise be ignored and its default used."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"{where}unknown key {key!r}; expected one of "
                              f"{', '.join(known)}")


def load_stage_table(doc: dict) -> tuple[str, tuple[StageSpec, ...]]:
    """Parse a stage-table JSON document, reporting the offending row index.
    A key outside the table's or a row's known keys is an error."""
    if not isinstance(doc, dict):
        raise ConfigError(
            f"stage table must be a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if not _is_int(version) or version != 1:
        raise ConfigError(f"unsupported format_version {version!r}")
    _check_keys(doc, _TABLE_KEYS, "stage table: ")
    rows = doc.get("stages", [])
    if not isinstance(rows, list):
        raise ConfigError(f"'stages' must be a list, got {type(rows).__name__}")
    stages = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ConfigError(
                f"stage {i}: must be a JSON object, got {type(row).__name__}")
        _check_keys(row, _ROW_KEYS, f"stage {i}: ")
        if "op" not in row:
            raise ConfigError(f"stage {i}: missing 'op'")
        try:
            stages.append(StageSpec(**row))
        except ConfigError as exc:
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
                       default_divisor(width, name) if divisor is None else divisor,
                       resolution, num_classes, variant, seed)


def mobilenetv2_spec(width: float = 1.0, resolution: int = 224,
                     divisor: int | None = None, num_classes: int = 1000,
                     seed: int = 0) -> NetworkSpec:
    name, stages = load_stage_table(preset_stage_table("mobilenetv2"))
    return NetworkSpec(name, stages, width,
                       default_divisor(width, name) if divisor is None else divisor,
                       resolution, num_classes, 1, seed)


# ---------------------------------------------------------------------------
# network units
# ---------------------------------------------------------------------------

class Unit:
    """A stem, projection or head convolution, a block, the global pool or
    the classifier. ``forward_node(x, tape, training)`` runs the wiring that
    ``build_network`` hands the unit, ``wiring(unit, x, tape, training)``;
    ``cfg`` is a block's :class:`BlockConfig`, else None. ``layers`` maps the
    base name of every layer the unit holds, which is also the ledger row
    name of that layer's convolution, to the layer's ``LayerParams``, which
    carries its ``ConvLayerSpec``. The network's parameters are the layers'
    arrays, named ``base.suffix`` after the tape leaves that take them."""

    def __init__(self, name: str, stage: str, layers: dict, wiring,
                 cfg: BlockConfig | None = None):
        self.name = name
        self.stage = stage
        self.layers = layers
        self.cfg = cfg
        self._wiring = wiring

    def forward_node(self, x: Node, tape: Tape, training: bool) -> Node:
        return self._wiring(self, x, tape, training)


def _conv_wiring(unit: Unit, x: Node, tape: Tape, training: bool) -> Node:
    return _apply_layer(tape, x, unit.layers[unit.name], training)


def _block_wiring(unit: Unit, x: Node, tape: Tape, training: bool) -> Node:
    return block_forward_node(x, unit.cfg, unit.layers, tape, training,
                              prefix=f"{unit.name}.")


def _pool_wiring(unit: Unit, x: Node, tape: Tape, training: bool) -> Node:
    """Global average pool (kernel equals the incoming spatial size)."""
    k = x.value.shape[2]
    return tape.avgpool(x, k, k)


def _classifier_wiring(unit: Unit, x: Node, tape: Tape, training: bool) -> Node:
    """1x1 convolution onto the class logits, plus the bias."""
    lp = unit.layers[unit.name]
    y = tape.flatten_spatial(_apply_layer(tape, x, lp, training))
    bias = tape.leaf(lp.bias, f"{unit.name}.bias")
    return tape.release(tape.add_bias(y, bias), y)


class Network:
    """Immutable-once-built layer list; parameters live in the units.

    ``rows`` (one ``(name, macs, params, out (c, h, w), in (h, w))`` per
    convolution, a zero row for the pool) and ``shapes`` (each unit's output
    ``(c, h, w)``, logits as ``(k, 1, 1)``) are the builder's symbolic run.
    """

    def __init__(self, spec: NetworkSpec, units: list, rows: tuple,
                 shapes: tuple):
        self.spec = spec
        self.units = units
        self.rows = rows
        self.shapes = shapes

    def forward_node(self, x: Node, tape: Tape, training: bool = False) -> Node:
        y = x
        for unit in self.units:     # a unit's input has no later reader
            y = tape.release(unit.forward_node(y, tape, training), y)
        return y

    def _slots(self):
        """(parameter name, owner, attribute) of every learnable array."""
        for unit in self.units:
            for base, lp in unit.layers.items():
                for suffix, owner, attr in lp.slots():
                    yield f"{base}.{suffix}", owner, attr

    def parameters(self) -> dict[str, np.ndarray]:
        """Flat name -> array of every learnable parameter, in the order a
        recording forward creates their leaves. Each value is the array that
        leaf takes, in its shape: depthwise weights (c, k, k), pointwise and
        classifier weights (o, c), dense weights (o, c, k, k)."""
        return {name: getattr(owner, attr) for name, owner, attr in self._slots()}

    def set_parameters(self, values: dict[str, np.ndarray]) -> None:
        """Adopt ``values[name]`` for every parameter, without a copy when it
        is a float64 array. Every name and shape is checked before anything
        is assigned; a missing name or a shape other than the parameter's
        raises :class:`DimensionError` naming it. Other names are ignored."""
        slots = list(self._slots())
        adopted = []
        for name, owner, attr in slots:
            if name not in values:
                raise DimensionError(f"parameter {name!r} missing")
            value = np.asarray(values[name], dtype=np.float64)
            want = getattr(owner, attr).shape
            if value.shape != want:
                raise DimensionError(f"parameter {name!r} has shape "
                                     f"{value.shape}, expected {want}")
            adopted.append(value)
        for (_, owner, attr), value in zip(slots, adopted):
            setattr(owner, attr, value)

    def conv_layers(self):
        """Every convolution with its input spatial dims at spec resolution."""
        layers = {k: lp for unit in self.units for k, lp in unit.layers.items()}
        for name, _, _, _, hw in self.rows:
            if name in layers:
                yield name, layers[name].spec, hw


def _cap_contraction(k: int, h: int, w: int) -> int:
    kb = 0
    while kb < k and h % 2 == 0 and w % 2 == 0:
        h //= 2
        w //= 2
        kb += 1
    return kb


def build_network(spec: NetworkSpec, init_weights: bool = True) -> Network:
    """Instantiate units from the stage table, validating shapes as we go.

    Each unit's forward runs once on a :class:`ShapeTape` as it is appended;
    its output shape sizes the next unit. ``init_weights=False`` builds with
    zero weights; enough for the ledger and shape tracing, and much faster
    for wide networks.
    """
    res = spec.input_resolution
    if res < 32:
        raise ConfigError(f"input resolution {res} too small")
    if spec.contraction_variant < 1:
        raise ConfigError(f"contraction variant must be >= 1, "
                          f"got {spec.contraction_variant}")
    rng = np.random.default_rng(spec.seed) if init_weights else None
    units: list = []
    shapes: list[tuple[int, int, int]] = []
    tape = ShapeTape()
    x = tape.leaf(Shape((1, 3, res, res)), "input")

    def append(name, layers, wiring, cfg=None):
        nonlocal x
        unit = Unit(name, stage_name, layers, wiring, cfg)
        hw = x.value.shape[2:]
        first = len(tape.rows)
        x = unit.forward_node(x, tape, training=False)
        out = (*x.value.shape[1:], 1, 1)[:3]
        if len(tape.rows) == first:     # no conv: the global pool
            tape.rows.append([unit.name, 0, out, hw])
        units.append(unit)
        shapes.append(out)

    counts: dict[str, int] = {}
    for i, st in enumerate(spec.stages):
        stage_name = _stage_name(st, counts)
        if len(x.value.shape) != 4:
            raise ConfigError(f"stage {i} ({stage_name}): no stage can "
                              f"follow the classifier")
        c = x.value.shape[1]
        try:    # a unit's config error or its walk's shape error names the stage
            if st.op in ("conv3x3", "conv1x1", "conv1x1_linear"):
                cout = _scale_channels(st.c, spec, st.width_exempt)
                if st.op == "conv3x3":
                    conv = ConvLayerSpec(stage_name, "dense", c, cout, 3, st.s,
                                         True, True)
                else:
                    conv = ConvLayerSpec(stage_name, "pointwise", c, cout, 1, 1,
                                         True, st.op == "conv1x1")
                append(stage_name, {stage_name: _init_layer(conv, rng)}, _conv_wiring)
            elif st.op in ("hbo", "inverted_residual"):
                cout = _scale_channels(st.c, spec, st.width_exempt)
                for r in range(st.n):
                    stride = st.s if r == 0 else 1
                    _, cin, h, w = x.value.shape
                    if st.op == "hbo":
                        # at least one contraction; an odd map fails in the walk
                        k = max(1, _cap_contraction(spec.contraction_variant, h, w))
                        cfg = BlockConfig(cin, cout, st.t, stride,
                                          BlockKind.HARMONIOUS_BOTTLENECK,
                                          contraction_count=k)
                    else:
                        cfg = BlockConfig(cin, cout, st.t, stride,
                                          BlockKind.INVERTED_RESIDUAL)
                    name = f"{stage_name}_{r + 1}"
                    append(name, {f"{name}.{s.name}": _init_layer(s, rng)
                                  for s in block_layer_table(cfg)}, _block_wiring, cfg)
            elif st.op == "avgpool":
                append(stage_name, {}, _pool_wiring)
            elif st.op == "classifier":     # needs the global pool's 1x1 map
                k = spec.num_classes
                conv = ConvLayerSpec(stage_name, "pointwise", c, k, 1, 1, False, False)
                # kaiming-style 2/fan_out blows up here (fan_out is only the
                # class count); a small normal keeps initial logits near zero
                weight = (np.zeros((k, c)) if rng is None
                          else rng.normal(0.0, 0.01, size=(k, c)))
                layer = LayerParams(conv, weight, None, np.zeros(k))
                append(stage_name, {stage_name: layer}, _classifier_wiring)
        except (ConfigError, DimensionError) as exc:
            raise ConfigError(f"stage {i} ({stage_name}): {exc}") from exc
    rows = tuple((name, macs, tape.params.get(name, 0), out, hw)
                 for name, macs, out, hw in tape.rows)
    return Network(spec, units, rows, tuple(shapes))


def _stage_name(st: StageSpec, counts: dict[str, int]) -> str:
    base = {"conv3x3": "conv1", "conv1x1_linear": "proj", "conv1x1": "head",
            "avgpool": "pool", "classifier": "classifier",
            "hbo": "hbo", "inverted_residual": "invres"}[st.op]
    counts[base] = counts.get(base, 0) + 1
    if counts[base] == 1 and st.op not in ("hbo", "inverted_residual"):
        return base
    return f"{base}{counts[base]}"


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


def trace_shapes(net: Network) -> list[tuple[str, tuple[int, int, int]]]:
    """Each stage's output (c, h, w), from the builder's symbolic run."""
    column: dict[str, tuple[int, int, int]] = {}
    for unit, shape in zip(net.units, net.shapes):
        column[unit.stage] = shape      # a stage's last unit sets its output
    return list(column.items())
