"""Outside-in tracing: spans recorded around calls into the package's public
functions, never from inside the package.

Three hooks, all owned by this file:

* :class:`TracingTape` subclasses ``hbonet.autodiff.Tape``; each public op
  method opens a span around the inherited method and wraps the node's VJP
  closure so that the backward sweep records one span per node.
* :func:`wrap_units` replaces ``unit.forward_node`` on each unit of a built
  network with a wrapper that opens a ``block.<kind>`` span.
* :meth:`Recorder.span` is used directly by the benchmark around requests
  (one forward, one train step, one ledger entry, one gradcheck sweep) and
  around the phases of a train step.

Spans stay in memory; :meth:`Recorder.write` dumps them when the run ends.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

from hbonet.autodiff import Tape

# Tape methods that a network forward, a train step or the loss calls.
TRACED_OPS = (
    "conv2d", "depthwise_conv", "pointwise_conv", "batchnorm", "relu6",
    "bilinear_upsample", "avgpool", "concat_channels", "take_first_channels",
    "eltadd", "flatten_spatial", "add_bias", "label_smooth_ce",
)
# The ops that get per-layer metrics; the head's reshape and bias add are
# folded into blocks.head.
REPORTED_OPS = TRACED_OPS[:10]
CONV_OPS = ("conv2d", "depthwise_conv", "pointwise_conv")
VJP_OPS = REPORTED_OPS + ("label_smooth_ce",)
# Depthwise outputs at most this many pixels on a side count as small maps.
SMALL_SIDE = 16


class Span:
    __slots__ = ("name", "parent", "request", "start", "end", "macs",
                 "out_bytes", "side", "peak")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.macs = self.out_bytes = self.side = self.peak = 0


class _Open:
    """Context manager for one span; pushes it on the recorder's stack."""

    __slots__ = ("rec", "span")

    def __init__(self, rec, span):
        self.rec = rec
        self.span = span

    def __enter__(self):
        rec = self.rec
        rec._stack.append(len(rec.spans))
        rec.spans.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.rec._stack.pop()
        return False


class Recorder:
    """In-memory span store. ``active`` gates the unit wrappers, so one set
    of wrapped networks serves traced and untraced rounds."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._requests = 0
        self.active = False
        # Set only inside block_peaks: block spans then also record the
        # tracemalloc peak reached while the block ran.
        self.track_memory = False

    def span(self, name: str) -> _Open:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._requests += 1
        return _Open(self, Span(name, parent, self._requests))

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for s in self.spans:
                fp.write(json.dumps([s.name, s.parent, s.request,
                                     round(s.start, 9), round(s.end, 9),
                                     s.macs, s.out_bytes]) + "\n")


def _macs(name, args, out) -> int:
    """Multiply-adds of one conv call, from its operand shapes (whole batch)."""
    w = args[1].value
    if name == "depthwise_conv":
        return out.size * w.shape[1] * w.shape[2]
    if name == "pointwise_conv":
        return out.size * w.shape[1]
    return out.size * w.shape[1] * w.shape[2] * w.shape[3]


def _timed_vjp(rec: Recorder, name: str, vjp):
    label = "vjp." + name

    def wrapped(g):
        with rec.span(label):
            return vjp(g)
    return wrapped


def _traced_method(name: str):
    inherited = getattr(Tape, name)
    label = "op." + name
    is_conv = name in CONV_OPS

    def method(self, *args, **kwargs):
        rec = self.recorder
        with rec.span(label) as sp:
            node = inherited(self, *args, **kwargs)
        out = node.value
        sp.out_bytes = getattr(out, "nbytes", 8)
        if is_conv:
            sp.macs = _macs(name, args, out)
            sp.side = out.shape[2]
        if node.vjp is not None:
            node.vjp = _timed_vjp(rec, name, node.vjp)
        return node

    method.__name__ = name
    method.__doc__ = inherited.__doc__
    return method


class TracingTape(Tape):
    """A ``Tape`` whose public op methods record spans on ``recorder``.
    Values are computed by the inherited methods, so they are bitwise the
    values an untraced tape computes."""

    def __init__(self, recorder: Recorder, grad_enabled: bool = True):
        super().__init__(grad_enabled)
        self.recorder = recorder


for _name in TRACED_OPS:
    setattr(TracingTape, _name, _traced_method(_name))


def unit_kind(unit) -> str:
    """Block family of a network unit, from the builder's unit names."""
    name = unit.name
    if name.startswith("hbo"):
        return "hbo"
    if name.startswith("invres"):
        return "invres"
    if name.startswith(("pool", "classifier")):
        return "head"
    return "conv"


def wrap_units(net, rec: Recorder) -> None:
    """Shadow each unit's ``forward_node`` with a span-opening wrapper that
    is a plain pass-through while ``rec.active`` is false."""
    for unit in net.units:
        inner = unit.forward_node
        label = "block." + unit_kind(unit)

        def forward_node(x, tape, training, inner=inner, label=label):
            if not rec.active:
                return inner(x, tape, training)
            with rec.span(label) as sp:
                if rec.track_memory:
                    tracemalloc.reset_peak()
                y = inner(x, tape, training)
                if rec.track_memory:
                    sp.peak = tracemalloc.get_traced_memory()[1]
                return y
        unit.forward_node = forward_node


def block_peaks(rec: Recorder, passes) -> dict[str, float]:
    """Run each callable in ``passes`` under tracemalloc and return, per
    block family, the highest traced-memory peak (MB) reached inside one
    block. The spans of these untimed passes are dropped again."""
    mark = len(rec.spans)
    rec.active = rec.track_memory = True
    tracemalloc.start()
    try:
        for run in passes:
            run()
    finally:
        tracemalloc.stop()
        rec.active = rec.track_memory = False
    peaks: dict[str, float] = defaultdict(float)
    for s in rec.spans[mark:]:
        if s.name.startswith("block."):
            peaks[s.name[6:]] = max(peaks[s.name[6:]], s.peak / 2**20)
    del rec.spans[mark:]
    return peaks


def conv_macs_by_request(rec: Recorder, request_name: str) -> list[int]:
    """Conv multiply-adds summed over each request named ``request_name``."""
    totals: dict[int, int] = defaultdict(int)
    roots = {s.request for s in rec.spans
             if s.parent < 0 and s.name == request_name}
    for s in rec.spans:
        if s.macs and s.request in roots:
            totals[s.request] += s.macs
    return [totals[r] for r in sorted(roots)]


def summarize(rec: Recorder, rounds: int) -> dict[str, float]:
    """Span-derived per-layer metrics. Times, calls and output bytes are
    totals per round; rates and maxima are over the whole traced run."""
    spans = rec.spans
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]

    total = defaultdict(float)      # span time by name
    self_time = defaultdict(float)  # span time minus direct children
    calls = defaultdict(int)
    out_bytes = defaultdict(int)
    macs = defaultdict(int)
    max_out = 0
    for i, s in enumerate(spans):
        name = s.name
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        calls[name] += 1
        if name.startswith("op."):
            out_bytes[name] += s.out_bytes
            max_out = max(max_out, s.out_bytes)
            if s.macs:
                macs[name] += s.macs
                owner = spans[s.parent].name if s.parent >= 0 else ""
                macs[owner] += s.macs
                if name == "op.depthwise_conv":
                    side = "le16" if s.side <= SMALL_SIDE else "gt16"
                    total["op.depthwise_conv." + side] += dur[i]

    per = 1.0 / rounds

    def ms(name):
        return 1e3 * total[name] * per

    def gmacs(name):
        return macs[name] / total[name] / 1e9 if total[name] else 0.0

    m: dict[str, float] = {}
    for op in REPORTED_OPS:
        m[f"ops.{op}.ms"] = ms("op." + op)
        m[f"ops.{op}.calls"] = calls["op." + op] * per
        m[f"ops.{op}.out_mb"] = out_bytes["op." + op] / 2**20 * per
    for op in CONV_OPS:
        m[f"ops.{op}.gmac_per_s"] = gmacs("op." + op)
    m["ops.depthwise_conv.le16.ms"] = ms("op.depthwise_conv.le16")
    m["ops.depthwise_conv.gt16.ms"] = ms("op.depthwise_conv.gt16")
    m["ops.max_out_mb"] = max_out / 2**20

    # the sweep's own time: gradient accumulation and bookkeeping, no VJPs
    m["autodiff.backward.ms"] = 1e3 * self_time["train.backward"] * per
    for op in VJP_OPS:
        m[f"autodiff.vjp.{op}.ms"] = ms("vjp." + op)

    for kind in ("hbo", "invres"):
        key = "block." + kind
        m[f"blocks.{kind}.ms"] = ms(key)
        m[f"blocks.{kind}.self_ms"] = 1e3 * self_time[key] * per
        m[f"blocks.{kind}.gmac_per_s"] = gmacs(key)
    m["blocks.conv.ms"] = ms("block.conv")
    m["blocks.head.ms"] = ms("block.head")

    m["network.build_s"] = total["network.build"] * per
    m["network.forward.self_ms"] = 1e3 * per * sum(
        self_time[k] for k in ("forward.hbonet", "forward.mobilenetv2",
                               "train.forward"))
    for phase in ("forward", "loss", "backward", "optimizer"):
        m[f"train.{phase}_ms"] = ms("train." + phase)
    m["complexity.ledger_ms"] = ms("complexity.ledger")
    return m
