"""Analytic Multiply-Adds and parameter ledger.

The ledger and the shape trace are one symbolic run of the forward: the
network builder runs each unit on a :class:`~hbonet.autodiff.ShapeTape`,
which records a row per executed convolution (a zero row for the global
pool), and :func:`ledger` reads those rows.

Counting convention: convolution multiply-adds only. Normalization,
activation, pooling, bilinear upsampling, elementwise add, concatenation and
bias adds cost zero; every parameter (conv weights, batch-norm affines, the
classifier bias) counts. Counts are exact integers; MFLOPs is the total
divided by 10^6 and rounded to the nearest integer.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from io import TextIOBase

from .network import Network
from .blocks import ConfigError

__all__ = [
    "CostLedger",
    "LedgerRow",
    "cost_separable",
    "cost_hbo",
    "ledger",
    "write_ledger_csv",
    "ledger_to_json",
]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class LedgerRow:
    name: str
    macs: int
    params: int
    out_shape: tuple[int, int, int]


@dataclass(frozen=True)
class CostLedger:
    network: str
    resolution: int
    rows: tuple[LedgerRow, ...]

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def mflops(self) -> int:
        return round(self.total_macs / 1e6)

    def pretty(self) -> str:
        width = max(len(r.name) for r in self.rows) + 2
        lines = [f"{'layer':<{width}}{'output':>14}{'MACs':>14}{'params':>10}"]
        for r in self.rows:
            c, h, w = r.out_shape
            lines.append(
                f"{r.name:<{width}}{f'{c}x{h}x{w}':>14}{r.macs:>14,}{r.params:>10,}"
            )
        lines.append("-" * (width + 38))
        lines.append(
            f"{'total':<{width}}{'':>14}{self.total_macs:>14,}{self.total_params:>10,}"
        )
        lines.append(f"total Multiply-Adds: {self.total_macs:,} "
                     f"(~{self.mflops} MFLOPs), params: {self.total_params:,}")
        return "\n".join(lines)


def cost_separable(h: int, w: int, c1: int, c2: int, k: int) -> int:
    """Multiply-adds of a depthwise separable layer:
    h*w*c1*k^2 (depthwise) + h*w*c1*c2 (pointwise), output-resolution terms.
    """
    if min(h, w, c1, c2, k) < 1:
        raise ValueError("all arguments must be >= 1")
    return h * w * c1 * k * k + h * w * c1 * c2


def cost_hbo(B: int, h: int, w: int, c1: int, c2: int, k: int, s: int) -> int:
    """Block cost after wrapping a body of cost ``B`` in a spatial
    contraction-expansion pair: B/s^2 + (h/s * w/s * c1 + h*w*c2) * k^2."""
    if s not in (1, 2, 4, 8):
        raise ValueError(f"contraction ratio must be 1, 2, 4 or 8, got {s}")
    if h % s or w % s:
        raise ConfigError(f"spatial {h}x{w} not divisible by contraction {s}")
    return B // (s * s) + ((h // s) * (w // s) * c1 + h * w * c2) * k * k


def ledger(net: Network) -> CostLedger:
    """Per-layer and total Multiply-Adds/parameters for a built network,
    read from the builder's symbolic run of its forward.

    Counts are per sample (batch-size invariant).
    """
    rows = tuple(LedgerRow(name, macs, params, out)
                 for name, macs, params, out, _ in net.rows)
    return CostLedger(net.spec.name, net.spec.input_resolution, rows)


def write_ledger_csv(led: CostLedger, fp: TextIOBase) -> None:
    fp.write(f"# format_version={FORMAT_VERSION}\n")
    writer = csv.writer(fp)
    writer.writerow(["layer", "out_channels", "out_h", "out_w", "macs", "params"])
    for r in led.rows:
        writer.writerow([r.name, *r.out_shape, r.macs, r.params])
    writer.writerow(["total", "", "", "", led.total_macs, led.total_params])


def ledger_to_json(led: CostLedger) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "network": led.network,
        "resolution": led.resolution,
        "rows": [
            {"layer": r.name, "out_shape": list(r.out_shape),
             "macs": r.macs, "params": r.params}
            for r in led.rows
        ],
        "total_macs": led.total_macs,
        "total_params": led.total_params,
        "mflops": led.mflops,
    }
