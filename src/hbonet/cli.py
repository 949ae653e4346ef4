"""Command-line interface: complexity analysis, shape tracing, inference,
gradient checking, toy training, and spec dumping.

Exit codes: 0 success, 1 assertion or tolerance failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .blocks import ConfigError
from .complexity import ledger, ledger_to_json, write_ledger_csv
from .gradcheck import run_gradient_checks
from .network import (
    NetworkSpec,
    build_network,
    default_divisor,
    forward,
    hbonet_spec,
    load_stage_table,
    mobilenetv2_spec,
    preset_stage_table,
    trace_shapes,
)
from .tensor import Tensor
from .train import ToyConfig, train_toy, write_log_csv


def _writable(path: str) -> bool:
    folder = os.path.dirname(path) or "."
    return (path != "" and os.path.isdir(folder) and not os.path.isdir(path)
            and os.access(path if os.path.exists(path) else folder, os.W_OK))


# (argument, test, requirement) for the numeric and output-path flags, checked
# before any work: a bad value exits 2 with one line, not a traceback or a lost run
_FLAG_RULES = (
    ("width", lambda v: 0 < v < math.inf, "a positive finite number"),
    ("divisor", lambda v: v in (0, 2, 4, 8), "0 (the default policy), 2, 4 or 8"),
    ("num_classes", lambda v: v >= 1, ">= 1"),
    ("batch", lambda v: v >= 1, ">= 1"),
    ("seed", lambda v: v >= 0, ">= 0"),
    ("expect_mflops", lambda v: 0 < v < math.inf, "a positive finite number"),
    ("tol", lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    ("step", lambda v: 0 < v < math.inf, "a positive finite number"),
    ("threshold", lambda v: 0 < v < math.inf, "a positive finite number"),
    ("csv", _writable, "a writable file path"),
    ("json", _writable, "a writable file path"),
    ("log_csv", _writable, "a writable file path"),
)


def _check_flags(args) -> None:
    for dest, ok, requirement in _FLAG_RULES:
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            raise ConfigError(f"--{dest.replace('_', '-')} must be "
                              f"{requirement}, got {value!r}")


def _network_spec(args) -> NetworkSpec:
    if getattr(args, "spec", None):
        try:
            with open(args.spec) as fp:
                doc = json.load(fp)
        except OSError as exc:
            raise ConfigError(f"cannot read --spec {args.spec}: "
                              f"{exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--spec {args.spec} is not JSON: {exc}") from exc
        name, stages = load_stage_table(doc)
        divisor = args.divisor if args.divisor else default_divisor(args.width, name)
        return NetworkSpec(name, stages, args.width, divisor, args.resolution,
                           args.num_classes, args.variant, args.seed)
    maker = {"hbonet": hbonet_spec, "mobilenetv2": mobilenetv2_spec}.get(args.preset)
    if maker is None:
        raise ConfigError(f"unknown preset {args.preset!r}")
    kwargs = dict(width=args.width, resolution=args.resolution,
                  divisor=args.divisor or None, num_classes=args.num_classes,
                  seed=args.seed)
    if args.preset == "hbonet":
        kwargs["variant"] = args.variant
    elif args.variant != 1:
        raise ConfigError(f"--variant applies to the hbonet preset only, "
                          f"got {args.variant} for {args.preset}")
    return maker(**kwargs)


def _add_network_flags(p):
    p.add_argument("--preset", choices=["hbonet", "mobilenetv2"],
                   default="hbonet")
    p.add_argument("--spec", help="stage-table JSON file overriding the preset")
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--resolution", type=int, default=224)
    p.add_argument("--divisor", type=int, default=0,
                   help="channel divisor (default: policy by width)")
    p.add_argument("--num-classes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", type=int, default=1,
                   help="max spatial contraction units per block")


def cmd_analyze(args) -> int:
    net = build_network(_network_spec(args), init_weights=False)
    led = ledger(net)
    print(led.pretty())
    if args.csv:
        with open(args.csv, "w", newline="") as fp:
            write_ledger_csv(led, fp)
        print(f"wrote {args.csv}")
    if args.json:
        with open(args.json, "w") as fp:
            json.dump(ledger_to_json(led), fp, indent=2)
        print(f"wrote {args.json}")
    if args.expect_mflops is not None:
        got = led.total_macs / 1e6
        rel = abs(got - args.expect_mflops) / args.expect_mflops * 100
        status = "within" if rel <= args.tol else "OUTSIDE"
        print(f"expected {args.expect_mflops} MFLOPs, got {got:.2f} "
              f"({rel:.2f}% deviation, {status} {args.tol}% tolerance)")
        if rel > args.tol:
            return 1
    return 0


def cmd_trace(args) -> int:
    net = build_network(_network_spec(args), init_weights=False)
    for name, (c, h, w) in trace_shapes(net):
        print(f"{name:<12} {h}x{w}x{c}")
    return 0


def cmd_infer(args) -> int:
    net = build_network(_network_spec(args))
    rng = np.random.default_rng(args.seed)
    x = Tensor(rng.normal(size=(args.batch, 3, args.resolution,
                                args.resolution)))
    logits = forward(net, x)
    print(f"logits shape: {logits.shape}")
    for i in range(min(args.batch, 4)):
        top = int(np.argmax(logits[i]))
        print(f"sample {i}: argmax={top}  "
              f"min={logits[i].min():+.4f} max={logits[i].max():+.4f}")
    if not np.all(np.isfinite(logits)):
        print("non-finite logits", file=sys.stderr)
        return 1
    return 0


def cmd_gradcheck(args) -> int:
    results = run_gradient_checks(step=args.step, seed=args.seed)
    failures = 0
    for r in results:
        status = "ok" if r.ok(args.threshold) else "FAIL"
        print(f"{r.name:<40} rel err {r.rel_error:.3e}  {status}")
        failures += 0 if r.ok(args.threshold) else 1
    print(f"{len(results) - failures}/{len(results)} checks passed "
          f"(threshold {args.threshold:g})")
    return 1 if failures else 0


def cmd_train_toy(args) -> int:
    config = ToyConfig(num_samples=args.samples, batch_size=args.batch_size,
                       base_lr=args.lr, label_smoothing=args.label_smoothing)
    spec = hbonet_spec(width=args.width, resolution=config.image_size,
                       divisor=args.divisor or 2, num_classes=3,
                       seed=args.seed)
    log = train_toy(spec, config, epochs=args.epochs, seed=args.seed)
    for row in log:
        print(f"epoch {row.epoch:3d}  lr {row.lr:.5f}  loss {row.loss:.4f}  "
              f"acc {row.accuracy:.3f}")
    if args.log_csv:
        with open(args.log_csv, "w", newline="") as fp:
            write_log_csv(log, fp)
        print(f"wrote {args.log_csv}")
    return 0


def cmd_dump_spec(args) -> int:
    print(json.dumps(preset_stage_table(args.preset), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbonet",
        description="Harmonious-bottleneck CNN toolkit: complexity ledger, "
                    "shape tracing, inference, gradient checks, toy training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print the Multiply-Adds ledger")
    _add_network_flags(p)
    p.add_argument("--csv", help="write machine-readable ledger CSV")
    p.add_argument("--json", help="write ledger JSON")
    p.add_argument("--expect-mflops", type=float, default=None,
                   help="exit 1 if the total deviates more than --tol percent")
    p.add_argument("--tol", type=float, default=3.0)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("trace", help="print stage-level output shapes")
    _add_network_flags(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("infer", help="run inference on random input")
    _add_network_flags(p)
    p.add_argument("--batch", type=int, default=1)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-5)
    p.set_defaults(fn=cmd_gradcheck)

    toy = ToyConfig()
    p = sub.add_parser("train-toy", help="train on the synthetic 3-class task")
    p.add_argument("--epochs", type=int, default=None,
                   help=f"run only the first N epochs of the fixed "
                        f"{toy.epochs}-epoch cosine schedule (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=toy.num_samples)
    p.add_argument("--width", type=float, default=0.25)
    p.add_argument("--divisor", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=toy.batch_size)
    p.add_argument("--lr", type=float, default=toy.base_lr)
    p.add_argument("--label-smoothing", type=float,
                   default=toy.label_smoothing)
    p.add_argument("--log-csv", help="write the training log as CSV")
    p.set_defaults(fn=cmd_train_toy)

    p = sub.add_parser("dump-spec", help="print an embedded stage table")
    p.add_argument("--preset", choices=["hbonet", "mobilenetv2"],
                   default="hbonet")
    p.set_defaults(fn=cmd_dump_spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
