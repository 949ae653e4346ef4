"""Run one workload of the hbonet benchmark and print its metrics.

    python3 perfbench/run.py --workload infer-224 --seed 0 --seconds 55 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line is a JSON object holding the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a separate traced run (spans are
written to ``.perfbench_out/``). Lines before it start with ``#`` and state
the environment, the sample counts and the failed checks.
"""
import argparse
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set through the package's documented knob before numpy
# is first imported; two-thread timings on a 2-core machine spread twice as
# wide.
os.environ["HBONET_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the seconds it took, and exit")
    return p.parse_args(argv)


def environment() -> str:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in
               ("HBONET_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
            f"threads={threads}")


def setup_in_fresh_process(args) -> float:
    """One more set-up in a new interpreter, so lazily filled caches are
    cold again and count every time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    if not (SRC / "hbonet" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import json
    import statistics

    # Set-up runs from importing hbonet to the end of the warm-up calls.
    t0 = time.perf_counter()
    import hbonet  # first, so that it pins BLAS threads before numpy loads
    from bench import WORKLOADS, Bench, unit_of
    from tracing import Recorder

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    rec = Recorder() if args.trace else None
    bench = Bench(args.workload, args.seed, rec)
    bench.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(f"{setup_s!r}")
        return 0

    if Path(hbonet.__file__).resolve().parent != SRC / "hbonet":
        print(f"error: imported hbonet from {hbonet.__file__}", file=sys.stderr)
        return 2

    print(f"# env {environment()}")
    if args.trace:
        metrics = bench.measure_traced(args.seconds)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write(span_file)
        for name, (got, want) in bench.mac_join.items():
            print(f"# {name} traced conv MACs per forward {got:,} "
                  f"ledger {want:,}")
        print(f"# tracing overhead {metrics['trace.overhead_pct']:.1f}% "
              f"(traced vs untraced rounds); spans in {span_file.relative_to(ROOT)}")
    else:
        setups = [setup_s] + [setup_in_fresh_process(args)
                              for _ in range(SETUP_REPEATS - 1)]
        metrics = {"setup_s": statistics.median(setups)}
        metrics.update(bench.measure(args.seconds))
        print(f"# setup_s samples {[round(s, 3) for s in setups]}")
        print(f"# reference kernel median {bench.reference_ms:.3f} ms; plain "
              "call times in ms (median, tail): " + " ".join(
                  f"{k}={p50:.2f},{tail:.2f}" for k, (p50, tail) in bench.raw_ms.items()))

    passed = (bench.attempted - bench.failed) / bench.attempted
    if not args.trace:
        metrics["passed_frac"] = passed
    counts = {k: len(v) for k, v in bench.samples.items()}
    print(f"# {bench.rounds:.2f} rounds in {bench.elapsed:.1f} s; samples {counts}")
    print(f"# checks attempted {bench.attempted} failed {bench.failed}")
    for what in bench.failures:
        print(f"# FAILED {what}")

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(v), "unit": unit_of(name)}
                    for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
