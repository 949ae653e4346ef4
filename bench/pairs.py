"""Record alternating benchmark pairs of a parent revision and the working tree.

    python3 bench/pairs.py --parent HEAD --seeds 900 901 902

Run from anywhere inside the repository. The parent revision is exported
with ``git archive`` into a temporary directory. For each workload in
``BENCHMARK.json`` and each seed, ``perfbench/run.py --trace 0`` runs once in
the parent's copy and once in the working tree, one after the other; which
side runs first alternates from pair to pair. The script writes
``bench/BENCH_<date>_<parent>.json`` (``<parent>``: the parent's short hash)
holding every run's metrics and, per workload and metric, both sides'
medians, the parent's interquartile range and the working tree's wins. It
also stores the ``hbonet.forward_ref_p50 / mobilenetv2.forward_ref_p50``
ratio, and each run's ``# reference kernel median ...; plain call times ...``
line, from which it keeps the run's kernel median and its plain median ms
per call kind, with the median of each over the runs per side: a ``ref``
metric is a call's time over the kernel's, so a change that moves the kernel
moves every ``ref`` metric, and the plain times show whether the call itself
moved. It then prints the kernel and plain-ms medians and how each result
differs from the newest BENCH file committed before it.

The host's speed drifts about 1.35x between sessions, so compare files by
their change ratios and forward ratios. Their absolute ``ref`` values do
not compare across sessions.
"""
from __future__ import annotations

import argparse
import datetime
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
FORMAT_VERSION = 1
RATIO = ("hbonet.forward_ref_p50", "mobilenetv2.forward_ref_p50")
KERNEL = re.compile(r"# (reference kernel median ([0-9.]+) ms;.*)")
PLAIN = re.compile(r"(\w+)=([0-9.]+),[0-9.]+")   # kind=median,tail


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()


def export(root: Path, rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    cmd = [sys.executable, *command[1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=3 * seconds + 300)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{out.returncode}:\n{out.stderr}")
    return parse_run(out.stdout)


def parse_run(stdout: str) -> dict:
    """One run's record from ``perfbench/run.py``'s output: its last line's
    JSON, its ``# env`` line and its reference-kernel line, if printed, with
    the kernel median and each call kind's plain median ms read from it."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    kernel = next((m for m in map(KERNEL.fullmatch, lines) if m), None)
    return {"env": next((ln[len("# env "):] for ln in lines
                         if ln.startswith("# env ")), None),
            "reference": kernel and kernel[1],
            "kernel_ms": kernel and float(kernel[2]),
            "plain_ms": kernel and {kind: float(ms) for kind, ms
                                    in PLAIN.findall(kernel[1])},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def forward_ratio(metrics: dict) -> float:
    return metrics[RATIO[0]] / metrics[RATIO[1]]


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric medians, parent IQR and wins over the pairs of one workload."""
    sides = {side: [r for r in runs if r["side"] == side]
             for side in ("parent", "tree")}
    pairs = list(zip(sides["parent"], sides["tree"]))
    metrics = {}
    for name, direction in better.items():
        par = [r["metrics"][name] for r in sides["parent"]]
        new = [r["metrics"][name] for r in sides["tree"]]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (p["metrics"][name] - t["metrics"][name]) > 0
                   for p, t in pairs)
        losses = sum(sign * (p["metrics"][name] - t["metrics"][name]) < 0
                     for p, t in pairs)
        q1, q3 = quartiles(par)
        med_p, med_t = statistics.median(par), statistics.median(new)
        metrics[name] = {
            "better": direction, "parent_median": med_p, "tree_median": med_t,
            "parent_iqr": q3 - q1,
            "change": med_t / med_p - 1 if med_p else None,
            "wins": wins, "losses": losses, "pairs": len(pairs),
        }
    kernel = {side: [r["kernel_ms"] for r in rs if r["kernel_ms"] is not None]
              for side, rs in sides.items()}
    plain = {side: [r["plain_ms"] for r in rs if r.get("plain_ms")]
             for side, rs in sides.items()}
    return {
        "metrics": metrics,
        "forward_ratio": {side: statistics.median(forward_ratio(r["metrics"])
                                                  for r in rs)
                          for side, rs in sides.items()},
        "kernel_ms": {side: statistics.median(ms) if ms else None
                      for side, ms in kernel.items()},
        "plain_ms": {side: {kind: statistics.median(r[kind] for r in rs)
                            for kind in rs[0]} if rs else None
                     for side, rs in plain.items()},
        "passed_all": all(r["correct"] for r in runs),
    }


def newest_earlier(root: Path, out: Path) -> Path | None:
    """The BENCH file, other than ``out``, that the newest commit added. File
    names do not order them: files of one date sort by hash."""
    added = git(root, "log", "--diff-filter=A", "--name-only", "--format=",
                "--", "bench/BENCH_*.json").split()
    earlier = [p for p in added
               if (root / p).is_file() and (root / p).resolve() != out.resolve()]
    return root / earlier[0] if earlier else None


def print_difference(report: dict, earlier: Path | None) -> None:
    prev = json.loads(earlier.read_text())["workloads"] if earlier else {}
    print(f"# difference from {earlier.name if earlier else 'no earlier BENCH file'}")
    for workload, summary in report["workloads"].items():
        before = prev.get(workload, {"metrics": {}, "forward_ratio": {}})
        fr, fr_prev = summary["forward_ratio"]["tree"], before["forward_ratio"].get("tree")
        print(f"{workload}: hbonet/mobilenetv2 forward ratio {fr:.3f}"
              + (f" (was {fr_prev:.3f})" if fr_prev else ""))
        print("  reference kernel median ms: " + ", ".join(
            f"{side} {ms:.3f}" if ms is not None else f"{side} not printed"
            for side, ms in summary["kernel_ms"].items()))
        for side, kinds in summary["plain_ms"].items():
            print(f"  {side} plain median ms: " + (" ".join(
                f"{kind} {ms:.2f}" for kind, ms in kinds.items())
                if kinds else "not printed"))
        for name, m in summary["metrics"].items():
            if m["change"] is None:
                continue
            was = before["metrics"].get(name, {}).get("change")
            print(f"  {name:30s} tree/parent {m['change']:+7.2%}  wins "
                  f"{m['wins']}/{m['pairs']}  parent IQR {m['parent_iqr']:.4g}"
                  + (f"  (previous file {was:+7.2%})" if was is not None else ""))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", default="HEAD",
                   help="revision to compare the working tree with")
    p.add_argument("--seeds", type=int, nargs="+", required=True,
                   help="one pair of runs per seed and workload")
    args = p.parse_args(argv)

    root = Path(git(HERE, "rev-parse", "--show-toplevel"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    parent = git(root, "rev-parse", args.parent)
    date = datetime.date.today().isoformat()
    out = HERE / f"BENCH_{date}_{parent[:7]}.json"

    report = {
        "format_version": FORMAT_VERSION, "date": date, "parent": parent,
        "tree": {"head": git(root, "rev-parse", "HEAD"),
                 "dirty": bool(git(root, "status", "--porcelain",
                                   "--untracked-files=no"))},
        "command": spec["command"], "run_seconds": seconds, "seeds": args.seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="hbonet-parent-") as tmp:
        export(root, parent, Path(tmp))
        trees = {"parent": Path(tmp), "tree": root}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for k, seed in enumerate(args.seeds):
                order = ("parent", "tree") if k % 2 == 0 else ("tree", "parent")
                for position, side in enumerate(order):
                    r = run_once(trees[side], spec["command"], workload, seed,
                                 seconds)
                    report.setdefault("env", r.pop("env"))
                    runs.append({"side": side, "seed": seed, "position": position, **r})
                    print(f"# {workload} seed {seed} {side}: "
                          f"{'ok' if r['correct'] else 'FAILED'}", flush=True)
            report["workloads"][workload] = {"runs": runs, **summarize(runs, better)}
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"# wrote {out.relative_to(root)}")
    print_difference(report, newest_earlier(root, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
