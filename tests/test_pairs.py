"""The pairs recorder's summary: medians, parent IQR, wins, the forward
ratio and the reference-kernel medians, on synthetic runs."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def pairs():
    path = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, seed, step, passed=1.0, hbo=2.0, mnv2=1.0):
    return {"side": side, "seed": seed, "correct": passed == 1.0,
            "kernel_ms": 1.0 + seed / 10 if side == "tree" else None,
            "metrics": {"train.step_ref_p50": step, "passed_frac": passed,
                        "hbonet.forward_ref_p50": hbo,
                        "mobilenetv2.forward_ref_p50": mnv2}}


def test_summary_counts_wins_by_direction(pairs):
    runs = [_run("parent", 1, 10.0), _run("tree", 1, 8.0),
            _run("tree", 2, 12.0), _run("parent", 2, 11.0),
            _run("parent", 3, 9.0), _run("tree", 3, 9.0, hbo=1.5),
            _run("parent", 4, 12.0, passed=0.5), _run("tree", 4, 7.0)]
    s = pairs.summarize(runs, {"train.step_ref_p50": "lower",
                               "passed_frac": "higher"})
    step = s["metrics"]["train.step_ref_p50"]
    assert (step["wins"], step["losses"], step["pairs"]) == (2, 1, 4)   # one tie
    assert step["parent_median"] == 10.5 and step["tree_median"] == 8.5
    assert step["parent_iqr"] == pytest.approx(11.25 - 9.75)
    assert step["change"] == pytest.approx(8.5 / 10.5 - 1)
    passed = s["metrics"]["passed_frac"]
    assert (passed["wins"], passed["losses"]) == (1, 0)
    assert s["forward_ratio"] == {"parent": 2.0, "tree": 2.0}
    assert s["kernel_ms"] == {"parent": None, "tree": pytest.approx(1.25)}
    assert s["passed_all"] is False


def test_parse_run_keeps_the_reference_kernel_line(pairs):
    line = ("reference kernel median 1.190 ms; plain call times in ms "
            "(median, tail): infer.hbonet=85.10,90.20")
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
    out = "\n".join(["# env python 3.11", "# setup_s samples [0.5]", f"# {line}",
                     "# 1.00 rounds in 30.0 s", json.dumps(result)])
    run = pairs.parse_run(out)
    assert (run["reference"], run["kernel_ms"]) == (line, 1.19)
    assert run["env"] == "python 3.11" and run["metrics"] == {"setup_s": 0.5}
    assert run["plain_ms"] == {"hbonet": 85.1}
    assert pairs.parse_run(json.dumps(result))["kernel_ms"] is None


def test_plain_call_times_are_kept_per_run_and_summarized_per_side(pairs):
    """Each run's plain median ms per call kind come from its kernel line;
    the summary holds each side's median of them next to the kernel's."""
    def stdout(kernel, hbo, step):
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {name: {"value": 1.0, "unit": "ref"}
                              for name in pairs.RATIO}}
        return "\n".join([
            "# env python 3.11",
            f"# reference kernel median {kernel:.3f} ms; plain call times in ms "
            f"(median, tail): hbonet={hbo:.2f},102.11 mobilenetv2=55.30,60.00 "
            f"step={step:.2f},90.50 ledger=2.84,3.10",
            json.dumps(result)])

    runs = [{"side": side, "seed": seed, **pairs.parse_run(stdout(*args))}
            for side, seed, args in (("parent", 1, (1.25, 80.73, 83.00)),
                                     ("tree", 1, (1.12, 80.10, 82.90)),
                                     ("tree", 2, (1.16, 81.50, 83.40)),
                                     ("parent", 2, (1.29, 79.90, 84.20)),
                                     ("parent", 3, (1.27, 81.00, 82.10)),
                                     ("tree", 3, (1.14, 80.40, 83.10)))]
    assert runs[0]["plain_ms"] == {"hbonet": 80.73, "mobilenetv2": 55.3,
                                   "step": 83.0, "ledger": 2.84}
    s = pairs.summarize(runs, {})
    assert s["kernel_ms"] == {"parent": 1.27, "tree": 1.14}
    assert s["plain_ms"]["parent"] == {"hbonet": 80.73, "mobilenetv2": 55.3,
                                       "step": 83.0, "ledger": 2.84}
    assert s["plain_ms"]["tree"]["hbonet"] == 80.4
    assert s["plain_ms"]["tree"]["step"] == 83.1


def test_newest_earlier_follows_commit_order_not_names(pairs, tmp_path, monkeypatch):
    """Two BENCH files of one date: the one committed later is newer, though
    its hash sorts first; ``out`` itself is skipped."""
    for var, value in (("GIT_AUTHOR_NAME", "t"), ("GIT_AUTHOR_EMAIL", "t@t"),
                       ("GIT_COMMITTER_NAME", "t"), ("GIT_COMMITTER_EMAIL", "t@t")):
        monkeypatch.setenv(var, value)
    (tmp_path / "bench").mkdir()

    def commit(name):
        (tmp_path / "bench" / name).write_text("{}")
        for cmd in (["add", "--", f"bench/{name}"], ["commit", "-q", "-m", name]):
            subprocess.run(["git", *cmd], cwd=tmp_path, check=True)

    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    commit("BENCH_2026-10-18_a5d1035.json")
    commit("BENCH_2026-10-18_a2eb09b.json")
    out = tmp_path / "bench" / "BENCH_2026-10-19_0000000.json"
    assert pairs.newest_earlier(tmp_path, out).name == "BENCH_2026-10-18_a2eb09b.json"
    commit(out.name)
    assert pairs.newest_earlier(tmp_path, out).name == "BENCH_2026-10-18_a2eb09b.json"
