"""The pairs recorder's summary: medians, parent IQR, wins and the forward
ratio, on synthetic runs."""
import importlib.util
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
    assert s["passed_all"] is False


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
