"""Tests of the benchmark itself: metric names, fidelity of its train loop,
transparency of tracing, the MAC join, and that its correctness gate bites.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import bench
import run
from hbonet import (
    Tape,
    Tensor,
    ToyConfig,
    build_network,
    forward,
    hbonet_spec,
    ledger,
    load_tensor,
    mobilenetv2_spec,
    save_tensor,
    train_toy,
)
from hostspeed import HostProbe
from tracing import Recorder, TracingTape, conv_macs_by_request, wrap_units

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NO_SPAN = lambda name: nullcontext()  # noqa: E731


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, monkeypatch, capsys):
    # one call of each kind per round keeps this quick
    monkeypatch.setitem(bench.WORKLOADS, "train-toy", bench.Mix(1, 1, 1, 1))
    argv = ["--workload", "train-toy", "--seed", "5", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    out = _last_json(capsys.readouterr().out)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    printed = {k: v["unit"] for k, v in out["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert printed == declared
    assert all(np.isfinite(v["value"]) for v in out["metrics"].values())


def test_train_loop_reproduces_train_toy_epoch_zero_bitwise():
    config = ToyConfig()
    trainer = bench.ToyTrainer([0], config)
    losses = []
    for _ in range(trainer.steps_per_episode):
        _, _, xb, yb = trainer.next_batch()
        losses.append(trainer.step(Tape(), xb, yb, NO_SPAN)[0])
    expected = train_toy(config=config, epochs=1, seed=0)[0].loss
    assert float(np.mean(losses)) == expected


def test_traced_values_are_bitwise_untraced():
    rec = Recorder()
    rec.active = True
    x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 96, 96)))
    for spec in (hbonet_spec(0.25, 96), mobilenetv2_spec(0.35, 96)):
        net = build_network(spec)
        plain = forward(net, x)
        wrap_units(net, rec)
        tape = TracingTape(rec, grad_enabled=False)
        traced = net.forward_node(tape.leaf(x.data, "input"), tape, training=False)
        assert np.array_equal(traced.value, plain)

    config = ToyConfig()
    plain_tr, traced_tr = bench.ToyTrainer([1], config), bench.ToyTrainer([1], config)
    wrap_units(traced_tr.net, rec)
    for _ in range(2):
        _, _, xb, yb = plain_tr.next_batch()
        _, _, xt, yt = traced_tr.next_batch()
        assert plain_tr.step(Tape(), xb, yb, NO_SPAN)[0] == \
            traced_tr.step(TracingTape(rec), xt, yt, rec.span)[0]
    assert any(s.name.startswith("vjp.") for s in rec.spans)


def test_span_mac_join_equals_ledger():
    rec = Recorder()
    rec.active = True
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 224, 224)))
    for name in bench.NETWORKS:
        net = build_network(bench.infer_spec(name))
        wrap_units(net, rec)
        with rec.span("forward." + name):
            tape = TracingTape(rec, grad_enabled=False)
            net.forward_node(tape.leaf(x.data, "input"), tape, training=False)
        assert conv_macs_by_request(rec, "forward." + name) == [ledger(net).total_macs]


def _perturb(golden_dir: Path, which: str):
    if which == "logits":
        path = golden_dir / "infer_hbonet.bin"
        with open(path, "rb") as fp:
            t = load_tensor(fp).data.copy()
        t *= 1 + 1e-6
        with open(path, "wb") as fp:
            save_tensor(Tensor(t), fp)
    elif which == "loss":
        path = golden_dir / "train_losses.json"
        doc = json.loads(path.read_text())
        for losses in doc.values():
            losses[0] *= 1 + 1e-6
        path.write_text(json.dumps(doc))
    else:
        path = golden_dir / "analyze.json"
        doc = json.loads(path.read_text())
        for key in doc["total_macs"]:
            doc["total_macs"][key] += 1
        path.write_text(json.dumps(doc))


@pytest.mark.parametrize("which", ["logits", "loss", "ledger"])
def test_perturbed_golden_fails_checks(which, tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(bench.GOLDEN_DIR, golden)
    _perturb(golden, which)
    b = bench.Bench("infer-224", 0, golden_dir=golden)
    b.setup()   # the warm-up calls are checked like every other call
    assert b.failed > 0
    assert (b.attempted - b.failed) / b.attempted < 1.0


def test_missing_golden_fails_loudly(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(bench.GOLDEN_DIR, golden)
    doc = json.loads((golden / "train_losses.json").read_text())
    doc.pop(next(iter(doc)))
    (golden / "train_losses.json").write_text(json.dumps(doc))
    with pytest.raises(KeyError):
        bench.Bench("train-toy", 0, golden_dir=golden).setup()


def test_host_probe_local_reference_is_windowed_median():
    probe = HostProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    probe.took = [1.0, 5.0, 2.0, 9.0, 7.0]
    # t=1.5 sees starts 0..3 (median of 1, 5, 2, 9); t=10.5 only the last
    assert probe.local([1.5, 10.5]).tolist() == [3.5, 7.0]
    probe.reset()
    probe.measure()
    assert len(probe.took) == 1 and probe.took[0] > 0
