"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are fixed here and nowhere else.
"""
import hashlib
import io
import time

import numpy as np
import pytest

from hbonet.complexity import ledger
from hbonet.gradcheck import run_gradient_checks
from hbonet.network import (
    build_network,
    forward,
    hbonet_spec,
    mobilenetv2_spec,
    trace_shapes,
)
from hbonet.ops import conv2d, depthwise_conv, pointwise_conv
from hbonet.tensor import ConvKernel, MacCounter, Tensor, conv2d_oracle
from hbonet.train import ToyConfig, train_toy, write_log_csv

MFLOPS_TOL = 3.0  # percent


def _mflops(spec):
    return ledger(build_network(spec, init_weights=False)).total_macs / 1e6


def _check_grid(rows, label):
    worst = 0.0
    for spec, expect in rows:
        got = _mflops(spec)
        rel = abs(got - expect) / expect * 100
        worst = max(worst, rel)
        assert rel <= MFLOPS_TOL, (
            f"{label}: {spec.name} width={spec.width} @{spec.input_resolution} "
            f"divisor={spec.divisor} variant={spec.contraction_variant}: "
            f"{got:.2f} vs {expect} MFLOPs ({rel:.2f}%)"
        )
    return worst


def test_criterion_1_width_spectrum():
    """Table-2 complexity for both networks across the width spectrum."""
    t0 = time.time()
    rows = [(hbonet_spec(width=w), mf) for w, mf in
            [(1.0, 305), (0.8, 205), (0.5, 96), (0.35, 61), (0.25, 37),
             (0.1, 14)]]
    rows += [(mobilenetv2_spec(width=w), mf) for w, mf in
             [(1.0, 300), (0.75, 209), (0.5, 97), (0.35, 59), (0.25, 37),
              (0.1, 13)]]
    worst = _check_grid(rows, "criterion 1")
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"criterion 1 must finish in < 1 s, took {elapsed:.2f}"
    print(f"\ncriterion 1 PASS: 12 width configs within {MFLOPS_TOL}% "
          f"(worst {worst:.2f}%), {elapsed:.2f} s")


def test_criterion_2_resolution_scaling():
    rows = [(hbonet_spec(width=0.8, resolution=r), mf) for r, mf in
            [(224, 205), (192, 150), (160, 105), (128, 68), (96, 39)]]
    rows += [(hbonet_spec(width=0.35, resolution=r), mf) for r, mf in
             [(224, 61), (192, 45), (160, 31), (128, 21), (96, 12)]]
    worst = _check_grid(rows, "criterion 2")
    print(f"\ncriterion 2 PASS: 10 resolution configs within {MFLOPS_TOL}% "
          f"(worst {worst:.2f}%)")


def test_criterion_3_cross_configuration():
    rows = [
        (hbonet_spec(width=0.6, resolution=192, divisor=8), 98),
        (hbonet_spec(width=0.5, resolution=224, divisor=8), 108),
    ]
    worst = _check_grid(rows, "criterion 3")
    print(f"\ncriterion 3 PASS: cross width/resolution configs within "
          f"{MFLOPS_TOL}% (worst {worst:.2f}%)")


def test_criterion_4_cascade_variants():
    rows = [(hbonet_spec(width=0.25, divisor=8, variant=k), mf)
            for k, mf in [(1, 44), (2, 45), (3, 45)]]
    worst = _check_grid(rows, "criterion 4")
    print(f"\ncriterion 4 PASS: cascade 2/4/8x contraction within "
          f"{MFLOPS_TOL}% (worst {worst:.2f}%)")


def test_criterion_5_shape_trace():
    expected = [
        ("conv1", (32, 112, 112)), ("hbo1", (20, 112, 112)),
        ("hbo2", (36, 112, 112)), ("hbo3", (72, 56, 56)),
        ("hbo4", (96, 28, 28)), ("hbo5", (192, 14, 14)),
        ("hbo6", (288, 14, 14)), ("proj", (144, 14, 14)),
        ("invres1", (200, 7, 7)), ("invres2", (400, 7, 7)),
        ("head", (1600, 7, 7)), ("pool", (1600, 1, 1)),
        ("classifier", (1000, 1, 1)),
    ]
    net = build_network(hbonet_spec(width=1.0), init_weights=False)
    got = trace_shapes(net)
    assert got == expected, f"trace mismatch: {got}"
    print("\ncriterion 5 PASS: 13 stage shapes equal the reference column "
          "exactly")


def test_criterion_6_oracle_equivalence_and_mac_instrumentation():
    rng = np.random.default_rng(2024)
    cases = 0
    for _ in range(40):  # 40 iterations x 3 op kinds = 120 cases
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 7))
        h = int(rng.integers(3, 10))
        w = int(rng.integers(3, 10))
        x = Tensor(rng.normal(size=(n, c, h, w)))

        k = int(rng.choice([3, 5]))
        stride = int(rng.choice([1, 2]))
        if min(h, w) >= k:
            dw = ConvKernel(rng.normal(size=(c, 1, k, k)), groups=c)
            got = depthwise_conv(x, dw, stride=stride)
            want = conv2d_oracle(x, dw, stride=stride, pad=(k - 1) // 2)
            assert np.max(np.abs(got.data - want.data)) <= 1e-12
            cases += 1

        co = int(rng.integers(1, 8))
        pw = ConvKernel(rng.normal(size=(co, c, 1, 1)))
        got = pointwise_conv(x, pw)
        want = conv2d_oracle(x, pw)
        assert np.max(np.abs(got.data - want.data)) <= 1e-12
        cases += 1

        kk = int(rng.choice([1, 3]))
        pad = int(rng.integers(0, 2))
        if min(h, w) + 2 * pad >= kk:
            wd = ConvKernel(rng.normal(size=(co, c, kk, kk)))
            got = conv2d(x, wd, stride=stride, pad=pad)
            want = conv2d_oracle(x, wd, stride=stride, pad=pad)
            assert np.max(np.abs(got.data - want.data)) <= 1e-12
            cases += 1
    assert cases >= 100

    # instrumented multiply counter vs the analytic ledger, exact equality
    spec = hbonet_spec(width=0.25, resolution=96)
    net = build_network(spec, init_weights=False)
    led = {r.name: r.macs for r in ledger(net).rows}
    total_counted = 0
    for name, lspec, (h, w) in net.conv_layers():
        x = Tensor(rng.normal(size=(1, lspec.c_in, h, w)))
        kern = ConvKernel(rng.normal(size=lspec.weight_shape()),
                          groups=lspec.groups)
        counter = MacCounter()
        conv2d_oracle(x, kern, stride=lspec.stride, pad=lspec.pad,
                      counter=counter)
        assert counter.macs == led[name], (
            f"{name}: counted {counter.macs}, ledger {led[name]}")
        total_counted += counter.macs
    conv_ledger_total = sum(v for k, v in led.items() if k != "pool")
    assert total_counted == conv_ledger_total
    print(f"\ncriterion 6 PASS: {cases} randomized oracle-equivalence cases "
          f"at 1e-12; instrumented counter equals ledger exactly "
          f"({total_counted:,} MACs over {len(led) - 1} conv layers)")


def test_criterion_7_gradient_correctness():
    t0 = time.time()
    results = run_gradient_checks(step=1e-6, seed=0)
    elapsed = time.time() - t0
    failures = [r for r in results if not r.ok(1e-5)]
    assert not failures, f"gradient checks failed: {failures}"
    assert elapsed < 120.0, f"criterion 7 must finish in < 2 min ({elapsed:.0f}s)"
    worst = max(results, key=lambda r: r.rel_error)
    print(f"\ncriterion 7 PASS: {len(results)} finite-difference checks "
          f"below 1e-5 (worst {worst.rel_error:.2e} at {worst.name}), "
          f"{elapsed:.1f} s")


@pytest.fixture(scope="module")
def toy_log():
    """Criterion 8's 40-epoch seed-0 run, trained once for every test here
    that reads it."""
    return train_toy(config=ToyConfig(), epochs=40, seed=0)


def test_criterion_8_toy_training(toy_log):
    config = ToyConfig()
    log = toy_log

    final_acc = log[-1].accuracy
    assert final_acc > 0.90, f"final train accuracy {final_acc:.3f} <= 0.90"

    losses = np.array([r.loss for r in log])
    smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
    first20 = smoothed[:16]   # windows fully inside the first 20 epochs
    assert np.all(np.diff(first20) <= 1e-9), (
        f"smoothed loss not non-increasing over the first 20 epochs: "
        f"{np.round(first20, 4)}")

    rerun = train_toy(config=config, epochs=3, seed=0)
    assert rerun == log[:3], "training is not bitwise reproducible"

    print(f"\ncriterion 8 PASS: final train accuracy {final_acc:.3f} after "
          f"40 epochs (lr {config.base_lr}); smoothed loss non-increasing "
          f"over epochs 1-20; log bitwise reproducible")


# sha256 of criterion 8's log as `hbonet train-toy --epochs 40 --seed 0
# --log-csv` writes it. The toy run magnifies a last-bit change in any kernel
# of the training step about 10^4 times per step, so every such change shows.
TOY_LOG_SHA256 = "d748bb5f29cb503754142b74990534f72fdbb5669a0f2e2708685773bbcb3b43"


def test_toy_log_bits_are_pinned(toy_log, pin_versions):
    buf = io.StringIO()
    write_log_csv(toy_log, buf)
    got = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert got == TOY_LOG_SHA256, f"40-epoch log changed (sha256 {got}); {pin_versions}"


def test_criterion_9_out_of_scope_note():
    """Benchmark accuracies (classification/detection/re-ID) are not
    reproducible at desk scale; criteria 6-8 are the substituted
    property-based checks. Nothing to execute."""
    print("\ncriterion 9 PASS: benchmark accuracy reproduction out of scope; "
          "covered by the property suite of criteria 6-8")
