"""Multiply-Adds accounting: the separable and wrapped-block cost formulas,
per-layer ledger consistency, and reporting formats."""
import csv
import hashlib
import io
import json

import numpy as np
import pytest

from hbonet.blocks import ConfigError
from hbonet.complexity import (
    cost_hbo,
    cost_separable,
    ledger,
    ledger_to_json,
    write_ledger_csv,
)
from hbonet.network import build_network, hbonet_spec, mobilenetv2_spec
from hbonet.tensor import ConvKernel, MacCounter, Tensor, conv2d_oracle

HBO_STAGES_TABLE1 = [
    # t, c_base, stride, input resolution and channels at width 1.0
    (1, 20, 1, 112, 32),
    (2, 36, 1, 112, 20),
    (2, 72, 2, 112, 36),
    (2, 96, 2, 56, 72),
    (2, 192, 2, 28, 96),
    (2, 288, 1, 14, 192),
]


class TestCostSeparable:
    def test_unit_case(self):
        assert cost_separable(1, 1, 1, 1, 1) == 2

    def test_hand_value(self):
        assert cost_separable(7, 7, 4, 8, 3) == 3332

    def test_matches_oracle_mac_count(self):
        """Depthwise + pointwise oracle multiplications on the same shapes."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 4, 7, 7)))
        dw = ConvKernel(rng.normal(size=(4, 1, 3, 3)), groups=4)
        pw = ConvKernel(rng.normal(size=(8, 4, 1, 1)))
        counter = MacCounter()
        mid = conv2d_oracle(x, dw, stride=1, pad=1, counter=counter)
        conv2d_oracle(mid, pw, stride=1, pad=0, counter=counter)
        assert counter.macs == cost_separable(7, 7, 4, 8, 3)

    def test_ratio_to_standard_conv(self):
        """Roughly 1/k^2 of the dense conv cost for many output channels."""
        h = w = 14
        c1, c2, k = 64, 512, 3
        dense = h * w * c1 * c2 * k * k
        ratio = cost_separable(h, w, c1, c2, k) / dense
        assert abs(ratio - (1 / k ** 2 + 1 / c2)) < 1e-12
        assert ratio < 1 / k ** 2 * 1.15

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cost_separable(0, 1, 1, 1, 1)


class TestCostHbo:
    def test_degenerate_no_contraction(self):
        B, h, w, c1, c2, k = 500, 8, 8, 4, 8, 3
        assert cost_hbo(B, h, w, c1, c2, k, 1) == B + (h * w * c1 + h * w * c2) * 9

    def test_hand_value(self):
        assert cost_hbo(1000, 8, 8, 4, 8, 3, 2) == 5434

    def test_divisibility_error(self):
        with pytest.raises(ConfigError):
            cost_hbo(100, 7, 7, 4, 8, 3, 2)

    def test_built_block_ledger_matches_formula(self):
        """Per-layer ledger of every Table-1 stride-1 HBO stage equals
        cost_hbo with B the full-resolution body cost, c1 the input channels,
        c2 the computed half, and the 5x5 spatial kernels."""
        net = build_network(hbonet_spec(width=1.0), init_weights=False)
        rows = ledger(net).rows
        for t, c_base, stride, res, c_in in HBO_STAGES_TABLE1:
            if stride != 1:
                continue
            stage = [r for r in rows if r.name.startswith(
                f"hbo{HBO_STAGES_TABLE1.index((t, c_base, stride, res, c_in)) + 1}_1.")]
            block_total = sum(r.macs for r in stage)
            hidden = t * c_in
            half = c_base // 2
            body_full = res * res * (c_in * hidden + 9 * hidden + hidden * half)
            assert block_total == cost_hbo(body_full, res, res, c_in, half, 5, 2)


class TestLedger:
    def test_totals_are_row_sums(self):
        net = build_network(hbonet_spec(width=0.25), init_weights=False)
        led = ledger(net)
        assert led.total_macs == sum(r.macs for r in led.rows)
        assert led.total_params == sum(r.params for r in led.rows)

    def test_parameterized_layers_have_positive_counts(self):
        net = build_network(hbonet_spec(width=0.25), init_weights=False)
        for row in ledger(net).rows:
            if row.name in ("pool",):
                continue
            assert row.macs > 0 and row.params > 0, row.name

    def test_resolution_scaling_by_four(self):
        """Doubling resolution quadruples every conv's MACs; the classifier
        sits behind the global pool and stays constant."""
        a = ledger(build_network(hbonet_spec(width=0.25, resolution=96),
                                 init_weights=False))
        b = ledger(build_network(hbonet_spec(width=0.25, resolution=192),
                                 init_weights=False))
        for ra, rb in zip(a.rows, b.rows):
            assert ra.name == rb.name
            if ra.name in ("pool", "classifier"):
                continue
            assert rb.macs == 4 * ra.macs, ra.name

    def test_instrumented_oracle_matches_ledger_exactly(self):
        """Oracle multiplication counts on each layer's shapes equal the
        ledger rows exactly (small network to keep the loop oracle fast)."""
        net = build_network(hbonet_spec(width=0.25, resolution=32,
                                        num_classes=3), init_weights=False)
        led = {r.name: r.macs for r in ledger(net).rows}
        rng = np.random.default_rng(1)
        for name, spec, (h, w) in net.conv_layers():
            x = Tensor(rng.normal(size=(1, spec.c_in, h, w)))
            kern = ConvKernel(rng.normal(size=spec.weight_shape()),
                              groups=spec.groups)
            counter = MacCounter()
            conv2d_oracle(x, kern, stride=spec.stride, pad=spec.pad,
                          counter=counter)
            assert counter.macs == led[name], name

    def test_batch_invariance_of_counts(self):
        """Oracle count at batch 2 is exactly twice the per-sample ledger."""
        net = build_network(hbonet_spec(width=0.25, resolution=32,
                                        num_classes=3), init_weights=False)
        name, spec, (h, w) = next(iter(net.conv_layers()))
        led = {r.name: r.macs for r in ledger(net).rows}
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, spec.c_in, h, w)))
        kern = ConvKernel(rng.normal(size=spec.weight_shape()),
                          groups=spec.groups)
        counter = MacCounter()
        conv2d_oracle(x, kern, stride=spec.stride, pad=spec.pad, counter=counter)
        assert counter.macs == 2 * led[name]

    def test_mflops_rounding(self):
        net = build_network(hbonet_spec(width=1.0), init_weights=False)
        led = ledger(net)
        assert led.mflops == round(led.total_macs / 1e6)


class TestReports:
    def test_csv_format(self):
        net = build_network(hbonet_spec(width=0.25, resolution=32,
                                        num_classes=3), init_weights=False)
        led = ledger(net)
        buf = io.StringIO()
        write_ledger_csv(led, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# format_version=1"
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["layer", "out_channels", "out_h", "out_w",
                           "macs", "params"]
        assert rows[-1][0] == "total"
        assert int(rows[-1][4]) == led.total_macs

    def test_json_format(self):
        net = build_network(hbonet_spec(width=0.25, resolution=32,
                                        num_classes=3), init_weights=False)
        doc = ledger_to_json(ledger(net))
        assert doc["format_version"] == 1
        assert doc["total_macs"] == sum(r["macs"] for r in doc["rows"])
        assert doc["mflops"] == round(doc["total_macs"] / 1e6)

    def test_pretty_mentions_totals(self):
        net = build_network(hbonet_spec(width=0.25, resolution=32,
                                        num_classes=3), init_weights=False)
        led = ledger(net)
        text = led.pretty()
        assert f"{led.total_macs:,}" in text
        assert "MFLOPs" in text


# sha256 of json.dumps(ledger_to_json(...)) for the 25 distinct
# configurations of the acceptance grid (criteria 1-4: both presets across
# widths, the two resolution spectra, the cross and cascade configurations);
# key (preset, width, resolution, divisor or None for the default, variant).
LEDGER_SHA256 = {
    ("hbonet", 1.0, 224, None, 1):
        "dc4fa86735182a25945b17beee6c8756c7f8951d11539308a2bd65ca625985ec",
    ("hbonet", 0.8, 224, None, 1):
        "a543d970d8d13a7730aaa550367b811e3ba84702ce4bec14b9c76467e2eee3b7",
    ("hbonet", 0.5, 224, None, 1):
        "669cecdedb43ef6c3d99d4092b738372a2e04a79798b09ec4142cce6aad1fc48",
    ("hbonet", 0.35, 224, None, 1):
        "75b74c1c4323d0042a46198a2251fa43297723d40e04fb7065e477e13834f949",
    ("hbonet", 0.25, 224, None, 1):
        "79e6e533d2c657361e122d0a4c0f936f5c7edfe15dd6de517b324ce64fe32eac",
    ("hbonet", 0.1, 224, None, 1):
        "a82d94b254d6cb3237dc6306ec4e4017686436375689e625a5c9e2d49e09474a",
    ("mobilenetv2", 1.0, 224, None, 1):
        "35110323a2fe24280ac9b2b2cfb9f2e93278c184e80546626035247445de5713",
    ("mobilenetv2", 0.75, 224, None, 1):
        "9c9f14c2792123581edf60306202f2698350efe22081692e9b56ac462389b066",
    ("mobilenetv2", 0.5, 224, None, 1):
        "1847a0129463488ea0a1ded501803753efc06d1100ca1aab105d7c6b04fccfdf",
    ("mobilenetv2", 0.35, 224, None, 1):
        "266fa0bba9756b2205084f2ca36e3c42564c2f9f5e03acc23ca32200662661b4",
    ("mobilenetv2", 0.25, 224, None, 1):
        "329faaf758c32666ffb61d3305f1c50087a7a689f5cd60c742429176b764c1d8",
    ("mobilenetv2", 0.1, 224, None, 1):
        "c7d8516d278c588a7eed00c3ee58fd0c49ac14cd11c362846edfc68e66237a82",
    ("hbonet", 0.8, 192, None, 1):
        "6d12110a7d00ea6bd9bc631ebc2a1b7283aaddb365d0834548f1ebcfe2846acf",
    ("hbonet", 0.8, 160, None, 1):
        "14057e13505dc8593869fecdcf8b7f4e3180e603df7db8994619f01e605e5e87",
    ("hbonet", 0.8, 128, None, 1):
        "0cde3db205715d867a3ddb7a383e082850a789d2433cbe7c02fcea276d88a7f4",
    ("hbonet", 0.8, 96, None, 1):
        "a289153cd4358a5e94fbd8b1b3b013c0d27fba431fce66e0c59e18fdf5e8162a",
    ("hbonet", 0.35, 192, None, 1):
        "733f0233378b585b4091459e27f1e08f4c52c200bf4cfcc0f1fed5263fbc9e12",
    ("hbonet", 0.35, 160, None, 1):
        "166a2455d363873e636d5fde79d0ddf48cff7ad7754b6b9d99037cd84ec99c58",
    ("hbonet", 0.35, 128, None, 1):
        "1c70edeffc6f7b01f6178c0c2981fddb2b64d0d162dd8ad567a409b249c8cbfb",
    ("hbonet", 0.35, 96, None, 1):
        "14d43b6fa347057eb0d9282ba4c8e3bc6b35190343dc487750db75866125b037",
    ("hbonet", 0.6, 192, 8, 1):
        "2ac0b96f429ddc93e3136836614d0f1823b3ba358700ce4132c45af6299459d9",
    ("hbonet", 0.5, 224, 8, 1):
        "53ba240b2e41af359fc66ad7bc1e16b8789594de138535d681cb75fceab27158",
    ("hbonet", 0.25, 224, 8, 1):
        "06f2619749f4574144511965ada2ecdff5e177ea9459e4219a55c376abcc75b1",
    ("hbonet", 0.25, 224, 8, 2):
        "677a962c52ceb4992601cb43d31a96a630d559310c8e48e44b022d1a6087d20d",
    ("hbonet", 0.25, 224, 8, 3):
        "095a174de4a0fc7f5a14cff224f812a312f4d07cda1b5cdf793be855558fb6ff",
}


class TestLedgerBytes:
    @pytest.mark.parametrize("key", sorted(LEDGER_SHA256, key=str), ids=str)
    def test_ledger_json_bytes_are_pinned(self, key):
        preset, width, res, divisor, variant = key
        if preset == "hbonet":
            spec = hbonet_spec(width, res, divisor=divisor, variant=variant)
        else:
            spec = mobilenetv2_spec(width, res, divisor=divisor)
        doc = ledger_to_json(ledger(build_network(spec, init_weights=False)))
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert digest == LEDGER_SHA256[key]
