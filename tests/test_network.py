"""Network builder: stage-table ingestion, shape tracing, width scaling,
inference behavior, and the ledger and shape trace checked against what the
forward executes."""
import hashlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbonet.autodiff import Tape
from hbonet.blocks import ConfigError, make_divisible
from hbonet.complexity import ledger
from hbonet.network import (
    SUPPORTED_WIDTHS,
    NetworkSpec,
    StageSpec,
    build_network,
    default_divisor,
    forward,
    hbonet_spec,
    load_stage_table,
    mobilenetv2_spec,
    network_spec,
    preset_stage_table,
    trace_shapes,
)
from hbonet.tensor import DimensionError, Tensor

TABLE1_COLUMN = [
    ("conv1", (32, 112, 112)),
    ("hbo1", (20, 112, 112)),
    ("hbo2", (36, 112, 112)),
    ("hbo3", (72, 56, 56)),
    ("hbo4", (96, 28, 28)),
    ("hbo5", (192, 14, 14)),
    ("hbo6", (288, 14, 14)),
    ("proj", (144, 14, 14)),
    ("invres1", (200, 7, 7)),
    ("invres2", (400, 7, 7)),
    ("head", (1600, 7, 7)),
    ("pool", (1600, 1, 1)),
    ("classifier", (1000, 1, 1)),
]


class TestTrace:
    def test_full_width_stage_column(self):
        net = build_network(hbonet_spec(width=1.0), init_weights=False)
        assert trace_shapes(net) == TABLE1_COLUMN

    def test_downsampling_factor_is_32(self):
        for width in (0.25, 0.5, 1.0):
            net = build_network(hbonet_spec(width=width), init_weights=False)
            rows = dict(trace_shapes(net))
            assert rows["head"][1:] == (224 // 32, 224 // 32)


class TestWidthScaling:
    def test_half_width_channels_divisible_by_2(self):
        net = build_network(hbonet_spec(width=0.5), init_weights=False)
        rows = dict(trace_shapes(net))
        for stage, base in [("hbo1", 20), ("hbo2", 36), ("hbo3", 72),
                            ("hbo4", 96), ("hbo5", 192), ("hbo6", 288),
                            ("proj", 144)]:
            assert rows[stage][0] == make_divisible(base * 0.5, 2)

    def test_head_width_fixed_below_one(self):
        for width in (0.25, 0.5, 0.8):
            net = build_network(hbonet_spec(width=width), init_weights=False)
            assert dict(trace_shapes(net))["head"][0] == 1600

    def test_width_monotonicity(self):
        """Per-stage channels never shrink as the multiplier grows."""
        widths = [0.1, 0.25, 0.35, 0.5, 0.6, 0.8, 1.0]
        traces = []
        for w in widths:
            net = build_network(hbonet_spec(width=w), init_weights=False)
            traces.append([c for _, (c, _, _) in trace_shapes(net)])
        for lo, hi in zip(traces, traces[1:]):
            assert all(a <= b for a, b in zip(lo, hi))

    def test_divisor_policy(self):
        assert default_divisor(0.1) == 4
        assert default_divisor(0.25) == 2
        assert default_divisor(0.5) == 2
        assert default_divisor(0.35) == 8
        assert default_divisor(1.0) == 8
        assert default_divisor(0.1, "mobilenetv2") == 4
        assert default_divisor(0.5, "mobilenetv2") == 8
        assert default_divisor(0.25, "mobilenetv2") == 8


class TestForward:
    def test_logits_shape_and_finiteness(self):
        net = build_network(hbonet_spec(width=0.25, resolution=96, num_classes=1000))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 96, 96)))
        logits = forward(net, x)
        assert logits.shape == (1, 1000)
        assert np.all(np.isfinite(logits))

    def test_custom_class_count(self):
        net = build_network(hbonet_spec(width=0.25, resolution=96, num_classes=10))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 96, 96)))
        assert forward(net, x).shape == (2, 10)

    def test_deterministic(self):
        net = build_network(hbonet_spec(width=0.25, resolution=96, num_classes=10))
        x = Tensor(np.random.default_rng(2).normal(size=(1, 3, 96, 96)))
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_per_sample_independence(self):
        """Identical rows in a batch produce identical logits (inference)."""
        net = build_network(hbonet_spec(width=0.25, resolution=96, num_classes=10))
        row = np.random.default_rng(3).normal(size=(1, 3, 96, 96))
        x = Tensor(np.concatenate([row, row], axis=0))
        logits = forward(net, x)
        assert np.allclose(logits[0], logits[1], atol=1e-10)

    # sha256 of the batch-1 logits' bytes for the input drawn from
    # default_rng(0), default seed-0 weights, on one BLAS thread (the 1.0@224
    # rows differ on two). A kernel change that claims to keep every bit is
    # held to these; one that does not must say why and replace them.
    LOGITS = [
        pytest.param(hbonet_spec, 1.0, 224, "edc0e88a07096f8dd90093df8954753b"
                     "57668f21f811cd1e093ade4d1709e8b3", id="hbonet-1.0@224"),
        pytest.param(hbonet_spec, 0.25, 96, "478d88916d241deb7d57620685474ccb"
                     "c1f5a7cf672eee72159374201343b773", id="hbonet-0.25@96"),
        pytest.param(mobilenetv2_spec, 1.0, 224, "fd1a310907bc4556f0653aabbb68f5ab"
                     "1b8a785266fe192b092d09cb72ad9b63", id="mobilenetv2-1.0@224"),
        pytest.param(mobilenetv2_spec, 0.25, 96, "8d684e2c99f0eb63df93577943e6c80a"
                     "793fb1555be33eef9ec23de2cfc92d82", id="mobilenetv2-0.25@96"),
    ]

    @pytest.mark.parametrize("make_spec,width,res,digest", LOGITS)
    def test_logits_bits_are_pinned(self, make_spec, width, res, digest, pin_versions):
        net = build_network(make_spec(width, res))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, res, res)))
        got = hashlib.sha256(forward(net, x).tobytes()).hexdigest()
        assert got == digest, f"logits bytes changed (sha256 {got}); {pin_versions}"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts threads through Linux procfs")
    def test_blas_runs_on_one_thread(self):
        """The pins above hold on one BLAS thread, which tests/conftest.py
        asks for: after a GEMM large enough to be split, this process still
        runs a single thread."""
        a = np.random.default_rng(0).normal(size=(512, 512))
        a @ a
        assert len(os.listdir("/proc/self/task")) == 1

    def test_resolution_mismatch_rejected(self):
        net = build_network(hbonet_spec(width=0.25, resolution=96))
        with pytest.raises(ConfigError):
            forward(net, Tensor.zeros(1, 3, 64, 64))

    @pytest.mark.parametrize("make_spec,limit_mb", [
        (hbonet_spec, 7.10), (mobilenetv2_spec, 13.00)])
    def test_batch1_forward_peak_memory(self, make_spec, limit_mb):
        """The tracemalloc peak of one 1.0@224 batch-1 forward, its input
        excluded, as perfbench measures it: 7.08 MB for HBONet and 12.98 MB
        for MobileNetV2, since the inference forward drops each block input
        and each HBO contraction output at its last reader. They were 8.51
        and 14.52 MB while a grad-disabled tape kept every value until its
        block returned, and 10.13 and 23.19 MB while each depthwise call
        copied its whole input into phase planes before sweeping them."""
        net = build_network(make_spec(1.0))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 224, 224)))
        forward(net, x)     # fill the geometry and interpolation caches
        tracemalloc.start()
        try:
            forward(net, x)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mb < limit_mb


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10)
_ROW = st.dictionaries(
    st.sampled_from(["op", "t", "c", "n", "s", "width_exempt"]),
    _JSON | st.integers(-1, 3) | st.sampled_from(
        ["conv3x3", "hbo", "inverted_residual", "conv1x1_linear", "conv1x1",
         "avgpool", "classifier"]),
    max_size=6)
# near-valid tables reach the row checks; arbitrary JSON hits the rest
_DOC = st.fixed_dictionaries(
    {"format_version": st.just(1), "stages": st.lists(_ROW, max_size=4) | _JSON},
    optional={"name": _JSON}) | _JSON


def _positive_int(v):
    return type(v) is int and v >= 1


class TestStageTableIO:
    @settings(max_examples=300, deadline=None)
    @given(doc=_DOC)
    def test_any_json_document_loads_or_raises_config_error(self, doc):
        """Through the one constructor: the loader parses the rows, and the
        spec checks the name and that there is a row."""
        try:
            spec = network_spec(doc)
        except ConfigError:
            return
        assert isinstance(spec.name, str) and spec.stages
        for row in spec.stages:
            assert all(v is None or _positive_int(v) for v in (row.t, row.c))
            assert _positive_int(row.n) and row.s in (1, 2)
            assert type(row.s) is int and type(row.width_exempt) is bool
        assert _positive_int(doc["format_version"])

    def test_presets_parse(self):
        for preset in ("hbonet", "mobilenetv2"):
            name, stages = load_stage_table(preset_stage_table(preset))
            assert name == preset and len(stages) >= 10

    def test_malformed_row_reports_index(self):
        doc = {"format_version": 1, "stages": [
            {"op": "conv3x3", "c": 32, "n": 1, "s": 2},
            {"op": "hbo", "c": 20, "n": 1, "s": 1},  # missing t
        ]}
        with pytest.raises(ConfigError, match="stage 1"):
            load_stage_table(doc)

    @pytest.mark.parametrize("row,key", [
        ({"op": "conv3x3", "c": 8, "stride": 2}, "stride"),
        ({"op": "conv3x3", "c": 8, "s": 2, "extra": 3}, "extra"),
        ({"op": "hbo", "t": 2, "c": 8, "repeats": 2}, "repeats"),
    ])
    def test_unknown_row_key_reports_index_and_key(self, row, key):
        """A misspelled key would otherwise leave its default in place:
        "stride" for "s" silently built a stride-1 stage."""
        doc = {"format_version": 1, "stages": [
            {"op": "conv3x3", "c": 8, "s": 2}, row, {"op": "avgpool"}]}
        with pytest.raises(ConfigError, match=f"stage 1: unknown key '{key}'"):
            load_stage_table(doc)

    @pytest.mark.parametrize("key", ["extra", "stage", "version"])
    def test_unknown_table_key_is_named(self, key):
        doc = {"format_version": 1, "stages": [{"op": "avgpool"}], key: 3}
        with pytest.raises(ConfigError, match=f"stage table: unknown key '{key}'"):
            load_stage_table(doc)

    def test_missing_operator_reports_index(self):
        doc = {"format_version": 1, "stages": [{"op": "avgpool"}, {"c": 8}]}
        with pytest.raises(ConfigError, match="stage 1: missing 'op'"):
            load_stage_table(doc)

    def test_unknown_operator_reports_index(self):
        doc = {"format_version": 1, "stages": [{"op": "dense", "c": 8}]}
        with pytest.raises(ConfigError, match="stage 0"):
            load_stage_table(doc)

    def test_format_version_checked(self):
        with pytest.raises(ConfigError):
            load_stage_table({"format_version": 2, "stages": []})

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_format_version_must_be_the_integer_one(self, version):
        with pytest.raises(ConfigError, match="format_version"):
            load_stage_table({"format_version": version,
                              "stages": [{"op": "avgpool"}]})

    def test_stage_after_classifier_rejected(self):
        doc = {"format_version": 1, "stages": [
            {"op": "conv3x3", "c": 8, "s": 2}, {"op": "avgpool"},
            {"op": "classifier"}, {"op": "conv1x1", "c": 8},
        ]}
        name, stages = load_stage_table(doc)
        with pytest.raises(ConfigError, match="stage 3"):
            build_network(NetworkSpec(name, stages, input_resolution=32))

    def test_classifier_without_global_pool_rejected(self):
        doc = {"format_version": 1, "stages": [
            {"op": "conv3x3", "c": 8, "s": 2}, {"op": "classifier"},
        ]}
        name, stages = load_stage_table(doc)
        with pytest.raises(ConfigError, match=r"stage 1 \(classifier\).*pool"):
            build_network(NetworkSpec(name, stages, input_resolution=32))

    def test_custom_table_builds(self):
        doc = {"format_version": 1, "name": "mini", "stages": [
            {"op": "conv3x3", "c": 8, "n": 1, "s": 2},
            {"op": "hbo", "t": 2, "c": 8, "n": 2, "s": 2},
            {"op": "conv1x1", "c": 32, "n": 1, "s": 1},
            {"op": "avgpool"},
            {"op": "classifier"},
        ]}
        name, stages = load_stage_table(doc)
        spec = NetworkSpec(name, stages, width=1.0, divisor=8,
                           input_resolution=64, num_classes=5)
        net = build_network(spec)
        x = Tensor(np.random.default_rng(5).normal(size=(1, 3, 64, 64)))
        assert forward(net, x).shape == (1, 5)


# out-of-range values for any numeric spec field: zero, negatives, NaN and
# the infinities, bools, and floats where an integer is needed
_BAD_NUMBER = st.sampled_from([0, -1, -8, math.nan, math.inf, -math.inf,
                               True, False, 0.5, 2.0, 96.0])


def _or_bad(valid):
    return valid | _BAD_NUMBER


def _builds_or_raises_config_error(spec_fn):
    """Build the spec ``spec_fn()`` makes; only ConfigError may stop it."""
    try:
        build_network(spec_fn(), init_weights=False)
    except ConfigError:
        pass


class TestSpecsCheckThemselves:
    """Each spec dataclass checks its own fields, so every caller, not only
    the CLI and the stage-table loader, gets a ConfigError naming the field."""

    @settings(max_examples=150, deadline=None)
    @given(preset=st.sampled_from(["hbonet", "mobilenetv2"]),
           width=_or_bad(st.sampled_from(SUPPORTED_WIDTHS) | st.floats(0.05, 1.5)),
           divisor=_or_bad(st.sampled_from([2, 3, 4, 8])),
           resolution=_or_bad(st.sampled_from([32, 64, 96]) | st.integers(32, 100)),
           num_classes=_or_bad(st.integers(1, 20)),
           variant=_or_bad(st.integers(1, 3)), seed=_or_bad(st.integers(0, 5)))
    def test_network_spec_builds_or_raises_config_error(
            self, preset, width, divisor, resolution, num_classes, variant, seed):
        name, stages = load_stage_table(preset_stage_table(preset))
        _builds_or_raises_config_error(lambda: NetworkSpec(
            name, stages, width, divisor, resolution, num_classes, variant, seed))

    @settings(max_examples=150, deadline=None)
    @given(op=st.sampled_from(["conv3x3", "hbo", "inverted_residual",
                               "conv1x1_linear", "conv1x1", "avgpool",
                               "classifier", "dense"]),
           t=st.none() | _or_bad(st.integers(1, 4)),
           c=st.none() | _or_bad(st.integers(1, 16)),
           n=st.none() | _or_bad(st.integers(1, 3)),
           s=_or_bad(st.sampled_from([1, 2, 3])),
           width_exempt=st.booleans() | st.sampled_from([0, 1, None]))
    def test_stage_row_builds_or_raises_config_error(self, op, t, c, n, s,
                                                      width_exempt):
        """A row made in Python, between a stem and the pool, classifier."""
        def spec():
            row = StageSpec(op, t, c, n, s, width_exempt)
            return NetworkSpec("custom", (StageSpec("conv3x3", c=8, s=2), row,
                                          StageSpec("avgpool"),
                                          StageSpec("classifier")),
                               input_resolution=64, num_classes=3)
        _builds_or_raises_config_error(spec)

    @pytest.mark.parametrize("make,field", [
        (lambda: hbonet_spec(num_classes=0), "num_classes"),
        (lambda: hbonet_spec(divisor=3), "divisor"),
        (lambda: hbonet_spec(width=float("nan")), "width"),
        (lambda: hbonet_spec(resolution=224.0), "input_resolution"),
        (lambda: mobilenetv2_spec(seed=-1), "seed"),
        (lambda: NetworkSpec("custom", (StageSpec("conv3x3", s=2),
                                        StageSpec("avgpool"))), "c"),
        (lambda: StageSpec("hbo", c=16), "t"),
        (lambda: NetworkSpec("custom", ()), "stages"),
        (lambda: NetworkSpec("custom", ({"op": "avgpool"},)), "stages"),
        (lambda: network_spec({"format_version": 1, "stages": []}), "stages"),
        (lambda: NetworkSpec(3, (StageSpec("avgpool"),)), "name"),
        (lambda: network_spec({"format_version": 1, "name": ["x"],
                               "stages": [{"op": "avgpool"}]}), "name"),
    ])
    def test_bad_field_is_named(self, make, field):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            make()

    def test_one_constructor_for_presets_and_documents(self):
        """A preset name and its document give the same spec, with the
        divisor policy of the table's name."""
        for preset in ("hbonet", "mobilenetv2"):
            doc = preset_stage_table(preset)
            for width in (0.1, 0.25, 1.0):
                spec = network_spec(doc, width=width, resolution=96)
                assert spec == network_spec(preset, width=width, resolution=96)
                assert spec.divisor == default_divisor(width, preset)
        assert hbonet_spec(0.5, 160, variant=2, seed=3) == network_spec(
            "hbonet", 0.5, 160, variant=2, seed=3)
        with pytest.raises(ConfigError, match="unknown preset"):
            network_spec("resnet")


class TestCascadeVariant:
    def test_contraction_capped_by_resolution(self):
        net = build_network(hbonet_spec(width=0.25, divisor=8, variant=3),
                            init_weights=False)
        by_name = {u.name: u for u in net.units if u.cfg is not None}
        # hbo1 sees 112^2 input: full 3 units; hbo6 sees 14^2: capped at 1
        assert by_name["hbo1_1"].cfg.contraction_count == 3
        assert by_name["hbo6_1"].cfg.contraction_count == 1
        # hbo5 repeats see 14^2; the stride-2 entry block sees 28^2
        assert by_name["hbo5_1"].cfg.contraction_count == 2
        assert by_name["hbo5_2"].cfg.contraction_count == 1

    @pytest.mark.parametrize("variant", [0, -3])
    def test_variant_below_one_rejected(self, variant):
        with pytest.raises(ConfigError, match="variant"):
            build_network(hbonet_spec(width=0.25, resolution=96, variant=variant),
                          init_weights=False)

    def test_variant_forward_shapes_unchanged(self):
        net = build_network(hbonet_spec(width=0.25, divisor=8, resolution=96,
                                        variant=2, num_classes=4))
        x = Tensor(np.random.default_rng(6).normal(size=(1, 3, 96, 96)))
        assert forward(net, x).shape == (1, 4)


class TestMobileNetV2:
    def test_stage_column(self):
        net = build_network(mobilenetv2_spec(width=1.0), init_weights=False)
        rows = trace_shapes(net)
        channels = [c for _, (c, _, _) in rows]
        assert channels == [32, 16, 24, 32, 64, 96, 160, 320, 1280, 1280, 1000]

    def test_forward(self):
        net = build_network(mobilenetv2_spec(width=0.25, resolution=96, num_classes=6))
        x = Tensor(np.random.default_rng(7).normal(size=(1, 3, 96, 96)))
        assert forward(net, x).shape == (1, 6)


class TestParameters:
    def test_round_trip(self):
        net = build_network(hbonet_spec(width=0.25, resolution=96, num_classes=3))
        params = net.parameters()
        doubled = {k: v * 2.0 for k, v in params.items()}
        net.set_parameters(doubled)
        again = net.parameters()
        for k in params:
            assert np.array_equal(again[k], params[k] * 2.0)

    def test_seeded_init_reproducible(self):
        a = build_network(hbonet_spec(width=0.25, resolution=96, seed=5)).parameters()
        b = build_network(hbonet_spec(width=0.25, resolution=96, seed=5)).parameters()
        for k in a:
            assert np.array_equal(a[k], b[k])

    # sha256 over each parameter's name and bytes, in order, of the seed-0
    # networks; pins the initial draws across changes of parameter format
    CONTRACT = [
        pytest.param(hbonet_spec(width=0.25, divisor=2, resolution=32,
                                 num_classes=3),
                     "d65da1773bc577c80ae3b9bac77328e7"
                     "b4447e22f64cc849795689bc813a98b5", id="toy-hbonet"),
        pytest.param(mobilenetv2_spec(width=0.35, resolution=96),
                     "27652288ea599ea1f18419d56ab412b4"
                     "fcd5ecc01d074edbaae7e7d8733880ab", id="mobilenetv2-0.35@96"),
    ]

    @pytest.mark.parametrize("spec,digest", CONTRACT)
    def test_parameters_are_the_forward_leaves(self, spec, digest):
        net = build_network(spec)
        params = net.parameters()
        tape = Tape()
        res = spec.input_resolution
        net.forward_node(tape.leaf(np.zeros((1, 3, res, res)), "input"), tape)
        leaves = [n for n in tape.nodes if not n.parents and n.name != "input"]
        assert list(params) == [n.name for n in leaves]
        assert all(params[n.name] is n.value for n in leaves)
        h = hashlib.sha256()
        for name, value in params.items():
            h.update(name.encode())
            h.update(value.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("spec,digest", CONTRACT)
    def test_set_parameters_adopts_after_checking_all(self, spec, digest):
        net = build_network(spec, init_weights=False)
        new = {k: v + 1.0 for k, v in net.parameters().items()}
        net.set_parameters(new)
        got = net.parameters()
        assert list(got) == list(new)
        assert all(got[k] is new[k] for k in new)

        last = list(new)[-1]
        wrong_shape = {k: v * 2.0 for k, v in new.items()}
        wrong_shape[last] = np.zeros(new[last].shape + (1,))
        missing = {k: v * 2.0 for k, v in new.items() if k != last}
        for bad in (wrong_shape, missing):
            with pytest.raises(DimensionError, match=re.escape(repr(last))):
                net.set_parameters(bad)
            assert all(net.parameters()[k] is new[k] for k in new)


# ---------------------------------------------------------------------------
# differential test: ledger and shape trace against the executed forward
# ---------------------------------------------------------------------------

class CountingTape(Tape):
    """A recording tape that runs the real kernels and notes each executed
    conv as (row name, MACs per sample, output (c, h, w)), from its operand
    shapes alone."""

    def __init__(self):
        super().__init__(grad_enabled=True)
        self.convs = []

    def _count(self, w, y):
        n, c, h, wd = y.value.shape
        macs = c * h * wd * math.prod(w.value.shape[1:])
        self.convs.append((w.name.rpartition(".")[0], macs, (c, h, wd)))
        return y

    def conv2d(self, x, w, stride=1, pad=0):
        return self._count(w, super().conv2d(x, w, stride, pad))

    def depthwise_conv(self, x, w, stride=1):
        return self._count(w, super().depthwise_conv(x, w, stride))

    def pointwise_conv(self, x, w):
        return self._count(w, super().pointwise_conv(x, w))


def _chw(shape):
    """(n, c, h, w) -> (c, h, w); the classifier's (n, k) -> (k, 1, 1)."""
    return (*shape[1:], 1, 1)[:3]


@st.composite
def _valid_stages(draw, res):
    """A stage table that builds at ``res``: every HBO block sees an even
    map, a classifier only follows the global pool."""
    h = res
    stages = []
    for i in range(draw(st.integers(1, 5))):
        op = draw(st.sampled_from(["conv3x3", "hbo", "inverted_residual",
                                   "conv1x1", "conv1x1_linear"]))
        n, s = draw(st.integers(1, 2)), draw(st.sampled_from([1, 2]))
        if op == "hbo" and h % 2:
            op = "inverted_residual"
        if op == "hbo" and (h // s) % 2 and n > 1:
            s = 1
        c = 2 * draw(st.integers(1, 12))
        t = draw(st.integers(1, 4)) if op in ("hbo", "inverted_residual") else None
        stages.append(StageSpec(op, t, c, n, s, draw(st.booleans())))
        if op in ("conv3x3", "inverted_residual"):
            h = (h - 1) // s + 1
        elif op == "hbo":
            h //= s
    tail = draw(st.sampled_from([(), ("avgpool",), ("avgpool", "classifier")]))
    return tuple(stages) + tuple(StageSpec(op) for op in tail)


@st.composite
def _network_specs(draw):
    preset = draw(st.sampled_from(["hbonet", "mobilenetv2", None]))
    if preset == "hbonet":   # its six HBO stages need res % 32 == 0
        res = draw(st.sampled_from([32, 64, 96, 128]))
    else:
        res = draw(st.integers(32, 128))
    if preset is None:
        name, stages = "custom", draw(_valid_stages(res))
    else:
        name, stages = load_stage_table(preset_stage_table(preset))
    return NetworkSpec(name, stages, width=draw(st.sampled_from(SUPPORTED_WIDTHS)),
                       divisor=draw(st.sampled_from([2, 4, 8])),
                       input_resolution=res,
                       num_classes=draw(st.integers(1, 10)),
                       contraction_variant=draw(st.integers(1, 3)),
                       seed=draw(st.integers(0, 3)))


class TestExecutedGeometry:
    """Differential test (McKeeman 1998): the ledger, the builder's walk and
    ``trace_shapes`` each against what a real forward executes."""

    @settings(max_examples=40, deadline=None)
    @given(spec=_network_specs(), n=st.integers(1, 2))
    def test_ledger_and_trace_follow_the_executed_forward(self, spec, n):
        net = build_network(spec)
        res = spec.input_resolution
        x = np.random.default_rng(spec.seed).normal(size=(n, 3, res, res))
        tape = CountingTape()
        node = tape.leaf(x, "input")
        executed = []
        for unit in net.units:
            node = unit.forward_node(node, tape, training=False)
            executed.append(_chw(node.value.shape))

        led = ledger(net)
        assert tape.convs == [(r.name, r.macs, r.out_shape)
                              for r in led.rows if r.macs]
        sizes: dict[str, int] = {}
        for pname, value in net.parameters().items():
            prefix = pname.rpartition(".")[0]
            sizes[prefix] = sizes.get(prefix, 0) + value.size
        assert sizes == {r.name: r.params for r in led.rows if r.params}

        assert list(net.shapes) == executed
        column = {unit.stage: shape for unit, shape in zip(net.units, executed)}
        assert trace_shapes(net) == list(column.items())

        disabled = Tape(grad_enabled=False)
        plain = net.forward_node(disabled.leaf(x, "input"), disabled).value
        eager = forward(net, Tensor(x))
        for other in (plain, eager):
            assert other.shape == node.value.shape
            assert other.tobytes() == node.value.tobytes()
