"""Block behavior: channel rounding, shape laws, the copied-shortcut law,
and the compositional oracle (block forward versus a straight-line chain of
the primitive ops wired independently in this file)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_autodiff import KeepingTape, assert_leaf_grads_bitwise, keep_everything_backward

from hbonet import ops
from hbonet.autodiff import Tape, backward
from hbonet.blocks import (
    BlockConfig,
    BlockKind,
    ConfigError,
    block_forward_node,
    block_layer_table,
    harmonious_bottleneck_forward,
    hbo_forward_node,
    init_block_params,
    inverted_residual_forward,
    inverted_residual_forward_node,
    make_divisible,
)
from hbonet.network import build_network, forward, hbonet_spec
from hbonet.tensor import ConvKernel, Tensor, tensor_equal_within

HBO = BlockKind.HARMONIOUS_BOTTLENECK
INV = BlockKind.INVERTED_RESIDUAL


class TestMakeDivisible:
    def test_already_multiple(self):
        assert make_divisible(36 * 0.5, 2) == 18

    def test_rounds_up_under_90_percent(self):
        assert make_divisible(20 * 0.35, 4) == 8

    def test_never_below_divisor(self):
        assert make_divisible(1.2, 8) == 8

    def test_rounds_down_within_90_percent(self):
        # 76.8 -> 72 (72 >= 0.9 * 76.8); 100.8 -> 96
        assert make_divisible(96 * 0.8, 8) == 72
        assert make_divisible(288 * 0.35, 8) == 96

    def test_bad_divisor(self):
        with pytest.raises(ValueError):
            make_divisible(10, 3)

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(min_value=1e-6, max_value=1e6),
           divisor=st.sampled_from([2, 4, 8]))
    def test_multiple_of_divisor_within_ten_percent_below(self, c, divisor):
        n = make_divisible(c, divisor)
        assert n % divisor == 0
        assert n >= divisor
        assert n >= 0.9 * c


class TestBlockConfig:
    def test_odd_c_out_rejected(self):
        with pytest.raises(ConfigError):
            BlockConfig(8, 7, 2, 1, HBO)

    def test_inverted_residual_rule(self):
        assert BlockConfig(8, 8, 2, 1, INV).use_residual
        assert not BlockConfig(8, 8, 2, 2, INV).use_residual
        assert not BlockConfig(8, 10, 2, 1, INV).use_residual

    def test_shortcut_clipped_to_input_width(self):
        cfg = BlockConfig(72, 152, 2, 2, HBO)
        assert cfg.shortcut_width == 72
        assert cfg.main_width == 80
        assert not cfg.use_residual


class TestLayerTable:
    def test_hbo_shapes_follow_config(self):
        cfg = BlockConfig(20, 36, 2, 1, HBO)
        table = {s.name: s for s in block_layer_table(cfg)}
        assert table["contract_dw"].weight_shape() == (20, 1, 5, 5)
        assert table["expand_pw"].weight_shape() == (40, 20, 1, 1)
        assert table["body_dw"].weight_shape() == (40, 1, 3, 3)
        assert table["reduce_pw"].weight_shape() == (18, 40, 1, 1)
        assert table["smooth_dw"].weight_shape() == (18, 1, 5, 5)

    def test_stride2_uses_3x3_smoothing(self):
        cfg = BlockConfig(36, 72, 2, 2, HBO)
        table = {s.name: s for s in block_layer_table(cfg)}
        assert table["smooth_dw"].kernel == 3

    def test_expansion_kept_at_t1(self):
        cfg = BlockConfig(32, 20, 1, 1, HBO)
        table = {s.name: s for s in block_layer_table(cfg)}
        assert table["expand_pw"].weight_shape() == (32, 32, 1, 1)

    def test_inverted_residual_skips_expand_at_t1(self):
        cfg = BlockConfig(32, 16, 1, 1, INV)
        names = [s.name for s in block_layer_table(cfg)]
        assert names == ["body_dw", "reduce_pw"]

    def test_cascade_layers_are_linear(self):
        cfg = BlockConfig(8, 8, 2, 1, HBO, contraction_count=2)
        table = {s.name: s for s in block_layer_table(cfg)}
        assert not table["casc2_dw"].act and not table["casc2_pw"].act
        assert table["casc2_dw"].stride == 2

    def test_params_match_table(self):
        cfg = BlockConfig(6, 8, 2, 2, HBO)
        p = init_block_params(cfg, np.random.default_rng(0))
        for spec in block_layer_table(cfg):
            leaf = {"depthwise": (spec.c_out, spec.kernel, spec.kernel),
                    "pointwise": (spec.c_out, spec.c_in)}[spec.kind]
            assert p[spec.name].weight.shape == leaf
            assert (p[spec.name].bn is not None) == spec.bn

    @pytest.mark.parametrize("cfg", [
        BlockConfig(6, 8, 2, 1, HBO),
        BlockConfig(6, 8, 2, 2, HBO),
        BlockConfig(6, 12, 2, 2, HBO, contraction_count=3),
        BlockConfig(6, 6, 3, 1, INV),
        BlockConfig(6, 10, 1, 2, INV),
    ], ids=["hbo-s1", "hbo-s2", "hbo-s2-k3", "invres-s1", "invres-s2-t1"])
    def test_each_layer_carries_its_table_row_in_order(self, cfg):
        p = init_block_params(cfg, np.random.default_rng(0))
        assert list(p) == [s.name for s in block_layer_table(cfg)]
        assert tuple(lp.spec for lp in p.values()) == block_layer_table(cfg)


class TestShapes:
    def test_stride1_shape_112_20_to_36(self):
        cfg = BlockConfig(20, 36, 2, 1, HBO)
        p = init_block_params(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 20, 112, 112)))
        assert harmonious_bottleneck_forward(x, cfg, p).shape == (1, 36, 112, 112)

    def test_stride2_shape_112_36_to_72(self):
        cfg = BlockConfig(36, 72, 2, 2, HBO)
        p = init_block_params(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 36, 112, 112)))
        assert harmonious_bottleneck_forward(x, cfg, p).shape == (1, 72, 56, 56)

    def test_inverted_residual_14_144_t6_200_s2(self):
        cfg = BlockConfig(144, 200, 6, 2, INV)
        p = init_block_params(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 144, 14, 14)))
        assert inverted_residual_forward(x, cfg, p).shape == (1, 200, 7, 7)

    @pytest.mark.parametrize("stride,k,hw", [(1, 1, 8), (1, 2, 8), (2, 1, 8),
                                             (2, 2, 16), (1, 3, 16)])
    def test_stride_law(self, stride, k, hw):
        cfg = BlockConfig(6, 8, 2, stride, HBO, contraction_count=k)
        p = init_block_params(cfg, np.random.default_rng(k))
        x = Tensor(np.random.default_rng(0).normal(size=(2, 6, hw, hw)))
        out = harmonious_bottleneck_forward(x, cfg, p)
        assert out.shape == (2, 8, hw // stride, hw // stride)

    def test_spatial_divisibility_error(self):
        cfg = BlockConfig(4, 4, 2, 1, HBO, contraction_count=2)
        p = init_block_params(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 6, 6)))
        with pytest.raises(ConfigError):
            harmonious_bottleneck_forward(x, cfg, p)


class TestChannelLaw:
    """Exactly c_out/2 output channels are computed; the rest are copies."""

    def test_stride1_shortcut_is_pure_copy(self):
        cfg = BlockConfig(8, 8, 2, 1, HBO)
        p = init_block_params(cfg, zero=True)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 8, 8, 8)))
        out = harmonious_bottleneck_forward(x, cfg, p)
        assert np.all(out.data[:, :4] == 0.0)          # main half: zero weights
        assert np.array_equal(out.data[:, 4:], x.data[:, :4])

    def test_stride2_shortcut_is_pooled_copy(self):
        cfg = BlockConfig(8, 8, 2, 2, HBO)
        p = init_block_params(cfg, zero=True)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 8, 8, 8)))
        out = harmonious_bottleneck_forward(x, cfg, p)
        pooled = ops.avgpool(x, 2, 2)
        assert np.all(out.data[:, :4] == 0.0)
        assert np.array_equal(out.data[:, 4:], pooled.data[:, :4])

    def test_inverted_residual_passthrough(self):
        cfg = BlockConfig(6, 6, 2, 1, INV)
        p = init_block_params(cfg, zero=True)
        x = Tensor(np.random.default_rng(4).normal(size=(1, 6, 5, 5)))
        out = inverted_residual_forward(x, cfg, p)
        assert tensor_equal_within(out, x, 0.0)


def _kernel(spec, lp):
    """The layer's leaf-shaped weight as the ConvKernel the eager ops take."""
    return ConvKernel(lp.weight.reshape(spec.weight_shape()), groups=spec.groups)


def compose_hbo_from_primitives(x, cfg, p):
    """Straight-line re-wiring of the block from the public eager ops."""
    def conv_bn_act(t, name):
        spec = {s.name: s for s in block_layer_table(cfg)}[name]
        lp = p[name]
        if spec.kind == "depthwise":
            t = ops.depthwise_conv(t, _kernel(spec, lp), stride=spec.stride)
        else:
            t = ops.pointwise_conv(t, _kernel(spec, lp))
        if lp.bn is not None:
            t = ops.batchnorm(t, lp.bn, training=False)
        if spec.act:
            t = ops.relu6(t)
        return t

    y = conv_bn_act(x, "contract_dw")
    body_in = y
    y = conv_bn_act(y, "expand_pw")
    y = conv_bn_act(y, "body_dw")
    y = conv_bn_act(y, "reduce_pw")
    if cfg.use_residual:
        y = ops.eltadd(y, ops.take_first_channels(body_in, cfg.main_width))
    for u in range(2, cfg.contraction_count + 1):
        y = conv_bn_act(y, f"casc{u}_dw")
        y = conv_bn_act(y, f"casc{u}_pw")
    factor = 2 ** cfg.contraction_count if cfg.stride == 1 \
        else 2 ** (cfg.contraction_count - 1)
    if factor > 1:
        y = ops.bilinear_upsample(y, factor)
    y = conv_bn_act(y, "smooth_dw")
    short = x if cfg.stride == 1 else ops.avgpool(x, 2, 2)
    short = ops.take_first_channels(short, cfg.shortcut_width)
    return ops.concat_channels(y, short)


class TestCompositionalOracle:
    @pytest.mark.parametrize("cin,cout,t,stride,k", [
        (4, 4, 2, 1, 1), (4, 6, 2, 2, 1), (6, 4, 3, 1, 1),
        (4, 4, 2, 1, 2), (4, 8, 2, 2, 2),
    ])
    def test_hbo_equals_primitive_chain(self, cin, cout, t, stride, k):
        cfg = BlockConfig(cin, cout, t, stride, HBO, contraction_count=k)
        rng = np.random.default_rng(cin * 100 + cout * 10 + stride + k)
        p = init_block_params(cfg, rng)
        x = Tensor(rng.normal(size=(2, cin, 8, 8)))
        got = harmonious_bottleneck_forward(x, cfg, p)
        want = compose_hbo_from_primitives(x, cfg, p)
        assert tensor_equal_within(got, want, 1e-12)

    def test_inverted_residual_equals_primitive_chain(self):
        cfg = BlockConfig(4, 4, 2, 1, INV)
        rng = np.random.default_rng(9)
        p = init_block_params(cfg, rng)
        x = Tensor(rng.normal(size=(2, 4, 6, 6)))
        got = inverted_residual_forward(x, cfg, p)
        want = compose_inverted_residual_from_primitives(x, cfg, p)
        assert tensor_equal_within(got, want, 1e-12)


def compose_inverted_residual_from_primitives(x, cfg, p):
    """Straight-line inverted residual from the public eager ops."""
    y = x
    for spec in block_layer_table(cfg):
        lp = p[spec.name]
        if spec.kind == "depthwise":
            y = ops.depthwise_conv(y, _kernel(spec, lp), stride=spec.stride)
        else:
            y = ops.pointwise_conv(y, _kernel(spec, lp))
        y = ops.batchnorm(y, lp.bn, training=False)
        if spec.act:
            y = ops.relu6(y)
    return ops.eltadd(y, x) if cfg.use_residual else y


class TestInPlaceEpilogue:
    """With grad disabled, each layer's batch norm and ReLU6 overwrite its
    conv output. The bytes must equal the recording tape's and the eager
    primitive chain's, and nothing the caller passed may change."""

    @staticmethod
    def _random_statistics(p, rng):
        for lp in p.values():
            c = lp.bn.channels
            lp.bn.gamma[...] = rng.normal(1.0, 0.3, c)
            lp.bn.beta[...] = rng.normal(0.0, 1.0, c)
            lp.bn.running_mean[...] = rng.normal(0.0, 1.0, c)
            lp.bn.running_var[...] = rng.uniform(0.2, 3.0, c)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("cfg", [
        BlockConfig(6, 8, 2, 1, HBO),
        BlockConfig(6, 8, 2, 2, HBO),
        BlockConfig(6, 8, 2, 1, HBO, contraction_count=2),
        BlockConfig(6, 12, 2, 2, HBO, contraction_count=2),
        BlockConfig(6, 6, 3, 1, INV),
        BlockConfig(6, 10, 3, 2, INV),
    ], ids=["hbo-s1-k1", "hbo-s2-k1", "hbo-s1-k2", "hbo-s2-k2",
            "invres-s1", "invres-s2"])
    def test_grad_disabled_bytes_equal_tape_and_primitives(self, cfg, n):
        rng = np.random.default_rng(cfg.c_out * 10 + cfg.stride + n)
        p = init_block_params(cfg, rng)
        self._random_statistics(p, rng)
        x = rng.normal(size=(n, cfg.c_in, 12, 12))
        before = [x.tobytes()] + [a.tobytes() for lp in p.values()
                                  for a in (lp.weight, lp.bn.gamma,
                                            lp.bn.beta, lp.bn.running_mean,
                                            lp.bn.running_var)]
        if cfg.kind is HBO:
            fwd, node_fwd = harmonious_bottleneck_forward, hbo_forward_node
            compose = compose_hbo_from_primitives
        else:
            fwd, node_fwd = (inverted_residual_forward,
                             inverted_residual_forward_node)
            compose = compose_inverted_residual_from_primitives
        got = fwd(Tensor(x), cfg, p).data
        tape = Tape()
        taped = node_fwd(tape.leaf(x, "x"), cfg, p, tape, training=False)
        want = compose(Tensor(x), cfg, p).data
        assert got.tobytes() == taped.value.tobytes() == want.tobytes()
        tape = Tape(grad_enabled=False)
        chosen = block_forward_node(tape.leaf(x, "x"), cfg, p, tape)
        assert chosen.value.tobytes() == got.tobytes()
        after = [x.tobytes()] + [a.tobytes() for lp in p.values()
                                 for a in (lp.weight, lp.bn.gamma,
                                           lp.bn.beta, lp.bn.running_mean,
                                           lp.bn.running_var)]
        assert after == before

    def test_out_rejected_on_a_recording_tape(self):
        tape = Tape()
        x = tape.leaf(np.ones((1, 2, 3, 3)))
        with pytest.raises(ValueError):
            tape.relu6(x, _out=x.value)

    def test_repeated_network_forward_is_stable(self):
        net = build_network(hbonet_spec(width=0.25, divisor=2,
                                        resolution=32, num_classes=3))
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 32, 32)))
        first = forward(net, x)
        assert forward(net, x).tobytes() == first.tobytes()


class FreshTape(KeepingTape):
    """The fresh-allocation reference: a recording tape whose batch norm
    and ReLU6 ignore ``_out``, so every node gets its own output array."""

    def relu6(self, x, *, _out=None):
        return super().relu6(x)

    def batchnorm(self, x, gamma, beta, p, training=False, *, _out=None):
        return super().batchnorm(x, gamma, beta, p, training)


class TestRecordedInPlaceEpilogue:
    """On a recording tape each layer's batch norm and ReLU6 overwrite the
    conv output. Output, leaf gradients and running statistics must equal
    the fresh-allocation reference's."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("cfg", [
        BlockConfig(6, 8, 2, 1, HBO),
        BlockConfig(6, 12, 2, 2, HBO, contraction_count=2),
        BlockConfig(6, 6, 3, 1, INV),
        BlockConfig(6, 10, 3, 2, INV),
    ], ids=["hbo-s1-k1", "hbo-s2-k2", "invres-s1", "invres-s2"])
    def test_forward_and_backward_equal_fresh_allocation(self, cfg, training):
        node_fwd = hbo_forward_node if cfg.kind is HBO else inverted_residual_forward_node

        def run(tape_cls):
            rng = np.random.default_rng(cfg.c_out * 10 + cfg.stride)
            p = init_block_params(cfg, rng)
            TestInPlaceEpilogue._random_statistics(p, rng)
            tape = tape_cls()
            x = rng.normal(size=(3, cfg.c_in, 8, 8))
            y = node_fwd(tape.leaf(x, "x"), cfg, p, tape, training=training)
            stats = [a.tobytes() for lp in p.values()
                     for a in (lp.bn.running_mean, lp.bn.running_var)]
            return tape, tape.weighted_sum(y, rng.normal(size=y.shape)), y, stats

        ref_tape, ref_loss, ref_y, ref_stats = run(FreshTape)
        want = keep_everything_backward(ref_tape, ref_loss)
        tape, loss, y, stats = run(KeepingTape)
        assert y.value.tobytes() == ref_y.value.tobytes()
        assert loss.value.tobytes() == ref_loss.value.tobytes()
        assert stats == ref_stats
        assert_leaf_grads_bitwise(backward(tape, loss), want)
        # and the layers did share their arrays
        arrays = {id(a) for a in tape.outputs.values()}
        assert len(arrays) < len({id(a) for a in ref_tape.outputs.values()})


class TestWidestIntermediate:
    def test_expanded_body_lives_at_half_resolution(self):
        """For a config whose widest tensor is the expanded body, the largest
        intermediate has t*c_in*(h/2)*(w/2) elements, 4x fewer than the
        inverted residual's widest tensor at equal t."""
        h = w = 8
        cfg = BlockConfig(4, 4, 6, 1, HBO)
        p = init_block_params(cfg, np.random.default_rng(0))
        tape = KeepingTape()
        xn = tape.leaf(np.random.default_rng(1).normal(size=(1, 4, h, w)), "x")
        out = hbo_forward_node(xn, cfg, p, tape)
        intermediates = [a for n, a in tape.outputs.items() if n is not out]
        biggest = max(a.size for a in intermediates)
        assert biggest == 6 * 4 * (h // 2) * (w // 2)

        inv_cfg = BlockConfig(4, 4, 6, 1, INV)
        inv_p = init_block_params(inv_cfg, np.random.default_rng(2))
        inv_tape = KeepingTape()
        inv_x = inv_tape.leaf(np.random.default_rng(3).normal(size=(1, 4, h, w)))
        from hbonet.blocks import inverted_residual_forward_node
        inverted_residual_forward_node(inv_x, inv_cfg, inv_p, inv_tape)
        inv_biggest = max(a.size for a in inv_tape.outputs.values())
        assert inv_biggest == 6 * 4 * h * w
        assert inv_biggest == 4 * biggest
