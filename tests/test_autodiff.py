"""Tape recording, backward sweep, per-op gradient laws, and the
finite-difference verifier."""
import gc
import importlib.util
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbonet.autodiff import (Node, Shape, ShapeTape, Tape, TapeConsumedError,
                             _bn_batch_normalize, _bn_normalize, backward, eager,
                             finite_diff_check)
from hbonet.blocks import (BlockConfig, BlockKind, hbo_forward_node, init_block_params,
                           inverted_residual_forward_node)
from hbonet.ops import BatchNormParams
from hbonet.tensor import DimensionError, UnsupportedKernelError


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        tape = Tape()
        x = tape.leaf(np.random.default_rng(0).normal(size=(2, 3, 4, 4)), "x")
        loss = tape.sum_all(x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((2, 3, 4, 4)))

    def test_relu6_piecewise_gradient(self):
        x_arr = np.array([-2.0, 1.0, 5.0, 7.0]).reshape(1, 1, 1, 4)
        tape = Tape()
        x = tape.leaf(x_arr, "x")
        loss = tape.sum_all(tape.relu6(x))
        backward(tape, loss)
        assert x.grad.ravel().tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_relu6_kink_subgradient_zero(self):
        x_arr = np.array([0.0, 6.0]).reshape(1, 1, 1, 2)
        tape = Tape()
        x = tape.leaf(x_arr, "x")
        loss = tape.sum_all(tape.relu6(x))
        backward(tape, loss)
        assert x.grad.ravel().tolist() == [0.0, 0.0]

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.zeros((1, 1, 2, 2)), "x")
        y = tape.relu6(x)
        with pytest.raises(ValueError):
            backward(tape, y)

    def test_backward_returns_leaf_gradients(self):
        tape = Tape()
        a = tape.leaf(np.ones((1, 1, 2, 2)), "a")
        b = tape.leaf(np.ones((1, 1, 2, 2)), "b")
        loss = tape.sum_all(tape.eltadd(a, b))
        leaves = backward(tape, loss)
        assert leaves[a] is a.grad and leaves[b] is b.grad

    def test_fan_out_accumulation(self):
        """A node feeding two consumers accumulates both contributions."""
        tape = Tape()
        x = tape.leaf(np.full((1, 1, 2, 2), 2.0), "x")
        loss = tape.sum_all(tape.eltadd(x, x))
        backward(tape, loss)
        assert np.array_equal(x.grad, np.full((1, 1, 2, 2), 2.0))

    def test_grad_disabled_tape_records_nothing(self):
        tape = Tape(grad_enabled=False)
        x = tape.leaf(np.zeros((1, 1, 2, 2)))
        tape.relu6(x)
        assert tape.nodes == []


def keep_everything_backward(tape, loss_node):
    """The sweep without liveness freeing: every reached node keeps its
    gradient and VJP. Returns the reached leaves' gradients in tape order:
    the reference that ``backward``'s leaf gradients must equal bit for bit."""
    for node in tape.nodes:
        node.grad = None
    loss_node.grad = np.float64(1.0)
    for node in reversed(tape.nodes):
        if node.grad is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(node.grad)):
            if parent.grad is None:
                parent.grad = np.asarray(pg, dtype=np.float64)
            else:
                parent.grad = parent.grad + pg
    return [(n.name, n.grad) for n in tape.nodes
            if not n.parents and n.grad is not None]


class KeepingTape(Tape):
    """A recording tape that also keeps each op's output array as it is
    recorded, keyed by node, since the tape itself drops a node's value once
    no later op reads it. Kept alive, the arrays keep distinct ids."""

    def __init__(self):
        super().__init__()
        self.outputs = {}

    def _record(self, value, parents, vjp, name, *args):
        node = super()._record(value, parents, vjp, name, *args)
        self.outputs[node] = value
        return node


def assert_leaf_grads_bitwise(got, want):
    """``got``: backward's ``{leaf: grad}``; ``want``: the reference's
    (name, grad) list for a second recording of the same forward."""
    assert [n.name for n in got] == [name for name, _ in want]
    for (name, w), g in zip(want, got.values()):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


class TestLiveness:
    """backward frees each interior node's gradient and VJP once its VJP
    has run; leaves keep theirs."""

    @staticmethod
    def _hbo_block_tape(training):
        """A stride-1 HBO block: the input and the contraction output fan
        out, and both eltadd and concat_channels run."""
        rng = np.random.default_rng(12)
        cfg = BlockConfig(8, 8, 2, 1, BlockKind.HARMONIOUS_BOTTLENECK)
        p = init_block_params(cfg, rng)
        x = rng.normal(size=(2, 8, 8, 8))
        weights = rng.normal(size=(2, 8, 8, 8))
        tape = KeepingTape()
        out = hbo_forward_node(tape.leaf(x, "input"), cfg, p, tape, training)
        return tape, tape.weighted_sum(out, weights)

    @pytest.mark.parametrize("training", [False, True])
    def test_interior_freed_leaves_keep_grad(self, training):
        tape, loss = self._hbo_block_tape(training)
        assert {n.name for n in tape.nodes} >= {"eltadd", "concat_channels"}
        leaves = backward(tape, loss)
        interior = [n for n in tape.nodes if n.parents]
        assert interior and all(n.grad is None and n.vjp is None for n in interior)
        assert list(leaves) == [n for n in tape.nodes if not n.parents]
        assert all(leaf.grad is g and g is not None for leaf, g in leaves.items())

    @pytest.mark.parametrize("training", [False, True])
    def test_leaf_grads_equal_keep_everything_sweep(self, training):
        want = keep_everything_backward(*self._hbo_block_tape(training))
        assert_leaf_grads_bitwise(backward(*self._hbo_block_tape(training)), want)

    @pytest.mark.parametrize("training", [False, True])
    def test_batchnorm_vjp_holds_no_input(self, training):
        """A batch-norm VJP reads only inv and xhat, so its closure holds
        neither its input array nor, written in place, its output."""
        tape, _ = self._hbo_block_tape(training)
        bns = [n for n in tape.nodes if n.name == "batchnorm"]
        assert bns
        for node in bns:
            held = [cell.cell_contents for cell in node.vjp.__closure__]
            assert not any(a is tape.outputs[node.parents[0]] or a is tape.outputs[node]
                           for a in held)

    @pytest.mark.parametrize("run_backward", [False, True])
    def test_dropped_tape_is_freed_without_the_cycle_collector(self, run_backward):
        """No node points back at its tape, so a dropped recording tape,
        with its nodes, VJP closures and gradients, is freed with its last
        reference rather than at the cyclic collector's next pass."""
        gc.disable()
        try:
            tape, loss = self._hbo_block_tape(training=True)
            if run_backward:
                backward(tape, loss)
            dropped = weakref.ref(tape)
            del tape, loss
            assert dropped() is None
        finally:
            gc.enable()

    def test_second_backward_raises_and_keeps_leaf_grads(self):
        tape = Tape()
        x = tape.leaf(np.arange(4.0).reshape(1, 1, 2, 2), "x")
        y = tape.relu6(x)
        loss = tape.sum_all(y)
        backward(tape, loss)
        first = x.grad
        with pytest.raises(TapeConsumedError):
            backward(tape, loss)
        with pytest.raises(TapeConsumedError):   # a new loss over freed nodes
            backward(tape, tape.sum_all(y))
        assert x.grad is first

    def test_released_value_raises_and_backward_is_unchanged(self):
        """A value the tape dropped, taken over through ``_out`` or released
        by the wiring, raises TapeConsumedError when read or recorded on,
        never an AttributeError on None. Leaves keep their values, and the
        leaf gradients equal those of a tape that drops nothing."""
        x_arr = np.arange(-4.0, 12.0).reshape(1, 1, 4, 4)

        def run(release):
            tape = Tape()
            x = tape.leaf(x_arr, "x")
            a = tape.eltadd(x, x)
            b = tape.relu6(a, _out=a.value) if release else tape.relu6(a)
            up = tape.bilinear_upsample(b, 2)
            loss = tape.sum_all(tape.release(up, b, x) if release else up)
            return tape, x, a, b, loss

        tape, x, a, b, loss = run(release=True)
        for node in (a, b):
            assert repr(node) == f"Node({node.name}, released)"
            with pytest.raises(TapeConsumedError):
                node.value
            with pytest.raises(TapeConsumedError):
                tape.relu6(node)
        assert x.value is not None
        assert tape.release(loss, a, b) is loss     # a second release is a no-op
        ref_tape, *_, ref_loss = run(release=False)
        assert_leaf_grads_bitwise(backward(tape, loss),
                                  keep_everything_backward(ref_tape, ref_loss))


class LivenessTape(Tape):
    """A grad-disabled tape that notes, as each conv of a block runs, which
    earlier conv inputs of the block are still alive, by layer name."""

    def __init__(self):
        super().__init__(grad_enabled=False)
        self.inputs = {}    # layer -> weakref to the array it read
        self.alive = {}     # layer -> layers whose input array was alive

    def _note(self, x, w):
        layer = w.name.rpartition(".")[0]
        self.alive[layer] = {k for k, ref in self.inputs.items() if ref() is not None}
        self.inputs[layer] = weakref.ref(x.value)

    def depthwise_conv(self, x, w, stride=1, pad=None):
        self._note(x, w)
        return super().depthwise_conv(x, w, stride, pad)

    def pointwise_conv(self, x, w):
        self._note(x, w)
        return super().pointwise_conv(x, w)


class TestInferenceRelease:
    """A grad-disabled tape drops each interior value at its last reader,
    as a recording tape does; leaves, ShapeTape nodes and ``release``'s own
    ``out`` keep theirs."""

    def test_released_interior_array_is_freed(self):
        tape = Tape(grad_enabled=False)
        x = tape.leaf(np.arange(-4.0, 12.0).reshape(1, 1, 4, 4), "x")
        a = tape.relu6(x)
        assert a.parents is None and a.vjp is None   # linked to no node
        freed = weakref.ref(a.value)
        b = tape.release(tape.bilinear_upsample(a, 2), a, x)
        assert freed() is None
        with pytest.raises(TapeConsumedError):
            a.value
        assert x.value.shape == (1, 1, 4, 4)      # a leaf keeps its value
        assert b.value.shape == (1, 1, 8, 8)

    @pytest.mark.parametrize("grad_enabled", [True, False])
    def test_release_keeps_out(self, grad_enabled):
        tape = Tape(grad_enabled=grad_enabled)
        y = tape.relu6(tape.eltadd(tape.leaf(np.ones((1, 1, 2, 2))),
                                   tape.leaf(np.ones((1, 1, 2, 2)))))
        assert tape.release(y, y) is y
        assert np.array_equal(y.value, np.full((1, 1, 2, 2), 2.0))

    def test_shape_tape_nodes_keep_values(self):
        """A ShapeTape op whose shape is its operand's returns the operand
        node itself, so the wiring's ``release(op(y), y)`` passes ``out`` as
        spent; no ShapeTape node is ever dropped."""
        tape = ShapeTape()
        a = tape.leaf(Shape((1, 2, 4, 4)), "a")
        b = tape.bilinear_upsample(a, 2)
        assert tape.relu6(b) is b
        assert tape.release(tape.relu6(b), b) is b
        tape.release(tape.avgpool(b, 2, 2), a, b)
        assert a.value.shape == (1, 2, 4, 4) and b.value.shape == (1, 2, 8, 8)

    @pytest.mark.parametrize("forward,cfg,want", [
        pytest.param(hbo_forward_node,
                     BlockConfig(8, 16, 2, 2, BlockKind.HARMONIOUS_BOTTLENECK),
                     {"contract_dw": set(), "expand_pw": set(),
                      "body_dw": {"expand_pw"}, "reduce_pw": {"expand_pw"},
                      "smooth_dw": set()}, id="hbo-stride2-residual"),
        pytest.param(hbo_forward_node,
                     BlockConfig(8, 20, 2, 1, BlockKind.HARMONIOUS_BOTTLENECK),
                     {"contract_dw": set(), "expand_pw": {"contract_dw"},
                      "body_dw": {"contract_dw"}, "reduce_pw": {"contract_dw"},
                      "smooth_dw": {"contract_dw"}}, id="hbo-stride1-no-residual"),
        pytest.param(inverted_residual_forward_node,
                     BlockConfig(8, 16, 6, 2, BlockKind.INVERTED_RESIDUAL),
                     {"expand_pw": set(), "body_dw": set(), "reduce_pw": set()},
                     id="invres-no-residual"),
    ])
    def test_block_frees_values_at_their_last_reader(self, forward, cfg, want):
        """The block input is dead once contract_dw (HBO: the 2x2 pool of the
        shortcut has already read it) or the first layer (an inverted
        residual without its add) has run; at stride 1 the HBO shortcut is a
        view that keeps it to the concat. The HBO contraction output, which
        expand_pw reads, lives until the residual add, if there is one."""
        rng = np.random.default_rng(3)
        p = init_block_params(cfg, rng)
        x_arr = 4 * rng.normal(size=(1, 8, 8, 8))
        probe, outs = LivenessTape(), []
        for tape in (probe, Tape(grad_enabled=False)):
            x = tape.relu6(tape.leaf(x_arr, "input"))   # an interior input
            outs.append(forward(x, cfg, p, tape).value)
            with pytest.raises(TapeConsumedError):
                x.value
        assert probe.alive == want
        assert outs[0].tobytes() == outs[1].tobytes()


def _interior(tape, rng):
    """An interior node that owns a fresh array and whose VJP reads no
    value: the sum of two leaves, spread over both ReLU6 kinks."""
    return tape.eltadd(tape.leaf(4 * rng.normal(size=(2, 3, 4, 4)), "a"),
                       tape.leaf(rng.normal(size=(2, 3, 4, 4)), "b"))


def _batchnorm(tape, x, p, training, **kw):
    return tape.batchnorm(x, tape.leaf(p.gamma, "gamma"), tape.leaf(p.beta, "beta"),
                          p, training, **kw)


def _random_bn(rng, c=3):
    return BatchNormParams(rng.normal(1, 0.3, c), rng.normal(size=c),
                           rng.normal(size=c), rng.uniform(0.2, 3, c))


class TestOutContract:
    """On either kind of tape ``_out`` must be the value of the op's own
    interior input, which the new node takes over; no op that takes
    ``_out`` reads that input in its VJP."""

    @pytest.mark.parametrize("grad_enabled", [True, False])
    @pytest.mark.parametrize("op", ["relu6", "batchnorm"])
    def test_leaf_or_foreign_array_refused(self, op, grad_enabled):
        rng = np.random.default_rng(21)
        tape = Tape(grad_enabled)
        leaf = tape.leaf(rng.normal(size=(2, 3, 4, 4)), "x")
        x = _interior(tape, rng)
        for node, out in ((leaf, leaf.value), (x, x.value.copy())):
            with pytest.raises(ValueError):
                if op == "relu6":
                    tape.relu6(node, _out=out)
                else:
                    _batchnorm(tape, node, _random_bn(rng), True, _out=out)

    @pytest.mark.parametrize("grad_enabled", [True, False])
    @pytest.mark.parametrize("op", ["relu6", "batchnorm", "batchnorm-inference"])
    def test_writing_into_the_input_equals_a_fresh_output(self, op, grad_enabled):
        """Same value bytes, leaf gradients and running statistics with
        ``_out=x.value`` as without ``_out``, for the batch norm in both
        modes; with ``_out`` a later read of ``x`` raises, as the array
        holds the new node's value."""
        results = []
        for in_place in (False, True):
            rng = np.random.default_rng(22)
            p = _random_bn(rng)
            tape = Tape(grad_enabled)
            x = _interior(tape, rng)
            xv = x.value
            kw = {"_out": xv} if in_place else {}
            y = (tape.relu6(x, **kw) if op == "relu6"
                 else _batchnorm(tape, x, p, op == "batchnorm", **kw))
            assert (y.value is xv) == in_place
            if in_place:
                with pytest.raises(TapeConsumedError):
                    x.value
            value = y.value.tobytes()
            grads = (backward(tape, tape.weighted_sum(y, rng.normal(size=y.shape)))
                     if grad_enabled else {})
            results.append((value, [(n.name, g.tobytes()) for n, g in grads.items()],
                            p.running_mean.tobytes(), p.running_var.tobytes()))
        assert results[0] == results[1]


class TestGemmConvClosure:
    """A dense or pointwise conv node's VJP keeps only what its backward
    reads: no Node, and no array but the input's and the weights' values."""

    @pytest.mark.parametrize("op", ["conv2d", "pointwise_conv"])
    def test_closure_holds_no_node_and_only_the_operand_values(self, op):
        rng = np.random.default_rng(23)
        tape = Tape()
        x = tape.leaf(rng.normal(size=(2, 3, 5, 5)), "x")
        if op == "conv2d":
            w = tape.leaf(rng.normal(size=(4, 3, 3, 3)), "w")
            y = tape.conv2d(x, w, stride=2, pad=1)
        else:
            w = tape.leaf(rng.normal(size=(4, 3)), "w")
            y = tape.pointwise_conv(x, w)
        cells = [cell.cell_contents for cell in y.vjp.__closure__]
        assert not any(isinstance(v, Node) for v in cells)
        arrays = [v for v in cells if isinstance(v, np.ndarray)]
        assert len(arrays) == 2
        assert all(v is x.value or v is w.value for v in arrays)


class TestFusedBatchNormBitwise:
    """Training batch norm takes mean, var and xhat from one sum. They, the
    running statistics and the output must be the bytes that numpy's
    ``x.mean``, ``x.var`` and ``_bn_normalize`` give."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 32]), c=st.integers(1, 3),
           hw=st.one_of(st.just((1, 1)),
                        st.tuples(st.integers(1, 16), st.integers(1, 16)),
                        st.sampled_from([(64, 128), (91, 91), (128, 65), (97, 89)])),
           loc=st.sampled_from([0.0, 3.0, -250.0]), seed=st.integers(0, 2**16))
    @example(n=1, c=144, hw=(112, 112), loc=0.0, seed=0)
    @example(n=32, c=2, hw=(2, 2), loc=3.0, seed=1)      # runs of 128 elements
    def test_stats_xhat_and_output_equal_numpy(self, n, c, hw, loc, seed):
        rng = np.random.default_rng(seed)
        x = loc + rng.normal(size=(n, c, *hw)) * rng.uniform(0.01, 10, (1, c, 1, 1))
        p = _random_bn(rng, c)
        eps, m = p.eps, p.momentum
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        inv, xhat = _bn_normalize(x, mean, var, eps)
        want_rm = (1 - m) * p.running_mean + m * mean
        want_rv = (1 - m) * p.running_var + m * var
        want_out = np.multiply(p.gamma[None, :, None, None], xhat)
        want_out += p.beta[None, :, None, None]

        scratch = x.copy()      # the squares may overwrite the input itself
        got = _bn_batch_normalize(scratch, eps, scratch)
        for g, w in zip(got, (mean, var, inv, xhat)):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        tape = Tape()
        xi = tape.eltadd(tape.leaf(x), tape.leaf(np.zeros_like(x)))   # bytes of x
        y = _batchnorm(tape, xi, p, True, _out=xi.value)
        assert y.value.tobytes() == want_out.tobytes()
        assert p.running_mean.tobytes() == want_rm.tobytes()
        assert p.running_var.tobytes() == want_rv.tobytes()


def _bn_train_vjp_reference(g, xhat, inv, gamma):
    """The training batch-norm VJP written term by term, with its seven
    full-size temporaries: the bitwise reference for ``Tape.batchnorm``."""
    dgamma = (g * xhat).sum(axis=(0, 2, 3))
    dbeta = g.sum(axis=(0, 2, 3))
    gx = g * gamma[None, :, None, None]
    gx_xhat = gx * xhat
    mean_gx = gx.mean(axis=(0, 2, 3))
    mean_gx_xhat = gx_xhat.mean(axis=(0, 2, 3))
    dx = inv[None, :, None, None] * (gx - mean_gx[None, :, None, None]
                                     - xhat * mean_gx_xhat[None, :, None, None])
    return dx, dgamma, dbeta


class TestBatchNormVjpBitwise:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 32]), c=st.integers(1, 4),
           hw=st.one_of(st.just((1, 1)),
                        st.tuples(st.integers(1, 16), st.integers(1, 16))),
           seed=st.integers(0, 2**16))
    # toy network shapes: long rows (16x16) and 1x1 maps
    @example(n=32, c=8, hw=(16, 16), seed=0)
    @example(n=32, c=216, hw=(1, 1), seed=1)
    @example(n=32, c=24, hw=(2, 2), seed=2)
    def test_training_vjp_equals_reference(self, n, c, hw, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, *hw)) * rng.uniform(0.01, 10, (1, c, 1, 1))
        p = _random_bn(rng, c)
        _, _, inv, xhat = _bn_batch_normalize(x.copy(), p.eps, np.empty_like(x))
        tape = Tape()
        xi = tape.eltadd(tape.leaf(x), tape.leaf(np.zeros_like(x)))   # bytes of x
        y = _batchnorm(tape, xi, p, True)
        g = rng.normal(size=x.shape)
        got = y.vjp(g)
        want = _bn_train_vjp_reference(g, xhat, inv, p.gamma)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestClosedFormGradients:
    def test_eltadd_distributes(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(1, 2, 3, 3))
        tape = Tape()
        a = tape.leaf(rng.normal(size=(1, 2, 3, 3)), "a")
        b = tape.leaf(rng.normal(size=(1, 2, 3, 3)), "b")
        loss = tape.weighted_sum(tape.eltadd(a, b), g)
        backward(tape, loss)
        assert np.array_equal(a.grad, g) and np.array_equal(b.grad, g)

    def test_concat_splits_exactly(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(1, 5, 2, 2))
        tape = Tape()
        a = tape.leaf(rng.normal(size=(1, 2, 2, 2)), "a")
        b = tape.leaf(rng.normal(size=(1, 3, 2, 2)), "b")
        loss = tape.weighted_sum(tape.concat_channels(a, b), g)
        backward(tape, loss)
        assert np.array_equal(a.grad, g[:, :2])
        assert np.array_equal(b.grad, g[:, 2:])

    def test_take_first_zero_pads_dropped_channels(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(1, 2, 2, 2))
        tape = Tape()
        x = tape.leaf(rng.normal(size=(1, 4, 2, 2)), "x")
        loss = tape.weighted_sum(tape.take_first_channels(x, 2), g)
        backward(tape, loss)
        assert np.array_equal(x.grad[:, :2], g)
        assert np.all(x.grad[:, 2:] == 0)

    def test_upsample_backward_is_transpose(self):
        """<U x, y> == <x, U^T y> for the bilinear interpolation map."""
        rng = np.random.default_rng(4)
        x_arr = rng.normal(size=(1, 3, 5, 5))
        y_arr = rng.normal(size=(1, 3, 10, 10))
        tape = Tape()
        x = tape.leaf(x_arr, "x")
        ux = tape.bilinear_upsample(x, 2)
        lhs = float((ux.value * y_arr).sum())
        loss = tape.weighted_sum(ux, y_arr)
        backward(tape, loss)
        rhs = float((x_arr * x.grad).sum())
        assert abs(lhs - rhs) <= 1e-10


class TestTapedMatchesEager:
    def test_ops_share_forward_kernels(self):
        from hbonet import ops
        from hbonet.tensor import ConvKernel, Tensor
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 6, 6))
        wd = rng.normal(size=(4, 1, 3, 3))
        tape = Tape(grad_enabled=False)
        taped = tape.depthwise_conv(tape.leaf(x), tape.leaf(wd[:, 0]), stride=2)
        eager = ops.depthwise_conv(Tensor(x), ConvKernel(wd, groups=4), stride=2)
        assert np.array_equal(taped.value, eager.data)

    @pytest.mark.parametrize("grad_enabled", [True, False])
    def test_values_bitwise_equal(self, grad_enabled):
        """Every public op against its tape op: depthwise in both layouts,
        pointwise, dense conv, batch norm in training (running statistics
        too) and inference mode, ReLU6, upsampling, pooling and the channel
        ops. Taped bytes equal eager bytes."""
        from hbonet import ops
        from hbonet.tensor import ConvKernel, Tensor
        rng = np.random.default_rng(6)
        for n in (1, 2):
            x, z = rng.normal(size=(2, n, 4, 9, 8))
            y = rng.normal(size=(n, 3, 9, 8))
            wd = rng.normal(size=(4, 1, 5, 5))
            wp = rng.normal(size=(6, 4, 1, 1))
            wc = rng.normal(size=(5, 4, 3, 3))
            stats = dict(gamma=rng.normal(1, 0.3, 4), beta=rng.normal(size=4),
                         running_mean=rng.normal(size=4),
                         running_var=rng.uniform(0.2, 3, 4))
            tape = Tape(grad_enabled=grad_enabled)
            leaf = tape.leaf
            X, Y, Z = Tensor(x), Tensor(y), Tensor(z)
            pairs = [
                (tape.depthwise_conv(leaf(x), leaf(wd[:, 0]), 2),
                 ops.depthwise_conv(X, ConvKernel(wd, groups=4), 2)),
                (tape.pointwise_conv(leaf(x), leaf(wp[:, :, 0, 0])),
                 ops.pointwise_conv(X, ConvKernel(wp))),
                (tape.conv2d(leaf(x), leaf(wc), 2, 1),
                 ops.conv2d(X, ConvKernel(wc), 2, 1)),
                (tape.relu6(leaf(4 * x)), ops.relu6(Tensor(4 * x))),
                (tape.concat_channels(leaf(x), leaf(y)), ops.concat_channels(X, Y)),
                (tape.take_first_channels(leaf(x), 3), ops.take_first_channels(X, 3)),
                (tape.eltadd(leaf(x), leaf(z)), ops.eltadd(X, Z)),
            ]
            for training in (True, False):
                p_tape, p_eager = (BatchNormParams(**{k: v.copy() for k, v in stats.items()})
                                   for _ in range(2))
                pairs.append((tape.batchnorm(leaf(x), leaf(p_tape.gamma),
                                             leaf(p_tape.beta), p_tape, training),
                              ops.batchnorm(X, p_eager, training)))
                assert p_tape.running_mean.tobytes() == p_eager.running_mean.tobytes()
                assert p_tape.running_var.tobytes() == p_eager.running_var.tobytes()
            for factor in (1, 2, 4):
                pairs.append((tape.bilinear_upsample(leaf(x), factor),
                              ops.bilinear_upsample(X, factor)))
            for k in (2, 3, 7):
                pairs.append((tape.avgpool(leaf(x), k, k), ops.avgpool(X, k, k)))
            for taped, eager in pairs:
                assert taped.value.shape == eager.shape
                assert taped.value.tobytes() == eager.data.tobytes()


def _error_rows():
    """(eager call, tape call, named error), one bad operand per row."""
    from hbonet import ops
    from hbonet.tensor import ConvKernel, Tensor
    x = np.zeros((1, 3, 4, 4))
    X = Tensor(x)

    def dw(k, c=3):
        return np.zeros((c, k, k)), ConvKernel(np.zeros((c, 1, k, k)), groups=c)

    rows = [
        pytest.param(lambda: ops.take_first_channels(X, 5),
                     lambda t: t.take_first_channels(t.leaf(x), 5),
                     DimensionError, id="take-more-than-c"),
        pytest.param(lambda: ops.take_first_channels(X, 0),
                     lambda t: t.take_first_channels(t.leaf(x), 0),
                     DimensionError, id="take-zero"),
        pytest.param(lambda: ops.bilinear_upsample(X, 0),
                     lambda t: t.bilinear_upsample(t.leaf(x), 0),
                     ValueError, id="upsample-factor-0"),
        pytest.param(lambda: ops.pointwise_conv(X, ConvKernel(np.zeros((2, 4, 1, 1)))),
                     lambda t: t.pointwise_conv(t.leaf(x), t.leaf(np.zeros((2, 4)))),
                     DimensionError, id="pointwise-channels"),
        pytest.param(lambda: ops.concat_channels(X, Tensor.zeros(1, 2, 5, 4)),
                     lambda t: t.concat_channels(t.leaf(x),
                                                 t.leaf(np.zeros((1, 2, 5, 4)))),
                     DimensionError, id="concat-maps"),
        pytest.param(lambda: ops.avgpool(X, 5, 1),
                     lambda t: t.avgpool(t.leaf(x), 5, 1),
                     DimensionError, id="avgpool-kernel-over-map"),
        # no public Tensor op returns rank 2, so the eager path is the helper
        pytest.param(lambda: eager(Tape.flatten_spatial, X),
                     lambda t: t.flatten_spatial(t.leaf(x)),
                     DimensionError, id="flatten-not-1x1"),
        # depthwise weights belong to depthwise_conv; conv2d is dense only
        pytest.param(lambda: eager(Tape.conv2d, X, dw(3)[0]),
                     lambda t: t.conv2d(t.leaf(x), t.leaf(dw(3)[0])),
                     UnsupportedKernelError, id="conv2d-depthwise-weights"),
    ]
    for name, (w, kernel), stride, error in (
            ("depthwise-channels", dw(3, c=2), 1, DimensionError),
            ("depthwise-even-kernel", dw(4), 1, UnsupportedKernelError),
            ("depthwise-stride-3", dw(3), 3, ValueError)):
        rows.append(pytest.param(
            lambda kernel=kernel, s=stride: ops.depthwise_conv(X, kernel, s),
            lambda t, w=w, s=stride: t.depthwise_conv(t.leaf(x), t.leaf(w), s),
            error, id=name))
    return rows


@pytest.mark.parametrize("eager_call,tape_call,error", _error_rows())
def test_every_path_raises_the_named_error(eager_call, tape_call, error):
    """The eager op, a recording tape, a grad-disabled tape and the
    symbolic ShapeTape all reject a bad operand with the same error class."""
    calls = [eager_call] + [lambda t=t: tape_call(t) for t in
                            (Tape(), Tape(grad_enabled=False), ShapeTape())]
    for call in calls:
        # the exact class: the named errors subclass ValueError
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is error


def test_pointwise_rule_names_its_op_and_the_shape_passed():
    """A pointwise weight of the wrong rank is rejected by the pointwise
    rule itself, naming that op and the caller's shape rather than the
    dense rule's 4-D kernel."""
    x = np.zeros((1, 3, 4, 4))
    for tape in (Tape(), Tape(grad_enabled=False), ShapeTape()):
        with pytest.raises(UnsupportedKernelError,
                           match=r"^pointwise_conv kernel .*, got \(2, 3, 1\)$"):
            tape.pointwise_conv(tape.leaf(x), tape.leaf(np.zeros((2, 3, 1))))


class TestPerfbenchHooks:
    """perfbench/tracing.py overrides Tape methods by name and reads a conv
    call's weight as its second argument; loaded here without editing it."""

    @staticmethod
    def _tracing():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_traced_ops_are_tape_methods(self):
        tracing = self._tracing()
        for name in tracing.TRACED_OPS:
            assert callable(vars(Tape).get(name)), name
        for name in tracing.CONV_OPS:
            assert list(inspect.signature(getattr(Tape, name)).parameters)[:3] \
                == ["self", "x", "w"]
        for name in ("relu6", "batchnorm"):
            assert "_out" in inspect.signature(getattr(Tape, name)).parameters

    def test_traced_conv_macs_equal_the_ledger_rows(self):
        """The traced MACs, read from the weight argument, equal what the
        symbolic walk behind the ledger counts, for each conv op."""
        tracing = self._tracing()
        rec = tracing.Recorder()
        traced, shapes = tracing.TracingTape(rec), ShapeTape()
        x = np.ones((2, 4, 8, 8))
        for name, w, args in (("conv2d", np.ones((5, 4, 3, 3)), (2, 1)),
                              ("depthwise_conv", np.ones((4, 5, 5)), (2,)),
                              ("depthwise_conv", np.ones((4, 3, 2)), (2, 1)),
                              ("pointwise_conv", np.ones((6, 4)), ())):
            getattr(traced, name)(traced.leaf(x), traced.leaf(w), *args)
            getattr(shapes, name)(shapes.leaf(x), shapes.leaf(w, name + ".weight"),
                                  *args)
        assert [s.macs for s in rec.spans] == [2 * row[1] for row in shapes.rows]

    def test_traced_conv2d_rejects_depthwise_weights(self):
        """A (c, kh, kw) weight given to the traced dense conv raises the
        shape rule's error before the tracer reads it as (o, c, kh, kw)."""
        tracing = self._tracing()
        traced = tracing.TracingTape(tracing.Recorder())
        x, w = traced.leaf(np.ones((1, 2, 4, 4))), traced.leaf(np.ones((2, 3, 3)))
        with pytest.raises(UnsupportedKernelError):
            traced.conv2d(x, w, 1, 1)


class TestFiniteDiffCheck:
    def test_quadratic_analytic_gradient(self):
        """f = 0.5*||x||^2 has gradient exactly x."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 4))
        err = finite_diff_check(lambda a: 0.5 * float((a * a).sum()), x,
                                step=1e-4, analytic=x)
        assert err < 1e-9

    def test_taped_mode_derives_analytic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 3, 3))
        err = finite_diff_check(lambda t, xn: t.sum_all(t.relu6(xn)),
                                np.abs(x) + 0.5, step=1e-6)
        assert err < 1e-8

    def test_bilinear_upsample_linear_exactness(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2, 4, 4))
        err = finite_diff_check(
            lambda t, xn: t.sum_all(t.bilinear_upsample(xn, 2)),
            x, step=1e-6)
        assert err < 1e-7

    def test_batchnorm_training_mode_batch4(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 2, 3, 3))
        gamma = rng.normal(1.0, 0.1, size=2)
        beta = rng.normal(size=2)
        weights = rng.normal(size=(4, 2, 3, 3))

        def f(t, xn):
            p = BatchNormParams(gamma.copy(), beta.copy())
            out = t.batchnorm(xn, t.leaf(gamma), t.leaf(beta), p, training=True)
            return t.weighted_sum(out, weights)

        assert finite_diff_check(f, x, step=1e-6) < 1e-5

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (3, 2)])
    def test_conv2d_with_depthwise_weights(self, stride, pad):
        """Tape.depthwise_conv with an explicit pad, the path of ops.conv2d
        with groups == channels: any kernel shape, stride and pad."""
        rng = np.random.default_rng(stride)
        x, w = rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(3, 5, 2))
        weights = rng.normal(size=(2, 3, *[(d + 2 * pad - k) // stride + 1
                                           for d, k in ((7, 5), (6, 2))]))

        def loss(t, xn, wn):
            return t.weighted_sum(t.depthwise_conv(xn, wn, stride, pad), weights)

        assert finite_diff_check(lambda t, xn: loss(t, xn, t.leaf(w)), x) < 1e-7
        assert finite_diff_check(lambda t, wn: loss(t, t.leaf(x), wn), w) < 1e-7

    def test_coordinate_sampling_is_seeded(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 40))  # 1600 coords, above the sample cap

        def f(a):
            return 0.5 * float((a * a).sum())

        e1 = finite_diff_check(f, x, step=1e-4, analytic=x, max_coords=50, seed=3)
        e2 = finite_diff_check(f, x, step=1e-4, analytic=x, max_coords=50, seed=3)
        assert e1 == e2

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda a: 0.0, np.zeros(3), step=0.0)

    @pytest.mark.parametrize("x,kwargs", [
        (np.zeros(3), {"step": np.nan}), (np.zeros(3), {"step": np.inf}),
        (np.zeros(3), {"max_coords": 0}), (np.zeros(0), {}),
        (np.zeros(3), {"analytic": np.zeros(5)}),
        (np.zeros(2), {"analytic": np.zeros(3)}),
        (np.zeros(3), {"analytic": np.zeros((3, 1))})],
        ids=["nan-step", "inf-step", "no-coords", "empty-x", "analytic-5-for-3",
             "analytic-3-for-2", "analytic-other-shape"])
    def test_vacuous_arguments_rejected(self, x, kwargs):
        """Each of these checked nothing, or read ``analytic`` by flat index
        against another shape, and passed with 0.0."""
        with pytest.raises(ValueError):
            finite_diff_check(lambda a: 0.0, x, **kwargs)

    @pytest.mark.parametrize("analytic", [[np.nan] * 3, [0.0, np.nan, 2.0],
                                          [0.0, 1.0, np.nan]],
                             ids=["all", "middle", "last"])
    def test_nan_analytic_coordinate_fails(self, analytic):
        """The gradient of 0.5*||x||^2 is x; a NaN in place of any of its
        coordinates makes the result NaN, which no threshold passes."""
        x = np.array([0.0, 1.0, 2.0])
        err = finite_diff_check(lambda a: 0.5 * float((a * a).sum()), x,
                                step=1e-4, analytic=np.array(analytic))
        assert np.isnan(err) and not err < 1e-5


class TestDeterminism:
    def test_backward_accumulation_is_deterministic(self):
        rng = np.random.default_rng(11)
        x_arr = rng.normal(size=(2, 3, 8, 8))
        w_arr = rng.normal(size=(3, 3, 3))

        def run():
            tape = Tape()
            x = tape.leaf(x_arr, "x")
            w = tape.leaf(w_arr, "w")
            y = tape.depthwise_conv(x, w, stride=2)
            y = tape.relu6(y)
            loss = tape.sum_all(y)
            backward(tape, loss)
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)
