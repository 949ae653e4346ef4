"""Tape recording, backward sweep, per-op gradient laws, and the
finite-difference verifier."""
import numpy as np
import pytest

from hbonet.autodiff import Tape, backward, finite_diff_check
from hbonet.ops import BatchNormParams


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
        """Depthwise (both layouts), inference batch norm with non-identity
        statistics, and average pooling: taped bytes equal eager bytes."""
        from hbonet import ops
        from hbonet.tensor import ConvKernel, Tensor
        rng = np.random.default_rng(6)
        for n in (1, 2):
            x = rng.normal(size=(n, 4, 9, 8))
            wd = rng.normal(size=(4, 1, 5, 5))
            tape = Tape(grad_enabled=grad_enabled)
            taped = tape.depthwise_conv(tape.leaf(x), tape.leaf(wd[:, 0]), 2)
            eager = ops.depthwise_conv(Tensor(x), ConvKernel(wd, groups=4), 2)
            assert taped.value.tobytes() == eager.data.tobytes()

            p = BatchNormParams(
                gamma=rng.normal(1, 0.3, 4), beta=rng.normal(size=4),
                running_mean=rng.normal(size=4),
                running_var=rng.uniform(0.2, 3, 4))
            taped = tape.batchnorm(tape.leaf(x), tape.leaf(p.gamma),
                                   tape.leaf(p.beta), p, training=False)
            eager = ops.batchnorm(Tensor(x), p, training=False)
            assert taped.value.tobytes() == eager.data.tobytes()

            for k in (2, 3):
                taped = tape.avgpool(tape.leaf(x), k, k)
                eager = ops.avgpool(Tensor(x), k, k)
                assert taped.value.tobytes() == eager.data.tobytes()


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
        err = finite_diff_check(lambda xn: xn.tape.sum_all(xn.tape.relu6(xn)),
                                np.abs(x) + 0.5, step=1e-6)
        assert err < 1e-8

    def test_bilinear_upsample_linear_exactness(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2, 4, 4))
        err = finite_diff_check(
            lambda xn: xn.tape.sum_all(xn.tape.bilinear_upsample(xn, 2)),
            x, step=1e-6)
        assert err < 1e-7

    def test_batchnorm_training_mode_batch4(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 2, 3, 3))
        gamma = rng.normal(1.0, 0.1, size=2)
        beta = rng.normal(size=2)
        weights = rng.normal(size=(4, 2, 3, 3))

        def f(xn):
            p = BatchNormParams(gamma.copy(), beta.copy())
            t = xn.tape
            out = t.batchnorm(xn, t.leaf(gamma), t.leaf(beta), p, training=True)
            return t.weighted_sum(out, weights)

        assert finite_diff_check(f, x, step=1e-6) < 1e-5

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
