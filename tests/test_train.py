"""Optimizer math, loss, synthetic data, and short training-loop behavior.
The full 40-epoch reference run lives in the acceptance suite."""
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from test_autodiff import assert_leaf_grads_bitwise, keep_everything_backward

from hbonet.autodiff import Tape, TapeConsumedError, backward, finite_diff_check
from hbonet.network import build_network, hbonet_spec
from hbonet.tensor import DimensionError
from hbonet.train import (
    LogRow,
    OptimizerState,
    ToyConfig,
    ToyConfigError,
    TrainingError,
    cosine_lr,
    label_smooth_ce,
    make_synthetic_dataset,
    sgd_step,
    train_toy,
    write_log_csv,
)


class TestCosineLr:
    def test_epoch_zero_is_base(self):
        assert cosine_lr(0, 100, 0.05) == 0.05

    def test_final_epoch_near_zero(self):
        assert cosine_lr(999, 1000, 0.05) < 1e-6 * 0.05 * 1000

    def test_midpoint_is_half(self):
        assert abs(cosine_lr(50, 100, 0.05) - 0.025) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(10, 10, 0.05)


class TestSgdStep:
    def test_no_gradient_no_motion(self):
        p = {"w": np.ones(3)}
        g = {"w": np.zeros(3)}
        state = OptimizerState(weight_decay=0.0)
        out = sgd_step(p, g, state, lr=0.1)
        assert np.array_equal(out["w"], p["w"])

    def test_scalar_arithmetic(self):
        p = {"w": np.array([1.0])}
        g = {"w": np.array([1.0])}
        state = OptimizerState(weight_decay=0.0)
        out = sgd_step(p, g, state, lr=0.1)
        assert np.allclose(out["w"], [0.9])

    def test_momentum_accumulates(self):
        p = {"w": np.array([0.0])}
        state = OptimizerState(weight_decay=0.0, momentum=0.9)
        p = sgd_step(p, {"w": np.array([1.0])}, state, lr=1.0)   # v=1
        p = sgd_step(p, {"w": np.array([1.0])}, state, lr=1.0)   # v=1.9
        assert np.allclose(p["w"], [-2.9])

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(0)
        p0 = {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=7)}
        grads = [
            {"a": rng.normal(size=(4, 4)), "b": rng.normal(size=7)}
            for _ in range(10)
        ]

        def run():
            p = {k: v.copy() for k, v in p0.items()}
            state = OptimizerState()
            for g in grads:
                p = sgd_step(p, g, state, lr=0.05)
            return p

        r1, r2 = run(), run()
        for k in p0:
            assert np.array_equal(r1[k], r2[k])

    def test_weight_decay_shrinks_params(self):
        """With zero gradients, ten steps follow the closed recurrence
        v <- m v + wd p, p <- p - lr v; the norm must shrink."""
        wd, m, lr = 0.01, 0.9, 0.1
        p = {"w": np.full(5, 2.0)}
        state = OptimizerState(weight_decay=wd, momentum=m)
        expect = np.full(5, 2.0)
        v = np.zeros(5)
        for _ in range(10):
            p = sgd_step(p, {"w": np.zeros(5)}, state, lr=lr)
            v = m * v + wd * expect
            expect = expect - lr * v
        assert np.allclose(p["w"], expect)
        assert np.linalg.norm(p["w"]) < np.linalg.norm(np.full(5, 2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)},
                     OptimizerState(), 0.1)

    def test_bytes_equal_formula_velocities_in_place_inputs_unchanged(self):
        """Each step's velocity is m*v + g + wd*p and its parameter p - lr*v,
        byte for byte, -0 gradients included; the velocity arrays are updated
        in place and the caller's parameter arrays are left alone."""
        m, wd, lr = 0.9, 4e-5, 0.05
        rng = np.random.default_rng(12)
        p = {"a": rng.normal(size=(3, 4)), "b": np.array([-0.0, 0.0, 1.5])}
        state = OptimizerState(momentum=m, weight_decay=wd)
        v = {k: np.zeros_like(a) for k, a in p.items()}
        for step in range(4):
            g = {k: rng.normal(size=a.shape) for k, a in p.items()}
            g["b"][:2] = -0.0
            before = {k: a.tobytes() for k, a in p.items()}
            new = sgd_step(p, g, state, lr)
            if step == 0:
                buffers = dict(state.velocities)
            for k in p:
                v[k] = m * v[k] + g[k] + wd * p[k]
                assert state.velocities[k] is buffers[k]
                assert state.velocities[k].tobytes() == v[k].tobytes()
                assert new[k].tobytes() == (p[k] - lr * v[k]).tobytes()
                assert p[k].tobytes() == before[k] and new[k] is not p[k]
            p = new


class TestLabelSmoothCe:
    def test_eps_zero_is_plain_cross_entropy(self):
        logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 3.0]])
        labels = np.array([0, 2])
        expected = 0.0
        for row, lab in zip(logits, labels):
            z = row - row.max()
            expected -= (z[lab] - math.log(np.exp(z).sum()))
        expected /= len(labels)
        assert abs(label_smooth_ce(logits, labels, 0.0) - expected) < 1e-12

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
    def test_uniform_logits_give_log_k(self, eps):
        logits = np.zeros((4, 5))
        labels = np.array([0, 1, 2, 3])
        assert abs(label_smooth_ce(logits, labels, eps) - math.log(5)) < 1e-12

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        err = finite_diff_check(
            lambda t, zn: t.label_smooth_ce(zn, labels, 0.1),
            logits, step=1e-6)
        assert err < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            label_smooth_ce(np.zeros((1, 3)), np.array([3]), 0.0)

    @pytest.mark.parametrize("logits,labels,error", [
        (np.zeros((2, 3)), np.array([[1], [2]]), DimensionError),
        (np.zeros((2, 3)), np.array([0, 1, 2]), DimensionError),
        (np.zeros((3, 3)), np.array([0, 1]), DimensionError),
        (np.zeros(3), np.array([0]), DimensionError),
        (np.zeros((2, 3)), np.array([0.0, 1.0]), ValueError),
        (np.zeros((2, 3)), np.array([True, False]), ValueError),
    ], ids=["column-labels", "more-labels", "fewer-labels", "1d-logits",
            "float-labels", "bool-labels"])
    def test_bad_labels_rejected(self, logits, labels, error):
        """Labels index one class per row, so they must be integers of
        shape (n,): (n, 1) labels would broadcast the index into a wrong
        loss."""
        with pytest.raises(error):
            label_smooth_ce(logits, labels, 0.1)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            label_smooth_ce(np.zeros((1, 3)), np.array([0]), 1.0)


class TestSyntheticDataset:
    def test_shapes_and_classes(self):
        images, labels = make_synthetic_dataset(600, seed=0)
        assert images.shape == (600, 3, 32, 32)
        assert labels.shape == (600,)
        assert set(np.unique(labels)) == {0, 1, 2}

    def test_deterministic(self):
        a_img, a_lab = make_synthetic_dataset(100, seed=7)
        b_img, b_lab = make_synthetic_dataset(100, seed=7)
        assert np.array_equal(a_img, b_img) and np.array_equal(a_lab, b_lab)

    def test_pattern_is_localized_and_bright(self):
        images, labels = make_synthetic_dataset(50, seed=3, noise=0.1)
        for img in images:
            bright = img[0] > 1.0
            assert 16 <= bright.sum() <= 150   # a patch, not the whole image


class TestUntrainedAccuracy:
    def test_chance_level_before_training(self):
        """An untrained classifier sits near 1/3 accuracy on 3 classes."""
        from hbonet.network import forward
        from hbonet.tensor import Tensor
        net = build_network(hbonet_spec(width=0.25, divisor=2, resolution=32,
                                        num_classes=3, seed=0))
        images, labels = make_synthetic_dataset(300, seed=0)
        logits = forward(net, Tensor(images))
        acc = float((np.argmax(logits, axis=1) == labels).mean())
        assert abs(acc - 1 / 3) < 0.15


class TestTrainToy:
    def test_short_run_shape_and_stability(self):
        """Structure of the log; actual convergence is covered by the
        40-epoch reference run in the acceptance suite."""
        log = train_toy(epochs=3, seed=0,
                        config=ToyConfig(num_samples=128, batch_size=32))
        assert len(log) == 3
        assert all(np.isfinite(r.loss) for r in log)
        assert all(0.0 <= r.accuracy <= 1.0 for r in log)
        assert log[0].lr == ToyConfig().base_lr

    def test_same_seed_identical_logs(self):
        kwargs = dict(epochs=2, seed=11,
                      config=ToyConfig(num_samples=96, batch_size=32))
        a = train_toy(**kwargs)
        b = train_toy(**kwargs)
        assert a == b

    def test_first_epoch_loss_is_pinned(self):
        """Three steps of the training path, pinned to the last bit: any
        change to the float order of a kernel or its gradient shows here."""
        log = train_toy(config=ToyConfig(num_samples=96), epochs=1, seed=0)
        assert log[0].loss.hex() == "0x1.29212c9fe49e8p+0"

    def test_divergence_raises_with_step_index(self, monkeypatch):
        import hbonet.train as train_mod

        def poisoned(n, seed, image_size=32, noise=0.3):
            images, labels = make_synthetic_dataset(n, seed, image_size, noise)
            images[0, 0, 0, 0] = np.nan
            return images, labels

        monkeypatch.setattr(train_mod, "make_synthetic_dataset", poisoned)
        with pytest.raises(TrainingError) as excinfo:
            train_toy(epochs=1, seed=0,
                      config=ToyConfig(num_samples=64, batch_size=64))
        assert excinfo.value.step == 0


class TestToyStepBackward:
    """One batch-32 step of the toy network through ``backward``."""

    @pytest.fixture(scope="class")
    def batch(self):
        config = ToyConfig()
        net = build_network(hbonet_spec(width=0.25, divisor=2,
                                        resolution=config.image_size,
                                        num_classes=3, seed=0))
        images, labels = make_synthetic_dataset(
            config.batch_size, 1, config.image_size, config.noise)
        return net, images, labels

    @staticmethod
    def _step_tape(net, images, labels):
        tape = Tape()
        logits = net.forward_node(tape.leaf(images, "input"), tape,
                                  training=True)
        return tape, tape.label_smooth_ce(logits, labels,
                                          ToyConfig().label_smoothing)

    def test_tape_holds_only_what_a_vjp_reads(self, batch):
        """After a recording forward, each interior array a node still holds
        is one that some VJP closure holds too, except the network output:
        the tape drops dead activations (before, 2.10 MB of the 10.73 MB of
        distinct interior arrays were read by no VJP)."""
        net, images, _ = batch
        tape = Tape()
        logits = net.forward_node(tape.leaf(images, "input"), tape,
                                  training=True)

        def base(a):
            while a.base is not None:
                a = a.base
            return a

        def held(node):
            try:
                return node.value
            except TapeConsumedError:
                return None

        read = {id(base(cell.cell_contents)) for n in tape.nodes if n.vjp
                for cell in n.vjp.__closure__ or ()
                if isinstance(cell.cell_contents, np.ndarray)}
        interior = [(n.name, held(n)) for n in tape.nodes
                    if n.parents and n is not logits]
        kept = [(name, a) for name, a in interior if a is not None]
        assert [name for name, a in kept if id(base(a)) not in read] == []
        assert kept

    @classmethod
    def _step_peak_mb(cls, batch):
        """tracemalloc peak of a whole step: forward, loss, backward and the
        SGD update."""
        params = batch[0].parameters()
        tracemalloc.start()
        try:
            grads = {n.name: g for n, g in backward(*cls._step_tape(*batch)).items()}
            sgd_step(params, {k: grads[k].reshape(params[k].shape) for k in params},
                     OptimizerState(), ToyConfig().base_lr)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_leaf_grads_equal_keep_everything_sweep(self, batch):
        want = keep_everything_backward(*self._step_tape(*batch))
        assert_leaf_grads_bitwise(backward(*self._step_tape(*batch)), want)

    def test_step_peak_memory(self, batch):
        """The whole step. It was 65.5 MB while every gradient and VJP closure
        lived until the tape was dropped; freeing them in backward brings
        it to 36.4 MB."""
        assert self._step_peak_mb(batch) < 45

    def test_step_peak_memory_with_in_place_layers(self, batch):
        """The same step once each conv-BN-ReLU6 layer's batch norm and
        ReLU6 overwrite the conv output on the recording tape too: 23.7 MB
        (36.4 MB while each layer kept three arrays)."""
        assert self._step_peak_mb(batch) < 30

    def test_step_peak_memory_without_dead_copies(self, batch):
        """The same step once the tape keeps no channel-slice copies, the
        residual add writes into the reduce_pw output, the shortcut pools
        only its kept channels, the depthwise planes hold only the window
        the live taps read, the batch-norm VJP uses two full-size arrays and
        the velocities are updated in place: 20.8 MB (23.3 MB before)."""
        assert self._step_peak_mb(batch) < 22

    def test_step_peak_memory_with_released_values(self, batch):
        """The same step once the tape drops each activation that neither a
        later op nor a VJP reads: 17.9 MB (20.7 MB before)."""
        assert self._step_peak_mb(batch) < 19


class TestStepBits:
    """The first step of ``train_toy(seed=0)``, pinned to the last bit."""

    # sha256 of the loss's bytes followed by each parameter gradient's bytes,
    # in ``parameters()`` order, for batch 32 of the default ToyConfig: the
    # first batch of epoch 0 under seed 0. A kernel change that claims to
    # keep every training bit is held to it; the 40-epoch log pin sees the
    # same bits only after about 160 s.
    STEP_SHA256 = "7310fb94542580932b712a6eafba9af6c908aa9cb70000ce35a711c5cb62a6f6"

    def test_first_step_loss_and_gradients_are_pinned(self, pin_versions):
        config = ToyConfig()
        net = build_network(hbonet_spec(width=0.25, divisor=2,
                                        resolution=config.image_size,
                                        num_classes=3, seed=0))
        images, labels = make_synthetic_dataset(
            config.num_samples, 1, config.image_size, config.noise)
        batch = np.random.default_rng(2).permutation(config.num_samples)[:config.batch_size]
        tape = Tape()
        logits = net.forward_node(tape.leaf(images[batch], "input"), tape,
                                  training=True)
        loss = tape.label_smooth_ce(logits, labels[batch], config.label_smoothing)
        grads = {n.name: g for n, g in backward(tape, loss).items()}
        digest = hashlib.sha256(np.float64(loss.value).tobytes())
        for name in net.parameters():
            digest.update(grads[name].tobytes())
        got = digest.hexdigest()
        assert got == self.STEP_SHA256, \
            f"first toy step's loss or gradients changed (sha256 {got}); {pin_versions}"


class TestNetworkFitsData:
    """``train_toy`` checks its network against its data before building."""

    @pytest.mark.parametrize("spec, image_size", [
        (hbonet_spec(0.25, 32, divisor=2, num_classes=3), 64),
        (hbonet_spec(0.25, 64, divisor=2, num_classes=3), 32),
        (hbonet_spec(0.25, 32, divisor=2, num_classes=3), 8),
        (hbonet_spec(0.25, 32, divisor=2, num_classes=2), 32),
        (None, 8),
    ], ids=["data-larger", "data-smaller", "data-under-16", "two-classes",
            "default-net-under-16"])
    def test_mismatch_rejected_before_build(self, monkeypatch, spec, image_size):
        import hbonet.train as train_mod

        def no_build(spec):
            raise AssertionError("network built before the check")

        monkeypatch.setattr(train_mod, "build_network", no_build)
        config = ToyConfig(num_samples=8, batch_size=8, image_size=image_size)
        with pytest.raises(ToyConfigError):
            train_toy(spec, config, epochs=1)

    def test_default_net_under_32_names_image_size(self):
        config = ToyConfig(image_size=16, num_samples=32, batch_size=32)
        with pytest.raises(ToyConfigError, match="image_size"):
            train_toy(config=config, epochs=1)

    def test_more_classes_than_the_data_train(self):
        log = train_toy(hbonet_spec(0.25, 32, divisor=2, num_classes=4),
                        ToyConfig(num_samples=8, batch_size=8), epochs=1)
        assert len(log) == 1 and math.isfinite(log[0].loss)

    @pytest.mark.parametrize("size", [1, 8, 15])
    def test_dataset_needs_room_for_the_bars(self, size):
        with pytest.raises(ValueError, match="image_size must be >= 16"):
            make_synthetic_dataset(4, 0, image_size=size)

    def test_dataset_at_the_bar_length(self):
        images, labels = make_synthetic_dataset(16, 0, image_size=16)
        assert images.shape == (16, 3, 16, 16) and set(labels) <= {0, 1, 2}


class TestTruncatedSchedule:
    """``epochs`` truncates the fixed ``config.epochs`` cosine schedule."""

    def test_short_run_is_bitwise_prefix_of_longer_run(self):
        config = ToyConfig(num_samples=64, batch_size=32)
        short = train_toy(config=config, epochs=2, seed=0)
        longer = train_toy(config=config, epochs=4, seed=0)
        assert short == longer[:2]
        assert [r.lr for r in longer] == [
            cosine_lr(r.epoch, config.epochs, config.base_lr) for r in longer]

    def test_default_runs_the_whole_schedule(self):
        config = ToyConfig(num_samples=32, batch_size=32, epochs=2)
        log = train_toy(config=config, seed=0)
        assert [r.lr for r in log] == [config.base_lr,
                                       cosine_lr(1, 2, config.base_lr)]

    @pytest.mark.parametrize("epochs, config", [
        (0, ToyConfig()),
        (ToyConfig().epochs + 1, ToyConfig()),
        (None, ToyConfig(epochs=0)),
        (1, ToyConfig(num_samples=0)),
        (1, ToyConfig(batch_size=0)),
        (1, ToyConfig(base_lr=0.0)),
        (1, ToyConfig(base_lr=math.nan)),
        (1, ToyConfig(label_smoothing=1.0)),
        (1, ToyConfig(label_smoothing=-0.1)),
        (1, ToyConfig(noise=-1.0)),
        (1, ToyConfig(noise=math.inf)),
        (1, ToyConfig(momentum=math.nan)),
        (1, ToyConfig(momentum=1.5)),
        (1, ToyConfig(momentum=1.0)),
        (1, ToyConfig(momentum=-0.1)),
        (1, ToyConfig(weight_decay=-1.0)),
        (1, ToyConfig(weight_decay=math.nan)),
        (1, ToyConfig(weight_decay=math.inf)),
    ])
    def test_out_of_range_rejected_before_any_step(self, monkeypatch,
                                                   epochs, config):
        import hbonet.train as train_mod

        def no_build(spec):
            raise AssertionError("network built before the range check")

        monkeypatch.setattr(train_mod, "build_network", no_build)
        with pytest.raises(ToyConfigError):
            train_toy(config=config, epochs=epochs, seed=0)


class TestLogCsv:
    def test_format(self):
        log = [LogRow(0, 0.05, 1.0, 0.4), LogRow(1, 0.04, 0.9, 0.5)]
        buf = io.StringIO()
        write_log_csv(log, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# format_version=1"
        assert lines[1] == "epoch,lr,loss,accuracy"
        assert lines[2].startswith("0,0.05,1,0.4")
