"""Toy-scale training harness: SGD with momentum, cosine learning-rate decay,
weight decay, label-smoothed cross-entropy, and a synthetic spatial-pattern
dataset. Proves the blocks train end to end; not an ImageNet pipeline.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from io import TextIOBase

import numpy as np

from .autodiff import Tape, backward
from .blocks import ConfigError
from .network import Network, NetworkSpec, build_network, hbonet_spec

__all__ = [
    "TrainingError",
    "ToyConfigError",
    "OptimizerState",
    "ToyConfig",
    "LogRow",
    "cosine_lr",
    "sgd_step",
    "label_smooth_ce",
    "make_synthetic_dataset",
    "train_toy",
    "write_log_csv",
]

LOG_FORMAT_VERSION = 1


class TrainingError(RuntimeError):
    """Raised when the loss diverges; carries the failing step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class ToyConfigError(ConfigError):
    """Invalid toy-run settings or epoch count; raised before any step."""


@dataclass
class OptimizerState:
    """Momentum buffers plus the fixed optimizer hyperparameters."""

    velocities: dict[str, np.ndarray] = field(default_factory=dict)
    momentum: float = 0.9
    weight_decay: float = 4e-5


def cosine_lr(epoch: int, total: int, base: float) -> float:
    """base * 0.5 * (1 + cos(pi * epoch / total))."""
    if not 0 <= epoch < total:
        raise ValueError(f"epoch {epoch} outside [0, {total})")
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / total))


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             state: OptimizerState, lr: float) -> dict[str, np.ndarray]:
    """v <- momentum*v + g + wd*p; p <- p - lr*v. Returns the new params;
    the velocities in ``state`` are updated in place."""
    new_params: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} != param shape {p.shape} for {name}"
            )
        v = state.velocities.get(name)
        if v is None:
            v = state.velocities[name] = np.zeros_like(p)
        v *= state.momentum
        v += g
        v += state.weight_decay * p
        new_params[name] = p - lr * v
    return new_params


def label_smooth_ce(logits: np.ndarray, labels: np.ndarray, eps: float = 0.0
                    ) -> float:
    """Cross-entropy against (1-eps)*onehot + eps/num_classes targets."""
    tape = Tape(grad_enabled=False)
    node = tape.label_smooth_ce(tape.leaf(np.asarray(logits, dtype=np.float64)),
                                np.asarray(labels), eps)
    return float(node.value)


# the classes of make_synthetic_dataset and its longest pattern side
_NUM_CLASSES = 3
_MIN_IMAGE_SIZE = 16


@dataclass(frozen=True)
class ToyConfig:
    """Synthetic 3-class task plus the toy-run optimizer settings.

    ``epochs`` is the length of the cosine schedule, not of a run: a run
    may stop early, and its rates stay those of the full schedule.
    """

    num_samples: int = 1280
    image_size: int = 32
    noise: float = 0.3
    batch_size: int = 32
    base_lr: float = 0.0125
    epochs: int = 40
    momentum: float = 0.9
    weight_decay: float = 4e-5
    label_smoothing: float = 0.1


def make_synthetic_dataset(n: int, seed: int, image_size: int = 32,
                           noise: float = 0.3
                           ) -> tuple[np.ndarray, np.ndarray]:
    """3-class images whose class is a spatially localized pattern shape:
    class 0 a filled square, class 1 a horizontal bar, class 2 a vertical
    bar, stamped at a random position over Gaussian noise. The bars are
    16 pixels long, so ``image_size`` must be at least 16."""
    if image_size < _MIN_IMAGE_SIZE:
        raise ValueError(f"image_size must be >= {_MIN_IMAGE_SIZE}, the length "
                         f"of the bar patterns, got {image_size}")
    rng = np.random.default_rng(seed)
    images = rng.normal(0.0, noise, size=(n, 3, image_size, image_size))
    labels = rng.integers(0, _NUM_CLASSES, size=n)
    for i in range(n):
        if labels[i] == 0:
            ph, pw = 8, 8
        elif labels[i] == 1:
            ph, pw = 4, 16
        else:
            ph, pw = 16, 4
        y = rng.integers(0, image_size - ph + 1)
        x = rng.integers(0, image_size - pw + 1)
        images[i, :, y:y + ph, x:x + pw] += 2.0
    return images, labels


@dataclass(frozen=True)
class LogRow:
    epoch: int
    lr: float
    loss: float
    accuracy: float


# (field, test, requirement): ``train_toy`` checks each before any step
_CONFIG_RULES = (
    ("epochs", lambda v: v >= 1, ">= 1"),
    ("num_samples", lambda v: v >= 1, ">= 1"),
    ("batch_size", lambda v: v >= 1, ">= 1"),
    ("image_size", lambda v: v >= _MIN_IMAGE_SIZE, f">= {_MIN_IMAGE_SIZE}"),
    ("base_lr", lambda v: 0 < v < math.inf, "a positive finite number"),
    ("label_smoothing", lambda v: 0 <= v < 1, "in [0, 1)"),
    ("noise", lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    ("momentum", lambda v: 0 <= v < 1, "in [0, 1)"),
    ("weight_decay", lambda v: 0 <= v < math.inf, "a finite number >= 0"),
)


def train_toy(net_spec: NetworkSpec | None = None,
              config: ToyConfig | None = None,
              epochs: int | None = None,
              seed: int = 0) -> list[LogRow]:
    """Deterministic toy training run; returns one log row per epoch.

    Runs the first ``epochs`` epochs of the ``config.epochs``-epoch cosine
    schedule (``None``: all of it), so a shorter seeded run is a bitwise
    prefix of a longer one. Raises ``ToyConfigError`` before any step when
    ``epochs`` or the config is out of range, or when ``net_spec`` is not
    built for the data: another input resolution, or fewer than 3 classes.

    Accuracy is training accuracy over the epoch, measured on the forward
    pass used for each update step.
    """
    config = config or ToyConfig()
    for name, ok, requirement in _CONFIG_RULES:
        if not ok(getattr(config, name)):
            raise ToyConfigError(f"ToyConfig.{name} must be {requirement}, "
                                 f"got {getattr(config, name)}")
    if epochs is None:
        epochs = config.epochs
    elif not 1 <= epochs <= config.epochs:
        raise ToyConfigError(
            f"epochs must be in [1, {config.epochs}] (the schedule length), "
            f"got {epochs}")
    if net_spec is None:
        net_spec = hbonet_spec(width=0.25, divisor=2,
                               resolution=config.image_size,
                               num_classes=_NUM_CLASSES, seed=seed)
    if net_spec.input_resolution != config.image_size:
        raise ToyConfigError(
            f"the network is built for {net_spec.input_resolution}x"
            f"{net_spec.input_resolution} inputs, the data are "
            f"{config.image_size}x{config.image_size}")
    if net_spec.num_classes < _NUM_CLASSES:
        raise ToyConfigError(f"the data have {_NUM_CLASSES} classes, the network "
                             f"{net_spec.num_classes}")
    net = build_network(net_spec)
    images, labels = make_synthetic_dataset(
        config.num_samples, seed + 1, config.image_size, config.noise)
    shuffle_rng = np.random.default_rng(seed + 2)

    params = net.parameters()
    state = OptimizerState(momentum=config.momentum,
                           weight_decay=config.weight_decay)
    log: list[LogRow] = []
    step = 0
    for epoch in range(epochs):
        lr = cosine_lr(epoch, config.epochs, config.base_lr)
        order = shuffle_rng.permutation(config.num_samples)
        losses = []
        correct = 0
        for start in range(0, config.num_samples, config.batch_size):
            batch = order[start:start + config.batch_size]
            xb, yb = images[batch], labels[batch]
            tape = Tape()
            logits = net.forward_node(tape.leaf(xb, "input"), tape,
                                      training=True)
            loss = tape.label_smooth_ce(logits, yb, config.label_smoothing)
            if not np.isfinite(loss.value):
                raise TrainingError(f"loss diverged at step {step}", step)
            grads = {n.name: g for n, g in backward(tape, loss).items()}
            params = sgd_step(params, grads, state, lr)
            net.set_parameters(params)
            losses.append(float(loss.value))
            correct += int((np.argmax(logits.value, axis=1) == yb).sum())
            step += 1
        log.append(LogRow(epoch, lr, float(np.mean(losses)),
                          correct / config.num_samples))
    return log


def write_log_csv(log: list[LogRow], fp: TextIOBase) -> None:
    fp.write(f"# format_version={LOG_FORMAT_VERSION}\n")
    writer = csv.writer(fp)
    writer.writerow(["epoch", "lr", "loss", "accuracy"])
    for row in log:
        writer.writerow([row.epoch, f"{row.lr:.10g}", f"{row.loss:.10g}",
                         f"{row.accuracy:.10g}"])
