"""The benchmark's workloads: one closed-loop caller that uses the package the
way a script does, checks every output against goldens, and records timings.

A workload is a fixed *round* of calls, interleaved evenly and repeated
until the run's time is up:

* a forward pair: ``forward`` on HBONet 1.0@224, then on MobileNetV2 1.0@224,
  batch 1 (the paper's headline comparison);
* a toy train step: epoch 0 of ``train_toy`` on HBONet 0.25@32, batch 32;
* a ledger entry: ``build_network(init_weights=False)`` then ``ledger`` for
  one configuration of the acceptance-criteria grid;
* a gradcheck sweep: ``run_gradient_checks``.

Every round holds every call, so every run measures every end-to-end metric;
the workloads differ in how much of the round each call takes (see
``WORKLOADS``). The workload seed only chooses the order in which the input
banks below are used; network weights always come from NetworkSpec.seed 0.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hbonet import (
    OptimizerState,
    Tape,
    Tensor,
    ToyConfig,
    backward,
    build_network,
    forward,
    hbonet_spec,
    ledger,
    load_tensor,
    make_synthetic_dataset,
    mobilenetv2_spec,
    run_gradient_checks,
    sgd_step,
)

from hostspeed import HostProbe
from tracing import (
    Recorder,
    TracingTape,
    block_peaks,
    conv_macs_by_request,
    summarize,
    wrap_units,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

NETWORKS = ("hbonet", "mobilenetv2")
# Input banks. Goldens exist for every entry, so any workload seed is
# checked: the seed permutes the banks, it never invents an unchecked input.
IMAGE_SEEDS = tuple(range(8))
# (dataset seed, shuffle seed) of each training episode; the first is
# exactly the data of train_toy(seed=0).
EPISODES = ((1, 2), (1001, 2001), (1002, 2002), (1003, 2003))
GRADCHECK_SEEDS = (0, 1, 2, 3)
# The acceptance-criteria grid (criteria 1-4) with the published MFLOPs:
# (preset, width, resolution, divisor or None for the default, variant, MFLOPs)
GRID = (
    *(("hbonet", w, 224, None, 1, mf) for w, mf in
      ((1.0, 305), (0.8, 205), (0.5, 96), (0.35, 61), (0.25, 37), (0.1, 14))),
    *(("mobilenetv2", w, 224, None, 1, mf) for w, mf in
      ((1.0, 300), (0.75, 209), (0.5, 97), (0.35, 59), (0.25, 37), (0.1, 13))),
    *(("hbonet", 0.8, r, None, 1, mf) for r, mf in
      ((224, 205), (192, 150), (160, 105), (128, 68), (96, 39))),
    *(("hbonet", 0.35, r, None, 1, mf) for r, mf in
      ((224, 61), (192, 45), (160, 31), (128, 21), (96, 12))),
    ("hbonet", 0.6, 192, 8, 1, 98),
    ("hbonet", 0.5, 224, 8, 1, 108),
    *(("hbonet", 0.25, 224, 8, k, mf) for k, mf in ((1, 44), (2, 45), (3, 45))),
)

# Logits may differ from the goldens by this share of the largest golden
# logit: loose enough for a reordered float64 sum, far below what a wrong
# kernel, pad or stride produces.
LOGIT_RTOL = 1e-8
LOSS_RTOL = 1e-8
MFLOPS_TOL_PCT = 3.0
GRAD_TOL = 1e-5


@dataclass(frozen=True)
class Mix:
    """Calls in one round of a workload."""

    pairs: int
    steps: int
    ledgers: int
    sweeps: int

    def schedule(self) -> list[str]:
        """The round's calls, each kind spread evenly over the round so that
        every kind samples the whole run, not one stretch of it."""
        slots = [((i + 0.5) / n, kind)
                 for kind, n in (("pair", self.pairs), ("step", self.steps),
                                 ("ledger", self.ledgers), ("sweep", self.sweeps))
                 for i in range(n)]
        return [kind for _, kind in sorted(slots)]


WORKLOADS = {
    # Large maps: forward arithmetic and memory traffic dominate (~60% of
    # the round is forward pairs).
    "infer-224": Mix(pairs=10, steps=4, ledgers=54, sweeps=1),
    # Maps <= 16, narrow channels: per-call overhead and the backward pass
    # dominate (~55% of the round is train steps).
    "train-toy": Mix(pairs=4, steps=20, ledgers=54, sweeps=1),
}


def grid_key(entry) -> str:
    preset, width, res, divisor, variant, _ = entry
    return f"{preset}-{width}@{res}-d{divisor or 'default'}-v{variant}"


def grid_spec(entry):
    preset, width, res, divisor, variant, _ = entry
    if preset == "hbonet":
        return hbonet_spec(width, res, divisor=divisor, variant=variant)
    return mobilenetv2_spec(width, res, divisor=divisor)


def infer_spec(name):
    return hbonet_spec(1.0, 224) if name == "hbonet" else mobilenetv2_spec(1.0, 224)


def toy_spec(config: ToyConfig):
    """The network train_toy builds, with weights from seed 0."""
    return hbonet_spec(width=0.25, divisor=2, resolution=config.image_size,
                       num_classes=3, seed=0)


def make_image(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(1, 3, 224, 224))


def load_goldens(golden_dir: Path = GOLDEN_DIR) -> dict:
    """Read every golden file; a missing file or entry raises."""
    goldens = {}
    for name in NETWORKS:
        with open(golden_dir / f"infer_{name}.bin", "rb") as fp:
            logits = load_tensor(fp).data
        if logits.shape[0] != len(IMAGE_SEEDS):
            raise ValueError(f"{name} goldens hold {logits.shape[0]} images, "
                             f"bank has {len(IMAGE_SEEDS)}")
        goldens[name] = logits.reshape(logits.shape[0], -1)
    doc = json.loads((golden_dir / "train_losses.json").read_text())
    goldens["losses"] = [doc[f"{d}-{s}"] for d, s in EPISODES]
    doc = json.loads((golden_dir / "analyze.json").read_text())
    goldens["ledger"] = {grid_key(e): doc["total_macs"][grid_key(e)] for e in GRID}
    goldens["checks"] = {s: doc["gradcheck_checks"][str(s)] for s in GRADCHECK_SEEDS}
    return goldens


def unit_of(metric: str) -> str:
    """Unit of a metric, from its name."""
    for suffix, unit in (("_ref_", "ref"), (".calls", "count"), ("nodes", "count"),
                         ("total_macs", "count"), (".checks", "count"),
                         (".failed", "count"), ("_frac", "frac"),
                         ("rel_err", "ratio"), ("_pct", "%"),
                         ("gmac_per_s", "GMAC/s"), ("_per_s", "1/s"),
                         ("_mb", "MB"), ("ms", "ms")):
        if suffix in metric:
            return unit
    if metric.endswith("_s") or "_s_" in metric:
        return "s"
    raise KeyError(f"no unit for metric {metric!r}")


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


class ToyTrainer:
    """Epoch 0 of ``train_toy`` as a step-at-a-time loop over the episode
    bank. After an episode's last step the network, optimizer state and data
    are rebuilt for the next episode, so every step has a golden loss."""

    def __init__(self, episode_order, config: ToyConfig, on_build=None):
        self.config = config
        self.episode_order = list(episode_order)
        self.steps_per_episode = -(-config.num_samples // config.batch_size)
        self.on_build = on_build
        self.done = 0
        self._start(0)

    def _start(self, k: int):
        cfg = self.config
        self.episode = self.episode_order[k % len(self.episode_order)]
        data_seed, shuffle_seed = EPISODES[self.episode]
        self.net = build_network(toy_spec(cfg))
        if self.on_build is not None:
            self.on_build(self.net)
        self.params = self.net.parameters()
        self.state = OptimizerState(momentum=cfg.momentum,
                                    weight_decay=cfg.weight_decay)
        self.images, self.labels = make_synthetic_dataset(
            cfg.num_samples, data_seed, cfg.image_size, cfg.noise)
        self.order = np.random.default_rng(shuffle_seed).permutation(cfg.num_samples)
        self.step_in_episode = 0

    def next_batch(self):
        """Advance to the next episode if needed; returns (episode, step, x, y)."""
        if self.step_in_episode == self.steps_per_episode:
            self._start(self.done // self.steps_per_episode)
        bs = self.config.batch_size
        start = self.step_in_episode * bs
        batch = self.order[start:start + bs]
        return (self.episode, self.step_in_episode,
                self.images[batch], self.labels[batch])

    def step(self, tape, xb, yb, span) -> tuple[float, int]:
        """One update exactly as train_toy makes it; returns (loss, nodes)."""
        cfg = self.config
        with span("train.forward"):
            logits = self.net.forward_node(tape.leaf(xb, "input"), tape,
                                           training=True)
        with span("train.loss"):
            loss = tape.label_smooth_ce(logits, yb, cfg.label_smoothing)
        with span("train.backward"):
            backward(tape, loss)
        with span("train.optimizer"):
            grads = {n.name: n.grad for n in tape.nodes
                     if n.vjp is None and n.grad is not None}
            params = self.params
            self.params = sgd_step(
                params, {k: grads[k].reshape(params[k].shape) for k in params},
                self.state, cfg.base_lr)
            self.net.set_parameters(self.params)
        self.step_in_episode += 1
        self.done += 1
        return float(loss.value), len(tape.nodes)


_NO_SPAN = nullcontext()


class Bench:
    """One workload run: set-up, timed rounds, checks and metrics."""

    def __init__(self, workload: str, seed: int, recorder: Recorder | None = None,
                 golden_dir: Path = GOLDEN_DIR):
        self.mix = WORKLOADS[workload]
        self.rec = recorder
        self.golden_dir = golden_dir
        self.tracing = False
        rng = np.random.default_rng(abs(seed))
        self.image_order = rng.permutation(len(IMAGE_SEEDS))
        self.episode_order = rng.permutation(len(EPISODES))
        self.grid_order = rng.permutation(len(GRID))
        self.gradcheck_order = rng.permutation(len(GRADCHECK_SEEDS))
        self.calls = {"forward": 0, "ledger": 0, "sweep": 0}
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.nodes: list[int] = []
        self.grad_errors: list[float] = []
        self.grad_checks: list[int] = []
        self.grad_failed = 0
        self.traced_macs = 0
        self.reset_samples()

    # -- bookkeeping ----------------------------------------------------------

    def reset_samples(self):
        kinds = ("hbonet", "mobilenetv2", "step", "ledger", "sweep")
        self.samples = {k: [] for k in kinds}
        self.starts = {k: [] for k in kinds}

    def record(self, kind: str, t0: float, dt: float):
        self.samples[kind].append(dt)
        self.starts[kind].append(t0)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def span(self, name: str):
        return self.rec.span(name) if self.tracing else _NO_SPAN

    def _tape(self, grad_enabled=True):
        return TracingTape(self.rec, grad_enabled) if self.tracing else Tape(grad_enabled)

    def _wrap(self, net):
        if self.rec is not None:
            wrap_units(net, self.rec)

    # -- set-up ---------------------------------------------------------------

    def setup(self):
        """Everything a run needs before its first timed call, including one
        warm-up call of each kind (which also fills lazily built caches)."""
        self.goldens = load_goldens(self.golden_dir)
        self.nets = {name: build_network(infer_spec(name)) for name in NETWORKS}
        for net in self.nets.values():
            self._wrap(net)
        self.images = [Tensor(make_image(s)) for s in IMAGE_SEEDS]
        self.grid_specs = [grid_spec(e) for e in GRID]
        self.trainer = ToyTrainer(self.episode_order, ToyConfig(), self._wrap)
        self.probe = HostProbe()
        self.probe.warm_up()
        self.forward_pair()
        self.train_step()
        self.ledger_entry()
        self.reset_samples()

    # -- the four calls -------------------------------------------------------

    def forward_pair(self):
        k = self.calls["forward"]
        self.calls["forward"] += 1
        idx = int(self.image_order[k % len(IMAGE_SEEDS)])
        x = self.images[idx]
        for name in NETWORKS:
            net = self.nets[name]
            with self.span("forward." + name):
                t0 = time.perf_counter()
                if self.tracing:
                    tape = self._tape(grad_enabled=False)
                    logits = net.forward_node(tape.leaf(x.data, "input"), tape,
                                              training=False).value
                else:
                    logits = forward(net, x)
                dt = time.perf_counter() - t0
            self.record(name, t0, dt)
            gold = self.goldens[name][idx]
            err = np.max(np.abs(logits.reshape(-1) - gold))
            self.check(err <= LOGIT_RTOL * max(1.0, np.max(np.abs(gold))),
                       f"{name} logits image {idx}: max error {err:.3g}")

    def train_step(self):
        tr = self.trainer
        episode, step, xb, yb = tr.next_batch()
        with self.span("train.step"):
            t0 = time.perf_counter()
            loss, nodes = tr.step(self._tape(), xb, yb, self.span)
            dt = time.perf_counter() - t0
        self.record("step", t0, dt)
        self.nodes.append(nodes)
        gold = self.goldens["losses"][episode][step]
        self.check(np.isfinite(loss) and abs(loss - gold) <= LOSS_RTOL * abs(gold),
                   f"train episode {episode} step {step}: loss {loss!r} vs {gold!r}")

    def ledger_entry(self):
        k = self.calls["ledger"]
        self.calls["ledger"] += 1
        i = int(self.grid_order[k % len(GRID)])
        entry, spec = GRID[i], self.grid_specs[i]
        with self.span("analyze.entry"):
            t0 = time.perf_counter()
            with self.span("network.build"):
                net = build_network(spec, init_weights=False)
            with self.span("complexity.ledger"):
                total = ledger(net).total_macs
            dt = time.perf_counter() - t0
        self.record("ledger", t0, dt)
        if self.tracing:
            self.traced_macs += total
        key = grid_key(entry)
        published = entry[-1]
        self.check(total == self.goldens["ledger"][key]
                   and abs(total / 1e6 - published) <= MFLOPS_TOL_PCT / 100 * published,
                   f"ledger {key}: {total} MACs")

    def gradcheck_sweep(self):
        k = self.calls["sweep"]
        self.calls["sweep"] += 1
        seed = GRADCHECK_SEEDS[int(self.gradcheck_order[k % len(GRADCHECK_SEEDS)])]
        with self.span("gradcheck.sweep"):
            t0 = time.perf_counter()
            results = run_gradient_checks(seed=seed)
            dt = time.perf_counter() - t0
        self.record("sweep", t0, dt)
        self.check(len(results) == self.goldens["checks"][seed],
                   f"gradcheck seed {seed}: {len(results)} checks")
        for r in results:
            self.check(r.rel_error < GRAD_TOL,
                       f"gradcheck seed {seed} {r.name}: {r.rel_error:.3g}")
            self.grad_failed += not r.rel_error < GRAD_TOL
        self.grad_checks.append(len(results))
        self.grad_errors.append(max(r.rel_error for r in results))

    def call(self, kind: str):
        {"pair": self.forward_pair, "step": self.train_step,
         "ledger": self.ledger_entry, "sweep": self.gradcheck_sweep}[kind]()

    def run_round(self):
        for kind in self.mix.schedule():
            self.call(kind)

    # -- measurement ----------------------------------------------------------

    def peak_memory_mb(self) -> dict[str, float]:
        """tracemalloc peaks of one call each, in an untimed pass."""
        peaks = {}
        for name, run in self._memory_passes().items():
            tracemalloc.start()
            try:
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return peaks

    def _memory_passes(self):
        def fwd(name):
            x = self.images[0]
            return lambda: forward(self.nets[name], x)
        return {"hbonet": fwd("hbonet"), "mobilenetv2": fwd("mobilenetv2"),
                "train": self.train_step}

    def measure(self, seconds: float) -> dict:
        """Untimed memory pass, then the round's calls in a cycle until
        ``seconds`` have passed (at least one full round), each call just
        after a run of the host-speed reference kernel.

        A call's time is reported as a multiple of the reference kernel's
        time around it (unit ``ref``; see ``hostspeed``), as a median and
        a tail percentile. The plain times in ms are kept in ``raw_ms`` for
        reading; on a shared host they drift with its speed far beyond what
        a change to the package should be judged by (see README, "Noise")."""
        peaks = self.peak_memory_mb()
        self.reset_samples()
        self.probe.reset()
        schedule = self.mix.schedule()
        t0 = time.perf_counter()
        done = 0
        while done < len(schedule) or time.perf_counter() - t0 < seconds:
            self.probe.measure()
            self.call(schedule[done % len(schedule)])
            done += 1
        self.probe.measure()
        self.elapsed = time.perf_counter() - t0
        self.rounds = done / len(schedule)
        ref = {k: np.asarray(v) / self.probe.local(self.starts[k])
               for k, v in self.samples.items() if v}
        tails = {"hbonet": 80, "mobilenetv2": 80, "step": 90, "ledger": 90}
        self.raw_ms = {k: (percentile(1e3 * np.asarray(self.samples[k]), 50),
                           percentile(1e3 * np.asarray(self.samples[k]), q))
                       for k, q in tails.items()}
        self.reference_ms = percentile(1e3 * np.asarray(self.probe.took), 50)
        return {
            "hbonet.forward_ref_p50": percentile(ref["hbonet"], 50),
            "hbonet.forward_ref_p80": percentile(ref["hbonet"], 80),
            "mobilenetv2.forward_ref_p50": percentile(ref["mobilenetv2"], 50),
            "mobilenetv2.forward_ref_p80": percentile(ref["mobilenetv2"], 80),
            "hbonet.peak_mem_mb": peaks["hbonet"],
            "mobilenetv2.peak_mem_mb": peaks["mobilenetv2"],
            "train.step_ref_p50": percentile(ref["step"], 50),
            "train.step_ref_p90": percentile(ref["step"], 90),
            "train.peak_mem_mb": peaks["train"],
            "analyze.ledger_ref_p50": percentile(ref["ledger"], 50),
            "analyze.ledger_ref_p90": percentile(ref["ledger"], 90),
        }

    def measure_traced(self, seconds: float) -> dict:
        """Alternate traced and untraced rounds; per-layer metrics come from
        the traced ones, tracing overhead from the difference."""
        rec = self.rec
        passes = self._memory_passes()
        peaks = block_peaks(rec, [passes[name] for name in NETWORKS])
        times = {True: [], False: []}
        t0 = time.perf_counter()
        rounds = 0
        while rounds < 2 or time.perf_counter() - t0 < seconds:
            traced = rounds % 2 == 0
            self.tracing = rec.active = traced
            r0 = time.perf_counter()
            self.run_round()
            times[traced].append(time.perf_counter() - r0)
            rounds += 1
        self.tracing = rec.active = False
        self.elapsed = time.perf_counter() - t0
        self.rounds = rounds
        self.mac_join = {}
        for name in NETWORKS:
            want = ledger(self.nets[name]).total_macs
            got = conv_macs_by_request(rec, "forward." + name)
            for g in got:
                self.check(g == want, f"{name}: traced conv MACs {g} != ledger {want}")
            self.mac_join[name] = (got[0], want)
        n = len(times[True])
        m = summarize(rec, n)
        for kind in ("hbo", "invres"):
            m[f"blocks.{kind}.peak_mem_mb"] = peaks[kind]
        m["autodiff.nodes"] = float(np.mean(self.nodes))
        m["complexity.total_macs"] = self.traced_macs / n
        m["gradcheck.sweep_s"] = percentile(self.samples["sweep"], 50)
        m["gradcheck.checks"] = float(np.mean(self.grad_checks))
        m["gradcheck.failed"] = self.grad_failed / len(self.grad_checks)
        m["gradcheck.max_rel_err"] = float(max(self.grad_errors))
        m["trace.overhead_pct"] = 100.0 * (np.mean(times[True])
                                           / np.mean(times[False]) - 1.0)
        return m
