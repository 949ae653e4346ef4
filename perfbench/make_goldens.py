"""Write the benchmark's goldens from the program as it is now.

    python3 perfbench/make_goldens.py

Run from the repository root, and only in a change that means to alter the
program's outputs. Takes about a minute on one core.
"""
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

os.environ["HBONET_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hbonet  # noqa: E402,F401  (pins BLAS threads before numpy loads)
import numpy as np  # noqa: E402

from hbonet import (  # noqa: E402
    Tape, Tensor, ToyConfig, build_network, forward, ledger,
    run_gradient_checks, save_tensor,
)

from bench import (  # noqa: E402
    EPISODES, GOLDEN_DIR, GRADCHECK_SEEDS, GRAD_TOL, GRID, IMAGE_SEEDS,
    NETWORKS, ToyTrainer, grid_key, grid_spec, infer_spec, make_image,
)


def infer_goldens():
    for name in NETWORKS:
        net = build_network(infer_spec(name))
        logits = np.stack([forward(net, Tensor(make_image(s)))[0]
                           for s in IMAGE_SEEDS])
        with open(GOLDEN_DIR / f"infer_{name}.bin", "wb") as fp:
            save_tensor(Tensor(logits[:, :, None, None]), fp)


def train_goldens():
    doc = {}
    for k, (data_seed, shuffle_seed) in enumerate(EPISODES):
        trainer = ToyTrainer([k], ToyConfig())
        losses = []
        for _ in range(trainer.steps_per_episode):
            _, _, xb, yb = trainer.next_batch()
            loss, _ = trainer.step(Tape(), xb, yb, lambda name: nullcontext())
            losses.append(loss)
        doc[f"{data_seed}-{shuffle_seed}"] = losses
    (GOLDEN_DIR / "train_losses.json").write_text(json.dumps(doc, indent=1) + "\n")


def analyze_goldens():
    totals = {grid_key(e): ledger(build_network(grid_spec(e), init_weights=False)).total_macs
              for e in GRID}
    checks = {}
    for seed in GRADCHECK_SEEDS:
        results = run_gradient_checks(seed=seed)
        worst = max(r.rel_error for r in results)
        if worst >= GRAD_TOL:
            raise SystemExit(f"gradcheck seed {seed} fails ({worst:.3g}); "
                             "choose another seed for the bank")
        checks[str(seed)] = len(results)
    doc = {"total_macs": totals, "gradcheck_checks": checks}
    (GOLDEN_DIR / "analyze.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    infer_goldens()
    analyze_goldens()
    train_goldens()
