"""Make the network weight file that the solve-nn workloads read.

    python3 bench/make_weights.py            # writes bench/data/nn_weights.json

The configuration is fixed: the default training set with seed 0 (7 grids x
16,384 pairs) and the first variant of the acceptance sweep (alpha 0.01,
beta_d 0.1, seed 0, peak lr 2e-3, batch 2048) with a 5,000-step budget and
250 warmup steps.  BLAS runs on one thread, so a rerun on the same numpy and
BLAS writes the same bytes; the README records the sha256.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from wenonet import funcspace, ratnet, train  # noqa: E402

STEPS = 5000
CONFIG = train.TrainConfig(
    peak_lr=2e-3,
    warmup_steps=STEPS // 20,
    total_steps=STEPS,
    batch_size=2048,
    seed=0,
    hyper=train.LossHyper(alpha=0.01, beta_d=0.1),
)
OUT = HERE / "data" / "nn_weights.json"


def main() -> int:
    dataset = funcspace.build_dataset(funcspace.DatasetConfig(seed=0))
    model = train.train_model(dataset, CONFIG)
    OUT.parent.mkdir(exist_ok=True)
    ratnet.save_params(model.params, OUT)
    digest = hashlib.sha256(OUT.read_bytes()).hexdigest()
    print(f"wrote {OUT.relative_to(HERE.parent)} sha256 {digest}")
    print(f"orders: sine_cubed {model.orders['sine_cubed']:.4f}, "
          f"sine_step {model.orders['sine_step']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
