"""
Training the stencil-weight network
===================================

The network replaces the algebraic weight formulas: four per-feature rational
functions featurize the stencil's absolute differences, two dense layers with
shared rational activations mix them, and a softmax emits the two convex
weights.  Training is plain Adam on exact analytical pairs; at inference a
hard threshold restores the essentially-non-oscillatory property.

This demo uses a reduced budget so it finishes in about a minute; the
benchmark configuration in the README trains longer.
"""

import numpy as np

from wenonet import funcspace as fs
from wenonet import ratnet as rn
from wenonet import train as tr

dataset = fs.build_dataset(fs.DatasetConfig(pairs_per_grid=4096, seed=0))
print(f"training pairs: {len(dataset)}")

cfg = tr.TrainConfig(
    peak_lr=1e-3,
    total_steps=4000,
    batch_size=1024,
    seed=1,
    hyper=tr.LossHyper(alpha=0.1, beta_d=0.3),
)
model = tr.train_model(dataset, cfg)

log = model.log
print(f"loss: {log[0, 2]:.3e} (step 0) -> {log[-1, 2]:.3e} (step {int(log[-1, 0])})")
print("fitted orders:", {k: round(v, 2) for k, v in model.orders.items()})

# What the network learned, probed on three canonical stencils.
probes = np.array(
    [
        [0.00, 0.01, 0.02],  # smooth ramp: wants the ideal weights (1/3, 2/3)
        [0.00, 0.00, 1.00],  # jump in the right cell: wants (1, 0)
        [0.00, 1.00, 1.00],  # jump in the left cell: wants (0, 1)
    ]
)
weights = rn.forward(model.params, probes)
for p, w in zip(probes, weights):
    print(f"stencil {p} -> weights ({w[0]:.4f}, {w[1]:.4f})")

# Parameter and flop accounting for this architecture.
print()
print(rn.accounting_report(model.params))

# Weights round-trip through a self-describing JSON file.
rn.save_params(model.params, "/tmp/demo_weights.json")
back = rn.load_params("/tmp/demo_weights.json")
print("\nweight file round trip exact:",
      np.array_equal(rn.params_to_vector(model.params), rn.params_to_vector(back)))
