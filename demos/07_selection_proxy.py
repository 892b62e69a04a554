"""
Selection proxy
===============

The acceptance gate's six (alpha, beta_d, seed) variants, trained for 5,000
Adam steps in place of 45,000, each scored the ways selection and the gate
see a model.  One JSON line per model holds:

- ``selection``: the columns model selection ranks (``train.selection_row``);
- ``scorecard``: the downstream figures of ``analysis.scorecard``;
- ``weights``: the network's filtered weights (w0, w1) on the clean jumps
  (0, 0, 1) and (0, 1, 1); w1 on the first and w0 on the second weigh the
  sub-stencil that crosses the jump.

The short budget makes this a proxy for loss and data changes, not for the
ENO threshold: its crossing weights are about ten times the full models'.
It takes about 100 s on two cores.
"""

import json
import os

import numpy as np

from wenonet import analysis as an
from wenonet import funcspace as fs
from wenonet import ratnet as rn
from wenonet import train as tr

# The gate's sweep (tests/test_acceptance.py) at a shorter budget.
VARIANTS = (
    (0.01, 0.1, 0),
    (0.03, 0.03, 1),
    (0.1, 0.3, 2),
    (0.01, 0.3, 3),
    (0.3, 0.1, 4),
    (0.1, 0.1, 5),
)
STEPS = 5000

dataset = fs.build_dataset(fs.DatasetConfig(seed=0))
val = fs.build_dataset(fs.DatasetConfig(pairs_per_grid=4096, seed=1000003))
configs = [
    tr.TrainConfig(
        peak_lr=2e-3,
        warmup_steps=STEPS // 20,
        total_steps=STEPS,
        batch_size=2048,
        seed=seed,
        hyper=tr.LossHyper(alpha=alpha, beta_d=beta_d),
    )
    for alpha, beta_d, seed in VARIANTS
]
models = tr.run_sweep(dataset, configs, val, jobs=len(os.sched_getaffinity(0)))

schemes = [rn.NNScheme(m.params, name=f"nn-seed{m.config.seed}") for m in models]
jumps = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
for model, scheme, row in zip(models, schemes, an.scorecard(schemes)):
    w0, w1 = scheme.weights(jumps)
    print(json.dumps({
        "seed": model.config.seed,
        "alpha": model.config.hyper.alpha,
        "beta_d": model.config.hyper.beta_d,
        "selection": tr.selection_row(model),
        "scorecard": vars(row),
        "weights": {"0,0,1": [w0[0], w1[0]], "0,1,1": [w0[1], w1[1]]},
    }))
