"""
Exact training pairs from analytical functions
===============================================

Every training sample is a triple of neighboring cell averages plus the exact
value at the face between the middle and right cell.  Both come from closed
forms, so there is no quadrature error anywhere in the pipeline.
"""

import tempfile
from pathlib import Path

import numpy as np

from wenonet import funcspace as fs

# One concrete function: f(x) = sin(2 pi x) on [0, 1].
spec = fs.FunctionSpec("sine", (2.0,))

# Cell averages come from the antiderivative, not from sampling.
print("mean of sin(2 pi x) over [0, 1/2]:", fs.cell_average(spec, 0.0, 0.5))
print("exact value 2/pi:                 ", 2.0 / np.pi)

# Discretize on 16 cells: averages plus the exact face values.
u = fs.discretize(spec, 16)
targets = fs.face_targets(spec, 16)
print("\ncell averages (first 4):", np.round(u[:4], 6))
print("face targets  (first 4):", np.round(targets[:4], 6))

# Random families: each draw fixes the closed form and its parameters.
rng = fs.philox_rng(seed=0, stream=0)
for family in fs.TRAIN_FAMILIES:
    drawn = fs.sample_function(family, rng)
    print(f"{family:11s} params={np.round(drawn.params, 4)} domain={drawn.domain}")

# The full dataset: equal representation per grid size, targets clipped into
# the convex hull of their stencil so the learned scheme stays bounded.
cfg = fs.DatasetConfig(nx_values=(16, 32, 64), pairs_per_grid=1024, seed=7)
ds = fs.build_dataset(cfg)
print(f"\ndataset rows: {len(ds)} (= 3 grids x 1024 pairs)")
print("row 0: stencil", ds.ubar[0], "target", ds.target[0], "nx", ds.nx[0])
assert np.all(ds.target >= ds.ubar.min(axis=1))
assert np.all(ds.target <= ds.ubar.max(axis=1))

# Writing and re-reading the CSV is lossless (17 significant digits).
with tempfile.TemporaryDirectory() as tmp:
    ds.save_csv(Path(tmp) / "dataset.csv")
    again = fs.Dataset.load_csv(Path(tmp) / "dataset.csv")
print("csv round trip exact:", np.array_equal(ds.target, again.target))
