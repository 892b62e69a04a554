"""
Linear advection benchmark
==========================

Five flow-through times of the unit-speed advection equation on a periodic
domain, comparing the classical reconstructions on the smooth cosine wave and
the high-gradient sigmoid pulse.  A trained network can be added to the
comparison by exporting its weight file and using the ``nn:<path>`` scheme
name (see the README pipeline).
"""

from itertools import groupby

from wenonet import analysis as an
from wenonet import solver as sv
from wenonet.reconstruct import IdealWeights3, Quick, Weno3JS, Weno3Z, Weno5JS

schemes = [Weno3JS(), Weno3Z(), Weno5JS(), Quick(), IdealWeights3()]

# Final-time L1 error at one resolution: the three-cell JS weights lose more
# than an order of magnitude against the linear ideal-weight blend.
print("cosine wave, nx=256, T=5, cfl=0.4:")
prob = sv.advection_cosine()
grid = sv.default_grid(prob, 256)
for scheme in schemes:
    report = sv.run(prob, grid, scheme)
    print(f"  {scheme.name:10s} final L1 {report.final_error:.3e}  "
          f"({len(report.times) - 1} steps, {report.wall_time:.2f}s)")

# Grid-refinement study on the sigmoid pulse: the sharp fronts push every
# scheme into its pre-asymptotic regime.
print("\nsigmoid pulse, refinement over nx = 64..512:")
prob = sv.advection_sigmoid()
study = an.convergence_study(schemes, prob, (64, 128, 256, 512))
for name, rows in groupby(study, lambda r: r.scheme):
    rows = list(rows)  # one per grid, each carrying the scheme's fitted slope
    cells = "  ".join(f"{r.error:.2e}" for r in rows)
    print(f"  {name:10s} {cells}   slope {rows[0].slope:.2f}")
