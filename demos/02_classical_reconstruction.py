"""
Classical face reconstructions and their convergence orders
============================================================

The two sub-stencil interpolants of a 3-cell stencil, the nonlinear weights
that blend them, and how the blend's accuracy shows up as a fitted slope on
the two evaluation functions.
"""

from itertools import groupby

import numpy as np

from wenonet import analysis as an
from wenonet import funcspace as fs
from wenonet import reconstruct as rc

# A smooth stencil and a stencil with a jump between the last two cells.
smooth = (0.0, 0.1, 0.2)
jumpy = (0.0, 0.0, 1.0)

for label, s in [("smooth", smooth), ("jump", jumpy)]:
    i0, i1 = rc.interpolants3(*s)
    w_js = rc.Weno3JS().weights(np.array(s))
    w_z = rc.Weno3Z().weights(np.array(s))
    print(f"{label}: interpolants=({i0:.3f}, {i1:.3f})  "
          f"js weights=({w_js[0]:.4f}, {w_js[1]:.4f})  "
          f"z weights=({w_z[0]:.4f}, {w_z[1]:.4f})")

# On the jump stencil the smooth sub-stencil gets essentially all the weight;
# on smooth data the weights sit at the ideal (1/3, 2/3).

schemes = [rc.Weno3JS(), rc.Weno3Z(), rc.Weno5JS(), rc.Quick(), rc.IdealWeights3()]
grids = (16, 32, 64, 128, 256, 512, 1024)

for name in ("sine_cubed", "sine_step"):
    spec = fs.eval_function(name)
    print(f"\nface-reconstruction RMSE on {name}:")
    print("scheme      " + "".join(f"{nx:>10d}" for nx in grids) + "   slope")
    for scheme, rows in groupby(an.convergence_study(schemes, spec, grids), lambda r: r.scheme):
        rows = list(rows)  # one per grid, each carrying the scheme's fitted slope
        print(f"{scheme:12s}"
              + "".join(f"{r.error:10.2e}" for r in rows)
              + f"  {rows[0].slope:6.2f}")

# The ideal-weight scheme is third order on smooth data but useless at the
# jump; the nonlinear weights keep the jump from poisoning the stencil.
