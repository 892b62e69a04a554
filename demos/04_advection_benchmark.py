"""
Downstream benchmark
====================

The classical reconstructions on the scorecard the acceptance gate reads:
five flow-through times of unit-speed advection (the smooth cosine wave at
nx=256, and the high-gradient sigmoid pulse refined over nx = 64..512), the
Burgers shock and transonic rarefaction, and the dispersion-dissipation
curve.  A trained network joins the comparison as
``ratnet.NNScheme(ratnet.load_params(path))``; demo 07 scores six of them.
"""

from wenonet import analysis as an
from wenonet.reconstruct import IdealWeights3, Quick, Weno3JS, Weno3Z, Weno5JS

# One column per scheme.  The three-cell JS weights lose more than an order
# of magnitude of cosine L1 against the linear ideal-weight blend, and the
# sharp sigmoid fronts push every scheme into its pre-asymptotic regime.
rows = an.scorecard([Weno3JS(), Weno3Z(), Weno5JS(), Quick(), IdealWeights3()])
print(f"{'':22s}" + "".join(f"{row.scheme:>11s}" for row in rows))
for field in list(vars(rows[0]))[1:]:
    cells = [getattr(row, field) for row in rows]
    fmt = "{!s:>11s}" if isinstance(cells[0], bool) else "{:11.3e}"
    print(f"{field:22s}" + "".join(fmt.format(c) for c in cells))
