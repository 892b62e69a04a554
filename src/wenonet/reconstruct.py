"""Classical face reconstructions from cell averages.

All kernels return the minus-side (left-biased) value at face i+1/2 from the
upwind-ordered stencil; the plus side is always obtained by mirroring the
stencil, never from separate coefficient tables.  Inputs may be scalars or
arrays of stencils.
"""

from __future__ import annotations

import numpy as np

#: Denominator guard of every WENO weight rule.
EPS_DEFAULT = 1e-6

#: Ideal third-order weights for the two 2-cell sub-stencils.
IDEAL_WEIGHTS3 = (1.0 / 3.0, 2.0 / 3.0)

#: Ideal fifth-order weights for the three 3-cell sub-stencils.
IDEAL_WEIGHTS5 = (0.1, 0.6, 0.3)


def interpolants3(um1, u0, up1):
    """Second-order sub-stencil interpolants at face i+1/2."""
    return 1.5 * u0 - 0.5 * um1, 0.5 * (u0 + up1)


def smoothness3(um1, u0, up1):
    """Squared one-sided differences for the two sub-stencils."""
    return (u0 - um1) ** 2, (u0 - up1) ** 2


def weno3_js_weights(um1, u0, up1):
    b0, b1 = smoothness3(um1, u0, up1)
    a0 = IDEAL_WEIGHTS3[0] / (b0 + EPS_DEFAULT) ** 2
    a1 = IDEAL_WEIGHTS3[1] / (b1 + EPS_DEFAULT) ** 2
    s = a0 + a1
    return a0 / s, a1 / s


def weno3_z_weights(um1, u0, up1):
    b0, b1 = smoothness3(um1, u0, up1)
    tau = np.abs(b0 - b1)
    a0 = IDEAL_WEIGHTS3[0] * (1.0 + tau / (b0 + EPS_DEFAULT))
    a1 = IDEAL_WEIGHTS3[1] * (1.0 + tau / (b1 + EPS_DEFAULT))
    s = a0 + a1
    return a0 / s, a1 / s


def reconstruct_minus(um1, u0, up1, w0, w1):
    """Convex combination of the sub-stencil interpolants."""
    i0, i1 = interpolants3(um1, u0, up1)
    return w0 * i0 + w1 * i1


def quick(um1, u0, up1):
    """QUICK face value in upwind cell-average form."""
    return (3.0 * up1 + 6.0 * u0 - um1) / 8.0


def weno5_js(um2, um1, u0, up1, up2):
    """Fifth-order WENO face value (Jiang-Shu smoothness indicators)."""
    q0 = (2.0 * um2 - 7.0 * um1 + 11.0 * u0) / 6.0
    q1 = (-um1 + 5.0 * u0 + 2.0 * up1) / 6.0
    q2 = (2.0 * u0 + 5.0 * up1 - up2) / 6.0

    b0 = 13.0 / 12.0 * (um2 - 2.0 * um1 + u0) ** 2 + 0.25 * (um2 - 4.0 * um1 + 3.0 * u0) ** 2
    b1 = 13.0 / 12.0 * (um1 - 2.0 * u0 + up1) ** 2 + 0.25 * (um1 - up1) ** 2
    b2 = 13.0 / 12.0 * (u0 - 2.0 * up1 + up2) ** 2 + 0.25 * (3.0 * u0 - 4.0 * up1 + up2) ** 2

    a0 = IDEAL_WEIGHTS5[0] / (b0 + EPS_DEFAULT) ** 2
    a1 = IDEAL_WEIGHTS5[1] / (b1 + EPS_DEFAULT) ** 2
    a2 = IDEAL_WEIGHTS5[2] / (b2 + EPS_DEFAULT) ** 2
    s = a0 + a1 + a2
    return (a0 * q0 + a1 * q1 + a2 * q2) / s


class _Scheme3:
    """Base for 3-cell schemes; subclasses supply the weight rule."""

    width = 3

    def _cols(self, windows):
        w = np.asarray(windows, dtype=float)
        return w[..., 0], w[..., 1], w[..., 2]


class Weno3JS(_Scheme3):
    name = "weno3-js"

    def face_value(self, windows):
        um1, u0, up1 = self._cols(windows)
        w0, w1 = weno3_js_weights(um1, u0, up1)
        return reconstruct_minus(um1, u0, up1, w0, w1)


class Weno3Z(_Scheme3):
    name = "weno3-z"

    def face_value(self, windows):
        um1, u0, up1 = self._cols(windows)
        w0, w1 = weno3_z_weights(um1, u0, up1)
        return reconstruct_minus(um1, u0, up1, w0, w1)


class IdealWeights3(_Scheme3):
    """Linear third-order scheme: the ideal weights applied unconditionally."""

    name = "ideal3"

    def face_value(self, windows):
        um1, u0, up1 = self._cols(windows)
        return reconstruct_minus(um1, u0, up1, *IDEAL_WEIGHTS3)


class Quick(_Scheme3):
    name = "quick"

    def face_value(self, windows):
        um1, u0, up1 = self._cols(windows)
        return quick(um1, u0, up1)


class Weno5JS:
    name = "weno5-js"
    width = 5

    def face_value(self, windows):
        w = np.asarray(windows, dtype=float)
        return weno5_js(w[..., 0], w[..., 1], w[..., 2], w[..., 3], w[..., 4])
