"""Classical face reconstructions from cell averages.

Each scheme's ``face_value`` maps upwind-ordered windows, a float array whose
last axis is the stencil (one window or any stack of them), to the minus-side
(left-biased) value at face i+1/2; the plus side is always obtained by
mirroring the stencil, never from separate coefficient tables.
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


def _windows(windows, width: int) -> np.ndarray:
    """``windows`` as a float array, else ValueError if its last axis is not ``width``."""
    w = np.asarray(windows, dtype=float)
    if w.shape[-1:] != (width,):
        raise ValueError(f"stencils need a last axis of length {width}, got shape {w.shape}")
    return w


class Scheme3:
    """A three-cell scheme: ``face_value`` blends the two interpolants by ``weights``.

    A subclass defines ``name`` and ``weights(windows)``: from the float (..., 3)
    windows, ``(w0, w1)`` as scalars or arrays of the windows' leading shape.
    """

    width = 3

    def face_value(self, windows):
        s = _windows(windows, 3)
        w0, w1 = self.weights(s)
        i0, i1 = interpolants3(s[..., 0], s[..., 1], s[..., 2])
        return w0 * i0 + w1 * i1


class Weno3JS(Scheme3):
    name = "weno3-js"

    def weights(self, windows):
        b0, b1 = smoothness3(windows[..., 0], windows[..., 1], windows[..., 2])
        a0 = IDEAL_WEIGHTS3[0] / (b0 + EPS_DEFAULT) ** 2
        a1 = IDEAL_WEIGHTS3[1] / (b1 + EPS_DEFAULT) ** 2
        s = a0 + a1
        return a0 / s, a1 / s


class Weno3Z(Scheme3):
    name = "weno3-z"

    def weights(self, windows):
        b0, b1 = smoothness3(windows[..., 0], windows[..., 1], windows[..., 2])
        tau = np.abs(b0 - b1)
        a0 = IDEAL_WEIGHTS3[0] * (1.0 + tau / (b0 + EPS_DEFAULT))
        a1 = IDEAL_WEIGHTS3[1] * (1.0 + tau / (b1 + EPS_DEFAULT))
        s = a0 + a1
        return a0 / s, a1 / s


class IdealWeights3(Scheme3):
    """Linear third-order scheme: the ideal weights applied unconditionally."""

    name = "ideal3"

    def weights(self, windows):
        return IDEAL_WEIGHTS3


class Quick:
    """QUICK keeps its own formula: as the weights (1/4, 3/4) it would round differently."""

    name = "quick"
    width = 3

    def face_value(self, windows):
        w = _windows(windows, 3)
        um1, u0, up1 = w[..., 0], w[..., 1], w[..., 2]
        return (3.0 * up1 + 6.0 * u0 - um1) / 8.0


class Weno5JS:
    """Fifth-order WENO with the Jiang-Shu smoothness indicators."""

    name = "weno5-js"
    width = 5

    def face_value(self, windows):
        w = _windows(windows, 5)
        um2, um1, u0, up1, up2 = w[..., 0], w[..., 1], w[..., 2], w[..., 3], w[..., 4]
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
