"""Reference computations made apart from the program, in scalar pure Python.

Nothing here imports wenonet or numpy: the exact solutions, the classical
face values and the network forward are written out from their definitions,
so the benchmark's output checks do not trust the code they measure.
"""

from __future__ import annotations

import json
import math

# -- exact solutions of the two solve problems ------------------------------

#: problem -> (domain, periodic)
PROBLEM_DOMAINS = {
    "advection-cosine": ((0.0, 1.0), True),
    "burgers-shock": ((-6.0, 6.0), False),
}


def exact_cell_averages(problem: str, nx: int, t: float) -> list[float]:
    """Closed-form exact cell averages at time t on the problem's canonical grid.

    advection-cosine: u0 = cos(2 pi x) translated at unit speed, so the mean
    over a cell of width dx centred at c is cos(2 pi (c - t)) sin(pi dx)/(pi dx).
    burgers-shock: u_l = 1, u_r = 0, a shock at the Rankine-Hugoniot position
    s = t/2; a cell is 1 left of it, 0 right of it, and the covered fraction
    in the cell that holds it.
    """
    (lo, hi), _ = PROBLEM_DOMAINS[problem]
    dx = (hi - lo) / nx
    out = []
    if problem == "advection-cosine":
        damp = math.sin(math.pi * dx) / (math.pi * dx)
        for i in range(nx):
            c = lo + dx * (i + 0.5)
            out.append(math.cos(2.0 * math.pi * (c - t)) * damp)
        return out
    s = 0.5 * t
    for i in range(nx):
        a, b = lo + dx * i, lo + dx * (i + 1)
        out.append(1.0 if b <= s else 0.0 if a >= s else (s - a) / dx)
    return out


# -- classical face values ---------------------------------------------------

EPS = 1e-6


def weno3_js(um1: float, u0: float, up1: float) -> float:
    """WENO3-JS minus-side face value (ideal weights 1/3, 2/3; eps 1e-6)."""
    a0 = (1.0 / 3.0) / ((u0 - um1) ** 2 + EPS) ** 2
    a1 = (2.0 / 3.0) / ((u0 - up1) ** 2 + EPS) ** 2
    s = a0 + a1
    return a0 / s * (1.5 * u0 - 0.5 * um1) + a1 / s * (0.5 * (u0 + up1))


def weno5_js(um2: float, um1: float, u0: float, up1: float, up2: float) -> float:
    """WENO5-JS face value with Jiang-Shu indicators (ideal weights 0.1, 0.6, 0.3)."""
    q0 = (2.0 * um2 - 7.0 * um1 + 11.0 * u0) / 6.0
    q1 = (-um1 + 5.0 * u0 + 2.0 * up1) / 6.0
    q2 = (2.0 * u0 + 5.0 * up1 - up2) / 6.0
    b0 = 13.0 / 12.0 * (um2 - 2.0 * um1 + u0) ** 2 + 0.25 * (um2 - 4.0 * um1 + 3.0 * u0) ** 2
    b1 = 13.0 / 12.0 * (um1 - 2.0 * u0 + up1) ** 2 + 0.25 * (um1 - up1) ** 2
    b2 = 13.0 / 12.0 * (u0 - 2.0 * up1 + up2) ** 2 + 0.25 * (3.0 * u0 - 4.0 * up1 + up2) ** 2
    a0 = 0.1 / (b0 + EPS) ** 2
    a1 = 0.6 / (b1 + EPS) ** 2
    a2 = 0.3 / (b2 + EPS) ** 2
    return (a0 * q0 + a1 * q1 + a2 * q2) / (a0 + a1 + a2)


# -- the network, read from its weights file ---------------------------------

#: Guard added to |q(x)| in every rational activation (the network's definition).
DENOM_GUARD = 1e-8


class Network:
    """Scalar forward pass of a weights JSON: rational features, dense rational
    layers, 2-way softmax, the ENO threshold and the convex combination."""

    def __init__(self, doc: dict):
        self.c_eno = float(doc["c_eno"])
        self.feat = [(c["p"], c["q"]) for c in doc["feat"]]
        self.layers = [(L["W"], L["b"], (L["act"]["p"], L["act"]["q"])) for L in doc["layers"]]
        self.head = (doc["head"]["W"], doc["head"]["b"])

    @classmethod
    def from_file(cls, path) -> "Network":
        with open(path) as f:
            return cls(json.load(f))

    @staticmethod
    def _rational(coeffs, x: float) -> float:
        p, q = coeffs
        num = ((p[3] * x + p[2]) * x + p[1]) * x + p[0]
        return num / (abs((q[2] * x + q[1]) * x + q[0]) + DENOM_GUARD)

    def weights(self, um1: float, u0: float, up1: float) -> tuple[float, float]:
        """Thresholded sub-stencil weights (w0, w1)."""
        d = (abs(u0 - um1), abs(up1 - u0), abs(up1 - um1), abs(up1 - 2.0 * u0 + um1))
        alpha = [self._rational(c, x) for c, x in zip(self.feat, d)]
        norm = math.sqrt(sum(v * v for v in alpha))
        a = [0.0] * len(alpha) if norm < 1e-14 else [v / norm for v in alpha]
        for W, b, act in self.layers:
            a = [self._rational(act, sum(w * v for w, v in zip(row, a)) + bi)
                 for row, bi in zip(W, b)]
        W, b = self.head
        logits = [sum(w * v for w, v in zip(row, a)) + bi for row, bi in zip(W, b)]
        m = max(logits)
        e = [math.exp(z - m) for z in logits]
        w0, w1 = e[0] / (e[0] + e[1]), e[1] / (e[0] + e[1])
        if w0 < self.c_eno:
            w0 = 0.0
        elif w1 < self.c_eno or 1.0 - w0 < self.c_eno:
            w0 = 1.0
        return w0, 1.0 - w0

    def face_value(self, um1: float, u0: float, up1: float) -> float:
        w0, w1 = self.weights(um1, u0, up1)
        return w0 * (1.5 * u0 - 0.5 * um1) + w1 * (0.5 * (u0 + up1))


# -- convergence order of a network on the two evaluation functions ---------

#: name -> (domain, antiderivative, pointwise value with the left limit at jumps)
EVAL_FUNCTIONS = {
    "sine_cubed": (
        (-1.0, 1.0),
        lambda x: (math.cos(math.pi * x) ** 3 / 3.0 - math.cos(math.pi * x)) / math.pi,
        lambda x: math.sin(math.pi * x) ** 3,
    ),
    "sine_step": (
        (0.0, 1.0),
        lambda x: -math.cos(2.0 * math.pi * x) / (2.0 * math.pi) + max(x - 0.5, 0.0),
        lambda x: math.sin(2.0 * math.pi * x) + (1.0 if x > 0.5 else 0.0),
    ),
}

EVAL_GRIDS = (16, 32, 64, 128, 256, 512, 1024)


def interpolation_rmse(face_value, name: str, nx: int) -> float:
    """RMSE of a 3-cell face rule at every face whose stencil is inside the domain."""
    (lo, hi), anti, value = EVAL_FUNCTIONS[name]
    dx = (hi - lo) / nx
    edges = [lo + dx * i for i in range(nx + 1)]
    F = [anti(x) for x in edges]
    u = [(F[i + 1] - F[i]) / dx for i in range(nx)]
    sq = 0.0
    for j in range(nx - 2):
        err = face_value(u[j], u[j + 1], u[j + 2]) - value(edges[j + 2])
        sq += err * err
    return math.sqrt(sq / (nx - 2))


def fitted_order(points) -> float:
    """Least-squares slope of log(error) against log(1/nx)."""
    xs = [math.log(1.0 / nx) for nx, _ in points]
    ys = [math.log(e) for _, e in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def order(face_value, name: str) -> float:
    return fitted_order([(nx, interpolation_rmse(face_value, name, nx)) for nx in EVAL_GRIDS])
