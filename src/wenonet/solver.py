"""1D finite-volume method-of-lines solver for linear advection and inviscid Burgers.

State variables are exact cell averages.  Faces are reconstructed by a
pluggable scheme object in one call per right-hand side, on the faces the
flux reads: the minus-side (left-biased) stencils for upwind advection, and
for Burgers' local Lax-Friedrichs flux those followed by the mirrored
plus-side stencils.  Time stepping is three-stage SSP Runge-Kutta.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .funcspace import FunctionSpec

DEFAULT_CFL = 0.4
DEFAULT_T = 5.0


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1D grid: periodic, or Dirichlet with fixed edge ``bc_values=(left, right)``."""

    nx: int
    domain: tuple[float, float] = (0.0, 1.0)
    bc_values: tuple[float, float] | None = None

    def __post_init__(self):
        if self.nx < 8:
            raise ValueError(f"nx={self.nx} too small (need nx >= 8)")
        bc = self.bc_values
        if bc is not None and not (
            isinstance(bc, (tuple, list)) and len(bc) == 2
            and all(isinstance(v, numbers.Real) and math.isfinite(v) for v in bc)
        ):
            raise ValueError(f"bc_values={bc!r} must be None or two finite reals (left, right)")

    @property
    def dx(self) -> float:
        return (self.domain[1] - self.domain[0]) / self.nx

    @property
    def edges(self) -> np.ndarray:
        return self.domain[0] + self.dx * np.arange(self.nx + 1)

    @property
    def centers(self) -> np.ndarray:
        return self.domain[0] + self.dx * (np.arange(self.nx) + 0.5)


@dataclass(frozen=True)
class Problem:
    """Advection of a periodic pulse, or a Burgers Riemann problem for ``"riemann"``."""

    init: str  # "cosine" | "sigmoid" | "riemann"
    riemann: tuple[float, float] | None = None  # (u_l, u_r), given only for "riemann"
    T: float = DEFAULT_T
    cfl: float = DEFAULT_CFL

    def __post_init__(self):
        if self.init not in ("cosine", "sigmoid", "riemann"):
            raise ValueError(f"unknown initial condition {self.init!r}")
        if (self.init == "riemann") != (self.riemann is not None):
            raise ValueError("riemann states (u_l, u_r) are given for init 'riemann' only")
        if self.riemann is not None and len(self.riemann) != 2:
            raise ValueError(f"riemann states {self.riemann} need two entries (u_l, u_r)")
        if self.riemann is not None and not all(map(math.isfinite, self.riemann)):
            raise ValueError(f"riemann states {self.riemann} must be finite")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl={self.cfl} outside (0, 1]")
        if not 0.0 <= self.T < math.inf:  # NaN fails the comparison too
            raise ValueError(f"T={self.T} must be finite and non-negative")

    @property
    def kind(self) -> str:
        """The equation: "burgers" for a Riemann problem, else "advection"."""
        return "burgers" if self.init == "riemann" else "advection"


def advection_cosine(T: float = DEFAULT_T, cfl: float = DEFAULT_CFL) -> Problem:
    return Problem("cosine", None, T, cfl)


def advection_sigmoid(T: float = DEFAULT_T, cfl: float = DEFAULT_CFL) -> Problem:
    return Problem("sigmoid", None, T, cfl)


def burgers_riemann(
    u_l: float, u_r: float, T: float = DEFAULT_T, cfl: float = DEFAULT_CFL
) -> Problem:
    return Problem("riemann", (float(u_l), float(u_r)), T, cfl)


def default_grid(problem: Problem, nx: int) -> GridSpec:
    """Canonical grid: advection on [0,1] periodic, Burgers on [-6,6] Dirichlet."""
    if problem.kind == "advection":
        return GridSpec(nx, (0.0, 1.0))
    return GridSpec(nx, (-6.0, 6.0), problem.riemann)


@functools.lru_cache(maxsize=None)
def _initial_condition(init: str) -> tuple[FunctionSpec, float]:
    """Initial condition ``init`` on [0, 1] and its one-period integral, built once."""
    spec = FunctionSpec(init, ())
    return spec, spec.integral(0.0, 1.0)


def initial_averages(problem: Problem, grid: GridSpec) -> np.ndarray:
    """Exact cell averages of the initial condition."""
    return exact_cell_averages(problem, grid, 0.0)


def _extend(state: np.ndarray, grid: GridSpec, halo: int) -> np.ndarray:
    if grid.bc_values is None:
        return np.concatenate([state[-halo:], state, state[:halo]])
    left, right = grid.bc_values
    return np.concatenate([np.full(halo, left), state, np.full(halo, right)])


@functools.lru_cache(maxsize=64)
def _stencil_index(nx: int, width: int, plus: bool) -> np.ndarray:
    """Read-only ``(width, m)`` indices into the extended state: minus, then mirrored plus."""
    k = np.arange(width)[:, None]
    faces = np.arange(nx + 1)
    idx = np.concatenate([faces + k, faces + width - k], axis=1) if plus else faces + k
    idx.flags.writeable = False
    return idx


def face_states(state: np.ndarray, grid: GridSpec, scheme, plus: bool = True):
    """Minus (and, with ``plus``, plus) reconstructions at all nx+1 faces, from one call.

    The minus side comes from the left-biased stencil; the plus side applies
    the same kernel to the mirrored right-biased stencil.  The scheme gets the
    nx+1 minus stencils, followed with ``plus`` by the nx+1 mirrored plus
    stencils, gathered column by column so that each stencil column is
    contiguous; without ``plus`` the second value is None.  Ghost cells wrap
    for periodic grids and repeat the boundary value for Dirichlet.
    """
    width = scheme.width
    if len(state) != grid.nx:
        raise ValueError(f"state has {len(state)} cells, but the grid has nx={grid.nx}")
    if grid.nx < width:
        raise ValueError(f"nx={grid.nx} too small for a {width}-cell stencil")
    ext = _extend(state, grid, (width + 1) // 2)
    u = scheme.face_value(ext[_stencil_index(grid.nx, width, plus)].T)
    n = grid.nx + 1
    return u[:n], (u[n:] if plus else None)


def numerical_flux(u_minus, u_plus, kind: str):
    """Upwind flux for unit-speed advection; local Lax-Friedrichs for Burgers."""
    if kind == "advection":
        return np.asarray(u_minus, dtype=float)
    if kind != "burgers":
        raise ValueError(f"unknown equation {kind!r}; expected 'advection' or 'burgers'")
    fm = 0.5 * np.asarray(u_minus) ** 2
    fp = 0.5 * np.asarray(u_plus) ** 2
    a = np.maximum(np.abs(u_minus), np.abs(u_plus))
    return 0.5 * (fm + fp) - 0.5 * a * (u_plus - u_minus)


def rhs(state: np.ndarray, grid: GridSpec, scheme, kind: str) -> np.ndarray:
    # the upwind advection flux reads only the minus side
    u_minus, u_plus = face_states(state, grid, scheme, plus=kind != "advection")
    flux = numerical_flux(u_minus, u_plus, kind)
    return -np.diff(flux) / grid.dx


def ssp_rk3_step(state: np.ndarray, dt: float, rhs_fn) -> np.ndarray:
    """Three-stage strong-stability-preserving Runge-Kutta step."""
    u1 = state + dt * rhs_fn(state)
    u2 = 0.75 * state + 0.25 * (u1 + dt * rhs_fn(u1))
    return state / 3.0 + 2.0 / 3.0 * (u2 + dt * rhs_fn(u2))


def _max_wave_speed(state: np.ndarray, kind: str) -> float:
    if kind == "advection":
        return 1.0
    return max(float(np.max(np.abs(state))), 1e-12)


def steps(problem: Problem, grid: GridSpec, scheme):
    """Yield ``(t, state)``: the initial averages at t = 0, then each step to ``problem.T``.

    The grid must be the problem's ``default_grid``; a non-finite state raises
    ``RuntimeError``.
    """
    if grid != default_grid(problem, grid.nx):
        raise ValueError(f"{grid} is not default_grid(problem, {grid.nx}) of {problem}")
    u = initial_averages(problem, grid)
    t = 0.0
    yield t, u
    step = 0
    while t < problem.T - 1e-12:
        dt = problem.cfl * grid.dx / _max_wave_speed(u, problem.kind)
        dt = min(dt, problem.T - t)
        u = ssp_rk3_step(u, dt, lambda s: rhs(s, grid, scheme, problem.kind))
        t += dt
        step += 1
        if not np.all(np.isfinite(u)):
            raise RuntimeError(
                f"scheme {scheme.name} produced a non-finite state at step {step}, "
                f"t={t:.6g}"
            )
        yield t, u


@dataclass
class SolveReport:
    times: np.ndarray
    final_state: np.ndarray
    final_error: float


def run(problem: Problem, grid: GridSpec, scheme) -> SolveReport:
    """Integrate with ``steps``; the L1 error is measured once, at the final time."""
    times = []
    for t, u in steps(problem, grid, scheme):
        times.append(t)
    error = l1_error(u, exact_cell_averages(problem, grid, t), grid.dx)
    return SolveReport(np.asarray(times), u, error)


def exact_solution(problem: Problem, x, t: float):
    """Pointwise exact solution (periodic translation, shock, or fan)."""
    x = np.asarray(x, dtype=float)
    if problem.kind == "advection":
        return _initial_condition(problem.init)[0].value(np.mod(x - t, 1.0))
    u_l, u_r = problem.riemann
    if t <= 0.0:
        return np.where(x < 0.0, u_l, u_r)
    if u_l > u_r:  # shock moving at the Rankine-Hugoniot speed
        return np.where(x < 0.5 * (u_l + u_r) * t, u_l, u_r)
    if u_l == u_r:
        return np.full_like(x, u_l)
    fan = x / t
    return np.clip(fan, u_l, u_r)


def _exact_antiderivative(problem: Problem, x, t: float):
    """Antiderivative in x of the exact solution at time t."""
    x = np.asarray(x, dtype=float)
    if problem.kind == "advection":
        # integral of the periodic extension of the initial condition
        spec, period = _initial_condition(problem.init)
        y = x - t
        k = np.floor(y)
        return k * period + spec.antiderivative(y - k)
    u_l, u_r = problem.riemann
    if u_l == u_r:
        return u_l * x
    if t <= 0.0 or u_l > u_r:
        s = 0.5 * (u_l + u_r) * t if t > 0.0 else 0.0
        return u_l * np.minimum(x, s) + u_r * np.maximum(x - s, 0.0)
    a1, a2 = u_l * t, u_r * t
    out = np.empty_like(x)
    left = x < a1
    right = x > a2
    mid = ~(left | right)
    out[left] = u_l * x[left]
    out[mid] = u_l * a1 + (x[mid] ** 2 - a1**2) / (2.0 * t)
    out[right] = u_l * a1 + (a2**2 - a1**2) / (2.0 * t) + u_r * (x[right] - a2)
    return out


def exact_cell_averages(problem: Problem, grid: GridSpec, t: float) -> np.ndarray:
    anti = _exact_antiderivative(problem, grid.edges, t)
    return np.diff(anti) / grid.dx


def l1_error(state: np.ndarray, exact_avg: np.ndarray, dx: float) -> float:
    """Discrete L1 norm of the cell-average error."""
    if len(state) != len(exact_avg):
        raise ValueError("state and exact averages must have equal length")
    return float(dx * np.sum(np.abs(state - exact_avg)))


def total_variation(state: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(state))))
