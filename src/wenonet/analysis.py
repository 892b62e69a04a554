"""Convergence studies, dispersion-dissipation fingerprints, scorecards, CSV reports.

``convergence_study`` is the one convergence-order estimator; model selection
(``train.evaluate_orders``) and ``wenonet converge`` both read its slopes.
``scorecard`` defines the downstream figures that the gate and demos 04 and 07 read.

The spectral analysis treats each (possibly nonlinear) scheme as a black box:
evolve a single Fourier mode of the advection equation by one tiny step and
read the modified wavenumber off the mode's complex amplitude ratio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .funcspace import FunctionSpec, discretize, face_targets
from .reconstruct import Weno3JS, Weno5JS
from .solver import GridSpec, Problem, default_grid, rhs, run, ssp_rk3_step
from .solver import advection_cosine, advection_sigmoid, burgers_riemann

#: Fraction of a cell crossing used for the one-step mode evolution.
ADR_DT_FRACTION = 1e-3

DEFAULT_ADR_NX = 256
DEFAULT_ADR_MODES = 64

#: Scorecard settings: the solves' grid, the sigmoid grids, the kappa*dx band; T and CFL
#: are the solver's defaults.
SCORECARD_NX = 256
SCORECARD_SIGMOID_NX = (64, 128, 256, 512)
SCORECARD_BAND = (2.0, 3.0)


@dataclass(frozen=True)
class ADRPoint:
    """Modified wavenumber sample: real part dispersion, imaginary dissipation.

    The spectrally ideal scheme has dispersion equal to kappa*dx and zero
    dissipation; stable schemes have dissipation <= 0.
    """

    kappa_dx: float
    dispersion: float
    dissipation: float
    leakage: float


@dataclass(frozen=True)
class ConvergenceRow:
    scheme: str
    nx: int
    dx: float
    error: float
    slope: float


def default_kappa_grid(n_modes: int = DEFAULT_ADR_MODES) -> np.ndarray:
    """n_modes reduced wavenumbers evenly spaced in (0, pi]."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1, got {n_modes}")
    return np.pi * np.arange(1, n_modes + 1) / n_modes


def adr(scheme, kappa_dx_list, nx: int = DEFAULT_ADR_NX) -> list[ADRPoint]:
    """Approximate dispersion relation of ``scheme`` for unit-speed advection.

    Each requested kappa*dx must correspond to an integer mode index on the
    nx-cell periodic grid.  The state is the exact cell average of sin(kx);
    one SSP-RK3 step of size 1e-3*dx keeps temporal error far below the
    spatial fingerprint being measured.
    """
    grid = GridSpec(nx)
    dx = grid.dx
    dt = ADR_DT_FRACTION * dx
    points = []
    for kdx in np.atleast_1d(np.asarray(kappa_dx_list, dtype=float)):
        mode = kdx * nx / (2.0 * np.pi)
        m = int(round(mode))
        if abs(mode - m) > 1e-9 or not 1 <= m <= nx // 2:
            raise ValueError(
                f"kappa*dx={kdx} is not an integer mode on nx={nx} cells"
            )
        state = discretize(FunctionSpec("sine", (2.0 * m,)), nx)
        after = ssp_rk3_step(state, dt, lambda s: rhs(s, grid, scheme, "advection"))
        spec_before = np.fft.rfft(state)
        spec_after = np.fft.rfft(after)
        amp = spec_before[m]
        kprime_dx = 1j * dx / dt * np.log(spec_after[m] / amp)
        residual = spec_after - spec_before
        residual[m] = 0.0
        leak = float(np.linalg.norm(residual) / abs(amp))
        points.append(
            ADRPoint(float(kdx), float(kprime_dx.real), float(kprime_dx.imag), leak)
        )
    return points


def interpolation_error(scheme, spec: FunctionSpec, nx: int) -> float:
    """Face-reconstruction RMSE against exact interface values.

    Covers every face whose stencil lies fully inside the domain, so
    non-periodic functions need no boundary convention.
    """
    if nx < scheme.width:
        raise ValueError(f"nx={nx} too small for a {scheme.width}-cell stencil")
    u = discretize(spec, nx)
    targets = face_targets(spec, nx)
    r = (scheme.width + 1) // 2
    windows = np.lib.stride_tricks.sliding_window_view(u, scheme.width)
    rec = scheme.face_value(windows)
    return float(np.sqrt(np.mean((rec - targets[r - 1 : nx - r + 1]) ** 2)))


def convergence_order(points) -> float:
    """Least-squares slope of log(error) against log(dx), dx proportional to 1/nx.

    Non-positive errors are excluded with a warning (constant scale factors in
    dx shift the intercept only, never the slope); the rest must come from at
    least two distinct grid sizes.
    """
    pts = [(int(nx), float(e)) for nx, e in points]
    kept = [(nx, e) for nx, e in pts if e > 0.0]
    if len(kept) < len(pts):
        warnings.warn(
            f"convergence_order: excluded {len(pts) - len(kept)} non-positive errors",
            stacklevel=2,
        )
    if len({nx for nx, _ in kept}) < 2:
        raise ValueError("need positive errors on two distinct grid sizes to fit a slope")
    log_dx = np.log([1.0 / nx for nx, _ in kept])
    log_e = np.log([e for _, e in kept])
    return float(np.polyfit(log_dx, log_e, 1)[0])


def convergence_study(schemes, target, nx_list) -> list[ConvergenceRow]:
    """Error-vs-resolution table with one fitted slope per scheme.

    ``target`` is either a solver Problem (final-time L1 error) or a
    FunctionSpec (face-reconstruction RMSE).
    """
    nx_list = [int(nx) for nx in nx_list]
    if len(set(nx_list)) < 3:
        raise ValueError("need at least three distinct grid sizes for a convergence study")
    rows: list[ConvergenceRow] = []
    for scheme in schemes:
        errs = []
        dxs = []
        for nx in nx_list:
            if isinstance(target, Problem):
                grid = default_grid(target, nx)
                err = run(target, grid, scheme).final_error
                dxs.append(grid.dx)
            elif isinstance(target, FunctionSpec):
                err = interpolation_error(scheme, target, nx)
                dxs.append((target.domain[1] - target.domain[0]) / nx)
            else:
                raise TypeError(f"cannot run a convergence study on {type(target)!r}")
            errs.append(err)
        slope = convergence_order(list(zip(nx_list, errs)))
        rows.extend(
            ConvergenceRow(scheme.name, nx, dx, err, slope)
            for nx, dx, err in zip(nx_list, dxs, errs)
        )
    return rows


@dataclass(frozen=True)
class _ScorecardRow:
    """One scheme's scorecard; the sigmoid L1 and its ratio are at the coarsest grid."""

    scheme: str
    cosine_l1: float
    cosine_ratio: float
    sigmoid_slope: float
    sigmoid_coarse_l1: float
    sigmoid_coarse_ratio: float
    shock_overshoot: float
    shock_l1: float
    transonic_l1: float
    transonic_ratio: float
    max_dissipation: float
    band_below_js: bool


def _l1(problem, scheme, nx: int = SCORECARD_NX) -> float:
    return run(problem, default_grid(problem, nx), scheme).final_error


def _dissipation(scheme) -> list[float]:
    return [p.dissipation for p in adr(scheme, default_kappa_grid(), DEFAULT_ADR_NX)]


def _measure(scheme) -> tuple[dict, list[float]]:
    """A scheme's name and own figures, and its dissipation on each ADR mode."""
    coarse = convergence_study([scheme], advection_sigmoid(), SCORECARD_SIGMOID_NX)[0]
    shock_problem = burgers_riemann(1.0, 0.0)
    shock = run(shock_problem, default_grid(shock_problem, SCORECARD_NX), scheme)
    u, (u_l, u_r) = shock.final_state, shock_problem.riemann
    curve = _dissipation(scheme)
    return {
        "scheme": scheme.name,
        "cosine_l1": _l1(advection_cosine(), scheme),
        "sigmoid_slope": coarse.slope,
        "sigmoid_coarse_l1": coarse.error,
        "shock_overshoot": max(float(u.max() - max(u_l, u_r)), float(min(u_l, u_r) - u.min())),
        "shock_l1": shock.final_error,
        "transonic_l1": _l1(burgers_riemann(-1.0, 1.0), scheme),
        "max_dissipation": max(curve),
    }, curve


def scorecard(schemes) -> list[_ScorecardRow]:
    """Downstream figures at the SCORECARD_* settings, one row per scheme in order.

    Ratios divide by WENO3-JS's figure, or WENO5-JS's for the transonic one: four
    reference figures, measured on each call, also when a reference has a row.
    ``band_below_js``: |dissipation| under WENO3-JS's on each mode in SCORECARD_BAND.
    """
    schemes = list(schemes)
    names = [s.name for s in schemes]
    if len(set(names)) < len(names):
        raise ValueError(f"a scheme name appears twice in the scorecard: {names}")
    js_cosine = _l1(advection_cosine(), Weno3JS())
    js_sigmoid_coarse = _l1(advection_sigmoid(), Weno3JS(), SCORECARD_SIGMOID_NX[0])
    js_curve = _dissipation(Weno3JS())
    w5_transonic = _l1(burgers_riemann(-1.0, 1.0), Weno5JS())
    lo, hi = SCORECARD_BAND
    band = [i for i, k in enumerate(default_kappa_grid()) if lo <= k <= hi]
    return [
        _ScorecardRow(
            cosine_ratio=figures["cosine_l1"] / js_cosine,
            sigmoid_coarse_ratio=figures["sigmoid_coarse_l1"] / js_sigmoid_coarse,
            transonic_ratio=figures["transonic_l1"] / w5_transonic,
            band_below_js=all(abs(curve[i]) < abs(js_curve[i]) for i in band),
            **figures,
        )
        for figures, curve in map(_measure, schemes)
    ]


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit_report(rows, path, metadata: dict | None = None) -> None:
    """Write dict-like rows as CSV with a leading ``# key=value`` metadata line.

    The columns are the first row's keys (or dataclass fields), in order.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("refusing to emit an empty report")
    cols = list(rows[0] if isinstance(rows[0], dict) else vars(rows[0]))
    meta = metadata or {}
    lines = ["# " + ", ".join(f"{k}={v}" for k, v in meta.items())]
    lines.append(",".join(cols))
    for row in rows:
        record = row if isinstance(row, dict) else vars(row)
        lines.append(",".join(_format_cell(record[c]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_report(path):
    """Inverse of emit_report: (rows as dicts, metadata dict)."""
    lines = Path(path).read_text().splitlines()
    meta: dict[str, str] = {}
    if lines and lines[0].startswith("#"):
        body = lines[0][1:].strip()
        if body:
            for item in body.split(", "):
                if "=" in item:
                    k, v = item.split("=", 1)
                    meta[k] = v
        lines = lines[1:]
    if not lines:
        raise ValueError(f"report {path} has no header line")
    cols = lines[0].split(",")
    rows = []
    for line in filter(None, lines[1:]):
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ValueError(
                f"report {path}: a row has {len(cells)} cells, the header {len(cols)}"
            )
        rows.append(dict(zip(cols, map(_parse_cell, cells))))
    return rows, meta
