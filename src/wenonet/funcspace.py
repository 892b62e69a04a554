"""Analytical function families with exact integrals, and training-pair generation.

Every family here supports closed-form pointwise evaluation and a closed-form
antiderivative, so cell averages and interface values are exact to machine
precision.  No quadrature is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

#: Families reserved for model evaluation / selection.
EVAL_FAMILIES = ("sine_cubed", "sine_step")

#: Grid sizes in geometric progression with ratio 2.
DEFAULT_NX_VALUES = (16, 32, 64, 128, 256, 512, 1024)

#: Data pairs contributed by each grid size.
DEFAULT_PAIRS_PER_GRID = 16384

DATASET_HEADER = "ubar_m1,ubar_0,ubar_p1,target,nx"

#: Abscissa of the jump for the discontinuous families.
JUMP_X = 0.5

#: Sigmoid pulse constants: steepness and the abscissas of its two fronts.
SIGMOID_K = 100.0
SIGMOID_X1 = 0.05
SIGMOID_X2 = 0.2

_polyval = np.polynomial.polynomial.polyval
_polyint = np.polynomial.polynomial.polyint


def philox_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for the (seed, stream) pair.

    Philox is keyed, versioned by numpy, and platform independent, so any
    consumer can reproduce an individual stream without replaying earlier
    ones.
    """
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _log_cosh(z: np.ndarray) -> np.ndarray:
    # overflow-safe log(cosh(z)) = |z| + log1p(exp(-2|z|)) - log 2
    a = np.abs(z)
    return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _cubic_of_cosine(c):
    # antiderivative of sin(pi x)^3 in terms of c = cos(pi x)
    return (c**3 / 3.0 - c) / np.pi


def _apply(closed_form, x, params):
    out = closed_form(np.asarray(x, dtype=float), params)
    return float(out) if np.ndim(x) == 0 else out


class _Family(NamedTuple):
    domain: tuple[float, float]
    value: Callable  # (x, params) -> array
    antiderivative: Callable  # (x, params) -> array, continuous across jumps
    draw: Callable | None = None  # rng -> params, for the training families


#: Every closed form in the package, keyed by family name.  The training
#: families come first, in the order ``build_dataset`` indexes with its rng.
#: Parameter ranges: polynomial coefficients U(-1,1) with degree 3; step levels
#: U(-1,1); sawtooth sign Bernoulli(1/2) with jump height U(0.5,1); sine
#: wavenumber U(2,20); tanh steepness U(5,30).  ``cosine`` and ``sigmoid`` are
#: the periodic advection initial conditions.
_FAMILIES = {
    "polynomial": _Family((-1.0, 1.0),
                          _polyval,
                          lambda x, p: _polyval(x, _polyint(p)),
                          lambda rng: tuple(rng.uniform(-1.0, 1.0, size=4))),
    "step": _Family((0.0, 1.0),
                    lambda x, p: np.where(x <= JUMP_X, p[0], p[1]),
                    lambda x, p: np.where(x <= JUMP_X, p[0] * x,
                                          p[0] * JUMP_X + p[1] * (x - JUMP_X)),
                    lambda rng: tuple(rng.uniform(-1.0, 1.0, size=2))),
    "sawjump": _Family((0.0, 1.0),
                       lambda x, p: p[0] * x + p[1] * (x > JUMP_X),
                       lambda x, p: 0.5 * p[0] * x**2 + p[1] * np.maximum(x - JUMP_X, 0.0),
                       lambda rng: (-1.0 if rng.integers(0, 2) else 1.0,
                                    float(rng.uniform(0.5, 1.0)))),
    "sine": _Family((0.0, 1.0),
                    lambda x, p: np.sin(p[0] * np.pi * x),
                    lambda x, p: -np.cos(p[0] * np.pi * x) / (p[0] * np.pi),
                    lambda rng: (float(rng.uniform(2.0, 20.0)),)),
    "tanh": _Family((-1.0, 1.0),
                    lambda x, p: np.tanh(p[0] * x),
                    lambda x, p: _log_cosh(p[0] * x) / p[0],
                    lambda rng: (float(rng.uniform(5.0, 30.0)),)),
    "sine_cubed": _Family((-1.0, 1.0),
                          lambda x, p: np.sin(np.pi * x) ** 3,
                          lambda x, p: _cubic_of_cosine(np.cos(np.pi * x))),
    "sine_step": _Family((0.0, 1.0),
                         lambda x, p: np.sin(2.0 * np.pi * x) + (x > JUMP_X),
                         lambda x, p: -np.cos(2.0 * np.pi * x) / (2.0 * np.pi)
                         + np.maximum(x - JUMP_X, 0.0)),
    "cosine": _Family((0.0, 1.0),
                      lambda x, p: np.cos(2.0 * np.pi * x),
                      lambda x, p: np.sin(2.0 * np.pi * x) / (2.0 * np.pi)),
    "sigmoid": _Family((0.0, 1.0),
                       lambda x, p: 1.0 / (1.0 + np.exp(-SIGMOID_K * (x - SIGMOID_X1)))
                       + 1.0 / (1.0 + np.exp(SIGMOID_K * (x - SIGMOID_X2))),
                       lambda x, p: (_softplus(SIGMOID_K * (x - SIGMOID_X1))
                                     - _softplus(-SIGMOID_K * (x - SIGMOID_X2))) / SIGMOID_K),
}

#: Families used to generate training pairs.
TRAIN_FAMILIES = tuple(name for name, fam in _FAMILIES.items() if fam.draw is not None)


@dataclass(frozen=True)
class FunctionSpec:
    """One analytical function on a closed interval.

    ``family`` selects the closed form and its interval, ``params`` its
    coefficients.  At an exact jump abscissa the pointwise value is the left
    limit, so interface targets at a discontinuous face are deterministic.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown function family {self.family!r}")

    @property
    def domain(self) -> tuple[float, float]:
        return _FAMILIES[self.family].domain

    def value(self, x):
        """Pointwise evaluation (left-limit convention at jumps)."""
        return _apply(_FAMILIES[self.family].value, x, self.params)

    def antiderivative(self, x):
        """Closed-form antiderivative, continuous across jumps."""
        return _apply(_FAMILIES[self.family].antiderivative, x, self.params)

    def integral(self, lo: float, hi: float) -> float:
        return float(self.antiderivative(hi) - self.antiderivative(lo))


@dataclass(frozen=True)
class DatasetConfig:
    nx_values: tuple[int, ...] = DEFAULT_NX_VALUES
    pairs_per_grid: int = DEFAULT_PAIRS_PER_GRID
    seed: int = 0

    def __post_init__(self):
        if not self.nx_values:
            raise ValueError("nx_values must be nonempty")
        if self.pairs_per_grid < 1:
            raise ValueError(f"pairs_per_grid={self.pairs_per_grid} must be at least 1")
        for nx in self.nx_values:
            if nx < 4:
                raise ValueError(f"grid size {nx} is too small (need nx >= 4)")
            if self.pairs_per_grid % nx != 0:
                raise ValueError(
                    f"pairs_per_grid={self.pairs_per_grid} is not divisible by "
                    f"nx={nx}; every grid must contribute whole functions"
                )


class Dataset:
    """Array-backed collection of training pairs.

    ``ubar`` has shape (n, 3) holding the three neighboring cell averages,
    ``target`` the exact interface value, ``nx`` the grid each row came from.
    """

    def __init__(self, ubar: np.ndarray, target: np.ndarray, nx: np.ndarray):
        self.ubar = np.asarray(ubar, dtype=float)
        self.target = np.asarray(target, dtype=float)
        self.nx = np.asarray(nx, dtype=np.int64)
        if self.ubar.shape != (len(self.target), 3) or len(self.nx) != len(
            self.target
        ):
            raise ValueError("inconsistent dataset array shapes")

    def __len__(self) -> int:
        return len(self.target)

    def save_csv(self, path) -> None:
        cols = np.column_stack([self.ubar, self.target, self.nx.astype(float)])
        with open(path, "w") as f:
            np.savetxt(
                f,
                cols,
                fmt=["%.17g"] * 4 + ["%d"],
                delimiter=",",
                header=DATASET_HEADER,
                comments="",
            )

    @classmethod
    def load_csv(cls, path) -> "Dataset":
        with open(path) as f:
            header = f.readline().rstrip("\r\n")
            if header != DATASET_HEADER:
                raise ValueError(
                    f"dataset file {path} line 1 is {header!r}, not the header {DATASET_HEADER}"
                )
            lines = f.read().splitlines()
        for i, line in enumerate(lines):  # loadtxt would skip it and shift every later row
            if not line.split("#", 1)[0].strip():
                raise ValueError(f"dataset file {path} line {i + 2} is blank or a comment")
        if not lines:
            raise ValueError(f"dataset file {path} has no data rows")
        raw = np.loadtxt(lines, delimiter=",", ndmin=2)
        if raw.shape[1] != 5:
            raise ValueError(f"dataset file {path} must have 5 columns")
        finite = np.isfinite(raw).all(axis=1)
        bad = ~finite | (raw[:, 4] != np.floor(raw[:, 4]))
        if bad.any():
            i = int(np.argmax(bad))  # row i sits on line i + 2, after the header
            what = "a non-finite value" if not finite[i] else f"non-integral nx {float(raw[i, 4])}"
            raise ValueError(f"dataset file {path} line {i + 2} has {what}")
        return cls(raw[:, :3], raw[:, 3], raw[:, 4].astype(np.int64))


def sample_function(family: str, rng: np.random.Generator) -> FunctionSpec:
    """Draw one random instance of a training family (ranges at ``_FAMILIES``)."""
    if family not in TRAIN_FAMILIES:
        raise ValueError(
            f"unknown training family {family!r}; expected one of {TRAIN_FAMILIES}"
        )
    return FunctionSpec(family, _FAMILIES[family].draw(rng))


def eval_function(name: str) -> FunctionSpec:
    """The two fixed evaluation functions used for model selection."""
    if name not in EVAL_FAMILIES:
        raise ValueError(f"unknown eval function {name!r}; expected {EVAL_FAMILIES}")
    return FunctionSpec(name, ())


def cell_average(spec: FunctionSpec, lo: float, hi: float) -> float:
    """Exact mean of the function over [lo, hi] from the antiderivative."""
    a, b = spec.domain
    tol = 1e-12 * max(1.0, abs(a), abs(b))
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if lo < a - tol or hi > b + tol:
        raise ValueError(f"interval [{lo}, {hi}] outside domain [{a}, {b}]")
    return spec.integral(lo, hi) / (hi - lo)


def discretize(spec: FunctionSpec, nx: int) -> np.ndarray:
    """Exact cell averages of ``spec`` on nx uniform cells over its domain."""
    a, b = spec.domain
    dx = (b - a) / nx
    edges = a + dx * np.arange(nx + 1)
    anti = spec.antiderivative(edges)
    return np.diff(anti) / dx


def face_targets(spec: FunctionSpec, nx: int) -> np.ndarray:
    """Exact interface values at the right face of every cell (periodic wrap).

    Face i sits at ``a + (i+1)*dx``; the last one coincides with the right
    domain boundary, whose stencil wraps around to the first cell.
    """
    a, b = spec.domain
    dx = (b - a) / nx
    faces = a + dx * np.arange(1, nx + 1)
    return np.asarray(spec.value(faces), dtype=float)


def build_dataset(cfg: DatasetConfig) -> Dataset:
    """Generate the full training set.

    Per grid size nx, ``pairs_per_grid / nx`` random function instances are
    drawn, each contributing one pair per face (periodic wrap), so every grid
    size is equally represented.  Targets are clipped into the convex hull of
    their stencil.  The result is bit-reproducible from ``cfg.seed``; each
    function instance owns Philox stream ``(seed, instance_index)``.
    """
    stencils, targets, grids = [], [], []
    stream = 0
    for nx in cfg.nx_values:
        n_inst = cfg.pairs_per_grid // nx
        for _ in range(n_inst):
            rng = philox_rng(cfg.seed, stream)
            stream += 1
            fam = TRAIN_FAMILIES[rng.integers(len(TRAIN_FAMILIES))]
            spec = sample_function(fam, rng)
            u = discretize(spec, nx)
            t = face_targets(spec, nx)
            s = np.stack([np.roll(u, 1), u, np.roll(u, -1)], axis=1)
            t = np.clip(t, s.min(axis=1), s.max(axis=1))
            stencils.append(s)
            targets.append(t)
            grids.append(np.full(nx, nx, dtype=np.int64))
    return Dataset(
        np.concatenate(stencils), np.concatenate(targets), np.concatenate(grids)
    )
