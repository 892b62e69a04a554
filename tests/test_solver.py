"""Unit tests for the 1D finite-volume solver."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wenonet import cli
from wenonet import ratnet as rn
from wenonet import solver as sv
from wenonet.reconstruct import IdealWeights3, Quick, Weno3JS, Weno3Z, Weno5JS

BENCH_WEIGHTS = Path(__file__).parents[1] / "bench" / "data" / "nn_weights.json"


def test_grid_and_problem_validation():
    with pytest.raises(ValueError):
        sv.GridSpec(4)
    with pytest.raises(ValueError, match="unknown initial condition"):
        sv.Problem("gaussian")
    # Riemann states are given for a Riemann problem and for nothing else
    with pytest.raises(ValueError, match="riemann states"):
        sv.Problem("riemann")
    with pytest.raises(ValueError, match="riemann states"):
        sv.Problem("cosine", (1.0, 0.0))
    for states in ((1.0,), (1.0, 0.0, 2.0)):
        with pytest.raises(ValueError, match="riemann states .* two entries"):
            sv.Problem("riemann", states)
    for bad in (float("nan"), float("inf"), -float("inf")):
        for states in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                sv.burgers_riemann(*states)
    with pytest.raises(ValueError):
        sv.advection_cosine(cfl=1.5)
    # the end time must be finite and non-negative; NaN fails too
    for T in (-1.0, -1e-300, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            sv.advection_cosine(T=T)
    assert sv.burgers_riemann(1.0, 0.0, T=0.0).T == 0.0
    # run measures errors against its problem's exact solution, so only on its grid
    shock = sv.burgers_riemann(1.0, 0.0, T=1.0)
    for problem, grid in ((shock, sv.GridSpec(64, (-6.0, 6.0))),
                          (shock, sv.GridSpec(64, (-6.0, 6.0), (0.0, 0.0))),
                          (sv.advection_cosine(T=0.1), sv.GridSpec(64, (0.0, 2.0)))):
        with pytest.raises(ValueError, match="default_grid"):
            sv.run(problem, grid, Weno3JS())


def test_grid_checks_its_bc_values():
    nan, inf = float("nan"), float("inf")
    for bad in ((1.0,), (nan, 0.0), (0.0, inf), (-inf, 0.0), (1.0, 0.0, 2.0), (), 1.0, ("a", "b")):
        with pytest.raises(ValueError, match="bc_values"):
            sv.GridSpec(64, (0.0, 1.0), bad)
    assert sv.GridSpec(64, (0.0, 1.0), (1, -2.5)).bc_values == (1, -2.5)
    # every problem's default grid stays valid
    for make in cli.PROBLEMS.values():
        for nx in (8, 257):
            sv.default_grid(make(1.0, 0.4), nx)


def test_initial_averages_cosine():
    grid = sv.GridSpec(8)
    avg = sv.initial_averages(sv.advection_cosine(), grid)
    # mean over [0, 1/4] (the first two cells together) has the closed form 2/pi
    assert 0.5 * (avg[0] + avg[1]) == pytest.approx(2.0 / np.pi, abs=1e-14)


def test_initial_averages_riemann_straddle():
    prob = sv.burgers_riemann(1.0, 0.0)
    grid = sv.GridSpec(8, (-6.0, 6.0), (1.0, 0.0))
    avg = sv.initial_averages(prob, grid)
    # cells are 1.5 wide; the eight cells split 4/4 around x=0
    assert np.allclose(avg, [1, 1, 1, 1, 0, 0, 0, 0], atol=1e-15)
    odd = sv.GridSpec(9, (-6.0, 6.0), (1.0, 0.0))
    avg = sv.initial_averages(prob, odd)
    assert avg[4] == pytest.approx(0.5)  # middle cell straddles the jump


def test_initial_averages_sigmoid_against_quadrature():
    prob = sv.advection_sigmoid()
    grid = sv.GridSpec(64)
    avg = sv.initial_averages(prob, grid)

    def f(x):
        return 1.0 / (1.0 + np.exp(-100.0 * (x - 0.05))) + 1.0 / (
            1.0 + np.exp(100.0 * (x - 0.2))
        )

    for i in (0, 3, 12, 40):
        lo, hi = grid.edges[i], grid.edges[i + 1]
        ref = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)[0] / grid.dx
        assert avg[i] == pytest.approx(ref, abs=1e-10)


def test_face_states_constant_and_linear():
    grid = sv.GridSpec(16)
    const = np.full(16, 2.5)
    for scheme in (Weno3JS(), Weno5JS(), Quick(), IdealWeights3()):
        um, up = sv.face_states(const, grid, scheme)
        assert um.shape == (17,) and up.shape == (17,)
        assert np.allclose(um, 2.5, atol=1e-14)
        assert np.allclose(up, 2.5, atol=1e-14)


def test_face_states_periodic_sawtooth_linear_segments():
    # periodic tooth: linear in index away from the two corners
    grid = sv.GridSpec(16)
    u = np.concatenate([np.arange(8.0), np.arange(8.0)[::-1]])
    um, _ = sv.face_states(u, grid, IdealWeights3())
    # face between cells 2 and 3 lies on a linear segment: exact midpoint
    assert um[3] == pytest.approx(2.5, abs=1e-13)


def test_face_states_dirichlet_far_field():
    prob = sv.burgers_riemann(1.0, 0.0)
    grid = sv.default_grid(prob, 64)
    u = sv.initial_averages(prob, grid)
    um, up = sv.face_states(u, grid, Weno3JS())
    assert um[0] == pytest.approx(1.0, abs=1e-12)
    assert up[-1] == pytest.approx(0.0, abs=1e-12)


def ghost_extended(u, grid, halo):
    if grid.bc_values is None:
        return np.concatenate([u[-halo:], u, u[:halo]])
    return np.concatenate([np.full(halo, grid.bc_values[0]), u, np.full(halo, grid.bc_values[1])])


@pytest.mark.parametrize("nx", (8, 257))
@pytest.mark.parametrize("bc", ("periodic", "dirichlet"))
def test_face_states_matches_two_call_reference_bits(nx, bc):
    grid = sv.GridSpec(nx, (0.0, 1.0), (0.7, -0.2) if bc == "dirichlet" else None)
    params = rn.init_params(rng=np.random.default_rng(1))
    vec = rn.params_to_vector(params) + 0.2 * np.random.default_rng(2).normal(size=92)
    schemes = [Weno3JS(), Weno3Z(), Weno5JS(), Quick(), IdealWeights3(),
               rn.NNScheme(rn.vector_to_params(vec))]
    x = grid.centers
    states = [
        np.random.default_rng(nx).normal(size=nx),
        np.where(x < 0.5, np.sin(2.0 * np.pi * x), 1.0 + x),
    ]
    for scheme in schemes:
        for u in states:
            ext = ghost_extended(u, grid, (scheme.width + 1) // 2)
            windows = np.lib.stride_tricks.sliding_window_view(ext, scheme.width)
            um, up = sv.face_states(u, grid, scheme)
            assert um.tobytes() == scheme.face_value(windows[:-1]).tobytes()
            assert up.tobytes() == scheme.face_value(windows[1:, ::-1]).tobytes()


def test_face_states_calls_the_scheme_once_on_contiguous_columns():
    class Recorder:
        name = "recorder"

        def __init__(self, width):
            self.width = width
            self.calls = []

        def face_value(self, windows):
            self.calls.append(np.array(windows))
            for j in range(self.width):
                assert windows[:, j].flags.c_contiguous
            return windows[:, 0] + 10.0 * windows[:, -1]

    u = np.arange(12.0) ** 2
    for grid in (sv.GridSpec(12), sv.GridSpec(12, (0.0, 1.0), (-3.0, 7.0))):
        for width in (3, 5):
            n = grid.nx + 1
            scheme = Recorder(width)
            um, up = sv.face_states(u, grid, scheme)
            assert len(scheme.calls) == 1
            (stencils,) = scheme.calls
            assert stencils.shape == (2 * n, width)
            ext = ghost_extended(u, grid, (width + 1) // 2)
            windows = np.lib.stride_tricks.sliding_window_view(ext, width)
            assert np.array_equal(stencils, np.concatenate([windows[:-1], windows[1:, ::-1]]))
            assert np.array_equal(um, windows[:-1, 0] + 10.0 * windows[:-1, -1])
            assert np.array_equal(up, windows[1:, -1] + 10.0 * windows[1:, 0])
            # without the plus side the scheme gets the nx+1 minus stencils alone
            um_only, none = sv.face_states(u, grid, scheme, plus=False)
            assert none is None and um_only.tobytes() == um.tobytes()
            assert np.array_equal(scheme.calls[-1], windows[:-1])
            # the Lax-Friedrichs flux reads both sides, the upwind advection flux one
            for kind, count in (("burgers", 2 * n), ("advection", n)):
                sv.rhs(u, grid, scheme, kind)
                assert scheme.calls[-1].shape == (count, width)
            assert len(scheme.calls) == 4


def test_stencil_index_is_cached_and_read_only():
    for nx, width, plus in ((12, 3, False), (12, 3, True), (257, 5, True)):
        idx = sv._stencil_index(nx, width, plus)
        assert idx is sv._stencil_index(nx, width, plus)
        assert idx.shape == (width, (1 + plus) * (nx + 1))
        assert not idx.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            idx[0, 0] = 1


SIX_SCHEMES = (Weno3JS(), Weno3Z(), Weno5JS(), Quick(), IdealWeights3(),
               rn.NNScheme(rn.load_params(BENCH_WEIGHTS)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(8, 70),
    dirichlet=st.booleans(),
    flat_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
)
def test_advection_rhs_is_the_divergence_of_the_two_sided_minus_faces(
    seed, nx, dirichlet, flat_share
):
    """The one-sided advection rhs keeps the bits of the two-sided reconstruction.

    Flat stretches (a cell equal to its left neighbour) make flat stencils, so
    that ``NNScheme.weights`` takes its shared flat-row route in both calls.
    """
    g = np.random.default_rng(seed)
    u = g.normal(size=nx) * 10.0 ** float(g.integers(-6, 6))
    for i in np.flatnonzero(g.random(nx) < flat_share):
        u[i] = u[i - 1]
    bc = None
    if dirichlet:  # the edge values may continue a flat stretch into the ghost cells
        bc = tuple(float(v if g.random() < 0.5 else g.normal()) for v in (u[0], u[-1]))
    grid = sv.GridSpec(nx, (0.0, float(g.uniform(0.5, 12.0))), bc)
    for scheme in SIX_SCHEMES:
        um, _ = sv.face_states(u, grid, scheme)
        want = -np.diff(um) / grid.dx
        assert sv.rhs(u, grid, scheme, "advection").tobytes() == want.tobytes(), scheme.name


def test_face_states_rejects_wide_stencil_on_small_grid():
    class Wide:
        name = "wide"
        width = 9

        def face_value(self, windows):
            return np.asarray(windows)[..., 4]

    with pytest.raises(ValueError, match="too small"):
        sv.face_states(np.ones(8), sv.GridSpec(8), Wide())


def test_face_states_and_rhs_reject_a_state_of_another_length():
    grid = sv.GridSpec(16)
    for n in (15, 20):
        with pytest.raises(ValueError, match=f"state has {n} cells, but the grid has nx=16"):
            sv.face_states(np.ones(n), grid, Weno3JS())
        with pytest.raises(ValueError, match=f"state has {n} cells"):
            sv.rhs(np.ones(n), grid, Weno3JS(), "advection")


def test_numerical_flux_examples():
    assert sv.numerical_flux(3.0, -7.0, "advection") == 3.0
    assert sv.numerical_flux(0.6, 0.6, "burgers") == pytest.approx(0.18)
    assert sv.numerical_flux(1.0, 0.0, "burgers") == pytest.approx(0.75)
    with pytest.raises(ValueError, match="unknown equation 'advecton'"):
        sv.numerical_flux(1.0, 0.0, "advecton")
    with pytest.raises(ValueError, match="unknown equation 'advecton'"):
        sv.rhs(np.ones(16), sv.GridSpec(16), Weno3JS(), "advecton")


def test_rhs_constant_zero_and_conservation():
    grid = sv.GridSpec(64)
    rng = np.random.default_rng(0)
    states = [rng.normal(size=64), 1e3 * rng.normal(size=64), 1e-3 * rng.normal(size=64),
              np.where(grid.centers < 0.5, 1.0, -0.25) + 0.1 * grid.centers]
    eps = np.finfo(float).eps
    for scheme in (Weno3JS(), Weno3Z(), Weno5JS(), Quick(), IdealWeights3(),
                   rn.NNScheme(rn.load_params(BENCH_WEIGHTS))):
        assert np.allclose(sv.rhs(np.ones(64), grid, scheme, "advection"), 0.0, atol=1e-14)
        total = np.sum(sv.rhs(states[0], grid, scheme, "burgers"))
        assert abs(total) < 1e-12 / grid.dx
        for state in states:
            for kind in ("advection", "burgers"):
                flux = sv.numerical_flux(*sv.face_states(state, grid, scheme), kind)
                # on a periodic grid face 0 and face nx are one face, seen from both ends
                assert flux[:1].tobytes() == flux[-1:].tobytes(), (scheme.name, kind)
                mass = abs(np.sum(sv.rhs(state, grid, scheme, kind))) * grid.dx
                assert mass <= grid.nx * eps * np.max(np.abs(flux)), (scheme.name, kind)


def test_rhs_advection_derivative_converges():
    # d/dx of cos(2 pi x) under the advection operator, refined in nx
    errs = []
    nxs = (32, 64, 128, 256)
    for nx in nxs:
        grid = sv.GridSpec(nx)
        state = sv.initial_averages(sv.advection_cosine(), grid)
        got = sv.rhs(state, grid, Weno3JS(), "advection")
        exact = 2.0 * np.pi * np.sin(2.0 * np.pi * grid.centers)
        errs.append(np.mean(np.abs(got - exact)))
    slope = np.polyfit(np.log(1.0 / np.asarray(nxs, float)), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_ssp_rk3_identity_and_decay_factor():
    u = np.array([1.0, -0.5])
    assert np.array_equal(sv.ssp_rk3_step(u, 0.1, lambda s: 0.0 * s), u)
    decay = sv.ssp_rk3_step(np.array([1.0]), 0.1, lambda s: -s)
    assert decay[0] == pytest.approx(1 - 0.1 + 0.005 - 0.1**3 / 6, abs=1e-15)


def test_ssp_rk3_temporal_order_three():
    errs = []
    dts = [0.2 / 2**k for k in range(6)]
    for dt in dts:
        u = np.array([1.0])
        steps = round(1.0 / dt)
        for _ in range(steps):
            u = sv.ssp_rk3_step(u, dt, lambda s: -s)
        errs.append(abs(u[0] - np.exp(-1.0)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 3.0) < 0.1


def test_exact_solution_examples():
    adv = sv.advection_cosine()
    assert sv.exact_solution(adv, 0.3, 1.0) == pytest.approx(np.cos(0.6 * np.pi))
    shock = sv.burgers_riemann(1.0, 0.0)
    assert sv.exact_solution(shock, 1.9, 4.0) == 1.0
    assert sv.exact_solution(shock, 2.1, 4.0) == 0.0
    fan = sv.burgers_riemann(0.0, 1.0)
    assert sv.exact_solution(fan, 2.5, 5.0) == pytest.approx(0.5)
    trans = sv.burgers_riemann(-1.0, 1.0)
    assert sv.exact_solution(trans, -10.0, 5.0) == -1.0
    assert sv.exact_solution(trans, 0.0, 5.0) == 0.0


def test_exact_cell_averages_match_quadrature_rarefaction():
    prob = sv.burgers_riemann(-1.0, 1.0)
    grid = sv.default_grid(prob, 32)
    t = 3.0
    avg = sv.exact_cell_averages(prob, grid, t)
    for i in (0, 10, 15, 16, 20, 31):
        ref = quad(
            lambda x: sv.exact_solution(prob, x, t),
            grid.edges[i],
            grid.edges[i + 1],
            epsabs=1e-12,
        )[0] / grid.dx
        assert avg[i] == pytest.approx(ref, abs=1e-9)


def test_exact_cell_averages_advection_periodic_translation():
    prob = sv.advection_sigmoid()
    grid = sv.GridSpec(64)
    avg0 = sv.exact_cell_averages(prob, grid, 0.0)
    assert np.allclose(avg0, sv.initial_averages(prob, grid), atol=1e-14)
    # one full period returns the initial field
    avg1 = sv.exact_cell_averages(prob, grid, 1.0)
    assert np.allclose(avg1, avg0, atol=1e-12)


def test_l1_error_examples():
    assert sv.l1_error(np.ones(4), np.ones(4), 0.25) == 0.0
    assert sv.l1_error(np.ones(4) + 0.2, np.ones(4), 0.25) == pytest.approx(0.2)
    e = np.zeros(4)
    e[2] = 0.8
    assert sv.l1_error(e, np.zeros(4), 0.25) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        sv.l1_error(np.ones(3), np.ones(4), 0.1)


def test_run_advection_one_period_round_trip():
    prob = sv.advection_cosine(T=1.0)
    grid = sv.default_grid(prob, 64)
    report = sv.run(prob, grid, Weno3JS())
    norm = sv.l1_error(np.zeros(64), sv.initial_averages(prob, grid), grid.dx)
    assert report.final_error < 0.5 * norm
    assert report.times[-1] == pytest.approx(1.0, abs=1e-12)
    t0, u0 = next(sv.steps(prob, grid, Weno3JS()))
    assert t0 == 0.0 and np.array_equal(u0, sv.initial_averages(prob, grid))


def test_steps_start_at_the_initial_averages_and_end_at_T():
    prob = sv.burgers_riemann(1.0, 0.0, T=0.3)
    grid = sv.default_grid(prob, 32)
    states = list(sv.steps(prob, grid, Weno3JS()))
    assert states[0][0] == 0.0
    assert np.array_equal(states[0][1], sv.initial_averages(prob, grid))
    times = [t for t, _ in states]
    assert times[-1] == 0.3 and all(a < b for a, b in zip(times, times[1:]))
    report = sv.run(prob, grid, Weno3JS())
    assert np.array_equal(report.times, times)
    assert np.array_equal(report.final_state, states[-1][1])
    # a zero end time takes no step
    still = sv.burgers_riemann(1.0, 0.0, T=0.0)
    (only,) = sv.steps(still, grid, Weno3JS())
    assert only[0] == 0.0 and np.array_equal(only[1], sv.initial_averages(still, grid))


def test_run_evaluates_the_exact_solution_once(monkeypatch):
    calls = []
    exact = sv.exact_cell_averages

    def counted(problem, grid, t):
        calls.append(t)
        return exact(problem, grid, t)

    monkeypatch.setattr(sv, "exact_cell_averages", counted)
    prob = sv.advection_cosine(T=0.5)
    grid = sv.default_grid(prob, 32)
    report = sv.run(prob, grid, Weno3JS())
    # the initial averages are the one call before the first step, the error the other
    assert calls == [0.0, report.times[-1]] and len(report.times) > 2


def test_run_burgers_shock_position():
    prob = sv.burgers_riemann(1.0, 0.0, T=5.0)
    grid = sv.default_grid(prob, 128)
    report = sv.run(prob, grid, Weno3JS())
    u = report.final_state
    # shock sits at x = 2.5: find the cell where u crosses 0.5
    cross = grid.centers[np.argmin(np.abs(u - 0.5))]
    assert abs(cross - 2.5) <= 2.0 * grid.dx


def test_run_transonic_matches_fan():
    prob = sv.burgers_riemann(-1.0, 1.0, T=5.0)
    grid = sv.default_grid(prob, 256)
    report = sv.run(prob, grid, Weno3JS())
    assert report.final_error < 0.05


def test_run_constant_data_is_fixed_point():
    prob = sv.burgers_riemann(0.7, 0.7, T=0.5)
    grid = sv.default_grid(prob, 32)
    assert np.allclose(sv.initial_averages(prob, grid), 0.7, atol=1e-15)
    for scheme in (Weno3JS(), Weno3Z(), Weno5JS(), Quick(), IdealWeights3()):
        report = sv.run(prob, grid, scheme)
        assert np.allclose(report.final_state, 0.7, atol=1e-12)
        assert report.final_error <= 1e-12


def test_periodic_conservation_over_full_run():
    prob = sv.advection_cosine(T=5.0)
    grid = sv.default_grid(prob, 128)
    initial = sv.initial_averages(prob, grid)
    for scheme in (Weno3JS(), Weno3Z(), Weno5JS(), Quick(), IdealWeights3()):
        report = sv.run(prob, grid, scheme)
        drift = abs(np.sum(report.final_state) - np.sum(initial)) * grid.dx
        assert drift <= 1e-10


def test_monotone_shock_capture_weno_family():
    prob = sv.burgers_riemann(1.0, 0.0, T=5.0)
    grid = sv.default_grid(prob, 128)
    init_tv = sv.total_variation(sv.initial_averages(prob, grid))
    for scheme in (Weno3JS(), Weno3Z(), Weno5JS()):
        u = sv.run(prob, grid, scheme).final_state
        assert u.max() <= 1.0 + 1e-3
        assert u.min() >= -1e-3
        assert sv.total_variation(u) <= init_tv + 1e-2


def test_cfl_robustness_spatial_error_dominates():
    grid_nx = 256
    base = sv.run(
        sv.advection_cosine(T=5.0, cfl=0.4),
        sv.GridSpec(grid_nx),
        Weno3JS(),
    ).final_error
    halved = sv.run(
        sv.advection_cosine(T=5.0, cfl=0.2),
        sv.GridSpec(grid_nx),
        Weno3JS(),
    ).final_error
    assert abs(halved - base) / base < 0.10


def test_run_reports_nan_abort():
    class Explode:
        name = "explode"
        width = 3

        def face_value(self, windows):
            out = np.asarray(windows[..., 1], dtype=float) * 1e155
            return out * out  # overflows to inf immediately

    prob = sv.advection_cosine(T=1.0)
    with pytest.raises(RuntimeError, match="step 1"):
        sv.run(prob, sv.default_grid(prob, 16), Explode())
