"""Unit tests for the classical face-reconstruction kernels."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wenonet import reconstruct as rc
from wenonet.ratnet import NetParams, NNScheme, eno_filter, init_params, load_params

rng = np.random.default_rng(1234)

BENCH_WEIGHTS = Path(__file__).parents[1] / "bench" / "data" / "nn_weights.json"

#: Every scheme the solver can run: the classical ones and a trained network.
ALL_SCHEMES = [rc.Weno3JS(), rc.Weno3Z(), rc.Weno5JS(), rc.Quick(), rc.IdealWeights3(),
               NNScheme(load_params(BENCH_WEIGHTS))]


def random_network(seed):
    """An initial network with normal noise of scale 0.3 on every parameter."""
    g = np.random.default_rng(seed)
    theta = init_params(rng=g).theta
    return NNScheme(NetParams(theta + 0.3 * g.normal(size=theta.size)), f"random-net-{seed}")


#: Every three-cell weight rule: the classical ones, the trained network and
#: five random networks.
WEIGHT_RULES = [rc.Weno3JS(), rc.Weno3Z(), rc.IdealWeights3(), ALL_SCHEMES[-1],
                *(random_network(seed) for seed in range(5))]

JS, Z = rc.Weno3JS().weights, rc.Weno3Z().weights


def dyadic_stencils(n, width=3):
    """Random stencils whose entries and shifts stay exact in binary floating point."""
    return rng.integers(-64, 64, size=(n, width)) / 16.0


def test_interpolants_examples():
    assert rc.interpolants3(1.0, 1.0, 1.0) == (1.0, 1.0)
    assert rc.interpolants3(0.0, 1.0, 2.0) == (1.5, 1.5)
    assert rc.interpolants3(0.0, 1.0, 3.0) == (1.5, 2.0)


def test_weno3_js_weights_examples():
    for c in (0.0, 2.5, -7.0):
        w0, w1 = JS(np.array([c, c, c]))
        assert w0 == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert w1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    w0, w1 = JS(np.array([0.0, 1.0, 2.0]))
    assert w0 == pytest.approx(1.0 / 3.0, abs=1e-12)
    # hand evaluation with beta = (1, 4), eps = 1e-6
    a0 = (1.0 / 3.0) / (1.0 + 1e-6) ** 2
    a1 = (2.0 / 3.0) / (4.0 + 1e-6) ** 2
    w0, w1 = JS(np.array([0.0, 1.0, 3.0]))
    assert w0 == pytest.approx(a0 / (a0 + a1), abs=1e-15)
    assert w0 == pytest.approx(0.88889, abs=1e-5)
    assert w1 == pytest.approx(0.11111, abs=1e-5)


def test_weno3_z_weights_examples():
    for stencil in [(1.0, 1.0, 1.0), (0.0, 1.0, 2.0)]:
        w0, w1 = Z(np.array(stencil))
        assert w0 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert w1 == pytest.approx(2.0 / 3.0, abs=1e-12)
    w0, w1 = Z(np.array([0.0, 1.0, 3.0]))
    a0 = (1.0 / 3.0) * (1.0 + 3.0 / (1.0 + 1e-6))
    a1 = (2.0 / 3.0) * (1.0 + 3.0 / (4.0 + 1e-6))
    assert w0 == pytest.approx(a0 / (a0 + a1), abs=1e-15)
    assert w0 == pytest.approx(0.53333, abs=1e-5)
    assert w1 == pytest.approx(0.46667, abs=1e-5)


def test_scheme3_face_value_examples():
    assert rc.IdealWeights3().face_value([0.0, 1.0, 2.0]) == pytest.approx(1.5, abs=1e-15)

    class FirstSubStencil(rc.Scheme3):
        def weights(self, windows):
            return 1.0, 0.0

    um1, u0, up1 = 0.3, -0.2, 0.9
    i0, _ = rc.interpolants3(um1, u0, up1)
    assert FirstSubStencil().face_value([um1, u0, up1]) == i0


def quadratic_cell_average(coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    c0, c1, c2 = coeffs
    anti = lambda x: c2 * x**3 / 3 + c1 * x**2 / 2 + c0 * x
    return (anti(hi) - anti(lo)) / (hi - lo)


def test_ideal_weights_exact_for_quadratics_symbolic_oracle():
    # exact-rational oracle: cell averages of a quadratic on three uniform
    # cells, combined with the ideal weights, reproduce the face value
    rational = np.random.default_rng(7)
    for _ in range(20):
        coeffs = [Fraction(int(v), 8) for v in rational.integers(-40, 40, 3)]
        w = Fraction(1, 3)  # cell width
        x0 = Fraction(int(rational.integers(-16, 16)), 4)
        cells = [
            (x0 - 3 * w / 2, x0 - w / 2),
            (x0 - w / 2, x0 + w / 2),
            (x0 + w / 2, x0 + 3 * w / 2),
        ]
        um1, u0, up1 = (quadratic_cell_average(coeffs, lo, hi) for lo, hi in cells)
        face = x0 + w / 2
        exact = coeffs[0] + coeffs[1] * face + coeffs[2] * face**2
        assert (-um1 + 5 * u0 + 2 * up1) / 6 == exact  # symbolic identity
        got = rc.IdealWeights3().face_value([float(um1), float(u0), float(up1)])
        assert got == pytest.approx(float(exact), abs=1e-12)


def test_spec_quadratic_example_unit_cells():
    um1, u0, up1 = 13.0 / 12.0, 1.0 / 12.0, 13.0 / 12.0
    got = rc.IdealWeights3().face_value([um1, u0, up1])
    assert got == pytest.approx(0.25, abs=1e-15)


def test_quick_examples():
    assert rc.quick(1.0, 1.0, 1.0) == 1.0
    assert rc.quick(0.0, 1.0, 2.0) == 1.5
    assert rc.quick(0.0, 1.0, 3.0) == 1.875


def test_weno5_examples():
    assert rc.weno5_js(3.0, 3.0, 3.0, 3.0, 3.0) == pytest.approx(3.0, abs=1e-14)
    assert rc.weno5_js(-2.0, -1.0, 0.0, 1.0, 2.0) == pytest.approx(0.5, abs=1e-14)


def test_weno5_fifth_order_on_quartic():
    # oracle: exact cell averages of x^4 from its antiderivative; the face
    # value error must shrink like dx^5
    errs = []
    dxs = 0.5 ** np.arange(2, 7)
    for dx in dxs:
        edges = 1.0 + dx * np.arange(-2, 4)  # five cells around x = 1
        avg = np.diff(edges**5 / 5.0) / dx
        face = edges[3]
        errs.append(abs(rc.weno5_js(*avg) - face**4))
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert slope >= 4.5


@pytest.mark.parametrize("scheme", [rc.Weno3JS(), rc.Weno3Z()],
                         ids=["weno3_js_weights", "weno3_z_weights"])
def test_shift_invariance_of_weights_and_values(scheme):
    s = dyadic_stencils(300)
    for c in (1.0, -2.5, 8.0):
        w, ws = scheme.weights(s), scheme.weights(s + c)
        assert np.array_equal(w[0], ws[0]) and np.array_equal(w[1], ws[1])
        v, vs = scheme.face_value(s), scheme.face_value(s + c)
        assert np.allclose(vs, v + c, rtol=0, atol=1e-12)


def test_quick_shift_invariance():
    s = dyadic_stencils(300)
    v = rc.quick(s[:, 0], s[:, 1], s[:, 2])
    vs = rc.quick(s[:, 0] + 2.0, s[:, 1] + 2.0, s[:, 2] + 2.0)
    assert np.allclose(vs, v + 2.0, rtol=0, atol=1e-12)


def test_linear_exactness_all_schemes():
    base, slope = -0.7, 0.45
    um2, um1, u0, up1, up2 = (base + slope * k for k in range(-2, 3))
    exact = base + slope * 0.5
    for scheme in (rc.Weno3JS(), rc.Weno3Z(), rc.IdealWeights3(), rc.Quick()):
        got = scheme.face_value(np.array([um1, u0, up1]))
        assert got == pytest.approx(exact, abs=1e-12)
    got = rc.Weno5JS().face_value(np.array([um2, um1, u0, up1, up2]))
    assert got == pytest.approx(exact, abs=1e-12)


_dyadic_ints = st.integers(-(2**20), 2**20)


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(ALL_SCHEMES), data=st.data(), e=st.integers(-40, 40),
       m=_dyadic_ints, a=_dyadic_ints, b=_dyadic_ints)
def test_every_scheme_follows_a_shift_and_is_exact_on_affine_data(scheme, data, e, m, a, b):
    # stencils and shifts are integers times 2**e, so sums and differences are exact
    width = scheme.width
    rows = st.lists(_dyadic_ints, min_size=width, max_size=width)
    k = np.array(data.draw(st.lists(rows, min_size=1, max_size=8)), dtype=float)
    unit = 2.0**e
    s, c = k * unit, m * unit
    scale = unit * max(np.abs(k).max(), abs(m), 1)
    shifted = scheme.face_value(s + c) - c
    assert np.all(np.abs(shifted - scheme.face_value(s)) <= 1e-12 * scale)
    # cell averages of a + b*x on unit cells centred at -r..r; the face is x = 1/2
    r = width // 2
    affine = (a + b * np.arange(-r, r + 1.0)) * unit
    exact = (a + 0.5 * b) * unit
    err = abs(scheme.face_value(affine) - exact)
    assert err <= 1e-12 * unit * (abs(a) + (r + 1) * abs(b) + 1)


def magnitude_rows(width):
    """Stencils at magnitudes 1e-300 to 1e300, denormals included, and flat rows.

    A row takes one exponent for all its entries, or one exponent per entry.
    """
    exponents = st.integers(-300, 300)
    mantissas = st.lists(st.floats(-1.0, 1.0), min_size=width, max_size=width)
    one_scale = st.builds(lambda ms, e: [m * 10.0**e for m in ms], mantissas, exponents)
    mixed = st.builds(lambda ms, es: [m * 10.0**e for m, e in zip(ms, es)], mantissas,
                      st.lists(exponents, min_size=width, max_size=width))
    flat = st.builds(lambda m, e: [m * 10.0**e] * width, st.floats(-1.0, 1.0), exponents)
    return st.lists(one_scale | mixed | flat, min_size=1, max_size=16)


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(ALL_SCHEMES), data=st.data())
def test_every_scheme_is_odd_and_stays_in_the_hull_of_its_interpolants(scheme, data):
    s = np.array(data.draw(magnitude_rows(scheme.width)))
    with np.errstate(all="ignore"):  # some schemes overflow to NaN at these magnitudes
        v, v_neg = scheme.face_value(s), scheme.face_value(-s)
    # odd symmetry: the same values and the same NaN pattern; a zero may flip its sign
    assert np.array_equal(v_neg, -v, equal_nan=True)
    if scheme.width != 3:
        return
    # a convex combination of the two sub-stencil interpolants, within 4 ulp
    i0, i1 = rc.interpolants3(s[:, 0], s[:, 1], s[:, 2])
    tol = 4.0 * np.spacing(np.maximum(np.abs(i0), np.abs(i1)))
    ok = np.isfinite(v)
    assert np.all(v[ok] >= np.minimum(i0, i1)[ok] - tol[ok])
    assert np.all(v[ok] <= np.maximum(i0, i1)[ok] + tol[ok])


@pytest.mark.parametrize("scheme", WEIGHT_RULES, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_weight_rule_is_convex_and_blends_its_own_weights(scheme, data):
    s = np.array(data.draw(magnitude_rows(3)))
    with np.errstate(all="ignore"):  # some rules overflow to NaN at these magnitudes
        w0, w1 = scheme.weights(s)
        i0, i1 = rc.interpolants3(s[:, 0], s[:, 1], s[:, 2])
        blend = w0 * i0 + w1 * i1
        assert scheme.face_value(s).tobytes() == blend.tobytes()
    w0, w1 = np.broadcast_arrays(w0, w1, s[:, 0])[:2]  # the ideal weights are scalars
    ok = np.isfinite(w0) & np.isfinite(w1)
    assert np.all(w0[ok] >= 0.0) and np.all(w1[ok] >= 0.0)
    assert np.all(np.abs(w0[ok] + w1[ok] - 1.0) <= 1e-12)
    if isinstance(scheme, NNScheme):  # the network's pairs already passed the ENO filter
        assert np.array_equal(eno_filter(w0, w1, scheme.params.c_eno), w0, equal_nan=True)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize("delta", [-1, 1])
def test_every_scheme_rejects_windows_of_another_width(scheme, delta):
    for shape in [(scheme.width + delta,), (4, scheme.width + delta)]:
        with pytest.raises(ValueError, match=f"last axis of length {scheme.width}"):
            scheme.face_value(np.ones(shape))


def test_eno_behavior_at_step():
    w0, _ = JS(np.array([0.0, 0.0, 1.0]))
    assert w0 >= 0.99


def test_scheme_objects_halo_and_vectorization():
    # the solver's halo is (width + 1) // 2
    assert rc.Weno3JS().width == 3
    assert rc.Quick().width == 3
    assert rc.Weno5JS().width == 5
    windows = rng.normal(size=(10, 3))
    vals = rc.Weno3JS().face_value(windows)
    assert vals.shape == (10,)
