"""Unit tests for the rational network: evaluation, features, ENO filter, IO."""

import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wenonet import ratnet as rn
from wenonet.reconstruct import interpolants3

rng = np.random.default_rng(99)


def random_params(seed=0, noise=0.1):
    params = rn.init_params(rng=np.random.default_rng(seed))
    vec = rn.params_to_vector(params)
    vec = vec + noise * np.random.default_rng(seed + 1).normal(size=vec.size)
    return rn.vector_to_params(vec)


def stacked(p, q):
    """One rational for all four features, stacked as ``NetParams.feat``."""
    return tuple(np.repeat(np.array(c, dtype=float)[:, None, None], 4, axis=1) for c in (p, q))


def test_rational_examples():
    ident = np.array([0.0, 1, 0, 0]), np.array([1.0, 0, 0])
    assert rn._rational(*ident, 7.0) == pytest.approx(7.0, rel=1e-7)
    cubic = np.array([0.0, 0, 0, 1]), np.array([1.0, 0, 0])
    assert rn._rational(*cubic, 2.0) == pytest.approx(8.0, rel=1e-7)
    recip = np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 1])
    assert rn._rational(*recip, 2.0) == pytest.approx(1.0 / (4.0 + rn.DENOM_GUARD), abs=1e-15)


def test_rational_is_total_at_denominator_roots():
    c = np.array([1.0, 0, 0, 0]), np.array([0.0, 1.0, 0])  # q(x) = x, root at 0
    assert np.isfinite(rn._rational(*c, 0.0))
    assert rn._rational(*c, 0.0) == pytest.approx(1.0 / rn.DENOM_GUARD)


def test_delta_features_examples():
    # the four deltas of n rows are stacked first, shape (4, n); the columns
    # are [1, 2, 3, 1], [0, 0, 0, 0] and [1, 1, 2, 0]
    rows = np.array([[0.0, 1.0, 3.0], [4.0, 4.0, 4.0], [0.0, 1.0, 2.0]])
    assert np.array_equal(rn._deltas(rows), [[1, 0, 1], [2, 0, 1], [3, 0, 2], [1, 0, 0]])


def test_rational_features_identity_rationals():
    feats = rn.rational_features([0.0, 1.0, 3.0], stacked([0, 1, 0, 0], [1, 0, 0]))
    assert np.allclose(feats, np.array([1, 2, 3, 1]) / np.sqrt(15.0), rtol=1e-6)
    assert np.linalg.norm(feats) == pytest.approx(1.0, abs=1e-12)


def test_rational_features_zero_branch():
    vanishing = stacked([0, 1, 1, 0], [1, 0, 0])  # p(0) = 0
    feats = rn.rational_features([5.0, 5.0, 5.0], vanishing)
    assert np.array_equal(feats, np.zeros(4))


def test_forward_softmax_range_and_normalization():
    for seed in range(20):
        params = random_params(seed)
        s = np.random.default_rng(seed).normal(size=(500, 3))
        w = rn.forward(params, s)
        assert np.all((w > 0.0) & (w < 1.0))
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(w.max(axis=1) >= 0.5)  # so no row has both weights below c_eno < 0.5


def test_forward_uniform_with_zero_head():
    params = rn.init_params(rng=np.random.default_rng(0))
    params.head_W[:] = 0.0
    params.head_b[:] = 0.0
    w = rn.forward(params, np.array([[0.2, -0.4, 1.0]]))
    assert np.array_equal(w[0], [0.5, 0.5])


def test_forward_galilean_shift_invariance_exact():
    params = random_params(3)
    s = rng.integers(-64, 64, size=(200, 3)) / 16.0
    for c in (1.0, -2.5, 100.0):
        assert np.array_equal(rn.forward(params, s), rn.forward(params, s + c))


def test_forward_tape_keeps_bits_and_backward_matches_differences():
    params = random_params(3)
    s = rng.normal(size=(64, 3))
    upstream = rng.normal(size=(64, 2))
    tape = []
    w = rn.forward(params, s, tape)
    assert np.array_equal(w, rn.forward(params, s))
    grad = rn.backward(params, tape, upstream)
    assert tape == []
    theta = rn.params_to_vector(params)
    assert grad.shape == theta.shape

    def f(vec):
        return float(np.sum(upstream * rn.forward(rn.vector_to_params(vec), s)))

    for _ in range(3):
        v = rng.normal(size=theta.size)
        h = 1e-6
        fd = (f(theta + h * v) - f(theta - h * v)) / (2.0 * h)
        assert fd == pytest.approx(grad @ v, rel=1e-6, abs=1e-9)


def row_reference(params, stencils):
    """Features and weights with numpy's row reductions over a trailing axis.

    This is ``forward`` as it was written before it worked column by column:
    the four rationals one by one, ``np.linalg.norm`` over each row and the
    softmax's max and sum over each row.
    """
    s = np.asarray(stencils, dtype=float)
    um1, u0, up1 = s[..., 0], s[..., 1], s[..., 2]
    deltas = [
        np.abs(u0 - um1),
        np.abs(up1 - u0),
        np.abs(up1 - um1),
        np.abs(up1 - 2.0 * u0 + um1),
    ]
    p, q = params.feat
    alpha = np.stack([rn._rational(p[:, j, 0], q[:, j, 0], d) for j, d in enumerate(deltas)], -1)
    norm = np.linalg.norm(alpha, axis=-1, keepdims=True)
    small = norm < 1e-14
    feats = np.where(small, 0.0, alpha / np.where(small, 1.0, norm))
    a = feats
    for W, b, p, q in params.layers:
        a = rn._rational(p, q, a @ W.T + b)
    z = a @ params.head_W.T + params.head_b
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return feats, e / e.sum(axis=-1, keepdims=True)


def adversarial_stencils():
    """Rows at magnitudes 1e-300 to 1e300, denormals, constant rows and NaN rows."""
    base = np.random.default_rng(4).normal(size=(300, 3))
    scales = [10.0**k for k in range(-300, 301, 50)]
    specials = np.array(
        [
            [0.0, 0.0, 0.0],
            [7.0, 7.0, 7.0],
            [0.0, 5e-324, 1e-320],
            [-5e-324, 0.0, 5e-324],
            [0.0, 1.0, 1.0],
            [np.nan, 0.0, 1.0],
            [0.0, np.inf, 0.0],
            [1e300, -1e300, 1e300],
        ]
    )
    return np.concatenate([scale * base for scale in scales] + [specials])


def test_forward_column_arithmetic_matches_row_reductions():
    s = adversarial_stencils()
    nets = [random_params(seed, noise=0.3) for seed in range(3)]
    vanishing = random_params(3)
    vanishing.feat[0][0] = 0.0  # tiny and constant rows then take the zero-norm branch
    nets.append(vanishing)
    with np.errstate(all="ignore"):
        for params in nets:
            feats, w = row_reference(params, s)
            got_feats = rn.rational_features(s, params.feat)
            got_w = rn.forward(params, s)
            assert np.array_equal(got_feats, feats, equal_nan=True)
            assert np.array_equal(got_w, w, equal_nan=True)
            assert np.all(np.isnan(got_w[-3:]))  # NaN rows stay NaN pairs
        assert np.any(np.all(rn.rational_features(s, vanishing.feat) == 0.0, axis=-1))

        # the softmax alone, on logits with infinities and NaN
        z = np.concatenate(
            [
                np.random.default_rng(5).normal(size=(200, 2)) * 10.0**k
                for k in (-300, -5, 0, 2, 300)
            ]
            + [np.array([[np.inf, 1.0], [-np.inf, -np.inf], [np.nan, 0.0], [0.0, -0.0]])]
        )
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        assert np.array_equal(
            rn._softmax(z), e / e.sum(axis=-1, keepdims=True), equal_nan=True
        )


def test_short_row_and_column_sums_keep_numpys_bits():
    g = np.random.default_rng(7)
    with np.errstate(all="ignore"):
        for k in (2, 4):
            for n in (1, 2, 5, 300, 2048):
                x = g.normal(size=(n, k)) * 10.0 ** g.integers(-300, 300, size=(n, k))
                x[g.random((n, k)) < 0.3] = 0.0
                x[g.random((n, k)) < 0.3] = -0.0
                x[: n // 10] = -0.0  # rows of -0.0 sum to +0.0
                if n > 2:
                    x[-1, 0], x[-2, -1] = np.inf, -np.inf
                assert same_bits(rn._row_sum(*x.T), np.sum(x, axis=1))
                # backward's bias sums
                assert same_bits(np.einsum("ij->j", x), x.sum(axis=0))
                x[x == 0.0] = -0.0
                assert same_bits(np.einsum("ij->j", x[:3]), x[:3].sum(axis=0))


def reference_rational_backward(p, q, x, upstream):
    """``_rational_backward`` as it was before the tape kept each rational's terms.

    It evaluates the terms again, and sums with numpy's reductions.
    """
    num, den_raw, den = rn._rational_terms(p, q, x)
    inv_den = 1.0 / den
    t_p = upstream * inv_den
    y_s = num * np.sign(den_raw) * inv_den
    t_q = -t_p * y_s
    dnum = (3.0 * p[3] * x + 2.0 * p[2]) * x + p[1]
    dx = t_p * (dnum - y_s * (2.0 * q[2] * x + q[1]))
    x2 = x * x
    dp = [t_p.sum(-1), (t_p * x).sum(-1), (t_p * x2).sum(-1), (t_p * x2 * x).sum(-1)]
    dq = [t_q.sum(-1), (t_q * x).sum(-1), (t_q * x2).sum(-1)]
    return dx, np.stack(dp), np.stack(dq)


def reference_backward(params, stencils, d_weights):
    """``forward``'s tape and ``backward`` as they were before the tape kept
    each rational's terms: a row reference for the gradient.

    The tape held the deltas, the normalization's output, mask and divisor,
    each dense layer's input and pre-activation, and the head's input and
    output; the softmax and normalization backward summed over rows with
    ``np.sum(..., axis=1)`` and the biases with ``sum(axis=0)``.
    """
    rows = np.asarray(stencils, dtype=float).reshape(-1, 3)
    deltas = rn._deltas(np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows)
    a, small, safe = rn._features(deltas, *params.feat)
    tape = [deltas, (a, small, safe)]
    for W, b, p, q in params.layers:
        z = a @ W.T
        z += b
        tape.append((a, z))
        a = rn._rational(p, q, z)
    z = a @ params.head_W.T
    z += params.head_b
    w = rn._softmax(z)
    tape.append((a, w))

    grad = np.zeros_like(params.theta)
    at = rn._slices(params.arch)

    def put(path, value):
        grad[at[path]] = np.ravel(value)

    a, w = tape.pop()
    if len(w) > len(d_weights):
        d_weights = np.concatenate([d_weights, np.zeros_like(d_weights)])
    d_z = w * (d_weights - np.sum(d_weights * w, axis=1, keepdims=True))
    put(("head", "W"), d_z.T @ a)
    put(("head", "b"), d_z.sum(axis=0))
    d_a = d_z @ params.head_W
    for i, (W, _, p, q) in reversed(list(enumerate(params.layers))):
        a_in, z = tape.pop()
        d_z, dp, dq = reference_rational_backward(p, q, z.ravel(), d_a.ravel())
        put(("layers", i, "act", "p"), dp)
        put(("layers", i, "act", "q"), dq)
        d_z = d_z.reshape(z.shape)
        put(("layers", i, "W"), d_z.T @ a_in)
        put(("layers", i, "b"), d_z.sum(axis=0))
        d_a = d_z @ W
    a, small, safe = tape.pop()
    d_unit = d_a - a * np.sum(d_a * a, axis=1, keepdims=True)
    d_alpha = np.where(small, 0.0, d_unit.T / safe)
    deltas = tape.pop()
    _, dp, dq = reference_rational_backward(*params.feat, deltas, d_alpha)
    for j in range(rn.FEATURE_COUNT):
        put(("feat", j, "p"), dp[:, j])
        put(("feat", j, "q"), dq[:, j])
    return grad


def tape_gradient(params, stencils, d_weights):
    tape = []
    rn.forward(params, stencils, tape)
    return rn.backward(params, tape, d_weights)


def same_gradient(a, b):
    """Bit for bit, but any NaN matches any NaN: which NaN an operation on two
    NaNs returns is the compiled loop's choice, and a non-finite gradient
    step is skipped in training."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan])


def upstream_for(g, n):
    """Random output gradients with some +0.0 and -0.0 entries."""
    d = g.normal(size=(n, 2))
    d[g.random((n, 2)) < 0.1] = 0.0
    d[g.random((n, 2)) < 0.1] = -0.0
    return d


def test_backward_keeps_the_reference_bits():
    g = np.random.default_rng(6)
    finite = adversarial_stencils()[:-3]  # the NaN, inf and 1e300 rows end the set
    nets = [random_params(seed, noise=0.3) for seed in range(3)]
    vanishing = random_params(3)
    vanishing.feat[0][0] = 0.0  # tiny and constant rows then take the zero-norm branch
    nets.append(vanishing)
    flat = np.repeat(g.normal(size=(20, 1)) * 10.0 ** g.integers(-300, 300, size=(20, 1)), 3, 1)
    cases = [finite, flat, finite[:1], flat[:1], np.concatenate([finite[::7], flat])]
    with np.errstate(all="ignore"):
        assert np.any(np.all(rn.rational_features(finite, vanishing.feat) == 0.0, axis=-1))
        for params in nets:
            for s in cases:
                d_w = upstream_for(g, len(s))
                assert same_gradient(tape_gradient(params, s, d_w), reference_backward(params, s, d_w))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    arch=st.sampled_from([(4,), (4, 4), (4, 4, 4), (4, 8, 4, 4)]),
    n=st.integers(1, 300),
    flat_share=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_backward_keeps_the_reference_bits_on_random_networks(seed, arch, n, flat_share):
    g = np.random.default_rng(seed)
    params = rn.init_params(arch, rng=np.random.default_rng(int(g.integers(0, 2**16))))
    params.theta[:] += 0.3 * g.normal(size=params.theta.size)
    s = g.normal(size=(n, 3)) * 10.0 ** g.integers(-300, 300, size=(n, 1))
    s[g.random(n) < flat_share] = g.normal()
    d_w = upstream_for(g, n)
    with np.errstate(all="ignore"):
        assert same_gradient(tape_gradient(params, s, d_w), reference_backward(params, s, d_w))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    layout=st.sampled_from(["()", "(1,)", "(k,)", "(k, 1)", "(k, m)"]),
    k=st.integers(2, 5),
    m=st.integers(2, 5),
)
def test_each_stencil_keeps_its_bits_whatever_the_input_shape(seed, layout, k, m):
    g = np.random.default_rng(seed)
    params = random_params(int(g.integers(0, 2**16)), noise=0.3)
    lead = {"()": (), "(1,)": (1,), "(k,)": (k,), "(k, 1)": (k, 1), "(k, m)": (k, m)}[layout]
    n = int(np.prod(lead))
    # a 2-D batch of n + 2 rows, some of them flat stencils; the input is its
    # first n rows in the drawn shape
    batch = g.normal(size=(n + 2, 3)) * 10.0 ** g.integers(-8, 8, size=(n + 2, 1))
    batch[g.random(n + 2) < 0.2] = g.normal()
    x = batch[:n].reshape(*lead, 3)
    with np.errstate(all="ignore"):
        for f, width in (
            (lambda s: rn.forward(params, s), (2,)),
            (lambda s: rn.rational_features(s, params.feat), (4,)),
            (lambda s: rn.nn_reconstruct(params, s), ()),
        ):
            got = f(x)
            assert got.shape == lead + width
            assert same_bits(got.reshape(n, *width), f(batch)[:n])


@pytest.mark.parametrize("shape", [(4, 5), (2, 2)])
def test_stencils_need_a_last_axis_of_three(shape):
    params = random_params(0)
    s = np.ones(shape)
    for f in (rn.forward, rn.nn_reconstruct, lambda p, x: rn.rational_features(x, p.feat)):
        with pytest.raises(ValueError, match="last axis of length 3"):
            f(params, s)


def test_eno_filter_examples():
    c = rn.C_ENO_DEFAULT
    assert rn.eno_filter(0.5, 0.5, c) == 0.5
    assert rn.eno_filter(1e-4, 1.0 - 1e-4, c) == 0.0
    assert rn.eno_filter(1.0 - 1e-4, 1e-4, c) == 1.0
    assert rn.eno_filter(2e-4, 1.0 - 2e-4, c) == 2e-4  # >= keeps the value


def test_eno_filter_idempotent():
    # uniform pairs with w1 = 1 - w0 exactly never sit at c_eno with a pair sum
    # off by an ulp, so add rows that do: w0 one ulp above c_eno with the sum
    # one ulp above 1 (a renormalizing filter pushes w0 below c_eno), and w1
    # exactly c_eno with 1 - w0 below it; then softmax rows of the network,
    # about an eighth of which do not sum to exactly 1
    u = rng.uniform(0, 1, 400)
    uniform = np.column_stack([u, 1.0 - u])
    w0 = np.nextafter(2e-4, 1)
    edge = np.array(
        [[w0, np.nextafter(1 - w0, 2)], [np.nextafter(1 - 2e-4, 2), 2e-4]]
    )
    nets = [
        rn.forward(
            random_params(seed, noise=0.3),
            np.random.default_rng(seed).normal(size=(2000, 3)),
        )
        for seed in range(5)
    ]
    c = rn.C_ENO_DEFAULT
    for w in [uniform, edge, *nets]:
        once = rn.eno_filter(w[:, 0], w[:, 1], c)
        assert np.array_equal(rn.eno_filter(once, 1.0 - once, c), once)
        pair = np.stack([once, 1.0 - once])
        assert np.all((pair == 0.0) | (pair >= c))
    assert rn.eno_filter(*edge[0], c) == w0


def test_invariants_of_c_eno_and_arch_are_checked_where_they_are_stored():
    theta = rn.params_to_vector(random_params(0))
    for c_eno in (0.0, -1e-3, 0.5, 0.7, np.nan, np.inf):
        with pytest.raises(ValueError, match="c_eno"):
            rn.vector_to_params(theta, rn.DEFAULT_ARCH, c_eno)
    # theta has the length each block table would give, so only arch is at fault
    for arch, n in (((5, 4), 69), ((4, 0), 37)):
        with pytest.raises(ValueError, match="arch"):
            rn.NetParams(np.zeros(n), arch)
        with pytest.raises(ValueError, match="arch"):
            rn.init_params(arch, rng=np.random.default_rng(0))
    assert np.isnan(rn.eno_filter(np.nan, np.nan, rn.C_ENO_DEFAULT))


def test_nn_reconstruct_constant_and_convex_hull():
    for seed in range(5):
        params = random_params(seed)
        assert rn.nn_reconstruct(params, np.array([3.3, 3.3, 3.3])) == pytest.approx(
            3.3, abs=1e-12
        )
        s = np.random.default_rng(seed).normal(size=(300, 3))
        vals = rn.nn_reconstruct(params, s)
        i0 = 1.5 * s[:, 1] - 0.5 * s[:, 0]
        i1 = 0.5 * (s[:, 1] + s[:, 2])
        lo = np.minimum(i0, i1) - 1e-12
        hi = np.maximum(i0, i1) + 1e-12
        assert np.all((vals >= lo) & (vals <= hi))


def test_nn_reconstruct_shift_equivariance():
    params = random_params(8)
    s = rng.integers(-64, 64, size=(100, 3)) / 16.0
    base = rn.nn_reconstruct(params, s)
    shifted = rn.nn_reconstruct(params, s + 2.0)
    assert np.allclose(shifted, base + 2.0, rtol=0, atol=1e-12)


def whole_batch_reference(params, stencils):
    """``nn_reconstruct`` as one formula on the whole batch: forward, filter, combine."""
    s = np.asarray(stencils, dtype=float)
    w = rn.forward(params, s)
    w0 = rn.eno_filter(w[..., 0], w[..., 1], params.c_eno)
    i0, i1 = interpolants3(s[..., 0], s[..., 1], s[..., 2])
    return w0 * i0 + (1.0 - w0) * i1


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes()


def test_flat_stencils_share_one_forward_call_with_the_same_bits(monkeypatch):
    calls = []
    forward = rn.forward

    def counting_forward(params, stencils, tape=None):
        calls.append(np.shape(stencils))
        return forward(params, stencils, tape)

    monkeypatch.setattr(rn, "forward", counting_forward)
    g = np.random.default_rng(12)
    live = g.normal(size=(8, 3)) * 10.0 ** g.integers(-6, 6, size=(8, 1))
    # four zero deltas at every magnitude, signed zeros and denormals; the last
    # two rows overflow 2 * u0, so their second difference is inf, not 0
    flats = np.array([[0.0] * 3, [-0.0, 0.0, -0.0], [3.3] * 3, [-1e-300] * 3, [5e-324] * 3,
                      [1e300] * 3, [np.nextafter(2.0**1023, 0)] * 3, [2.0**1023] * 3,
                      [-1.7e308] * 3])
    odd = np.array([[np.nan, 0.0, 1.0], [0.0, np.inf, 0.0], [np.inf] * 3, [np.nan] * 3,
                    [1.0, 1.0, np.inf]])
    cases = {
        "no live row": flats[:5],
        "one live row": np.concatenate([flats[:3], live[:1], flats[3:6]]),
        "two live rows": np.concatenate([live[:1], flats, live[1:2]]),
        "all rows live": live,
        "flat first and last": np.concatenate([flats[2:3], live, flats[4:5]]),
        "nan and inf rows": np.concatenate([flats[:2], odd, live[:3], flats[5:]]),
        "two flat rows": flats[2:4],
        "one flat and one live row": np.concatenate([flats[:1], live[:1]]),
    }
    with np.errstate(all="ignore"):
        for seed in range(4):
            params = random_params(seed, noise=0.3)
            for name, s in cases.items():
                for x in (s, np.ascontiguousarray(s.T).T):  # both column layouts
                    calls.clear()
                    got = rn.nn_reconstruct(params, x)
                    n_live = int(np.sum(~((x[:, 0] == x[:, 1]) & (x[:, 1] == x[:, 2])
                                         & (np.abs(x[:, 1]) < 2.0**1023))))
                    rows = len(x) if n_live == len(x) else n_live + 1
                    assert calls == [(rows, 3)], name
                    assert same_bits(got, whole_batch_reference(params, x)), name
            got = rn.nn_reconstruct(params, cases["nan and inf rows"])
            assert np.all(np.isnan(got[2:7]))  # non-finite stencils stay NaN
            # n-D input, and inputs of one-row matmuls
            s = np.concatenate([flats, live, odd[:4], flats[:3]])
            for x in (s.reshape(4, 6, 3), s[5:17, None, :], s[0], s[:1]):
                assert same_bits(rn.nn_reconstruct(params, x), whole_batch_reference(params, x))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
    shift=st.floats(-100.0, 100.0),
)
def test_flat_rows_change_no_other_row(seed, values, shift):
    g = np.random.default_rng(seed)
    params = random_params(int(g.integers(0, 4)), noise=0.3)
    n = int(g.integers(1, 12))
    s = g.normal(size=(n, 3)) * 10.0 ** g.integers(-8, 8, size=(n, 1))
    s[g.random(n) < 0.3] = g.normal()  # flat rows may already be there
    at = np.sort(g.integers(0, n + 1, size=len(values))) + np.arange(len(values))
    mixed = np.insert(s, at - np.arange(len(values)), np.array(values)[:, None], axis=0)
    assert np.array_equal(mixed[at], np.repeat(np.array(values)[:, None], 3, axis=1))
    with np.errstate(all="ignore"):
        got = rn.nn_reconstruct(params, mixed)
        others = np.delete(got, at)
        assert same_bits(others, rn.nn_reconstruct(params, s))
        assert same_bits(got, whole_batch_reference(params, mixed))
    # a flat row's face value moves with a constant added to the stencil
    small = np.clip(values, -100.0, 100.0)[:, None]
    flat = np.repeat(small, 3, axis=1)
    base = rn.nn_reconstruct(params, np.concatenate([s, flat]))[n:]
    moved = rn.nn_reconstruct(params, np.concatenate([s, flat + shift]))[n:]
    assert np.allclose(moved, base + shift, rtol=0, atol=1e-12)
    assert np.allclose(base, small[:, 0], rtol=0, atol=1e-12)


def test_relu_fit_quality():
    # the stored ReLU approximant every rational of init_params starts from
    p, q = np.array(rn.RELU_P), np.array(rn.RELU_Q)
    x = np.linspace(-3.0, 3.0, 4001)
    assert np.max(np.abs(rn._rational(p, q, x) - np.maximum(x, 0.0))) <= 0.0948
    den = (q[2] * x + q[1]) * x + q[0]
    assert np.min(np.abs(den)) >= 0.99  # no pole on the span
    params = rn.init_params(arch=(4, 8, 4), rng=np.random.default_rng(0))
    stack_p, stack_q = params.feat
    rationals = [(stack_p[:, j, 0], stack_q[:, j, 0]) for j in range(4)]
    for r_p, r_q in rationals + [layer[2:] for layer in params.layers]:
        assert r_p.tobytes() == p.tobytes() and r_q.tobytes() == q.tobytes()


def test_every_block_is_one_disjoint_view_of_theta():
    for arch in ((4,), (4, 4, 4), (4, 8, 3)):
        params = rn.init_params(arch, rng=np.random.default_rng(3))
        params.theta[:] = np.random.default_rng(4).normal(size=params.theta.size)  # as Adam writes
        for clone in (params, pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
            p, q = clone.feat
            assert p.shape == (4, 4, 1) and q.shape == (3, 4, 1)
            assert len(clone.layers) == len(arch) - 1
            blocks = [p, q, *(v for layer in clone.layers for v in layer)]
            blocks += [clone.head_W, clone.head_b]
            # no two overlap, each lies in theta, and together they cover it
            assert sum(b.size for b in blocks) == clone.theta.size
            for i, a in enumerate(blocks):
                assert np.shares_memory(a, clone.theta)
                assert not any(np.shares_memory(a, b) for b in blocks[i + 1 :])
            # each view holds its weight-file block
            views = {("feat", j, k): c[:, j, 0] for j in range(4) for k, c in zip("pq", (p, q))}
            for i, layer in enumerate(clone.layers):
                keys = [("W",), ("b",), ("act", "p"), ("act", "q")]
                views.update({("layers", i, *k): v for k, v in zip(keys, layer)})
            views["head", "W"], views["head", "b"] = clone.head_W, clone.head_b
            at = rn._slices(clone.arch)
            assert list(views) == list(at)
            for path, shape in rn._blocks(clone.arch):
                assert views[path].shape == shape
                assert np.array_equal(views[path].ravel(), clone.theta[at[path]])


def test_weight_file_walks_the_block_table():
    for arch in ((4,), (4, 8, 3)):
        params = rn.init_params(arch, rng=np.random.default_rng(5))
        text = rn.params_to_json(params)
        doc = json.loads(text)
        assert list(doc) == ["format_version", "arch", "c_eno", "feat", "layers", "head"]
        assert len(doc["layers"]) == len(arch) - 1
        if len(arch) > 1:
            assert list(doc["layers"][0]) == ["W", "b", "act"]
        assert rn.params_to_json(rn.params_from_json(text)) == text
        assert rn.params_from_json(text).theta.tobytes() == params.theta.tobytes()


def test_init_rationals_near_relu():
    params = rn.init_params(rng=np.random.default_rng(1))
    for x, target in [(-1.0, 0.0), (0.0, 0.0), (1.0, 1.0)]:
        p, q = params.feat
        assert abs(rn._rational(p[:, 0, 0], q[:, 0, 0], x) - target) <= 0.1


def test_init_lecun_variance():
    entries = []
    for seed in range(700):
        params = rn.init_params(rng=np.random.default_rng(seed))
        entries.append(params.layers[0][0].ravel())
    entries = np.concatenate(entries)  # 700 * 16 = 11200 draws, fan_in 4
    n = entries.size
    var = entries.var()
    assert abs(var - 0.25) <= 3.0 * 0.25 * np.sqrt(2.0 / n)
    assert np.all(params.layers[0][1] == 0.0)


def test_init_determinism():
    a = rn.init_params(rng=np.random.default_rng(17))
    b = rn.init_params(rng=np.random.default_rng(17))
    assert np.array_equal(rn.params_to_vector(a), rn.params_to_vector(b))
    with pytest.raises(TypeError):  # no hidden default generator
        rn.init_params()


def test_init_rejects_wrong_feature_width():
    with pytest.raises(ValueError):
        rn.init_params(arch=(5, 4), rng=np.random.default_rng(0))


def test_count_params_conventions():
    params = rn.init_params(rng=np.random.default_rng(0))
    assert rn.count_params(params) == 92
    assert sum(c[:, 0].size for c in params.feat) == 7  # one feature's rational
    W, b, *_ = params.layers[0]
    assert W.size + b.size == 20
    shallow = rn.init_params(arch=(4, 4), rng=np.random.default_rng(0))
    assert rn.count_params(shallow) == 28 + 27 + 10


def test_count_flops_and_report():
    params = rn.init_params(rng=np.random.default_rng(0))
    flops = rn.count_flops(params)
    assert flops > 0
    report = rn.accounting_report(params)
    assert str(rn.count_params(params)) in report
    assert str(flops) in report
    assert "105" in report and "508" in report  # published reference accounting
    assert 90 <= rn.count_params(params) <= 125


def test_vector_roundtrip():
    params = random_params(5)
    vec = rn.params_to_vector(params)
    back = rn.params_to_vector(rn.vector_to_params(vec))
    assert np.array_equal(vec, back)
    with pytest.raises(ValueError):
        rn.vector_to_params(vec[:-1])


def test_vector_writes_through_and_never_aliases():
    params = random_params(7)
    before = rn.params_to_vector(params)
    params.layers[0][0][1, 2] += 1.0  # a write through a layer's W reaches the vector
    after = rn.params_to_vector(params)
    assert np.flatnonzero(after != before).size == 1
    vec = rn.params_to_vector(params)
    built = rn.vector_to_params(vec)
    assert not np.shares_memory(rn.params_to_vector(built), vec)
    vec[:] = 0.0  # nor does the built network see later writes to its input
    assert np.array_equal(rn.params_to_vector(built), after)
    for clone in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
        assert not np.shares_memory(clone.theta, params.theta)
        clone.head_b[0] += 1.0  # a copy's views are views of the copy's vector
        assert clone.theta[-2] == after[-2] + 1.0 and params.theta[-2] == after[-2]


def test_weight_file_roundtrip_bit_stable(tmp_path):
    params = random_params(6)
    path = tmp_path / "weights.json"
    rn.save_params(params, path)
    loaded = rn.load_params(path)
    assert np.array_equal(rn.params_to_vector(params), rn.params_to_vector(loaded))
    assert loaded.arch == params.arch
    assert loaded.c_eno == params.c_eno
    rn.save_params(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_weight_file_validation_names_first_bad_field(tmp_path):
    params = rn.init_params(rng=np.random.default_rng(0))
    text = rn.params_to_json(params)
    doc = json.loads(text)
    del doc["head"]
    with pytest.raises(ValueError, match="'head'"):
        rn.params_from_json(json.dumps(doc))

    doc = json.loads(text)
    doc["layers"][1]["b"] = [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match=r"layers\[1\].b"):
        rn.params_from_json(json.dumps(doc))

    doc = json.loads(text)
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="format_version"):
        rn.params_from_json(json.dumps(doc))

    doc = json.loads(text)
    doc["feat"][2]["q"][0] = float("nan")
    with pytest.raises(ValueError, match=r"feat\[2\].q"):
        rn.params_from_json(
            json.dumps(doc).replace("NaN", '"nan"').replace('"nan"', "NaN")
        )

    # a string or fractions for arch, a string for c_eno, a bool for the version
    for field, value in (("arch", "444"), ("arch", [4, 4.9, 4.2]), ("c_eno", "0.001"),
                         ("format_version", True)):
        doc = json.loads(text)
        doc[field] = value
        with pytest.raises(ValueError, match=f"field '{field}'"):
            rn.params_from_json(json.dumps(doc))
    # out-of-range values are refused where they are interpreted, naming the field
    for field, value in (("c_eno", 0.7), ("c_eno", 0), ("arch", [5, 4, 4]), ("arch", [4, 0])):
        doc = json.loads(text)
        doc[field] = value
        with pytest.raises(ValueError, match=field):
            rn.params_from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["arch"] = [4.0, 4, 4.0]  # integral floats are integers, as in a config file
    assert rn.params_from_json(json.dumps(doc)).theta.tobytes() == params.theta.tobytes()

    with pytest.raises(ValueError, match="JSON"):
        rn.params_from_json("not json at all")


def test_nn_scheme_width_and_name():
    scheme = rn.NNScheme(random_params(2))
    assert scheme.width == 3 and scheme.name == "weno3-nn"
