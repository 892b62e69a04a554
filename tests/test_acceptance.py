"""Acceptance gate: one test per criterion, each printing a verdict line.

The network criteria train a six-seed sweep from scratch on the full default
dataset (several minutes, one model per core at a time) and evaluate the model
selected by the sine-step convergence criterion; run with ``-s`` to see the
per-criterion report lines.
"""

import os
from fractions import Fraction

import numpy as np
import pytest

from wenonet import analysis as an
from wenonet import funcspace as fs
from wenonet import ratnet as rn
from wenonet import solver as sv
from wenonet import train as tr
from wenonet.reconstruct import (
    IDEAL_WEIGHTS3,
    IdealWeights3,
    Quick,
    Weno3JS,
    Weno3Z,
    Weno5JS,
)

GRIDS = (16, 32, 64, 128, 256, 512, 1024)

#: Sweep of six (hyperparameters, seed) variants; the loss weights mirror the
#: published convergence-selected configurations, the optimizer budget is
#: calibrated for saturation of the hard-threshold regime on one CPU core.
SWEEP_VARIANTS = (
    (0.01, 0.1, 0),
    (0.03, 0.03, 1),
    (0.1, 0.3, 2),
    (0.01, 0.3, 3),
    (0.3, 0.1, 4),
    (0.1, 0.1, 5),
)
SWEEP_PEAK_LR = 2e-3
SWEEP_STEPS = 45000
SWEEP_BATCH = 2048

#: The schemes criteria 3-5 compare, in the order their report lines list them.
COMPARED = ("weno3-js", "weno3-z", "weno5-js", "weno3-nn")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def sweep():
    dataset = fs.build_dataset(fs.DatasetConfig(seed=0))
    val = fs.build_dataset(
        fs.DatasetConfig(pairs_per_grid=4096, seed=1000003)
    )
    configs = [
        tr.TrainConfig(
            peak_lr=SWEEP_PEAK_LR,
            warmup_steps=SWEEP_STEPS // 20,
            total_steps=SWEEP_STEPS,
            batch_size=SWEEP_BATCH,
            seed=seed,
            hyper=tr.LossHyper(alpha=alpha, beta_d=beta_d),
        )
        for alpha, beta_d, seed in SWEEP_VARIANTS
    ]
    return tr.run_sweep(dataset, configs, val, jobs=len(os.sched_getaffinity(0)))


@pytest.fixture(scope="module")
def selected(sweep):
    model = tr.select_model(sweep, "conv-sine-step")
    return rn.NNScheme(model.params), model


@pytest.fixture(scope="module")
def scores(selected):
    """Scorecard rows by scheme name: the figures of criteria 3-6 and 10."""
    nn_scheme, _ = selected
    rows = an.scorecard([Weno3JS(), Weno3Z(), Weno5JS(), Quick(), nn_scheme])
    return {row.scheme: row for row in rows}


def test_criterion_1_reconstruction_orders():
    rows = an.convergence_study(
        (Weno3JS(), IdealWeights3(), Weno5JS()), fs.eval_function("sine_cubed"), GRIDS
    )
    slopes = {r.scheme: r.slope for r in rows}
    ok = (
        1.8 <= slopes["weno3-js"] <= 3.2
        and slopes["ideal3"] >= 2.8
        and slopes["weno5-js"] >= 4.5
    )
    report(
        "1",
        ok,
        f"interpolation slopes on sin^3: weno3-js {slopes['weno3-js']:.2f} "
        f"(need [1.8, 3.2]), ideal3 {slopes['ideal3']:.2f} (need >= 2.8), "
        f"weno5-js {slopes['weno5-js']:.2f} (need >= 4.5)",
    )
    assert 1.8 <= slopes["weno3-js"] <= 3.2
    assert slopes["ideal3"] >= 2.8
    assert slopes["weno5-js"] >= 4.5


def test_criterion_2_selected_model_orders(selected):
    _, model = selected
    order_h = model.orders["sine_step"]
    order_g = model.orders["sine_cubed"]
    ok = abs(order_h - 3.0) <= 0.5 and order_g > 2.0
    report(
        "2",
        ok,
        f"selected model (seed {model.config.seed}, alpha "
        f"{model.config.hyper.alpha}, beta_d {model.config.hyper.beta_d}): "
        f"order on sine-step {order_h:.2f} (need within 0.5 of 3.0), "
        f"order on sin^3 {order_g:.2f} (need > 2.0)",
    )
    assert abs(order_h - 3.0) <= 0.5
    assert order_g > 2.0


def test_criterion_3_advection_cosine(scores):
    errs = {name: scores[name].cosine_l1 for name in COMPARED}
    ratio = scores["weno3-nn"].cosine_ratio
    w5_best = errs["weno5-js"] == min(errs.values())
    ok = ratio <= 0.2 and w5_best
    report(
        "3",
        ok,
        f"cosine advection final L1 at nx=256: "
        + ", ".join(f"{k} {v:.3e}" for k, v in errs.items())
        + f"; nn/js ratio {ratio:.3f} (need <= 0.2); weno5-js lowest: {w5_best}",
    )
    assert ratio <= 0.2
    assert w5_best


def test_criterion_4_sigmoid_convergence(scores):
    slopes = {name: scores[name].sigmoid_slope for name in COMPARED}
    ratio = scores["weno3-nn"].sigmoid_coarse_ratio
    in_band = {k: 1.2 <= v <= 2.0 for k, v in slopes.items()}
    ok = all(in_band.values()) and ratio <= 0.6
    report(
        "4",
        ok,
        "sigmoid slopes over nx 64..512: "
        + ", ".join(f"{k} {v:.2f}" for k, v in slopes.items())
        + f" (need each in [1.2, 2.0]); nn/js error ratio at nx=64 "
        f"{ratio:.3f} (need <= 0.6)",
    )
    assert ratio <= 0.6
    for name in ("weno3-js", "weno3-z", "weno3-nn"):
        assert in_band[name], f"{name} slope {slopes[name]:.2f} outside [1.2, 2.0]"
    # The five-cell scheme resolves the k=100 fronts at the fine end of this
    # grid range and leaves the pre-asymptotic regime: its measured slope is
    # insensitive to the time step (spatially dominated), so the band cannot
    # hold for it in this implementation at the declared defaults.
    assert in_band["weno5-js"], (
        f"weno5-js slope {slopes['weno5-js']:.2f} outside [1.2, 2.0]: the "
        "fronts are resolved at nx=512, the scheme has left the "
        "pre-asymptotic regime this band describes"
    )


def test_criterion_5_burgers_shock(scores):
    overshoot = {name: scores[name].shock_overshoot for name in COMPARED}
    errs = {name: scores[name].shock_l1 for name in COMPARED}
    ok = all(v <= 1e-3 for v in overshoot.values()) and (
        errs["weno3-nn"] <= errs["weno3-js"]
    )
    report(
        "5",
        ok,
        "shock overshoots: "
        + ", ".join(f"{k} {v:.1e}" for k, v in overshoot.items())
        + f" (need <= 1e-3); L1 nn {errs['weno3-nn']:.3e} vs js "
        f"{errs['weno3-js']:.3e} (need nn <= js)",
    )
    for name, v in overshoot.items():
        assert v <= 1e-3, f"{name} overshoots by {v:.2e}"
    assert errs["weno3-nn"] <= errs["weno3-js"]


def test_criterion_6_burgers_transonic(scores):
    errs = {
        name: scores[name].transonic_l1 for name in ("weno3-js", "weno5-js", "weno3-nn")
    }
    ratio = scores["weno3-nn"].transonic_ratio
    ok = ratio <= 1.2
    report(
        "6",
        ok,
        f"transonic rarefaction L1: "
        + ", ".join(f"{k} {v:.3e}" for k, v in errs.items())
        + f"; nn/weno5 ratio {ratio:.3f} (need <= 1.2)",
    )
    assert ratio <= 1.2


def test_criterion_7_gradient_oracle():
    rng = np.random.default_rng(2024)
    hyper = tr.LossHyper(alpha=0.1, beta_d=0.3, beta_w=1e-5)
    checked = 0
    worst = 0.0
    for trial in range(2):
        params = rn.init_params(rng=np.random.default_rng(trial))
        theta = rn.params_to_vector(params)
        theta = theta + 0.05 * rng.normal(size=theta.size)
        s = rng.normal(size=(48, 3))
        y = np.clip(rng.normal(size=48), s.min(axis=1), s.max(axis=1))
        _, grad, _ = tr.loss_and_grad(rn.vector_to_params(theta), s, y, hyper)

        def loss_of(vec):
            return tr.loss_and_grad(rn.vector_to_params(vec), s, y, hyper)[0]

        for i in rng.choice(theta.size, size=50, replace=False):
            e = np.zeros_like(theta)
            e[i] = 1e-6
            fd = (loss_of(theta + e) - loss_of(theta - e)) / 2e-6
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, rel)
            checked += 1
            assert rel <= 1e-4, f"coordinate {i}: analytic {grad[i]}, fd {fd}"
    report("7", True, f"{checked} gradient coordinates vs central differences, "
                      f"worst relative mismatch {worst:.2e} (need <= 1e-4)")


def test_criterion_8_exactness_suite(selected):
    nn_scheme, _ = selected
    schemes = [Weno3JS(), Weno3Z(), Weno5JS(), Quick(), IdealWeights3(), nn_scheme]
    base, slope = 0.37, -0.6
    worst = 0.0
    for scheme in schemes:
        r = (scheme.width - 1) // 2
        cells = base + slope * np.arange(-r, r + 1)
        exact = base + slope * 0.5
        for data, want in [(np.full(scheme.width, base), base), (cells, exact)]:
            got = float(scheme.face_value(data))
            worst = max(worst, abs(got - want))
    # quadratic exactness via the exact-rational oracle
    coeffs = [Fraction(3, 8), Fraction(-5, 4), Fraction(7, 8)]
    w = Fraction(1, 4)
    x0 = Fraction(1, 8)
    anti = lambda x: coeffs[0] * x + coeffs[1] * x**2 / 2 + coeffs[2] * x**3 / 3
    cells = [(x0 + (k - Fraction(1, 2)) * w, x0 + (k + Fraction(1, 2)) * w) for k in (-1, 0, 1)]
    um1, u0, up1 = ((anti(hi) - anti(lo)) / w for lo, hi in cells)
    face = x0 + w / 2
    exact_face = coeffs[0] + coeffs[1] * face + coeffs[2] * face**2
    assert (-um1 + 5 * u0 + 2 * up1) / 6 == exact_face  # symbolic identity
    got = float(IDEAL_WEIGHTS3[0] * (1.5 * float(u0) - 0.5 * float(um1))
                + IDEAL_WEIGHTS3[1] * 0.5 * (float(u0) + float(up1)))
    quad_err = abs(got - float(exact_face))
    ok = worst <= 1e-12 and quad_err <= 1e-12
    report("8", ok, f"constant/affine worst error {worst:.2e}, ideal-weight "
                    f"quadratic error {quad_err:.2e} (need <= 1e-12)")
    assert worst <= 1e-12
    assert quad_err <= 1e-12


def test_criterion_9_invariance_suite(selected):
    nn_scheme, model = selected
    rng = np.random.default_rng(3)
    s = rng.integers(-64, 64, size=(400, 3)) / 16.0
    shift_exact = all(
        np.array_equal(
            rn.forward(model.params, s), rn.forward(model.params, s + c)
        )
        for c in (1.0, -3.5, 64.0)
    )
    conv_worst = 0.0
    for scheme in (Weno3JS(), Weno3Z()):
        w0, w1 = scheme.weights(s)
        conv_worst = max(conv_worst, float(np.max(np.abs(w0 + w1 - 1.0))))
        conv_worst = max(conv_worst, float(-min(w0.min(), w1.min(), 0.0)))
    w_nn = rn.forward(model.params, s)
    conv_worst = max(conv_worst, float(np.max(np.abs(w_nn.sum(axis=1) - 1.0))))
    w0, w1 = nn_scheme.weights(s)
    idempotent = np.array_equal(rn.eno_filter(w0, w1, model.params.c_eno), w0)
    prob = sv.advection_cosine(T=5.0)
    grid = sv.default_grid(prob, 128)
    mass0 = float(np.sum(sv.initial_averages(prob, grid)) * grid.dx)
    drift = 0.0
    for scheme in (Weno3JS(), Weno5JS(), nn_scheme):
        final = sv.run(prob, grid, scheme).final_state
        drift = max(drift, abs(float(np.sum(final) * grid.dx) - mass0))
    ok = shift_exact and conv_worst <= 1e-12 and idempotent and drift <= 1e-10
    report(
        "9",
        ok,
        f"shift invariance exact: {shift_exact}; convexity defect "
        f"{conv_worst:.1e} (need <= 1e-12); eno idempotent: {idempotent}; "
        f"conservation drift {drift:.1e} (need <= 1e-10)",
    )
    assert shift_exact and idempotent
    assert conv_worst <= 1e-12
    assert drift <= 1e-10


def test_criterion_10_adr_suite(scores):
    max_diss = max(row.max_dissipation for row in scores.values())
    lo, hi = an.SCORECARD_BAND
    n_band = sum(lo <= k <= hi for k in an.default_kappa_grid())
    nn_less = scores["weno3-nn"].band_below_js
    ok = max_diss <= 1e-8 and nn_less
    report(
        "10",
        ok,
        f"max dissipation over all schemes/modes {max_diss:.2e} (need <= 1e-8); "
        f"nn |dissipation| < weno3-js on kappa*dx in [2, 3] "
        f"({n_band} modes): {nn_less}",
    )
    assert max_diss <= 1e-8
    assert nn_less


def test_criterion_11_accounting():
    params = rn.init_params(rng=np.random.default_rng(0))
    n = rn.count_params(params)
    flops = rn.count_flops(params)
    text = rn.accounting_report(params)
    ok = 90 <= n <= 125 and str(n) in text and "105" in text and str(flops) in text
    report(
        "11",
        ok,
        f"parameters {n} (need in [90, 125]), flops {flops}; report cites the "
        f"reference accounting (105 parameters / 508 flops) with the "
        f"convention note",
    )
    print(text)
    assert 90 <= n <= 125
    assert str(n) in text and "105" in text and "508" in text
    assert str(flops) in text
