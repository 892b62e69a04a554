"""Unit tests for losses, gradients, the optimizer, and model selection with its order estimator."""

import itertools
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from wenonet import analysis as an
from wenonet import funcspace as fs
from wenonet import ratnet as rn
from wenonet import train as tr
from wenonet.reconstruct import IDEAL_WEIGHTS3, IdealWeights3, Weno3JS


def noisy_params(seed=0, noise=0.05):
    params = rn.init_params(rng=np.random.default_rng(seed))
    vec = rn.params_to_vector(params)
    vec = vec + noise * np.random.default_rng(seed + 1).normal(size=vec.size)
    return rn.vector_to_params(vec)


def small_dataset(seed=0):
    return fs.build_dataset(
        fs.DatasetConfig(nx_values=(16, 32), pairs_per_grid=512, seed=seed)
    )


def test_gamma_examples():
    assert tr.gamma([0.0, 1.0, 2.0]) == 0.0
    assert tr.gamma([1.0, 1.0, 1.0]) == 0.0
    assert tr.gamma([0.0, 0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_gamma_bounded_on_random_stencils():
    s = np.random.default_rng(0).normal(size=(5000, 3))
    gam = tr.gamma(s)
    assert np.all((gam >= 0.0) & (gam <= 1.0))


def test_gamma_zero_to_the_zero_is_one():
    g = np.power(tr.gamma([1.0, 1.0, 1.0]), 0.0)
    assert g == 1.0


def test_loss_zero_when_output_matches_target_and_ideal_weights():
    # head crafted so the softmax emits the ideal weights for every stencil
    params = rn.init_params(rng=np.random.default_rng(0))
    params.head_W[:] = 0.0
    params.head_b[:] = np.log(IDEAL_WEIGHTS3)
    s = np.array([[0.0, 1.0, 2.0]])  # linear data: ideal weights are exact
    i0, i1 = 1.5 * s[0, 1] - 0.5 * s[0, 0], 0.5 * (s[0, 1] + s[0, 2])
    target = np.array([IDEAL_WEIGHTS3[0] * i0 + IDEAL_WEIGHTS3[1] * i1])
    hyper = tr.LossHyper(alpha=0.1, beta_d=0.5, beta_w=0.0)
    loss, _, parts = tr.loss_and_grad(params, s, target, hyper)
    assert loss == pytest.approx(0.0, abs=1e-24)
    assert parts["loss_r"] == 0.0 and parts["loss_d"] == pytest.approx(0.0, abs=1e-24)


def test_loss_gamma_zero_keeps_only_deviation_term():
    params = noisy_params(1)
    s = np.array([[0.0, 1.0, 2.0]])  # linear stencil, gamma = 0
    hyper = tr.LossHyper(alpha=0.5, beta_d=1.0, beta_w=0.0)
    w = rn.forward(params, s)
    expected_dev = float(np.sum((w - np.array(IDEAL_WEIGHTS3)) ** 2))
    i0, i1 = 1.5 - 0.0, 1.5
    target = np.array([0.77])
    loss, _, parts = tr.loss_and_grad(params, s, target, hyper)
    assert parts["loss_r"] == 0.0
    assert parts["loss_d"] == pytest.approx(expected_dev, rel=1e-12)


@pytest.mark.parametrize("batch", [32, 1])  # forward runs one row twice; backward pads
def test_gradient_matches_finite_differences(batch):
    rng = np.random.default_rng(5)
    params = noisy_params(4)
    theta = rn.params_to_vector(params)
    hyper = tr.LossHyper(alpha=0.1, beta_d=0.3, beta_w=1e-4)
    s = rng.normal(size=(batch, 3))
    y = np.clip(rng.normal(size=batch), s.min(axis=1), s.max(axis=1))

    def loss_of(vec):
        return tr.loss_and_grad(rn.vector_to_params(vec), s, y, hyper)[0]

    _, grad, _ = tr.loss_and_grad(params, s, y, hyper)
    h = 1e-6
    for i in rng.choice(theta.size, size=10, replace=False):
        e = np.zeros_like(theta)
        e[i] = h
        fd = (loss_of(theta + e) - loss_of(theta - e)) / (2.0 * h)
        assert abs(fd - grad[i]) <= 1e-4 * max(abs(fd), abs(grad[i]), 1e-8)


def test_loss_shift_invariance_of_training_signal():
    params = noisy_params(7)
    rng = np.random.default_rng(8)
    s = rng.integers(-64, 64, size=(64, 3)) / 16.0
    y = np.clip(rng.integers(-64, 64, size=64) / 16.0, s.min(axis=1), s.max(axis=1))
    hyper = tr.LossHyper(alpha=0.1, beta_d=0.3, beta_w=0.0)
    _, _, parts = tr.loss_and_grad(params, s, y, hyper)
    _, _, shifted = tr.loss_and_grad(params, s + 3.0, y + 3.0, hyper)
    assert shifted["loss_r"] == pytest.approx(parts["loss_r"], rel=1e-12)
    assert shifted["loss_d"] == pytest.approx(parts["loss_d"], rel=1e-12)


def test_loss_rejects_empty_batch():
    params = noisy_params(0)
    with pytest.raises(ValueError):
        tr.loss_and_grad(params, np.empty((0, 3)), np.empty(0), tr.LossHyper())


def test_evaluate_losses_matches_loss_and_grad_parts():
    params = noisy_params(2)
    val = small_dataset(seed=4)
    hyper = tr.LossHyper(alpha=0.1, beta_d=0.3)
    _, _, parts = tr.loss_and_grad(params, val.ubar, val.target, hyper)
    assert tr.evaluate_losses(params, val, hyper) == (parts["loss_r"], parts["loss_d"])


def test_lr_schedule_shape():
    cfg = tr.TrainConfig(peak_lr=1e-3, warmup_steps=1000, total_steps=20000)
    assert tr.lr_schedule(0, cfg) == 0.0
    assert tr.lr_schedule(1000, cfg) == pytest.approx(1e-3)
    assert tr.lr_schedule(500, cfg) == pytest.approx(5e-4)
    assert tr.lr_schedule(19999, cfg) < 0.01 * 1e-3
    with pytest.raises(ValueError):
        tr.lr_schedule(20000, cfg)


def test_adam_zero_gradient_keeps_params():
    theta = np.array([1.0, -2.0, 3.0])
    state = tr.AdamState.zeros(3)
    new, state = tr.adam_step(theta, np.zeros(3), state, lr=0.1)
    assert np.array_equal(new, theta)
    assert state.t == 1


def test_adam_constant_gradient_update_magnitude_approaches_lr():
    theta = np.zeros(1)
    state = tr.AdamState.zeros(1)
    g = np.array([0.37])
    lr = 1e-2
    prev = theta.copy()
    for _ in range(200):
        prev = theta.copy()
        theta, state = tr.adam_step(theta, g, state, lr)
    assert abs(abs((theta - prev).item()) - lr) < 1e-3 * lr


def test_adam_determinism():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(20, 5))
    runs = []
    for _ in range(2):
        theta = np.ones(5)
        state = tr.AdamState.zeros(5)
        for k in range(20):
            theta, state = tr.adam_step(theta, g[k], state, lr=1e-3)
        runs.append(theta)
    assert np.array_equal(runs[0], runs[1])


def test_train_zero_steps_returns_initialization():
    ds = small_dataset()
    cfg = tr.TrainConfig(total_steps=0, seed=12)
    model = tr.train_model(ds, cfg)
    init = rn.init_params(rng=fs.philox_rng(12, 2**63))
    assert np.array_equal(
        rn.params_to_vector(model.params), rn.params_to_vector(init)
    )


def test_train_loss_decreases_and_is_deterministic():
    ds = small_dataset()
    cfg = tr.TrainConfig(
        total_steps=400, batch_size=256, seed=3, peak_lr=2e-3
    )
    a = tr.train_model(ds, cfg)
    b = tr.train_model(ds, cfg)
    assert np.array_equal(
        rn.params_to_vector(a.params), rn.params_to_vector(b.params)
    )
    assert a.log[-1, 2] < a.log[0, 2]
    assert a.log.shape == (400, 6)
    # the orders, the registry's selection columns, are fitted on the selection grids
    assert a.orders == tr.evaluate_orders(rn.NNScheme(a.params))


def test_train_strong_deviation_weight_pins_ideal_weights():
    # with a dominant deviation term the network must emit near-ideal weights
    # on smooth stencils
    ds = small_dataset(seed=9)
    cfg = tr.TrainConfig(
        total_steps=1500,
        batch_size=512,
        seed=5,
        peak_lr=2e-3,
        hyper=tr.LossHyper(alpha=0.01, beta_d=1e4),
    )
    model = tr.train_model(ds, cfg)
    smooth = np.array([[0.0, 0.001, 0.002], [1.0, 1.01, 1.02], [0.0, 0.0, 0.0]])
    w = rn.forward(model.params, smooth)
    assert np.max(np.abs(w - np.array(IDEAL_WEIGHTS3))) < 0.05


def test_interpolation_error_examples():
    g = fs.eval_function("sine_cubed")
    quad = fs.FunctionSpec("polynomial", (0.2, -0.3, 0.5, 0.0))
    assert an.interpolation_error(IdealWeights3(), quad, 32) <= 1e-12
    err_256 = an.interpolation_error(Weno3JS(), g, 256)
    err_512 = an.interpolation_error(Weno3JS(), g, 512)
    assert err_512 < err_256
    const = fs.FunctionSpec("polynomial", (0.7, 0.0, 0.0, 0.0))
    assert an.interpolation_error(Weno3JS(), const, 64) <= 1e-12


def test_convergence_order_examples():
    nxs = [32, 64, 128, 256]
    errs = [(nx, (1.0 / nx) ** 3) for nx in nxs]
    assert an.convergence_order(errs) == pytest.approx(3.0, abs=1e-12)
    assert an.convergence_order([(10, 1e-2), (20, 1.25e-3)]) == pytest.approx(3.0)
    assert an.convergence_order([(nx, 0.5) for nx in nxs]) == pytest.approx(0.0, abs=1e-12)


def test_convergence_order_excludes_nonpositive_with_warning():
    with pytest.warns(UserWarning, match="excluded"):
        slope = an.convergence_order([(16, 1e-2), (32, 1.25e-3), (64, 0.0)])
    assert slope == pytest.approx(3.0)
    with pytest.warns(UserWarning, match="excluded"), pytest.raises(ValueError):
        an.convergence_order([(16, 0.0), (32, 0.0), (64, 1.0)])


def test_convergence_order_needs_two_distinct_grids():
    with pytest.raises(ValueError, match="distinct"):
        an.convergence_order([(64, 1e-2), (64, 2e-3), (64, 1e-3)])
    # the excluded error was the only other grid size
    with pytest.warns(UserWarning, match="excluded"), pytest.raises(ValueError, match="distinct"):
        an.convergence_order([(16, 0.0), (32, 1e-2), (32, 5e-3)])
    assert an.convergence_order([(16, 8e-3), (32, 1e-3), (32, 1e-3)]) == pytest.approx(3.0)


def make_model(order_g, order_h, recon, dev):
    model = tr.TrainedModel(params=None, config=tr.TrainConfig())
    model.orders = {"sine_cubed": order_g, "sine_step": order_h}
    model.recon_loss = recon
    model.dev_loss = dev
    return model


def test_select_model_criteria_and_tiebreak():
    m1 = make_model(2.2, 2.9, 0.5, 0.1)
    m2 = make_model(2.9, 2.2, 0.1, 0.5)
    assert tr.select_model([m1], "conv-sine-step") is m1
    assert tr.select_model([m1, m2], "conv-sine-step") is m1
    assert tr.select_model([m1, m2], "conv-sin-cubed") is m2
    assert tr.select_model([m1, m2], "least-recon-loss") is m2
    assert tr.select_model([m1, m2], "least-dev-loss") is m1
    # exact tie on the primary key: lower reconstruction loss wins
    m3 = make_model(2.9, 2.9, 0.3, 0.2)
    m4 = make_model(2.9, 2.9, 0.2, 0.2)
    assert tr.select_model([m3, m4], "conv-sine-step") is m4
    # full tie: earlier index wins
    m5 = make_model(2.9, 2.9, 0.2, 0.2)
    assert tr.select_model([m4, m5], "conv-sine-step") is m4
    with pytest.raises(ValueError):
        tr.select_model([], "conv-sine-step")
    with pytest.raises(ValueError):
        tr.select_model([m1], "newest")


def test_selection_row_names_the_registry_columns():
    row = tr.selection_row(make_model(2.2, 2.9, 0.5, 0.1))
    assert row == {"order_g": 2.2, "order_h": 2.9, "recon_loss": 0.5, "dev_loss": 0.1}
    assert {col for col, _ in tr.SELECTION_CRITERIA.values()} == set(row)


def test_select_index_ranks_non_finite_values_last_in_any_row_order():
    nan, inf = float("nan"), float("inf")
    rows = [
        {"order_h": nan, "recon_loss": 0.1},
        {"order_h": 2.9, "recon_loss": 0.5},
        {"order_h": -inf, "recon_loss": 0.0},
        {"order_h": 3.1, "recon_loss": nan},  # as near 3 as 2.9; loses the recon tie
        {"order_h": inf, "recon_loss": 0.0},
    ]
    for perm in itertools.permutations(range(len(rows))):
        picked = tr.select_index([rows[k] for k in perm], "conv-sine-step")
        assert perm[picked] == 1, perm
    # registry rows: any float-castable values, extra columns ignored
    assert tr.select_index([{"model_id": "a", "recon_loss": "nan", "dev_loss": 1},
                            {"model_id": "b", "recon_loss": "0.3", "dev_loss": 2}],
                           "least-recon-loss") == 1


def test_select_index_needs_a_finite_value_and_its_columns():
    models = [make_model(2.9, 2.9, float("nan"), float("nan")) for _ in range(3)]
    with pytest.raises(ValueError, match="no model has a finite recon_loss"):
        tr.select_model(models, "least-recon-loss")  # a sweep without val_dataset
    assert tr.select_model(models, "conv-sine-step") is models[0]
    with pytest.raises(ValueError, match=r"lacks columns \['dev_loss'\]"):
        tr.select_index([{"order_h": 3.0, "recon_loss": 0.1}], "least-dev-loss")


def test_selection_order_independence():
    models = [make_model(2.0 + 0.1 * k, 3.0 - 0.2 * k, 0.1 * k, 0.2) for k in range(5)]
    chosen = tr.select_model(list(models), "conv-sine-step")
    reversed_choice = tr.select_model(list(reversed(models)), "conv-sine-step")
    assert chosen.orders == reversed_choice.orders


def test_sweep_grid_covers_hull():
    configs = tr.sweep_grid(total_steps=10)
    assert len(configs) == 4 * 3 * 3
    seeds = {c.seed for c in configs}
    assert len(seeds) == len(configs)
    alphas = {c.hyper.alpha for c in configs}
    assert alphas == set(tr.DEFAULT_SWEEP_ALPHAS)


def test_run_sweep_populates_validation_losses():
    ds = small_dataset(seed=1)
    val = small_dataset(seed=2)
    configs = [
        tr.TrainConfig(total_steps=50, warmup_steps=5, batch_size=128, seed=s)
        for s in (0, 1)
    ]
    models = tr.run_sweep(ds, configs, val)
    assert len(models) == 2
    assert all(np.isfinite(m.recon_loss) and np.isfinite(m.dev_loss) for m in models)
    assert all(set(m.orders) == {"sine_cubed", "sine_step"} for m in models)


def test_run_sweep_processes_keep_order_and_bits():
    ds = small_dataset(seed=1)
    val = small_dataset(seed=2)
    configs = [
        tr.TrainConfig(total_steps=30, warmup_steps=3, batch_size=128, seed=s, peak_lr=lr)
        for s, lr in ((4, 2e-3), (7, 5e-4))
    ]
    serial = tr.run_sweep(ds, configs, val, jobs=1)
    assert tr._sweep_inputs == ()
    forked = tr.run_sweep(ds, configs, val, jobs=2)
    assert tr._sweep_inputs == ()  # the sweep lets go of its datasets
    for a, b, cfg in zip(serial, forked, configs):
        assert a.config is cfg and b.config is cfg
        assert rn.params_to_vector(a.params).tobytes() == rn.params_to_vector(b.params).tobytes()
        assert a.log.tobytes() == b.log.tobytes()
        assert (a.recon_loss, a.dev_loss, a.orders) == (b.recon_loss, b.dev_loss, b.orders)
        # the unpickled parameters are views of their own theta again
        assert np.shares_memory(b.params.layers[0][0], b.params.theta)
    assert serial[0].log.tobytes() != serial[1].log.tobytes()


def test_run_sweep_worker_errors_propagate_and_no_worker_outlives_it():
    ds = small_dataset(seed=1)
    ubar = ds.ubar.copy()
    ubar[::7] = np.nan  # every batch draws some of these rows
    bad = fs.Dataset(ubar, ds.target, ds.nx)
    configs = [
        tr.TrainConfig(total_steps=5, warmup_steps=1, batch_size=64, seed=s) for s in (0, 1)
    ]
    messages = []
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="non-finite loss contribution") as exc:
            tr.run_sweep(bad, configs, jobs=jobs)
        messages.append(str(exc.value))
        assert tr._sweep_inputs == ()
    assert messages[0] == messages[1]
    assert multiprocessing.active_children() == []


def test_run_sweep_validates_jobs():
    with pytest.raises(ValueError, match="jobs"):
        tr.run_sweep(small_dataset(), [tr.TrainConfig(total_steps=1)], jobs=0)
    assert tr.run_sweep(small_dataset(), [], jobs=4) == []


def test_train_skips_a_step_with_a_non_finite_gradient(monkeypatch):
    thetas = []
    real = tr._loss_and_grad

    def loss_and_grad(params, stencils, targets, consts, hyper):
        thetas.append(params.theta.copy())
        loss, grad, parts = real(params, stencils, targets, consts, hyper)
        if len(thetas) == 4:
            grad = np.where(np.arange(grad.size) == 5, np.nan, grad)
        return loss, grad, parts

    monkeypatch.setattr(tr, "_loss_and_grad", loss_and_grad)
    cfg = tr.TrainConfig(total_steps=8, warmup_steps=0, batch_size=64, seed=2, peak_lr=1e-3)
    model = tr.train_model(small_dataset(), cfg)
    assert model.skipped_steps == 1
    after = thetas[1:] + [model.params.theta]
    assert [not np.array_equal(a, b) for a, b in zip(thetas, after)] == [True] * 3 + [False] + [True] * 4
    # the skipped step is still logged
    assert model.log.shape == (8, 6)
    assert np.array_equal(model.log[:, 0], np.arange(8)) and np.all(np.isfinite(model.log))


def test_train_config_rejects_invalid_counts():
    for bad in ({"total_steps": -1}, {"warmup_steps": -1}, {"batch_size": 0}):
        with pytest.raises(ValueError):
            tr.TrainConfig(**bad)
    assert tr.TrainConfig(total_steps=0, warmup_steps=0).total_steps == 0


def test_train_config_derives_its_warmup_unless_given():
    assert tr.TrainConfig(total_steps=300).warmup == 15
    assert tr.TrainConfig().warmup == 1000
    assert tr.TrainConfig(total_steps=10).warmup == 1  # at least one step
    assert tr.TrainConfig(total_steps=300, warmup_steps=0).warmup == 0
    derived, given = tr.TrainConfig(total_steps=300), tr.TrainConfig(total_steps=300, warmup_steps=15)
    assert derived.warmup_steps is None and given.warmup_steps == 15
    assert [tr.lr_schedule(s, derived) for s in range(300)] == [
        tr.lr_schedule(s, given) for s in range(300)]


def test_train_config_replace_derives_the_warmup_of_the_new_total():
    cfg = tr.TrainConfig(total_steps=300)
    assert replace(cfg, total_steps=4000).warmup == 200
    assert replace(cfg, peak_lr=1e-3).warmup == 15
    # a given warmup is kept, 0 included
    assert replace(tr.TrainConfig(total_steps=300, warmup_steps=0), total_steps=4000).warmup == 0
    assert replace(cfg, warmup_steps=7, total_steps=4000).warmup == 7


def test_train_config_rejects_negative_or_non_finite_peak_lr():
    for lr in (-0.01, -1e-300, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="peak_lr"):
            tr.TrainConfig(peak_lr=lr)
    assert tr.TrainConfig(peak_lr=0.0).peak_lr == 0.0


def test_loss_hyper_rejects_non_finite_weights():
    for name in ("alpha", "beta_d", "beta_w"):
        for bad in (float("nan"), float("inf"), -float("inf"), -1.0):
            with pytest.raises(ValueError, match="finite"):
                tr.LossHyper(**{name: bad})
        # NaN is rejected also where min() would have hidden it behind a smaller value
        with pytest.raises(ValueError):
            tr.LossHyper(**{"alpha": 0.0, "beta_d": 0.0, "beta_w": 0.0, name: float("nan")})
    zero = tr.LossHyper(alpha=0.0, beta_d=0.0, beta_w=0.0)  # zero weights stay legal
    assert (zero.alpha, zero.beta_d, zero.beta_w) == (0.0, 0.0, 0.0)
