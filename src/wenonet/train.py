"""Offline training: loss over ``ratnet.forward``/``backward``, Adam, sweeps, selection.

The loss is written once, on the network's output weights as (2, n) rows; its
gradient with respect to them, rows too, is handed transposed to
``ratnet.backward``, which owns every layer.  ``train_model`` packs every
per-row input of the loss once per run into a C-contiguous (N, 8) table
(``_loss_table``: each stencil's four deltas, its target, its two
interpolants and gamma**alpha), and each step gathers the batch's rows with
one ``np.take`` and one transposing copy (``_batch``), then runs
``ratnet._forward`` on the gathered deltas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import convergence_study
from .funcspace import DEFAULT_NX_VALUES, EVAL_FAMILIES, Dataset, eval_function, philox_rng
from .ratnet import NetParams, NNScheme, _deltas, _forward, backward, forward, init_params
from .reconstruct import IDEAL_WEIGHTS3, interpolants3

#: Hyperparameter hull spanned by the published model variants.
DEFAULT_SWEEP_ALPHAS = (0.01, 0.03, 0.1, 0.3)
DEFAULT_SWEEP_BETA_D = (0.03, 0.1, 0.3)
DEFAULT_SWEEP_PEAK_LR = (5e-4, 1e-4, 1e-5)

#: Each criterion's registry column (a ``selection_row`` key) and the value it wants.
SELECTION_CRITERIA = {
    "conv-sine-step": ("order_h", 3.0),
    "conv-sin-cubed": ("order_g", 3.0),
    "least-recon-loss": ("recon_loss", 0.0),
    "least-dev-loss": ("dev_loss", 0.0),
}

TRAIN_LOG_HEADER = "step,lr,loss,loss_r,loss_d,loss_l2"

#: Adam's moment decay rates and denominator guard.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

_IDEAL = np.asarray(IDEAL_WEIGHTS3)

#: Guard of ``gamma``'s denominator on constant stencils.
_EPS_GAMMA = 1e-15


@dataclass(frozen=True)
class LossHyper:
    """Loss weights: gamma exponent, deviation weight, l2 weight."""

    alpha: float = 0.1
    beta_d: float = 0.1
    beta_w: float = 1e-6

    def __post_init__(self):  # NaN fails every comparison, so it is rejected too
        if not all(0.0 <= w < math.inf for w in (self.alpha, self.beta_d, self.beta_w)):
            raise ValueError("loss hyperparameters must be finite and non-negative")


@dataclass(frozen=True)
class TrainConfig:
    """One training run; ``warmup`` derives the warmup when ``warmup_steps`` is None."""

    peak_lr: float = 5e-4
    warmup_steps: int | None = None
    total_steps: int = 20000
    batch_size: int = 1024
    seed: int = 0
    hyper: LossHyper = LossHyper()

    def __post_init__(self):  # zero steps is allowed and returns the initialization
        if min(self.total_steps, self.warmup) < 0 or self.batch_size < 1:
            raise ValueError("step counts must be non-negative and batch_size >= 1")
        if not 0.0 <= self.peak_lr < math.inf:  # NaN fails the comparison too
            raise ValueError(f"peak_lr must be finite and non-negative, got {self.peak_lr}")

    @property
    def warmup(self) -> int:
        """``warmup_steps``, or ``max(total_steps // 20, 1)`` when it is None."""
        return max(self.total_steps // 20, 1) if self.warmup_steps is None else self.warmup_steps


@dataclass
class TrainedModel:
    params: NetParams
    config: TrainConfig
    orders: dict[str, float] = field(default_factory=dict)
    recon_loss: float = float("nan")
    dev_loss: float = float("nan")
    log: np.ndarray | None = None
    skipped_steps: int = 0


def gamma(stencils):
    """Local smoothness ratio in [0, 1]: second difference over one-sided slopes.

    The triangle inequality bounds the ratio by one in exact arithmetic; the
    clip removes last-bit floating-point excess.
    """
    s = np.asarray(stencils, dtype=float)
    um1, u0, up1 = s[..., 0], s[..., 1], s[..., 2]
    num = np.abs(um1 - 2.0 * u0 + up1)
    den = np.abs(u0 - um1) + np.abs(u0 - up1) + _EPS_GAMMA
    return np.minimum(num / den, 1.0)


def _loss_consts(s, hyper: LossHyper):
    """The interpolants and gamma**alpha of (n, 3) stencils, each row's from its own."""
    i0, i1 = interpolants3(s[:, 0], s[:, 1], s[:, 2])
    return i0, i1, np.power(gamma(s), hyper.alpha)


def _loss_terms(w, y, consts, hyper: LossHyper):
    """L_r, L_d, and the gradient of ``L_r + beta_d * L_d`` with respect to ``w``.

    ``w`` holds the network's pre-threshold weights as (2, n) rows, on
    stencils whose exact face values are ``y`` and whose ``_loss_consts`` are
    ``consts``; the gradient comes as (2, n) rows too.
    """
    n = len(y)
    if n == 0:
        raise ValueError("empty batch")
    i0, i1, g = consts
    w0, w1 = w
    resid = w0 * i0 + w1 * i1 - y
    if not np.all(np.isfinite(resid)):
        bad = int(np.argmin(np.isfinite(resid)))
        raise RuntimeError(f"non-finite loss contribution at sample {bad}")

    loss_r = float(np.mean(g * resid**2))
    dev0, dev1 = w0 - _IDEAL[0], w1 - _IDEAL[1]
    smooth = 1.0 - g
    loss_d = float(np.mean(smooth * (dev0**2 + dev1**2)))  # np.sum's bits on a row of two

    d_r = (2.0 / n) * (g * resid)
    d_d = hyper.beta_d * (2.0 / n) * smooth
    return loss_r, loss_d, np.stack([d_r * i0 + d_d * dev0, d_r * i1 + d_d * dev1])


def _loss_and_grad(params: NetParams, deltas, y, consts, hyper: LossHyper):
    """``loss_and_grad`` on a batch of (4, n) ``ratnet._deltas`` whose ``_loss_consts`` are ``consts``."""
    tape = []
    loss_r, loss_d, d_w = _loss_terms(_forward(params, deltas, tape), y, consts, hyper)
    loss_l2 = float(np.sum(params.theta**2))
    loss = loss_r + hyper.beta_d * loss_d + hyper.beta_w * loss_l2
    grad = backward(params, tape, d_w.T) + 2.0 * hyper.beta_w * params.theta
    parts = {"loss_r": loss_r, "loss_d": loss_d, "loss_l2": loss_l2}
    return loss, grad, parts


def loss_and_grad(params: NetParams, stencils, targets, hyper: LossHyper):
    """Total loss, flat gradient, and the raw loss components.

    The loss is ``L_r + beta_d * L_d + beta_w * |theta|^2`` with the hard
    thresholding of inference bypassed, matching how the network trains.
    ``parts`` holds the unweighted L_r, L_d, and |theta|^2.  Raises
    ValueError unless the stencils are (n, 3) and the targets (n,).
    """
    s, y = np.asarray(stencils, dtype=float), np.asarray(targets, dtype=float)
    if s.ndim != 2 or s.shape[1] != 3 or y.shape != s.shape[:1]:
        raise ValueError(f"stencils of shape {s.shape} and targets of shape {y.shape} "
                         "are not (n, 3) and (n,)")
    return _loss_and_grad(params, _deltas(s), y, _loss_consts(s, hyper), hyper)


def _loss_table(stencils, targets, hyper: LossHyper):
    """Every per-row input of the loss, one C-contiguous (n, 8) row per stencil.

    A row holds the stencil's four ``ratnet._deltas``, its target, and its
    ``_loss_consts``; ``_batch`` gathers rows of it.  The table starts on a
    64-byte boundary, so each 64-byte row is one cache line of the gather.
    """
    n = len(targets)
    buf = np.empty(8 * n + 7)
    start = -buf.ctypes.data % 64 // buf.itemsize
    table = buf[start : start + 8 * n].reshape(n, 8)
    table[:, :4] = _deltas(stencils).T
    table[:, 4] = targets
    table[:, 5:] = np.transpose(_loss_consts(stencils, hyper))
    return table


def _batch(table, idx):
    """The (4, n) deltas, targets and loss constants of a ``_loss_table``'s rows ``idx``.

    One gather of whole rows, then one transposing copy, so each input is a
    contiguous row.
    """
    rows = np.take(table, idx, axis=0).T.copy()
    return rows[:4], rows[4], rows[5:]


def evaluate_losses(params: NetParams, dataset: Dataset, hyper: LossHyper):
    """Reconstruction and deviation losses over a whole dataset (forward pass only)."""
    s, y = dataset.ubar, dataset.target
    loss_r, loss_d, _ = _loss_terms(forward(params, s).T, y, _loss_consts(s, hyper), hyper)
    return loss_r, loss_d


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to the peak, then cosine decay to zero."""
    if not 0 <= step < cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps})")
    warmup = cfg.warmup
    if warmup > 0 and step < warmup:
        return cfg.peak_lr * step / warmup
    span = max(cfg.total_steps - warmup, 1)
    frac = (step - warmup) / span
    return cfg.peak_lr * 0.5 * (1.0 + float(np.cos(np.pi * frac)))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float):
    """One bias-corrected Adam update; returns (new theta, new state)."""
    if theta.shape != grad.shape or theta.shape != state.m.shape:
        raise ValueError("parameter, gradient, and state shapes must match")
    t = state.t + 1
    m = _ADAM_BETA1 * state.m + (1.0 - _ADAM_BETA1) * grad
    v = _ADAM_BETA2 * state.v + (1.0 - _ADAM_BETA2) * grad**2
    m_hat = m / (1.0 - _ADAM_BETA1**t)
    v_hat = v / (1.0 - _ADAM_BETA2**t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS), AdamState(m, v, t)


def train_model(dataset: Dataset, cfg: TrainConfig) -> TrainedModel:
    """Full Adam run over seeded mini-batches; orders are fitted on ``DEFAULT_NX_VALUES``.

    Initialization and shuffling use dedicated Philox streams derived from
    ``cfg.seed``, so reruns are bit-identical.  Adam updates ``params.theta``
    in place, so the layers, which are views of it, follow every step.
    """
    params = init_params(rng=philox_rng(cfg.seed, 2**63))
    state = AdamState.zeros(params.theta.size)
    shuffler = philox_rng(cfg.seed, 2**63 + 1)
    n = len(dataset)
    bs = min(cfg.batch_size, n)
    order = shuffler.permutation(n)
    pos = 0
    table = _loss_table(dataset.ubar, dataset.target, cfg.hyper)
    log = []
    skipped = 0
    for step in range(cfg.total_steps):
        if pos + bs > n:
            order = shuffler.permutation(n)
            pos = 0
        batch = _batch(table, order[pos : pos + bs])
        pos += bs
        loss, grad, parts = _loss_and_grad(params, *batch, cfg.hyper)
        if loss > 1e6:
            raise RuntimeError(f"training diverged at step {step}: loss={loss:.3g}")
        lr = lr_schedule(step, cfg)
        log.append((step, lr, loss, parts["loss_r"], parts["loss_d"], parts["loss_l2"]))
        if not np.all(np.isfinite(grad)):
            skipped += 1
            continue
        params.theta[:], state = adam_step(params.theta, grad, state, lr)
    log = np.asarray(log).reshape(-1, 6)  # (0, 6) after zero steps
    model = TrainedModel(params=params, config=cfg, log=log, skipped_steps=skipped)
    model.orders = evaluate_orders(NNScheme(params))
    return model


def evaluate_orders(scheme):
    """Fitted interpolation orders on the two evaluation functions."""
    return {
        name: convergence_study([scheme], eval_function(name), DEFAULT_NX_VALUES)[0].slope
        for name in EVAL_FAMILIES
    }


def selection_row(model: TrainedModel) -> dict[str, float]:
    """A trained model's selection columns, as the registry names them."""
    return {
        "order_g": model.orders["sine_cubed"],
        "order_h": model.orders["sine_step"],
        "recon_loss": model.recon_loss,
        "dev_loss": model.dev_loss,
    }


def select_index(rows, criterion: str) -> int:
    """Index of the row whose criterion column is nearest the value it wants.

    ``rows`` are mappings, such as ``selection_row``'s or a registry's, with
    the criterion's column and ``recon_loss``.  Non-finite values rank last;
    ties fall to the lower reconstruction loss, then to the lower index.
    """
    if criterion not in SELECTION_CRITERIA:
        raise ValueError(
            f"unknown criterion {criterion!r}; expected {tuple(SELECTION_CRITERIA)}"
        )
    if not rows:
        raise ValueError("no models to select from")
    column, wanted = SELECTION_CRITERIA[criterion]
    missing = [c for c in sorted({column, "recon_loss"}) if any(c not in r for r in rows)]
    if missing:
        raise ValueError(f"a row lacks columns {missing} for criterion {criterion!r}")

    def rank(i, row):
        key = (abs(float(row[column]) - wanted), float(row["recon_loss"]))
        return *(v if math.isfinite(v) else math.inf for v in key), i

    distance, _, best = min(rank(i, r) for i, r in enumerate(rows))
    if distance == math.inf:
        raise ValueError(f"no model has a finite {column} for criterion {criterion!r}")
    return best


def select_model(models: list[TrainedModel], criterion: str) -> TrainedModel:
    """Pick by the criterion with ``select_index``'s ranking and tie-breaks."""
    return models[select_index([selection_row(m) for m in models], criterion)]


def sweep_grid(
    alphas=DEFAULT_SWEEP_ALPHAS,
    beta_ds=DEFAULT_SWEEP_BETA_D,
    peak_lrs=DEFAULT_SWEEP_PEAK_LR,
    seed0: int = 0,
    **config_kwargs,
) -> list[TrainConfig]:
    """Cartesian sweep over the loss/learning-rate hull, one seed per point."""
    configs = []
    seed = seed0
    for alpha in alphas:
        for beta_d in beta_ds:
            for peak_lr in peak_lrs:
                hyper = LossHyper(alpha=alpha, beta_d=beta_d)
                configs.append(
                    TrainConfig(
                        peak_lr=peak_lr, seed=seed, hyper=hyper, **config_kwargs
                    )
                )
                seed += 1
    return configs


#: (dataset, val_dataset) of the running sweep; forked workers inherit it.
_sweep_inputs: tuple = ()


def _train_one(cfg: TrainConfig) -> TrainedModel:
    """Train one configuration on the running sweep's inputs."""
    dataset, val_dataset = _sweep_inputs
    model = train_model(dataset, cfg)
    if val_dataset is not None:
        model.recon_loss, model.dev_loss = evaluate_losses(
            model.params, val_dataset, cfg.hyper
        )
    return model


def run_sweep(
    dataset: Dataset,
    configs: list[TrainConfig],
    val_dataset: Dataset | None = None,
    jobs: int = 1,
) -> list[TrainedModel]:
    """Train every configuration; validation losses come from ``val_dataset``.

    ``jobs`` above 1 trains up to that many models at once in forked worker
    processes, which inherit the datasets instead of receiving them with each
    task.  Every model has the same bits as with ``jobs=1``, and its
    ``config`` is the caller's object.  Every worker has exited on return.
    The inputs sit in a module global during the sweep, so run one sweep at
    a time; a fork copies only the calling thread, so with ``jobs`` above 1
    the caller must run no other threads that could hold a lock.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    global _sweep_inputs
    _sweep_inputs = (dataset, val_dataset)
    workers = min(jobs, len(configs))
    try:
        if workers <= 1:
            models = [_train_one(cfg) for cfg in configs]
        else:
            # imported here, since they add ~8 ms to importing the package
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # fork: workers inherit the datasets, and callers need no __main__ guard
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                models = list(pool.map(_train_one, configs))
    finally:
        _sweep_inputs = ()
    for model, cfg in zip(models, configs):  # pickling copied the configs
        model.config = cfg
    return models
