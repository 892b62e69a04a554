"""Re-measure the hot-path figures that ROADMAP.md lists, untraced.

    python3 bench/hotpath.py

Each figure is the minimum over repeats (the full runs are timed once), on
one BLAS thread, and is printed as one ``name value unit`` line.  Figures
that are compared with each other are timed in turn, repeat by repeat, so a
change in the machine's speed reaches all of them.  It takes about 40
seconds on 2 cores.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from wenonet import cli, funcspace, ratnet, solver, train  # noqa: E402

WEIGHTS = HERE / "data" / "nn_weights.json"


def best(fns: dict, repeats: int) -> dict:
    """Minimum seconds of each function, timed in turn on every repeat."""
    out = dict.fromkeys(fns, float("inf"))
    for _ in range(repeats):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            out[name] = min(out[name], time.perf_counter() - t0)
    return out


def show(name: str, value: float, unit: str) -> None:
    print(f"{name} {value:.4g} {unit}", flush=True)


def main() -> int:
    schemes = {name: cli.make_scheme(name) for name in ("weno3-js", "weno5-js")}
    schemes["nn"] = cli.make_scheme(f"nn:{WEIGHTS}")
    problem = solver.advection_cosine()
    grid = solver.default_grid(problem, 256)
    u = solver.initial_averages(problem, grid)
    rhs = best({name: (lambda s=scheme: solver.rhs(u, grid, s, "advection"))
                for name, scheme in schemes.items()}, 300)
    for name, seconds in rhs.items():
        show(f"rhs.{name}.nx256", 1e6 * seconds, "us")
    for name, scheme in schemes.items():
        t0 = time.perf_counter()
        report = solver.run(problem, grid, scheme)
        show(f"run.advection-cosine.{name}.nx256.steps{len(report.times) - 1}",
             time.perf_counter() - t0, "s")
    track = best({"l1": lambda: solver.l1_error(
        u, solver.exact_cell_averages(problem, grid, 0.3), grid.dx)}, 300)["l1"]
    show("error_tracking.per_step.nx256", 1e6 * track, "us")

    params = ratnet.load_params(WEIGHTS)
    ext = np.concatenate([u[-2:], u, u[:2]])
    windows = np.lib.stride_tricks.sliding_window_view(ext, 3)
    minus, plus = windows[:-1], windows[1:, ::-1]
    both = np.concatenate([minus, plus])
    nn = best({
        "nn.forward.257_faces": lambda: ratnet.forward(params, minus),
        "nn.rational_features.257_faces": lambda: ratnet.rational_features(minus, params.feat),
        "nn.nn_reconstruct.257_faces": lambda: ratnet.nn_reconstruct(params, minus),
        "nn.minus_and_plus.one_call": lambda: ratnet.nn_reconstruct(params, both),
        "nn.minus_and_plus.two_calls": lambda: (ratnet.nn_reconstruct(params, minus),
                                                ratnet.nn_reconstruct(params, plus)),
    }, 300)
    for name, seconds in nn.items():
        show(name, 1e6 * seconds, "us")
    show("count_flops.per_face", ratnet.count_flops(params), "flop")

    t0 = time.perf_counter()
    data = funcspace.build_dataset(funcspace.DatasetConfig(seed=0))
    show(f"build_dataset.{len(data)}_rows", time.perf_counter() - t0, "s")
    idx = np.random.default_rng(0).choice(len(data), 2048, replace=False)
    hyper = train.LossHyper()
    step = best({"loss": lambda: train.loss_and_grad(params, data.ubar[idx], data.target[idx],
                                                     hyper)}, 100)["loss"]
    show("loss_and_grad.batch2048", 1e3 * step, "ms")
    theta = ratnet.params_to_vector(params)
    unflatten = best({"v2p": lambda: ratnet.vector_to_params(theta)}, 1000)["v2p"]
    show("vector_to_params", 1e6 * unflatten, "us")

    configs = [train.TrainConfig(peak_lr=2e-3, warmup_steps=15, total_steps=300, batch_size=2048,
                                 seed=s) for s in (0, 1)]
    times = {}
    for jobs in (1, 2):
        t0 = time.perf_counter()
        train.run_sweep(data, configs, jobs=jobs)
        times[jobs] = time.perf_counter() - t0
    show("run_sweep.2x300_steps.jobs1", times[1], "s")
    show("run_sweep.2x300_steps.jobs2", times[2], "s")
    show("run_sweep.speedup_jobs2", times[1] / times[2], "x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
