"""Golden regression: pinned outputs that a refactor must reproduce.

A quicker witness than the acceptance gate for "same behaviour": the network's
inference bits on fixed stencils, the final L1 error of every scheme on every
problem at nx 64, a short fixed-seed training run, the bits of a small
training set, the dispersion-dissipation fingerprint of two schemes, and the
parameter layout (flat vector and weight-file bytes of fresh networks and of
the benchmark's network).  The reference values were recorded before the
network's forward and backward passes were merged into ``ratnet``, the layout
entries before ``NetParams`` became views of one flat vector, and the dataset,
fingerprint and last three problems' entries before ``funcspace`` became the
only owner of the closed forms (numpy 2.4.6, OpenBLAS); the whole file runs in
seconds.  The short training run's theta and log hashes were recorded before
``backward`` read each rational's terms from the tape.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from wenonet import analysis as an
from wenonet import cli
from wenonet import funcspace as fs
from wenonet import ratnet as rn
from wenonet import solver as sv
from wenonet import train as tr

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

SCHEMES = ("weno3-js", "weno3-z", "weno5-js", "quick", "ideal3", "nn")
PROBLEMS = tuple(cli.PROBLEMS)
ARCHS = ((4, 4), (4, 4, 4), (4, 8, 4, 4))
BENCH_WEIGHTS = Path(__file__).parents[1] / "bench" / "data" / "nn_weights.json"


def golden_params():
    return rn.init_params(rng=np.random.default_rng(0))


def golden_stencils():
    """Random stencils at magnitudes 1e-12 to 1e6, plus hand-picked edge rows."""
    base = np.random.default_rng(20240917).normal(size=(40, 3))
    edges = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 2.0],
            [0.0, 0.0, 1e-300],
            [1e6, 1e6 + 1.0, 1e6 + 2.0],
        ]
    )
    return np.concatenate([scale * base for scale in (1e-12, 1e-3, 1.0, 1e6)] + [edges])


def sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


def golden_scheme(name: str):
    return rn.NNScheme(golden_params()) if name == "nn" else cli.make_scheme(name)


def final_l1(problem: str, scheme: str) -> str:
    prob = cli.PROBLEMS[problem](5.0, 0.4)
    return float.hex(sv.run(prob, sv.default_grid(prob, 64), golden_scheme(scheme)).final_error)


def short_training():
    ds = fs.build_dataset(
        fs.DatasetConfig(nx_values=(16, 32), pairs_per_grid=512, seed=0)
    )
    cfg = tr.TrainConfig(total_steps=300, batch_size=256, seed=3, peak_lr=2e-3)
    return tr.train_model(ds, cfg)


def test_forward_and_nn_reconstruct_bits():
    params, s = golden_params(), golden_stencils()
    assert np.all(np.isfinite(rn.forward(params, s)))
    assert sha256(rn.forward(params, s)) == GOLDEN["forward_sha256"]
    assert sha256(rn.nn_reconstruct(params, s)) == GOLDEN["nn_reconstruct_sha256"]


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_final_l1_bits(problem, scheme):
    assert final_l1(problem, scheme) == GOLDEN["final_l1"][problem][scheme]


def dataset_bits() -> str:
    ds = fs.build_dataset(
        fs.DatasetConfig(nx_values=(16, 64), pairs_per_grid=1024, seed=0)
    )
    return sha256(np.column_stack([ds.ubar, ds.target, ds.nx]))


def adr_bits(scheme: str) -> str:
    points = an.adr(golden_scheme(scheme), an.default_kappa_grid())
    return sha256([[p.kappa_dx, p.dispersion, p.dissipation, p.leakage] for p in points])


def test_dataset_bits():
    assert dataset_bits() == GOLDEN["dataset_sha256"]


@pytest.mark.parametrize("scheme", ("weno3-js", "nn"))
def test_adr_bits(scheme):
    assert adr_bits(scheme) == GOLDEN["adr_sha256"][scheme]


def test_short_training_run():
    model = short_training()
    theta = rn.params_to_vector(model.params)
    ref = np.array(GOLDEN["train_theta"])
    assert np.linalg.norm(theta - ref) <= 1e-12 * np.linalg.norm(ref)
    # the recorded orders are fitted on three grids, not the selection grids
    scheme = rn.NNScheme(model.params)
    for name, order in GOLDEN["train_orders"].items():
        row = an.convergence_study([scheme], fs.eval_function(name), (16, 32, 64))[0]
        assert row.slope == pytest.approx(order, abs=1e-10)
    # every bit of theta and of the log
    assert sha256(theta) == GOLDEN["train_sha256"]["theta"]
    assert sha256(model.log) == GOLDEN["train_sha256"]["log"]


@pytest.mark.parametrize("arch", ARCHS)
def test_init_layout_bits(arch):
    params = rn.init_params(arch, rng=np.random.default_rng(0))
    key = ",".join(map(str, arch))
    assert sha256(rn.params_to_vector(params)) == GOLDEN["layout"]["init_vector_sha256"][key]
    text = rn.params_to_json(params).encode()
    assert hashlib.sha256(text).hexdigest() == GOLDEN["layout"]["init_json_sha256"][key]


def test_weight_file_layout_bits():
    theta = rn.params_to_vector(rn.load_params(BENCH_WEIGHTS))
    assert sha256(theta) == GOLDEN["layout"]["bench_weights_vector_sha256"]
