"""Unit tests for the analytical function families and dataset generation."""

import re
import warnings

import numpy as np
import pytest

from wenonet import funcspace as fs


def test_sine_forced_wavenumber_matches_closed_form():
    spec = fs.FunctionSpec("sine", (2.0,))
    x = np.linspace(0.0, 1.0, 101)
    assert np.allclose(spec.value(x), np.sin(2.0 * np.pi * x), atol=1e-15)


def test_degenerate_step_is_zero_function():
    spec = fs.FunctionSpec("step", (0.0, 0.0))
    x = np.linspace(0.0, 1.0, 33)
    assert np.all(spec.value(x) == 0.0)


def test_tanh_endpoint_value():
    spec = fs.FunctionSpec("tanh", (5.0,))
    assert spec.value(0.0) == 0.0
    assert spec.value(1.0) == pytest.approx(np.tanh(5.0), abs=1e-15)
    assert spec.value(1.0) == pytest.approx(0.99991, abs=1e-5)


def test_sample_function_parameter_ranges():
    rng = fs.philox_rng(123, 0)
    for fam, lo_hi in [
        ("polynomial", (-1.0, 1.0)),
        ("step", (-1.0, 1.0)),
        ("sine", (2.0, 20.0)),
        ("tanh", (5.0, 30.0)),
    ]:
        for _ in range(50):
            spec = fs.sample_function(fam, rng)
            check = spec.params if fam != "sawjump" else spec.params[1:]
            assert all(lo_hi[0] <= p <= lo_hi[1] for p in check)
    for _ in range(50):
        spec = fs.sample_function("sawjump", rng)
        assert spec.params[0] in (-1.0, 1.0)
        assert 0.5 <= spec.params[1] <= 1.0


def test_sample_function_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown"):
        fs.sample_function("gaussian", fs.philox_rng(0, 0))
    # an evaluation function is not a training family
    with pytest.raises(ValueError, match="unknown training family 'sine_step'"):
        fs.sample_function("sine_step", fs.philox_rng(0, 0))
    # a spec of an unknown family fails when it is built, not when it is first evaluated
    with pytest.raises(ValueError, match="unknown function family 'gaussian'"):
        fs.FunctionSpec("gaussian", ())


def test_cell_average_linear_midpoint():
    spec = fs.FunctionSpec("polynomial", (0.0, 1.0))
    assert fs.cell_average(spec, 0.0, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_cell_average_sine_closed_form():
    spec = fs.FunctionSpec("sine", (2.0,))
    assert fs.cell_average(spec, 0.0, 0.5) == pytest.approx(2.0 / np.pi, abs=1e-15)


def test_cell_average_half_covered_jump():
    spec = fs.FunctionSpec("step", (0.0, 1.0))
    assert fs.cell_average(spec, 0.25, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_cell_average_rejects_bad_interval():
    spec = fs.FunctionSpec("sine", (2.0,))
    with pytest.raises(ValueError):
        fs.cell_average(spec, -0.5, 0.5)
    with pytest.raises(ValueError):
        fs.cell_average(spec, 0.5, 0.5)


def test_interface_value_examples():
    cos_like = fs.FunctionSpec("sine", (2.0,))
    assert cos_like.value(0.5) == pytest.approx(0.0, abs=1e-15)
    h = fs.eval_function("sine_step")
    assert h.value(0.25) == pytest.approx(1.0, abs=1e-15)
    step = fs.FunctionSpec("step", (0.0, 1.0))
    assert step.value(0.5) == 0.0  # left limit at the jump


def test_eval_functions():
    g = fs.eval_function("sine_cubed")
    assert g.value(0.5) == pytest.approx(1.0, abs=1e-15)
    h = fs.eval_function("sine_step")
    assert h.value(0.75) == pytest.approx(0.0, abs=1e-15)
    assert h.value(0.25) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        fs.eval_function("sine_squared")


@pytest.mark.parametrize(
    "spec",
    [
        fs.FunctionSpec("polynomial", (0.3, -0.7, 0.2, 0.9)),
        fs.FunctionSpec("step", (-0.4, 0.8)),
        fs.FunctionSpec("sawjump", (-1.0, 0.75)),
        fs.FunctionSpec("sine", (7.3,)),
        fs.FunctionSpec("tanh", (21.0,)),
        fs.eval_function("sine_cubed"),
        fs.eval_function("sine_step"),
    ],
    ids=lambda s: s.family,
)
def test_partition_sums_telescope_to_exact_integral(spec):
    nx = 257
    u = fs.discretize(spec, nx)
    dx = (spec.domain[1] - spec.domain[0]) / nx
    total = spec.integral(*spec.domain)
    assert np.sum(u) * dx == pytest.approx(total, rel=1e-12, abs=1e-13)


#: One function of every family, each with a point away from ``fs.JUMP_X``.
WIDTH_CASES = [
    (fs.FunctionSpec("sine", (3.0,)), 0.3),
    (fs.FunctionSpec("tanh", (9.0,)), 0.2),
    (fs.FunctionSpec("polynomial", (0.1, -0.4, 0.8, 0.5)), 0.25),
    (fs.eval_function("sine_cubed"), 0.35),
    (fs.eval_function("sine_step"), 0.7),
    (fs.FunctionSpec("step", (-0.4, 0.8)), 0.3),
    (fs.FunctionSpec("sawjump", (-1.0, 0.75)), 0.7),
    (fs.FunctionSpec("cosine", ()), 0.3),
    (fs.FunctionSpec("sigmoid", ()), 0.08),
]


@pytest.mark.parametrize("spec, x0", WIDTH_CASES, ids=lambda v: str(v))
def test_cell_average_is_second_order_in_width(spec, x0):
    hs = 1e-2 * 0.5 ** np.arange(7)
    errs = [
        abs(fs.cell_average(spec, x0 - h / 2, x0 + h / 2) - spec.value(x0))
        for h in hs
    ]
    if spec.family in ("step", "sawjump"):  # linear away from the jump: exact but for rounding
        assert max(errs) <= 1e-12
        return
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_width_cases_cover_every_family():
    assert sorted(spec.family for spec, _ in WIDTH_CASES) == sorted(fs._FAMILIES)


def test_dataset_counts_and_instances():
    cfg = fs.DatasetConfig(nx_values=(16, 32), pairs_per_grid=128, seed=5)
    ds = fs.build_dataset(cfg)
    assert len(ds) == 2 * 128
    assert np.sum(ds.nx == 16) == 128  # 8 instances of 16 faces
    assert np.sum(ds.nx == 32) == 128


def test_default_dataset_total_rows():
    ds = fs.build_dataset(fs.DatasetConfig())
    assert len(ds) == 7 * 16384


def test_dataset_rejects_indivisible_pairs():
    with pytest.raises(ValueError, match="divisible"):
        fs.build_dataset(fs.DatasetConfig(nx_values=(24,), pairs_per_grid=100))


def test_dataset_determinism_bit_identical():
    cfg = fs.DatasetConfig(nx_values=(16, 64), pairs_per_grid=256, seed=11)
    a = fs.build_dataset(cfg)
    b = fs.build_dataset(cfg)
    assert np.array_equal(a.ubar, b.ubar)
    assert np.array_equal(a.target, b.target)
    assert np.array_equal(a.nx, b.nx)


#: Together these cover every training family, nx 4, odd nx, a repeated nx and
#: the largest seed.
ROW_CONFIGS = (
    fs.DatasetConfig(nx_values=(4, 16), pairs_per_grid=256, seed=1),
    fs.DatasetConfig(nx_values=(5, 7, 35), pairs_per_grid=245, seed=2),
    fs.DatasetConfig(nx_values=(16, 8, 16), pairs_per_grid=128, seed=2**64 - 1),
)


def test_dataset_rows_match_one_instance_at_a_time():
    """Every row's bits, rebuilt from its own stream and closed forms alone."""
    families = set()
    for cfg in ROW_CONFIGS:
        stencils, targets, stream = [], [], 0
        for nx in cfg.nx_values:
            for _ in range(cfg.pairs_per_grid // nx):
                rng = fs.philox_rng(cfg.seed, stream)
                stream += 1
                spec = fs.sample_function(
                    fs.TRAIN_FAMILIES[rng.integers(len(fs.TRAIN_FAMILIES))], rng)
                families.add(spec.family)
                a, b = spec.domain
                dx = (b - a) / nx
                u = np.diff(spec.antiderivative(a + dx * np.arange(nx + 1))) / dx
                s = np.stack([np.roll(u, 1), u, np.roll(u, -1)], axis=1)
                t = spec.value(a + dx * np.arange(1, nx + 1))
                stencils.append(s)
                targets.append(np.clip(t, s.min(axis=1), s.max(axis=1)))
        ds = fs.build_dataset(cfg)
        assert ds.ubar.tobytes() == np.concatenate(stencils).tobytes()
        assert ds.target.tobytes() == np.concatenate(targets).tobytes()
        assert ds.nx.tolist() == np.repeat(cfg.nx_values, cfg.pairs_per_grid).tolist()
    assert families == set(fs.TRAIN_FAMILIES)


def test_dataset_targets_inside_stencil_hull():
    ds = fs.build_dataset(fs.DatasetConfig(nx_values=(16, 32, 64), pairs_per_grid=512, seed=3))
    assert np.all(ds.target >= ds.ubar.min(axis=1))
    assert np.all(ds.target <= ds.ubar.max(axis=1))


def test_dataset_csv_roundtrip(tmp_path):
    cfg = fs.DatasetConfig(nx_values=(16,), pairs_per_grid=64, seed=2)
    ds = fs.build_dataset(cfg)
    path = tmp_path / "dataset.csv"
    ds.save_csv(path)
    assert path.read_text().splitlines()[0] == fs.DATASET_HEADER
    loaded = fs.Dataset.load_csv(path)
    assert np.array_equal(ds.ubar, loaded.ubar)
    assert np.array_equal(ds.target, loaded.target)
    assert np.array_equal(ds.nx, loaded.nx)
    ds.save_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "row, col, text, message",
    [(3, 3, "nan", "line 5 has a non-finite value"),
     (0, 1, "-inf", "line 2 has a non-finite value"),
     (7, 4, "16.7", "line 9 has non-integral nx 16.7"),
     (5, 4, "0", "line 7 has nx 0, below the smallest grid size 4"),
     (2, None, "", "line 4 is blank or a comment"),
     (2, None, "# note", "line 4 is blank or a comment")],
)
def test_dataset_csv_rejects_a_bad_row_by_its_line(tmp_path, row, col, text, message):
    """A bad cell, or with ``col`` None a whole line, is named by its line in the file."""
    path = tmp_path / "dataset.csv"
    fs.build_dataset(fs.DatasetConfig(nx_values=(16,), pairs_per_grid=16, seed=1)).save_csv(path)
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    if col is None:
        cells = [text]
        lines[8] = lines[8].rsplit(",", 1)[0] + ",16.7"  # the first bad line is named, not this one
    else:
        cells[col] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        fs.Dataset.load_csv(path)


@pytest.mark.parametrize("first", ["", "a,b", "0.1,0.2,0.3,0.2,16"])
def test_dataset_csv_rejects_a_file_without_the_header(tmp_path, first):
    path = tmp_path / "dataset.csv"
    fs.build_dataset(fs.DatasetConfig(nx_values=(16,), pairs_per_grid=16, seed=1)).save_csv(path)
    rows = path.read_text().splitlines()[1:]
    path.write_text("\n".join([first] + rows) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"dataset file {path} line 1 is {first!r}")):
        fs.Dataset.load_csv(path)
    # a header ended by CRLF is the header
    path.write_text("\r\n".join([fs.DATASET_HEADER] + rows) + "\r\n")
    assert len(fs.Dataset.load_csv(path).target) == len(rows)


@pytest.mark.parametrize("end", ["", "\n"], ids=["bare", "newline"])
def test_dataset_csv_rejects_a_file_without_data_rows(tmp_path, end):
    path = tmp_path / "dataset.csv"
    path.write_text(fs.DATASET_HEADER + end)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # named before numpy could warn of empty input
        with pytest.raises(ValueError, match=re.escape(f"dataset file {path} has no data rows")):
            fs.Dataset.load_csv(path)


def test_philox_streams_are_independent_and_stable():
    a = fs.philox_rng(9, 4).uniform(size=3)
    b = fs.philox_rng(9, 4).uniform(size=3)
    c = fs.philox_rng(9, 5).uniform(size=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
