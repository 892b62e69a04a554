"""Unit tests for the spectral fingerprint and report machinery."""

import numpy as np
import pytest

from wenonet import analysis as an
from wenonet import funcspace as fs
from wenonet import solver as sv
from wenonet.reconstruct import IdealWeights3, Quick, Weno3JS, Weno3Z, Weno5JS


def test_default_kappa_grid():
    k = an.default_kappa_grid(64)
    assert len(k) == 64
    assert k[0] == pytest.approx(np.pi / 64)
    assert k[-1] == pytest.approx(np.pi)


@pytest.mark.parametrize("n_modes", [0, -3])
def test_default_kappa_grid_rejects_fewer_than_one_mode(n_modes):
    with pytest.raises(ValueError, match="n_modes"):
        an.default_kappa_grid(n_modes)


def test_adr_rejects_non_integer_mode():
    with pytest.raises(ValueError, match="integer mode"):
        an.adr(Weno3JS(), [0.1], nx=64)


@pytest.mark.parametrize(
    "scheme", [Weno3JS(), Weno3Z(), Weno5JS(), Quick(), IdealWeights3()]
)
def test_adr_consistency_and_stability(scheme):
    nx = 128
    kappas = 2.0 * np.pi * np.array([1, 2, 4, 8, 16, 32]) / nx
    points = an.adr(scheme, kappas, nx=nx)
    assert all(np.isfinite([p.dispersion, p.dissipation, p.leakage]).all() for p in points)
    # consistency: the dispersion curve approaches the ideal line at small kappa
    assert points[0].dispersion / points[0].kappa_dx == pytest.approx(1.0, abs=1e-3)
    for p in points:
        assert p.dissipation <= 1e-8  # no mode may be amplified
        assert p.leakage >= 0.0


def test_adr_known_orderings():
    nx = 128
    kdx = 2.0 * np.pi * 32 / nx  # pi/2
    js = an.adr(Weno3JS(), [kdx], nx=nx)[0]
    w5 = an.adr(Weno5JS(), [kdx], nx=nx)[0]
    assert abs(w5.dissipation) < abs(js.dissipation)
    # the neutral central member: ideal weights dissipate less than upwind JS
    ideal = an.adr(IdealWeights3(), [kdx], nx=nx)[0]
    assert abs(ideal.dissipation) < abs(js.dissipation)


def test_adr_small_kappa_dissipation_tiny():
    point = an.adr(Weno3JS(), [2.0 * np.pi * 2 / 256], nx=256)[0]
    assert point.dissipation <= 1e-10
    assert point.dissipation > -1e-4


def test_convergence_study_solver_problem():
    rows = an.convergence_study(
        [Weno3JS(), IdealWeights3()], sv.advection_cosine(T=0.5), [16, 32, 64]
    )
    assert len(rows) == 6
    js_rows = [r for r in rows if r.scheme == "weno3-js"]
    assert [r.nx for r in js_rows] == [16, 32, 64]
    assert js_rows[0].slope == js_rows[1].slope
    errs = [r.error for r in js_rows]
    assert errs[0] > errs[1] > errs[2]  # monotone refinement on smooth data
    assert js_rows[0].slope > 1.5


def test_convergence_study_reconstruction_target():
    g = fs.eval_function("sine_cubed")
    rows = an.convergence_study([Weno5JS()], g, [32, 64, 128, 256])
    assert len(rows) == 4
    assert rows[0].slope > 4.0
    assert rows[0].dx == pytest.approx(2.0 / 32)


def test_convergence_study_validates_input():
    with pytest.raises(ValueError):
        an.convergence_study([Weno3JS()], sv.advection_cosine(), [16, 32])
    for repeated in ([64, 64, 64], [16, 32, 32, 16]):
        with pytest.raises(ValueError, match="three distinct grid sizes"):
            an.convergence_study([Weno3JS()], fs.eval_function("sine_cubed"), repeated)
    with pytest.raises(TypeError):
        an.convergence_study([Weno3JS()], "advection", [16, 32, 64])


def test_emit_report_roundtrip(tmp_path):
    rows = [
        {"scheme": "weno3-js", "nx": 64, "dx": 0.015625, "error": 1.25e-3},
        {"scheme": "weno3-js", "nx": 128, "dx": 0.0078125, "error": 1.5625e-4},
    ]
    path = tmp_path / "report.csv"
    an.emit_report(rows, path, metadata={"version": "1", "seed": 7})
    text = path.read_text()
    assert text.startswith("# version=1, seed=7\n")
    assert text.splitlines()[1] == "scheme,nx,dx,error"
    back, meta = an.parse_report(path)
    assert back == rows
    assert meta == {"version": "1", "seed": "7"}


def test_emit_report_deterministic_bytes(tmp_path):
    rows = [{"a": 1, "b": 0.1}, {"a": 2, "b": 0.2}]
    an.emit_report(rows, tmp_path / "r1.csv", metadata={"seed": 0})
    an.emit_report(rows, tmp_path / "r2.csv", metadata={"seed": 0})
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_emit_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        an.emit_report([], tmp_path / "empty.csv")


def test_emit_report_single_row_layout(tmp_path):
    an.emit_report([{"x": 1}], tmp_path / "one.csv")
    lines = (tmp_path / "one.csv").read_text().splitlines()
    assert len(lines) == 3  # comment, header, one row
    assert lines[2] == "1"


def test_scorecard_rows_ratios_and_pinned_figures(tmp_path):
    rows = an.scorecard([Weno3JS(), Weno5JS()])
    assert [r.scheme for r in rows] == ["weno3-js", "weno5-js"]
    js, w5 = rows
    # each reference is its own denominator
    assert js.cosine_ratio == 1.0 and js.sigmoid_coarse_ratio == 1.0
    assert w5.transonic_ratio == 1.0
    assert js.band_below_js is False and w5.band_below_js is True
    prob = sv.advection_cosine()
    assert js.cosine_l1 == sv.run(prob, sv.default_grid(prob, 256), Weno3JS()).final_error
    assert round(js.sigmoid_slope, 2) == 1.70
    assert f"{js.shock_overshoot:.1e}" == "1.3e-04"
    assert round(w5.sigmoid_slope, 2) == 2.54
    an.emit_report(rows, tmp_path / "scorecard.csv")
    back, _ = an.parse_report(tmp_path / "scorecard.csv")
    assert back == [vars(r) for r in rows] and back[0]["band_below_js"] is False


def test_scorecard_measures_only_the_reference_figures_it_reads(monkeypatch):
    solved, analysed = [], []

    def fake_run(problem, grid, scheme):
        solved.append((scheme.name, problem.init, grid.nx))
        return sv.SolveReport(np.zeros(1), np.zeros(grid.nx), 1.0)

    def fake_adr(scheme, kappa_dx_list, nx=an.DEFAULT_ADR_NX):
        analysed.append(scheme.name)
        return [an.ADRPoint(k, k, 0.0, 0.0) for k in kappa_dx_list]

    monkeypatch.setattr(an, "run", fake_run)
    monkeypatch.setattr(an, "adr", fake_adr)
    an.scorecard([IdealWeights3()])
    assert [s for s in solved if s[0] == "weno5-js"] == [("weno5-js", "riemann", 256)]
    assert sorted(s for s in solved if s[0] == "weno3-js") == [
        ("weno3-js", "cosine", 256), ("weno3-js", "sigmoid", 64)
    ]
    assert analysed.count("weno3-js") == 1 and "weno5-js" not in analysed


def test_scorecard_rejects_a_repeated_name():
    with pytest.raises(ValueError, match="appears twice"):
        an.scorecard([Weno3JS(), Weno3Z(), Weno3JS()])
