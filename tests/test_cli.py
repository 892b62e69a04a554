"""End-to-end tests of the command-line pipeline."""

import dataclasses
import json

import numpy as np
import pytest

from wenonet import analysis as an
from wenonet import cli
from wenonet import funcspace as fs
from wenonet import ratnet as rn
from wenonet import solver as sv
from wenonet import train as tr
from wenonet.cli import main, make_scheme
from wenonet.reconstruct import Weno3JS


def run_cli(*argv):
    return main(list(argv))


def test_gen_data_writes_dataset_and_manifest(tmp_path):
    out = tmp_path / "data"
    code = run_cli(
        "gen-data",
        "--out", str(out),
        "--nx-values", "16,32",
        "--pairs-per-grid", "64",
        "--seed", "5",
    )
    assert code == 0
    ds = fs.Dataset.load_csv(out / "dataset.csv")
    assert len(ds) == 128
    manifest = (out / "gen-data-manifest.txt").read_text()
    assert manifest.startswith("# generated:")
    assert '"seed": 5' in manifest


def test_gen_data_byte_identical_reruns(tmp_path):
    args = ["gen-data", "--nx-values", "16", "--pairs-per-grid", "32", "--seed", "9"]
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a/dataset.csv").read_bytes() == (
        tmp_path / "b/dataset.csv"
    ).read_bytes()


def test_gen_data_bad_config_exit_2(tmp_path, capsys):
    code = run_cli(
        "gen-data",
        "--out", str(tmp_path / "x"),
        "--nx-values", "24",
        "--pairs-per-grid", "100",
    )
    assert code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    capsys.readouterr()
    assert run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
    assert f"config file {cfg}" in capsys.readouterr().err


def test_config_value_of_wrong_type_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nx_values": 16}))
    assert run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")) == 2
    assert "wrong type" in capsys.readouterr().err
    assert run_cli("gen-data", "--nx-values", "16", "--pairs-per-grid", "32",
                   "--out", str(tmp_path / "d")) == 0
    cfg.write_text(json.dumps({"configs": [{"alpha": [0.1]}]}))
    assert run_cli("train", "--dataset", str(tmp_path / "d" / "dataset.csv"),
                   "--config", str(cfg), "--out", str(tmp_path / "m")) == 2
    assert "wrong type" in capsys.readouterr().err
    # a section of the wrong JSON type, a bad value or an unknown key inside a
    # section is named in the message; one small model keeps a missed fault cheap
    one = {"sweep": {"alphas": [0.1], "beta_ds": [0.1], "peak_lrs": [1e-3]}}
    for doc, field in (({"configs": [1]}, "'configs[0]'"), ({"configs": {"a": 1}}, "'configs'"),
                       ({"sweep": [1]}, "'sweep'"), ({"val": 5}, "'val'"),
                       ({"configs": [{"criterion": "fastest"}]}, "'configs[0].criterion'"),
                       ({"configs": [{"criterion": 3}]}, "'configs[0].criterion'"),
                       ({"sweep": {"alphas": 3}}, "'sweep.alphas'"),
                       ({**one, "val": {"nx_values": 3}}, "'val.nx_values'"),
                       ({"configs": [{"alpah": 5}]}, "'configs[0].alpah'"),
                       ({"configs": [{"alpha": True}]}, "'configs[0].alpha'"),
                       ({"configs": [{"peak_lr": "1e-3"}]}, "'configs[0].peak_lr'"),
                       ({"sweep": {**one["sweep"], "beta_ds": [True]}}, "'sweep.beta_ds'"),
                       ({"sweep": {**one["sweep"], "alpah": [5]}}, "'sweep.alpah'"),
                       ({**one, "val": {"alpah": 5}}, "'val.alpah'")):
        cfg.write_text(json.dumps({"total_steps": 1, **doc}))
        assert run_cli("train", "--dataset", str(tmp_path / "d" / "dataset.csv"),
                       "--config", str(cfg), "--out", str(tmp_path / "m")) == 2, doc
        assert f"config field {field}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_gen_data_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nx_values": [16], "pairs_per_grid": 32, "seed": 1}))
    out = tmp_path / "out"
    code = run_cli("gen-data", "--config", str(cfg), "--out", str(out), "--seed", "2")
    assert code == 0
    manifest = (out / "gen-data-manifest.txt").read_text()
    assert '"seed": 2' in manifest  # flag wins over config file


def test_options_exist_only_where_they_are_read(tmp_path):
    registry = str(tmp_path / "models.csv")
    for argv in (
        ["solve", "--problem", "advection-cosine", "--scheme", "weno3-js", "--seed", "1"],
        ["select", "--registry", registry, "--criterion", "conv-sine-step", "--out", "x"],
        ["adr", "--schemes", "weno3-js", "--jobs", "2"],
        ["gen-data", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2, argv


def _train_small(tmp_path, *flags):
    """``train`` on a tiny dataset with one config; returns (exit code, out dir)."""
    data = tmp_path / "data"
    if not data.exists():
        run_cli("gen-data", "--out", str(data), "--nx-values", "16",
                "--pairs-per-grid", "64")
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({
        "configs": [{"peak_lr": 2e-3}],
        "val": {"nx_values": [16], "pairs_per_grid": 32},
    }))
    out = tmp_path / f"models{'_'.join(flags)}"
    code = run_cli("train", "--dataset", str(data / "dataset.csv"), "--config", str(cfg),
                   "--batch-size", "32", "--out", str(out), *flags)
    return code, out


def test_registry_counts_the_steps_skipped_for_a_non_finite_gradient(tmp_path, monkeypatch):
    real = tr._loss_and_grad
    calls = []

    def loss_and_grad(params, stencils, targets, consts, hyper):
        loss, grad, parts = real(params, stencils, targets, consts, hyper)
        calls.append(None)
        if len(calls) == 4:
            grad = np.where(np.arange(grad.size) == 5, np.nan, grad)
        return loss, grad, parts

    monkeypatch.setattr(tr, "_loss_and_grad", loss_and_grad)
    code, out = _train_small(tmp_path, "--steps", "8", "--jobs", "1")
    assert code == 0
    (row,), _ = an.parse_report(out / "models.csv")
    assert row["skipped_steps"] == 1


def test_zero_valued_flags_are_kept(tmp_path):
    code, out = _train_small(tmp_path, "--steps", "40", "--warmup-steps", "0")
    assert code == 0
    manifest = (out / "train-manifest.txt").read_text()
    assert '"warmup_steps": 0' in manifest and '"total_steps": 40' in manifest
    log, _ = an.parse_report(out / "train_log_model_000.csv")
    assert len(log) == 40 and log[0]["lr"] == 2e-3  # no warmup: the peak at step 0

    code, out = _train_small(tmp_path, "--steps", "0")
    assert code == 0
    assert '"total_steps": 0' in (out / "train-manifest.txt").read_text()
    log_lines = (out / "train_log_model_000.csv").read_text().splitlines()
    assert log_lines == ["step,lr,loss,loss_r,loss_d,loss_l2"]

    # a flag given twice takes its last value, so this overrides --batch-size 32
    assert _train_small(tmp_path, "--steps", "10", "--batch-size", "0")[0] == 2
    assert run_cli("gen-data", "--nx-values", "16", "--pairs-per-grid", "0",
                   "--out", str(tmp_path / "d0")) == 2
    assert not (tmp_path / "d0").exists()


def test_train_jobs_below_one_exit_2(tmp_path, capsys):
    code, out = _train_small(tmp_path, "--steps", "5", "--jobs", "0")
    assert code == 2
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_train_config_with_bad_rate_or_loss_weight_exit_2(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli("gen-data", "--out", str(data), "--nx-values", "16", "--pairs-per-grid", "64")
    cfg = tmp_path / "bad.json"
    for doc, field in (({"configs": [{"peak_lr": -0.01}]}, "peak_lr"),
                       ({"configs": [{"alpha": float("nan")}]}, "finite"),
                       ({"configs": [{"beta_d": float("inf")}]}, "finite"),
                       ({"sweep": {"alphas": [0.1], "beta_ds": [0.1], "peak_lrs": [float("nan")]}},
                        "peak_lr"),
                       ({"configs": [{"alpha": 10**400}]}, "alpha")):  # too large for a float
        cfg.write_text(json.dumps({"total_steps": 20, **doc}))  # json writes NaN and Infinity
        code = run_cli("train", "--dataset", str(data / "dataset.csv"),
                       "--config", str(cfg), "--out", str(tmp_path / "m"))
        assert code == 2, doc
        assert field in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_training_divergence_exit_1(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli("gen-data", "--out", str(data), "--nx-values", "16,32", "--pairs-per-grid", "256")
    cfg = tmp_path / "wild.json"
    cfg.write_text(json.dumps({"configs": [{"peak_lr": 1e8}]}))
    code = run_cli("train", "--dataset", str(data / "dataset.csv"), "--config", str(cfg),
                   "--steps", "20", "--batch-size", "64", "--out", str(tmp_path / "m"))
    assert code == 1
    assert "runtime failure: training diverged at step 2" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_train_on_a_dataset_with_a_bad_row_exit_2(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli("gen-data", "--out", str(data), "--nx-values", "16,32", "--pairs-per-grid", "256")
    path = data / "dataset.csv"
    good = path.read_text().splitlines()
    for line, cells in ((40, "0.1,0.2,0.3,nan,16"), (300, "0.1,0.2,0.3,0.2,16.7")):
        path.write_text("\n".join(good[:line - 1] + [cells] + good[line:]) + "\n")
        code = run_cli("train", "--dataset", str(path), "--steps", "5",
                       "--out", str(tmp_path / "m"))
        assert code == 2, cells
        assert f"line {line} has" in capsys.readouterr().err
    path.write_text("\n".join(good[1:]) + "\n")  # no header: the first row is not skipped
    assert run_cli("train", "--dataset", str(path), "--steps", "5", "--out", str(tmp_path / "m")) == 2
    assert f"line 1 is {good[1]!r}, not the header" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_train_on_a_dataset_without_rows_exit_2(tmp_path, capsys):
    path = tmp_path / "dataset.csv"
    path.write_text(fs.DATASET_HEADER + "\n")
    assert run_cli("train", "--dataset", str(path), "--steps", "5", "--out", str(tmp_path / "m")) == 2
    assert "has no data rows" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_train_config_with_no_models_exit_2(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli("gen-data", "--out", str(data), "--nx-values", "16", "--pairs-per-grid", "64")
    cfg = tmp_path / "empty.json"
    # val.seed is given, so nothing falls back to the first config's seed
    for doc in ({"configs": []}, {"sweep": {"alphas": []}, "val": {"seed": 1}}):
        cfg.write_text(json.dumps(doc))
        code = run_cli("train", "--dataset", str(data / "dataset.csv"),
                       "--config", str(cfg), "--out", str(tmp_path / "m"))
        assert code == 2, doc
        assert "trains no models" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_train_manifest_records_resolved_settings(tmp_path):
    data = tmp_path / "data"
    run_cli("gen-data", "--out", str(data), "--nx-values", "16", "--pairs-per-grid", "64")
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({
        "configs": [{"peak_lr": 2e-3, "beta_w": 0.001}],
        "val": {"nx_values": [16], "pairs_per_grid": 32},
    }))
    out = tmp_path / "models"
    assert run_cli("train", "--dataset", str(data / "dataset.csv"), "--config", str(cfg),
                   "--steps", "5", "--batch-size", "32", "--seed", "4",
                   "--out", str(out)) == 0
    text = (out / "train-manifest.txt").read_text()
    manifest = json.loads(text.split("\n", 1)[1])
    (resolved,) = manifest["configs"]
    assert resolved["hyper"]["beta_w"] == 0.001
    assert resolved["peak_lr"] == 2e-3 and resolved["seed"] == 4
    assert resolved["total_steps"] == 5 and resolved["batch_size"] == 32
    assert manifest["val"] == {"nx_values": [16], "pairs_per_grid": 32, "seed": 4 + 1000003}
    # unless given, a model's warmup is its own total_steps // 20, at least 1
    assert resolved["warmup_steps"] == 1
    for name, doc, warmups in (
        ("one", {"configs": [{"total_steps": 100}]}, [5]),
        ("two", {"total_steps": 60, "configs": [{"total_steps": 100}, {}]}, [5, 3]),
    ):
        cfg.write_text(json.dumps({**doc, "batch_size": 32, "val": manifest["val"]}))
        assert run_cli("train", "--dataset", str(data / "dataset.csv"), "--config", str(cfg),
                       "--out", str(tmp_path / name)) == 0
        text = (tmp_path / name / "train-manifest.txt").read_text()
        configs = json.loads(text.split("\n", 1)[1])["configs"]
        assert [c["warmup_steps"] for c in configs] == warmups


def test_every_config_key_reaches_the_run(tmp_path):
    """Each key of the four key tables, set to a non-default value, shows in the outputs."""
    dataset = {"nx_values": [16, 32], "pairs_per_grid": 64, "seed": 3}
    run = {"total_steps": 4, "batch_size": 16, "warmup_steps": 2, "seed": 6}
    model = {**run, "seed": 8, "peak_lr": 3e-3, "alpha": 0.2, "beta_d": 0.4,
             "beta_w": 2e-6, "criterion": "least-dev-loss"}
    sweep = {"alphas": [0.05], "beta_ds": [0.2], "peak_lrs": [2e-3]}
    val = {"nx_values": [32], "pairs_per_grid": 32, "seed": 5}
    assert (set(dataset), set(run), set(model), set(sweep)) == (
        set(cli.DATASET_KEYS), set(cli.RUN_KEYS), set(cli.MODEL_KEYS), set(cli.SWEEP_KEYS))
    # every training setting is a config key, so none is out of a config's reach
    settings = {f.name for f in dataclasses.fields(tr.TrainConfig)} - {"hyper"}
    assert settings <= set(cli.RUN_KEYS) | set(cli.MODEL_KEYS)
    assert {f.name for f in dataclasses.fields(tr.LossHyper)} <= set(cli._LOSS_KEYS)

    def manifest(out, command):
        return json.loads((out / f"{command}-manifest.txt").read_text().split("\n", 1)[1])

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dataset))
    assert run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")) == 0
    assert dataset.items() <= manifest(tmp_path / "d", "gen-data").items()

    data = str(tmp_path / "d" / "dataset.csv")
    for name, doc in (("models", {"configs": [model], "val": val}),
                      ("sweep", {**run, "sweep": sweep, "val": val})):
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--dataset", data, "--config", str(cfg),
                       "--out", str(tmp_path / name)) == 0, name
        resolved = manifest(tmp_path / name, "train")
        assert resolved["val"] == val
        (config,) = resolved["configs"]
        flat = {**config, **config.pop("hyper")}
        # a sweep list holds the values of the model key without the final "s"
        swept = {k[:-1]: v[0] for k, v in sweep.items()}
        wanted = dict(model) if name == "models" else {**run, **swept}
        wanted.pop("criterion", None)
        assert {k: flat[k] for k in wanted} == wanted
    rows, _ = an.parse_report(tmp_path / "models" / "models.csv")
    assert rows[0]["criterion"] == model["criterion"]


def test_train_sweep_casts_top_level_counts(tmp_path, capsys):
    data = tmp_path / "data"
    run_cli("gen-data", "--out", str(data), "--nx-values", "16", "--pairs-per-grid", "64")
    cfg = tmp_path / "cfg.json"
    doc = {
        "total_steps": 2.5, "batch_size": 16.0,
        "sweep": {"alphas": [0.1], "beta_ds": [0.1], "peak_lrs": [1e-3]},
        "val": {"nx_values": [16], "pairs_per_grid": 32},
    }
    out = tmp_path / "models"
    # a count that is a fraction or a boolean is not truncated: it exits 2
    for bad, field in ({"total_steps": 2.5}, "'total_steps'"), ({"seed": True}, "'seed'"), (
        {"val": {**doc["val"], "nx_values": [16.7]}}, "'val.nx_values'"
    ):
        cfg.write_text(json.dumps({**doc, "total_steps": 2, **bad}))
        assert run_cli("train", "--dataset", str(data / "dataset.csv"), "--config", str(cfg),
                       "--out", str(out)) == 2, bad
        assert f"config field {field}" in capsys.readouterr().err
    cfg.write_text(json.dumps({"nx_values": [16.7], "pairs_per_grid": 32}))
    assert run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")) == 2
    assert "config field 'nx_values'" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "d").exists()
    # an integral float is a count
    cfg.write_text(json.dumps({**doc, "total_steps": 2.0}))
    assert run_cli("train", "--dataset", str(data / "dataset.csv"), "--config", str(cfg),
                   "--out", str(out)) == 0
    manifest = json.loads((out / "train-manifest.txt").read_text().split("\n", 1)[1])
    (resolved,) = manifest["configs"]
    assert (resolved["total_steps"], resolved["batch_size"]) == (2, 16)


def test_solve_matches_library_call(tmp_path):
    out = tmp_path / "solve"
    code = run_cli(
        "solve",
        "--problem", "advection-cosine",
        "--scheme", "weno3-js",
        "--nx", "64",
        "--T", "1.0",
        "--out", str(out),
    )
    assert code == 0
    rows, _ = an.parse_report(out / "error_series.csv")
    prob = sv.advection_cosine(T=1.0)
    report = sv.run(prob, sv.default_grid(prob, 64), Weno3JS())
    assert rows[-1]["l1"] == report.final_error  # bit-for-bit via 17-digit round trip
    sol, _ = an.parse_report(out / "solution.csv")
    assert len(sol) == 64
    assert sol[0]["u_exact"] == pytest.approx(report.final_state[0], abs=0.05)


def test_solve_error_series_is_the_l1_error_of_each_step(tmp_path):
    out = tmp_path / "solve"
    assert run_cli("solve", "--problem", "burgers-shock", "--scheme", "weno3-js",
                   "--nx", "32", "--T", "0.5", "--out", str(out)) == 0
    rows, _ = an.parse_report(out / "error_series.csv")
    prob = sv.burgers_riemann(1.0, 0.0, T=0.5)
    grid = sv.default_grid(prob, 32)
    expected = [
        {"t": t, "l1": sv.l1_error(u, sv.exact_cell_averages(prob, grid, t), grid.dx)}
        for t, u in sv.steps(prob, grid, Weno3JS())
    ]
    assert rows == expected  # bit for bit via the 17-digit round trip
    sol, _ = an.parse_report(out / "solution.csv")
    final = sv.exact_cell_averages(prob, grid, expected[-1]["t"])
    assert [r["u_exact"] for r in sol] == list(final)


def test_solve_unknown_scheme_exit_2(tmp_path):
    code = run_cli(
        "solve",
        "--problem", "advection-cosine",
        "--scheme", "weno7",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_solve_unknown_problem_exit_2(tmp_path):
    code = run_cli(
        "solve",
        "--problem", "kdv",
        "--scheme", "weno3-js",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_usage_errors_name_the_valid_choices(tmp_path, capsys):
    assert run_cli("solve", "--problem", "kdv", "--scheme", "weno3-js",
                   "--out", str(tmp_path / "x")) == 2
    assert "choose one of: advection-cosine, advection-sigmoid" in capsys.readouterr().err
    assert run_cli("converge", "--problem", "kdv", "--schemes", "weno3-js",
                   "--nx-list", "16,32", "--out", str(tmp_path / "y")) == 2
    assert "recon-sine-step" in capsys.readouterr().err
    an.emit_report([{"model_id": "model_000"}], tmp_path / "models.csv", metadata={})
    assert run_cli("select", "--registry", str(tmp_path / "models.csv"),
                   "--criterion", "fastest") == 2
    assert "choose one of: conv-sin-cubed, conv-sine-step" in capsys.readouterr().err
    assert run_cli("select", "--registry", str(tmp_path / "models.csv"),
                   "--criterion", "conv-sine-step") == 2
    assert "lacks columns ['order_h', 'recon_loss']" in capsys.readouterr().err


def test_program_errors_propagate_instead_of_exit_2(tmp_path, monkeypatch):
    def broken_steps(problem, grid, scheme):
        raise TypeError("a bug inside the solver")

    monkeypatch.setattr(cli.solver, "steps", broken_steps)
    with pytest.raises(TypeError, match="a bug inside the solver"):
        run_cli("solve", "--problem", "advection-cosine", "--scheme", "weno3-js",
                "--out", str(tmp_path / "x"))


def test_negative_end_time_or_repeated_grids_exit_2(tmp_path, capsys):
    assert run_cli("solve", "--problem", "advection-cosine", "--scheme", "weno3-js",
                   "--nx", "16", "--T", "-1", "--out", str(tmp_path / "s")) == 2
    assert "T=-1.0 must be finite and non-negative" in capsys.readouterr().err
    assert run_cli("converge", "--problem", "recon-sin3", "--schemes", "weno3-js",
                   "--nx-list", "64,64,64", "--out", str(tmp_path / "c")) == 2
    assert "three distinct grid sizes" in capsys.readouterr().err
    # a grid below the stencil width is named too
    for nx in (0, 2):
        assert run_cli("converge", "--problem", "recon-sin3", "--schemes", "weno3-js",
                       "--nx-list", f"16,32,{nx}", "--out", str(tmp_path / "c")) == 2
        assert f"nx={nx} too small for a 3-cell stencil" in capsys.readouterr().err
    assert not (tmp_path / "s").exists() and not (tmp_path / "c").exists()


def test_make_scheme_nn_roundtrip(tmp_path):
    params = rn.init_params(rng=np.random.default_rng(0))
    path = tmp_path / "weights.json"
    rn.save_params(params, path)
    scheme = make_scheme(f"nn:{path}")
    assert scheme.name == "nn:weights"
    windows = np.random.default_rng(1).normal(size=(5, 3))
    assert np.array_equal(
        scheme.face_value(windows), rn.nn_reconstruct(params, windows)
    )
    with pytest.raises(ValueError, match="weight file /nonexistent/weights.json"):
        make_scheme("nn:/nonexistent/weights.json")


def test_solve_malformed_weight_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1, "arch": [4, 4, 4]}')
    code = run_cli(
        "solve",
        "--problem", "advection-cosine",
        "--scheme", f"nn:{bad}",
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    # fields holding the wrong kind of JSON value are usage errors too
    for text in ('{"format_version": 1, "arch": 4}', "3",
                 '{"format_version": 1, "arch": [4, 4], "c_eno": [1]}',
                 '{"format_version": 1, "arch": [4, 4], "c_eno": 0.001, "layers": [{}],'
                 ' "feat": {"a": 0, "b": 0, "c": 0, "d": 0}}'):
        bad.write_text(text)
        assert run_cli("solve", "--problem", "advection-cosine",
                       "--scheme", f"nn:{bad}", "--out", str(tmp_path / "x")) == 2
    # a value out of its range, or a block entry that is not a JSON number, is a
    # usage error that names the field and the file, also beside a good file
    doc = json.loads(rn.params_to_json(rn.init_params(rng=np.random.default_rng(0))))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    for field, bad_doc in (("c_eno", {**doc, "c_eno": 0.7}), ("arch", {**doc, "arch": [5, 4, 4]}),
                           ("head.b", {**doc, "head": {**doc["head"], "b": ["0.5", True]}}),
                           ("head.b", {**doc, "head": {**doc["head"], "b": [10**400, 0.5]}})):
        bad.write_text(json.dumps(bad_doc))
        capsys.readouterr()
        assert run_cli("solve", "--problem", "advection-cosine",
                       "--scheme", f"nn:{bad}", "--out", str(tmp_path / "x")) == 2
        assert field in capsys.readouterr().err
        assert run_cli("converge", "--problem", "recon-sin3", "--schemes", f"nn:{good},nn:{bad}",
                       "--nx-list", "16,32,64", "--out", str(tmp_path / "c")) == 2
        assert f"weight file {bad}:" in capsys.readouterr().err


def test_converge_rows_and_slopes(tmp_path):
    out = tmp_path / "conv"
    code = run_cli(
        "converge",
        "--problem", "advection-cosine",
        "--schemes", "weno3-js,quick,ideal3",
        "--nx-list", "16,32,64,128",
        "--T", "0.5",
        "--out", str(out),
    )
    assert code == 0
    rows, _ = an.parse_report(out / "convergence.csv")
    assert len(rows) == 12
    assert {r["scheme"] for r in rows} == {"weno3-js", "quick", "ideal3"}


def test_converge_reconstruction_target(tmp_path):
    out = tmp_path / "conv"
    code = run_cli(
        "converge",
        "--problem", "recon-sin3",
        "--schemes", "weno5-js",
        "--nx-list", "32,64,128,256",
        "--out", str(out),
    )
    assert code == 0
    rows, _ = an.parse_report(out / "convergence.csv")
    assert rows[0]["slope"] > 4.0


def test_adr_csv(tmp_path):
    out = tmp_path / "adr"
    code = run_cli(
        "adr",
        "--schemes", "weno3-js,weno5-js",
        "--nx", "64",
        "--modes", "8",
        "--out", str(out),
    )
    assert code == 0
    rows, _ = an.parse_report(out / "adr.csv")
    assert len(rows) == 16
    assert all(r["dissipation"] <= 1e-8 for r in rows)


@pytest.mark.parametrize("modes", ["0", "-3"])
def test_adr_rejects_fewer_than_one_mode_before_writing(tmp_path, capsys, modes):
    out = tmp_path / "adr"
    assert run_cli("adr", "--schemes", "weno3-js", "--modes", modes, "--out", str(out)) == 2
    assert "n_modes" in capsys.readouterr().err
    assert not out.exists()


def test_converge_and_adr_reject_a_repeated_scheme_name(tmp_path, capsys):
    # two weight files with one stem get one scheme name, so their rows would mix
    for seed, d in enumerate("ab"):
        (tmp_path / d).mkdir()
        rn.save_params(rn.init_params(rng=np.random.default_rng(seed)), tmp_path / d / "m.json")
    nets = f"nn:{tmp_path / 'a' / 'm.json'},nn:{tmp_path / 'b' / 'm.json'}"
    for schemes, name in ((nets, "nn:m"), ("weno3-js,quick,weno3-js", "weno3-js")):
        for argv in (["converge", "--problem", "recon-sin3", "--nx-list", "16,32"],
                     ["adr", "--nx", "16", "--modes", "2"]):
            out = tmp_path / "out"
            assert run_cli(*argv, "--schemes", schemes, "--out", str(out)) == 2, argv
            assert f"scheme name {name!r} appears twice" in capsys.readouterr().err
            assert not out.exists()


def test_train_select_pipeline_small(tmp_path):
    data_dir = tmp_path / "data"
    run_cli(
        "gen-data",
        "--out", str(data_dir),
        "--nx-values", "16,32",
        "--pairs-per-grid", "256",
        "--seed", "0",
    )
    cfg = tmp_path / "train.json"
    cfg.write_text(
        json.dumps(
            {
                "configs": [
                    {"alpha": 0.1, "beta_d": 0.1, "peak_lr": 2e-3, "seed": 0},
                    {"alpha": 0.3, "beta_d": 0.3, "peak_lr": 2e-3, "seed": 1},
                ],
                "total_steps": 60,
                "batch_size": 128,
                "warmup_steps": 5,
                "val": {"nx_values": [16], "pairs_per_grid": 64, "seed": 999},
            }
        )
    )
    model_dir = tmp_path / "models"
    code = run_cli(
        "train",
        "--dataset", str(data_dir / "dataset.csv"),
        "--config", str(cfg),
        "--out", str(model_dir),
    )
    assert code == 0
    assert (model_dir / "model_000.json").exists()
    assert (model_dir / "model_001.json").exists()
    rows, _ = an.parse_report(model_dir / "models.csv")
    assert len(rows) == 2
    assert list(rows[0]) == (
        "model_id,alpha,beta_d,peak_lr,order_g,order_h,recon_loss,dev_loss,skipped_steps,criterion"
    ).split(",")
    assert [r["skipped_steps"] for r in rows] == [0, 0]
    log_lines = (model_dir / "train_log_model_000.csv").read_text().splitlines()
    assert log_lines[0] == "step,lr,loss,loss_r,loss_d,loss_l2"
    assert len(log_lines) == 61

    code = run_cli(
        "select",
        "--registry", str(model_dir / "models.csv"),
        "--criterion", "conv-sine-step",
    )
    assert code == 0

    code = run_cli(
        "select",
        "--registry", str(model_dir / "models.csv"),
        "--criterion", "not-a-criterion",
    )
    assert code == 2


def test_select_orders_are_the_converge_slopes_bit_for_bit(tmp_path):
    code, models = _train_small(tmp_path, "--steps", "40")
    assert code == 0
    (registry,), _ = an.parse_report(models / "models.csv")
    for problem, column in (("recon-sine-step", "order_h"), ("recon-sin3", "order_g")):
        out = tmp_path / problem
        assert run_cli("converge", "--problem", problem,
                       "--schemes", f"nn:{models / 'model_000.json'}",
                       "--nx-list", "16,32,64,128,256,512,1024", "--out", str(out)) == 0
        rows, _ = an.parse_report(out / "convergence.csv")
        assert {r["slope"] for r in rows} == {registry[column]}


def test_select_on_missing_registry_exit_2(tmp_path, capsys):
    assert run_cli("select", "--registry", str(tmp_path / "no.csv"), "--criterion", "conv-sine-step") == 2
    registry = tmp_path / "models.csv"
    header = "model_id,alpha,beta_d,peak_lr,order_g,order_h,recon_loss,dev_loss,criterion"
    for text, message in (
        ("", "no header line"),
        ("# version=0.1.0, seed=0\n", "no header line"),
        (f"# seed=0\n{header}\nmodel_000,0.1,0.1,1e-4,2.0\n", "a row has 5 cells, the header 9"),
        (f"{header}\n", "no models to select from"),
    ):
        registry.write_text(text)
        assert run_cli("select", "--registry", str(registry), "--criterion", "conv-sine-step") == 2
        assert message in capsys.readouterr().err


def test_select_picks_order_closest_to_three(tmp_path, capsys):
    rows = [
        {"model_id": "model_000", "alpha": 0.1, "beta_d": 0.1, "peak_lr": 1e-4,
         "order_g": 2.0, "order_h": 2.2, "recon_loss": 0.5, "dev_loss": 0.5,
         "criterion": ""},
        {"model_id": "model_001", "alpha": 0.1, "beta_d": 0.1, "peak_lr": 1e-4,
         "order_g": 2.5, "order_h": 2.9, "recon_loss": 0.9, "dev_loss": 0.9,
         "criterion": ""},
    ]
    an.emit_report(rows, tmp_path / "models.csv", metadata={"seed": 0})
    code = run_cli(
        "select", "--registry", str(tmp_path / "models.csv"),
        "--criterion", "conv-sine-step",
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "model_001"


def test_select_ranks_nan_last_whatever_the_row_order(tmp_path, capsys):
    def registry(order_hs):
        rows = [{"model_id": f"model_{i:03d}", "order_g": 2.5, "order_h": h,
                 "recon_loss": 0.5, "dev_loss": 0.5} for i, h in enumerate(order_hs)]
        an.emit_report(rows, tmp_path / "models.csv", metadata={"seed": 0})
        return run_cli("select", "--registry", str(tmp_path / "models.csv"),
                       "--criterion", "conv-sine-step")

    assert registry([float("nan"), 2.9]) == 0
    assert capsys.readouterr().out.strip() == "model_001"
    assert registry([2.9, float("nan")]) == 0
    assert capsys.readouterr().out.strip() == "model_000"
    assert registry([float("nan"), float("nan")]) == 2
    assert "no model has a finite order_h" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A tiny dataset, a one-model train config and a weight file."""
    root = tmp_path_factory.mktemp("inputs")
    assert run_cli("gen-data", "--out", str(root), "--nx-values", "16",
                   "--pairs-per-grid", "64") == 0
    (root / "one.json").write_text(json.dumps({
        "configs": [{"peak_lr": 2e-3}],
        "val": {"nx_values": [16], "pairs_per_grid": 32},
    }))
    rn.save_params(rn.init_params(rng=np.random.default_rng(0)), root / "w.json")
    return root


MANIFEST_CASES = {
    "gen-data": (["--nx-values", "16", "--pairs-per-grid", "32"],
                 ["nx_values", "pairs_per_grid", "seed", "rows"]),
    "train": (["--dataset", "{in}/dataset.csv", "--config", "{in}/one.json",
               "--steps", "3", "--batch-size", "32"],
              ["dataset", "n_models", "val", "configs"]),
    "solve": (["--problem", "advection-cosine", "--scheme", "nn:{in}/w.json",
               "--nx", "16", "--T", "0.1"],
              ["problem", "scheme", "nx", "cfl", "T", "final_l1"]),
    "converge": (["--problem", "recon-sine-step", "--schemes", "weno3-js",
                  "--nx-list", "16,32,64"],
                 ["problem", "schemes", "nx_list"]),
    "adr": (["--schemes", "weno3-js", "--nx", "16", "--modes", "2"],
            ["schemes", "nx", "modes"]),
}


@pytest.mark.parametrize("command", list(MANIFEST_CASES))
def test_every_command_writes_its_manifest(tmp_path, small_inputs, command):
    flags, keys = MANIFEST_CASES[command]
    out = tmp_path / "out"
    argv = [command, *(f.format(**{"in": small_inputs}) for f in flags), "--out", str(out)]
    assert run_cli(*argv) == 0
    head, body = (out / f"{command}-manifest.txt").read_text().split("\n", 1)
    assert head.startswith("# generated:") and "wall_time_s=" in head
    manifest = json.loads(body)
    assert manifest["command"] == command
    assert set(keys) | {"command", "version"} == set(manifest)


def test_select_and_failing_commands_write_no_manifest(tmp_path, small_inputs, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("train", "--dataset", str(small_inputs / "dataset.csv"),
                   "--config", str(small_inputs / "one.json"), "--steps", "3",
                   "--batch-size", "32", "--out", "models")
    assert code == 0
    assert run_cli("select", "--registry", "models/models.csv",
                   "--criterion", "conv-sine-step") == 0
    assert sorted(p.name for p in tmp_path.rglob("*manifest*")) == ["train-manifest.txt"]
    assert run_cli("train", "--dataset", str(small_inputs / "dataset.csv"),
                   "--config", str(small_inputs / "one.json"), "--jobs", "0",
                   "--out", "failed") == 2
    assert not (tmp_path / "failed").exists()
