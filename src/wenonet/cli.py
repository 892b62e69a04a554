"""Command-line pipeline orchestration with reproducible, config-driven runs.

``gen-data`` and ``train`` resolve their settings from an optional JSON
``--config`` file plus flag overrides (flags win), each section through one
key table.  Every subcommand but ``select``, which only prints a model id,
writes its outputs under ``--out`` and returns its resolved settings, which
``main`` writes there as a manifest.  Runs are deterministic given (config,
seed): rerunning reproduces data artifacts byte for byte, and ``train --jobs``
changes only how many models train at once.  Exit codes: 0 success, 1 runtime
failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analysis, solver, train
from .funcspace import Dataset, DatasetConfig, build_dataset, eval_function
from .ratnet import NNScheme, accounting_report, load_params, save_params
from .reconstruct import IdealWeights3, Quick, Weno3JS, Weno3Z, Weno5JS

CLASSICAL_SCHEMES = {
    cls.name: cls for cls in (Weno3JS, Weno3Z, Weno5JS, Quick, IdealWeights3)
}

PROBLEMS = {
    "advection-cosine": lambda T, cfl: solver.advection_cosine(T, cfl),
    "advection-sigmoid": lambda T, cfl: solver.advection_sigmoid(T, cfl),
    "burgers-shock": lambda T, cfl: solver.burgers_riemann(1.0, 0.0, T, cfl),
    "burgers-rarefaction": lambda T, cfl: solver.burgers_riemann(0.0, 1.0, T, cfl),
    "burgers-transonic": lambda T, cfl: solver.burgers_riemann(-1.0, 1.0, T, cfl),
}

RECON_TARGETS = {
    "recon-sin3": "sine_cubed",
    "recon-sine-step": "sine_step",
}

REGISTRY_NAME = "models.csv"


def make_scheme(name: str):
    """Scheme object from its CLI name; ``nn:<weights-path>`` loads a model."""
    if name in CLASSICAL_SCHEMES:
        return CLASSICAL_SCHEMES[name]()
    if name.startswith("nn:"):
        path = Path(name[3:])
        try:
            params = load_params(path)
        except (ValueError, OSError) as e:  # missing, unreadable, malformed or out of range
            raise ValueError(f"weight file {path}: {e}") from e
        return NNScheme(params, name=f"nn:{path.stem}")
    valid = ", ".join(sorted(CLASSICAL_SCHEMES) + ["nn:<weights-path>"])
    raise ValueError(f"unknown scheme {name!r}; valid schemes: {valid}")


def _schemes(names: str) -> list:
    """The schemes of a comma-separated list; a repeated scheme name is a ValueError."""
    schemes = [make_scheme(name) for name in names.split(",")]
    for i, s in enumerate(schemes):
        if s.name in [t.name for t in schemes[:i]]:  # the report's rows would mix
            raise ValueError(f"scheme name {s.name!r} appears twice in --schemes")
    return schemes


def _choice(name: str, valid, what: str) -> str:
    """``name`` if it is one of ``valid``, else a ValueError listing them."""
    if name not in valid:
        choices = ", ".join(sorted(valid))
        raise ValueError(f"unknown {what} {name!r}; choose one of: {choices}")
    return name


def _int_list(text: str) -> list[int]:
    """Grid sizes from a comma-separated flag such as ``16,32,64``."""
    return [int(v) for v in text.split(",")]


def _integer(value) -> int:
    """A config count: an int or an integral float; fractions and booleans raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A config real: a JSON number; booleans and strings raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _list_of(cast):
    """Cast of a JSON list whose items each go through ``cast``."""

    def cast_list(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, not {type(value).__name__}")
        return tuple(map(cast, value))

    return cast_list


_LOSS_KEYS = ("alpha", "beta_d", "beta_w")

#: Each config section's keys and their casts; a flag whose dest is a key overrides it.
DATASET_KEYS = {"nx_values": _list_of(_integer), "pairs_per_grid": _integer, "seed": _integer}
RUN_KEYS = dict.fromkeys(("total_steps", "batch_size", "warmup_steps", "seed"), _integer)
MODEL_KEYS = {
    **RUN_KEYS,
    "peak_lr": _real,
    **dict.fromkeys(_LOSS_KEYS, _real),
    "criterion": lambda v: _choice(v, train.SELECTION_CRITERIA, "criterion"),
}
SWEEP_KEYS = dict.fromkeys(("alphas", "beta_ds", "peak_lrs"), _list_of(_real))


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"config file {path} is not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return doc


def _typed(value, kind: type, name: str):
    """``value`` if it is a ``kind`` (dict or list), else a usage error naming the field."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ValueError(f"config field {name!r} must be {what}, not {type(value).__name__}")
    return value


def _section(raw, keys: dict, where: str, args=None) -> dict:
    """The ``keys`` that a flag in ``args`` or the section ``raw`` sets, cast; flags win.

    ``where`` names the section in errors.  A nested section (``where`` not
    empty) may hold only ``keys``; the top level may also hold the other
    command's keys, since one file can serve ``gen-data`` and ``train``.
    """
    _typed(raw, dict, where)
    unknown = [k for k in raw if k not in keys] if where else []
    if unknown:
        valid = ", ".join(keys)
        raise ValueError(f"unknown config field '{where}.{unknown[0]}'; valid keys: {valid}")
    out = {}
    for key, cast in keys.items():
        flag = getattr(args, key, None)
        if flag is None and key not in raw:
            continue
        name = f"{where}.{key}" if where else key
        try:
            out[key] = cast(raw[key] if flag is None else flag)
        except (TypeError, ValueError) as e:
            raise ValueError(f"config field {name!r} has the wrong type or value ({e})") from e
    return out


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(args, resolved: dict, wall_time: float) -> None:
    """``<command>-manifest.txt`` under ``--out``: a comment line, then the settings."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc = {"command": args.command, "version": __version__, **resolved}
    body = json.dumps(doc, indent=2, sort_keys=True, default=str)
    text = f"# generated: {stamp}; wall_time_s={wall_time:.3f}\n{body}\n"
    (Path(args.out) / f"{args.command}-manifest.txt").write_text(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> dict:
    cfg = DatasetConfig(**_section(_load_config(args.config), DATASET_KEYS, "", args))
    dataset = build_dataset(cfg)
    out = _out_dir(args)
    dataset.save_csv(out / "dataset.csv")
    print(f"wrote {len(dataset)} samples to {out / 'dataset.csv'}")
    return {**dataclasses.asdict(cfg), "rows": len(dataset)}


def _train_configs(config: dict, args) -> tuple[list[train.TrainConfig], list[str]]:
    """Each model's ``TrainConfig`` and registry criterion, from ``configs`` or ``sweep``."""
    base = _section(config, RUN_KEYS, "", args)
    seed0 = base.pop("seed", 0)
    if "configs" in config:
        configs, criteria = [], []
        for i, raw in enumerate(_typed(config["configs"], list, "configs")):
            model = {**base, "seed": seed0 + i, **_section(raw, MODEL_KEYS, f"configs[{i}]")}
            criteria.append(model.pop("criterion", ""))
            hyper = {k: model.pop(k) for k in _LOSS_KEYS if k in model}
            configs.append(train.TrainConfig(**model, hyper=train.LossHyper(**hyper)))
    else:
        sweep = _section(config.get("sweep", {}), SWEEP_KEYS, "sweep")
        configs = train.sweep_grid(**sweep, seed0=seed0, **base)
        criteria = [""] * len(configs)
    if not configs:
        raise ValueError("the config trains no models (empty configs or sweep list)")
    return configs, criteria


def cmd_train(args) -> dict:
    config = _load_config(args.config)
    dataset = Dataset.load_csv(args.dataset)
    configs, criteria = _train_configs(config, args)
    val_cfg = DatasetConfig(**{
        "nx_values": tuple(int(nx) for nx in np.unique(dataset.nx)),
        "pairs_per_grid": 4096,
        "seed": configs[0].seed + 1000003,
        **_section(config.get("val", {}), DATASET_KEYS, "val"),
    })
    val_dataset = build_dataset(val_cfg)

    models = train.run_sweep(dataset, configs, val_dataset, jobs=args.jobs)
    out = _out_dir(args)
    rows = []
    for i, model in enumerate(models):
        model_id = f"model_{i:03d}"
        save_params(model.params, out / f"{model_id}.json")
        np.savetxt(out / f"train_log_{model_id}.csv", model.log, fmt=["%d"] + ["%.17g"] * 5,
                   delimiter=",", header=train.TRAIN_LOG_HEADER, comments="")
        rows.append({
            "model_id": model_id,
            "alpha": model.config.hyper.alpha,
            "beta_d": model.config.hyper.beta_d,
            "peak_lr": model.config.peak_lr,
            **train.selection_row(model),
            "skipped_steps": model.skipped_steps,
            "criterion": criteria[i],
        })
    analysis.emit_report(
        rows,
        out / REGISTRY_NAME,
        metadata={"version": __version__, "seed": configs[0].seed},
    )
    print(accounting_report(models[0].params))
    print(f"trained {len(models)} models into {out}")
    return {
        "dataset": str(args.dataset),
        "n_models": len(models),
        "val": dataclasses.asdict(val_cfg),
        "configs": [{**dataclasses.asdict(c), "warmup_steps": c.warmup} for c in configs],
    }


def cmd_select(args) -> None:
    criterion = _choice(args.criterion, train.SELECTION_CRITERIA, "criterion")
    rows, _ = analysis.parse_report(Path(args.registry))
    if any("model_id" not in r for r in rows):
        raise ValueError(f"registry {args.registry} lacks the column 'model_id'")
    print(rows[train.select_index(rows, criterion)]["model_id"])


def _resolve_problem(args) -> solver.Problem:
    return PROBLEMS[_choice(args.problem, PROBLEMS, "problem")](args.T, args.cfl)


def cmd_solve(args) -> dict:
    problem = _resolve_problem(args)
    scheme = make_scheme(args.scheme)
    grid = solver.default_grid(problem, args.nx)
    t0 = time.perf_counter()
    err_rows = []
    for t, u in solver.steps(problem, grid, scheme):
        exact = solver.exact_cell_averages(problem, grid, t)
        err_rows.append({"t": t, "l1": solver.l1_error(u, exact, grid.dx)})
    wall_time = time.perf_counter() - t0
    final_l1 = err_rows[-1]["l1"]
    out = _out_dir(args)
    meta = {"version": __version__, "scheme": scheme.name, "nx": grid.nx}
    sol_rows = [{"x": x, "u": v, "u_exact": e} for x, v, e in zip(grid.centers, u, exact)]
    analysis.emit_report(sol_rows, out / "solution.csv", meta)
    analysis.emit_report(err_rows, out / "error_series.csv", meta)
    print(
        f"{scheme.name} nx={grid.nx} cfl={problem.cfl} T={problem.T}: "
        f"final L1 error {final_l1:.6g} ({wall_time:.2f}s)"
    )
    return {
        "problem": args.problem,
        "scheme": scheme.name,
        "nx": grid.nx,
        "cfl": problem.cfl,
        "T": problem.T,
        "final_l1": final_l1,
    }


def cmd_converge(args) -> dict:
    schemes = _schemes(args.schemes)
    _choice(args.problem, [*PROBLEMS, *RECON_TARGETS], "problem")
    if args.problem in RECON_TARGETS:
        target = eval_function(RECON_TARGETS[args.problem])
    else:
        target = _resolve_problem(args)
    rows = analysis.convergence_study(schemes, target, args.nx_list)
    out = _out_dir(args)
    analysis.emit_report(
        rows,
        out / "convergence.csv",
        metadata={"version": __version__, "problem": args.problem},
    )
    for scheme in schemes:
        slope = next(r.slope for r in rows if r.scheme == scheme.name)
        print(f"{scheme.name}: slope {slope:.3f}")
    return {"problem": args.problem, "schemes": args.schemes, "nx_list": args.nx_list}


def cmd_adr(args) -> dict:
    schemes = _schemes(args.schemes)
    kappas = analysis.default_kappa_grid(args.modes)
    rows = [
        {"scheme": s.name, **dataclasses.asdict(p)}
        for s in schemes
        for p in analysis.adr(s, kappas, args.nx)
    ]
    out = _out_dir(args)
    analysis.emit_report(
        rows,
        out / "adr.csv",
        metadata={"version": __version__, "nx": args.nx},
    )
    print(f"wrote {len(rows)} spectral samples to {out / 'adr.csv'}")
    return {"schemes": args.schemes, "nx": args.nx, "modes": args.modes}


# ---------------------------------------------------------------------------


def _add_common(sub, config: bool = False):
    """``--out``, and ``--config`` and ``--seed`` for the commands that read them."""
    if config:
        sub.add_argument("--config", help="JSON config file; flags override its keys")
        sub.add_argument("--seed", type=int, default=None, help="global seed")
    sub.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wenonet",
        description="train and benchmark data-driven WENO3 face reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the exact training dataset")
    _add_common(p, config=True)
    p.add_argument("--nx-values", type=_int_list, help="comma-separated grid sizes")
    p.add_argument("--pairs-per-grid", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one or more stencil-weight networks")
    _add_common(p, config=True)
    p.add_argument("--jobs", type=int, default=1, help="models trained at once (processes)")
    p.add_argument("--dataset", required=True, help="dataset CSV from gen-data")
    p.add_argument("--steps", dest="total_steps", type=int, help="Adam steps per model")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--warmup-steps", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("select", help="pick a model from a training registry")
    p.add_argument("--registry", required=True, help="models.csv from train")
    p.add_argument("--criterion", required=True, help="|".join(train.SELECTION_CRITERIA))
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("solve", help="run one problem with one scheme")
    _add_common(p)
    p.add_argument("--problem", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--T", type=float, default=solver.DEFAULT_T)
    p.add_argument("--cfl", type=float, default=solver.DEFAULT_CFL)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("converge", help="error-vs-resolution study")
    _add_common(p)
    p.add_argument("--problem", required=True)
    p.add_argument("--schemes", required=True, help="comma-separated scheme names")
    p.add_argument("--nx-list", required=True, type=_int_list,
                   help="comma-separated grid sizes")
    p.add_argument("--T", type=float, default=solver.DEFAULT_T)
    p.add_argument("--cfl", type=float, default=solver.DEFAULT_CFL)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("adr", help="dispersion-dissipation fingerprint")
    _add_common(p)
    p.add_argument("--schemes", required=True, help="comma-separated scheme names")
    p.add_argument("--nx", type=int, default=analysis.DEFAULT_ADR_NX)
    p.add_argument("--modes", type=int, default=analysis.DEFAULT_ADR_MODES)
    p.set_defaults(func=cmd_adr)

    return parser


def main(argv=None) -> int:
    """Run one command; a command that returns its resolved settings gets a manifest."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        resolved = args.func(args)
        if resolved is not None:
            _write_manifest(args, resolved, time.perf_counter() - t0)
        return 0
    except (ValueError, OSError) as e:  # json.JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
