"""wenonet benchmark: one workload per run, closed loop, one process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (``WORKLOADS`` below; bench/README.md says why each exists):

- ``train-select``: ``train.run_sweep`` over one config per core, then
  ``train.select_model(..., "conv-sine-step")``;
- ``solve-nn``: ``wenonet solve`` through ``cli.main`` with the fixed network
  of bench/data, on two problems at nx 256 and at nx 2048;
- ``solve-classical``: the same four solves with ``weno3-js`` and ``weno5-js``.

A run sets up (import and inputs, timed several times), then repeats whole
rounds of the workload's operations until ``--seconds`` have passed.  The
first round's outputs are checked against bench/oracle.py and ``math``; later
rounds must repeat them bit for bit.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics of BENCHMARK.json, timed figures scaled to a
reference speed (``Reference``); with ``--trace 1`` it holds the per-layer
metrics from rounds run under the spans of bench/tracing.py, alternated with
untraced rounds for the overhead.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy can be imported.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WEIGHTS = HERE / "data" / "nn_weights.json"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Set-up repetitions per run; setup_s is the median.
SETUP_REPEATS = 5

#: The acceptance sweep's six (alpha, beta_d, seed) variants, peak lr and batch.
SWEEP_VARIANTS = (
    (0.01, 0.1, 0),
    (0.03, 0.03, 1),
    (0.1, 0.3, 2),
    (0.01, 0.3, 3),
    (0.3, 0.1, 4),
    (0.1, 0.1, 5),
)
SWEEP_PEAK_LR = 2e-3
SWEEP_BATCH = 2048
#: Shortened step budget per model (the acceptance sweep runs 45,000).
SWEEP_STEPS = 300

#: (problem, nx, T) of the solves.  T is cut from the default 5.0 on the
#: costly grids so that a network round spends about as long at nx 256 as at
#: nx 2048 (about 2 s each).
COARSE_NX = 256
SOLVES = (
    ("advection-cosine", COARSE_NX, 2.0),
    ("burgers-shock", COARSE_NX, 5.0),
    ("advection-cosine", 2048, 0.05),
    ("burgers-shock", 2048, 0.5),
)
SCHEMES = {"nn": (f"nn:{WEIGHTS}",), "classical": ("weno3-js", "weno5-js")}

# Tolerances of the output checks.
EXACT_ABS_TOL = 1e-11  # program's exact averages against the closed forms
L1_REL_TOL = 1e-12  # final_l1 in the manifest against solution.csv
FACE_REL_TOL = 1e-12  # face_value against the scalar references
MASS_DRIFT_TOL = 1e-10  # periodic problem
SHOCK_BOUNDS = (-1e-3, 1.0 + 1e-3)  # classical Burgers-shock states
GRAD_REL_TOL = 1e-4  # central differences against loss_and_grad
MIN_ORDER_SIN3 = 1.8  # selected model on sine-cubed


class Reference:
    """Timings of a fixed computation that runs no wenonet code.

    The benchmark's machine is shared, and its speed moved by up to 2x within
    a minute and by a quarter over minutes while this was written.  A piece
    of computation of the same kind as the workloads (numpy calls on arrays
    of 256 and 2048 cells, and scalar Python) is timed after every operation,
    and the gated figures are scaled by the mean time of a piece against
    ``NOMINAL_S``, so that the machine's speed during a run cancels when two
    commits are compared.
    """

    #: A piece's time at the speed the gated figures are reported at.
    NOMINAL_S = 0.02

    def __init__(self):
        self.pieces: list[float] = []

    def sample(self) -> None:
        self.pieces.append(_reference_piece())

    def speed(self) -> float:
        """Above 1 when the machine ran faster than nominal."""
        return self.NOMINAL_S / statistics.mean(self.pieces)


def _reference_piece() -> float:
    """Stencil arithmetic, a small dense layer with a rational activation, and
    scalar Python, in about the proportions of the workloads."""
    t0 = time.perf_counter()
    W = np.full((4, 4), 0.25)
    for n, reps in ((256, 135), (2048, 27)):
        u = np.cos(np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
        for _ in range(reps):
            w = np.lib.stride_tricks.sliding_window_view(np.concatenate([u[-2:], u, u[:2]]), 3)
            a0 = 1.0 / ((w[:, 1] - w[:, 0]) ** 2 + 1e-6) ** 2
            a1 = 2.0 / ((w[:, 1] - w[:, 2]) ** 2 + 1e-6) ** 2
            f = (a0 * (1.5 * w[:, 1] - 0.5 * w[:, 0]) + a1 * 0.5 * (w[:, 1] + w[:, 2])) / (a0 + a1)
            u = u - 1e-3 * np.diff(f[1:])
            z = np.abs(np.stack([w[:, 1] - w[:, 0], w[:, 2] - w[:, 1], w[:, 2] - w[:, 0],
                                 w[:, 2] - 2.0 * w[:, 1] + w[:, 0]], axis=-1)) @ W.T + 0.1
            z = ((0.1 * z + 0.2) * z + 0.5) * z / (np.abs((0.1 * z + 0.3) * z + 1.0) + 1e-8)
    s = [math.sin(0.01 * i) for i in range(1080)]
    for i in range(len(s) - 2):
        oracle.weno3_js(s[i], s[i + 1], s[i + 2])
    return time.perf_counter() - t0


class Round:
    """Outcome of one round: work items, timed seconds, operations, payload."""

    def __init__(self, items: float, seconds: float, ops: int, failed: int, payload=None,
                 by_nx=None):
        self.items, self.seconds, self.ops, self.failed = items, seconds, ops, failed
        self.payload = payload
        self.by_nx = by_nx or {}  # nx -> [items, seconds] of the solves on that grid


# ---------------------------------------------------------------------------
# workloads


class TrainSelect:
    """Sweep of one config per core, then selection by sine-step order."""

    def __init__(self, wn, seed: int, checks: list[str]):
        self.wn, self.seed, self.checks = wn, seed, checks
        cores = len(os.sched_getaffinity(0))
        picks = random.Random(seed).sample(range(len(SWEEP_VARIANTS)), min(cores, 6))
        tr = wn.train
        self.configs = [
            tr.TrainConfig(
                peak_lr=SWEEP_PEAK_LR,
                warmup_steps=SWEEP_STEPS // 20,
                total_steps=SWEEP_STEPS,
                batch_size=SWEEP_BATCH,
                seed=SWEEP_VARIANTS[i][2],
                hyper=tr.LossHyper(alpha=SWEEP_VARIANTS[i][0], beta_d=SWEEP_VARIANTS[i][1]),
            )
            for i in picks
        ]
        self.grad_rows = random.Random(seed + 1).sample(range(7 * 4096), 512)
        self.digest = None

    def setup(self) -> None:
        fs = self.wn.funcspace
        self.dataset = fs.build_dataset(fs.DatasetConfig(seed=self.seed))
        self.val = fs.build_dataset(fs.DatasetConfig(pairs_per_grid=4096, seed=self.seed + 1000003))

    def round(self, after_op) -> Round:
        tr = self.wn.train
        ops = len(self.configs) + 1
        t0 = time.perf_counter()
        try:
            models = tr.run_sweep(self.dataset, self.configs, self.val, jobs=len(self.configs))
            chosen = tr.select_model(models, "conv-sine-step")
        except (RuntimeError, ValueError) as e:
            print(f"# failed: sweep: {e}", file=sys.stderr)
            return Round(0, time.perf_counter() - t0, ops, ops)
        dt = time.perf_counter() - t0
        items = sum(len(m.log) * m.config.batch_size for m in models)
        return Round(items, dt, ops, 0, (models, chosen))

    def check(self, rnd: Round) -> None:
        """Full checks on the first round; later rounds must repeat its bits."""
        if rnd.payload is None:
            return
        models, chosen = rnd.payload
        digest = hashlib.sha256()
        for m in models:
            digest.update(self.wn.ratnet.params_to_vector(m.params).tobytes() + m.log.tobytes())
        picked = next(i for i, m in enumerate(models) if m is chosen)
        digest.update(str(picked).encode())
        if self.digest is None:
            self.digest = digest.hexdigest()
            self._check_outputs(models, picked)
        elif digest.hexdigest() != self.digest:
            self.checks.append("reproducibility: a later round trained other bits than the first")

    def _check_outputs(self, models, picked: int) -> None:
        wn, fail = self.wn, self.checks.append
        for i, m in enumerate(models):
            loss = [float(v) for v in m.log[:, 2]]
            k = max(len(loss) // 10, 1)
            if not sum(loss[-k:]) < sum(loss[:k]):
                fail(f"training: model {i} loss did not fall ({loss[0]:.3g} -> {loss[-1]:.3g})")
        # independent ranking by |order on sine-step - 3|, ties to recon loss, index
        nets = [oracle.Network(json.loads(wn.ratnet.params_to_json(m.params))) for m in models]
        ranked = min(
            range(len(models)),
            key=lambda i: (abs(oracle.order(nets[i].face_value, "sine_step") - 3.0),
                           models[i].recon_loss, i),
        )
        chosen = models[picked]
        if ranked != picked:
            fail(f"selection: select_model picked model {picked}, the ranking picks {ranked}")
        order_g = oracle.order(nets[picked].face_value, "sine_cubed")
        if not order_g >= MIN_ORDER_SIN3:
            fail(f"order: selected model's sine-cubed order {order_g:.3f} < {MIN_ORDER_SIN3}")
        # gradient at the selected theta against central differences
        rows = self.grad_rows
        s, y, hyper = self.val.ubar[rows], self.val.target[rows], chosen.config.hyper
        theta = wn.ratnet.params_to_vector(chosen.params)
        arch, c_eno = chosen.params.arch, chosen.params.c_eno

        def loss_at(vec):
            return wn.train.loss_and_grad(wn.ratnet.vector_to_params(vec, arch, c_eno), s, y, hyper)[0]

        grad = wn.train.loss_and_grad(chosen.params, s, y, hyper)[1]
        h = 1e-6
        fd = np.empty_like(theta)
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = h
            fd[j] = (loss_at(theta + e) - loss_at(theta - e)) / (2 * h)
        rel = float(np.linalg.norm(fd - grad) / np.linalg.norm(grad))
        if not rel <= GRAD_REL_TOL:
            fail(f"gradient: central differences differ from loss_and_grad by {rel:.2e}")


class Solve:
    """``wenonet solve`` through ``cli.main`` for each scheme and problem."""

    def __init__(self, wn, seed: int, checks: list[str], schemes, out: Path):
        self.wn, self.checks, self.out = wn, checks, out
        self.cases = [(p, s, nx, T) for s in schemes for p, nx, T in SOLVES]
        rng = random.Random(seed)
        rng.shuffle(self.cases)
        self.rng = rng
        self.network = oracle.Network.from_file(WEIGHTS) if schemes == SCHEMES["nn"] else None
        self.digests: dict[tuple, str] = {}

    def setup(self) -> None:
        """The solves read their own inputs; set-up is the import alone."""

    def _dir(self, case) -> Path:
        problem, scheme, nx, _ = case
        tag = "nn" if scheme.startswith("nn:") else scheme
        return self.out / f"{problem}-{tag}-{nx}"

    def round(self, after_op) -> Round:
        items, seconds, failed, done, by_nx = 0, 0.0, 0, [], {}
        for case in self.cases:
            problem, scheme, nx, T = case
            argv = ["solve", "--problem", problem, "--scheme", scheme, "--nx", str(nx),
                    "--T", repr(T), "--out", str(self._dir(case))]
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                rc = self.wn.cli.main(argv)
            dt = time.perf_counter() - t0
            seconds += dt
            after_op()
            if rc != 0:
                print(f"# failed: solve {' '.join(argv)}: exit {rc}", file=sys.stderr)
                failed += 1
                continue
            steps = len(_csv_rows(self._dir(case) / "error_series.csv")) - 1
            items += nx * steps
            done.append(case)
            part = by_nx.setdefault(nx, [0, 0.0])
            part[0] += nx * steps
            part[1] += dt
        return Round(items, seconds, len(self.cases), failed, done, by_nx)

    def check(self, rnd: Round) -> None:
        """Full checks on a case's first solve; later solves must repeat its bytes."""
        for case in rnd.payload or ():
            where = self._dir(case)
            manifest = (where / "solve-manifest.txt").read_text().split("\n", 1)[1]  # no timestamp
            digest = hashlib.sha256(manifest.encode() + (where / "solution.csv").read_bytes()
                                    + (where / "error_series.csv").read_bytes()).hexdigest()
            if case not in self.digests:
                self.digests[case] = digest
                self._check_case(case)
            elif digest != self.digests[case]:
                self.checks.append(f"reproducibility: {case} wrote other bytes than its first solve")

    def _check_case(self, case) -> None:
        problem, scheme, nx, T = case
        where, fail = self._dir(case), self.checks.append
        label = f"{problem} {scheme.split(':')[0]} nx {nx}"
        manifest = json.loads((where / "solve-manifest.txt").read_text().split("\n", 1)[1])
        sol = _csv_rows(where / "solution.csv")
        series = _csv_rows(where / "error_series.csv")
        u = [float(r["u"]) for r in sol]
        ue = [float(r["u_exact"]) for r in sol]
        t_end = float(series[-1]["t"])
        (lo, hi), periodic = oracle.PROBLEM_DOMAINS[problem]
        dx = (hi - lo) / nx
        if len(u) != nx or abs(t_end - T) > 1e-12 * T:
            fail(f"{label}: {len(u)} cells at t={t_end!r}, expected {nx} at T={T}")
            return
        exact = oracle.exact_cell_averages(problem, nx, t_end)
        worst = max(abs(a - b) for a, b in zip(ue, exact))
        if not worst <= EXACT_ABS_TOL:
            fail(f"{label}: exact averages differ from the closed form by {worst:.2e}")
        l1 = dx * math.fsum(abs(a - b) for a, b in zip(u, ue))
        if not abs(l1 - manifest["final_l1"]) <= L1_REL_TOL * abs(manifest["final_l1"]):
            fail(f"{label}: L1 from solution.csv {l1!r} != manifest {manifest['final_l1']!r}")
        if periodic:
            drift = abs(dx * math.fsum(u) - dx * math.fsum(oracle.exact_cell_averages(problem, nx, 0.0)))
            if not drift <= MASS_DRIFT_TOL:
                fail(f"{label}: mass drift {drift:.2e}")
        elif self.network is None and not SHOCK_BOUNDS[0] <= min(u) <= max(u) <= SHOCK_BOUNDS[1]:
            fail(f"{label}: states [{min(u)!r}, {max(u)!r}] leave {SHOCK_BOUNDS}")
        # face values on stencils of the final state and on random stencils
        width = 5 if scheme == "weno5-js" else 3
        starts = self.rng.sample(range(nx - width + 1), 24)
        stencils = [u[i : i + width] for i in starts]
        stencils += [[self.rng.uniform(-1.0, 1.0) for _ in range(width)] for _ in range(24)]
        self._check_faces(scheme, stencils, label)

    def _check_faces(self, scheme: str, stencils, label: str) -> None:
        if scheme.startswith("nn:"):
            ref = [self.network.face_value(*s) for s in stencils]
        elif scheme == "weno5-js":
            ref = [oracle.weno5_js(*s) for s in stencils]
        else:
            ref = [oracle.weno3_js(*s) for s in stencils]
        got = self.wn.cli.make_scheme(scheme).face_value(np.asarray(stencils))
        for s, a, b in zip(stencils, got.tolist(), ref):
            scale = max(abs(b), max(abs(v) for v in s))
            if not abs(a - b) <= FACE_REL_TOL * scale:
                self.checks.append(f"{label}: face_value {a!r} != reference {b!r} on {s}")
                return


def _csv_rows(path: Path) -> list[dict]:
    """Rows of a report CSV: one '# key=value' line, a header, then values."""
    lines = path.read_text().splitlines()[1:]
    cols = lines[0].split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[1:] if line]


WORKLOADS = {
    "train-select": lambda wn, seed, checks, out: TrainSelect(wn, seed, checks),
    "solve-nn": lambda wn, seed, checks, out: Solve(wn, seed, checks, SCHEMES["nn"], out),
    "solve-classical": lambda wn, seed, checks, out: Solve(wn, seed, checks, SCHEMES["classical"], out),
}


# ---------------------------------------------------------------------------
# set-up, environment and metrics


def import_seconds() -> float:
    """Time to import wenonet (and numpy) in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import wenonet; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"cannot import wenonet from {SRC}:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "threads": {k: os.environ[k] for k in THREAD_ENV},
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
    }


def layer_metric(name: str, setup: Tracer, rounds: Tracer, n: int, extra: dict) -> float:
    """One per-layer figure; times are seconds in one set-up plus one round."""
    if name in extra:
        return extra[name]
    span, stat = name.rsplit(".", 1)
    a, b = setup.stats.get(span), rounds.stats.get(span)
    if stat == "self_s":
        return (a.self_time if a else 0.0) + (b.self_time / n if b else 0.0)
    if stat == "calls":
        return b.calls / n if b else 0.0
    if stat in ("median_us", "p99_us"):
        d = sorted(b.durations) if b else []
        if not d:
            return 0.0
        q = 0.5 if stat == "median_us" else 0.99
        return 1e6 * d[min(int(q * len(d)), len(d) - 1)]
    total = (a.total if a else 0.0) + (b.total if b else 0.0)
    items = (a.items if a else 0) + (b.items if b else 0)
    if not items or not total:
        return 0.0
    if stat in ("ns_per_face", "ns_per_sample"):
        return 1e9 * total / items
    if stat == "rows_per_s":
        return items / total
    if stat == "flops_per_s":
        return extra["flops_per_face"] * items / total
    raise ValueError(f"no rule for per-layer metric {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    traced = bool(args.trace)
    _reference_piece()  # warm-up
    setup_ref = Reference()  # the machine's speed while setting up
    imports = []
    for _ in range(0 if traced else SETUP_REPEATS):
        imports.append(import_seconds())
        setup_ref.sample()
    sys.path.insert(0, str(SRC))
    import wenonet
    import wenonet.cli  # noqa: F401  (the package does not import cli itself)

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    checks: list[str] = []
    wl = WORKLOADS[args.workload](wenonet, args.seed, checks, out)

    setup_tr = Tracer(wenonet)
    builds = []
    for _ in range(1 if traced else SETUP_REPEATS):
        if traced:
            setup_tr.install()
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            setup_tr.uninstall()
        builds.append(time.perf_counter() - t0)
        setup_ref.sample()

    rounds_tr = Tracer(wenonet)
    plain, spanned, ref = [], [], Reference()
    start = time.perf_counter()
    while True:
        trace_this = traced and len(plain) > len(spanned)  # untraced warm-up first
        if trace_this:
            rounds_tr.install()
            try:
                with rounds_tr.root():
                    rnd = wl.round(lambda: None)
            finally:
                rounds_tr.uninstall()
        else:
            rnd = wl.round(ref.sample)
        (spanned if trace_this else plain).append(rnd)
        ref.sample()
        wl.check(rnd)
        if time.perf_counter() - start >= args.seconds and (not traced or len(spanned) >= 1):
            break

    everything = plain + spanned
    attempted = sum(r.ops for r in everything)
    failed = sum(r.failed for r in everything)
    print("# env " + json.dumps(environment(args)))
    for problem in checks:
        print(f"# check failed: {problem}", file=sys.stderr)

    metrics = {}
    speed = ref.speed()
    clean = plain[1:] or plain  # untraced rounds after the first
    timed = sum(r.seconds for r in clean if r.items)
    wall_rate = sum(r.items for r in clean) / timed if timed else 0.0
    if not traced:
        wall_setup = statistics.median(imports) + statistics.median(builds)
        print(f"# wall clock: items_per_s={wall_rate!r} setup_s={wall_setup!r} "
              f"reference_speed={speed!r}")
        values = {
            "setup_s": wall_setup * setup_ref.speed(),
            "items_per_s": wall_rate / speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        n = len(spanned)
        extra = {"bench.wall_items_per_s": wall_rate, "bench.reference_speed": speed}
        for label, grid in (("coarse", lambda nx: nx == COARSE_NX), ("fine", lambda nx: nx != COARSE_NX)):
            parts = [p for r in clean for nx, p in r.by_nx.items() if grid(nx)]
            seconds = sum(p[1] for p in parts)
            extra[f"cli.main.{label}_cell_updates_per_s"] = (
                sum(p[0] for p in parts) / seconds if seconds else 0.0)
        extra.update({
            "trace.overhead_frac": statistics.median(r.seconds for r in spanned)
            / statistics.median(r.seconds for r in clean) - 1.0,
            "trace.root.self_s": rounds_tr.root_self / n,
        })
        models = [m for r in spanned if isinstance(wl, TrainSelect) and r.payload
                  for m in r.payload[0]]
        extra["train.steps"] = sum(len(m.log) for m in models) / n
        extra["train.skipped_steps"] = sum(getattr(m, "skipped_steps", 0) for m in models) / n
        count_flops = getattr(wenonet.ratnet, "count_flops", None)  # same arch everywhere
        extra["flops_per_face"] = count_flops(wenonet.ratnet.load_params(WEIGHTS)) if count_flops else 0
        wanted = spec["per_layer"]
        found = setup_tr.found | rounds_tr.found
        absent = sorted({m["name"].rsplit(".", 1)[0] for m in wanted if m["name"] not in extra}
                        - found)
        if absent:
            print("# absent (reported as 0): " + ", ".join(absent))
        values = {m["name"]: layer_metric(m["name"], setup_tr, rounds_tr, n, extra)
                  for m in wanted}
        rounds_tr.write(out / "spans.json")
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": not checks, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
