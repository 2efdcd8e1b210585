"""The three benchmark workloads: one pass of each, and its correctness checks.

A pass runs a fixed list of jobs through the same entry points a user has:
subcommands through ``pdqre.cli.main`` in-process, library calls through
the ``pdqre`` modules.  Every function is looked up on its module at call
time, so the tracer's wrappers are used when tracing is on.

Why these workloads (also recorded in BENCHMARK.json):

* ``sweep_smooth``: the single-equilibrium stretch of the acceptance grid,
  lambda in [0, 4].  Per-lambda cost is the damped fixed-point pass and the
  seed-grid scan, with about one Nelder-Mead call per solve, so
  early-stopping and continuation show here and Nelder-Mead changes barely
  do.
* ``sweep_multibranch``: lambda in [5, 10] plus single solves at 20 and 100.
  Several branches coexist (birth near 5.2, Nash crossing near 5.65, defect
  basin from 7.08, fold near 9.63), Nelder-Mead runs about 13 times per
  solve, and the high-lambda solves saturate sigma.  A faster solver that
  loses a branch fails the checks here.
* ``batch_io``: no solver at all.  One bulk sigma call over 1M cells, the
  per-cell clamp loop, Python-loop play and large CSV writes.  A change aimed
  at the sweeps should not move it, and the reverse.

The workload seed only feeds ``batch_io`` (simulation seeds and strategies);
the lambda grids are fixed, so the sweeps do the same work for every seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import pdqre.cli
import pdqre.game
import pdqre.qre
from pdqre.game import MarkovStrategy
from pdqre.qre import NoSolution, SolverConfig
from pdqre.simulate import SimulationConfig

# The package exports a function named ``simulate`` that hides the module.
simulate_module = importlib.import_module("pdqre.simulate")

# "full" is what the benchmark measures.  The lambda steps are coarser than
# the 0.01 acceptance grid so that three passes of a sweep fit one measured
# run; the checks below hold on both grids.  "smoke" only proves that every
# metric is emitted and every check passes.
SIZES = {
    "full": {
        "smooth_step": 0.025,
        "multi_step": 0.0625,
        "mesh": 1001,
        "rounds": 1_000_000,
        "gamma_step": 0.0001,
        "group_players": 20,
        "group_rounds": 5_000,
    },
    "smoke": {
        "smooth_step": 0.2,
        "multi_step": 0.25,
        "mesh": 101,
        "rounds": 100_000,
        "gamma_step": 0.001,
        "group_players": 20,
        "group_rounds": 2_000,
    },
}

# Monte Carlo checks allow this many standard errors.  A run makes about 50
# such checks and the benchmark is run about 70 times per commit; at 4
# standard errors a correct program would then fail somewhere about one time
# in six, at 5 about one time in five hundred.
Z_LIMIT = 5.0

HIGH_LAMBDAS = (20.0, 100.0)
BURN_IN = 1000  # the simulate subcommand's default summary burn-in


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides."""

    pair: tuple[MarkovStrategy, MarkovStrategy]
    sim_seed: int
    group: tuple[MarkovStrategy, ...]
    group_seed: int


def make_inputs(seed: int, size: dict) -> Inputs:
    rng = np.random.default_rng(seed)

    def strategy() -> MarkovStrategy:
        alpha, gamma = rng.uniform(0.1, 0.9, 2)
        return MarkovStrategy(float(alpha), float(gamma))

    pair = (strategy(), strategy())
    sim_seed = int(rng.integers(2**63))
    group = tuple(strategy() for _ in range(size["group_players"]))
    return Inputs(pair, sim_seed, group, int(rng.integers(2**63)))


class Run:
    """Operation counts, job timings and outputs of one benchmark run.

    An operation is a lambda solve, a CLI job, a library call or a check;
    each failure is kept with a one-line reason.
    """

    def __init__(self, workdir: Path, size: dict, inputs: Inputs):
        self.workdir = workdir
        self.size = size
        self.inputs = inputs
        self.tracer = None  # set for traced passes only
        self.attempted = 0
        self.failures: list[str] = []
        self.jobs: dict[str, float] = {}  # job times of the current pass
        self.stdout: dict[str, str] = {}
        self.bytes: dict[str, int] = {}
        self.work: dict[str, int] = {}  # units of work per job, for rates
        self.accepted_points = 0
        self.sweep_grid: tuple[float, float, float] | None = None
        self.solved: dict[float, list] = {}
        self.group_estimates: list = []

    def record(self, ok: bool, what: str, times: int = 1) -> None:
        self.attempted += times
        if not ok:
            self.failures.extend([what] * times)
            print(f"FAILED: {what}", file=sys.stderr)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def path(self, name: str) -> Path:
        return self.workdir / name

    def cli(self, sub: str, output: str, flags: list[str]) -> None:
        """One subcommand through ``pdqre.cli.main``; a nonzero exit fails."""
        out = io.StringIO()
        start = perf_counter()
        with self.span(f"cli.{sub}"), contextlib.redirect_stdout(out):
            try:
                rc = pdqre.cli.main([sub, *flags, "--output", str(self.path(output))])
            except Exception:
                traceback.print_exc()
                rc = -1
        self.jobs[sub] = perf_counter() - start
        self.stdout[sub] = out.getvalue()
        self.bytes[sub] = sum(
            p.stat().st_size for p in self.workdir.glob(output + "*") if p.is_file()
        )
        self.record(rc == 0, f"{sub} exited with {rc}")

    def sweep(self, lo: float, hi: float, step: float) -> None:
        flags = ["--lambda-min", str(lo), "--lambda-max", str(hi), "--lambda-step", str(step)]
        self.cli("qre-sweep", "sweep.csv", flags)
        self.work["qre-sweep"] = _grid_len(lo, hi, step)
        self.sweep_grid = (lo, hi, step)

    def solve(self, lam: float) -> None:
        start = perf_counter()
        try:
            self.solved[lam] = pdqre.qre.solve_qre(lam, diagnostics={})
            ok = True
        except NoSolution:
            ok = False
        self.jobs[f"solve_qre({lam:g})"] = perf_counter() - start
        self.record(ok, f"no accepted equilibrium at lambda={lam}")

    def group(self) -> None:
        config = SimulationConfig(
            rounds=self.size["group_rounds"], seed=self.inputs.group_seed
        )
        start = perf_counter()
        try:
            logs = simulate_module.simulate_group(list(self.inputs.group), config)
            mid = perf_counter()
            self.group_estimates = [simulate_module.estimate_markov_pooled(log) for log in logs]
            ok = True
        except Exception:
            traceback.print_exc()
            mid, ok = perf_counter(), False
        self.jobs["simulate_group"] = mid - start
        self.jobs["estimate_markov_pooled"] = perf_counter() - mid
        self.work["simulate_group"] = len(self.inputs.group) * config.rounds
        self.record(ok, "group play failed")


def _grid_len(lo: float, hi: float, step: float) -> int:
    return int(round((hi - lo) / step)) + 1


def account(run: Run) -> None:
    """Count the pass's sweep, read from its report, one operation per lambda.

    A lambda with no accepted point fails.
    """
    if run.sweep_grid is None:
        return
    try:
        report = json.loads(run.path("sweep.csv.report.json").read_text())
        missing = report["no_solution"]
    except (OSError, ValueError, KeyError) as err:
        run.record(False, f"sweep report unreadable: {err}")
        return
    for lam in missing:
        run.record(False, f"no accepted equilibrium at lambda={lam}")
    run.record(True, "", times=_grid_len(*run.sweep_grid) - len(missing))
    run.accepted_points = len(_accepted_rows(run.path("sweep.csv")))


# --- sweep_smooth ---------------------------------------------------------

SMOOTH_RANGE = (0.0, 4.0)


def smooth_pass(run: Run) -> None:
    run.sweep(*SMOOTH_RANGE, run.size["smooth_step"])
    run.cli("classify", "classify.json", ["--sweep", str(run.path("sweep.csv"))])


def smooth_check(run: Run) -> None:
    report = json.loads(run.path("sweep.csv.report.json").read_text())
    first = next((e for e in report["intersections"]["stationarity"] if e["first"]), None)
    run.record(
        first is not None
        and first["kind"] == "entry"
        and abs(first["lambda"] - 3.906) <= 0.01
        and abs(first["alpha"] - 0.20) <= 0.01
        and abs(first["gamma"] - 0.43) <= 0.01,
        f"first stationarity event {first} is not the entry at lambda 3.906, (0.20, 0.43)",
    )
    score = json.loads(run.path("classify.json").read_text())["separation_score"]
    run.record(score >= 26 / 28 - 1e-12, f"classify separation {score} < 26/28")
    _check_oracle(run, _accepted_rows(run.path("sweep.csv")))


# --- sweep_multibranch ----------------------------------------------------

MULTI_RANGE = (5.0, 10.0)


def multi_pass(run: Run) -> None:
    run.sweep(*MULTI_RANGE, run.size["multi_step"])
    for lam in HIGH_LAMBDAS:
        run.solve(lam)


def multi_check(run: Run) -> None:
    step = run.size["multi_step"]
    report = json.loads(run.path("sweep.csv.report.json").read_text())
    transition = report["transition_lambda"]
    run.record(
        transition is not None and 6.5 <= transition <= 7.6,
        f"transition lambda {transition} outside [6.5, 7.6]",
    )
    crossings = [
        e["lambda"] for e in report["intersections"]["stationarity"] if e["kind"] == "crossing"
    ]
    run.record(
        any(abs(lam - 5.65) <= 0.05 for lam in crossings),
        f"no stationarity crossing near lambda 5.65 (crossings {crossings})",
    )
    # The jump is flagged at the first grid point past the fold.
    jumps = report["discontinuities"]
    run.record(
        any(abs(lam - 9.63) <= step + 0.01 for lam in jumps),
        f"no discontinuity near lambda 9.63 (discontinuities {jumps})",
    )
    points = _accepted_rows(run.path("sweep.csv"))
    for lam, solved in run.solved.items():
        points.extend((lam, p.alpha, p.gamma) for p in solved if p.accepted)
    _check_oracle(run, points)


def _accepted_rows(path: Path) -> list[tuple[float, float, float]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            lam, alpha, gamma, _, _, accepted, _ = line.rstrip("\n").split(",")
            if accepted == "true":
                rows.append((float(lam), float(alpha), float(gamma)))
    return rows


def _check_oracle(run: Run, points: list[tuple[float, float, float]]) -> None:
    """Every accepted point satisfies the scalar-path fixed-point residual."""
    tol = SolverConfig().accept_tol
    worst = max((pdqre.qre.qre_objective(*p) for p in points), default=math.inf)
    run.record(
        len(points) > 0 and worst <= tol,
        f"qre_objective over {len(points)} accepted points reaches {worst:.3g} > {tol:g}",
    )


# --- batch_io -------------------------------------------------------------


def batch_pass(run: Run) -> None:
    size, (s1, s2) = run.size, run.inputs.pair
    run.cli("objective-grid", "grid.csv", ["--rationality", "7.2", "--mesh", str(size["mesh"])])
    run.work["objective-grid"] = size["mesh"] ** 2
    run.cli(
        "simulate",
        "log.csv",
        [
            "--alpha1", repr(s1.alpha), "--gamma1", repr(s1.gamma),
            "--alpha2", repr(s2.alpha), "--gamma2", repr(s2.gamma),
            "--rounds", str(size["rounds"]), "--seed", str(run.inputs.sim_seed),
        ],
    )
    run.work["simulate"] = size["rounds"]
    run.cli("nash-curve", "curve.csv", ["--curve", "both", "--gamma-step", str(size["gamma_step"])])
    run.group()


def _within(run: Run, what: str, estimate, truth: float, se: float) -> None:
    z = abs(estimate - truth) / se if estimate is not None and se > 0.0 else math.inf
    run.record(
        z <= Z_LIMIT,
        f"{what}: estimate {estimate} is {z:.2f} standard errors from {truth:.6g}",
    )


def _read_log(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",", 3) for line in fh if not line.startswith("#")][1:]
    c1 = np.fromiter((r[1] == "C" for r in rows), bool, len(rows))
    c2 = np.fromiter((r[2] == "C" for r in rows), bool, len(rows))
    return c1, c2


def _batch_means_se(x: np.ndarray, batches: int = 100) -> float:
    """Standard error of a mean of autocorrelated draws, by batch means."""
    usable = len(x) - len(x) % batches
    means = x[:usable].reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def batch_check(run: Run) -> None:
    size, (s1, s2) = run.size, run.inputs.pair
    mesh = size["mesh"]
    with open(run.path("grid.csv"), encoding="utf-8") as fh:
        next(fh)
        f = np.array([line.split(",", 3)[2] for line in fh], dtype=float)
    run.record(
        f.size == mesh * mesh and bool(np.all(np.isfinite(f))) and bool(np.all(f >= 0.0)),
        f"objective grid has {f.size} cells, expected {mesh * mesh} finite and >= 0",
    )

    c1, c2 = _read_log(run.path("log.csv"))
    run.record(len(c1) == size["rounds"], f"log has {len(c1)} rounds")
    printed = dict(
        item.split("=") for item in run.stdout.get("simulate", "").split() if "=" in item
    )

    def value(key: str):
        raw = printed.get(key)
        return None if raw in (None, "NA") else float(raw)

    truth = pdqre.game.stationary_state(s1, s2)
    burn = min(BURN_IN, len(c1) - 1)
    for player, choices, p in ((1, c1, truth.p1), (2, c2, truth.p2)):
        se = _batch_means_se(choices[burn:].astype(float))
        _within(run, f"cooperation rate {player}", value(f"cooperation_rate{player}"), p, se)
    for player, own, opp, s in ((1, c1, c2, s1), (2, c2, c1, s2)):
        cond = opp[:-1]
        for name, p, count in (
            ("alpha", s.alpha, int(np.sum(~cond))),
            ("gamma", s.gamma, int(np.sum(cond))),
        ):
            se = math.sqrt(p * (1.0 - p) / count) if count else 0.0
            _within(run, f"estimate_markov {name}{player}", value(f"{name}{player}_hat"), p, se)

    run.record(
        len(run.group_estimates) == len(run.inputs.group),
        f"{len(run.group_estimates)} pooled estimates for {len(run.inputs.group)} players",
    )
    for i, (est, s) in enumerate(zip(run.group_estimates, run.inputs.group)):
        for name, p, got, count in (
            ("alpha", s.alpha, est.alpha, est.alpha_count),
            ("gamma", s.gamma, est.gamma, est.gamma_count),
        ):
            se = math.sqrt(p * (1.0 - p) / count) if count else 0.0
            _within(run, f"pooled {name} of player {i}", got, p, se)


@dataclass(frozen=True)
class Workload:
    run_pass: Callable[[Run], None]  # the timed jobs
    check: Callable[[Run], None]  # correctness of the first pass's outputs


WORKLOADS = {
    "sweep_smooth": Workload(smooth_pass, smooth_check),
    "sweep_multibranch": Workload(multi_pass, multi_check),
    "batch_io": Workload(batch_pass, batch_check),
}
