"""Command-line front end: every computation as a deterministic subcommand.

Curves and grids go to CSV, reports to JSON, and each output file gets a
sidecar manifest (config echo, version, input digests).  Outputs contain no
wall-clock data, so re-running a subcommand with identical flags produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from ._rows import template, write_blocks
from .data import (
    InsufficientSweep,
    ParseError,
    aggregate,
    bundled_experiments_path,
    classify_against_qre,
    load_experiments,
)
from .game import MarkovStrategy
from .nash import trace_quadratic_curve, trace_stationarity_curve
from .qre import (
    BRANCH_LABELS,
    QrePoint,
    SolverConfig,
    _check_finite,
    find_intersections,
    main_branch,
    objective_grid,
    sweep_lambda,
)
from .simulate import (
    SimulationConfig,
    _check_burn_in,
    estimate_markov,
    export_log,
    simulate,
)

__all__ = ["build_parser", "main"]


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


#: Parsed entries a manifest does not echo: the subcommand is a key of its
#: own, and where the outputs go does not change what they hold.
_NOT_ECHOED = frozenset({"subcommand", "handler", "output", "report"})


def _write_manifest(output: Path, args: argparse.Namespace, config=None, inputs=None) -> None:
    """Write the sidecar; ``inputs`` maps the name to record to the file to digest.

    ``config`` defaults to every parsed flag but those in ``_NOT_ECHOED``.
    """
    if config is None:
        config = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "config": config,
        "inputs": {name: _sha256(path) for name, path in (inputs or {}).items()},
        "timestamp": None,  # omitted by design: outputs must be byte-stable
    }
    _write_json(_manifest_path(output), manifest)


def _manifest_path(output: Path) -> Path:
    return Path(str(output) + ".manifest.json")


def _check_outputs(outputs: dict[str, Path], inputs: dict[str, Path]) -> None:
    """Raise ValueError unless each output and its manifest is a file of its own.

    No two of them, and none of them and an input, may resolve to one path.
    """
    seen = {path.resolve(): f"input {name}" for name, path in inputs.items()}
    for name, path in outputs.items():
        for what, file in ((name, path), (f"the manifest of {name}", _manifest_path(path))):
            other = seen.setdefault(file.resolve(), what)
            if other != what:
                raise ValueError(f"{what} and {other} are the same file: {file}")


#: Largest grid a flag may ask for; keeps memory bounded for any bounds and step.
MAX_GRID_POINTS = 1_000_000

#: Largest ``objective-grid --mesh`` (nodes per axis): about 1M cells, 25 MB of outputs.
MAX_MESH = 1001

#: Largest ``simulate --rounds``; the rounds are pre-drawn in memory, the log
#: is written in blocks.
MAX_ROUNDS = 1_000_000


def _float_grid(lo: float, hi: float, step: float, what: str) -> list[float]:
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(
            f"{what} grid bounds and step must be finite, got [{lo}, {hi}] step {step}"
        )
    if step <= 0.0:
        raise ValueError(f"{what} step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"{what} range is empty: [{lo}, {hi}]")
    steps = (hi - lo) / step  # inf when hi - lo overflows
    if not math.isfinite(steps) or round(steps) + 1 > MAX_GRID_POINTS:
        raise ValueError(
            f"{what} grid [{lo}, {hi}] step {step} has more than "
            f"{MAX_GRID_POINTS} points"
        )
    n = round(steps)
    values = [lo + k * step for k in range(n + 1)]
    if values[-1] > hi + 1e-12:
        values.pop()  # n >= 1 here: the first point, lo, never passes hi
    values[-1] = min(values[-1], hi)  # rounding can carry the last point past hi
    if len(set(values)) < len(values):  # lo + k * step rounds to the same double twice
        raise ValueError(
            f"{what} step {step} is below the float spacing of [{lo}, {hi}]: grid points repeat"
        )
    return values


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        accept_tol=args.accept_tol, merge_tol=args.merge_tol, curve_choice=args.curve,
        candidate_ceiling=args.candidate_ceiling, include_candidates=not args.no_candidates,
    )


def _cmd_nash_curve(args: argparse.Namespace) -> int:
    gammas = _float_grid(args.gamma_min, args.gamma_max, args.gamma_step, "gamma")
    if args.gamma_min < 0.0 or args.gamma_max > 1.0:  # gamma is a probability
        raise ValueError(f"gamma range must lie in [0, 1], got [{args.gamma_min}, {args.gamma_max}]")
    tracers = {"quadratic": trace_quadratic_curve, "stationarity": trace_stationarity_curve}
    wanted = ["quadratic", "stationarity"] if args.curve == "both" else [args.curve]
    lines = ["curve,alpha,gamma,branch,quadratic_residual,stationarity_residual"]
    for name in wanted:
        for p in tracers[name](gammas):
            lines.append(
                f"{name},{_fmt(p.alpha)},{_fmt(p.gamma)},{p.branch},"
                f"{_fmt(p.quadratic_residual)},{_fmt(p.stationarity_residual)}"
            )
    out = Path(args.output)
    _write_text(out, "\n".join(lines) + "\n")
    _write_manifest(out, args)
    print(f"wrote {len(lines) - 1} curve points to {out}")
    return 0


def _point_rows(points: list[QrePoint]) -> list[str]:
    return [
        f"{_fmt(p.lam)},{_fmt(p.alpha)},{_fmt(p.gamma)},{_fmt(p.objective)},"
        f"{p.branch},{str(p.accepted).lower()},{p.start_count}"
        for p in points
    ]


#: ``start_count`` is :attr:`QrePoint.start_count`: the seeds whose descent
#: merged into the point, 0 for a root that only the arc's crossing gives.
SWEEP_HEADER = "lambda,alpha,gamma,objective,branch,accepted,start_count"


def _cmd_qre_sweep(args: argparse.Namespace) -> int:
    lambdas = _float_grid(args.lambda_min, args.lambda_max, args.lambda_step, "lambda")
    _check_finite("intersection_tol", args.intersection_tol, positive=True)
    cfg = _solver_config(args)
    out = Path(args.output)
    report_path = Path(args.report) if args.report else Path(str(out) + ".report.json")
    _check_outputs({"--output": out, "--report": report_path}, {})
    sweep = sweep_lambda(lambdas, cfg)
    _write_text(out, "\n".join([SWEEP_HEADER] + _point_rows(sweep.points)) + "\n")

    report = {
        "lambda_grid": {
            "min": args.lambda_min,
            "max": args.lambda_max,
            "step": args.lambda_step,
        },
        "transition_lambda": _round12(sweep.transition_lambda)
        if sweep.transition_lambda is not None
        else None,
        "discontinuities": [_round12(v) for v in sweep.discontinuities],
        "no_solution": [_round12(v) for v in sweep.no_solution],
        "diagnostics": sweep.diagnostics,
        "intersections": {},
    }
    for choice in ("stationarity", "quadratic"):
        events = find_intersections(sweep, choice, tol=args.intersection_tol)
        report["intersections"][choice] = [
            {
                "lambda": _round12(e.lam),
                "alpha": _round12(e.alpha),
                "gamma": _round12(e.gamma),
                "residual": round(e.residual, 12) + 0.0,  # noise and -0 read 0
                "kind": e.kind,
                "first": e.first,
            }
            for e in events
        ]
    firsts = {
        c: next((e for e in v if e["first"]), None)
        for c, v in report["intersections"].items()
    }
    fs, fq = firsts["stationarity"], firsts["quadratic"]
    agree = (
        fs is not None
        and fq is not None
        and abs(fs["lambda"] - fq["lambda"]) < args.intersection_tol
    ) or (fs is None and fq is None)
    report["curve_comparison"] = {
        "first_stationarity_lambda": fs["lambda"] if fs else None,
        "first_quadratic_lambda": fq["lambda"] if fq else None,
        "agree": agree,
        "note": (
            "both Nash-curve variants give consistent intersections"
            if agree
            else "the two Nash-curve variants disagree about intersections "
            "with the QRE branch"
        ),
    }
    _write_json(report_path, report)
    _write_manifest(out, args)
    _write_manifest(report_path, args)
    print(
        f"wrote {len(sweep.points)} points to {out}; "
        f"transition_lambda={report['transition_lambda']}"
    )
    return 0


def _grid_blocks(mesh: int, alpha, gamma, objective, clamped):
    """The objective-grid rows, one block per alpha row of the mesh.

    ``objective_grid`` lays the mesh out alpha-major, so every block shares
    the gamma labels, priced once, and starts each of its lines with its
    alpha; only a row holding clamped cells gets its own flag text.
    """
    gammas = [format(v, ".12g") for v in gamma[:mesh].tolist()]

    def cells(row) -> list[str]:
        return [template("{},%.12g,{}", g, "true" if c else "false") for g, c in zip(gammas, row)]

    plain = cells([False] * mesh)
    for lo in range(0, len(alpha), mesh):
        row = clamped[lo : lo + mesh]
        start = template("{},", format(alpha[lo], ".12g"))
        text = ("\n" + start).join(cells(row.tolist()) if row.any() else plain)
        yield start + text + "\n", tuple(objective[lo : lo + mesh].tolist())


def _cmd_objective_grid(args: argparse.Namespace) -> int:
    if args.mesh < 2:
        raise ValueError(f"mesh must have at least 2 nodes per axis, got {args.mesh}")
    if args.mesh > MAX_MESH:
        raise ValueError(
            f"mesh must have at most {MAX_MESH} nodes per axis, got {args.mesh}"
        )
    a, g, f, clamped = objective_grid(args.rationality, args.mesh)
    out = Path(args.output)
    write_blocks(out, "alpha,gamma,objective,clamped\n", _grid_blocks(args.mesh, a, g, f, clamped))
    _write_manifest(out, args)
    print(f"wrote {len(a)} grid nodes to {out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    s1 = MarkovStrategy(args.alpha1, args.gamma1)
    s2 = MarkovStrategy(
        args.alpha2 if args.alpha2 is not None else args.alpha1,
        args.gamma2 if args.gamma2 is not None else args.gamma1,
    )
    if args.rounds > MAX_ROUNDS:
        raise ValueError(f"rounds must be at most {MAX_ROUNDS}, got {args.rounds}")
    # the estimates condition each round on the one before it
    if args.rounds < 2:
        raise ValueError(f"rounds must be at least 2, got {args.rounds}")
    config = SimulationConfig(
        rounds=args.rounds,
        seed=args.seed,
        initial_coop_prob=(args.initial_coop[0], args.initial_coop[1]),
    )
    _check_burn_in(args.burn_in, args.rounds)
    log = simulate(s1, s2, config)
    out = Path(args.output)
    export_log(log, out)
    _write_manifest(
        out,
        args,
        {  # the resolved pair: player 2's strategy defaults to player 1's
            "strategy1": [s1.alpha, s1.gamma],
            "strategy2": [s2.alpha, s2.gamma],
            "rounds": args.rounds,
            "seed": args.seed,
            "initial_coop_prob": list(args.initial_coop),
            "burn_in": args.burn_in,
        },
    )
    est1, est2 = estimate_markov(log)
    print(
        f"cooperation_rate1={_fmt(log.cooperation_rate(1, args.burn_in))} "
        f"cooperation_rate2={_fmt(log.cooperation_rate(2, args.burn_in))} "
        f"alpha1_hat={_fmt(est1.alpha) if est1.alpha is not None else 'NA'} "
        f"gamma1_hat={_fmt(est1.gamma) if est1.gamma is not None else 'NA'} "
        f"alpha2_hat={_fmt(est2.alpha) if est2.alpha is not None else 'NA'} "
        f"gamma2_hat={_fmt(est2.gamma) if est2.gamma is not None else 'NA'}"
    )
    return 0


def _sweep_float(cell: str, line: int, column: str, hi: float = math.inf) -> float:
    """``cell`` as a finite float in [0, hi]."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and 0.0 <= value <= hi:
        return value
    want = "a finite number >= 0" if hi == math.inf else f"a number in [0, {hi:g}]"
    raise ParseError(f"expected {want}, got {cell!r}", line, column)


def _sweep_row(cells: list[str], line: int) -> QrePoint:
    """One row of a ``qre-sweep`` CSV; a cell that breaks its column's rule is a ParseError."""
    if len(cells) != 7:
        raise ParseError(f"expected 7 cells, got {len(cells)}", line)
    lam, alpha, gamma, objective, branch, accepted, count = cells
    for column, cell, ok, want in (
        ("branch", branch, branch in BRANCH_LABELS, f"one of {BRANCH_LABELS}"),
        ("accepted", accepted, accepted in ("true", "false"), "true or false"),
        ("start_count", count, count.isascii() and count.isdigit(), "an integer >= 0"),
    ):
        if not ok:
            raise ParseError(f"expected {want}, got {cell!r}", line, column)
    return QrePoint(
        _sweep_float(lam, line, "lambda"), _sweep_float(alpha, line, "alpha", 1.0),
        _sweep_float(gamma, line, "gamma", 1.0), _sweep_float(objective, line, "objective"),
        accepted == "true", branch, int(count),
    )


def _read_sweep_csv(path: Path) -> list[QrePoint]:
    if not path.exists():
        raise InsufficientSweep(f"sweep file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != SWEEP_HEADER:
            raise InsufficientSweep(f"unexpected sweep header in {path}: {header!r}")
        lines = enumerate((line.strip() for line in fh), start=2)
        return [_sweep_row(line.split(","), number) for number, line in lines if line]


#: Manifest name of the bundled table: package-relative, so that every
#: checkout of the same commit writes the same manifest.
_BUNDLED_DATA_NAME = "pdqre/data/experiments.csv"


def _cmd_classify(args: argparse.Namespace) -> int:
    data_path = Path(args.data) if args.data else bundled_experiments_path()
    inputs = {str(data_path) if args.data else _BUNDLED_DATA_NAME: data_path}
    if args.sweep:
        inputs[str(Path(args.sweep))] = Path(args.sweep)
    out = Path(args.output)
    _check_outputs({"--output": out}, inputs)
    records = load_experiments(data_path)
    if args.sweep:
        qre_sweep = _read_sweep_csv(Path(args.sweep))
    else:
        qre_sweep = main_branch(_float_grid(0.0, args.lambda_max, args.lambda_step, "lambda"))
    report = classify_against_qre(records, qre_sweep, lambda_max=args.lambda_max)
    aggregates = aggregate(records)

    payload = {
        "n_records": len(records),
        "lambda_max": report.lambda_max,
        "interpolation": report.interpolation,
        "separation_score": _round12(report.separation_score),
        "counts": report.counts,
        "aggregates": {
            phase: {
                "coop_rate": _round12(agg.coop_rate),
                "coop_rate_percent": _round12(agg.coop_rate * 100.0),
                "alpha": _round12(agg.alpha),
                "gamma": _round12(agg.gamma),
                "count": agg.count,
            }
            for phase, agg in aggregates.items()
        },
        "records": [
            {
                "experiment_id": c.record.experiment_id,
                "phase": c.record.phase,
                "alpha": _round12(c.record.alpha),
                "gamma": _round12(c.record.gamma),
                "side": c.side,
                "boundary_gamma": _round12(c.boundary_gamma),
                "distance": _round12(c.distance),
                "extrapolated": c.extrapolated,
                "borderline": c.borderline,
            }
            for c in report.classifications
        ],
    }
    _write_json(out, payload)
    _write_manifest(out, args, inputs=inputs)
    print(
        f"classified {len(records)} records; "
        f"separation_score={_fmt(report.separation_score)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdqre",
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"pdqre {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    nash = subs.add_parser(
        "nash-curve",
        help="trace the symmetric Nash curve(s) over a gamma grid",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    nash.add_argument("--curve", choices=["quadratic", "stationarity", "both"], default="both")
    nash.add_argument("--gamma-min", type=float, default=0.0)
    nash.add_argument("--gamma-max", type=float, default=1.0)
    nash.add_argument("--gamma-step", type=float, default=0.001)
    nash.add_argument("--output", required=True, help="CSV output path")
    nash.set_defaults(handler=_cmd_nash_curve)

    sweep = subs.add_parser(
        "qre-sweep",
        help="solve the QRE system over a rationality grid",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sweep.add_argument("--lambda-min", type=float, default=0.0)
    sweep.add_argument("--lambda-max", type=float, default=10.0)
    sweep.add_argument("--lambda-step", type=float, default=0.01)
    sweep.add_argument(
        "--intersection-tol",
        type=float,
        default=0.05,
        help="residual magnitude that counts as reaching the Nash curve",
    )
    defaults = SolverConfig()
    sweep.add_argument(
        "--accept-tol", type=float, default=defaults.accept_tol, help="acceptance objective"
    )
    sweep.add_argument(
        "--merge-tol", type=float, default=defaults.merge_tol, help="solution merge radius"
    )
    sweep.add_argument(
        "--candidate-ceiling", type=float, default=defaults.candidate_ceiling,
        help="max objective for reported non-exact local minima",
    )
    sweep.add_argument(
        "--no-candidates", action="store_true", default=not defaults.include_candidates,
        help="report exact equilibria only",
    )
    sweep.add_argument(
        "--curve", choices=["quadratic", "stationarity"], default=defaults.curve_choice,
        help="Nash curve used for branch labels",
    )
    sweep.add_argument("--output", required=True, help="CSV output path")
    sweep.add_argument("--report", default=None, help="JSON report path (default: <output>.report.json)")
    sweep.set_defaults(handler=_cmd_qre_sweep)

    grid = subs.add_parser(
        "objective-grid",
        help="export the QRE objective over a mesh at fixed rationality",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    grid.add_argument("--rationality", type=float, required=True, help="lambda value")
    grid.add_argument("--mesh", type=int, default=201, help="nodes per axis")
    grid.add_argument("--output", required=True, help="CSV output path")
    grid.set_defaults(handler=_cmd_objective_grid)

    sim = subs.add_parser(
        "simulate",
        help="play a seeded iterated game between two Markov strategies",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sim.add_argument("--alpha1", type=float, required=True)
    sim.add_argument("--gamma1", type=float, required=True)
    sim.add_argument("--alpha2", type=float, default=None, help="defaults to --alpha1")
    sim.add_argument("--gamma2", type=float, default=None, help="defaults to --gamma1")
    sim.add_argument("--rounds", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--initial-coop",
        type=float,
        nargs=2,
        default=[0.5, 0.5],
        metavar=("P1", "P2"),
        help="round-1 cooperation probabilities",
    )
    sim.add_argument("--burn-in", type=int, default=1000, help="rounds dropped from the summary")
    sim.add_argument("--output", required=True, help="log CSV output path")
    sim.set_defaults(handler=_cmd_simulate)

    cls = subs.add_parser(
        "classify",
        help="classify experimental records against the QRE boundary",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    cls.add_argument("--data", default=None, help="experiments CSV (default: bundled table)")
    cls.add_argument(
        "--sweep",
        default=None,
        help="qre-sweep CSV to use as boundary (default: compute internally)",
    )
    cls.add_argument("--lambda-max", type=float, default=4.0)
    cls.add_argument(
        "--lambda-step",
        type=float,
        default=0.01,
        help="grid step for the internally computed main branch",
    )
    cls.add_argument("--output", required=True, help="JSON report path")
    cls.set_defaults(handler=_cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as err:  # every domain error is a ValueError
        payload = {"error": type(err).__name__, "message": str(err)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
