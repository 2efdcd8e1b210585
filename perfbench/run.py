"""pdqre benchmark: end-to-end metrics untraced, per-layer metrics traced.

One workload in one process, the form every measurement uses:

    python3 perfbench/run.py --workload sweep_smooth --seed 1 --seconds 25 --trace 0

prints each metric with its unit and, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  Every workload, each in its own process, untraced and then
traced:

    python3 perfbench/run.py --all

Runs read and write only inside the checkout: outputs, spans and the
summary go to ``.bench_out/``.  ``--size smoke`` shrinks every job so that
the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import Tracer, span_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# The keys of workloads.WORKLOADS, which imports pdqre and so can only be
# imported once src/ is on the path.
WORKLOAD_NAMES = ("sweep_smooth", "sweep_multibranch", "batch_io")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_SAMPLES = 5
# A full-size pass of any workload takes about this long on the reference
# machine (see README).  A run makes round(seconds / NOMINAL_PASS_S) passes,
# so it measures about --seconds there and every run does the same work: a
# time-boxed loop would give slow runs fewer passes and a less robust median.
NOMINAL_PASS_S = 8.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

SUBCOMMANDS = ("qre-sweep", "classify", "objective-grid", "simulate", "nash-curve")

# Job rates: metric -> job whose units of work per second it reports.
RATES = {
    "lambda_per_s": "qre-sweep",
    "grid_cells_per_s": "objective-grid",
    "log_rounds_per_s": "simulate",
    "group_rounds_per_s": "simulate_group",
}

LAYER_UNITS = {
    "qre.solve_qre.calls": "count",
    "qre.solve_qre.p50_ms": "ms",
    "qre.solve_qre.p95_ms": "ms",
    "qre.solve_qre.max_ms": "ms",
    "qre.sweep_lambda.s": "s",
    "qre.accepted": "count",
    "qre.candidates": "count",
    "qre.no_solution": "count",
    "qre.discontinuities": "count",
    "qre.clamped_starts": "count",
    "qre.clamped_evals": "count",
    "qre.find_intersections.s": "s",
    "qre.objective_grid.s": "s",
    "qre.objective_grid.clamped_cells": "count",
    **{f"cli.{sub}.{part}": unit for sub in SUBCOMMANDS
       for part, unit in (("s", "s"), ("self_s", "s"), ("bytes", "B"))},
    "simulate.simulate.s": "s",
    "simulate.export_log.s": "s",
    "simulate.simulate_group.s": "s",
    "simulate.estimate.s": "s",
    "nash.curve_residual.calls": "count",
    "nash.trace.s": "s",
    "game.stationary_state.calls": "count",
    "game.expected_payoff.calls": "count",
    "data.load_experiments.s": "s",
    "data.classify_against_qre.s": "s",
    **{name: "1/s" for name in RATES},
    "accepted_points": "count",
    "error_rate": "fraction",
    "trace.overhead_s": "s",
}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when nothing was sampled."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(tracer, run) -> dict[str, float]:
    """Per-layer figures of the traced pass ``tracer.run_id``."""
    durations, selfs = span_table(tracer.spans, tracer.run_id)
    counts = tracer.counts

    def total(*names: str) -> float:
        return float(sum(sum(durations.get(name, ())) for name in names))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    solve_ms = sorted(1e3 * d for d in durations.get("qre.solve_qre", ()))
    m = {
        "qre.solve_qre.calls": len(solve_ms),
        "qre.solve_qre.p50_ms": _percentile(solve_ms, 50),
        "qre.solve_qre.p95_ms": _percentile(solve_ms, 95),
        "qre.solve_qre.max_ms": solve_ms[-1] if solve_ms else 0.0,
        "qre.sweep_lambda.s": total("qre.sweep_lambda"),
        "qre.find_intersections.s": total("qre.find_intersections"),
        "qre.objective_grid.s": total("qre.objective_grid"),
        "simulate.simulate.s": total("simulate.simulate"),
        "simulate.export_log.s": total("simulate.export_log"),
        "simulate.simulate_group.s": total("simulate.simulate_group"),
        "simulate.estimate.s": total(
            "simulate.estimate_markov", "simulate.estimate_markov_pooled"
        ),
        "nash.curve_residual.calls": calls("nash.curve_residual"),
        "nash.trace.s": total("nash.trace_quadratic_curve", "nash.trace_stationarity_curve"),
        "game.stationary_state.calls": calls("game.stationary_state"),
        "game.expected_payoff.calls": calls("game.expected_payoff"),
        "data.load_experiments.s": total("data.load_experiments"),
        "data.classify_against_qre.s": total("data.classify_against_qre"),
    }
    for key in (
        "qre.accepted",
        "qre.candidates",
        "qre.no_solution",
        "qre.discontinuities",
        "qre.clamped_starts",
        "qre.clamped_evals",
        "qre.objective_grid.clamped_cells",
    ):
        m[key] = counts[key]
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = total(f"cli.{sub}")
        m[f"cli.{sub}.self_s"] = selfs.get(f"cli.{sub}", 0.0)
        m[f"cli.{sub}.bytes"] = run.bytes.get(sub, 0)
    return m


def job_rates(jobs: dict[str, float], work: dict[str, int]) -> dict[str, float]:
    return {
        name: work[job] / jobs[job] if job in jobs and jobs[job] > 0 else 0.0
        for name, job in RATES.items()
    }


def measure_setup() -> float:
    """Median time, in fresh processes, to import pdqre and its CLI and load the data."""
    code = (
        "import time; t = time.perf_counter(); import pdqre, pdqre.cli; "
        "pdqre.load_experiments(); print(time.perf_counter() - t, pdqre.__file__)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    samples = []
    # The first sample warms the file cache and is dropped.
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, origin = proc.stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported pdqre from {origin}, not from {SRC}")
        samples.append(float(seconds))
    return statistics.median(samples[1:])


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def output_digests(workdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.iterdir())
        if p.is_file()
    }


def check_earlier_runs(run, key: str, digests: dict[str, str]) -> None:
    """Outputs must match every earlier run of the same sources, workload and seed."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        changed = sorted(f for f in set(known[key]) | set(digests)
                         if known[key].get(f) != digests.get(f))
        run.record(not changed, f"outputs differ from an earlier run: {changed}")
    else:
        known[key] = digests
        path.write_text(json.dumps(known, indent=1, sort_keys=True))


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, size_name: str
) -> tuple[dict, list[float]]:
    """The result object of one run, and the wall time of every pass."""
    from workloads import SIZES, WORKLOADS, Run, account, make_inputs

    size = SIZES[size_name]
    workload = WORKLOADS[name]
    workdir = OUT / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(workdir, size, make_inputs(seed, size))
    tracer = Tracer() if trace else None
    setup_s = None if trace else measure_setup()

    untraced: list[tuple[float, dict]] = []  # (wall, job rates) per pass
    traced: list[tuple[float, dict]] = []  # (wall, layer metrics) per pass
    traced_counts: list[dict] = []
    first = None
    passes = max(2 if trace else 1, round(seconds / NOMINAL_PASS_S))
    for k in range(passes):
        # Traced runs alternate, untraced first, so overhead is a difference
        # of two passes in one process.
        tracing = trace and k % 2 == 1
        run.jobs = {}
        if tracing:
            tracer.run_id = len(traced)
            tracer.counts.clear()
            tracer.install()
            run.tracer = tracer
        start = perf_counter()
        try:
            workload.run_pass(run)
        finally:
            wall = perf_counter() - start
            if tracing:
                tracer.uninstall()
                run.tracer = None
        if tracing:
            traced.append((wall, layer_metrics(tracer, run)))
            traced_counts.append(dict(tracer.counts))
        else:
            untraced.append((wall, job_rates(run.jobs, run.work)))
        account(run)

        digests = output_digests(workdir)
        if first is None:
            first = digests
            try:
                workload.check(run)
            except Exception:
                traceback.print_exc()
                run.record(False, "a correctness check raised")
            check_earlier_runs(run, f"{source_digest()}/{name}/{seed}/{size_name}", digests)
        else:
            run.record(digests == first, "outputs differ from the first pass")

    if trace:
        metrics = {
            key: statistics.median(m[key] for _, m in traced) for key in traced[0][1]
        }
        metrics.update(
            {key: statistics.median(r[key] for _, r in untraced) for key in RATES}
        )
        metrics["accepted_points"] = run.accepted_points
        metrics["error_rate"] = len(run.failures) / run.attempted
        metrics["trace.overhead_s"] = statistics.median(
            w for w, _ in traced
        ) - statistics.median(w for w, _ in untraced)
        units = LAYER_UNITS
        OUT.joinpath("trace").mkdir(exist_ok=True)
        OUT.joinpath("trace", f"{name}.json").write_text(
            json.dumps({"spans": tracer.spans, "counts": traced_counts})
        )
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(w for w, _ in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, [w for w, _ in untraced + traced]


def run_all(seed: int, seconds: int, size: str) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--size", size,
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[f"{name}/trace{trace}"] = result
            status |= 0 if result["correct"] else 1
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:36s} {v['value']:>14.6g} {v['unit']}")
    OUT.mkdir(exist_ok=True)
    summary = {"machine": machine_facts(), "seed": seed, "seconds": seconds,
               "size": size, "results": results}
    OUT.joinpath("summary.json").write_text(json.dumps(summary, indent=1))
    print(f"summary written to {OUT / 'summary.json'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # Single-threaded numerics: set before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pdqre" / "__init__.py").is_file():
        print(f"error: no pdqre sources at {SRC / 'pdqre'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.all:
        return run_all(args.seed, args.seconds, args.size)

    OUT.mkdir(exist_ok=True)
    result, walls = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size
    )
    print(f"# machine {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"# pass walls {walls}")
    for metric, v in result["metrics"].items():
        print(f"# {metric} = {v['value']!r} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
