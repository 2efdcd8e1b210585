"""Acceptance gate: one test per release criterion, at the stated tolerance.

Each test prints the measured values it judges, so a failing line carries
its own evidence.  The heavy sweeps are computed once per module.
"""

import json
import time

import numpy as np
import pytest

from pdqre.cli import main as cli_main
from pdqre.data import aggregate, classify_against_qre, load_experiments
from pdqre.game import MarkovStrategy
from pdqre.nash import stationarity_curve_residual, trace_quadratic_curve
from pdqre.qre import (
    DEFECT_REGION,
    DEFECT_THRESHOLD,
    SolverConfig,
    conditional_payoffs_compositional,
    find_intersections,
    logit_response,
    solve_qre,
    sweep_lambda,
)
from pdqre.simulate import SimulationConfig, estimate_markov, simulate


def _lambda_grid(lo: float, hi: float, step: float) -> list[float]:
    return [lo + k * step for k in range(int(round((hi - lo) / step)) + 1)]


@pytest.fixture(scope="module")
def full_sweep():
    start = time.perf_counter()
    sweep = sweep_lambda(_lambda_grid(0.0, 10.0, 0.01))
    return sweep, time.perf_counter() - start


def test_criterion_01_lambda_zero_exactness():
    start = time.perf_counter()
    points = solve_qre(0.0)
    elapsed = time.perf_counter() - start
    print(f"points={[(p.alpha, p.gamma, p.objective) for p in points]} time={elapsed:.3f}s")
    assert elapsed < 1.0
    assert len(points) == 1
    only = points[0]
    assert only.accepted
    assert only.alpha == 0.5
    assert only.gamma == 0.5
    assert only.objective < 1e-18


def _sigma_gamma_floor(lam: float, radius: float, mesh: int = 201) -> float:
    """Smallest gamma response over a mesh of the box [0, radius]^2.

    Computed from the compositional payoff oracle, not from the solver's
    kernels.  A floor above ``radius`` means sigma_gamma - gamma > 0 at every
    mesh node, so the box holds no fixed point: near the origin the gamma
    payoff gap is about -alpha and vanishes with alpha, which pins the gamma
    response near 1/2 however large the rationality.
    """
    axis = np.linspace(0.0, radius, mesh)
    floor = 1.0
    for a in axis:
        for g in axis:
            u = conditional_payoffs_compositional(float(a), float(g))
            floor = min(floor, logit_response(lam, u.u_gamma1, u.u_gamma0))
    return floor


def _defect_regime(points, cfg: SolverConfig):
    """Flagged candidates of the defection regime, nearest the origin first."""
    return sorted(
        (
            p
            for p in points
            if max(p.alpha, p.gamma) < DEFECT_REGION
            and not p.accepted
            and cfg.accept_tol < p.objective < cfg.candidate_ceiling
        ),
        key=lambda p: max(p.alpha, p.gamma),
    )


def test_criterion_02_high_rationality_limit():
    cfg = SolverConfig()
    start = time.perf_counter()
    at20 = solve_qre(20.0, cfg)
    at100 = solve_qre(100.0, cfg)
    elapsed = time.perf_counter() - start
    print(f"time={elapsed:.3f}s")
    assert elapsed < 5.0

    regime = {}
    for lam, radius, points in ((20.0, 0.01, at20), (100.0, 1e-3, at100)):
        floor = _sigma_gamma_floor(lam, radius)
        accepted = [(p.alpha, p.gamma) for p in points if p.accepted]
        found = _defect_regime(points, cfg)
        print(
            f"lambda={lam:g}: sigma_gamma >= {floor:.6f} on [0, {radius:g}]^2; "
            f"accepted={accepted}; defect-regime candidates="
            f"{[(p.alpha, p.gamma, p.objective) for p in found]}"
        )
        # no exact equilibrium near the all-defect corner, and the reason why
        assert floor > radius
        assert all(max(a, g) > radius for a, g in accepted)
        # the defection regime is reported as a flagged candidate instead
        assert found, (
            f"no flagged candidate with max(alpha, gamma) < {DEFECT_REGION} "
            f"at lambda={lam:g}"
        )
        regime[lam] = found[0]
        # the accepted equilibrium sits on the top edge
        assert accepted
        assert all(g >= 0.99 for _, g in accepted)

    # higher rationality pulls the candidate toward the origin and deepens it
    near20, near100 = regime[20.0], regime[100.0]
    assert max(near100.alpha, near100.gamma) < max(near20.alpha, near20.gamma)
    assert near100.objective < near20.objective


def test_criterion_03_three_branch_structure(full_sweep):
    sweep, elapsed = full_sweep
    cfg = sweep.config
    print(f"sweep time={elapsed:.1f}s transition_lambda={sweep.transition_lambda}")
    assert elapsed < 120.0

    smooth = [p for p in sweep.main_branch if p.lam < 5.0]
    assert len(smooth) == 500
    jumps = [
        max(abs(p.alpha - q.alpha), abs(p.gamma - q.gamma))
        for p, q in zip(smooth, smooth[1:])
    ]
    print(f"max smooth jump={max(jumps):.5f}")
    assert max(jumps) < 0.05
    assert all(p.branch == "smooth" for p in smooth)

    near_nash = [
        p for p in sweep.points if p.branch == "near_nash" and 5.0 <= p.lam <= 7.6
    ]
    assert near_nash
    sample = near_nash[0]
    assert abs(stationarity_curve_residual(sample.alpha, sample.gamma)) < 0.05

    assert sweep.transition_lambda is not None
    assert 6.5 <= sweep.transition_lambda <= 7.6

    lams_past_8 = sorted({p.lam for p in sweep.points if p.lam > 8.0})
    assert lams_past_8
    regime = {
        lam: _defect_regime((p for p in sweep.points if p.lam == lam), cfg)
        for lam in lams_past_8
    }
    missing = [lam for lam, found in regime.items() if not found]
    assert not missing, (
        f"{len(missing)} of {len(lams_past_8)} grid points past lambda=8 have no "
        f"flagged defect-regime candidate, e.g. {missing[:5]}"
    )
    path = [regime[lam][0] for lam in lams_past_8]
    first, last = path[0], path[-1]
    print(
        f"defect regime: lambda={first.lam:.2f} ({first.alpha:.6f}, {first.gamma:.6f}) "
        f"objective={first.objective:.3e}; lambda={last.lam:.2f} "
        f"({last.alpha:.6f}, {last.gamma:.6f}) objective={last.objective:.3e}"
    )
    steps = list(zip(path, path[1:]))
    assert all(
        max(q.alpha, q.gamma) < max(p.alpha, p.gamma) for p, q in steps
    ), "the defect-regime candidate does not approach the origin along lambda"
    assert all(q.objective < p.objective for p, q in steps), (
        "the defect-regime candidate objective does not fall along lambda"
    )

    # No exact equilibrium sits in the defect box: at lambda=10, the largest
    # rationality swept and so the smallest gamma response, sigma_gamma
    # stays above the box's edge.
    floor = _sigma_gamma_floor(10.0, DEFECT_THRESHOLD)
    exact_in_box = [
        (p.lam, p.alpha, p.gamma)
        for p in sweep.points
        if p.accepted and max(p.alpha, p.gamma) < DEFECT_THRESHOLD
    ]
    print(f"sigma_gamma >= {floor:.6f} on [0, {DEFECT_THRESHOLD:g}]^2 at lambda=10")
    assert floor > DEFECT_THRESHOLD
    assert not exact_in_box, f"accepted points in the defect box: {exact_in_box[:5]}"


def test_criterion_04_first_intersection(full_sweep):
    sweep, _ = full_sweep
    stationarity_events = find_intersections(sweep, "stationarity")
    quadratic_events = find_intersections(sweep, "quadratic")
    first = next(e for e in stationarity_events if e.first)
    print(
        f"stationarity first: kind={first.kind} lambda={first.lam:.6f} "
        f"alpha={first.alpha:.6f} gamma={first.gamma:.6f}; "
        f"quadratic events: {len(quadratic_events)}"
    )
    assert 3.0 <= first.lam <= 5.0
    assert 0.1 <= first.alpha <= 0.3
    assert 0.4 <= first.gamma <= 0.6
    # the benchmark-curve comparison completes, and its disagreement is visible:
    # the stationarity curve is reached, the benchmark quadratic never is
    assert isinstance(quadratic_events, list)
    stationarity_found = any(e.first for e in stationarity_events)
    quadratic_found = any(e.first for e in quadratic_events)
    assert stationarity_found != quadratic_found
    assert quadratic_events == []


def test_criterion_05_closed_form_equivalence():
    from pdqre.nash import own_payoff_gradient, own_payoff_gradient_fd
    from pdqre.qre import conditional_payoffs

    rng = np.random.default_rng(20260815)
    start = time.perf_counter()
    checked = 0
    max_pay_err = 0.0
    max_grad_err = 0.0
    while checked < 1000:
        a, g, a2, g2 = rng.uniform(0.001, 0.999, 4)
        closed = conditional_payoffs(a, g)
        oracle = conditional_payoffs_compositional(a, g)
        max_pay_err = max(
            max_pay_err,
            abs(closed.u_alpha0 - oracle.u_alpha0),
            abs(closed.u_alpha1 - oracle.u_alpha1),
            abs(closed.u_gamma0 - oracle.u_gamma0),
            abs(closed.u_gamma1 - oracle.u_gamma1),
        )
        own, opp = MarkovStrategy(a, g), MarkovStrategy(a2, g2)
        ga, gg = own_payoff_gradient(own, opp)
        fa, fg = own_payoff_gradient_fd(own, opp)
        max_grad_err = max(max_grad_err, abs(ga - fa), abs(gg - fg))
        checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"checked={checked} max_payoff_err={max_pay_err:.3e} "
        f"max_gradient_err={max_grad_err:.3e} time={elapsed:.2f}s"
    )
    assert elapsed < 10.0
    assert max_pay_err < 1e-12
    assert max_grad_err < 1e-5


def test_criterion_06_monte_carlo_oracle():
    strategy = MarkovStrategy(0.2, 0.5)
    config = SimulationConfig(rounds=1_000_000, seed=20260815)
    start = time.perf_counter()
    log = simulate(strategy, strategy, config)
    rate1 = log.cooperation_rate(1, burn_in=1000)
    rate2 = log.cooperation_rate(2, burn_in=1000)
    est1, est2 = estimate_markov(log)
    elapsed = time.perf_counter() - start
    expected_rate = 0.2 / (1.0 + 0.2 - 0.5)
    print(
        f"rates=({rate1:.6f}, {rate2:.6f}) expected={expected_rate:.6f} "
        f"estimates=({est1.alpha:.6f}, {est1.gamma:.6f}), "
        f"({est2.alpha:.6f}, {est2.gamma:.6f}) time={elapsed:.2f}s"
    )
    assert elapsed < 30.0
    assert rate1 == pytest.approx(0.285714, abs=0.005)
    assert rate2 == pytest.approx(0.285714, abs=0.005)
    for est in (est1, est2):
        assert est.alpha == pytest.approx(0.2, abs=0.005)
        assert est.gamma == pytest.approx(0.5, abs=0.005)


def test_criterion_07_data_aggregates():
    agg = aggregate(load_experiments())
    before, after = agg["before"], agg["after"]
    print(
        f"before=({before.coop_rate:.6f}, {before.alpha:.6f}, {before.gamma:.6f}) "
        f"after=({after.coop_rate:.6f}, {after.alpha:.6f}, {after.gamma:.6f})"
    )
    assert before.coop_rate == pytest.approx(0.2225, abs=0.005)
    assert before.alpha == pytest.approx(0.20, abs=0.005)
    assert before.gamma == pytest.approx(0.27, abs=0.005)
    assert after.coop_rate == pytest.approx(0.5800, abs=0.005)
    assert after.alpha == pytest.approx(0.43, abs=0.005)
    assert after.gamma == pytest.approx(0.67, abs=0.005)


def test_criterion_08_boundary_separation():
    start = time.perf_counter()
    sweep = sweep_lambda(_lambda_grid(0.0, 4.0, 0.01))
    records = load_experiments()
    report = classify_against_qre(records, sweep, lambda_max=4.0)
    elapsed = time.perf_counter() - start
    flagged = [
        (c.record.experiment_id, c.record.phase, round(c.distance, 4))
        for c in report.classifications
        if c.borderline
    ]
    misclassified = [
        (c.record.experiment_id, c.record.phase, c.side)
        for c in report.classifications
        if (c.record.phase == "before") != (c.side == "Below")
    ]
    print(
        f"separation={report.separation_score:.4f} flagged={flagged} "
        f"misclassified={misclassified} time={elapsed:.1f}s"
    )
    assert elapsed < 60.0
    assert report.separation_score >= 26.0 / 28.0
    # every record sitting within the borderline tolerance of the boundary
    # carries the flag, and the flag fires on this data set
    for c in report.classifications:
        assert c.borderline == (c.distance < 0.02)
    assert flagged
    # the disputed after-points near gamma 0.43-0.49 sit close to the boundary
    # and are flagged once the tolerance matches their measured distances
    wide = classify_against_qre(records, sweep, lambda_max=4.0, borderline_tol=0.05)
    near_band = [
        c
        for c in wide.classifications
        if c.record.phase == "after" and 0.43 <= c.record.gamma <= 0.49
    ]
    assert near_band
    for c in near_band:
        assert c.borderline == (c.distance < 0.05)
    assert sum(c.borderline for c in near_band) >= 2


def test_criterion_09_nash_curve_anchors():
    gammas = sorted(set(np.linspace(0.0, 1.0, 1001)) | {1.0 / 9.0})
    points = trace_quadratic_curve(gammas)
    assert all(p.gamma >= 0.099 for p in points)
    anchor_low = [
        p for p in points if abs(p.alpha) < 1e-12 and abs(p.gamma - 1.0 / 9.0) < 1e-12
    ]
    anchor_top = [
        p for p in points if abs(p.alpha) < 1e-12 and abs(p.gamma - 1.0) < 1e-12
    ]
    print(f"anchors found: low={len(anchor_low)} top={len(anchor_top)}")
    assert anchor_low and anchor_top
    assert abs(anchor_low[0].quadratic_residual) < 1e-10
    assert abs(anchor_top[0].quadratic_residual) < 1e-10


def _run_twice_and_compare(tmp_path, name, argv_builder, capsys):
    first_dir = tmp_path / f"{name}_1"
    second_dir = tmp_path / f"{name}_2"
    outputs = {}
    for directory in (first_dir, second_dir):
        directory.mkdir()
        assert cli_main(argv_builder(directory)) == 0
        capsys.readouterr()
        outputs[directory] = {
            p.name: p.read_bytes() for p in sorted(directory.iterdir())
        }
    assert outputs[first_dir].keys() == outputs[second_dir].keys()
    for filename in outputs[first_dir]:
        assert outputs[first_dir][filename] == outputs[second_dir][filename], (
            f"{name}: {filename} differs between identical runs"
        )
    return sorted(outputs[first_dir])


def test_criterion_10_cli_determinism(tmp_path, capsys):
    produced = {}
    produced["nash-curve"] = _run_twice_and_compare(
        tmp_path,
        "nash-curve",
        lambda d: ["nash-curve", "--gamma-step", "0.01", "--output", str(d / "curve.csv")],
        capsys,
    )
    produced["qre-sweep"] = _run_twice_and_compare(
        tmp_path,
        "qre-sweep",
        lambda d: [
            "qre-sweep",
            "--lambda-min", "0", "--lambda-max", "1", "--lambda-step", "0.25",
            "--output", str(d / "sweep.csv"),
        ],
        capsys,
    )
    produced["objective-grid"] = _run_twice_and_compare(
        tmp_path,
        "objective-grid",
        lambda d: [
            "objective-grid", "--rationality", "2.5", "--mesh", "41",
            "--output", str(d / "grid.csv"),
        ],
        capsys,
    )
    produced["simulate"] = _run_twice_and_compare(
        tmp_path,
        "simulate",
        lambda d: [
            "simulate", "--alpha1", "0.2", "--gamma1", "0.5",
            "--rounds", "5000", "--seed", "20260815",
            "--output", str(d / "log.csv"),
        ],
        capsys,
    )
    produced["classify"] = _run_twice_and_compare(
        tmp_path,
        "classify",
        lambda d: [
            "classify", "--lambda-step", "0.1", "--output", str(d / "report.json"),
        ],
        capsys,
    )
    print(json.dumps(produced, indent=2))
    assert set(produced) == {
        "nash-curve", "qre-sweep", "objective-grid", "simulate", "classify"
    }
