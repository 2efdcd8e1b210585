"""The arc of H = 0 behind a sweep's main branch, jumps and intersections.

``sweep_lambda`` takes its main branch from the arc's first crossing of
each grid rationality and its discontinuities from the arc's folds, and
``find_intersections`` refines events on the arc.  Each is checked here
against something the trace does not produce: the scalar reference
objective, the per-rationality multistart solve and the curve residual.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdqre.qre
from pdqre.game import DEFAULT_MATRIX, PayoffMatrix
from pdqre.qre import (
    SolverConfig,
    _logistic,
    _main_crossings,
    _trace_arc,
    find_intersections,
    qre_objective,
    solve_qre,
    sweep_lambda,
)

GRID = [0.01 * k for k in range(1001)]


@pytest.fixture(
    scope="module",
    params=[DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7.0)],
    ids=["default", "t7"],
)
def swept(request):
    return request.param, sweep_lambda(GRID, matrix=request.param)


def test_first_crossings_are_exact_roots_and_the_main_branch(swept):
    matrix, sweep = swept
    alpha, gamma, _, jumps = _main_crossings(GRID, matrix)
    crossings = list(zip(GRID, alpha, gamma))
    worst = max(qre_objective(lam, a, g, matrix) for lam, a, g in crossings)
    apart = max(
        max(abs(p.alpha - a), abs(p.gamma - g)) for p, (_, a, g) in zip(sweep.main_branch, crossings)
    )
    print(f"worst scalar objective {worst:.2e}; farthest from the main branch {apart:.2e}")
    assert worst <= SolverConfig().accept_tol
    assert [p.lam for p in sweep.main_branch] == GRID
    assert apart <= 1e-12
    # the main branch is the sweep's own accepted points, not copies
    assert all(any(p is q for q in sweep.points) and p.accepted for p in sweep.main_branch)
    assert sweep.discontinuities == jumps


def test_refined_events_lie_on_the_arc(swept):
    matrix, sweep = swept
    events = [
        e
        for choice in ("stationarity", "quadratic")
        for e in find_intersections(sweep, choice, matrix=matrix)
    ]
    assert events
    for e in events:
        objective = qre_objective(e.lam, e.alpha, e.gamma, matrix)
        print(f"{e.kind} lambda={e.lam:.11f} objective={objective:.1e} residual={e.residual:.3e}")
        assert objective <= 1e-20
        if e.kind == "crossing":
            assert abs(e.residual) <= 1e-12
        else:
            assert abs(e.residual) == pytest.approx(0.05, abs=1e-12)


def test_events_do_not_depend_on_the_grid():
    # the same crossing and entry, refined between the points of two grids
    fine = find_intersections(sweep_lambda([3.8 + 0.01 * k for k in range(21)]), "stationarity")
    fine += find_intersections(sweep_lambda([5.6 + 0.01 * k for k in range(11)]), "stationarity")
    coarse = find_intersections(sweep_lambda([3.75 + 0.0625 * k for k in range(33)]), "stationarity")
    assert [e.kind for e in fine] == ["entry", "entry", "crossing"]
    assert [e.kind for e in coarse] == ["entry", "crossing"]
    for f, c in zip((fine[0], fine[2]), coarse):
        assert max(abs(f.lam - c.lam), abs(f.alpha - c.alpha), abs(f.gamma - c.gamma)) <= 1e-11


def test_upper_fold_is_refined_between_two_solves():
    # solve_qre brackets the fold without the trace: at 9.62 it finds the two
    # interior roots that meet there, at 9.6201 neither (the top-edge root
    # near gamma = 0.99 is on another part of the arc).
    def interior(lam):
        return [x for p in solve_qre(lam) if p.accepted and p.gamma < 0.9 for x in (p.alpha, p.gamma)]

    assert interior(9.62) == pytest.approx([0.265827, 0.650736, 0.265975, 0.651170], abs=1e-6)
    assert interior(9.6201) == []
    z, lams, folds = _trace_arc(10.0, DEFAULT_MATRIX)
    assert len(folds) == 1
    top = folds[0]
    print(f"fold at lambda={lams[top]:.9f}, (alpha, gamma)={_logistic(1.0, z[top])}")
    assert 9.62 < lams[top] < 9.6201
    assert lams[top - 1] < lams[top] > lams[top + 1]
    assert _logistic(1.0, z[top]) == pytest.approx([0.26590, 0.65095], abs=1e-5)


def test_crossings_just_below_the_fold_are_exact_roots_before_it():
    # lambda is quadratic in arclength at the fold, so the two roots of a
    # level delta below it sit about sqrt(delta) apart on either side; the
    # first crossing must be the one before the fold, polished to an exact root
    z, lams, folds = _trace_arc(10.0, DEFAULT_MATRIX)
    top, gamma_top = lams[folds[0]], _logistic(1.0, z[folds[0]])[1]
    deltas = [10.0**-k for k in range(3, 10)]
    _, gamma, objective, jumps = _main_crossings([top - d for d in deltas], DEFAULT_MATRIX)
    assert jumps == []
    for d, g, f in zip(deltas, gamma, objective):
        print(f"delta={d:.0e}: gamma - gamma_fold = {g - gamma_top:.3e}, objective {f:.1e}")
        assert f <= 1e-20
        assert -3.0 * math.sqrt(d / 1e-3) * 2.63e-3 <= g - gamma_top <= -math.sqrt(d / 1e-3) * 2.63e-3 / 3.0


def test_a_root_the_solve_missed_joins_the_points(monkeypatch):
    want = sweep_lambda([1.0, 2.0])
    solve = pdqre.qre._solve

    def without_accepted(lams, cfg, matrix):
        for points, clamped in solve(lams, cfg, matrix):
            yield [p for p in points if not p.accepted], clamped

    monkeypatch.setattr(pdqre.qre, "_solve", without_accepted)
    got = sweep_lambda([1.0, 2.0])
    assert got.no_solution == []
    assert [(p.lam, p.accepted, p.start_count) for p in got.main_branch] == [
        (1.0, True, 0),
        (2.0, True, 0),
    ]
    assert all(any(p is q for q in got.points) for p in got.main_branch)
    for p, q in zip(got.main_branch, want.main_branch):
        assert max(abs(p.alpha - q.alpha), abs(p.gamma - q.gamma)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    sucker=st.floats(-2.0, 4.0),
    gaps=st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3),
)
@example(sucker=0.0, gaps=[1.0, 4.0, 5.0])
def test_prisoners_dilemmas_get_a_complete_exact_main_branch(sucker, gaps):
    # any T > R > P > S: the trace reaches past the grid, and every grid
    # rationality gets a main-branch point that is an exact root the sweep reports
    punishment = sucker + gaps[0]
    reward = punishment + gaps[1]
    matrix = PayoffMatrix(reward, sucker, reward + gaps[2], punishment)
    grid = [0.25 * k for k in range(41)]
    sweep = sweep_lambda(grid, matrix=matrix)
    assert [p.lam for p in sweep.main_branch] == grid
    assert set(sweep.discontinuities) <= set(grid[1:])
    for p in sweep.main_branch:
        assert p.accepted and any(p is q for q in sweep.points)
        assert qre_objective(p.lam, p.alpha, p.gamma, matrix) <= SolverConfig().accept_tol
    z, lams, _ = _trace_arc(grid[-1], matrix)
    assert lams[-1] == math.inf and lams[-2] > grid[-1]  # the arc reached past the grid
    assert (lams[:-1] >= 0.0).all()


def test_a_game_without_payoff_gaps_keeps_the_centre():
    # every payoff equal: both gaps vanish everywhere, so grad H is 0 at the
    # start and the arc has no direction; each level is polished from (1/2, 1/2)
    sweep = sweep_lambda([0.0, 1.0, 50.0], matrix=PayoffMatrix(1.0, 1.0, 1.0, 1.0))
    assert [(p.lam, p.alpha, p.gamma) for p in sweep.main_branch] == [
        (0.0, 0.5, 0.5),
        (1.0, 0.5, 0.5),
        (50.0, 0.5, 0.5),
    ]
    assert sweep.discontinuities == [] and sweep.no_solution == []


def test_the_trace_steps_around_a_steep_rise_of_lambda():
    # In this game (not a prisoner's dilemma: S > R) lambda climbs steeply
    # along the arc: a full predictor step from lambda 7.4 lands near 4900.
    # A step that more than doubles 1 + lambda is halved, so the nodes climb
    # gradually, and every crossing up to 100 polishes to an exact root.
    matrix = PayoffMatrix(reward_cc=2.7, sucker_cd=4.3, temptation_dc=7.3, punishment_dd=0.3)
    grid = [10.0 * k for k in range(11)]
    _, lams, _ = _trace_arc(grid[-1], matrix)
    assert all(b <= 1.0 + 2.0 * a + 1e-9 for a, b in zip(lams[:-2], lams[1:-1]) if b > a)
    alpha, gamma, objective, _ = _main_crossings(grid, matrix)
    assert max(objective) <= SolverConfig().accept_tol
    assert max(qre_objective(*x, matrix) for x in zip(grid, alpha, gamma)) <= 1e-20
