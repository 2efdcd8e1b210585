"""The arc of H = 0 behind the accepted points, the main branch, jumps and intersections.

Every solve accepts the arc's crossings of its rationality that polish to
exact roots, ``sweep_lambda`` takes its main branch from each grid
rationality's first crossing and its discontinuities from the arc's folds,
and ``find_intersections`` refines events on the arc.  Each is checked here
against something the trace does not produce: the scalar reference
objective, the descents from the objective mesh and the curve residual.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdqre.qre
from pdqre.game import DEFAULT_MATRIX, PayoffMatrix
from pdqre.qre import (
    CLAMP_EPS,
    SolverConfig,
    _conditional_utilities,
    _crossings,
    _logistic,
    _trace_arc,
    find_intersections,
    qre_objective,
    solve_qre,
    sweep_lambda,
)

GRID = [0.01 * k for k in range(1001)]


def _first(crossings):
    """(alpha, gamma, objective) of each level's first crossing and the levels past a new fold."""
    level, alpha, gamma, objective, passed = crossings
    first = np.flatnonzero(np.diff(level, prepend=-1))
    jumped = np.flatnonzero(np.diff(passed, prepend=passed[:1]))
    return alpha[first], gamma[first], objective[first], jumped.tolist()


@pytest.fixture(
    scope="module",
    params=[DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7.0)],
    ids=["default", "t7"],
)
def swept(request):
    return request.param, sweep_lambda(GRID, matrix=request.param)


def test_first_crossings_are_exact_roots_and_the_main_branch(swept):
    matrix, sweep = swept
    alpha, gamma, _, jumps = _first(_crossings(GRID, matrix))
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
    assert sweep.discontinuities == [GRID[k] for k in jumps]


def test_every_crossing_is_an_accepted_point(swept):
    # on this grid the accepted points are exactly the arc's crossings: one per
    # crossing, each an exact root by the scalar reference objective
    matrix, sweep = swept
    level, alpha, gamma, _, _ = _crossings(GRID, matrix)
    accepted = [p for p in sweep.points if p.accepted]
    assert len(accepted) == len(level)
    for k, a, g in zip(level.tolist(), alpha, gamma):
        assert qre_objective(GRID[k], a, g, matrix) <= SolverConfig().accept_tol
        here = [p for p in accepted if p.lam == GRID[k]]
        assert min(max(abs(p.alpha - a), abs(p.gamma - g)) for p in here) <= 1e-12


def test_refined_events_lie_on_the_arc(swept):
    matrix, sweep = swept
    events = [
        e
        for choice in ("stationarity", "quadratic")
        for e in find_intersections(sweep, choice)
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


def test_events_are_found_in_the_game_the_sweep_was_solved_under():
    # the sweep carries its payoff matrix: the stationarity curve of T = 7 is
    # entered near lambda 7.49, which the default game's curve would not show
    matrix = PayoffMatrix(temptation_dc=7.0)
    sweep = sweep_lambda([7.40 + 0.01 * k for k in range(21)], matrix=matrix)
    events = find_intersections(sweep, "stationarity")
    assert [e.kind for e in events] == ["entry"]
    assert events[0].lam == pytest.approx(7.4927886, abs=1e-6)
    assert (events[0].alpha, events[0].gamma) == pytest.approx((0.208816, 0.394832), abs=1e-6)


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
    z, lams, folds = _trace_arc(DEFAULT_MATRIX)
    top = folds[0]
    print(f"fold at lambda={lams[top]:.9f}, (alpha, gamma)={_logistic(1.0, z[top])}")
    assert 9.62 < lams[top] < 9.6201
    assert lams[top - 1] < lams[top] > lams[top + 1]
    assert _logistic(1.0, z[top]) == pytest.approx([0.26590, 0.65095], abs=1e-5)


def test_both_folds_of_the_default_matrix_are_refined():
    # the arc climbs to the upper fold, falls to the lower one and climbs to
    # the top edge; solve_qre brackets the lower fold too, through the arc's
    # crossings: one accepted root just below it, three just above it
    z, lams, folds = _trace_arc(DEFAULT_MATRIX)
    assert lams[folds].tolist() == pytest.approx([9.6200068, 5.102812], abs=1e-6)
    low = folds[1]
    assert lams[low - 1] > lams[low] < lams[low + 1]
    assert _logistic(1.0, z[low]) == pytest.approx([0.30307, 0.93468], abs=1e-5)
    for offset, count in ((-1e-4, 1), (1e-4, 3)):
        assert sum(p.accepted for p in solve_qre(lams[low] + offset)) == count, offset


def test_an_arc_that_returns_below_its_fold_keeps_its_roots():
    # with T = 7 the arc climbs past lambda 10 to a fold near 58.3, returns to
    # a fold near 7.795 and climbs again: the two upper roots of lambda 7.80..10
    # lie on the arc beyond lambda 10, and a trace cut there would not see them
    matrix = PayoffMatrix(temptation_dc=7.0)
    z, lams, folds = _trace_arc(matrix)
    assert lams[folds].tolist() == pytest.approx([58.3252, 7.79519], abs=1e-4)
    for lam, count in ((7.79, 1), (7.80, 3)):
        level, alpha, gamma, objective, _ = _crossings([lam], matrix)
        assert len(level) == count and objective.max() <= SolverConfig().accept_tol
        accepted = sorted((p.alpha, p.gamma) for p in solve_qre(lam, matrix=matrix) if p.accepted)
        assert len(accepted) == count, lam
        for got, want in zip(accepted, sorted(zip(alpha, gamma))):
            assert got == pytest.approx(want, abs=1e-12), lam


EDGE_MATRIX = PayoffMatrix(
    3.0837773077049224, 0.77929607189742, 8.16189188771522, 1.169928757760017
)


@pytest.mark.parametrize(
    "lam,matrix,alpha,gamma",
    [
        (7.7, EDGE_MATRIX, "0.12500", "0.99271"),
        (1e5, DEFAULT_MATRIX, "0.392437", "0.99999946"),
        (1e6, DEFAULT_MATRIX, "0.392456", "0.99999995"),
    ],
)
def test_single_solves_accept_roots_next_to_the_top_edge(lam, matrix, alpha, gamma):
    # these roots sit within a cell of the seed mesh's top edge, where no seed
    # reaches them; the arc's crossing gives them to a single solve
    found = [p for p in solve_qre(lam, matrix=matrix) if p.accepted]
    a_digits, g_digits = len(alpha) - 2, len(gamma) - 2
    rounded = [(f"{p.alpha:.{a_digits}f}", f"{p.gamma:.{g_digits}f}") for p in found]
    assert rounded == [(alpha, gamma)]
    assert qre_objective(lam, found[0].alpha, found[0].gamma, matrix) <= SolverConfig().accept_tol


@pytest.mark.parametrize(
    "lam,matrix,root",
    [
        # roots on the strategy box's edge, outside the box the descents are
        # clipped into: a descent from the edge seed stalls against the clip
        (
            20.0,
            PayoffMatrix(7.522310924928103, 2.3766717366353056, 8.082767460122454, 3.599629019707033),
            (0.5, 1.0),
        ),
        (
            250.0,
            PayoffMatrix(5.175183795670874, 2.0823998390907157, 7.558875063350665, 3.850009831201387),
            (0.0, 0.5),
        ),
        # an interior root off the arc, so steep that the descent ending on it
        # fails the minimum test's absolute gradient bound (1.1e-10)
        (
            1000.0,
            PayoffMatrix(7.266980383610264, 2.854839405234877, 9.028734034394049, 4.977684710974585),
            (0.5695434927397625, 0.9991584627254869),
        ),
    ],
)
def test_roots_the_arc_does_not_reach_are_accepted(lam, matrix, root):
    found = [p for p in solve_qre(lam, matrix=matrix) if p.accepted]
    near = [p for p in found if max(abs(p.alpha - root[0]), abs(p.gamma - root[1])) <= 1e-12]
    assert len(near) == 1
    assert qre_objective(lam, near[0].alpha, near[0].gamma, matrix) <= SolverConfig().accept_tol


def test_a_descent_stalled_against_the_clip_is_no_root():
    # next to the degenerate corner (0, 1) the descent from the seed (0.0375,
    # 0.95) stops on the clipped edge at (2.6e-9, 1 - CLAMP_EPS) with F = 1e-18
    matrix = PayoffMatrix(4.871996778916673, 3.9400092772168067, 6.314380700510172, 4.630547701367358)
    points = solve_qre(250.0, matrix=matrix)
    assert [(round(p.alpha, 4), round(p.gamma, 4)) for p in points if p.accepted] == [
        (0.0, 0.5),
        (0.0942, 0.9992),
    ]
    assert not any({p.alpha, p.gamma} & {CLAMP_EPS, 1.0 - CLAMP_EPS} for p in points)


def test_crossings_just_below_the_fold_are_exact_roots_before_it():
    # lambda is quadratic in arclength at the fold, so the two roots of a
    # level delta below it sit about sqrt(delta) apart on either side; the
    # first crossing must be the one before the fold, polished to an exact root
    z, lams, folds = _trace_arc(DEFAULT_MATRIX)
    top, gamma_top = lams[folds[0]], _logistic(1.0, z[folds[0]])[1]
    deltas = [10.0**-k for k in range(3, 10)]
    _, gamma, objective, jumps = _first(_crossings([top - d for d in deltas], DEFAULT_MATRIX))
    assert jumps == []
    for d, g, f in zip(deltas, gamma, objective):
        print(f"delta={d:.0e}: gamma - gamma_fold = {g - gamma_top:.3e}, objective {f:.1e}")
        assert f <= 1e-20
        assert -3.0 * math.sqrt(d / 1e-3) * 2.63e-3 <= g - gamma_top <= -math.sqrt(d / 1e-3) * 2.63e-3 / 3.0


def test_descents_find_the_roots_off_the_first_crossing(monkeypatch):
    # with every crossing but each level's first taken away, the descents from
    # the objective mesh alone must still give the other accepted roots
    lams = [5.5, 7.09, 9.6, 9.62]
    want = [[(p.alpha, p.gamma) for p in solve_qre(lam) if p.accepted] for lam in lams]
    crossings = pdqre.qre._crossings

    def first_only(levels, matrix):
        level, alpha, gamma, objective, passed = crossings(levels, matrix)
        first = np.flatnonzero(np.diff(level, prepend=-1))
        return level[first], alpha[first], gamma[first], objective[first], passed

    monkeypatch.setattr(pdqre.qre, "_crossings", first_only)
    for lam, roots in zip(lams, want):
        assert len(roots) > 1, lam
        got = [(p.alpha, p.gamma) for p in solve_qre(lam) if p.accepted]
        assert len(got) == len(roots), lam
        for point, root in zip(got, roots):
            assert point == pytest.approx(root, abs=1e-11), lam


@pytest.mark.parametrize(
    "matrix", [DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7.0)], ids=["default", "t7"]
)
def test_each_crossing_is_polished_once_and_nothing_else(monkeypatch, matrix):
    # a descent that ends on a root is accepted as it ends: the only elements
    # the Newton polish sees are the arc's crossings
    grid = [5.5, 7.09, 9.6, 9.62, 20.0, 100.0]
    n_crossings = len(_crossings(grid, matrix)[0])
    polish, polished = pdqre.qre._newton_polish, []

    def spy(lam, alpha, gamma, matrix):
        polished.append(lam.size)
        return polish(lam, alpha, gamma, matrix)

    monkeypatch.setattr(pdqre.qre, "_newton_polish", spy)
    sweep_lambda(grid, matrix=matrix)
    assert sum(polished) == n_crossings


@pytest.mark.parametrize(
    "matrix", [DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7.0)], ids=["default", "t7"]
)
def test_every_crossing_of_h_on_a_logit_mesh_lies_on_the_traced_arc(matrix):
    # H's sign changes between neighbours of an 801^2 mesh over the box in
    # logit coordinates, the strategy clipped as the trace clips it.  On H = 0
    # lambda = x/gap_alpha = y/gap_gamma, so an edge where x*gap_alpha or
    # y*gap_gamma is negative at both ends lies on a negative-lambda branch,
    # past a pole of lambda, and is skipped; every other edge must lie within
    # one mesh step of the traced polyline.
    axis = np.linspace(math.log(CLAMP_EPS), -math.log(CLAMP_EPS), 801)
    step = axis[1] - axis[0]
    x, y = np.meshgrid(axis, axis, indexing="ij")
    a, g = (np.clip(_logistic(1.0, v), CLAMP_EPS, 1.0 - CLAMP_EPS) for v in (x, y))
    u = _conditional_utilities(a, g, matrix)
    gap_a, gap_g = u[1] - u[0], u[3] - u[2]
    h, lam_a, lam_g = x * gap_g - y * gap_a, x * gap_a >= 0.0, y * gap_g >= 0.0
    mids, edges = [], (
        ((slice(-1), slice(None)), (slice(1, None), slice(None))),  # along x
        ((slice(None), slice(-1)), (slice(None), slice(1, None))),  # along y
    )
    for lo, hi in edges:
        kept = (h[lo] * h[hi] < 0.0) & (lam_a[lo] | lam_a[hi]) & (lam_g[lo] | lam_g[hi])
        mids.append(np.stack([0.5 * (v[lo] + v[hi])[kept] for v in (x, y)], axis=1))
    mids = np.concatenate(mids)
    z = _trace_arc(matrix)[0]
    start, chord = z[:-1], np.diff(z, axis=0)
    t = ((mids[:, None] - start) * chord).sum(2) / np.maximum((chord * chord).sum(1), 1e-300)
    foot = start + np.clip(t, 0.0, 1.0)[..., None] * chord
    apart = np.sqrt(((mids[:, None] - foot) ** 2).sum(2)).min(1)
    print(f"{len(mids)} edges, farthest from the arc {apart.max():.4f} (mesh step {step:.4f})")
    assert len(mids) > 400
    assert apart.max() <= step


@settings(max_examples=25, deadline=None)
@given(
    sucker=st.floats(-2.0, 4.0),
    gaps=st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3),
)
@example(sucker=0.0, gaps=[1.0, 4.0, 5.0])
# P - S = T - R: past lambda 1e8 the arc runs into points where both gaps vanish
# and lambda reads -0; the trace stops there instead of bisecting a "fold" to -1e14
@example(
    sucker=1.6557120039927369, gaps=[1.6557120039927369, 2.121363557769396, 1.6557120039927369]
)
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
    z, lams, _ = _trace_arc(matrix)
    assert lams[-1] == math.inf and lams[:-1].max() > grid[-1]  # the arc reached past the grid
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
    _, lams, _ = _trace_arc(matrix)
    assert all(b <= 1.0 + 2.0 * a + 1e-9 for a, b in zip(lams[:-2], lams[1:-1]) if b > a)
    level, alpha, gamma, objective, _ = _crossings(grid, matrix)
    assert max(objective) <= SolverConfig().accept_tol
    assert max(qre_objective(grid[k], *x, matrix) for k, *x in zip(level, alpha, gamma)) <= 1e-20
