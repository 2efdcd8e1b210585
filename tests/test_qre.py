"""QRE solver tests: conditional payoffs, solver anchors, sweeps, intersections."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scalar_route import _dedupe, collect_by_dedupe
from scalar_route import clamped as scalar_clamped
from scipy.special import expit

import pdqre.qre
from pdqre.game import DEFAULT_MATRIX, DegenerateChain, PayoffMatrix
from pdqre.nash import stationarity_curve_residual
from pdqre.qre import (
    CLAMP_EPS,
    DEFECT_THRESHOLD,
    NEARNASH_THRESHOLD,
    NoSolution,
    QrePoint,
    SolverConfig,
    _collect,
    _crossings,
    _degenerate_mask,
    _logistic,
    _mesh,
    _mesh_objective,
    _price_nodes,
    _seeds,
    _sigma_vec,
    conditional_payoffs,
    conditional_payoffs_compositional,
    find_intersections,
    label_branch,
    logit_response,
    objective_grid,
    qre_objective,
    solve_qre,
    sweep_lambda,
)


def test_conditional_payoffs_match_compositional_oracle():
    rng = np.random.default_rng(42)
    for _ in range(500):
        a, g = rng.random(2)
        try:
            closed = conditional_payoffs(a, g)
        except DegenerateChain:
            continue
        oracle = conditional_payoffs_compositional(a, g)
        assert closed.u_alpha0 == pytest.approx(oracle.u_alpha0, abs=1e-12)
        assert closed.u_alpha1 == pytest.approx(oracle.u_alpha1, abs=1e-12)
        assert closed.u_gamma0 == pytest.approx(oracle.u_gamma0, abs=1e-12)
        assert closed.u_gamma1 == pytest.approx(oracle.u_gamma1, abs=1e-12)


def test_conditional_payoffs_against_all_defect():
    # opponent (0, 0) never cooperates, so only the alpha=1 column feels it
    u = conditional_payoffs(0.0, 0.0)
    assert u.u_alpha0 == pytest.approx(1.0, abs=1e-14)
    assert u.u_alpha1 == pytest.approx(0.0, abs=1e-14)
    assert u.u_gamma0 == pytest.approx(1.0, abs=1e-14)
    assert u.u_gamma1 == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("alpha,gamma", [(0.0, 1.0), (1.0, 0.0)])
def test_conditional_payoffs_degenerate_corners(alpha, gamma):
    with pytest.raises(DegenerateChain):
        conditional_payoffs(alpha, gamma)


@pytest.mark.parametrize("alpha,gamma", [(0.0, 0.0), (1.0, 1.0)])
def test_conditional_payoffs_fine_at_diagonal_corners(alpha, gamma):
    u = conditional_payoffs(alpha, gamma)
    for value in (u.u_alpha0, u.u_alpha1, u.u_gamma0, u.u_gamma1):
        assert math.isfinite(value)


def test_logit_response_basics():
    assert logit_response(0.0, 3.0, -5.0) == pytest.approx(0.5, abs=1e-15)
    assert logit_response(2.0, 1.0, 0.0) == pytest.approx(
        1.0 / (1.0 + math.exp(-2.0)), abs=1e-15
    )
    assert logit_response(1e4, 1.0, 0.0) > 0.999
    with pytest.raises(ValueError):
        logit_response(-1.0, 1.0, 0.0)


def test_objective_zero_only_at_fixed_point_for_lambda_zero():
    assert qre_objective(0.0, 0.5, 0.5) == pytest.approx(0.0, abs=1e-16)
    assert qre_objective(0.0, 0.3, 0.7) > 1e-3


def test_solve_rejects_negative_rationality():
    with pytest.raises(ValueError):
        solve_qre(-0.5)


def test_solve_lambda_zero_unique_midpoint():
    pts = solve_qre(0.0)
    assert len(pts) == 1
    p = pts[0]
    assert p.accepted
    assert p.alpha == pytest.approx(0.5, abs=1e-12)
    assert p.gamma == pytest.approx(0.5, abs=1e-12)
    assert p.objective <= 1e-12
    assert p.start_count == 1  # the one objective-mesh minimum sits on the midpoint


ANCHORS = {
    1.0: (0.273972, 0.390171),
    2.0: (0.220022, 0.395503),
    4.0: (0.197874, 0.431775),
}


@pytest.mark.parametrize("lam", sorted(ANCHORS))
def test_solver_anchor_points(lam):
    pts = [p for p in solve_qre(lam) if p.accepted]
    assert len(pts) == 1
    a_want, g_want = ANCHORS[lam]
    assert pts[0].alpha == pytest.approx(a_want, abs=1e-5)
    assert pts[0].gamma == pytest.approx(g_want, abs=1e-5)
    # accepted points satisfy the fixed-point equations themselves
    assert pts[0].objective < 1e-12


def test_candidate_local_minimum_reported_at_lambda_four():
    pts = solve_qre(4.0)
    cands = [p for p in pts if not p.accepted]
    assert cands, "expected the positive-objective local minimum to be reported"
    near = [p for p in cands if abs(p.alpha - 0.3003) < 5e-3 and abs(p.gamma - 0.9406) < 5e-3]
    assert near
    assert 0.0 < near[0].objective < 0.05
    accepted_first = [p.accepted for p in pts]
    assert accepted_first == sorted(accepted_first, reverse=True)


def test_candidates_can_be_disabled():
    cfg = SolverConfig(include_candidates=False)
    pts = solve_qre(4.0, cfg)
    assert all(p.accepted for p in pts)


def test_solver_is_deterministic():
    a = solve_qre(1.5)
    b = solve_qre(1.5)
    assert [(p.alpha, p.gamma, p.objective) for p in a] == [
        (p.alpha, p.gamma, p.objective) for p in b
    ]


def test_no_solution_carries_candidates():
    cfg = SolverConfig(accept_tol=0.0)
    with pytest.raises(NoSolution) as info:
        solve_qre(1.0, cfg)
    err = info.value
    assert err.lam == 1.0
    assert err.candidates
    best = min(err.candidates, key=lambda p: p.objective)
    assert best.objective < 1e-12  # the root is still there, just unacceptable
    assert not best.accepted


def test_sweep_smooth_segment():
    # step 0.05 keeps genuine motion well under the continuity tolerance
    sweep = sweep_lambda([0.05 * k for k in range(41)])
    assert len(sweep.main_branch) == 41
    assert sweep.no_solution == []
    assert sweep.discontinuities == []
    assert sweep.transition_lambda is None
    assert all(p.branch == "smooth" for p in sweep.points)
    lams = [p.lam for p in sweep.main_branch]
    assert lams == sorted(lams)
    for p, q in zip(sweep.main_branch, sweep.main_branch[1:]):
        assert max(abs(p.alpha - q.alpha), abs(p.gamma - q.gamma)) < 0.05


def test_sweep_jumps_are_folds_not_fast_motion():
    # The main branch moves fast at low rationality, but a jump is a fold of
    # the arc: a coarse grid over [0, 1] has none, and a step across the
    # upper fold near lambda 9.62 has one, at the first grid point past it.
    coarse = sweep_lambda([0.0, 0.5, 1.0])
    assert coarse.discontinuities == []
    assert coarse.no_solution == []
    assert len(coarse.main_branch) == 3
    assert sweep_lambda([9.6, 9.7]).discontinuities == [9.7]


def test_sweep_rejects_descending_grid():
    with pytest.raises(ValueError):
        sweep_lambda([1.0, 0.5])


def test_entry_intersection_refined():
    sweep = sweep_lambda([3.8, 3.85, 3.9, 3.95, 4.0])
    hits = find_intersections(sweep, curve_choice="stationarity")
    entries = [h for h in hits if h.kind == "entry"]
    assert len(entries) == 1
    hit = entries[0]
    assert hit.first
    assert hit.lam == pytest.approx(3.90595, abs=1e-3)
    assert hit.alpha == pytest.approx(0.197973, abs=1e-3)
    assert hit.gamma == pytest.approx(0.429772, abs=1e-3)
    assert abs(hit.residual) == pytest.approx(0.05, abs=1e-4)


def test_crossing_intersection_refined():
    sweep = sweep_lambda([5.5, 5.55, 5.6, 5.65, 5.7, 5.75])
    hits = find_intersections(sweep, curve_choice="stationarity")
    crossings = [h for h in hits if h.kind == "crossing"]
    assert len(crossings) == 1
    hit = crossings[0]
    assert hit.lam == pytest.approx(5.64876, abs=1e-3)
    assert hit.alpha == pytest.approx(0.203233, abs=1e-3)
    assert hit.gamma == pytest.approx(0.470595, abs=1e-3)
    assert abs(hit.residual) < 1e-6
    # the branch is already inside the tolerance band when this sweep starts
    first_events = [h for h in hits if h.first]
    assert len(first_events) == 1
    assert first_events[0].kind == "entry"
    assert first_events[0].lam == pytest.approx(5.5, abs=1e-12)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_intersection_tolerance_must_be_finite_and_positive(tol):
    # an infinite band would report an entry at the first point of every sweep
    sweep = sweep_lambda([3.0, 3.5])
    with pytest.raises(ValueError, match=f"tol must be finite and positive, got {tol}"):
        find_intersections(sweep, tol=tol)


def test_quadratic_curve_never_met_on_smooth_segment():
    sweep = sweep_lambda([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert find_intersections(sweep, curve_choice="quadratic") == []


def test_objective_grid_shapes_and_flags():
    alpha, gamma, f, clamped = objective_grid(0.0, mesh=21)
    assert alpha.shape == gamma.shape == f.shape == clamped.shape == (441,)
    assert np.isfinite(f).all()
    assert clamped.sum() == 2  # exactly the two degenerate corners
    flagged = {(round(a, 6), round(g, 6)) for a, g in zip(alpha[clamped], gamma[clamped])}
    assert flagged == {(0.0, 1.0), (1.0, 0.0)}
    best = np.argmin(f)
    assert alpha[best] == pytest.approx(0.5, abs=1e-12)
    assert gamma[best] == pytest.approx(0.5, abs=1e-12)


def _mask_probe_points():
    """A 101^2 mesh, the four corners, both diagonals, and points that
    straddle the degeneracy threshold next to the (0, 1) and (1, 0) corners."""
    axis = np.linspace(0.0, 1.0, 101)
    ga, gg = np.meshgrid(axis, axis, indexing="ij")
    t = np.linspace(0.0, 1.0, 257)
    near = np.array([5e-10, 1e-9, 2e-9, 1e-8])
    alpha = np.concatenate([ga.ravel(), [0.0, 0.0, 1.0, 1.0], t, t, near, 1.0 - near])
    gamma = np.concatenate([gg.ravel(), [0.0, 1.0, 0.0, 1.0], t, 1.0 - t, 1.0 - near, near])
    return alpha, gamma


def test_degenerate_mask_matches_scalar_clamp_flag():
    alpha, gamma = _mask_probe_points()
    mask = _degenerate_mask(alpha, gamma)
    flags = np.array([scalar_clamped(a, g)[2] for a, g in zip(alpha, gamma)])
    assert mask.dtype == bool
    assert np.array_equal(mask, flags)
    assert 4 < mask.sum() < mask.size  # both outcomes are exercised


def test_objective_grid_equals_per_cell_clamp_route():
    # The per-cell loop the vectorized mask replaced, kept as the reference.
    # The mesh spans several blocks of objective_grid and a partial last one.
    lam, mesh = 7.2, 201
    assert mesh * mesh > 2 * pdqre.qre.MESH_BLOCK and mesh * mesh % pdqre.qre.MESH_BLOCK
    axis = np.linspace(0.0, 1.0, mesh)
    ga, gg = np.meshgrid(axis, axis, indexing="ij")
    a = ga.ravel().copy()
    g = gg.ravel().copy()
    flags = np.zeros(a.shape, dtype=bool)
    for i in range(a.shape[0]):
        a[i], g[i], flags[i] = scalar_clamped(a[i], g[i])
    sa, sg = _sigma_vec(lam, a, g, DEFAULT_MATRIX)
    f_ref = (sa - a) ** 2 + (sg - g) ** 2

    alpha, gamma, f, clamped = objective_grid(lam, mesh)
    assert np.array_equal(alpha, ga.ravel())
    assert np.array_equal(gamma, gg.ravel())
    assert np.array_equal(clamped, flags)
    assert np.array_equal(f, f_ref)


@pytest.mark.parametrize("block", [None, 37], ids=["MESH_BLOCK", "block37"])
@pytest.mark.parametrize("matrix", [DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7.0)], ids=["R", "T7"])
@pytest.mark.parametrize("mesh", [2, 3, 201])
@pytest.mark.parametrize("lam", [0.0, 7.2, 1e308])
def test_blocked_objective_grid_has_the_bits_of_the_whole_mesh(monkeypatch, lam, mesh, matrix, block):
    # tobytes, so that a -0.0 in place of 0.0 counts; blocks of 37 nodes leave
    # every kernel a short tail, which numpy's SIMD loops treat on their own
    if block:
        monkeypatch.setattr(pdqre.qre, "MESH_BLOCK", block)
    alpha, gamma = _mesh(mesh)
    priced = _price_nodes(alpha, gamma, matrix)
    want = (alpha, gamma, _mesh_objective(lam, priced), priced[2])
    got = objective_grid(lam, mesh, matrix)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_objective_grid_memory_stays_near_its_outputs():
    # the four outputs of a 1001^2 mesh take 25 MB; pricing the whole mesh at
    # once took about 140 MB, with dozens of mesh-sized temporaries
    tracemalloc.start()
    try:
        objective_grid(7.2, 1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _damped_oracle(lam, steps=300, damping=0.5):
    """Plain damped iteration on the compositional map, one start at (1/2, 1/2)."""
    a = g = 0.5
    for _ in range(steps):
        u = conditional_payoffs_compositional(a, g)
        sa = logit_response(lam, u.u_alpha1, u.u_alpha0)
        sg = logit_response(lam, u.u_gamma1, u.u_gamma0)
        a, g = a + damping * (sa - a), g + damping * (sg - g)
    return a, g


@pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
def test_accepted_point_matches_full_length_damped_oracle(lam):
    a_ref, g_ref = _damped_oracle(lam)
    accepted = [p for p in solve_qre(lam) if p.accepted]
    assert len(accepted) == 1
    assert accepted[0].alpha == pytest.approx(a_ref, abs=1e-10)
    assert accepted[0].gamma == pytest.approx(g_ref, abs=1e-10)


# --- the damped pass and warm starts the mesh seeds replaced, kept as the reference


def _damped_route_seeds(lam, cfg, matrix, warm_starts):
    """Seeds from a damped pass, the objective mesh and warm starts.

    The damped pass steps x <- x + (sigma(x) - x)/2 from a 21 x 21 start grid
    plus the warm starts, clipped into the box, until every start's max-norm
    residual is below 1e-13 or 300 steps have run.  Up to 20 distinct
    converged endpoints, the mesh minima and the warm starts themselves are
    merged at 1e-3 (max-norm).
    """
    axis = np.linspace(0.0, 1.0, 21)
    ga, gg = np.meshgrid(axis, axis, indexing="ij")
    warm = np.reshape(np.asarray(warm_starts, float), (-1, 2))
    starts = np.vstack([np.column_stack([ga.ravel(), gg.ravel()]), warm])
    clamped = _degenerate_mask(starts[:, 0], starts[:, 1])
    starts[clamped] = np.clip(starts[clamped], CLAMP_EPS, 1.0 - CLAMP_EPS)
    a, g = starts[:, 0], starts[:, 1]
    for step in range(301):
        sa, sg = _sigma_vec(lam, a, g, matrix)
        res = np.maximum(np.abs(sa - a), np.abs(sg - g))
        if step == 300 or res.max() < 1e-13:
            break
        a = np.clip(a + 0.5 * (sa - a), CLAMP_EPS, 1.0 - CLAMP_EPS)
        g = np.clip(g + 0.5 * (sg - g), CLAMP_EPS, 1.0 - CLAMP_EPS)
    done = res < 1e-6
    endpoints = _dedupe([(x, y, 0.0) for x, y in zip(a[done], g[done])], 1e-3)
    seeds = [(x, y) for x, y, _ in endpoints[:20]]
    seeds += _seeds(lam, cfg, matrix) + [(float(x), float(y)) for x, y in warm]
    return [(x, y) for x, y, _ in _dedupe([(x, y, 0.0) for x, y in seeds], 1e-3)]


def _damped_route(monkeypatch, lam, matrix, warm_starts=()):
    with monkeypatch.context() as patch:
        patch.setattr(
            pdqre.qre,
            "_seeds",
            lambda lam, cfg, matrix: _damped_route_seeds(lam, cfg, matrix, warm_starts),
        )
        return solve_qre(lam, matrix=matrix)


@pytest.mark.parametrize(
    "matrix", [DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7.0)], ids=["default", "temptation7"]
)
@pytest.mark.parametrize("lam", [0.0, 2.0, 4.0, 5.2, 5.5, 7.09, 9.6, 9.62, 9.7, 20.0, 100.0])
def test_mesh_seeds_find_what_the_damped_pass_and_warm_starts_found(monkeypatch, lam, matrix):
    # warm starts as a 0.01 sweep hands them on from the step below
    warm = [] if lam == 0.0 else [
        (p.alpha, p.gamma) for p in _damped_route(monkeypatch, round(lam - 0.01, 2), matrix)
    ]
    want = _damped_route(monkeypatch, lam, matrix, warm)
    got = solve_qre(lam, matrix=matrix)
    for accepted in (True, False):
        w = [(p.alpha, p.gamma) for p in want if p.accepted is accepted]
        g = [(p.alpha, p.gamma) for p in got if p.accepted is accepted]
        assert len(g) == len(w), (accepted, g, w)
        for (a0, g0), (a1, g1) in zip(g, w):
            assert max(abs(a0 - a1), abs(g0 - g1)) <= 1e-9


def test_sweep_diagnostics_keep_only_the_clamp_counters():
    # the sweep diagnostics go into the report: only the descent's clip count is left
    sweep = sweep_lambda([0.0, 0.5])
    assert set(sweep.diagnostics) == {"clamped_evals"}


@pytest.mark.parametrize(
    "field,value",
    [
        ("accept_tol", -1.0),
        ("accept_tol", math.nan),
        ("accept_tol", math.inf),
        # a merge radius of 0 or less merges nothing, NaN drops every point
        ("merge_tol", 0.0),
        ("merge_tol", -1.0),
        ("merge_tol", math.nan),
        ("merge_tol", math.inf),
        # a NaN or negative ceiling silently drops every candidate
        ("candidate_ceiling", -1.0),
        ("candidate_ceiling", math.nan),
        ("candidate_ceiling", math.inf),
    ],
)
def test_solver_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and"):
        SolverConfig(**{field: value})


def test_solver_config_rejects_an_unknown_curve():
    # caught at construction, not when the first point past the smooth range is labelled
    with pytest.raises(ValueError, match="unknown curve choice 'bogus'"):
        SolverConfig(curve_choice="bogus")


def test_solver_config_accepts_boundary_values():
    cfg = SolverConfig(accept_tol=0.0, merge_tol=5e-324, candidate_ceiling=0.0)
    assert (cfg.accept_tol, cfg.merge_tol, cfg.candidate_ceiling) == (0.0, 5e-324, 0.0)


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_every_entry_point_rejects_bad_rationality(lam):
    with pytest.raises(ValueError, match="rationality"):
        solve_qre(lam)
    with pytest.raises(ValueError, match="rationality"):
        sweep_lambda([0.0, lam])
    with pytest.raises(ValueError, match="rationality"):
        objective_grid(lam, mesh=3)
    with pytest.raises(ValueError, match="rationality"):
        logit_response(lam, 1.0, 0.0)
    with pytest.raises(ValueError, match="rationality"):
        qre_objective(lam, 0.5, 0.5)


@settings(max_examples=300, deadline=None)
@given(
    lam=st.floats(0.0, 100.0),
    alpha=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 1.0),
)
def test_sigma_kernels_agree_and_map_into_the_box(lam, alpha, gamma):
    # away from the degenerate corners (0, 1) and (1, 0), where the oracle raises
    assume(max(alpha, 1.0 - gamma) > 0.05 and max(1.0 - alpha, gamma) > 0.05)
    sa, sg = _sigma_vec(lam, alpha, gamma, DEFAULT_MATRIX)
    assert 0.0 <= sa <= 1.0 and 0.0 <= sg <= 1.0

    u = conditional_payoffs_compositional(alpha, gamma)
    assert sa == pytest.approx(logit_response(lam, u.u_alpha1, u.u_alpha0), abs=1e-12)
    assert sg == pytest.approx(logit_response(lam, u.u_gamma1, u.u_gamma0), abs=1e-12)

    va, vg = _sigma_vec(lam, np.array([alpha]), np.array([gamma]), DEFAULT_MATRIX)
    assert va.shape == vg.shape == (1,)
    assert va[0] == sa and vg[0] == sg


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
# numpy's exp is one ulp low just below 1: the kernel must still give 1/2 here
@example(xs=[1.4e-16, 1.6e-16, -1.4e-16, -3e-16, 0.0, -0.0])
# the edges of saturation: exp overflows, 1 + exp(-x) rounds to 1, subnormal results
@example(xs=[-709.78, -709.79, 36.73, 36.74, -745.0, -709.5, math.inf, -math.inf])
def test_logistic_kernel_matches_scipy_expit(xs):
    x = np.sort(np.array(xs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logistic(1.0, x)
    want = expit(x)
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want)), (x, got - want)
    for exact in (0.0, 0.5, 1.0):
        assert np.all(got[want == exact] == exact), exact
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert np.all(np.diff(got) >= 0.0)


def test_sigma_is_silent_at_the_largest_rationality():
    # lam * gap overflows to +-inf and the response saturates, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, f, _ = objective_grid(1e308, 11)
        with pytest.raises(NoSolution):
            solve_qre(1e308)
    assert np.all(np.isfinite(f))


@settings(max_examples=8, deadline=None)
@given(lam=st.floats(0.0, 20.0))
def test_accepted_points_pass_the_oracle_residual_bound(lam):
    # residual from the compositional payoffs, not from the solver's sigma kernels
    bound = math.sqrt(SolverConfig().accept_tol)
    accepted = [p for p in solve_qre(lam) if p.accepted]
    assert accepted
    for p in accepted:
        u = conditional_payoffs_compositional(p.alpha, p.gamma)
        ra = logit_response(lam, u.u_alpha1, u.u_alpha0) - p.alpha
        rg = logit_response(lam, u.u_gamma1, u.u_gamma0) - p.gamma
        assert math.hypot(ra, rg) <= bound, (p.alpha, p.gamma)


def test_label_branch_uses_the_sweep_matrix():
    # near_nash is judged against the stationarity curve of the matrix in use
    matrix = PayoffMatrix(temptation_dc=7.0)
    cfg = SolverConfig()
    axis = np.linspace(0.0, 1.0, 19)
    labels = {}
    for a in axis:
        for g in axis:
            if max(a, g) < DEFECT_THRESHOLD:
                want = "defect"
            else:
                try:
                    resid = stationarity_curve_residual(a, g, matrix)
                except DegenerateChain:
                    resid = math.inf
                want = "near_nash" if abs(resid) < NEARNASH_THRESHOLD else "other"
            got = label_branch(QrePoint(6.0, a, g, 0.0, True), cfg, matrix)
            assert got == want, (a, g)
            labels[got] = labels.get(got, 0) + 1
    assert set(labels) == {"defect", "near_nash", "other"}


def test_sweep_without_a_root_has_no_main_branch_and_no_events():
    # at accept_tol 0 no objective is low enough: every level is unsolved
    sweep = sweep_lambda([0.0, 1.0, 2.0], SolverConfig(accept_tol=0.0))
    assert sweep.no_solution == [0.0, 1.0, 2.0]
    assert sweep.main_branch == []
    assert sweep.points and not any(p.accepted for p in sweep.points)
    assert find_intersections(sweep) == []


def test_sweep_raises_when_a_level_has_no_crossing(monkeypatch):
    # the parent zipped the levels against the shorter per-level lists and
    # returned the first two levels without a word
    def crossings_without_the_last_level(lams, matrix):
        level, *crossed, passed = _crossings(lams, matrix)
        keep = level < len(lams) - 1
        return level[keep], *(v[keep] for v in crossed), passed[: len(lams) - 1]

    monkeypatch.setattr(pdqre.qre, "_crossings", crossings_without_the_last_level)
    with pytest.raises(ValueError, match="zip"):
        sweep_lambda([0.0, 1.0, 2.0])


def test_extreme_finite_payoffs_still_cross_every_level():
    lams = [0.0, 0.5, 2.0, 10.0, 100.0]
    level, *_ = _crossings(lams, PayoffMatrix(1e308, 0.0, 1e308, -1e308))
    assert set(level.tolist()) == set(range(len(lams)))


def _clustered(crossings, descents, tol):
    """Whether every two results lie within tol/4 or at least 3 tol apart (max-norm)."""
    xy = [r[:2] for r in crossings + descents]
    dists = [max(abs(a - b), abs(g - h)) for i, (a, g) in enumerate(xy) for b, h in xy[:i]]
    return all(d <= tol / 4 or d >= 3 * tol for d in dists)


@st.composite
def _merge_inputs(draw):
    """One level's crossings and descents, in clusters at most merge_tol/4 wide,
    at least 3 merge_tol apart: the regime the solver produces."""
    tol = draw(st.sampled_from([1e-4, 1e-3, 0.02]))
    cfg = SolverConfig(
        accept_tol=draw(st.sampled_from([0.0, 1e-12, 1e-6])),
        merge_tol=tol,
        include_candidates=draw(st.booleans()),
        candidate_ceiling=draw(st.sampled_from([0.0, 0.05, 0.5])),
    )
    cell = st.tuples(st.integers(0, 7), st.integers(0, 7))
    centers = draw(st.lists(cell, min_size=1, max_size=5, unique=True))
    objective = st.sampled_from([0.0, 1e-30, 1e-13, 1e-8, 1e-3, 0.04, 0.06, 0.3])
    offset = st.floats(0.0, tol / 4)
    crossings, descents = [], []
    for i, j in centers:
        for _ in range(draw(st.integers(1, 4))):
            a, g = 0.1 + 4 * tol * i + draw(offset), 0.1 + 4 * tol * j + draw(offset)
            if not crossings or draw(st.booleans()):
                crossings.append((a, g, draw(objective)))
            else:
                descents.append((a, g, draw(objective), draw(st.booleans())))
    return cfg, crossings, descents


_ROOT = (0.5, 0.5, 0.0)
_TWO_MINIMA = [(0.50006, 0.5, 0.01, False), (0.50012, 0.5, 0.02, False)]


@settings(max_examples=300, deadline=None)
@given(inputs=_merge_inputs())
# a minimum 0.6 merge_tol from a root and another 1.2 merge_tol from it: the
# old rule dropped the first with the second folded into it, so it reported
# no candidate; the one pass folds the first into the root and keeps the second
@example(inputs=(SolverConfig(), [_ROOT], _TWO_MINIMA))
# a descent within merge_tol of two roots: the old rule counted it for both
@example(inputs=(SolverConfig(), [_ROOT, (0.50015, 0.5, 0.0)], [(0.500075, 0.5, 0.01, False)]))
def test_collect_merges_clusters_as_the_dedupe_rule_did(inputs):
    cfg, crossings, descents = inputs
    points, main = _collect(1.0, cfg, crossings, descents)
    if _clustered(crossings, descents, cfg.merge_tol):
        assert (points, main) == collect_by_dedupe(1.0, cfg, crossings, descents)
    assert all(
        max(abs(p.alpha - q.alpha), abs(p.gamma - q.gamma)) > cfg.merge_tol
        for i, p in enumerate(points)
        for q in points[:i]
    )
    # with every candidate reported, each descent is counted once
    everything = replace(cfg, include_candidates=True, candidate_ceiling=1.0)
    counted = sum(p.start_count for p in _collect(1.0, everything, crossings, descents)[0])
    assert counted == len(descents)
