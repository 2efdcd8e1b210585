"""Oracles for the closed-form derivative paths of the QRE solver.

The solver's Newton polish and its Newton descent on the objective use
closed-form first and second derivatives of sigma and of the objective.
Here they are checked against central differences of the compositional
payoff route, the stacked kernel and its one-call line searches bit for bit
against the per-substitution kernel and halving loops they replaced
(``scalar_route``), and the descent's results against a test-local copy of
the derivative-free Nelder-Mead search it replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scalar_route
from scalar_route import _dedupe, clamped, sigma_scalar
from scipy.optimize import minimize

from pdqre.game import DEFAULT_MATRIX, PayoffMatrix
from pdqre.qre import (
    CLAMP_EPS,
    SolverConfig,
    _arc_frame,
    _degenerate_mask,
    _descend,
    _gap_gradients,
    _newton_polish,
    _objective_derivatives,
    _seeds,
    _sigma_derivatives,
    _sigma_vec,
    conditional_payoffs,
    conditional_payoffs_compositional,
    logit_response,
    qre_objective,
    solve_qre,
)

OTHER_MATRIX = PayoffMatrix(reward_cc=4.0, sucker_cd=-1.5, temptation_dc=7.0, punishment_dd=0.5)


def _oracle_values(lam, alpha, gamma, matrix):
    """(sigma_alpha, sigma_gamma, F) from the compositional payoffs and the logit response."""
    u = conditional_payoffs_compositional(alpha, gamma, matrix)
    sa = logit_response(lam, u.u_alpha1, u.u_alpha0)
    sg = logit_response(lam, u.u_gamma1, u.u_gamma0)
    return np.array([sa, sg, (sa - alpha) ** 2 + (sg - gamma) ** 2])


def _central_differences(fun, alpha, gamma, h):
    """Gradient columns (a, g) and Hessian columns (aa, ag, gg) of a vector function."""

    def at(i, j):
        return fun(alpha + i * h, gamma + j * h)

    grad = np.column_stack([(at(1, 0) - at(-1, 0)) / (2 * h), (at(0, 1) - at(0, -1)) / (2 * h)])
    hess = np.column_stack(
        [
            (at(2, 0) - 2 * at(0, 0) + at(-2, 0)) / (4 * h * h),
            (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h),
            (at(0, 2) - 2 * at(0, 0) + at(0, -2)) / (4 * h * h),
        ]
    )
    return grad, hess


def _scaled_error(got, want):
    """Largest per-row deviation, relative to 1 + the row's largest reference entry."""
    return float(np.max(np.max(np.abs(got - want), axis=1) / (1.0 + np.max(np.abs(want), axis=1))))


@pytest.mark.parametrize("matrix", [DEFAULT_MATRIX, OTHER_MATRIX], ids=["default", "other"])
@settings(max_examples=120, deadline=None)
@given(
    lam=st.floats(0.0, 100.0),
    alpha=st.floats(0.001, 0.999),
    gamma=st.floats(0.001, 0.999),
)
# no plain central difference on the ladder is within 1e-3 of this Hessian
@example(lam=70.21875, alpha=0.001, gamma=0.664321550777603)
def test_closed_form_derivatives_match_central_differences(matrix, lam, alpha, gamma):
    # away from the degenerate corners (0, 1) and (1, 0), where the oracle raises
    assume(max(alpha, 1.0 - gamma) >= 0.05 and max(1.0 - alpha, gamma) >= 0.05)
    _, rows, sigma_hessians = _sigma_derivatives(lam, alpha, gamma, matrix)
    f, grad_f, hess_f = _objective_derivatives(lam, alpha, gamma, matrix)
    grad = np.array([rows[0], rows[1], grad_f])
    hess = np.array([sigma_hessians[0], sigma_hessians[1], hess_f])
    assert f == pytest.approx(_oracle_values(lam, alpha, gamma, matrix)[2], abs=1e-12)

    # Truncation error falls with the step and rounding error grows, so the
    # best step of a ladder is compared; a wrong formula matches at none.
    # Each rung is a Richardson pair: central differences at h and h/2 have
    # errors c*h^2 and c*h^2/4, so (4*D(h/2) - D(h))/3 cancels that term,
    # which at large lambda*gradient is too big for any plain step.
    grad_err, hess_err = math.inf, math.inf
    for h in (5e-4, 5e-5, 5e-6, 5e-7):
        (grad_h, hess_h), (grad_h2, hess_h2) = (
            _central_differences(
                lambda a, g: _oracle_values(lam, a, g, matrix), alpha, gamma, step / (1.0 + lam)
            )
            for step in (h, h / 2.0)
        )
        grad_err = min(grad_err, _scaled_error(grad, (4.0 * grad_h2 - grad_h) / 3.0))
        hess_err = min(hess_err, _scaled_error(hess, (4.0 * hess_h2 - hess_h) / 3.0))
    assert grad_err <= 1e-6
    assert hess_err <= 1e-3


@pytest.mark.parametrize(
    "matrix", [DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7.0)], ids=["default", "t7"]
)
@settings(max_examples=150, deadline=None)
@given(
    lam=st.floats(0.0, 100.0),
    alpha=st.floats(0.001, 0.999),
    gamma=st.floats(0.001, 0.999),
)
def test_jacobian_only_route_matches_full_derivatives_bitwise(matrix, lam, alpha, gamma):
    # Newton polish asks for the Jacobian alone and passes in the sigma it priced
    sigma, rows, hessians = _sigma_derivatives(lam, alpha, gamma, matrix)
    priced = _sigma_vec(lam, alpha, gamma, matrix)
    got_sigma, got_rows, got_hessians = _sigma_derivatives(
        lam, alpha, gamma, matrix, priced, hessians=False
    )
    assert got_hessians is None and len(hessians) == 2
    # bit patterns, so that -0.0 against 0.0 or a NaN would count as a difference
    for want, got in ((sigma, got_sigma), (rows, got_rows)):
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


@st.composite
def _pd_matrices(draw):
    """Random prisoner's dilemmas: S < P < R < T with gaps in [0.1, 4]."""
    sucker = draw(st.floats(-2.0, 4.0))
    gaps = [draw(st.floats(0.1, 4.0)) for _ in range(3)]
    punish, reward, tempt = np.cumsum([sucker, *gaps])[1:].tolist()
    return PayoffMatrix(reward, sucker, tempt, punish)


_MATRICES = st.one_of(
    st.just(DEFAULT_MATRIX), st.just(PayoffMatrix(temptation_dc=7.0)), _pd_matrices()
)


def _same_bits(got, want, corner=False):
    """Arrays equal byte for byte, NaN payloads and -0.0 against 0.0 included.

    At a ``corner`` point, where a substituted chain is degenerate and 0/0
    makes NaNs, a NaN only has to meet a NaN: numpy does not fix which
    operand's NaN an operation passes on, and its loops for broadcast and for
    contiguous operands differ there.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if np.any(corner):
        got, want = (np.where(corner & np.isnan(v), np.nan, v) for v in (got, want))
    assert got.tobytes() == want.tobytes()


def _points(rng, size):
    """Arrays (lam, alpha, gamma).

    lam is uniform in [0, 1e5] or log-uniform in [1e-2, 1e5], and one in
    seven is 0, 1e5 or 1e308.  A point is uniform in the box, a node of the
    seed mesh (edges and corners included) or within 1e-2 of an edge.
    """
    lam = np.where(
        rng.random(size) < 0.5, rng.uniform(0.0, 1e5, size), 10.0 ** rng.uniform(-2, 5, size)
    )
    lam = np.where(rng.random(size) < 0.15, rng.choice([0.0, 1e5, 1e308], size), lam)
    uniform = rng.uniform(0.0, 1.0, (2, size))
    mesh = rng.integers(0, 81, (2, size)) / 80.0
    offset = rng.choice([-1.0, 1.0], (2, size)) * 10.0 ** rng.uniform(-12, -2, (2, size))
    near = rng.choice([0.0, 1.0], (2, size)) + offset
    kind = rng.integers(0, 3, size)
    x = np.clip(np.where(kind == 0, uniform, np.where(kind == 1, mesh, near)), 0.0, 1.0)
    return lam, x[0].copy(), x[1].copy()


@settings(max_examples=40, deadline=None)
@given(matrix=_MATRICES, size=st.sampled_from([1, 40, 1000]), seed=st.integers(0, 2**32 - 1))
@example(matrix=DEFAULT_MATRIX, size=1500, seed=6)  # NaNs of other signs at corners
def test_stacked_kernel_matches_the_per_substitution_oracle_bitwise(matrix, size, seed):
    # every element keeps the replaced kernel's float operations in their order,
    # so sigma, the derivatives, both line searches and the clipped-trial counts
    # agree to the bit; 1,000 points span two KERNEL_BLOCKs
    lam, alpha, gamma = _points(np.random.default_rng(seed), size)
    corner = _degenerate_mask(alpha, gamma)
    with np.errstate(all="ignore"):
        sigma = _sigma_vec(lam, alpha, gamma, matrix)
        _same_bits(sigma, scalar_route.sigma_vec(lam, alpha, gamma, matrix), corner)
        want = scalar_route.objective_derivatives(lam, alpha, gamma, matrix)
        for got in (
            _objective_derivatives(lam, alpha, gamma, matrix),
            _objective_derivatives(lam, alpha, gamma, matrix, sigma),
        ):
            for part, oracle in zip(got, want):
                _same_bits(part, oracle, corner)
    # the polish pulls corners off and the descent clips them: bit for bit throughout
    for got, oracle in zip(
        _newton_polish(lam, alpha, gamma, matrix),
        scalar_route.polish_by_halving(lam, alpha, gamma, matrix),
    ):
        _same_bits(got, oracle)
    for got, oracle in zip(
        _descend(lam, alpha, gamma, matrix),
        scalar_route.descend_by_halving(lam, alpha, gamma, matrix),
    ):
        _same_bits(got, oracle)
    # the float route of the gap gradients, on the solver's box like the arc
    for a, g in np.clip((alpha[:5], gamma[:5]), CLAMP_EPS, 1.0 - CLAMP_EPS).T.tolist():
        (ga, _), (gg, _) = scalar_route.gap_derivatives(a, g, matrix, hessians=False)
        assert _gap_gradients(a, g, matrix) == [(ga[0], gg[0]), (ga[1], gg[1])]


@pytest.mark.parametrize(
    "matrix", [DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7)], ids=["default", "int7"]
)
def test_float_callers_stay_on_python_floats(matrix):
    # the arc is traced on Python floats: numpy scalars would make a frame
    # several times slower
    h, grad, lam, dlam, point = _arc_frame((0.3, -1.2), matrix)
    assert all(type(v) is float for v in (h, *grad, lam, dlam, *point))
    assert all(type(v) is float for g in _gap_gradients(0.3, 0.6, matrix) for v in g)
    payoffs = conditional_payoffs(0.3, 0.6, matrix)
    assert all(type(v) is float for v in vars(payoffs).values())
    assert type(qre_objective(2.0, 0.3, 0.6, matrix)) is float


# --- the Nelder-Mead route the descent replaced, kept as the reference -----


def _objective_safe(lam, alpha, gamma, matrix):
    alpha, gamma, _ = clamped(alpha, gamma)
    return qre_objective(lam, alpha, gamma, matrix)


def _fd_newton_polish(lam, x0, matrix, max_iter=14):
    """Newton on sigma(x) - x with an h = 1e-7 central-difference Jacobian."""
    a, g, _ = clamped(x0[0], x0[1])
    h = 1e-7

    def resid(a, g):
        sa, sg = sigma_scalar(lam, a, g, matrix)
        return sa - a, sg - g

    ra, rg = resid(a, g)
    f_cur = ra * ra + rg * rg
    for _ in range(max_iter):
        if f_cur < 1e-28:
            break
        j = np.empty((2, 2))
        for col, (da, dg) in enumerate(((h, 0.0), (0.0, h))):
            hi_a, hi_g = min(a + da, 1.0), min(g + dg, 1.0)
            lo_a, lo_g = max(a - da, 0.0), max(g - dg, 0.0)
            sp = sigma_scalar(lam, hi_a, hi_g, matrix)
            sm = sigma_scalar(lam, lo_a, lo_g, matrix)
            scale = (hi_a - lo_a) if col == 0 else (hi_g - lo_g)
            j[0, col] = (sp[0] - sm[0]) / scale
            j[1, col] = (sp[1] - sm[1]) / scale
        j -= np.eye(2)
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        if abs(det) < 1e-14:
            break
        step_a = (-ra * j[1, 1] + rg * j[0, 1]) / det
        step_g = (-rg * j[0, 0] + ra * j[1, 0]) / det
        t = 1.0
        while t >= 1.0 / 16.0:
            na = min(max(a + t * step_a, CLAMP_EPS), 1.0 - CLAMP_EPS)
            ng = min(max(g + t * step_g, CLAMP_EPS), 1.0 - CLAMP_EPS)
            nra, nrg = resid(na, ng)
            nf = nra * nra + nrg * nrg
            if nf < f_cur:
                a, g, ra, rg, f_cur = na, ng, nra, nrg, nf
                break
            t *= 0.5
        else:
            break
    return float(a), float(g), float(f_cur)


def _is_local_min(lam, alpha, gamma, f0, matrix, h=1e-5):
    """Probe the 8 clipped neighbours of a point for a lower objective."""
    for da in (-h, 0.0, h):
        for dg in (-h, 0.0, h):
            na = min(max(alpha + da, 0.0), 1.0)
            ng = min(max(gamma + dg, 0.0), 1.0)
            if (na, ng) == (alpha, gamma):
                continue
            if _objective_safe(lam, na, ng, matrix) < f0 - 1e-12:
                return False
    return True


def _nelder_mead(lam, seed, matrix):
    x, ok = seed, False
    for _ in range(2):
        r = minimize(
            lambda z: _objective_safe(lam, z[0], z[1], matrix),
            x,
            method="Nelder-Mead",
            bounds=[(0.0, 1.0), (0.0, 1.0)],
            options={"xatol": 1e-9, "fatol": 1e-14, "maxfev": 800},
        )
        x, ok = (float(r.x[0]), float(r.x[1])), bool(r.success)
        if ok:
            break
    return x[0], x[1], float(r.fun), ok


def _nelder_mead_route(lam, matrix=DEFAULT_MATRIX):
    """Accepted points and candidates of a solve whose local search is Nelder-Mead."""
    cfg = SolverConfig()
    exact, cands = [], []
    for seed in _seeds(lam, cfg, matrix):
        na, ng, nf = _fd_newton_polish(lam, seed, matrix)
        if nf < cfg.accept_tol:
            exact.append((na, ng, nf))
            if max(abs(na - seed[0]), abs(ng - seed[1])) <= 0.05:
                continue
        ma, mg, mf, ok = _nelder_mead(lam, seed, matrix)
        na, ng, nf = _fd_newton_polish(lam, (ma, mg), matrix)
        moved = max(abs(na - ma), abs(ng - mg))
        if nf < cfg.accept_tol and moved <= cfg.merge_tol:
            exact.append((na, ng, nf))
        elif not ok:
            continue
        elif nf < cfg.accept_tol:
            exact.append((na, ng, nf))
            cands.append((ma, mg, mf))
        elif mf <= nf or moved > cfg.merge_tol:
            cands.append((ma, mg, mf))
        else:
            cands.append((na, ng, nf))
    exact = _dedupe(exact, cfg.merge_tol)
    cands = [
        c
        for c in _dedupe(cands, cfg.merge_tol)
        if c[2] < cfg.candidate_ceiling
        and all(max(abs(c[0] - e[0]), abs(c[1] - e[1])) > cfg.merge_tol for e in exact)
        and _is_local_min(lam, c[0], c[1], c[2], matrix)
    ]
    return sorted(exact), sorted(cands)


@pytest.mark.parametrize("lam", [0.5, 2.0, 4.0, 5.5, 7.0, 9.6, 9.7, 20.0, 100.0])
def test_descent_finds_what_nelder_mead_found(lam):
    want_exact, want_cands = _nelder_mead_route(lam)
    points = solve_qre(lam)
    exact = [(p.alpha, p.gamma) for p in points if p.accepted]
    cands = [(p.alpha, p.gamma, p.objective) for p in points if not p.accepted]
    print(f"lambda={lam:g}: accepted={exact} candidates={cands}")
    assert len(exact) == len(want_exact)
    for (a, g), (wa, wg, _) in zip(exact, want_exact):
        assert max(abs(a - wa), abs(g - wg)) <= 1e-9
    assert len(cands) == len(want_cands)
    for got, want in zip(cands, want_cands):
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-6


def test_extra_candidate_is_a_strict_local_minimum():
    # At lambda = 7.09 the descent reports the defect-regime candidate one
    # grid step before Nelder-Mead did; the neighbour probe confirms it.
    lam = 7.09
    _, nelder_mead_cands = _nelder_mead_route(lam)
    extra = [p for p in solve_qre(lam) if not p.accepted]
    assert nelder_mead_cands == []
    assert len(extra) == 1
    p = extra[0]
    print(f"lambda={lam:g}: ({p.alpha:.6f}, {p.gamma:.6f}) objective={p.objective:.4e}")
    assert (p.alpha, p.gamma) == pytest.approx((0.13681, 0.21432), abs=1e-5)
    assert _is_local_min(lam, p.alpha, p.gamma, p.objective, DEFAULT_MATRIX)


def test_descent_does_not_report_a_saddle():
    # Plain Newton on grad F = 0 from between the root and the candidate of
    # lambda = 4 lands on the saddle that separates their basins.
    lam, (a, g) = 4.0, (0.25, 0.7)
    for _ in range(30):
        _, grad, (h_aa, h_ag, h_gg) = _objective_derivatives(lam, a, g, DEFAULT_MATRIX)
        step = np.linalg.solve([[h_aa, h_ag], [h_ag, h_gg]], [-grad[0], -grad[1]])
        a, g = a + step[0], g + step[1]
    f, grad, (h_aa, h_ag, h_gg) = _objective_derivatives(lam, a, g, DEFAULT_MATRIX)
    assert max(map(abs, grad)) < 1e-12
    assert h_aa * h_gg - h_ag * h_ag < 0.0  # indefinite: a saddle
    assert 0.0 < f < SolverConfig().candidate_ceiling
    is_min = _descend(np.array([lam]), np.array([a]), np.array([g]), DEFAULT_MATRIX)[3]
    assert is_min.tolist() == [False]
    candidates = [p for p in solve_qre(lam) if not p.accepted]
    assert all(max(abs(p.alpha - a), abs(p.gamma - g)) > 1e-3 for p in candidates)
