"""The per-seed scalar solve that the batched solver replaced, kept as an oracle.

Each seed is polished and, unless the polish settles next to it, descended
one at a time, on Python floats with a ``math.exp`` sigma.  The seeds are
the solver's own; the loop over seeds, the scalar sigma and the scalar
corner clamp live here.

The derivative kernel that the stacked one replaced is kept here too, as the
bitwise oracle of ``qre._sigma_vec``, ``qre._objective_derivatives`` and
``qre._descend``: it prices the four pure-parameter substitutions, and the
two sigma components, one at a time (``conditional_utilities``,
``gap_derivatives``, ``sigma_derivatives``, ``objective_derivatives``), and
its line search (``descend_by_halving``) prices one halving of the pending
steps per call.  The scalar solve differentiates through this kernel.

``polish_by_halving`` is the Newton polish of the arc's crossings that the
Gauss-Newton form of ``qre._descend`` replaced, kept as the reference of that
route.

``seeds_via_objective_grid`` is the seed scan that the memoized seed mesh
replaced: it prices the whole mesh through ``objective_grid`` at every call.

``collect_by_dedupe`` is the merge that the one-pass ``qre._collect``
replaced, with its ``_dedupe``: roots and other minima deduplicated apart,
minima near a root dropped, and every point's ``start_count`` counted over
all descents within ``merge_tol`` of it.
"""

import math

import numpy as np

import pdqre.qre
from pdqre.game import DEGENERACY_THRESHOLD, PayoffMatrix
from pdqre.qre import (
    CLAMP_EPS,
    DESCENT_GRAD_TOL,
    DESCENT_LOCAL_STEP,
    DESCENT_MAX_ITER,
    DESCENT_STEP_TOL,
    QrePoint,
    _conditional_dens,
    _logistic,
    _min_eigenvalue,
    _off_corners,
    _seeds,
    objective_grid,
)

#: Newton steps per polish of the replaced polishes (``polish_by_halving`` and
#: the scalar solve's ``newton_polish``).
POLISH_MAX_ITER = 14

# --- the per-substitution derivative kernel and its halving line searches ---


def conditional_parts(alpha, gamma):
    """Substituted stationary states as (p1, p2) pairs, in ``_conditional_dens`` order."""
    den_a0, den_a1, den_g0, den_g1 = _conditional_dens(alpha, gamma)
    p2_g = alpha - alpha * alpha + alpha * gamma
    return (
        (alpha * gamma / den_a0, alpha / den_a0),
        ((1.0 - alpha + alpha * gamma) / den_a1, gamma / den_a1),
        ((alpha - alpha * alpha) / den_g0, p2_g / den_g0),
        ((2.0 * alpha - alpha * alpha) / den_g1, p2_g / den_g1),
    )


def conditional_utilities(alpha, gamma, matrix: PayoffMatrix):
    """Payoffs of the four substituted states, one ``payoff`` call each."""
    return [matrix.payoff(p1, p2) for p1, p2 in conditional_parts(alpha, gamma)]


#: (p1 numerator, p2 numerator, denominator) of each substitution as the
#: coefficients of c0 + c1*a + c2*g + c3*a*a + c4*a*g + c5*g*g.
PART_COEFFS = (
    ((0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 1, -1)),
    ((1, -1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0), (1, -1, 1, 0, 1, -1)),
    ((0, 1, 0, -1, 0, 0), (0, 1, 0, -1, 1, 0), (1, 0, 0, -1, 1, 0)),
    ((0, 2, 0, -1, 0, 0), (0, 1, 0, -1, 1, 0), (1, 1, -1, -1, 1, 0)),
)


def quadratic(c, a, g):
    """Value, gradient and Hessian (aa, ag, gg) of one ``PART_COEFFS`` row."""
    c0, c1, c2, c3, c4, c5 = c
    value = c0 + a * (c1 + c3 * a + c4 * g) + g * (c2 + c5 * g)
    return value, (c1 + 2.0 * c3 * a + c4 * g, c2 + c4 * a + 2.0 * c5 * g), (2.0 * c3, c4, 2.0 * c5)


def quotient(num, den, hessian):
    """Value, gradient and Hessian (None without ``hessian``) of num/den."""
    n, (n_a, n_g), (n_aa, n_ag, n_gg) = num
    d, (d_a, d_g), (d_aa, d_ag, d_gg) = den
    p = n / d
    p_a = (n_a - p * d_a) / d
    p_g = (n_g - p * d_g) / d
    if not hessian:
        return p, (p_a, p_g), None
    hess = (
        (n_aa - 2.0 * p_a * d_a - p * d_aa) / d,
        (n_ag - p_a * d_g - p_g * d_a - p * d_ag) / d,
        (n_gg - 2.0 * p_g * d_g - p * d_gg) / d,
    )
    return p, (p_a, p_g), hess


def gap_derivatives(alpha, gamma, matrix, hessians):
    """((grad, hess) of u_alpha1 - u_alpha0, (grad, hess) of u_gamma1 - u_gamma0),
    one substitution at a time; each hess is None without ``hessians``."""
    m = matrix
    k = m.reward_cc - m.sucker_cd - m.temptation_dc + m.punishment_dd
    per_state = []
    for coeffs in PART_COEFFS:
        n1, n2, den = (quadratic(c, alpha, gamma) for c in coeffs)
        p1, (p1_a, p1_g), hess1 = quotient(n1, den, hessians)
        p2, (p2_a, p2_g), hess2 = quotient(n2, den, hessians)
        u_1 = m.sucker_cd - m.punishment_dd + k * p2
        u_2 = m.temptation_dc - m.punishment_dd + k * p1
        derivs = (u_1 * p1_a + u_2 * p2_a, u_1 * p1_g + u_2 * p2_g)
        if hessians:
            (p1_aa, p1_ag, p1_gg), (p2_aa, p2_ag, p2_gg) = hess1, hess2
            derivs += (
                u_1 * p1_aa + u_2 * p2_aa + 2.0 * k * p1_a * p2_a,
                u_1 * p1_ag + u_2 * p2_ag + k * (p1_a * p2_g + p1_g * p2_a),
                u_1 * p1_gg + u_2 * p2_gg + 2.0 * k * p1_g * p2_g,
            )
        per_state.append(derivs)
    gaps = []
    for lo, hi in ((0, 1), (2, 3)):
        diff = [x1 - x0 for x0, x1 in zip(per_state[lo], per_state[hi])]
        gaps.append((tuple(diff[:2]), tuple(diff[2:]) if hessians else None))
    return tuple(gaps)


def sigma_vec(lam, alpha, gamma, matrix):
    """(sigma_alpha, sigma_gamma), one logistic call each."""
    u = conditional_utilities(alpha, gamma, matrix)
    return _logistic(lam, u[1] - u[0]), _logistic(lam, u[3] - u[2])


def sigma_derivatives(lam, alpha, gamma, matrix, sigma=None, hessians=True):
    """sigma, the Jacobian rows and each component's Hessian, one component at a time."""
    if sigma is None:
        sigma = sigma_vec(lam, alpha, gamma, matrix)
    rows, hess = [], []
    for s, ((d_a, d_g), gap_hess) in zip(sigma, gap_derivatives(alpha, gamma, matrix, hessians)):
        w = lam * s * (1.0 - s)
        rows.append((w * d_a, w * d_g))
        if hessians:
            d_aa, d_ag, d_gg = gap_hess
            v = lam * w * (1.0 - 2.0 * s)
            hess.append(
                (w * d_aa + v * d_a * d_a, w * d_ag + v * d_a * d_g, w * d_gg + v * d_g * d_g)
            )
    return sigma, rows, hess if hessians else None


def objective_derivatives(lam, alpha, gamma, matrix, sigma=None, gauss_newton=False):
    """F with its gradient and Hessian (aa, ag, gg) as tuples; the ``gauss_newton``
    Hessian leaves out the terms r_i hess(sigma_i)."""
    (sa, sg), (row_a, row_g), (ha, hg) = sigma_derivatives(lam, alpha, gamma, matrix, sigma)
    ra, rg = sa - alpha, sg - gamma
    j00, j01 = row_a[0] - 1.0, row_a[1]
    j10, j11 = row_g[0], row_g[1] - 1.0
    grad = (2.0 * (j00 * ra + j10 * rg), 2.0 * (j01 * ra + j11 * rg))
    hess = [j00 * j00 + j10 * j10, j00 * j01 + j10 * j11, j01 * j01 + j11 * j11]
    if not gauss_newton:
        hess = [h + ra * h_a + rg * h_g for h, h_a, h_g in zip(hess, ha, hg)]
    return ra * ra + rg * rg, grad, tuple(2.0 * h for h in hess)


@np.errstate(all="ignore")
def polish_by_halving(lam, alpha, gamma, matrix):
    """The Newton polish of the arc's crossings that the Gauss-Newton descent
    replaced, with one sigma call per halving of the pending steps: Newton on
    sigma(x) - x from starts pulled off the corners, each step halved until F
    falls, down to 1/16, and an element stopped below F = 1e-28, at a singular
    Jacobian or when no halving helps."""
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    a, g, _ = _off_corners(alpha, gamma)
    sa, sg = sigma_vec(lam, a, g, matrix)
    ra, rg = sa - a, sg - g
    f = ra * ra + rg * rg
    live = np.arange(a.size)
    for _ in range(POLISH_MAX_ITER):
        live = live[~(f[live] < 1e-28)]
        if not live.size:
            break
        _, (row_a, row_g), _ = sigma_derivatives(
            lam[live], a[live], g[live], matrix, (sa[live], sg[live]), hessians=False
        )
        j00, j01 = row_a[0] - 1.0, row_a[1]
        j10, j11 = row_g[0], row_g[1] - 1.0
        det = j00 * j11 - j01 * j10
        step_a = (-ra[live] * j11 + rg[live] * j01) / det
        step_g = (-rg[live] * j00 + ra[live] * j10) / det
        keep = ~(np.abs(det) < 1e-14)
        live, step_a, step_g = live[keep], step_a[keep], step_g[keep]
        pending, t = np.arange(live.size), 1.0
        while t >= 1.0 / 16.0 and pending.size:
            at = live[pending]
            na = np.clip(a[at] + t * step_a[pending], lo, hi)
            ng = np.clip(g[at] + t * step_g[pending], lo, hi)
            nsa, nsg = sigma_vec(lam[at], na, ng, matrix)
            nra, nrg = nsa - na, nsg - ng
            nf = nra * nra + nrg * nrg
            better = nf < f[at]
            at = at[better]
            a[at], g[at], sa[at], sg[at] = na[better], ng[better], nsa[better], nsg[better]
            ra[at], rg[at], f[at] = nra[better], nrg[better], nf[better]
            pending = pending[~better]
            t *= 0.5
        live = np.delete(live, pending)
    return a, g, f


@np.errstate(all="ignore")
def descend_by_halving(lam, alpha, gamma, matrix, gauss_newton=False):
    """``qre._descend`` with one sigma call per halving of the pending steps,
    and sigma priced again at each accepted point."""
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    a, g = np.clip(alpha, lo, hi), np.clip(gamma, lo, hi)
    f, grad, hess = objective_derivatives(lam, a, g, matrix, gauss_newton=gauss_newton)
    grad, hess = np.array(grad), np.array(hess)
    clipped = np.zeros(a.shape, dtype=np.int64)
    live = np.arange(a.size)
    for _ in range(DESCENT_MAX_ITER):
        (g_a, g_g), (h_aa, h_ag, h_gg) = grad[:, live], hess[:, live]
        e_min = _min_eigenvalue((h_aa, h_ag, h_gg))
        unshifted = e_min > 0.0
        mu = np.where(unshifted, 0.0, -2.0 * e_min)
        h_aa, h_gg = h_aa + mu, h_gg + mu
        det = h_aa * h_gg - h_ag * h_ag
        step_a = (-g_a * h_gg + g_g * h_ag) / det
        step_g = (-g_g * h_aa + g_a * h_ag) / det
        size = np.maximum(np.abs(step_a), np.abs(step_g))
        keep = (det > 0.0) & ~(unshifted & (size <= DESCENT_STEP_TOL))
        local = (unshifted & (size <= DESCENT_LOCAL_STEP))[keep]
        live, step_a, step_g = live[keep], step_a[keep], step_g[keep]
        if not live.size:
            break
        pending, t = np.arange(live.size), 1.0
        while t >= 1.0 / 1024.0 and pending.size:
            at = live[pending]
            na = a[at] + t * step_a[pending]
            ng = g[at] + t * step_g[pending]
            inside = (lo <= na) & (na <= hi) & (lo <= ng) & (ng <= hi)
            clipped[at[~inside]] += 1
            na, ng = np.clip(na, lo, hi), np.clip(ng, lo, hi)
            better = local[pending] & inside
            priced = ~better
            sa, sg = sigma_vec(lam[at[priced]], na[priced], ng[priced], matrix)
            better[priced] = (sa - na[priced]) ** 2 + (sg - ng[priced]) ** 2 < f[at[priced]]
            a[at[better]], g[at[better]] = na[better], ng[better]
            pending = pending[~better]
            t *= 0.5
        live = np.delete(live, pending)
        f[live], grad[:, live], hess[:, live] = objective_derivatives(
            lam[live], a[live], g[live], matrix, gauss_newton=gauss_newton
        )
    small = np.abs(grad).max(0) <= DESCENT_GRAD_TOL * np.sqrt(np.maximum(1.0, hess[::2].max(0)))
    inside = (lo < a) & (a < hi) & (lo < g) & (g < hi)
    return a, g, f, small & inside & (_min_eigenvalue(hess) > 0.0), clipped


# --- the per-seed scalar solve ---------------------------------------------


def _dedupe(entries: list, tol: float) -> list[tuple[float, float, float]]:
    """Keep the lowest-objective (alpha, gamma, objective) entry per max-norm cluster."""
    kept: list[tuple[float, float, float]] = []
    for a, g, f in sorted(entries, key=lambda e: (e[2], e[0], e[1])):
        if all(max(abs(a - ka), abs(g - kg)) > tol for ka, kg, _ in kept):
            kept.append((a, g, f))
    return kept


def collect_by_dedupe(lam, cfg, crossings, descents):
    """(points, main branch) of one rationality, as ``qre._collect`` merged them before."""
    tol = cfg.merge_tol
    roots = [c for c in crossings if c[2] < cfg.accept_tol] + [r[:3] for r in descents if r[3]]
    exact = _dedupe(roots, tol)
    cands = [
        c
        for c in _dedupe([r[:3] for r in descents if not r[3]], tol)
        if cfg.include_candidates
        and c[2] < cfg.candidate_ceiling
        and all(max(abs(c[0] - e[0]), abs(c[1] - e[1])) > tol for e in exact)
    ]

    def start_count(a0, g0):
        return sum(max(abs(a - a0), abs(g - g0)) <= tol for a, g, _, _ in descents)

    points = [
        QrePoint(lam, a0, g0, f0, accepted, start_count=start_count(a0, g0))
        for accepted, kept in ((True, exact), (False, cands))
        for a0, g0, f0 in sorted(kept, key=lambda e: (e[0], e[1]))
    ]
    a1, g1, _ = crossings[0]
    main = [p for p in points[: len(exact)] if max(abs(p.alpha - a1), abs(p.gamma - g1)) <= tol]
    return points, main[:1]


def expit(x):
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def sigma_scalar(lam, alpha, gamma, matrix):
    u = conditional_utilities(alpha, gamma, matrix)
    return expit(lam * (u[1] - u[0])), expit(lam * (u[3] - u[2]))


def objective_and_sigma(lam, alpha, gamma, matrix):
    sigma = sigma_scalar(lam, alpha, gamma, matrix)
    return (sigma[0] - alpha) ** 2 + (sigma[1] - gamma) ** 2, sigma


def clamped(alpha, gamma):
    """Pull a degenerate-denominator point off the corner, flagging the clamp."""
    if min(abs(den) for den in _conditional_dens(alpha, gamma)) >= DEGENERACY_THRESHOLD:
        return float(alpha), float(gamma), False
    return (
        float(min(max(alpha, CLAMP_EPS), 1.0 - CLAMP_EPS)),
        float(min(max(gamma, CLAMP_EPS), 1.0 - CLAMP_EPS)),
        True,
    )


def seeds_via_objective_grid(lam, cfg, matrix):
    """The seeds of ``_seeds``: the mesh of ``objective_grid``, its nodes no
    higher than their four neighbours, the lowest 40 under the ceiling, each
    pulled off the corner on its own."""
    m = pdqre.qre.SEED_GRID_SIZE
    alpha, gamma, f, _ = objective_grid(lam, m, matrix)
    f_sq = np.where(np.isfinite(f), f, np.inf).reshape(m, m)
    pad = np.pad(f_sq, 1, constant_values=np.inf)
    is_min = (
        (f_sq <= pad[:-2, 1:-1])
        & (f_sq <= pad[2:, 1:-1])
        & (f_sq <= pad[1:-1, :-2])
        & (f_sq <= pad[1:-1, 2:])
    )
    nodes = np.flatnonzero(is_min)
    f_min = f_sq[is_min]
    order = np.argsort(f_min, kind="stable")[:40]
    order = order[f_min[order] <= max(0.5, 10.0 * cfg.candidate_ceiling)]
    a, g, _ = _off_corners(alpha[nodes[order]], gamma[nodes[order]])
    return list(zip(a.tolist(), g.tolist()))


def newton_polish(lam, x0, matrix):
    a, g, _ = clamped(x0[0], x0[1])
    sigma = sigma_scalar(lam, a, g, matrix)
    ra, rg = sigma[0] - a, sigma[1] - g
    f_cur = ra * ra + rg * rg
    for _ in range(POLISH_MAX_ITER):
        if f_cur < 1e-28:
            break
        _, (row_a, row_g), _ = sigma_derivatives(lam, a, g, matrix, sigma, hessians=False)
        j00, j01 = row_a[0] - 1.0, row_a[1]
        j10, j11 = row_g[0], row_g[1] - 1.0
        det = j00 * j11 - j01 * j10
        if abs(det) < 1e-14:
            break
        step_a = (-ra * j11 + rg * j01) / det
        step_g = (-rg * j00 + ra * j10) / det
        improved = False
        t = 1.0
        while t >= 1.0 / 16.0:
            na = min(max(a + t * step_a, CLAMP_EPS), 1.0 - CLAMP_EPS)
            ng = min(max(g + t * step_g, CLAMP_EPS), 1.0 - CLAMP_EPS)
            n_sigma = sigma_scalar(lam, na, ng, matrix)
            nra, nrg = n_sigma[0] - na, n_sigma[1] - ng
            nf = nra * nra + nrg * nrg
            if nf < f_cur:
                a, g, sigma, ra, rg, f_cur = na, ng, n_sigma, nra, nrg, nf
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return float(a), float(g), float(f_cur)


def min_eigenvalue(hess):
    h_aa, h_ag, h_gg = hess
    return 0.5 * (h_aa + h_gg) - math.hypot(0.5 * (h_aa - h_gg), h_ag)


def descend(lam, seed, matrix, diag):
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    a = min(max(seed[0], lo), hi)
    g = min(max(seed[1], lo), hi)
    f, grad, hess = objective_derivatives(lam, a, g, matrix, sigma_scalar(lam, a, g, matrix))
    for _ in range(DESCENT_MAX_ITER):
        e_min = min_eigenvalue(hess)
        mu = 0.0 if e_min > 0.0 else -2.0 * e_min
        h_aa, h_ag, h_gg = hess[0] + mu, hess[1], hess[2] + mu
        det = h_aa * h_gg - h_ag * h_ag
        if not det > 0.0:
            break
        step_a = (-grad[0] * h_gg + grad[1] * h_ag) / det
        step_g = (-grad[1] * h_aa + grad[0] * h_ag) / det
        size = max(abs(step_a), abs(step_g))
        if mu == 0.0 and size <= DESCENT_STEP_TOL:
            break
        local = mu == 0.0 and size <= DESCENT_LOCAL_STEP
        t = 1.0
        while t >= 1.0 / 1024.0:
            na = a + t * step_a
            ng = g + t * step_g
            inside = lo <= na <= hi and lo <= ng <= hi
            if not inside:
                diag["clamped_evals"] = diag.get("clamped_evals", 0) + 1
                na = min(max(na, lo), hi)
                ng = min(max(ng, lo), hi)
            if local and inside:
                sigma = sigma_scalar(lam, na, ng, matrix)
                break
            nf, sigma = objective_and_sigma(lam, na, ng, matrix)
            if nf < f:
                break
            t *= 0.5
        else:
            break
        a, g = na, ng
        f, grad, hess = objective_derivatives(lam, a, g, matrix, sigma)
    is_min = max(abs(grad[0]), abs(grad[1])) <= DESCENT_GRAD_TOL and min_eigenvalue(hess) > 0.0
    return float(a), float(g), float(f), bool(is_min)


def solve_scalar(lam, cfg, matrix):
    """(points, clamped_evals) of one rationality, accepted points first."""
    diag = {"clamped_evals": 0}
    exact, cands, reached = [], [], []
    for i, seed in enumerate(_seeds(lam, cfg, matrix)):
        na, ng, nf = newton_polish(lam, seed, matrix)
        if nf < cfg.accept_tol:
            exact.append((na, ng, nf))
            reached.append((i, na, ng))
            if max(abs(na - seed[0]), abs(ng - seed[1])) <= 0.05:
                continue
        ma, mg, mf, is_min = descend(lam, seed, matrix, diag)
        if not is_min:
            continue
        if mf < cfg.accept_tol:
            ma, mg, mf = newton_polish(lam, (ma, mg), matrix)
            exact.append((ma, mg, mf))
        else:
            cands.append((ma, mg, mf))
        reached.append((i, ma, mg))

    exact = _dedupe(exact, cfg.merge_tol)
    cands = [
        c
        for c in _dedupe(cands, cfg.merge_tol)
        if c[2] < cfg.candidate_ceiling
        and all(max(abs(c[0] - e[0]), abs(c[1] - e[1])) > cfg.merge_tol for e in exact)
    ]
    if not cfg.include_candidates:
        cands = []

    def start_count(a0, g0):
        return len({i for i, a, g in reached if max(abs(a - a0), abs(g - g0)) <= cfg.merge_tol})

    points = [
        QrePoint(lam, a0, g0, f0, accepted, start_count=start_count(a0, g0))
        for accepted, kept in ((True, exact), (False, cands))
        for a0, g0, f0 in sorted(kept, key=lambda e: (e[0], e[1]))
    ]
    return points, diag["clamped_evals"]
