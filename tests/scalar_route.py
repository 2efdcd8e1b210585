"""The per-seed scalar solve that the batched solver replaced, kept as an oracle.

Each seed is polished and, unless the polish settles next to it, descended
one at a time, on Python floats with a ``math.exp`` sigma.  The seeds and the
closed-form derivatives are the solver's own; only the loop over seeds, the
scalar sigma and the scalar corner clamp live here.

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
from pdqre.game import DEGENERACY_THRESHOLD
from pdqre.qre import (
    CLAMP_EPS,
    DESCENT_GRAD_TOL,
    DESCENT_LOCAL_STEP,
    DESCENT_MAX_ITER,
    DESCENT_STEP_TOL,
    NEWTON_MAX_ITER,
    QrePoint,
    _conditional_dens,
    _conditional_utilities,
    _objective_derivatives,
    _off_corners,
    _seeds,
    _sigma_derivatives,
    objective_grid,
)


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
    u = _conditional_utilities(alpha, gamma, matrix)
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
    for _ in range(NEWTON_MAX_ITER):
        if f_cur < 1e-28:
            break
        _, (row_a, row_g), _ = _sigma_derivatives(lam, a, g, matrix, sigma, hessians=False)
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
    f, grad, hess = _objective_derivatives(lam, a, g, matrix, sigma_scalar(lam, a, g, matrix))
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
        f, grad, hess = _objective_derivatives(lam, a, g, matrix, sigma)
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
