"""The solver's reference routes on Python floats, built on the game layer.

Sigma is priced with ``math.exp`` from the compositional payoffs of
``oracles`` (the game layer's stationary state and payoff) and
differentiated with jets of that route (``oracles.Jet``), so no route here
calls the solver's kernel.  Of ``pdqre.qre`` they import public names only:
``QrePoint`` (the points a solve returns), ``objective_grid`` (the mesh the
seeds are read from), ``SEED_GRID_SIZE`` (its default size), ``CLAMP_EPS``
(how far corner points are pulled in) and ``DESCENT_MAX_ITER``,
``DESCENT_LOCAL_STEP``, ``DESCENT_STEP_TOL`` and ``DESCENT_GRAD_TOL`` (the
descent's cap and tolerances).

Each route stays as the one reference of what it checks:

- ``seeds_via_objective_grid``, the seed scan that the memoized seed mesh
  replaced, reads the whole mesh of ``objective_grid`` at every call and
  pulls corner nodes off with ``clamped``: the reference of ``qre._seeds``,
  and the seeds of the scalar solve, the damped pass and the Nelder-Mead
  search.
- ``newton_polish``, the polish of the arc's crossings that the Gauss-Newton
  form of ``qre._descend`` replaced (Newton on sigma(x) - x, each step
  halved until F falls, down to 1/16): the reference of the Gauss-Newton
  property, and the polish of the scalar solve and the Nelder-Mead search.
- ``solve_scalar``, the per-seed scalar solve that the batched solver
  replaced: each seed polished and, unless the polish settles next to it,
  descended, one at a time.
- ``collect_by_dedupe``, the merge that the one-pass ``qre._collect``
  replaced, on the dedupe rules that the searches share (``keep_by_dedupe``,
  ``qre_points``): the only reference for cluster merges.
"""

import math

import numpy as np
from oracles import Jet, conditional_payoffs_compositional, gap_jets

from pdqre.game import DEGENERACY_THRESHOLD
from pdqre.qre import (
    CLAMP_EPS,
    DESCENT_GRAD_TOL,
    DESCENT_LOCAL_STEP,
    DESCENT_MAX_ITER,
    DESCENT_STEP_TOL,
    SEED_GRID_SIZE,
    QrePoint,
    objective_grid,
)


def _dedupe(entries: list, tol: float, ordered: bool = False) -> list[tuple[float, float, float]]:
    """Keep the lowest-objective (alpha, gamma, objective) entry per max-norm cluster.

    With ``ordered`` the entries are taken as given, and each cluster keeps its first.
    """
    kept: list[tuple[float, float, float]] = []
    for a, g, f in entries if ordered else sorted(entries, key=lambda e: (e[2], e[0], e[1])):
        if all(max(abs(a - ka), abs(g - kg)) > tol for ka, kg, _ in kept):
            kept.append((a, g, f))
    return kept


def keep_by_dedupe(exact, minima, cfg, ordered=False):
    """Roots and other minima deduplicated apart at ``merge_tol``; a minimum is kept
    below ``candidate_ceiling``, off every root, and only with ``include_candidates``."""
    tol = cfg.merge_tol
    exact = _dedupe(exact, tol, ordered)
    cands = [
        c
        for c in _dedupe(minima, tol)
        if cfg.include_candidates
        and c[2] < cfg.candidate_ceiling
        and all(max(abs(c[0] - e[0]), abs(c[1] - e[1])) > tol for e in exact)
    ]
    return exact, cands


def qre_points(lam, exact, cands, reached, tol):
    """The kept points as ``QrePoint``s, accepted first, each in (alpha, gamma) order.

    A point's ``start_count`` counts the starts i of ``reached`` (i, alpha, gamma)
    that ended within ``tol`` of it.
    """

    def start_count(a0, g0):
        return len({i for i, a, g in reached if max(abs(a - a0), abs(g - g0)) <= tol})

    return [
        QrePoint(lam, a0, g0, f0, accepted, start_count=start_count(a0, g0))
        for accepted, kept in ((True, exact), (False, cands))
        for a0, g0, f0 in sorted(kept, key=lambda e: (e[0], e[1]))
    ]


def collect_by_dedupe(lam, cfg, crossings, descents):
    """The points of one rationality by dedupe rules, for clusters far apart.

    A cluster of roots keeps its first root crossing in arc order, or else its
    lowest accepted descent; one of minima keeps its lowest.
    """
    descended = sorted((r[:3] for r in descents if r[3]), key=lambda e: (e[2], e[0], e[1]))
    roots = [c for c in crossings if c[2] < cfg.accept_tol] + descended
    exact, cands = keep_by_dedupe(roots, [r[:3] for r in descents if not r[3]], cfg, True)
    reached = [(i, a, g) for i, (a, g, _, _) in enumerate(descents)]
    return qre_points(lam, exact, cands, reached, cfg.merge_tol)


def expit(x):
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def sigma_scalar(lam, alpha, gamma, matrix):
    u = conditional_payoffs_compositional(alpha, gamma, matrix)
    return expit(lam * (u.u_alpha1 - u.u_alpha0)), expit(lam * (u.u_gamma1 - u.u_gamma0))


def objective(lam, alpha, gamma, matrix):
    sa, sg = sigma_scalar(lam, alpha, gamma, matrix)
    return (sa - alpha) ** 2 + (sg - gamma) ** 2


def sigma_jets(lam, alpha, gamma, matrix):
    """sigma's two components as jets in (alpha, gamma), with the values of ``sigma_scalar``.

    The logistic s = expit(lam*x) has slope lam*s*(1 - s) and curvature
    lam^2*s*(1 - s)*(1 - 2s).
    """
    jets = []
    for gap in gap_jets(alpha, gamma, matrix):
        s = expit(lam * gap.value)
        w = lam * s * (1.0 - s)
        jets.append(gap.compose(s, w, lam * w * (1.0 - 2.0 * s)))
    return jets


def objective_derivatives(lam, alpha, gamma, matrix):
    """F = |sigma(x) - x|^2 with its gradient and Hessian (aa, ag, gg), from jets."""
    a, g = Jet.variables(alpha, gamma)
    sa, sg = sigma_jets(lam, alpha, gamma, matrix)
    ra, rg = sa - a, sg - g
    f = ra * ra + rg * rg
    return f.value, f.grad, f.hess


def clamped(alpha, gamma):
    """Pull a degenerate-chain point off the corner, flagging the clamp.

    A chain is degenerate where the denominator 1 - (own alpha - own gamma) *
    (alpha - gamma) of ``game.stationary_state`` falls below the threshold for
    one of the four substituted own strategies.
    """
    d = alpha - gamma
    own = ((0, gamma), (1, gamma), (alpha, 0), (alpha, 1))
    if min(abs(1 - (oa - og) * d) for oa, og in own) >= DEGENERACY_THRESHOLD:
        return float(alpha), float(gamma), False
    return (
        float(min(max(alpha, CLAMP_EPS), 1.0 - CLAMP_EPS)),
        float(min(max(gamma, CLAMP_EPS), 1.0 - CLAMP_EPS)),
        True,
    )


def seeds_via_objective_grid(lam, cfg, matrix, mesh=SEED_GRID_SIZE):
    """The seeds of one solve as a list of (alpha, gamma) Python floats.

    The nodes of ``objective_grid``'s mesh that are no higher than their four
    neighbours, the lowest 40 no higher than max(0.5, 10 * candidate_ceiling),
    each pulled off the corner by ``clamped``.
    """
    alpha, gamma, f, _ = objective_grid(lam, mesh, matrix)
    f_sq = np.where(np.isfinite(f), f, np.inf).reshape(mesh, mesh)
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
    nodes = nodes[order]
    return [clamped(a, g)[:2] for a, g in zip(alpha[nodes].tolist(), gamma[nodes].tolist())]


def newton_polish(lam, x0, matrix):
    """Newton on sigma(x) - x from ``x0`` pulled off the corner, as (alpha, gamma, F).

    Each step is halved until F falls, down to 1/16, with every trial clamped
    into [CLAMP_EPS, 1 - CLAMP_EPS]^2; the polish stops below F = 1e-28, at a
    singular Jacobian, when no halving helps or after 14 steps.
    """
    a, g, _ = clamped(x0[0], x0[1])
    sa, sg = sigma_scalar(lam, a, g, matrix)
    ra, rg = sa - a, sg - g
    f_cur = ra * ra + rg * rg
    for _ in range(14):
        if f_cur < 1e-28:
            break
        row_a, row_g = (s.grad for s in sigma_jets(lam, a, g, matrix))
        j00, j01 = row_a[0] - 1.0, row_a[1]
        j10, j11 = row_g[0], row_g[1] - 1.0
        det = j00 * j11 - j01 * j10
        if abs(det) < 1e-14:
            break
        step_a = (-ra * j11 + rg * j01) / det
        step_g = (-rg * j00 + ra * j10) / det
        t = 1.0
        while t >= 1.0 / 16.0:
            na = min(max(a + t * step_a, CLAMP_EPS), 1.0 - CLAMP_EPS)
            ng = min(max(g + t * step_g, CLAMP_EPS), 1.0 - CLAMP_EPS)
            nsa, nsg = sigma_scalar(lam, na, ng, matrix)
            nra, nrg = nsa - na, nsg - ng
            nf = nra * nra + nrg * nrg
            if nf < f_cur:
                a, g, ra, rg, f_cur = na, ng, nra, nrg, nf
                break
            t *= 0.5
        else:
            break
    return float(a), float(g), float(f_cur)


def min_eigenvalue(hess):
    h_aa, h_ag, h_gg = hess
    return 0.5 * (h_aa + h_gg) - math.hypot(0.5 * (h_aa - h_gg), h_ag)


def descend(lam, seed, matrix):
    """Newton descent on F from ``seed``, as (alpha, gamma, F, is_min), by ``qre._descend``'s rules.

    The seed and every trial are clipped into [0, 1]^2 and pulled off a
    degenerate corner by ``clamped``.  The end is a minimum only more than
    ``CLAMP_EPS`` inside each edge, with a positive definite Hessian and
    |grad F| <= ``DESCENT_GRAD_TOL`` * sqrt(max(1, hess F's largest diagonal entry)).
    """

    def pulled(a, g):
        return clamped(min(max(a, 0.0), 1.0), min(max(g, 0.0), 1.0))[:2]

    a, g = pulled(*seed)
    f, grad, hess = objective_derivatives(lam, a, g, matrix)
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
        if e_min > 0.0 and size <= DESCENT_STEP_TOL:
            break
        local = e_min > 0.0 and size <= DESCENT_LOCAL_STEP
        t = 1.0
        while t >= 1.0 / 1024.0:
            trial = (a + t * step_a, g + t * step_g)
            na, ng = pulled(*trial)
            if (local and (na, ng) == trial) or objective(lam, na, ng, matrix) < f:
                break
            t *= 0.5
        else:
            break
        a, g = na, ng
        f, grad, hess = objective_derivatives(lam, a, g, matrix)
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    bound = DESCENT_GRAD_TOL * math.sqrt(max(1.0, hess[0], hess[2]))
    small = max(abs(grad[0]), abs(grad[1])) <= bound
    is_min = small and lo < a < hi and lo < g < hi and min_eigenvalue(hess) > 0.0
    return float(a), float(g), float(f), bool(is_min)


def solve_scalar(lam, cfg, matrix):
    """The points of one rationality, accepted points first."""
    exact, cands, reached = [], [], []
    for i, seed in enumerate(seeds_via_objective_grid(lam, cfg, matrix)):
        na, ng, nf = newton_polish(lam, seed, matrix)
        if nf < cfg.accept_tol:
            exact.append((na, ng, nf))
            reached.append((i, na, ng))
            if max(abs(na - seed[0]), abs(ng - seed[1])) <= 0.05:
                continue
        ma, mg, mf, is_min = descend(lam, seed, matrix)
        if not is_min:
            continue
        if mf < cfg.accept_tol:
            ma, mg, mf = newton_polish(lam, (ma, mg), matrix)
            exact.append((ma, mg, mf))
        else:
            cands.append((ma, mg, mf))
        reached.append((i, ma, mg))

    exact, cands = keep_by_dedupe(exact, cands, cfg)
    return qre_points(lam, exact, cands, reached, cfg.merge_tol)
