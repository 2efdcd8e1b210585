"""The per-seed scalar solve that the batched solver replaced, kept as an oracle.

Each seed is polished and, unless the polish settles next to it, descended
one at a time, on Python floats.  Sigma is priced with ``math.exp`` from the
compositional payoffs of ``oracles`` (the game layer's stationary state and
payoff), and its derivatives and the objective's are jets of that route
(``oracles.Jet``), so the scalar solve calls no routine of the solver's
kernel.  The seeds are the solver's own; the loop over seeds, the scalar
sigma and the scalar corner clamp live here.

``descend_by_halving`` is ``qre._descend`` with the line search it replaced,
one sigma call per halving of the pending steps, on the package's kernel: the
bitwise reference of the descent's loop, not of its derivatives.
``polish_by_halving`` is the Newton polish of the arc's crossings that the
Gauss-Newton form of ``qre._descend`` replaced, kept as the reference of that
route.

``seeds_via_objective_grid`` is the seed scan that the memoized seed mesh
replaced: it prices the whole mesh through ``objective_grid`` at every call.

``collect_by_dedupe`` is the merge that the one-pass ``qre._collect``
replaced, with its ``_dedupe``: roots and other minima deduplicated apart
(a root crossing ahead of the descents), minima near a root dropped, and
every point's ``start_count`` counted over all descents within ``merge_tol``
of it.
"""

import math

import numpy as np
from oracles import Jet, conditional_payoffs_compositional, gap_jets

import pdqre.qre
from pdqre._kernel import _objective_derivatives, _sigma_derivatives, _sigma_vec
from pdqre.game import DEGENERACY_THRESHOLD
from pdqre.qre import (
    CLAMP_EPS,
    DESCENT_GRAD_TOL,
    DESCENT_LOCAL_STEP,
    DESCENT_MAX_ITER,
    DESCENT_STEP_TOL,
    QrePoint,
    _clip,
    _min_eigenvalue,
    _seeds,
    objective_grid,
)

#: Newton steps per polish of the replaced polishes (``polish_by_halving`` and
#: the scalar solve's ``newton_polish``).
POLISH_MAX_ITER = 14

# --- the halving line searches, on the package's kernel ----------------------


@np.errstate(all="ignore")
def polish_by_halving(lam, alpha, gamma, matrix):
    """The Newton polish of the arc's crossings that the Gauss-Newton descent
    replaced, with one sigma call per halving of the pending steps: Newton on
    sigma(x) - x from starts pulled off the corners, each step halved until F
    falls, down to 1/16, and an element stopped below F = 1e-28, at a singular
    Jacobian or when no halving helps."""
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    a, g = _clip((alpha, gamma))
    sa, sg = _sigma_vec(lam, a, g, matrix)
    ra, rg = sa - a, sg - g
    f = ra * ra + rg * rg
    live = np.arange(a.size)
    for _ in range(POLISH_MAX_ITER):
        live = live[~(f[live] < 1e-28)]
        if not live.size:
            break
        sigma = np.array((sa[live], sg[live]))
        _, (row_a, row_g), _ = _sigma_derivatives(
            lam[live], a[live], g[live], matrix, sigma, hessians=False
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
            nsa, nsg = _sigma_vec(lam[at], na, ng, matrix)
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
    a, g = _clip((alpha, gamma))
    f, grad, hess = _objective_derivatives(lam, a, g, matrix, gauss_newton=gauss_newton)
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
        last = unshifted & (size <= DESCENT_STEP_TOL)
        keep = (det > 0.0) & (gauss_newton | ~last)
        local = (unshifted & (size <= DESCENT_LOCAL_STEP))[keep]
        live, step_a, step_g, last = live[keep], step_a[keep], step_g[keep], last[keep]
        if not live.size:
            break
        pending, t = np.arange(live.size), 1.0
        while t >= 1.0 / 1024.0 and pending.size:
            at = live[pending]
            ta, tg = a[at] + t * step_a[pending], g[at] + t * step_g[pending]
            na, ng = _clip((ta, tg))
            inside = (na == ta) & (ng == tg)
            clipped[at[~inside]] += 1
            better = local[pending] & inside
            priced = ~better
            sa, sg = _sigma_vec(lam[at[priced]], na[priced], ng[priced], matrix)
            better[priced] = (sa - na[priced]) ** 2 + (sg - ng[priced]) ** 2 < f[at[priced]]
            a[at[better]], g[at[better]] = na[better], ng[better]
            pending = pending[~better]
            t *= 0.5
        last = np.delete(last, pending)
        live = np.delete(live, pending)
        f[live], grad[:, live], hess[:, live] = _objective_derivatives(
            lam[live], a[live], g[live], matrix, gauss_newton=gauss_newton
        )
        live = live[~last]
    small = np.abs(grad).max(0) <= DESCENT_GRAD_TOL * np.sqrt(np.maximum(1.0, hess[::2].max(0)))
    inside = (lo < a) & (a < hi) & (lo < g) & (g < hi)
    return a, g, f, small & inside & (_min_eigenvalue(hess) > 0.0), clipped


# --- the per-seed scalar solve ---------------------------------------------


def _dedupe(entries: list, tol: float, ordered: bool = False) -> list[tuple[float, float, float]]:
    """Keep the lowest-objective (alpha, gamma, objective) entry per max-norm cluster.

    With ``ordered`` the entries are taken as given, and each cluster keeps its first.
    """
    kept: list[tuple[float, float, float]] = []
    for a, g, f in entries if ordered else sorted(entries, key=lambda e: (e[2], e[0], e[1])):
        if all(max(abs(a - ka), abs(g - kg)) > tol for ka, kg, _ in kept):
            kept.append((a, g, f))
    return kept


def collect_by_dedupe(lam, cfg, crossings, descents):
    """The points of one rationality by dedupe rules, for clusters far apart.

    A cluster of roots keeps its first root crossing in arc order, or else its
    lowest accepted descent; one of minima keeps its lowest.
    """
    tol = cfg.merge_tol
    descended = sorted((r[:3] for r in descents if r[3]), key=lambda e: (e[2], e[0], e[1]))
    exact = _dedupe([c for c in crossings if c[2] < cfg.accept_tol] + descended, tol, True)
    cands = [
        c
        for c in _dedupe([r[:3] for r in descents if not r[3]], tol)
        if cfg.include_candidates
        and c[2] < cfg.candidate_ceiling
        and all(max(abs(c[0] - e[0]), abs(c[1] - e[1])) > tol for e in exact)
    ]

    def start_count(a0, g0):
        return sum(max(abs(a - a0), abs(g - g0)) <= tol for a, g, _, _ in descents)

    return [
        QrePoint(lam, a0, g0, f0, accepted, start_count=start_count(a0, g0))
        for accepted, kept in ((True, exact), (False, cands))
        for a0, g0, f0 in sorted(kept, key=lambda e: (e[0], e[1]))
    ]


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


def seed_points(lam, cfg, matrix):
    """The seeds of ``_seeds`` as a list of (alpha, gamma) Python floats."""
    a, g, _ = _seeds(lam, cfg, matrix)
    return list(zip(a.tolist(), g.tolist()))


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
    a, g = _clip((alpha[nodes[order]], gamma[nodes[order]]))
    return list(zip(a.tolist(), g.tolist()))


def newton_polish(lam, x0, matrix):
    a, g, _ = clamped(x0[0], x0[1])
    sa, sg = sigma_scalar(lam, a, g, matrix)
    ra, rg = sa - a, sg - g
    f_cur = ra * ra + rg * rg
    for _ in range(POLISH_MAX_ITER):
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
        improved = False
        t = 1.0
        while t >= 1.0 / 16.0:
            na = min(max(a + t * step_a, CLAMP_EPS), 1.0 - CLAMP_EPS)
            ng = min(max(g + t * step_g, CLAMP_EPS), 1.0 - CLAMP_EPS)
            nsa, nsg = sigma_scalar(lam, na, ng, matrix)
            nra, nrg = nsa - na, nsg - ng
            nf = nra * nra + nrg * nrg
            if nf < f_cur:
                a, g, ra, rg, f_cur = na, ng, nra, nrg, nf
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
            if (local and inside) or objective(lam, na, ng, matrix) < f:
                break
            t *= 0.5
        else:
            break
        a, g = na, ng
        f, grad, hess = objective_derivatives(lam, a, g, matrix)
    is_min = max(abs(grad[0]), abs(grad[1])) <= DESCENT_GRAD_TOL and min_eigenvalue(hess) > 0.0
    return float(a), float(g), float(f), bool(is_min)


def solve_scalar(lam, cfg, matrix):
    """(points, clamped_evals) of one rationality, accepted points first."""
    diag = {"clamped_evals": 0}
    exact, cands, reached = [], [], []
    for i, seed in enumerate(seed_points(lam, cfg, matrix)):
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
