"""Symmetric logit quantal response equilibria over Markov strategies.

The equilibrium system fixes one player's remaining parameters, substitutes
the pure values 0 and 1 for the parameter under consideration, evaluates the
stationary payoff of each substituted profile against the symmetric
opponent, and feeds the payoff gap into a logit response.  A symmetric QRE
is a fixed point of the resulting two-equation map; the solver minimizes the
squared residual of that map.

``solve_qre`` reports two kinds of points.  Accepted points are exact fixed
points (objective below ``accept_tol``).  Candidate points are strict local
minima of the objective with small but nonzero residual; they are kept,
clearly flagged, because the low-rationality continuation of the map's
defection regime exists only in this form (the gamma payoff gap vanishes
identically when the opponent never cooperates after defection, so no exact
fixed point sits near the origin at any finite rationality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .game import (
    DEFAULT_MATRIX,
    DEGENERACY_THRESHOLD,
    DegenerateChain,
    MarkovStrategy,
    PayoffMatrix,
)
from .game import expected_payoff, stationary_state
from .nash import curve_residual

__all__ = [
    "ConditionalPayoffs",
    "Intersection",
    "NoSolution",
    "QrePoint",
    "SolverConfig",
    "SweepResult",
    "conditional_payoffs",
    "conditional_payoffs_compositional",
    "find_intersections",
    "logit_response",
    "objective_grid",
    "qre_objective",
    "solve_qre",
    "sweep_lambda",
]

#: The damped pass stops once every start's max-norm residual is below this.
DAMPED_STOP_TOL = 1e-13

#: Cap on the damped fixed-point steps of one solve.
MAX_ITER = 300

#: Nodes per axis of the objective mesh whose local minima seed the search.
SEED_GRID_SIZE = 81

#: Newton steps per polish.
NEWTON_MAX_ITER = 14

#: Offset of the 8 neighbours probed by the strict local-minimum test.
LOCAL_MIN_STEP = 1e-5

#: Branch labels: every point below this rationality is "smooth"; above it,
#: a point inside the ``DEFECT_THRESHOLD`` box is "defect" and one within
#: ``NEARNASH_THRESHOLD`` of the Nash curve (residual magnitude) is "near_nash".
SMOOTH_LAMBDA_MAX = 5.0
DEFECT_THRESHOLD = 0.05
NEARNASH_THRESHOLD = 0.05

#: A sweep's transition rationality is the first with a point in this box.
DEFECT_REGION = 0.25

#: A main-branch step longer than this (max-norm) is a discontinuity.
CONTINUITY_TOL = 0.05

#: Width in lambda at which intersection bisection stops.
BISECT_TOL = 1e-8

#: Distance from the box edge that clamped points are pulled to.  It is a
#: position in the strategy box; ``DEGENERACY_THRESHOLD`` bounds a chain
#: denominator, so the two stay separate constants.
CLAMP_EPS = 1e-9


def _check_rationality(lam: float) -> None:
    """Reject a rationality that is negative, infinite or NaN."""
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"rationality must be finite and nonnegative, got {lam}")


class NoSolution(RuntimeError):
    """No start reached the acceptance tolerance for this rationality."""

    def __init__(self, lam: float, candidates: list["QrePoint"]):
        super().__init__(f"no accepted equilibrium at lambda={lam}")
        self.lam = lam
        self.candidates = candidates


@dataclass(frozen=True)
class ConditionalPayoffs:
    """Stationary payoffs of the four pure-parameter substitutions."""

    u_alpha0: float
    u_alpha1: float
    u_gamma0: float
    u_gamma1: float


@dataclass
class QrePoint:
    """One reported solution of the QRE system at a fixed rationality."""

    lam: float
    alpha: float
    gamma: float
    objective: float
    accepted: bool
    branch: str = ""
    start_count: int = 0


@dataclass(frozen=True)
class Intersection:
    """Where the QRE polyline meets (or first approaches) a Nash curve."""

    lam: float
    alpha: float
    gamma: float
    residual: float
    kind: str  # "crossing" (sign change) or "entry" (|residual| drops below tol)
    first: bool = False


@dataclass(frozen=True)
class SolverConfig:
    """Deterministic multi-start solver settings (no randomized starts).

    These are the settings the command line exposes; the fixed ones are the
    module constants above.
    """

    grid_size: int = 21
    damping: float = 0.5
    accept_tol: float = 1e-12
    merge_tol: float = 1e-4
    include_candidates: bool = True
    candidate_ceiling: float = 0.05
    curve_choice: str = "stationarity"

    def __post_init__(self) -> None:
        if self.grid_size < 2:
            raise ValueError(f"grid_size must be at least 2, got {self.grid_size}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if not (math.isfinite(self.accept_tol) and self.accept_tol >= 0.0):
            raise ValueError(
                f"accept_tol must be finite and nonnegative, got {self.accept_tol}"
            )


@dataclass
class SweepResult:
    """Labeled solutions over a rationality grid plus sweep-level findings."""

    points: list[QrePoint]
    main_branch: list[QrePoint]
    no_solution: list[float]
    discontinuities: list[float]
    transition_lambda: float | None
    config: SolverConfig
    diagnostics: dict


def _conditional_dens(alpha, gamma):
    """Denominators of the four substituted stationary states.

    Works elementwise for floats and numpy arrays alike.  Order:
    (alpha=0, alpha=1, gamma=0, gamma=1).
    """
    d = alpha - gamma
    return (
        1.0 + gamma * d,
        1.0 - (1.0 - gamma) * d,
        1.0 - alpha * d,
        1.0 - (alpha - 1.0) * d,
    )


def _conditional_parts(alpha, gamma):
    """Substituted stationary states as (p1, p2) pairs.

    Pair order matches :func:`_conditional_dens`.
    """
    den_a0, den_a1, den_g0, den_g1 = _conditional_dens(alpha, gamma)
    p2_g = alpha - alpha * alpha + alpha * gamma
    return (
        (alpha * gamma / den_a0, alpha / den_a0),
        ((1.0 - alpha + alpha * gamma) / den_a1, gamma / den_a1),
        ((alpha - alpha * alpha) / den_g0, p2_g / den_g0),
        ((2.0 * alpha - alpha * alpha) / den_g1, p2_g / den_g1),
    )


def _conditional_utilities(alpha, gamma, matrix: PayoffMatrix):
    """Payoffs of the four substituted states, in :func:`_conditional_dens` order."""
    return [matrix.payoff(p1, p2) for p1, p2 in _conditional_parts(alpha, gamma)]


def conditional_payoffs(
    alpha: float, gamma: float, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> ConditionalPayoffs:
    """Closed-form conditional payoffs at a symmetric profile.

    The pure value is substituted into the asymmetric stationary state
    before symmetrization; substituting after symmetrization collapses the
    state to its extreme cases and is not what this function computes.
    """
    if min(abs(den) for den in _conditional_dens(alpha, gamma)) < DEGENERACY_THRESHOLD:
        raise DegenerateChain(
            f"conditional payoffs degenerate at alpha={alpha}, gamma={gamma}"
        )
    return ConditionalPayoffs(*_conditional_utilities(alpha, gamma, matrix))


def conditional_payoffs_compositional(
    alpha: float, gamma: float, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> ConditionalPayoffs:
    """Oracle route: substitute, call the game-layer stationary state, price it."""
    opponent = MarkovStrategy(alpha, gamma)

    def u(own: MarkovStrategy) -> float:
        return expected_payoff(matrix, stationary_state(own, opponent))

    return ConditionalPayoffs(
        u_alpha0=u(MarkovStrategy(0.0, gamma)),
        u_alpha1=u(MarkovStrategy(1.0, gamma)),
        u_gamma0=u(MarkovStrategy(alpha, 0.0)),
        u_gamma1=u(MarkovStrategy(alpha, 1.0)),
    )


def _expit(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def logit_response(lam: float, u_choice1: float, u_choice0: float) -> float:
    """Logit choice probability of option 1 given the two payoffs."""
    _check_rationality(lam)
    return _expit(lam * (u_choice1 - u_choice0))


def _sigma_scalar(
    lam: float, alpha: float, gamma: float, matrix: PayoffMatrix
) -> tuple[float, float]:
    u = _conditional_utilities(alpha, gamma, matrix)
    return _expit(lam * (u[1] - u[0])), _expit(lam * (u[3] - u[2]))


def _sigma_vec(lam: float, alpha, gamma, matrix: PayoffMatrix):
    u = _conditional_utilities(alpha, gamma, matrix)
    return expit(lam * (u[1] - u[0])), expit(lam * (u[3] - u[2]))


def qre_objective(
    lam: float, alpha: float, gamma: float, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> float:
    """Squared residual of the logit fixed-point map at (alpha, gamma)."""
    sa, sg = _sigma_scalar(lam, alpha, gamma, matrix)
    return (sa - alpha) ** 2 + (sg - gamma) ** 2


def _clamped(alpha: float, gamma: float) -> tuple[float, float, bool]:
    """Pull a degenerate-denominator point off the corner, flagging the clamp."""
    if min(abs(den) for den in _conditional_dens(alpha, gamma)) >= DEGENERACY_THRESHOLD:
        return float(alpha), float(gamma), False
    return (
        float(min(max(alpha, CLAMP_EPS), 1.0 - CLAMP_EPS)),
        float(min(max(gamma, CLAMP_EPS), 1.0 - CLAMP_EPS)),
        True,
    )


def _degenerate_mask(alpha: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Elementwise form of the :func:`_clamped` flag over arrays of points."""
    dens = _conditional_dens(alpha, gamma)
    return np.minimum.reduce([np.abs(den) for den in dens]) < DEGENERACY_THRESHOLD


def _objective_safe(
    lam: float, alpha: float, gamma: float, matrix: PayoffMatrix, diag: dict
) -> float:
    alpha, gamma, clamped = _clamped(alpha, gamma)
    if clamped:
        diag["clamped_evals"] = diag.get("clamped_evals", 0) + 1
    sa, sg = _sigma_scalar(lam, alpha, gamma, matrix)
    return (sa - alpha) ** 2 + (sg - gamma) ** 2


def _newton_polish(
    lam: float,
    x0: tuple[float, float],
    matrix: PayoffMatrix,
) -> tuple[float, float, float]:
    """Polish a root of sigma(x) - x; quadratic near exact fixed points."""
    a, g, _ = _clamped(x0[0], x0[1])
    h = 1e-7

    def resid(a: float, g: float) -> tuple[float, float]:
        sa, sg = _sigma_scalar(lam, a, g, matrix)
        return sa - a, sg - g

    ra, rg = resid(a, g)
    f_cur = ra * ra + rg * rg
    for _ in range(NEWTON_MAX_ITER):
        if f_cur < 1e-28:
            break
        j = np.empty((2, 2))
        for col, (da, dg) in enumerate(((h, 0.0), (0.0, h))):
            sp = _sigma_scalar(lam, min(a + da, 1.0), min(g + dg, 1.0), matrix)
            sm = _sigma_scalar(lam, max(a - da, 0.0), max(g - dg, 0.0), matrix)
            scale = (min(a + da, 1.0) - max(a - da, 0.0)) if col == 0 else (
                min(g + dg, 1.0) - max(g - dg, 0.0)
            )
            j[0, col] = (sp[0] - sm[0]) / scale
            j[1, col] = (sp[1] - sm[1]) / scale
        j[0, 0] -= 1.0
        j[1, 1] -= 1.0
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        if abs(det) < 1e-14:
            break
        step_a = (-ra * j[1, 1] + rg * j[0, 1]) / det
        step_g = (-rg * j[0, 0] + ra * j[1, 0]) / det
        improved = False
        t = 1.0
        while t >= 1.0 / 16.0:
            na = min(max(a + t * step_a, CLAMP_EPS), 1.0 - CLAMP_EPS)
            ng = min(max(g + t * step_g, CLAMP_EPS), 1.0 - CLAMP_EPS)
            nra, nrg = resid(na, ng)
            nf = nra * nra + nrg * nrg
            if nf < f_cur:
                a, g, ra, rg, f_cur = na, ng, nra, nrg, nf
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return float(a), float(g), float(f_cur)


def _is_local_min(
    lam: float,
    alpha: float,
    gamma: float,
    f0: float,
    matrix: PayoffMatrix,
) -> bool:
    """Probe the 8 clipped neighbors; rejects boundary stalls of the search."""
    probe: dict = {}
    h = LOCAL_MIN_STEP
    for da in (-h, 0.0, h):
        for dg in (-h, 0.0, h):
            if da == 0.0 and dg == 0.0:
                continue
            na = min(max(alpha + da, 0.0), 1.0)
            ng = min(max(gamma + dg, 0.0), 1.0)
            if na == alpha and ng == gamma:
                continue
            if _objective_safe(lam, na, ng, matrix, probe) < f0 - 1e-12:
                return False
    return True


def _nelder_mead(
    lam: float,
    seed: tuple[float, float],
    matrix: PayoffMatrix,
    diag: dict,
) -> tuple[float, float, float, bool]:
    """Bounded derivative-free descent; one restart if the simplex stalls.

    The fatol must stay attainable at positive-objective minima: the
    f-spread across an xatol-sized simplex scales like xatol^2 times the
    curvature, so anything far below 1e-16 turns success into a coin flip
    and genuine candidate basins get dropped as stalls.
    """
    x = seed
    ok = False
    for _ in range(2):
        r = minimize(
            lambda z: _objective_safe(lam, z[0], z[1], matrix, diag),
            x,
            method="Nelder-Mead",
            bounds=[(0.0, 1.0), (0.0, 1.0)],
            options={"xatol": 1e-9, "fatol": 1e-14, "maxfev": 800},
        )
        x = (float(r.x[0]), float(r.x[1]))
        ok = bool(r.success)
        if ok:
            break
    return x[0], x[1], float(r.fun), ok


def _dedupe(
    entries: list[tuple[float, float, float]], tol: float
) -> list[tuple[float, float, float]]:
    """Keep the lowest-objective representative per max-norm cluster."""
    kept: list[tuple[float, float, float]] = []
    for a, g, f in sorted(entries, key=lambda e: (e[2], e[0], e[1])):
        if all(max(abs(a - ka), abs(g - kg)) > tol for ka, kg, _ in kept):
            kept.append((a, g, f))
    return kept


def solve_qre(
    lam: float,
    config: SolverConfig | None = None,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
    warm_starts: Sequence[tuple[float, float]] = (),
    diagnostics: dict | None = None,
) -> list[QrePoint]:
    """All distinct QRE solutions at one rationality from deterministic starts.

    Multi-start: a uniform grid over the unit square plus any warm starts.
    Damped fixed-point iteration locates attracting fixed points; local
    minima of the objective on the start grid seed a derivative-free polish
    that also finds repelling fixed points and candidate near-solutions.
    The damped pass stops once every start's residual is below
    ``DAMPED_STOP_TOL``, after at most ``MAX_ITER`` steps; the steps taken go
    to ``diagnostics["damped_iterations"]``.  Accepted points come first in
    the result; raises :class:`NoSolution` when no start reaches
    ``accept_tol``.
    """
    cfg = config or SolverConfig()
    _check_rationality(lam)
    diag: dict = {"clamped_starts": 0, "clamped_evals": 0}

    axis = np.linspace(0.0, 1.0, cfg.grid_size)
    ga, gg = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([ga.ravel(), gg.ravel()])
    starts = np.vstack([grid, np.asarray(warm_starts, float).reshape(-1, 2)]) if len(
        warm_starts
    ) else grid

    # Corner starts with degenerate denominators get the documented nudge.
    clamped = _degenerate_mask(starts[:, 0], starts[:, 1])
    starts[clamped] = np.clip(starts[clamped], CLAMP_EPS, 1.0 - CLAMP_EPS)
    diag["clamped_starts"] = int(clamped.sum())

    # The stop is global: a per-start freeze could stop a start on a saddle
    # that further iteration would leave, and so change the seeds found.
    a = starts[:, 0].copy()
    g = starts[:, 1].copy()
    steps = 0
    while True:
        sa, sg = _sigma_vec(lam, a, g, matrix)
        ra, rg = sa - a, sg - g
        res = np.maximum(np.abs(ra), np.abs(rg))
        if steps == MAX_ITER or res.max() < DAMPED_STOP_TOL:
            break
        a += cfg.damping * ra
        g += cfg.damping * rg
        np.clip(a, CLAMP_EPS, 1.0 - CLAMP_EPS, out=a)
        np.clip(g, CLAMP_EPS, 1.0 - CLAMP_EPS, out=g)
        steps += 1
    diag["damped_iterations"] = steps
    endpoints = np.column_stack([a, g])

    seeds: list[tuple[float, float]] = []
    converged = endpoints[res < 1e-6]
    seeds.extend(
        (e[0], e[1])
        for e in _dedupe([(p[0], p[1], 0.0) for p in converged], 1e-3)[:20]
    )

    # Local minima of the objective over a finer evaluation grid catch what
    # the damped iteration cannot reach (repelling roots, shallow candidate
    # basins); one vectorized evaluation, so the fine mesh costs little.
    m = SEED_GRID_SIZE
    seed_axis = np.linspace(0.0, 1.0, m)
    sa_mesh, sg_mesh = np.meshgrid(seed_axis, seed_axis, indexing="ij")
    ca = np.clip(sa_mesh.ravel(), CLAMP_EPS, 1.0 - CLAMP_EPS)
    cg = np.clip(sg_mesh.ravel(), CLAMP_EPS, 1.0 - CLAMP_EPS)
    fa, fg = _sigma_vec(lam, ca, cg, matrix)
    f_seed = (fa - ca) ** 2 + (fg - cg) ** 2
    f_sq = np.where(np.isfinite(f_seed), f_seed, np.inf).reshape(m, m)
    pad = np.pad(f_sq, 1, constant_values=np.inf)
    is_min = (
        (f_sq <= pad[:-2, 1:-1])
        & (f_sq <= pad[2:, 1:-1])
        & (f_sq <= pad[1:-1, :-2])
        & (f_sq <= pad[1:-1, 2:])
    )
    min_nodes = np.argwhere(is_min)
    f_min = f_sq[is_min]
    order = np.argsort(f_min, kind="stable")
    # Nodes far above the candidate ceiling cannot sit in a reportable basin.
    seed_cutoff = max(0.5, 10.0 * cfg.candidate_ceiling)
    for k in order[:40]:
        if f_min[k] > seed_cutoff:
            break
        i, j = min_nodes[k]
        seeds.append(_clamped(float(seed_axis[i]), float(seed_axis[j]))[:2])
    seeds.extend((float(w[0]), float(w[1])) for w in np.asarray(warm_starts, float).reshape(-1, 2))

    exact: list[tuple[float, float, float]] = []
    cands: list[tuple[float, float, float]] = []
    for seed in _dedupe([(s[0], s[1], 0.0) for s in seeds], 1e-3):
        seed = (seed[0], seed[1])
        na, ng, nf = _newton_polish(lam, seed, matrix)
        if nf < cfg.accept_tol:
            exact.append((na, ng, nf))
            # Newton escaping the seed's neighborhood means the seed may sit
            # in a rootless basin; keep it alive for the local search below.
            if max(abs(na - seed[0]), abs(ng - seed[1])) <= 0.05:
                continue
        ma, mg, mf, ok = _nelder_mead(lam, seed, matrix, diag)
        na, ng, nf = _newton_polish(lam, (ma, mg), matrix)
        moved = max(abs(na - ma), abs(ng - mg))
        if nf < cfg.accept_tol and moved <= cfg.merge_tol:
            exact.append((na, ng, nf))  # the local search was sitting on a root
        elif not ok:
            continue  # stalled mid-descent, not a trustworthy minimum
        elif nf < cfg.accept_tol:
            # Newton escaped this basin to a root elsewhere: keep both the
            # root and the genuine positive minimum the search found here.
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
    if not cfg.include_candidates:
        cands = []

    def count_near(a0: float, g0: float) -> int:
        return int(
            np.sum(
                np.maximum(np.abs(endpoints[:, 0] - a0), np.abs(endpoints[:, 1] - g0))
                < 1e-3
            )
        )

    accepted_pts = [
        QrePoint(lam, a0, g0, f0, True, start_count=count_near(a0, g0))
        for a0, g0, f0 in sorted(exact, key=lambda e: (e[0], e[1]))
    ]
    candidate_pts = [
        QrePoint(lam, a0, g0, f0, False, start_count=count_near(a0, g0))
        for a0, g0, f0 in sorted(cands, key=lambda e: (e[0], e[1]))
    ]
    diag["n_exact"] = len(accepted_pts)
    diag["n_candidates"] = len(candidate_pts)
    if diagnostics is not None:
        diagnostics.update(diag)
    if not accepted_pts:
        raise NoSolution(lam, candidate_pts)
    return accepted_pts + candidate_pts


def label_branch(
    point: QrePoint, config: SolverConfig, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> str:
    """Assign the sweep branch label for one solution."""
    if point.lam < SMOOTH_LAMBDA_MAX:
        return "smooth"
    if max(point.alpha, point.gamma) < DEFECT_THRESHOLD:
        return "defect"
    resid_fn = curve_residual(config.curve_choice)
    try:
        resid = resid_fn(point.alpha, point.gamma)
    except DegenerateChain:
        resid = math.inf
    if abs(resid) < NEARNASH_THRESHOLD:
        return "near_nash"
    return "other"


def sweep_lambda(
    lambdas: Iterable[float],
    config: SolverConfig | None = None,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
) -> SweepResult:
    """Solve along an ascending rationality grid with warm-start continuation."""
    cfg = config or SolverConfig()
    lam_list = [float(v) for v in lambdas]
    for lam in lam_list:
        _check_rationality(lam)
    if any(b < a for a, b in zip(lam_list, lam_list[1:])):
        raise ValueError("lambda grid must be ascending")

    points: list[QrePoint] = []
    main: list[QrePoint] = []
    no_solution: list[float] = []
    discontinuities: list[float] = []
    transition: float | None = None
    warm: list[tuple[float, float]] = []
    prev_main: QrePoint | None = None
    diag_total = {"clamped_starts": 0, "clamped_evals": 0}

    for lam in lam_list:
        diag: dict = {}
        try:
            pts = solve_qre(lam, cfg, matrix, warm_starts=warm, diagnostics=diag)
        except NoSolution as err:
            no_solution.append(lam)
            pts = err.candidates
        for key in ("clamped_starts", "clamped_evals"):
            diag_total[key] += diag.get(key, 0)
        for p in pts:
            p.branch = label_branch(p, cfg, matrix)
        points.extend(pts)

        accepted = [p for p in pts if p.accepted]
        if accepted:
            if prev_main is None:
                cur = accepted[0]
            else:
                cur = min(
                    accepted,
                    key=lambda p: max(
                        abs(p.alpha - prev_main.alpha), abs(p.gamma - prev_main.gamma)
                    ),
                )
                jump = max(
                    abs(cur.alpha - prev_main.alpha), abs(cur.gamma - prev_main.gamma)
                )
                if jump > CONTINUITY_TOL:
                    discontinuities.append(lam)
            main.append(cur)
            prev_main = cur
        if transition is None and any(
            max(p.alpha, p.gamma) < DEFECT_REGION for p in pts
        ):
            transition = lam
        warm = [(p.alpha, p.gamma) for p in pts]

    return SweepResult(
        points=points,
        main_branch=main,
        no_solution=no_solution,
        discontinuities=discontinuities,
        transition_lambda=transition,
        config=cfg,
        diagnostics=diag_total,
    )


def _track_point(
    lam: float, seed: tuple[float, float], matrix: PayoffMatrix
) -> tuple[float, float] | None:
    a, g, f = _newton_polish(lam, seed, matrix)
    return (a, g) if f < 1e-18 else None


def find_intersections(
    sweep: SweepResult,
    curve_choice: str | None = None,
    tol: float = 0.05,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
) -> list[Intersection]:
    """Intersections of the main QRE branch with the selected Nash curve.

    Two event kinds are reported: a ``crossing`` where the curve residual
    changes sign along the branch, and an ``entry`` where its magnitude
    first drops below ``tol``.  Both are refined by bisection in lambda;
    segments broken by branch discontinuities are skipped.  The lowest
    lambda event is flagged as first.
    """
    choice = curve_choice or sweep.config.curve_choice
    resid_fn = curve_residual(choice)

    def safe_resid(a: float, g: float) -> float:
        try:
            return resid_fn(a, g, matrix)
        except DegenerateChain:
            return math.nan

    main = sorted(sweep.main_branch, key=lambda p: p.lam)
    if not main:
        return []
    res = [safe_resid(p.alpha, p.gamma) for p in main]

    def refine(
        lo: QrePoint, hi: QrePoint, value_fn, lo_val: float, hi_val: float
    ) -> tuple[float, float, float] | None:
        lam_lo, lam_hi = lo.lam, hi.lam
        x_lo = (lo.alpha, lo.gamma)
        x_hi = (hi.alpha, hi.gamma)
        while lam_hi - lam_lo > BISECT_TOL:
            lam_mid = 0.5 * (lam_lo + lam_hi)
            seed = (0.5 * (x_lo[0] + x_hi[0]), 0.5 * (x_lo[1] + x_hi[1]))
            x_mid = _track_point(lam_mid, seed, matrix)
            if x_mid is None:
                break
            mid_val = value_fn(x_mid)
            if lo_val * mid_val <= 0.0:
                lam_hi, x_hi, hi_val = lam_mid, x_mid, mid_val
            else:
                lam_lo, x_lo, lo_val = lam_mid, x_mid, mid_val
        return lam_hi, x_hi[0], x_hi[1]

    events: list[Intersection] = []
    if math.isfinite(res[0]) and abs(res[0]) < tol:
        events.append(
            Intersection(main[0].lam, main[0].alpha, main[0].gamma, res[0], "entry")
        )
    for i in range(len(main) - 1):
        p, q = main[i], main[i + 1]
        r_p, r_q = res[i], res[i + 1]
        if not (math.isfinite(r_p) and math.isfinite(r_q)):
            continue
        if max(abs(p.alpha - q.alpha), abs(p.gamma - q.gamma)) > CONTINUITY_TOL:
            continue  # broken segment, no events across a branch jump
        if r_p * r_q < 0.0:
            hit = refine(p, q, lambda x: safe_resid(*x), r_p, r_q)
            if hit is not None:
                lam_star, a_star, g_star = hit
                events.append(
                    Intersection(
                        lam_star, a_star, g_star, safe_resid(a_star, g_star), "crossing"
                    )
                )
        if abs(r_p) >= tol and abs(r_q) < tol:
            hit = refine(
                p, q, lambda x: abs(safe_resid(*x)) - tol, abs(r_p) - tol, abs(r_q) - tol
            )
            if hit is not None:
                lam_star, a_star, g_star = hit
                events.append(
                    Intersection(
                        lam_star, a_star, g_star, safe_resid(a_star, g_star), "entry"
                    )
                )

    events.sort(key=lambda e: e.lam)
    return [replace(e, first=(i == 0)) for i, e in enumerate(events)]


def objective_grid(
    lam: float,
    mesh: int = 201,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Objective values over a uniform mesh, with degenerate cells flagged.

    Returns flat arrays (alpha, gamma, objective, clamped).
    """
    _check_rationality(lam)
    axis = np.linspace(0.0, 1.0, mesh)
    ga, gg = np.meshgrid(axis, axis, indexing="ij")
    alpha, gamma = ga.ravel(), gg.ravel()
    clamped = _degenerate_mask(alpha, gamma)
    a = np.where(clamped, np.clip(alpha, CLAMP_EPS, 1.0 - CLAMP_EPS), alpha)
    g = np.where(clamped, np.clip(gamma, CLAMP_EPS, 1.0 - CLAMP_EPS), gamma)
    sa, sg = _sigma_vec(lam, a, g, matrix)
    f = (sa - a) ** 2 + (sg - g) ** 2
    return alpha, gamma, f, clamped
