"""Symmetric logit quantal response equilibria over Markov strategies.

The equilibrium system fixes one player's remaining parameters, substitutes
the pure values 0 and 1 for the parameter under consideration, evaluates the
stationary payoff of each substituted profile against the symmetric
opponent, and feeds the payoff gap into a logit response.  A symmetric QRE
is a fixed point of the resulting two-equation map; the solver searches
the squared residual of that map for its zeros and local minima, on arrays
of (rationality, seed) pairs.  Its derivatives are in closed form: the
substituted stationary states are quotients of quadratics in (alpha, gamma)
and the payoff is bilinear in them (``pdqre._kernel``).

In logit coordinates (x, y) the fixed points of every rationality lie on one
curve, H = x*gap_gamma - y*gap_alpha = 0, with lambda = x/gap_alpha on it and
no lambda inside H.  Its arc from (1/2, 1/2), lambda = 0, is traced once per
payoff matrix, and every solve polishes the arc's crossings of its rationality
into roots by the same Newton descent as its seeds, on the Gauss-Newton model
of the objective's Hessian.

``solve_qre`` reports two kinds of points.  Accepted points are exact fixed
points (objective below ``accept_tol``).  Candidate points are strict local
minima of the objective with small but nonzero residual; they are kept,
clearly flagged, because the low-rationality continuation of the map's
defection regime exists only in this form (the gamma payoff gap vanishes
identically when the opponent never cooperates after defection, so no exact
fixed point sits near the origin at any finite rationality).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .game import DEFAULT_MATRIX, DEGENERACY_THRESHOLD, DegenerateChain, MarkovStrategy
from .game import PayoffMatrix, expected_payoff, stationary_state
from ._kernel import KERNEL_BLOCK, _conditional_dens, _conditional_utilities, _gap_gradients
from ._kernel import _logistic, _objective_derivatives, _sigma_vec
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
    "main_branch",
    "objective_grid",
    "qre_objective",
    "solve_qre",
    "sweep_lambda",
]

#: Nodes per axis of the objective mesh whose local minima seed the search.
#: Its payoff gaps have no lambda and are priced once per payoff matrix.
SEED_GRID_SIZE = 81

#: Nodes per block of :func:`objective_grid`: the dozen or so 128 KB temporaries of a
#: block stay in a 2 MB L2 cache (8K to 32K were equally fast, 2K or 64K+ slower).
MESH_BLOCK = 1 << 14

#: Newton steps per projection onto the arc (``_project``).
NEWTON_MAX_ITER = 14

#: Newton steps per descent on the objective, from a seed or from a crossing of the arc.
DESCENT_MAX_ITER = 50

#: An unshifted descent step below this (max-norm) is taken whole: that close
#: to a minimum the objective changes by less than its own rounding, so only
#: the gradient can still steer the step.
DESCENT_LOCAL_STEP = 1e-6

#: A descent stops once its unshifted Newton step is below this (max-norm).  At
#: a root grad F = 2 J^T r with r at its rounding floor, so a minimum's gradient
#: may reach ``DESCENT_GRAD_TOL`` (max-norm) times max(1, sqrt(max diag hess F)) ~ |J|.
DESCENT_STEP_TOL = 1e-12
DESCENT_GRAD_TOL = 1e-10

#: The labels of :func:`label_branch`, the sweep CSV's ``branch`` cells.
BRANCH_LABELS = ("smooth", "defect", "near_nash", "other")

#: Branch labels: every point below this rationality is "smooth"; above it,
#: a point inside the ``DEFECT_THRESHOLD`` box is "defect" and one within
#: ``NEARNASH_THRESHOLD`` of the Nash curve (residual magnitude) is "near_nash".
SMOOTH_LAMBDA_MAX = 5.0
DEFECT_THRESHOLD = 0.05
NEARNASH_THRESHOLD = 0.05

#: A sweep's transition rationality is the first with a point in this box.
DEFECT_REGION = 0.25

#: Predictor step along H = 0 per unit of max(1, |x|, |y|) in logit
#: coordinates (x, y); a chord bisection stops at ``ARC_STEP * 2**-40``.
ARC_STEP = 0.1

#: Distance from the box edge that clamped points are pulled to.  It is a
#: position in the strategy box; ``DEGENERACY_THRESHOLD`` bounds a chain
#: denominator, so the two stay separate constants.
CLAMP_EPS = 1e-9


def _check_finite(name: str, value: float, positive: bool) -> None:
    """Reject a NaN, an infinity or a negative value; 0 too when ``positive``."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        bound = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {bound}, got {value}")


def _check_rationality(*lams: float) -> None:
    """Reject a rationality that is negative, infinite or NaN, and a grid that descends."""
    for lam in lams:
        _check_finite("rationality", lam, positive=False)
    if any(b < a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda grid must be ascending")


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
    """One reported solution of the QRE system at a fixed rationality.

    ``start_count`` is the number of search seeds whose descent merged into
    the point; a crossing of the arc counts none.
    """

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
    """Deterministic solver settings (no randomized starts).

    These are the settings the command line exposes; the fixed ones are the
    module constants above.
    """

    accept_tol: float = 1e-12
    merge_tol: float = 1e-4
    include_candidates: bool = True
    candidate_ceiling: float = 0.05
    curve_choice: str = "stationarity"

    def __post_init__(self) -> None:
        # merge_tol is a radius: at 0 nothing merges, so it must be positive
        _check_finite("accept_tol", self.accept_tol, positive=False)
        _check_finite("merge_tol", self.merge_tol, positive=True)
        _check_finite("candidate_ceiling", self.candidate_ceiling, positive=False)
        curve_residual(self.curve_choice)  # raises ValueError for an unknown curve


@dataclass
class SweepResult:
    """Labeled solutions over a rationality grid plus sweep-level findings.

    ``main_branch`` holds the accepted first crossings of the arc, as :func:`main_branch`.
    ``matrix`` is the payoff matrix the grid was solved under; a result built
    by hand without one describes the default game.
    """

    points: list[QrePoint]
    main_branch: list[QrePoint]
    no_solution: list[float]
    discontinuities: list[float]
    transition_lambda: float | None
    config: SolverConfig
    diagnostics: dict
    matrix: PayoffMatrix = DEFAULT_MATRIX


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


def logit_response(lam: float, u_choice1: float, u_choice0: float) -> float:
    """Logit choice probability of option 1 given the two payoffs.

    With :func:`qre_objective` this is the scalar reference route: Python
    floats and ``math.exp``, in the form that cannot overflow.  The solver
    evaluates sigma with :func:`_logistic` instead.
    """
    _check_rationality(lam)
    x = lam * (u_choice1 - u_choice0)
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def qre_objective(
    lam: float, alpha: float, gamma: float, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> float:
    """Squared residual of the logit fixed-point map at (alpha, gamma).

    Evaluated on the scalar reference route of :func:`logit_response`.
    """
    u = _conditional_utilities(alpha, gamma, matrix)
    sa = logit_response(lam, u[1], u[0])
    sg = logit_response(lam, u[3], u[2])
    return (sa - alpha) ** 2 + (sg - gamma) ** 2


def _degenerate_mask(alpha: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Points where some substituted chain is degenerate: a denominator of
    :func:`_conditional_dens` below ``DEGENERACY_THRESHOLD`` in magnitude."""
    d0, d1, d2, d3 = (np.abs(den) for den in _conditional_dens(alpha, gamma))
    return np.minimum(np.minimum(d0, d1), np.minimum(d2, d3)) < DEGENERACY_THRESHOLD


def _off_corners(alpha, gamma):
    """Pull degenerate points into [CLAMP_EPS, 1 - CLAMP_EPS]^2; also returns the flags."""
    clamped = _degenerate_mask(alpha, gamma)
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    return (
        np.where(clamped, np.clip(alpha, lo, hi), alpha),
        np.where(clamped, np.clip(gamma, lo, hi), gamma),
        clamped,
    )


def _clip(x, closed: bool):
    """Points stacked (alpha, gamma) on the first axis, clipped into [CLAMP_EPS, 1 - CLAMP_EPS]^2,
    or with ``closed`` into [0, 1]^2 and pulled off the corners as :func:`_off_corners` pulls."""
    if not closed:
        return np.clip(x, CLAMP_EPS, 1.0 - CLAMP_EPS)
    return np.array(_off_corners(*np.clip(x, 0.0, 1.0))[:2])


#: Fractions 1/2, ..., 1/1024 of a Newton step that its line search tries after the whole
#: step, as a column.
_HALVINGS = 0.5 ** np.arange(1.0, 11.0)[:, None]


def _trial_points(lam, x, f, step, t, local, matrix: PayoffMatrix, closed: bool):
    """Price the trial points x + t*step, clipped by :func:`_clip`, in one sigma call.

    ``x`` and ``step`` stack (alpha, gamma) on their first axis; ``t`` is a
    number or a column of fractions.  Returns the clipped points, their sigma
    and objective, whether each lay inside the box unclipped and whether it
    is accepted: below the objective ``f`` of its start, or inside the box on
    a ``local`` step.
    """
    trial = x + t * step
    point = _clip(trial, closed)
    unmoved = point == trial
    inside = unmoved[0] & unmoved[1]
    sigma = _sigma_vec(lam, point[0], point[1], matrix)
    r = sigma - point
    r *= r
    nf = r[0] + r[1]
    return point, sigma, nf, inside, (local & inside) | (nf < f)


def _line_search(lam, x, f, step, local, matrix: PayoffMatrix, closed: bool):
    """Halve each element's Newton step until its trial point is accepted, down to 1/1024.

    A trial is accepted as :func:`_trial_points` accepts it.  The whole steps
    are priced in one sigma call and every halving of the steps that failed in
    one more (several, of at most 3 * ``KERNEL_BLOCK`` trial points, for a
    large stack), so each element gets the float operations of a loop that halves
    its step one trial at a time.  Returns (accepted, point, sigma, objective,
    clipped): per element whether a trial was accepted, that trial's point,
    sigma and objective, and how many of the trials it made (up to the
    accepted one) were clipped.
    """
    point, sigma, nf, inside, ok = _trial_points(lam, x, f, step, 1.0, local, matrix, closed)
    clipped = (~inside).astype(np.int64)
    failed = np.flatnonzero(~ok)
    halvings = len(_HALVINGS)
    per_call = 3 * KERNEL_BLOCK // halvings  # sigma needs a third of the kernel's memory
    for lo in range(0, failed.size, per_call):
        retry = failed[lo : lo + per_call]
        h_point, h_sigma, h_nf, h_inside, h_ok = _trial_points(
            lam[retry], x[:, None, retry], f[retry], step[:, None, retry], _HALVINGS,
            local[retry], matrix, closed,
        )
        first = np.where(h_ok.any(0), h_ok.argmax(0), halvings)
        clipped[retry] += (~h_inside & (np.arange(halvings)[:, None] <= first)).sum(0)
        hit = np.flatnonzero(first < halvings)
        at, k = retry[hit], first[hit]
        point[:, at], sigma[:, at], nf[at] = h_point[:, k, hit], h_sigma[:, k, hit], h_nf[k, hit]
        ok[at] = True
    return ok, point, sigma, nf, clipped


def _min_eigenvalue(hess):
    """Smallest eigenvalue of symmetric 2x2 matrices (aa, ag, gg), elementwise."""
    h_aa, h_ag, h_gg = hess
    return 0.5 * (h_aa + h_gg) - np.hypot(0.5 * (h_aa - h_gg), h_ag)


# Python floats overflow to inf and give NaN for inf - inf without a word; the
# array solver stays as quiet at huge rationalities, where lam*w overflows.  It
# also divides before it drops the elements whose determinant rules a step out.
@np.errstate(all="ignore")
def _descend(
    lam: np.ndarray, alpha: np.ndarray, gamma: np.ndarray, matrix: PayoffMatrix,
    gauss_newton: bool = False,
):
    """Newton descent on the objective F from arrays of seeds.

    Every element iterates on its own.  Each step solves (hess F + mu*I) s =
    -grad F, where mu = 0 when the Hessian is positive definite and otherwise
    shifts its smallest eigenvalue to |lambda_min| > 0.  With ``gauss_newton``
    the Hessian is the model 2 J^T J of :func:`_objective_derivatives`, which
    makes each step the Newton step on sigma(x) - x: that is how the arc's
    crossings are polished into roots.  The step is halved until F falls, down
    to 1/1024, except that an unshifted step below ``DESCENT_LOCAL_STEP`` is
    taken whole (:func:`_line_search`).  Iterates are clipped by :func:`_clip`,
    closed on the Gauss-Newton model: sigma saturates, so a root may lie on the
    box's edge.  An element stops once an unshifted step is below
    ``DESCENT_STEP_TOL`` (on the Gauss-Newton model, after taking it, which fixes
    a root to its rounding floor) or no halving lowers F.  It is a minimum only
    off the box's edge, with grad F below its bound (``DESCENT_GRAD_TOL``) and
    a positive definite Hessian, so clip stalls and saddles fail.  Returns
    arrays (alpha, gamma, objective, is_min, clipped), where ``clipped``
    counts each element's clipped trial points.
    """
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    x = _clip((alpha, gamma), gauss_newton)
    f, grad, hess = _objective_derivatives(lam, x[0], x[1], matrix, gauss_newton=gauss_newton)
    clipped = np.zeros(f.shape, dtype=np.int64)
    live = np.arange(f.size)
    for _ in range(DESCENT_MAX_ITER):
        grad_l, hess_l = grad[:, live], hess[:, live]
        e_min = _min_eigenvalue(hess_l)
        unshifted = e_min > 0.0
        mu = np.where(unshifted, 0.0, -2.0 * e_min)
        diag = hess_l[2::-2] + mu  # (h_gg, h_aa), shifted
        (h_gg, h_aa), h_ag = diag, hess_l[1]
        det = h_aa * h_gg - h_ag * h_ag
        step = (-grad_l * diag + grad_l[::-1] * h_ag) / det
        size = np.abs(step).max(0)
        last = unshifted & (size <= DESCENT_STEP_TOL)
        keep = (det > 0.0) & (gauss_newton | ~last)
        local = (unshifted & (size <= DESCENT_LOCAL_STEP))[keep]
        live, step, last = live[keep], step[:, keep], last[keep]
        if not live.size:
            break
        ok, point, sigma, _, n_clipped = _line_search(
            lam[live], x[:, live], f[live], step, local, matrix, gauss_newton
        )
        clipped[live] += n_clipped
        live, point = live[ok], point[:, ok]
        x[:, live] = point
        f[live], grad[:, live], hess[:, live] = _objective_derivatives(
            lam[live], point[0], point[1], matrix, sigma[:, ok], gauss_newton
        )
        live = live[~last[ok]]
    a, g = x
    small = np.abs(grad).max(0) <= DESCENT_GRAD_TOL * np.sqrt(np.maximum(1.0, hess[::2].max(0)))
    inside = (lo < a) & (a < hi) & (lo < g) & (g < hi)
    return a, g, f, small & inside & (_min_eigenvalue(hess) > 0.0), clipped


def _mesh(mesh: int):
    """The nodes (alpha, gamma) of a uniform mesh over [0, 1]^2, as flat alpha-major arrays."""
    axis = np.linspace(0.0, 1.0, mesh)
    ga, gg = np.meshgrid(axis, axis, indexing="ij")
    return ga.ravel(), gg.ravel()


def _price_nodes(alpha, gamma, matrix: PayoffMatrix):
    """The part of the objective at the nodes (alpha, gamma) that has no lambda, elementwise.

    Returns arrays (pulled alpha, pulled gamma, clamped, gap_alpha, gap_gamma): the nodes
    pulled off the corners by :func:`_off_corners` with its flags, and the payoff gaps
    u1 - u0 and u3 - u2 at the pulled nodes."""
    a, g, clamped = _off_corners(alpha, gamma)
    u = _conditional_utilities(a, g, matrix)
    return a, g, clamped, u[1] - u[0], u[3] - u[2]


def _mesh_objective(lam: float, priced) -> np.ndarray:
    """The objective F at rationality ``lam`` on nodes priced by :func:`_price_nodes`."""
    a, g, _, gap_a, gap_g = priced
    return (_logistic(lam, gap_a) - a) ** 2 + (_logistic(lam, gap_g) - g) ** 2


@functools.lru_cache(maxsize=1)  # a process solves under one payoff matrix
def _seed_mesh(mesh: int, matrix: PayoffMatrix):
    """:func:`_mesh` priced in one block, read-only, kept for the last (mesh size, matrix)."""
    priced = _price_nodes(*_mesh(mesh), matrix)
    for array in priced:
        array.flags.writeable = False
    return priced


def _seeds(lam: float, cfg: SolverConfig, matrix: PayoffMatrix):
    """Search seeds of one solve: the local minima of the objective mesh.

    Fixed points, attracting or repelling, and candidate basins are all
    local minima of the objective, so the nodes of the ``SEED_GRID_SIZE``
    mesh of :func:`_seed_mesh`, priced once per (mesh size, matrix), that are
    no higher than their four neighbours seed the search: the lowest 40, none
    far above the candidate ceiling.  Degenerate corner nodes are pulled off
    the corner.  Returns arrays (alpha, gamma, F), F the mesh's objective at
    each seed.  Per rationality only the two logistic responses are new.
    """
    m = SEED_GRID_SIZE
    a, g, *_ = priced = _seed_mesh(m, matrix)
    pad = np.full((m + 2, m + 2), np.inf)  # the mesh bordered with inf
    f_sq = pad[1:-1, 1:-1]
    # F is a sum of squares, so fmin sends NaN to inf and keeps every other value
    np.fmin(_mesh_objective(lam, priced).reshape(m, m), np.inf, out=f_sq)
    lowest = np.minimum(
        np.minimum(pad[:-2, 1:-1], pad[2:, 1:-1]), np.minimum(pad[1:-1, :-2], pad[1:-1, 2:])
    )
    is_min = f_sq <= lowest
    nodes = np.flatnonzero(is_min)
    f_min = f_sq[is_min]
    order = np.argsort(f_min, kind="stable")[:40]
    # Nodes far above the candidate ceiling cannot sit in a reportable basin.
    order = order[f_min[order] <= max(0.5, 10.0 * cfg.candidate_ceiling)]
    return a[nodes[order]], g[nodes[order]], f_min[order]


def _collect(lam: float, cfg: SolverConfig, crossings: list, descents: list) -> list[QrePoint]:
    """Merge the polished crossings and the descents of one rationality.

    ``crossings`` are (alpha, gamma, objective) in arc order; ``descents`` are
    (alpha, gamma, objective, accepted) of the descents that ended on a minimum.
    The crossings below ``accept_tol``, in arc order, then the descents, accepted
    first and each by (objective, alpha, gamma), fold into the first point kept
    within ``merge_tol`` (max-norm), adding their descent to its ``start_count``,
    or are kept; so a crossing that is a root is kept as polished.  Returns the
    points, accepted first.
    """
    results = [(a, g, f, True, 0) for a, g, f in crossings if f < cfg.accept_tol]
    results += sorted(((*d, 1) for d in descents), key=lambda r: (not r[3], r[2], r[0], r[1]))
    kept: list[QrePoint] = []
    for a, g, f, accepted, n in results:
        near = (p for p in kept if max(abs(p.alpha - a), abs(p.gamma - g)) <= cfg.merge_tol)
        point = next(near, None)
        if point is None:
            kept.append(QrePoint(lam, a, g, f, accepted, start_count=n))
        else:
            point.start_count += n
    ceiling = cfg.candidate_ceiling if cfg.include_candidates else -math.inf
    return sorted(
        (p for p in kept if p.accepted or p.objective < ceiling),
        key=lambda p: (not p.accepted, p.alpha, p.gamma),
    )


def _solve(lams: list[float], cfg: SolverConfig, matrix: PayoffMatrix):
    """Yield (points, first crossing, folds passed, clipped trials) per rationality of ``lams``.

    Consecutive rationalities join one stack until it holds as many
    (rationality, seed) pairs as the seed mesh has nodes, so its arrays stay
    the size of the mesh and memory does not grow with the grid.  No result
    depends on the rest of its stack.
    """
    stack, n_pairs = [], 0
    for k, lam in enumerate(lams):
        stack.append((lam, _seeds(lam, cfg, matrix)))
        n_pairs += len(stack[-1][1][0])
        if n_pairs >= SEED_GRID_SIZE**2 or k == len(lams) - 1:
            yield from _solve_stack(stack, cfg, matrix)
            stack, n_pairs = [], 0


def _solve_stack(stack, cfg: SolverConfig, matrix: PayoffMatrix):
    """Yield what :func:`_solve` yields for each (rationality, seeds) of ``stack``.

    Each rationality's crossings of the arc (:func:`_crossings`) that polish
    below ``accept_tol`` are accepted.  Every (rationality, seed) pair descends:
    a descent that ends on a strict local minimum below ``accept_tol`` is
    accepted as it ends, which finds a root off the arc; one above it is a
    candidate.  A root among the seeds on the box's edge, outside the clip of
    the descent, is accepted as it stands.  The first crossing is (alpha, gamma,
    objective), and the folds passed precede it.
    """
    owner = np.repeat(np.arange(len(stack)), [len(seeds[0]) for _, seeds in stack])
    lam = np.array([lam for lam, _ in stack], dtype=float)[owner]
    seed_a, seed_g, seed_f = (np.concatenate(v) for v in zip(*(seeds for _, seeds in stack)))
    da, dg, df, is_min, clipped = _descend(lam, seed_a, seed_g, matrix)
    low = is_min & (df < cfg.accept_tol)
    edge = (np.minimum(seed_a, seed_g) < CLAMP_EPS) | (np.maximum(seed_a, seed_g) > 1.0 - CLAMP_EPS)
    root = edge & (seed_f < cfg.accept_tol)
    da[root], dg[root], df[root] = seed_a[root], seed_g[root], seed_f[root]
    is_min[root] = low[root] = True
    level, *crossed, _, passed = _crossings([lam for lam, _ in stack], matrix)
    found = [([], []) for _ in stack]  # (crossings, descents) per rationality
    for k, *crossing in zip(level.tolist(), *(v.tolist() for v in crossed)):
        found[k][0].append(crossing)
    for k, *descent in zip(*(v[is_min].tolist() for v in (owner, da, dg, df, low))):
        found[k][1].append(descent)
    clamped = np.bincount(owner, clipped, len(stack)).astype(np.int64).tolist()
    for (lam, _), (crossings, descents), folds, n in zip(
        stack, found, passed.tolist(), clamped, strict=True
    ):
        yield _collect(lam, cfg, crossings, descents), crossings[0], folds, n


def solve_qre(
    lam: float,
    config: SolverConfig | None = None,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
    diagnostics: dict | None = None,
) -> list[QrePoint]:
    """All distinct QRE solutions at one rationality.

    The accepted points are the arc's crossings of this rationality (H = 0)
    that a Gauss-Newton descent polishes to exact roots, the roots a Newton
    descent on the objective reaches from the seeds of :func:`_seeds`, as the
    descent ends them, and the edge seeds that are roots.
    The seeds' descents also find candidate near-solutions (strict local
    minima of the objective).  Results within ``merge_tol`` merge, crossings first; a
    point's ``start_count`` is the number of seeds whose descent merged into it.
    The clipped steps of the seeds' descents go to
    ``diagnostics["clamped_evals"]``, its only key.  Accepted points come first; raises
    :class:`NoSolution` when none reaches ``accept_tol``.  :func:`sweep_lambda`
    runs the same solve.
    """
    cfg = config or SolverConfig()
    _check_rationality(lam)
    ((points, _, _, clamped_evals),) = _solve([lam], cfg, matrix)
    if diagnostics is not None:
        diagnostics["clamped_evals"] = clamped_evals
    if not any(p.accepted for p in points):
        raise NoSolution(lam, points)
    return points


def label_branch(
    point: QrePoint, config: SolverConfig, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> str:
    """Assign the sweep branch label for one solution."""
    smooth, defect, near_nash, other = BRANCH_LABELS
    if point.lam < SMOOTH_LAMBDA_MAX:
        return smooth
    if max(point.alpha, point.gamma) < DEFECT_THRESHOLD:
        return defect
    resid = curve_residual(config.curve_choice, matrix)(point.alpha, point.gamma)
    if abs(resid) < NEARNASH_THRESHOLD:
        return near_nash
    return other


def _arc_frame(z, matrix: PayoffMatrix):
    """H, its gradient, lambda, a multiple of d(lambda)/ds and (alpha, gamma) at the logit point z.

    The tangent t = (-H_y, H_x) points to growing lambda at (1/2, 1/2).  Off the arc
    lambda is (x*gap_alpha + y*gap_gamma) / |gap|^2; on it t = lambda*d(gap) + d(lambda)*gap.
    The strategy (alpha, gamma) is clipped into the solver's box.
    """
    x, y = z
    a, g = (min(max(logit_response(1.0, v, 0.0), CLAMP_EPS), 1.0 - CLAMP_EPS) for v in z)
    u = _conditional_utilities(a, g, matrix)
    gap_a, gap_g = u[1] - u[0], u[3] - u[2]
    (ga_a, gg_a), (ga_g, gg_g) = _gap_gradients(a, g, matrix)
    wa, wg = a * (1.0 - a), g * (1.0 - g)
    h_x = gap_g + wa * (x * gg_a - y * ga_a)
    h_y = -gap_a + wg * (x * gg_g - y * ga_g)
    norm2 = gap_a * gap_a + gap_g * gap_g or 1.0  # both gaps vanish: lambda is 0 at (0, 0)
    lam = (x * gap_a + y * gap_g) / norm2
    d_gap_a = -wa * ga_a * h_y + wg * ga_g * h_x
    d_gap_g = -wa * gg_a * h_y + wg * gg_g * h_x
    dlam = ((-h_y - lam * d_gap_a) * gap_a + (h_x - lam * d_gap_g) * gap_g) / norm2
    return x * gap_g - y * gap_a, (h_x, h_y), lam, dlam, (a, g)


def _project(z, matrix: PayoffMatrix):
    """Newton's minimal-norm steps from z onto H = 0; returns (point, frame there)."""
    for _ in range(NEWTON_MAX_ITER):
        h, (h_x, h_y), *_ = frame = _arc_frame(z, matrix)
        c = h / (h_x * h_x + h_y * h_y)
        z = (z[0] - c * h_x, z[1] - c * h_y)
        if abs(c) * max(abs(h_x), abs(h_y)) <= 1e-15 * (1.0 + max(abs(z[0]), abs(z[1]))):
            break
    return z, frame


def _bisect_chord(lo, hi, value, matrix: PayoffMatrix):
    """Where ``value(point, frame)`` changes sign between two (point, frame) pairs on H = 0.

    Halves the chord, projecting each midpoint onto H = 0, down to
    ``ARC_STEP * 2**-40`` (max-norm); returns the (point, frame) pair at the hi end.
    """
    lo_val = value(*lo)
    for _ in range(64):  # a projection may land off the chord: at most 64 halvings
        if max(abs(lo[0][0] - hi[0][0]), abs(lo[0][1] - hi[0][1])) <= ARC_STEP * 2.0**-40:
            break
        mid = _project(tuple(0.5 * (p + q) for p, q in zip(lo[0], hi[0])), matrix)
        mid_val = value(*mid)
        lo, hi, lo_val = (lo, mid, lo_val) if lo_val * mid_val <= 0.0 else (mid, hi, mid_val)
    return hi


@functools.lru_cache(maxsize=1)  # a process solves under one payoff matrix
def _trace_arc(matrix: PayoffMatrix):
    """Nodes of the arc of H = 0 from (1/2, 1/2) until it leaves the solver's box.

    A predictor step goes ``ARC_STEP * max(1, |x|, |y|)`` along the tangent and is
    halved, at most 40 times, until projecting it onto H = 0 moves it by at most
    half its length and leaves lambda in (0, 1 + 2 lambda] (past a pole of lambda,
    an interior Nash point, lambda is negative, and where both gaps vanish it
    reads 0).  Each fold, where lambda stops or starts growing, is refined and
    joins the nodes.  The trace also ends where no
    step is accepted, grad H vanishes or at 10,000 nodes; a last node at infinite
    lambda repeats the last point.  Returns read-only arrays: the logit points
    (n, 2), their lambdas and the indices of the fold nodes.  The payoff matrix is
    frozen, so the last one's trace is kept.
    """
    nodes, folds = [((0.0, 0.0), _arc_frame((0.0, 0.0), matrix))], []
    while len(nodes) < 10_000:
        (x, y), (_, (gx, gy), lam, dlam, _) = nodes[-1]
        if not any((gx, gy)) or max(abs(x), abs(y)) >= -math.log(CLAMP_EPS):
            break
        norm, length = math.hypot(gx, gy), ARC_STEP * max(1.0, abs(x), abs(y))
        for _ in range(40):
            guess = (x - length * gy / norm, y + length * gx / norm)
            step = _project(guess, matrix)
            if 0.0 < step[1][2] <= 1 + 2 * lam and 2 * math.dist(step[0], guess) <= length:
                break
            length *= 0.5
        else:
            break
        if (dlam > 0.0) != (step[1][3] > 0.0):
            folds.append(len(nodes))
            nodes.append(_bisect_chord(nodes[-1], step, lambda z, frame: frame[3], matrix))
        nodes.append(step)
    nodes.append((nodes[-1][0], (0.0, None, math.inf, 0.0)))
    arc = np.array([z for z, _ in nodes]), np.array([f[2] for _, f in nodes]), np.array(folds, int)
    for array in arc:
        array.flags.writeable = False
    return arc


def _crossings(lams: list[float], matrix: PayoffMatrix):
    """Every crossing of the arc with each level of ``lams``, polished there.

    A crossing is placed on the arc's polyline and polished by :func:`_descend`
    on the Gauss-Newton model, whose clipped trials are not counted.  Returns
    arrays (level index, alpha, gamma, objective), by level and then along the
    arc, and per level the index of its first crossing and the folds before it.
    """
    z, arc_lams, folds = _trace_arc(matrix)
    levels = np.array(lams, dtype=float)
    lo, hi = arc_lams[:-1, None], arc_lams[1:, None]
    # a rising segment holds the levels in [lo, hi), a falling one those in (hi, lo]
    level, seg = np.nonzero(((lo <= levels) & (levels < hi) | (hi < levels) & (levels <= lo)).T)
    w = (levels[level] - arc_lams[seg]) / (arc_lams[seg + 1] - arc_lams[seg])
    # lambda is quadratic in arclength at a fold: w is a square on the fold's side
    before, after = np.isin(seg + 1, folds), np.isin(seg, folds)
    w = np.where(before, 1.0 - np.sqrt(1.0 - w), np.where(after, np.sqrt(w), w))
    x, y = (z[seg] + w[:, None] * (z[seg + 1] - z[seg])).T
    start = _logistic(1.0, x), _logistic(1.0, y)
    alpha, gamma, f = _descend(levels[level], *start, matrix, gauss_newton=True)[:3]
    first = np.flatnonzero(np.diff(level, prepend=-1))
    return level, alpha, gamma, f, first, np.searchsorted(folds, seg[first] + 1)


def main_branch(lambdas: Iterable[float], matrix: PayoffMatrix = DEFAULT_MATRIX) -> list[QrePoint]:
    """The main branch of :func:`sweep_lambda` over the same grid, from the arc alone.

    Per rationality, the arc's first crossing as :func:`_crossings` polishes it, where
    that is a root by the default ``accept_tol``: no seed, descent or merge, so no
    branch label and no ``start_count``.
    """
    lams = [float(v) for v in lambdas]
    _check_rationality(*lams)
    _, *crossed, first, _ = _crossings(lams, matrix)
    found = zip(lams, *(v[first].tolist() for v in crossed))
    return [QrePoint(lam, a, g, f, True) for lam, a, g, f in found if f < SolverConfig.accept_tol]


def sweep_lambda(
    lambdas: Iterable[float],
    config: SolverConfig | None = None,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
) -> SweepResult:
    """Solve each rationality of an ascending grid on its own, as :func:`solve_qre` does.

    Every point gets a branch label.  The main branch holds each rationality's
    first crossing of the arc where it is accepted, as :func:`main_branch` gives
    it, and the discontinuities are the rationalities whose first crossing lies
    past a fold that the previous one's did not.
    """
    cfg, lams = config or SolverConfig(), [float(v) for v in lambdas]
    _check_rationality(*lams)
    curve_residual(cfg.curve_choice, matrix)  # raises ValueError for a curve this game lacks
    points, main, no_solution, passed = [], [], [], []
    transition, diag = None, {"clamped_evals": 0}

    for lam, (pts, (a1, g1, _), folds, n) in zip(lams, _solve(lams, cfg, matrix), strict=True):
        main += [p for p in pts if p.accepted and (p.alpha, p.gamma) == (a1, g1)]
        passed.append(folds)
        if not any(p.accepted for p in pts):
            no_solution.append(lam)
        diag["clamped_evals"] += n
        for p in pts:
            p.branch = label_branch(p, cfg, matrix)
        points.extend(pts)
        if transition is None and any(max(p.alpha, p.gamma) < DEFECT_REGION for p in pts):
            transition = lam

    jumps = [lam for lam, a, b in zip(lams[1:], passed, passed[1:]) if a != b]
    return SweepResult(points, main, no_solution, jumps, transition, cfg, diag, matrix)


def find_intersections(
    sweep: SweepResult,
    curve_choice: str | None = None,
    tol: float = 0.05,
) -> list[Intersection]:
    """Intersections of the main QRE branch with the selected Nash curve.

    The game is the one the sweep was solved under, ``sweep.matrix``.  Two
    event kinds are reported: a ``crossing`` where the curve residual changes
    sign along the branch, and an ``entry`` where its magnitude first drops
    below ``tol``, which must be finite and positive.  Both are refined on
    the arc of H = 0 between two main-branch points, but not across a
    discontinuity.  The lowest lambda event is flagged as first.
    """
    _check_finite("tol", tol, positive=True)
    matrix = sweep.matrix
    resid_fn = curve_residual(curve_choice or sweep.config.curve_choice, matrix)

    main = sorted(sweep.main_branch, key=lambda p: p.lam)
    if not main:
        return []
    res = [resid_fn(p.alpha, p.gamma) for p in main]
    events: list[Intersection] = []

    def refine(p: QrePoint, q: QrePoint, kind: str, value) -> None:
        ends = ([math.log(v / (1.0 - v)) for v in (r.alpha, r.gamma)] for r in (p, q))
        lo, hi = (_project(z, matrix) for z in ends)
        _, frame = _bisect_chord(lo, hi, lambda _, f: value(resid_fn(*f[4])), matrix)
        events.append(Intersection(frame[2], *frame[4], resid_fn(*frame[4]), kind))

    if math.isfinite(res[0]) and abs(res[0]) < tol:
        events.append(Intersection(main[0].lam, main[0].alpha, main[0].gamma, res[0], "entry"))
    for p, q, r_p, r_q in zip(main, main[1:], res, res[1:]):
        if not (math.isfinite(r_p) and math.isfinite(r_q)) or q.lam in sweep.discontinuities:
            continue
        if r_p * r_q < 0.0:
            refine(p, q, "crossing", lambda r: r)
        if abs(r_p) >= tol and abs(r_q) < tol:
            refine(p, q, "entry", lambda r: abs(r) - tol)

    events.sort(key=lambda e: e.lam)
    return [replace(e, first=(i == 0)) for i, e in enumerate(events)]


def objective_grid(
    lam: float,
    mesh: int = 201,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Objective values over a uniform mesh, with degenerate cells flagged.

    Returns flat arrays (alpha, gamma, objective, clamped) of :func:`_mesh`.
    ``MESH_BLOCK`` nodes at a time are priced into the outputs, so no other
    array has the mesh's size; each cell has the bits of a whole-mesh pricing.
    """
    _check_rationality(lam)
    alpha, gamma = _mesh(mesh)
    f, clamped = np.empty(alpha.size), np.empty(alpha.size, dtype=bool)
    for lo in range(0, alpha.size, MESH_BLOCK):
        block = slice(lo, lo + MESH_BLOCK)
        priced = _price_nodes(alpha[block], gamma[block], matrix)
        f[block], clamped[block] = _mesh_objective(lam, priced), priced[2]
    return alpha, gamma, f, clamped
