"""Symmetric mixed Nash equilibrium curves in the (alpha, gamma) square.

Two candidate curves are maintained side by side.  ``quadratic_residual`` is
a closed-form benchmark quadratic, kept exactly as published:

    5 a^2 + 9 g^2 - 14 a g - 10 g + 1 = 0

``stationarity_curve_residual`` is derived independently inside this package
as the gamma component of the own-payoff gradient at the symmetric profile.
Its interior zero set is the quadratic

    5 a^2 + 9 g^2 - 14 a g + 14 a - 10 g + 1 = 0

which differs from the benchmark by the 14 a term.  Both vanish at
(0, 1/9) and (0, 1) but disagree everywhere else in the interior, so both
are traced and reported; downstream consumers choose via ``curve_choice``.
A useful computed fact: the alpha component of the same gradient carries the
identical quadratic factor, so requiring stationarity in both parameters
yields the same interior curve, not isolated points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

from .game import (
    DEFAULT_MATRIX,
    DEGENERACY_THRESHOLD,
    DegenerateChain,
    MarkovStrategy,
    PayoffMatrix,
)

__all__ = [
    "CurvePoint",
    "curve_residual",
    "own_payoff_gradient",
    "own_payoff_gradient_fd",
    "quadratic_residual",
    "stationarity_curve_residual",
    "stationarity_quadratic",
    "trace_quadratic_curve",
    "trace_stationarity_curve",
]

CurveChoice = Literal["quadratic", "stationarity"]


@dataclass(frozen=True)
class CurvePoint:
    """A traced point on one of the candidate equilibrium curves."""

    alpha: float
    gamma: float
    branch: str  # "low" or "high", by quadratic root
    quadratic_residual: float
    stationarity_residual: float


def quadratic_residual(alpha: float, gamma: float) -> float:
    """Benchmark quadratic, kept exactly as published."""
    return 5.0 * alpha**2 + 9.0 * gamma**2 - 14.0 * alpha * gamma - 10.0 * gamma + 1.0


def stationarity_quadratic(alpha: float, gamma: float) -> float:
    """Interior factor of the stationarity gradient's zero set."""
    return (
        5.0 * alpha**2
        + 9.0 * gamma**2
        - 14.0 * alpha * gamma
        + 14.0 * alpha
        - 10.0 * gamma
        + 1.0
    )


def own_payoff_gradient(
    own: MarkovStrategy,
    opponent: MarkovStrategy,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
) -> tuple[float, float]:
    """Analytic gradient of player 1's stationary payoff in own (alpha, gamma).

    Both stationary probabilities depend on the own parameters, so the chain
    rule runs through p1 and p2 simultaneously.
    """
    a1, g1 = own.alpha, own.gamma
    a2, g2 = opponent.alpha, opponent.gamma
    d1 = a1 - g1
    d2 = a2 - g2
    denom = 1.0 - d1 * d2
    if abs(denom) < DEGENERACY_THRESHOLD:
        raise DegenerateChain(f"gradient undefined for {own} vs {opponent}")
    n1 = a1 - a2 * d1
    n2 = a2 - a1 * d2
    p1 = n1 / denom
    p2 = n2 / denom
    dd = denom * denom
    dp1_da = ((1.0 - a2) * denom + d2 * n1) / dd
    dp1_dg = (a2 * denom - n1 * d2) / dd
    dp2_da = d2 * (n2 - denom) / dd
    dp2_dg = -n2 * d2 / dd
    r, s = matrix.reward_cc, matrix.sucker_cd
    t, p = matrix.temptation_dc, matrix.punishment_dd
    du_dp1 = (r - t) * p2 + (s - p) * (1.0 - p2)
    du_dp2 = (r - s) * p1 + (t - p) * (1.0 - p1)
    return (
        du_dp1 * dp1_da + du_dp2 * dp2_da,
        du_dp1 * dp1_dg + du_dp2 * dp2_dg,
    )


def own_payoff_gradient_fd(
    own: MarkovStrategy,
    opponent: MarkovStrategy,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
    step: float = 1e-6,
) -> tuple[float, float]:
    """Finite-difference oracle for :func:`own_payoff_gradient`.

    Central differences, falling back to one-sided at the box boundary.
    """
    from .game import expected_payoff, stationary_state

    def u(alpha: float, gamma: float) -> float:
        return expected_payoff(
            matrix, stationary_state(MarkovStrategy(alpha, gamma), opponent)
        )

    out = []
    for i in range(2):
        x = [own.alpha, own.gamma]
        lo = max(x[i] - step, 0.0)
        hi = min(x[i] + step, 1.0)
        x_lo, x_hi = list(x), list(x)
        x_lo[i], x_hi[i] = lo, hi
        out.append((u(*x_hi) - u(*x_lo)) / (hi - lo))
    return out[0], out[1]


def stationarity_curve_residual(
    alpha: float, gamma: float, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> float:
    """Gamma component of the own-payoff gradient at the symmetric profile.

    Zero on the independently derived equilibrium curve (and trivially on
    the alpha = 0 edge, where gamma never acts).
    """
    profile = MarkovStrategy(alpha, gamma)
    return own_payoff_gradient(profile, profile, matrix)[1]


def _stationarity_or_nan(alpha: float, gamma: float, matrix: PayoffMatrix = DEFAULT_MATRIX) -> float:
    """:func:`stationarity_curve_residual`, NaN where the chain is degenerate."""
    try:
        return stationarity_curve_residual(alpha, gamma, matrix)
    except DegenerateChain:
        return math.nan


def curve_residual(
    choice: CurveChoice, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> Callable[..., float]:
    """Residual function selected by ``curve_choice`` for the game ``matrix``.

    Both returned callables accept (alpha, gamma, matrix=DEFAULT_MATRIX).  The
    quadratic form is the published curve of the default payoffs: it ignores
    the matrix argument, and asking for it under another ``matrix`` raises
    ValueError.  The stationarity form is NaN where the chain is degenerate.
    """
    if choice == "quadratic":
        if matrix != DEFAULT_MATRIX:
            raise ValueError(f"the quadratic curve is the default game's, not that of {matrix}")
        return lambda alpha, gamma, matrix=DEFAULT_MATRIX: quadratic_residual(
            alpha, gamma
        )
    if choice == "stationarity":
        return _stationarity_or_nan
    raise ValueError(f"unknown curve choice {choice!r}")


def _trace(
    gammas: Iterable[float], linear_coeff: Callable[[float], float]
) -> list[CurvePoint]:
    # Both curves are quadratics 5 a^2 + b(g) a + c(g) with shared c(g).
    points: list[CurvePoint] = []
    for gamma in gammas:
        b = linear_coeff(gamma)
        c = 9.0 * gamma**2 - 10.0 * gamma + 1.0
        disc = b * b - 20.0 * c
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        for branch, alpha in (("low", (-b - root) / 10.0), ("high", (-b + root) / 10.0)):
            if -1e-12 <= alpha <= 1.0 + 1e-12:
                alpha = min(max(alpha, 0.0), 1.0) + 0.0  # -0 reads 0
                points.append(
                    CurvePoint(
                        alpha=alpha,
                        gamma=gamma,
                        branch=branch,
                        quadratic_residual=quadratic_residual(alpha, gamma),
                        stationarity_residual=_stationarity_or_nan(alpha, gamma),
                    )
                )
    return points


def trace_quadratic_curve(gammas: Iterable[float]) -> list[CurvePoint]:
    """In-square points of the benchmark quadratic, labeled by branch.

    Empty below the discriminant root near gamma = 0.0992.
    """
    return _trace(gammas, lambda g: -14.0 * g)


def trace_stationarity_curve(gammas: Iterable[float]) -> list[CurvePoint]:
    """In-square points of the stationarity-derived curve.

    Only the high branch enters the unit square; it runs from (0, 1/9) to
    (0, 1) with alpha staying below 0.3.
    """
    return _trace(gammas, lambda g: 14.0 * (1.0 - g))
