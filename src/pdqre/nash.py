"""Symmetric mixed Nash equilibrium curves in the (alpha, gamma) square.

Each curve is a conic aa a^2 + ag a g + a a + gg g^2 + g g + 1 = 0, held as
its coefficient tuple.  ``QUADRATIC_CONIC`` is a closed-form benchmark
quadratic, kept exactly as published:

    5 a^2 + 9 g^2 - 14 a g - 10 g + 1 = 0

``STATIONARITY_CONIC`` is derived inside this package.  At the symmetric
profile the own-payoff gradient is ((1 - g) C, a C) / ((a - g - 1)(a - g + 1)^3)
with C = (R - S) a^2 + (P - R + S - T) a g + (2T - R - P) a + (T - P) g^2
+ (S - T) g + (P - S), so both components vanish on one interior curve, C = 0,
which for the default payoffs reads

    5 a^2 + 9 g^2 - 14 a g + 14 a - 10 g + 1 = 0

and differs from the benchmark by the 14 a term.  Both vanish at
(0, 1/9) and (0, 1) but disagree everywhere else in the interior, so both
are traced and reported; downstream consumers choose via ``curve_choice``.

The conic's value and the gradient are each written once, for floats, numpy
arrays and exact Fractions, with squares as x * x (rounded correctly, as libm's
pow need not be); ``_trace_columns`` traces a curve in one numpy pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Literal

import numpy as np

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
    "quadratic_residual",
    "stationarity_curve_residual",
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


#: The published quadratic's coefficients (aa, ag, a, gg, g, 1).
QUADRATIC_CONIC = (5.0, -14.0, 0.0, 9.0, -10.0, 1.0)


def _stationarity_conic(matrix: PayoffMatrix) -> tuple[float, ...]:
    """Coefficients (aa, ag, a, gg, g, 1) of C, the gradient's factor under ``matrix``."""
    r, s = matrix.reward_cc, matrix.sucker_cd
    t, p = matrix.temptation_dc, matrix.punishment_dd
    return (r - s, p - r + s - t, 2 * t - r - p, t - p, s - t, p - s)


STATIONARITY_CONIC = _stationarity_conic(DEFAULT_MATRIX)


def _conic_residual(conic: tuple[float, ...], alpha, gamma):
    """The conic's value at (alpha, gamma), elementwise on floats, Fractions and arrays."""
    aa, ag, a, gg, g, one = conic
    return aa * (alpha * alpha) + gg * (gamma * gamma) + ag * alpha * gamma + a * alpha + g * gamma + one


def quadratic_residual(alpha: float, gamma: float) -> float:
    """Benchmark quadratic, kept exactly as published.

    A point outside [0, 1]^2, NaN included, raises ``MarkovStrategy``'s ValueError,
    as the stationarity residual does.
    """
    MarkovStrategy(alpha, gamma)  # a point outside [0, 1]^2, NaN too, raises ValueError
    return _conic_residual(QUADRATIC_CONIC, alpha, gamma)


def _gradient(a1, g1, a2, g2, matrix: PayoffMatrix):
    """:func:`own_payoff_gradient` at (a1, g1) against (a2, g2), elementwise, unchecked."""
    d1 = a1 - g1
    d2 = a2 - g2
    denom = 1 - d1 * d2
    n1 = a1 - a2 * d1
    n2 = a2 - a1 * d2
    p1 = n1 / denom
    p2 = n2 / denom
    dd = denom * denom
    dp1_da = ((1 - a2) * denom + d2 * n1) / dd
    dp1_dg = (a2 * denom - n1 * d2) / dd
    dp2_da = d2 * (n2 - denom) / dd
    dp2_dg = -n2 * d2 / dd
    r, s = matrix.reward_cc, matrix.sucker_cd
    t, p = matrix.temptation_dc, matrix.punishment_dd
    du_dp1 = (r - t) * p2 + (s - p) * (1 - p2)
    du_dp2 = (r - s) * p1 + (t - p) * (1 - p1)
    return du_dp1 * dp1_da + du_dp2 * dp2_da, du_dp1 * dp1_dg + du_dp2 * dp2_dg


def own_payoff_gradient(
    own: MarkovStrategy,
    opponent: MarkovStrategy,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
) -> tuple[float, float]:
    """Analytic gradient of player 1's stationary payoff in own (alpha, gamma).

    Both stationary probabilities depend on the own parameters, so the chain
    rule runs through p1 and p2 simultaneously.
    """
    if abs(1 - (own.alpha - own.gamma) * (opponent.alpha - opponent.gamma)) < DEGENERACY_THRESHOLD:
        raise DegenerateChain(f"gradient undefined for {own} vs {opponent}")
    return _gradient(own.alpha, own.gamma, opponent.alpha, opponent.gamma, matrix)


def stationarity_curve_residual(
    alpha: float, gamma: float, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> float:
    """Gamma component of the own-payoff gradient at the symmetric profile.

    Zero on the independently derived equilibrium curve (and trivially on
    the alpha = 0 edge, where gamma never acts).
    """
    profile = MarkovStrategy(alpha, gamma)
    return own_payoff_gradient(profile, profile, matrix)[1]


# In a game of payoffs near the largest double the gradient's payoff differences may
# overflow, and an infinite one times a zero probability is NaN: that profile's residual.
@np.errstate(over="ignore", invalid="ignore")
def _residuals(choice: CurveChoice, matrix: PayoffMatrix, alpha, gamma):
    """The residual :func:`curve_residual` selects, elementwise on floats and arrays, unchecked."""
    if choice == "quadratic":
        return _conic_residual(QUADRATIC_CONIC, alpha, gamma)
    d = alpha - gamma  # a degenerate chain's profile is NaN, and so is its residual
    profile = np.where(np.abs(1 - d * d) < DEGENERACY_THRESHOLD, np.nan, alpha)
    return _gradient(profile, gamma, profile, gamma, matrix)[1]


def _stationarity_or_nan(matrix: PayoffMatrix, alpha: float, gamma: float) -> float:
    """:func:`stationarity_curve_residual`, NaN where the chain is degenerate."""
    MarkovStrategy(alpha, gamma)  # a point outside [0, 1]^2, NaN too, raises ValueError
    return _residuals("stationarity", matrix, alpha, gamma).item()


def curve_residual(
    choice: CurveChoice, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> Callable[[float, float], float]:
    """Residual of (alpha, gamma) selected by ``curve_choice`` for the game ``matrix``.

    The quadratic form is the published curve of the default payoffs,
    :func:`quadratic_residual` itself; asking for it under another ``matrix``
    raises ValueError.  The stationarity form is priced under ``matrix`` and
    is NaN where the chain is degenerate.
    """
    if choice == "quadratic":
        if matrix != DEFAULT_MATRIX:
            raise ValueError(f"the quadratic curve is the default game's, not that of {matrix}")
        return quadratic_residual
    if choice == "stationarity":
        return partial(_stationarity_or_nan, matrix)
    raise ValueError(f"unknown curve choice {choice!r}")


def _trace_columns(gammas: Iterable[float], conic: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Columns (alpha, gamma, high, quadratic, stationarity) of ``conic``'s points.

    Per gamma, its low then its high (``high`` 1) root in [-1e-12, 1 + 1e-12], clamped
    into [0, 1], with the default game's residuals and the bits of the scalar calls.
    ``gammas`` is any iterable, an array read in place; a gamma outside [0, 1], NaN
    included, raises ``MarkovStrategy``'s ValueError.
    """
    gammas = np.asarray(gammas, float) if isinstance(gammas, np.ndarray) else np.fromiter(gammas, float)
    outside = ~((gammas >= 0.0) & (gammas <= 1.0))
    if outside.any():
        MarkovStrategy(0.0, gammas[outside][0].item())
    # The conic is aa a^2 + b(g) a + c(g) in alpha, c(g) its value at alpha = 0.
    # b is written a (1 - g) + (a + ag) g: where a or a + ag is 0 one product
    # is an exact zero, so b is rounded as ag g or a (1 - g) alone.
    aa, ag, a = conic[:3]
    b = a * (1 - gammas) + (a + ag) * gammas
    disc = b * b - 4 * aa * _conic_residual(conic, 0.0, gammas)
    root = np.sqrt(np.where(disc < 0.0, np.nan, disc))
    # entry 2i is gamma i's low root, 2i + 1 its high one; NaN (no real root) is not kept
    roots = np.column_stack(((-b - root) / (2 * aa), (-b + root) / (2 * aa))).ravel()
    kept = np.flatnonzero((roots >= -1e-12) & (roots <= 1 + 1e-12))
    alpha = np.clip(roots[kept], 0.0, 1.0) + 0.0  # -0 reads 0
    gamma, high = gammas[kept // 2], kept % 2
    columns = (_residuals(c, DEFAULT_MATRIX, alpha, gamma) for c in ("quadratic", "stationarity"))
    return alpha, gamma, high, *columns


def _trace(gammas: Iterable[float], conic: tuple[float, ...]) -> list[CurvePoint]:
    columns = zip(*(column.tolist() for column in _trace_columns(gammas, conic)))
    return [CurvePoint(a, g, ("low", "high")[h], q, s) for a, g, h, q, s in columns]


def trace_quadratic_curve(gammas: Iterable[float]) -> list[CurvePoint]:
    """In-square points of the benchmark quadratic, labeled by branch.

    Empty below the discriminant root near gamma = 0.0992.  A gamma outside
    [0, 1], NaN included, raises ValueError.
    """
    return _trace(gammas, QUADRATIC_CONIC)


def trace_stationarity_curve(gammas: Iterable[float]) -> list[CurvePoint]:
    """In-square points of the stationarity-derived curve of the default game.

    Only the high branch enters the unit square; it runs from (0, 1/9) to
    (0, 1) with alpha staying below 0.3.  A gamma outside [0, 1], NaN
    included, raises ValueError.
    """
    return _trace(gammas, STATIONARITY_CONIC)
