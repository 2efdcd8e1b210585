"""Stage game, Markov strategies, and the two-player cooperation dynamics.

A Markov (memory-one) strategy reacts to the opponent's previous move with
two probabilities: ``gamma`` is the probability of cooperating after the
opponent cooperated, ``alpha`` the probability of cooperating after the
opponent defected.  Iterating the resulting map over cooperation
probabilities gives a linear dynamics whose fixed point has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DEFAULT_MATRIX",
    "DegenerateChain",
    "MarkovStrategy",
    "PayoffMatrix",
    "StationaryState",
    "dynamics_step",
    "expected_payoff",
    "stationary_state",
    "stationary_state_iterative",
]

#: Denominators smaller than this make the Markov chain degenerate.
DEGENERACY_THRESHOLD = 1e-9


class DegenerateChain(ValueError):
    """The strategy pair has no unique stationary state."""


@dataclass(frozen=True)
class PayoffMatrix:
    """Row player's stage payoffs, keyed by (own move, opponent move)."""

    reward_cc: float = 5.0
    sucker_cd: float = 0.0
    temptation_dc: float = 10.0
    punishment_dd: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in vars(self).values()):
            raise ValueError(f"payoffs must be finite, got {self}")

    def payoff(self, own, other):
        """Expected stage payoff at cooperation probabilities ``own`` and ``other``.

        The one bilinear form behind every payoff in the package.  It works
        elementwise on floats and numpy arrays alike; the opponent's payoff
        is ``payoff(other, own)``.
        """
        return (
            self.reward_cc * own * other
            + self.sucker_cd * own * (1.0 - other)
            + self.temptation_dc * (1.0 - own) * other
            + self.punishment_dd * (1.0 - own) * (1.0 - other)
        )

    def is_prisoners_dilemma(self) -> bool:
        """True when temptation > reward > punishment > sucker."""
        return (
            self.temptation_dc > self.reward_cc
            and self.reward_cc > self.punishment_dd
            and self.punishment_dd > self.sucker_cd
        )


DEFAULT_MATRIX = PayoffMatrix()


@dataclass(frozen=True)
class MarkovStrategy:
    """Memory-one strategy (alpha after defection, gamma after cooperation)."""

    alpha: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class StationaryState:
    """Per-player cooperation probabilities (p1, p2)."""

    p1: float
    p2: float


def dynamics_step(
    s1: MarkovStrategy, s2: MarkovStrategy, state: StationaryState
) -> StationaryState:
    """Advance the cooperation probabilities by one round.

    Each player responds to the opponent's current cooperation probability:
    p_i' = gamma_i * p_j + alpha_i * (1 - p_j).
    """
    return StationaryState(
        p1=s1.gamma * state.p2 + s1.alpha * (1.0 - state.p2),
        p2=s2.gamma * state.p1 + s2.alpha * (1.0 - state.p1),
    )


def stationary_state(s1: MarkovStrategy, s2: MarkovStrategy) -> StationaryState:
    """Closed-form fixed point of :func:`dynamics_step`.

    Raises
    ------
    DegenerateChain
        When ``1 - (alpha1 - gamma1) * (alpha2 - gamma2)`` falls below the
        degeneracy threshold and the chain has no unique stationary state
        (for example two reciprocators, alpha=0 and gamma=1 on both sides).
    """
    d1 = s1.alpha - s1.gamma
    d2 = s2.alpha - s2.gamma
    denom = 1.0 - d1 * d2
    if abs(denom) < DEGENERACY_THRESHOLD:
        raise DegenerateChain(
            f"stationary state undefined for {s1} vs {s2}: denominator {denom:.3e}"
        )
    return StationaryState(
        p1=(s1.alpha - s2.alpha * d1) / denom,
        p2=(s2.alpha - s1.alpha * d2) / denom,
    )


def stationary_state_iterative(
    s1: MarkovStrategy,
    s2: MarkovStrategy,
    start: StationaryState | None = None,
    tol: float = 1e-14,
    max_iter: int = 10_000,
) -> StationaryState:
    """Stationary state by direct iteration, used as an independent oracle."""
    state = start if start is not None else StationaryState(0.5, 0.5)
    for _ in range(max_iter):
        nxt = dynamics_step(s1, s2, state)
        if abs(nxt.p1 - state.p1) < tol and abs(nxt.p2 - state.p2) < tol:
            return nxt
        state = nxt
    return state


def expected_payoff(matrix: PayoffMatrix, state: StationaryState) -> float:
    """Player 1's expected stage payoff at the given cooperation probabilities."""
    return matrix.payoff(state.p1, state.p2)
