"""Reference routes that check the package's closed forms, kept with the tests.

Each route is built from the game layer alone (``pdqre.game``: strategies,
the closed-form stationary state, the bilinear payoff) and never from the
route it checks:

- ``dynamics_step`` and ``stationary_state_iterative`` iterate the one-round
  map whose fixed point ``game.stationary_state`` gives in closed form;
- ``conditional_payoffs_compositional`` substitutes the pure values into a
  strategy, calls ``stationary_state`` and prices it, the check of
  ``qre.conditional_payoffs`` and the solver's kernel;
- ``own_payoff_gradient_fd`` differentiates the stationary payoff by central
  differences, the check of ``nash.own_payoff_gradient``;
- ``stationarity_quadratic`` evaluates the gradient's factor C from the four
  payoffs, the check of the curve that ``nash.trace_stationarity_curve``
  traces from ``nash.STATIONARITY_CONIC``;
- ``percent_rows`` writes CSV rows by Python's ``%`` (one format string per
  row, its text escaped by ``template``), the check of the numpy byte
  renderer ``pdqre._rows``.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple

from pdqre.game import (
    DEFAULT_MATRIX,
    MarkovStrategy,
    PayoffMatrix,
    StationaryState,
    expected_payoff,
    stationary_state,
)


class ConditionalPayoffs(NamedTuple):
    """Stationary payoffs of the four pure-parameter substitutions."""

    u_alpha0: float
    u_alpha1: float
    u_gamma0: float
    u_gamma1: float


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


def stationary_state_iterative(
    s1: MarkovStrategy,
    s2: MarkovStrategy,
    start: StationaryState | None = None,
    tol: float = 1e-14,
    max_iter: int = 10_000,
) -> StationaryState:
    """Stationary state by direct iteration of :func:`dynamics_step`."""
    state = start if start is not None else StationaryState(0.5, 0.5)
    for _ in range(max_iter):
        nxt = dynamics_step(s1, s2, state)
        if abs(nxt.p1 - state.p1) < tol and abs(nxt.p2 - state.p2) < tol:
            return nxt
        state = nxt
    return state


def conditional_payoffs_compositional(
    alpha: float, gamma: float, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> ConditionalPayoffs:
    """Substitute, call the game-layer stationary state, price it."""
    opponent = MarkovStrategy(alpha, gamma)

    def u(own: MarkovStrategy) -> float:
        return expected_payoff(matrix, stationary_state(own, opponent))

    return ConditionalPayoffs(
        u_alpha0=u(MarkovStrategy(0.0, gamma)),
        u_alpha1=u(MarkovStrategy(1.0, gamma)),
        u_gamma0=u(MarkovStrategy(alpha, 0.0)),
        u_gamma1=u(MarkovStrategy(alpha, 1.0)),
    )


def own_payoff_gradient_fd(
    own: MarkovStrategy,
    opponent: MarkovStrategy,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
    step: float = 1e-6,
) -> tuple[float, float]:
    """Gradient of player 1's stationary payoff in own (alpha, gamma).

    Central differences, falling back to one-sided at the box boundary.
    """

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


def stationarity_quadratic(alpha: float, gamma: float) -> float:
    """C, the interior factor of the gradient at the symmetric profile, in the default game.

    C = (R - S) a^2 + (T - P) g^2 + (P - R + S - T) a g + (2T - R - P) a
    + (S - T) g + (P - S), term by term in that order.
    """
    r, s = DEFAULT_MATRIX.reward_cc, DEFAULT_MATRIX.sucker_cd
    t, p = DEFAULT_MATRIX.temptation_dc, DEFAULT_MATRIX.punishment_dd
    return (
        (r - s) * alpha**2
        + (t - p) * gamma**2
        + (p - r + s - t) * alpha * gamma
        + (2.0 * t - r - p) * alpha
        + (s - t) * gamma
        + (p - s)
    )


def template(fmt: str, *labels: str) -> str:
    """``fmt`` with ``labels`` in its ``{}`` fields, each ``%`` doubled so that ``%`` keeps it."""
    return fmt.format(*(label.replace("%", "%%") for label in labels))


def percent_rows(*columns) -> bytes:
    """The rows of ``columns`` as the ``%`` route writes them, in UTF-8.

    The columns are those of ``pdqre._rows.render``: literal text, a labelled
    column (labels, codes), float values (``%.12g``) or integer values
    (``%d``).  A row is one format string, with its text and its labels in
    it through :func:`template`, and one ``%`` converts the row's numbers.
    """
    (n,) = {len(c[1]) if isinstance(c, tuple) else len(c) for c in columns if not isinstance(c, str)}
    formats, numbers = [], []
    for column in columns:
        if isinstance(column, str):
            formats.append([template("{}", column)] * n)
        elif isinstance(column, tuple):
            labels, codes = column
            formats.append([template("{}", labels[int(c)]) for c in codes])
        else:
            formats.append(["%.12g" if column.dtype.kind == "f" else "%d"] * n)
            numbers.append(column.tolist())
    values = zip(*numbers) if numbers else repeat(())
    return "".join("".join(fmt) % row for fmt, row in zip(zip(*formats), values)).encode("utf-8")
