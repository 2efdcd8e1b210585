"""Reference routes that check the package's closed forms, kept with the tests.

Each route is built from the game layer alone (``pdqre.game``: strategies,
the closed-form stationary state, the bilinear payoff) and never from the
route it checks:

- ``dynamics_step`` is the one-round map whose fixed point
  ``game.stationary_state`` gives in closed form: on ``Fraction``s one round
  leaves that state exactly in place;
- ``conditional_payoffs_compositional`` substitutes the pure values into a
  strategy, calls ``stationary_state`` and prices it, the check of
  ``qre.conditional_payoffs`` and the solver's kernel;
- ``Jet`` carries a value with its gradient and Hessian in (alpha, gamma)
  through that route, or any other arithmetic of the game layer: on
  ``Fraction``s the payoff gaps, their gradients and Hessians come out exact,
  the one check of the kernel's derivatives and of ``nash.own_payoff_gradient``;
- ``own_payoff_gradient_fd`` differentiates the stationary payoff by central
  differences, the float check of ``nash.own_payoff_gradient`` in the
  acceptance criteria;
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


class Jet:
    """A second-order jet in (alpha, gamma): a value with its gradient and Hessian.

    Forward-mode differentiation (Griewank and Walther, *Evaluating
    Derivatives*, 2nd ed., SIAM 2008, ch. 13): each operation carries the
    value, the gradient (d/dalpha, d/dgamma) and the Hessian (aa, ag, gg)
    through the sum, product and quotient rules, in whatever number type the
    parts hold; on ``Fraction``s every part is exact.  A plain number is a
    constant jet.  Comparisons and ``abs`` read the value, so a jet passes the
    game layer's range and degeneracy checks.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad=(0, 0), hess=(0, 0, 0)):
        self.value, self.grad, self.hess = value, grad, hess

    @classmethod
    def variables(cls, alpha, gamma):
        """The jets of alpha and gamma themselves."""
        return cls(alpha, (1, 0)), cls(gamma, (0, 1))

    def compose(self, value, d1, d2):
        """f(self) for a function f with this ``value``, slope ``d1`` and curvature ``d2`` here."""
        (x_a, x_g), (x_aa, x_ag, x_gg) = self.grad, self.hess
        return Jet(
            value,
            (d1 * x_a, d1 * x_g),
            (d1 * x_aa + d2 * x_a * x_a, d1 * x_ag + d2 * x_a * x_g, d1 * x_gg + d2 * x_g * x_g),
        )

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value + other, self.grad, self.hess)
        (x_a, x_g), (x_aa, x_ag, x_gg) = self.grad, self.hess
        (y_a, y_g), (y_aa, y_ag, y_gg) = other.grad, other.hess
        return Jet(self.value + other.value, (x_a + y_a, x_g + y_g), (x_aa + y_aa, x_ag + y_ag, x_gg + y_gg))

    __radd__ = __add__

    def __neg__(self):
        (x_a, x_g), (x_aa, x_ag, x_gg) = self.grad, self.hess
        return Jet(-self.value, (-x_a, -x_g), (-x_aa, -x_ag, -x_gg))

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value - other, self.grad, self.hess)
        (x_a, x_g), (x_aa, x_ag, x_gg) = self.grad, self.hess
        (y_a, y_g), (y_aa, y_ag, y_gg) = other.grad, other.hess
        return Jet(self.value - other.value, (x_a - y_a, x_g - y_g), (x_aa - y_aa, x_ag - y_ag, x_gg - y_gg))

    def __rsub__(self, other):
        (x_a, x_g), (x_aa, x_ag, x_gg) = self.grad, self.hess
        return Jet(other - self.value, (-x_a, -x_g), (-x_aa, -x_ag, -x_gg))

    def __mul__(self, other):
        (x_a, x_g), (x_aa, x_ag, x_gg) = self.grad, self.hess
        x = self.value
        if not isinstance(other, Jet):
            c = other
            return Jet(x * c, (x_a * c, x_g * c), (x_aa * c, x_ag * c, x_gg * c))
        (y_a, y_g), (y_aa, y_ag, y_gg) = other.grad, other.hess
        y = other.value
        return Jet(
            x * y,
            (x_a * y + x * y_a, x_g * y + x * y_g),
            (
                x_aa * y + 2 * x_a * y_a + x * y_aa,
                x_ag * y + x_a * y_g + x_g * y_a + x * y_ag,
                x_gg * y + 2 * x_g * y_g + x * y_gg,
            ),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        # q = x / y: y q_i = x_i - q y_i and y q_ij = x_ij - q_i y_j - q_j y_i - q y_ij
        if not isinstance(other, Jet):
            other = Jet(other)
        (x_a, x_g), (x_aa, x_ag, x_gg) = self.grad, self.hess
        (y_a, y_g), (y_aa, y_ag, y_gg) = other.grad, other.hess
        y = other.value
        q = self.value / y
        q_a, q_g = (x_a - q * y_a) / y, (x_g - q * y_g) / y
        return Jet(
            q,
            (q_a, q_g),
            (
                (x_aa - 2 * q_a * y_a - q * y_aa) / y,
                (x_ag - q_a * y_g - q_g * y_a - q * y_ag) / y,
                (x_gg - 2 * q_g * y_g - q * y_gg) / y,
            ),
        )

    def __abs__(self):
        return -self if self.value < 0 else self

    def __lt__(self, other):
        return self.value < getattr(other, "value", other)

    def __le__(self, other):
        return self.value <= getattr(other, "value", other)

    def __ge__(self, other):
        return self.value >= getattr(other, "value", other)


def dynamics_step(
    s1: MarkovStrategy, s2: MarkovStrategy, state: StationaryState
) -> StationaryState:
    """Advance the cooperation probabilities by one round.

    Each player responds to the opponent's current cooperation probability:
    p_i' = gamma_i * p_j + alpha_i * (1 - p_j).
    """
    return StationaryState(
        p1=s1.gamma * state.p2 + s1.alpha * (1 - state.p2),
        p2=s2.gamma * state.p1 + s2.alpha * (1 - state.p1),
    )


def conditional_payoffs_compositional(
    alpha: float, gamma: float, matrix: PayoffMatrix = DEFAULT_MATRIX
) -> ConditionalPayoffs:
    """Substitute, call the game-layer stationary state, price it.

    The pure values are the ints 0 and 1, so ``Fraction``s and :class:`Jet`s
    go through exactly, and floats keep their bits.
    """
    opponent = MarkovStrategy(alpha, gamma)

    def u(own: MarkovStrategy) -> float:
        return expected_payoff(matrix, stationary_state(own, opponent))

    return ConditionalPayoffs(
        u_alpha0=u(MarkovStrategy(0, gamma)),
        u_alpha1=u(MarkovStrategy(1, gamma)),
        u_gamma0=u(MarkovStrategy(alpha, 0)),
        u_gamma1=u(MarkovStrategy(alpha, 1)),
    )


def gap_jets(alpha, gamma, matrix: PayoffMatrix = DEFAULT_MATRIX) -> tuple[Jet, Jet]:
    """The payoff gaps u_alpha1 - u_alpha0 and u_gamma1 - u_gamma0 as jets in (alpha, gamma)."""
    u = conditional_payoffs_compositional(*Jet.variables(alpha, gamma), matrix)
    return u.u_alpha1 - u.u_alpha0, u.u_gamma1 - u.u_gamma0


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


def template(fmt: str, *labels: str) -> str:
    """``fmt`` with ``labels`` in its ``{}`` fields, each ``%`` doubled so that ``%`` keeps it."""
    return fmt.format(*(label.replace("%", "%%") for label in labels))


def percent_rows(*columns) -> bytes:
    """The rows of ``columns`` as the ``%`` route writes them, in UTF-8.

    The columns are those of ``pdqre._rows.blocks``: literal text, a labelled
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
