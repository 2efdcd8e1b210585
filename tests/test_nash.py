"""Nash-curve tests: residuals, tracing, and the analytic gradient against the
exact jet of the game layer's stationary payoff (``oracles.Jet`` on ``Fraction``s)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import Jet

from pdqre.game import (
    DEFAULT_MATRIX,
    DegenerateChain,
    MarkovStrategy,
    PayoffMatrix,
    expected_payoff,
    stationary_state,
)
from pdqre.nash import (
    QUADRATIC_CONIC,
    STATIONARITY_CONIC,
    _conic_residual,
    _stationarity_conic,
    _trace_columns,
    curve_residual,
    own_payoff_gradient,
    quadratic_residual,
    stationarity_curve_residual,
    trace_quadratic_curve,
    trace_stationarity_curve,
)
from pdqre.qre import QrePoint, SolverConfig, label_branch

SHARED_ZEROS = [(0.0, 1.0 / 9.0), (0.0, 1.0)]


@pytest.mark.parametrize("alpha,gamma", SHARED_ZEROS)
def test_both_quadratics_share_edge_zeros(alpha, gamma):
    assert quadratic_residual(alpha, gamma) == pytest.approx(0.0, abs=1e-12)
    assert _conic_residual(STATIONARITY_CONIC, alpha, gamma) == pytest.approx(0.0, abs=1e-12)


def test_quadratics_differ_by_linear_alpha_term():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, g = rng.random(2)
        diff = _conic_residual(STATIONARITY_CONIC, a, g) - quadratic_residual(a, g)
        assert diff == pytest.approx(14.0 * a, abs=1e-12)


_UNIT_FRACTIONS = st.fractions(0, 1, max_denominator=10**6)


@settings(max_examples=40, deadline=None)
@given(
    matrix=st.builds(PayoffMatrix, *[st.fractions(-5, 10, max_denominator=1000)] * 4),
    own=st.tuples(_UNIT_FRACTIONS, _UNIT_FRACTIONS),
    opponent=st.tuples(_UNIT_FRACTIONS, _UNIT_FRACTIONS),
)
@example(
    matrix=PayoffMatrix(*map(Fraction, (5, 0, 10, 1))),
    own=(Fraction(1, 5), Fraction(9, 10)),
    opponent=(Fraction(3, 4), Fraction(1, 3)),
)
# own (0, 1) is on the box's edge, where one-sided differences were the check: (-1/6, -1/6)
@example(
    matrix=PayoffMatrix(*map(Fraction, (5, 0, 10, 1))),
    own=(Fraction(0), Fraction(1)),
    opponent=(Fraction(3, 10), Fraction(7, 10)),
)
def test_gradient_is_the_jet_of_the_stationary_payoff_exactly(matrix, own, opponent):
    # asymmetric pairs and any rational game: on Fractions the gradient is the
    # exact derivative of the payoff through the game layer's stationary state
    assume(abs((own[0] - own[1]) * (opponent[0] - opponent[1])) < 1)
    payoff = expected_payoff(
        matrix, stationary_state(MarkovStrategy(*Jet.variables(*own)), MarkovStrategy(*opponent))
    )
    grad = own_payoff_gradient(MarkovStrategy(*own), MarkovStrategy(*opponent), matrix)
    assert grad == payoff.grad
    assert [type(v) for v in grad] == [Fraction, Fraction]


def test_residual_vanishes_on_alpha_zero_edge():
    # with alpha = 0 the symmetric profile never cooperates, so gamma is inert
    for gamma in (0.2, 0.5, 0.8):
        assert stationarity_curve_residual(0.0, gamma) == pytest.approx(0.0, abs=1e-12)


def test_residual_vanishes_on_stationarity_curve_interior():
    # interior zero of the quadratic factor at gamma = 0.5
    alpha = (-7.0 + math.sqrt(84.0)) / 10.0
    assert _conic_residual(STATIONARITY_CONIC, alpha, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert stationarity_curve_residual(alpha, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_residual_nonzero_on_published_curve_interior():
    # the published quadratic's interior points are not gradient-stationary
    points = [p for p in trace_quadratic_curve(np.arange(0.15, 1.0, 0.05)) if p.alpha > 0.01]
    assert points
    for p in points:
        assert abs(p.stationarity_residual) > 1e-3


def test_trace_quadratic_anchors_and_gap():
    gammas = np.arange(0.0, 1.0 + 1e-12, 0.001)
    points = trace_quadratic_curve(gammas)
    assert all(p.gamma >= 0.099 for p in points)
    for p in points:
        assert abs(quadratic_residual(p.alpha, p.gamma)) < 1e-10
    by_dist = sorted(points, key=lambda p: p.alpha**2 + (p.gamma - 1.0 / 9.0) ** 2)
    assert by_dist[0].alpha < 0.01 and abs(by_dist[0].gamma - 1.0 / 9.0) < 0.01
    top = sorted(points, key=lambda p: p.alpha**2 + (p.gamma - 1.0) ** 2)
    assert top[0].alpha < 0.01 and abs(top[0].gamma - 1.0) < 0.01


def test_trace_stationarity_high_branch_only():
    points = trace_stationarity_curve(np.arange(0.0, 1.0 + 1e-12, 0.01))
    assert points
    # the low root enters the square only at the gamma=1 tangency, where the
    # two roots coincide at alpha=0
    for p in points:
        if p.branch == "low":
            assert p.alpha == pytest.approx(0.0, abs=1e-9)
            assert p.gamma == pytest.approx(1.0, abs=1e-12)
    assert all(p.alpha < 0.3 for p in points)
    assert all(abs(_conic_residual(STATIONARITY_CONIC, p.alpha, p.gamma)) < 1e-10 for p in points)
    assert min(p.gamma for p in points) == pytest.approx(1.0 / 9.0, abs=0.01)
    assert max(p.gamma for p in points) == pytest.approx(1.0, abs=0.01)


def test_curve_residual_dispatch():
    quad = curve_residual("quadratic")
    stat = curve_residual("stationarity")
    assert quad is quadratic_residual
    with pytest.raises(TypeError):  # the residual is bound to its game
        quad(0.3, 0.4, DEFAULT_MATRIX)
    assert stat(0.3, 0.4) == pytest.approx(
        stationarity_curve_residual(0.3, 0.4), abs=1e-15
    )
    # (0, 1) against itself is a degenerate chain: the residual itself raises,
    # the selected function reads NaN
    with pytest.raises(DegenerateChain):
        stationarity_curve_residual(0.0, 1.0)
    assert math.isnan(stat(0.0, 1.0))
    with pytest.raises(ValueError):
        curve_residual("cubic")


@pytest.mark.parametrize(
    "alpha, gamma, message",
    [
        (2.0, 0.5, "alpha must lie in \\[0, 1\\], got 2.0"),
        (math.nan, 0.5, "alpha must lie in \\[0, 1\\], got nan"),
        (0.5, -1e-300, "gamma must lie in \\[0, 1\\], got -1e-300"),
        (0.5, math.nan, "gamma must lie in \\[0, 1\\], got nan"),
        (-1e-300, 1 / 9, "alpha must lie in \\[0, 1\\], got -1e-300"),  # on both curves
    ],
    ids=["alpha-2", "alpha-nan", "gamma-negative", "gamma-nan", "alpha-negative-near-nash"],
)
def test_both_residuals_refuse_a_point_outside_the_square(alpha, gamma, message):
    # one ValueError from either curve, so that no branch label depends on the curve choice
    for residual in (quadratic_residual, stationarity_curve_residual):
        with pytest.raises(ValueError, match=message):
            residual(alpha, gamma)
    for choice in ("quadratic", "stationarity"):
        with pytest.raises(ValueError, match=message):
            label_branch(QrePoint(6.0, alpha, gamma, 0.0, True), SolverConfig(curve_choice=choice))
    assert quadratic_residual(1.0, 0.0) == 6.0 and quadratic_residual(0.0, 1.0) == 0.0


def test_curve_residual_prices_the_game_it_was_given():
    t7 = PayoffMatrix(temptation_dc=7.0)
    got = curve_residual("stationarity", t7)(0.3, 0.4)
    assert got == stationarity_curve_residual(0.3, 0.4, t7)
    assert got != stationarity_curve_residual(0.3, 0.4)


def test_stationarity_conic_is_the_default_games():
    want = (5.0, -14.0, 14.0, 9.0, -10.0, 1.0)
    assert np.array(STATIONARITY_CONIC).tobytes() == np.array(want).tobytes()


def _published(a, g):
    return 5.0 * (a * a) + 9.0 * (g * g) - 14.0 * a * g - 10.0 * g + 1.0


def test_conic_residuals_keep_the_bits_of_the_literal_expressions():
    # the published residual is evaluated term by term in the order of this literal,
    # squaring by x * x
    rng = np.random.default_rng(29)
    points = [*rng.random((100_000, 2)).tolist(), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 1 / 9)]
    got = np.array([quadratic_residual(a, g) for a, g in points])
    assert got.tobytes() == np.array([_published(a, g) for a, g in points]).tobytes()
    # the array route squares by x * x too, so its column keeps the same bits; Python's **
    # (libm's pow, which need not round correctly) gave other bits on 66 of these points
    column = _conic_residual(QUADRATIC_CONIC, *np.array(points).T)
    assert column.tobytes() == np.array([_published(a, g) for a, g in points]).tobytes()


def _prisoners_dilemma(sucker, gaps):
    """The game S < P < R < T whose successive payoffs are ``gaps`` apart."""
    punishment = sucker + gaps[0]
    reward = punishment + gaps[1]
    return PayoffMatrix(reward, sucker, reward + gaps[2], punishment)


def _conic(coeffs, a, g):
    aa, ag, a1, gg, g1, one = coeffs
    return aa * a * a + ag * a * g + a1 * a + gg * g * g + g1 * g + one


@settings(max_examples=300, deadline=None)
@given(
    matrix=st.builds(
        _prisoners_dilemma,
        st.floats(-5.0, 5.0),
        st.lists(st.floats(0.01, 5.0), min_size=3, max_size=3),
    ),
    alpha=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 1.0),
)
@example(matrix=DEFAULT_MATRIX, alpha=0.3, gamma=0.4)
@example(matrix=DEFAULT_MATRIX, alpha=0.0, gamma=1.0 / 9.0)
def test_gradient_at_the_symmetric_profile_is_the_conic_over_d(matrix, alpha, gamma):
    # at (a, g) against itself the own-payoff gradient is ((1 - g) C, a C) / D with
    # D = (a - g - 1)(a - g + 1)^3, off the degenerate corners (1, 0) and (0, 1)
    d = alpha - gamma
    assume(1.0 - abs(d) >= 1e-6)
    conic = _stationarity_conic(matrix)
    c, big_d = _conic(conic, alpha, gamma), (d - 1.0) * (d + 1.0) ** 3
    profile = MarkovStrategy(alpha, gamma)
    grad = own_payoff_gradient(profile, profile, matrix)
    # the gradient sums payoffs over the squared chain denominator 1 - d^2
    payoffs = [abs(v) for v in vars(matrix).values()]
    size = max(payoffs) / (1.0 - d * d) ** 2
    assert abs(grad[0] - (1.0 - gamma) * c / big_d) <= 1e-13 * size
    assert abs(grad[1] - alpha * c / big_d) <= 1e-13 * size
    # on the alpha = 0 edge C vanishes at gamma = 1 and at gamma = (P - S) / (T - P)
    r, s, t, p = matrix.reward_cc, matrix.sucker_cd, matrix.temptation_dc, matrix.punishment_dd
    for root in (1.0, (p - s) / (t - p)):
        terms = abs(conic[3]) * root**2 + abs(conic[4]) * root + abs(conic[5])
        assert abs(_conic(conic, 0.0, root)) <= 1e-13 * terms


@settings(max_examples=300, deadline=None)
@given(
    matrix=st.builds(
        _prisoners_dilemma,
        st.fractions(-5, 5, max_denominator=1000),
        st.lists(st.fractions(Fraction(1, 100), 5, max_denominator=1000), min_size=3, max_size=3),
    ),
    alpha=st.fractions(0, 1, max_denominator=10**6),
    gamma=st.fractions(0, 1, max_denominator=10**6),
)
@example(matrix=PayoffMatrix(*map(Fraction, (5, 0, 10, 1))), alpha=Fraction(3, 10), gamma=Fraction(2, 5))
def test_gradient_at_the_symmetric_profile_is_the_conic_over_d_exactly(matrix, alpha, gamma):
    # on Fractions the gradient is exact: ((1 - g) C, a C) / D with D = (a - g - 1)(a - g + 1)^3
    d = alpha - gamma
    assume(abs(d) < 1)
    c, big_d = _conic(_stationarity_conic(matrix), alpha, gamma), (d - 1) * (d + 1) ** 3
    profile = MarkovStrategy(alpha, gamma)
    grad = own_payoff_gradient(profile, profile, matrix)
    assert grad == ((1 - gamma) * c / big_d, alpha * c / big_d)
    assert [type(v) for v in grad] == [Fraction, Fraction]


@pytest.mark.parametrize(
    "gammas, shown",
    [
        (lambda: np.array([0.5, 2.0]), "2.0"),
        (lambda: [0.5, 2.0, -1.0], "2.0"),
        (lambda: (g for g in (0.5, -1.0)), "-1.0"),
        (lambda: np.array([0.5, np.nan]), "nan"),
        (lambda: [1e-300, -1e-300], "-1e-300"),
    ],
    ids=["array", "list", "generator", "nan", "negative"],
)
def test_trace_names_the_first_gamma_outside_the_square_as_a_float(gammas, shown):
    for trace in (trace_quadratic_curve, trace_stationarity_curve):
        with pytest.raises(ValueError, match=rf"^gamma must lie in \[0, 1\], got {shown}$"):
            trace(gammas())


@pytest.mark.parametrize(
    "gammas",
    [
        lambda: [1],
        lambda: np.array([0.5, 1.0]),
        lambda: np.array([0, 1]),
        lambda: (g for g in (0.2, 0.5, 1)),
    ],
    ids=["int", "array", "int-array", "generator"],
)
def test_traced_points_hold_python_floats_and_strs(gammas):
    for trace in (trace_quadratic_curve, trace_stationarity_curve):
        points = trace(gammas())
        assert points
        for p in points:
            assert [type(v) for v in vars(p).values()] == [float, float, str, float, float]


def test_trace_columns_read_an_array_in_place(monkeypatch):
    # an array is not read element by element (np.fromiter); a list still is,
    # with the same columns
    gammas = np.linspace(0.0, 1.0, 1001)
    want = _trace_columns(gammas.tolist(), STATIONARITY_CONIC)

    def fromiter(*args, **kwargs):
        raise AssertionError("an array read element by element")

    monkeypatch.setattr(np, "fromiter", fromiter)
    got = _trace_columns(gammas, STATIONARITY_CONIC)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def _per_point_columns(gammas, conic):
    """The columns of ``conic``'s trace, one gamma at a time on Python floats.

    This is the per-point route that ``_trace_columns`` replaced, built from
    ``math.sqrt`` and the scalar residuals.  It runs the same formulas in the
    same order, so it pins the columns' bits; it is no independent check of
    the formulas, which the exact gradient tests give
    (``test_gradient_is_the_jet_of_the_stationary_payoff_exactly`` and
    ``test_gradient_at_the_symmetric_profile_is_the_conic_over_d_exactly``).
    """
    aa, ag, a, gg, g, one = conic
    rows = []
    for gamma in gammas:
        b = a * (1.0 - gamma) + (a + ag) * gamma
        disc = b * b - 4.0 * aa * (gg * (gamma * gamma) + g * gamma + one)
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        for high, alpha in enumerate(((-b - root) / (2.0 * aa), (-b + root) / (2.0 * aa))):
            if -1e-12 <= alpha <= 1.0 + 1e-12:
                alpha = min(max(alpha, 0.0), 1.0) + 0.0
                try:
                    stationarity = stationarity_curve_residual(alpha, gamma)
                except DegenerateChain:
                    stationarity = math.nan
                rows.append((alpha, gamma, high, quadratic_residual(alpha, gamma), stationarity))
    return np.array(rows, dtype=float).reshape(-1, 5).T


def _band_conic(low, high):
    """A conic whose roots in alpha are ``low`` and ``high`` (to rounding) at every gamma."""
    return (1.0, 0.0, -(low + high), 0.0, 0.0, low * high)


def _discriminant_roots(conic):
    """The gammas in [0, 1] where the conic's two roots in alpha meet."""
    aa, ag, a, gg, g, one = conic
    roots = np.roots([ag * ag - 4 * aa * gg, 2 * a * ag - 4 * aa * g, a * a - 4 * aa * one])
    return [r.real for r in roots if r.imag == 0 and 0.0 <= r.real <= 1.0]


@settings(max_examples=200, deadline=None)
@given(
    conic=st.one_of(
        st.sampled_from([QUADRATIC_CONIC, STATIONARITY_CONIC]),
        st.builds(
            _stationarity_conic,
            st.builds(
                _prisoners_dilemma,
                st.floats(-5.0, 5.0),
                st.lists(st.floats(0.01, 5.0), min_size=3, max_size=3),
            ),
        ),
        # roots in and next to the clamp bands [-1e-12, 0) and (1, 1 + 1e-12]
        st.builds(_band_conic, st.floats(-2e-12, 0.0), st.floats(1.0, 1.0 + 2e-12)),
    ),
    grid=st.lists(st.floats(0.0, 1.0), max_size=40),
    ulps=st.lists(st.integers(-64, 64), max_size=8),
)
@example(conic=STATIONARITY_CONIC, grid=[1.0, 1.0 / 9.0, 0.5], ulps=[0])
@example(conic=_band_conic(-1e-12, 1.0 + 1e-12), grid=[0.5], ulps=[])
@example(conic=STATIONARITY_CONIC, grid=[0.7348932986219016], ulps=[])  # pow(gamma, 2) rounds apart from gamma * gamma
def test_trace_columns_keep_the_bits_of_the_per_point_route(conic, grid, ulps):
    # gamma = 1 is a degenerate chain on both curves, and a NaN cell; the
    # gammas next to a discriminant root are where the two roots meet
    near = [min(max(r + k * math.ulp(r), 0.0), 1.0) for r in _discriminant_roots(conic) for k in ulps]
    gammas = [*grid, *near, 1.0]
    got = _trace_columns(gammas, conic)
    assert got[2].dtype == np.intp
    want = _per_point_columns(gammas, conic)
    assert [c.astype(float).tobytes() for c in got] == [c.tobytes() for c in want]


def test_trace_columns_reach_the_degenerate_corner_and_the_clamp_bands():
    # the cases the property above must cover: a NaN residual at (0, 1), and roots
    # clamped from either band, with the roots just past the bands dropped
    alpha, gamma, high, quadratic, stationarity = _trace_columns([1.0], STATIONARITY_CONIC)
    assert (alpha.tolist(), gamma.tolist(), high.tolist()) == ([0.0, 0.0], [1.0, 1.0], [0, 1])
    assert np.isnan(stationarity).all() and quadratic.tolist() == [0.0, 0.0]
    assert _trace_columns([0.5], _band_conic(-5e-13, 1.0 + 5e-13))[0].tolist() == [0.0, 1.0]
    assert _trace_columns([0.5], _band_conic(-2e-12, 1.0 + 2e-12))[0].size == 0
    assert _discriminant_roots(STATIONARITY_CONIC) == pytest.approx([1.0])
    assert _discriminant_roots(QUADRATIC_CONIC) == pytest.approx([0.0992], abs=1e-4)
