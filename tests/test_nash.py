"""Nash-curve tests: residuals, analytic gradient vs oracle, tracing."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import own_payoff_gradient_fd, stationarity_quadratic

from pdqre.game import DEFAULT_MATRIX, DegenerateChain, MarkovStrategy, PayoffMatrix
from pdqre.nash import (
    STATIONARITY_CONIC,
    _stationarity_conic,
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
    assert stationarity_quadratic(alpha, gamma) == pytest.approx(0.0, abs=1e-12)


def test_quadratics_differ_by_linear_alpha_term():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, g = rng.random(2)
        diff = stationarity_quadratic(a, g) - quadratic_residual(a, g)
        assert diff == pytest.approx(14.0 * a, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    for _ in range(300):
        own = MarkovStrategy(*rng.uniform(0.05, 0.95, 2))
        opp = MarkovStrategy(*rng.uniform(0.05, 0.95, 2))
        ga, gg = own_payoff_gradient(own, opp)
        fa, fg = own_payoff_gradient_fd(own, opp)
        assert ga == pytest.approx(fa, abs=1e-5)
        assert gg == pytest.approx(fg, abs=1e-5)


def test_gradient_at_boundary_uses_one_sided_steps():
    own = MarkovStrategy(0.0, 1.0)
    opp = MarkovStrategy(0.3, 0.7)
    ga, gg = own_payoff_gradient(own, opp)
    fa, fg = own_payoff_gradient_fd(own, opp)
    assert ga == pytest.approx(fa, abs=1e-4)
    assert gg == pytest.approx(fg, abs=1e-4)


def test_residual_vanishes_on_alpha_zero_edge():
    # with alpha = 0 the symmetric profile never cooperates, so gamma is inert
    for gamma in (0.2, 0.5, 0.8):
        assert stationarity_curve_residual(0.0, gamma) == pytest.approx(0.0, abs=1e-12)


def test_residual_vanishes_on_stationarity_curve_interior():
    # interior zero of the quadratic factor at gamma = 0.5
    alpha = (-7.0 + math.sqrt(84.0)) / 10.0
    assert stationarity_quadratic(alpha, 0.5) == pytest.approx(0.0, abs=1e-12)
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
    assert all(abs(stationarity_quadratic(p.alpha, p.gamma)) < 1e-10 for p in points)
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
    ],
    ids=["alpha-2", "alpha-nan", "gamma-negative", "gamma-nan"],
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
    return 5.0 * a**2 + 9.0 * g**2 - 14.0 * a * g - 10.0 * g + 1.0


def _stationarity(a, g):
    return 5.0 * a**2 + 9.0 * g**2 - 14.0 * a * g + 14.0 * a - 10.0 * g + 1.0


def test_conic_residuals_keep_the_bits_of_the_literal_expressions():
    # the stationarity curve is traced from this tuple; the published residual and
    # the oracle's C are evaluated term by term in the order of these literals
    assert STATIONARITY_CONIC == (5.0, -14.0, 14.0, 9.0, -10.0, 1.0)
    rng = np.random.default_rng(29)
    points = [*rng.random((100_000, 2)).tolist(), (0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.0, 1 / 9)]
    for f, literal in ((quadratic_residual, _published), (stationarity_quadratic, _stationarity)):
        got = np.array([f(a, g) for a, g in points])
        assert got.tobytes() == np.array([literal(a, g) for a, g in points]).tobytes()


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
