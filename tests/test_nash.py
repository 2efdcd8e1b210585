"""Nash-curve tests: residuals, analytic gradient vs oracle, tracing."""

import math

import numpy as np
import pytest

from pdqre.game import DEFAULT_MATRIX, DegenerateChain, MarkovStrategy
from pdqre.nash import (
    curve_residual,
    own_payoff_gradient,
    own_payoff_gradient_fd,
    quadratic_residual,
    stationarity_curve_residual,
    stationarity_quadratic,
    trace_quadratic_curve,
    trace_stationarity_curve,
)

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
    assert quad(0.3, 0.4) == pytest.approx(quadratic_residual(0.3, 0.4), abs=1e-15)
    assert quad(0.3, 0.4, DEFAULT_MATRIX) == pytest.approx(
        quadratic_residual(0.3, 0.4), abs=1e-15
    )
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
