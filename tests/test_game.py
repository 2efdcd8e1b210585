"""Game-layer tests: payoffs, strategies, stationary state vs oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqre.game import (
    DEFAULT_MATRIX,
    DegenerateChain,
    MarkovStrategy,
    PayoffMatrix,
    StationaryState,
    dynamics_step,
    expected_payoff,
    stationary_state,
    stationary_state_iterative,
)


def test_default_matrix_is_prisoners_dilemma():
    assert DEFAULT_MATRIX.is_prisoners_dilemma()
    assert (
        DEFAULT_MATRIX.temptation_dc
        > DEFAULT_MATRIX.reward_cc
        > DEFAULT_MATRIX.punishment_dd
        > DEFAULT_MATRIX.sucker_cd
    )


def test_non_pd_ordering_detected():
    assert not PayoffMatrix(5.0, 0.0, 4.0, 1.0).is_prisoners_dilemma()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["reward_cc", "sucker_cd", "temptation_dc", "punishment_dd"])
def test_payoff_matrix_rejects_non_finite_payoffs(field, value):
    with pytest.raises(ValueError, match="payoffs must be finite"):
        PayoffMatrix(**{field: value})


@pytest.mark.parametrize("alpha,gamma", [(-0.1, 0.5), (0.5, 1.5), (2.0, 2.0)])
def test_strategy_validation(alpha, gamma):
    with pytest.raises(ValueError):
        MarkovStrategy(alpha, gamma)


def test_expected_payoff_pure_corners():
    m = DEFAULT_MATRIX
    assert expected_payoff(m, StationaryState(1.0, 1.0)) == m.reward_cc
    assert expected_payoff(m, StationaryState(1.0, 0.0)) == m.sucker_cd
    assert expected_payoff(m, StationaryState(0.0, 1.0)) == m.temptation_dc
    assert expected_payoff(m, StationaryState(0.0, 0.0)) == m.punishment_dd


def test_expected_payoff_closed_polynomial():
    # U(p1, p2) = -4 p1 p2 - p1 + 9 p2 + 1 for the default payoffs
    rng = np.random.default_rng(7)
    for _ in range(100):
        p1, p2 = rng.random(2)
        want = -4.0 * p1 * p2 - p1 + 9.0 * p2 + 1.0
        assert expected_payoff(DEFAULT_MATRIX, StationaryState(p1, p2)) == pytest.approx(
            want, abs=1e-12
        )


@pytest.mark.parametrize(
    "m", [DEFAULT_MATRIX, PayoffMatrix(reward_cc=3.0, sucker_cd=-2.0, temptation_dc=2.5)]
)
def test_payoff_form_on_arrays_matches_expected_payoff(m):
    own, other = np.random.default_rng(3).random((2, 500))
    got = m.payoff(own, other)
    assert got.shape == own.shape
    want = [expected_payoff(m, StationaryState(float(a), float(b))) for a, b in zip(own, other)]
    assert np.array_equal(got, want)


def test_stationary_symmetric_closed_form():
    # symmetric profile: p = alpha / (1 + alpha - gamma)
    s = MarkovStrategy(0.2, 0.5)
    state = stationary_state(s, s)
    assert state.p1 == pytest.approx(0.2 / 0.7, abs=1e-14)
    assert state.p2 == pytest.approx(0.2 / 0.7, abs=1e-14)


def test_stationary_fixed_point_property():
    s1 = MarkovStrategy(0.3, 0.8)
    s2 = MarkovStrategy(0.1, 0.6)
    state = stationary_state(s1, s2)
    nxt = dynamics_step(s1, s2, state)
    assert nxt.p1 == pytest.approx(state.p1, abs=1e-14)
    assert nxt.p2 == pytest.approx(state.p2, abs=1e-14)


def test_stationary_matches_iterative_oracle():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        a1, g1, a2, g2 = rng.random(4)
        s1, s2 = MarkovStrategy(a1, g1), MarkovStrategy(a2, g2)
        try:
            closed = stationary_state(s1, s2)
        except DegenerateChain:
            continue
        iterated = stationary_state_iterative(s1, s2)
        assert closed.p1 == pytest.approx(iterated.p1, abs=1e-10)
        assert closed.p2 == pytest.approx(iterated.p2, abs=1e-10)


def test_degenerate_chain_raises():
    # d1 * d2 = 1 requires |alpha - gamma| = 1 for both players
    tft = MarkovStrategy(0.0, 1.0)
    with pytest.raises(DegenerateChain):
        stationary_state(tft, tft)


def test_anti_reciprocator_pair_degenerate():
    perverse = MarkovStrategy(1.0, 0.0)
    with pytest.raises(DegenerateChain):
        stationary_state(perverse, perverse)


def test_tft_vs_anti_tft_not_degenerate():
    # d1 * d2 = -1 here, so the chain still has a unique fixed point
    state = stationary_state(MarkovStrategy(0.0, 1.0), MarkovStrategy(1.0, 0.0))
    assert state.p1 == pytest.approx(0.5, abs=1e-14)
    assert state.p2 == pytest.approx(0.5, abs=1e-14)


def test_iterative_start_independence():
    s1 = MarkovStrategy(0.4, 0.9)
    s2 = MarkovStrategy(0.2, 0.3)
    a = stationary_state_iterative(s1, s2, start=StationaryState(0.0, 0.0))
    b = stationary_state_iterative(s1, s2, start=StationaryState(1.0, 1.0))
    assert a.p1 == pytest.approx(b.p1, abs=1e-10)
    assert a.p2 == pytest.approx(b.p2, abs=1e-10)


def test_iterative_returns_its_last_state_at_max_iter():
    # three rounds do not settle this chain: the oracle returns where it stopped
    s1, s2 = MarkovStrategy(0.4, 0.9), MarkovStrategy(0.2, 0.3)
    state = StationaryState(0.5, 0.5)
    for _ in range(3):
        state = dynamics_step(s1, s2, state)
    assert stationary_state_iterative(s1, s2, max_iter=3) == state
    assert state.p1 != pytest.approx(stationary_state(s1, s2).p1, abs=1e-3)


@settings(max_examples=50, deadline=None)
@given(
    a1=st.floats(0.01, 0.99),
    g1=st.floats(0.01, 0.99),
    a2=st.floats(0.01, 0.99),
    g2=st.floats(0.01, 0.99),
)
def test_stationary_probabilities_in_unit_box(a1, g1, a2, g2):
    state = stationary_state(MarkovStrategy(a1, g1), MarkovStrategy(a2, g2))
    assert -1e-12 <= state.p1 <= 1.0 + 1e-12
    assert -1e-12 <= state.p2 <= 1.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
def test_payoff_within_matrix_range(p1, p2):
    u = expected_payoff(DEFAULT_MATRIX, StationaryState(p1, p2))
    assert DEFAULT_MATRIX.sucker_cd - 1e-12 <= u <= DEFAULT_MATRIX.temptation_dc + 1e-12


def test_payoff_matrix_is_frozen():
    with pytest.raises(AttributeError):
        DEFAULT_MATRIX.reward_cc = 6.0
