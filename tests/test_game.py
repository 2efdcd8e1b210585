"""Game-layer tests: payoffs, strategies and the closed-form stationary state.

The stationary state is checked as the fixed point of the one-round map
(``oracles.dynamics_step``): exactly on ``Fraction``s, to rounding on floats.
Where |d1*d2| < 1 that map contracts (spectral radius sqrt|d1*d2|), so its
fixed point is the state that iterating it would reach.
"""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import dynamics_step

from pdqre.game import (
    DEFAULT_MATRIX,
    DegenerateChain,
    MarkovStrategy,
    PayoffMatrix,
    StationaryState,
    expected_payoff,
    stationary_state,
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


def test_oracles_build_on_the_game_layer_alone():
    # an oracle that imported the route it checks would check nothing
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert {m for m in modules if m.split(".")[0] == "pdqre"} == {"pdqre.game"}


def test_scalar_route_shares_no_routine_of_the_solver():
    # the solver's references import the game layer and, of the solver, only public
    # names that their docstring lists with a reason: no kernel, seed scan or clip
    tree = ast.parse(Path(__file__).with_name("scalar_route.py").read_text())
    plain = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    assert not [module for module in plain if module.split(".")[0] == "pdqre"]
    names = {
        (n.module, a.name)
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module.split(".")[0] == "pdqre"
        for a in n.names
    }
    assert {module for module, _ in names} == {"pdqre.game", "pdqre.qre"}
    assert not [name for _, name in names if name.startswith("_")]
    solver = {name for module, name in names if module == "pdqre.qre"}
    listed = {"QrePoint", "objective_grid", "SEED_GRID_SIZE", "CLAMP_EPS", "DESCENT_MAX_ITER"}
    listed |= {"DESCENT_LOCAL_STEP", "DESCENT_STEP_TOL", "DESCENT_GRAD_TOL"}
    assert solver <= listed and all(f"``{name}``" in ast.get_docstring(tree) for name in solver)


_UNIT_FRACTIONS = st.fractions(0, 1, max_denominator=10**6)


@settings(max_examples=30, deadline=None)
@given(
    s1=st.builds(MarkovStrategy, _UNIT_FRACTIONS, _UNIT_FRACTIONS),
    s2=st.builds(MarkovStrategy, _UNIT_FRACTIONS, _UNIT_FRACTIONS),
    matrix=st.builds(PayoffMatrix, *[st.fractions(-5, 10, max_denominator=1000)] * 4),
)
def test_stationary_state_is_the_exact_fixed_point_on_fractions(s1, s2, matrix):
    # on rationals the closed form is exact: one round of the dynamics leaves it
    # where it is, and it and its payoff are Fractions
    assume(abs((s1.alpha - s1.gamma) * (s2.alpha - s2.gamma)) < 1)
    state = stationary_state(s1, s2)
    assert dynamics_step(s1, s2, state) == state
    u = expected_payoff(matrix, state)
    assert [type(v) for v in (state.p1, state.p2, u)] == [Fraction] * 3


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
