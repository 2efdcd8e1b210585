"""Oracles for the closed-form derivatives, the line search and the descent of the QRE solver.

The solver's Newton descent on the objective, and its Gauss-Newton form that
polishes the arc's crossings, use closed-form first and second derivatives
of sigma and of the objective.  Here they are checked against exact jets of
the game layer (``oracles.Jet`` on ``Fraction``s): the scalar route equals
the jets exactly on rationals, the stacked route meets a forward-error bound
at float points, and it keeps the bits of the scalar route where both exist.

Three search routes stay here as references:

- ``_line_search_per_element`` halves each element's step one trial at a
  time, on the kernel's sigma: the direct reference of ``qre._line_search``.
- ``_descend_per_element`` runs each element's Newton iteration on Python
  floats: the reference of the descent's loop, and the only test that kills
  the mutants it names.
- The derivative-free Nelder-Mead search that the descent replaced, seeded
  by ``scalar_route.seeds_via_objective_grid`` and polished by
  ``scalar_route.newton_polish``: the reference of what the descents find.
"""

import math
from dataclasses import astuple
from fractions import Fraction
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import Jet, conditional_payoffs_compositional, gap_jets
from scalar_route import clamped, keep_by_dedupe, newton_polish, seeds_via_objective_grid
from scipy.optimize import minimize

import pdqre._kernel
from pdqre._kernel import (
    _PART_COEFFS,
    _conditional_dens,
    _conditional_numerators,
    _conditional_utilities,
    _gap_derivatives,
    _sigma_derivatives,
    _sigma_vec,
)
from pdqre.game import DEFAULT_MATRIX, MarkovStrategy, PayoffMatrix, expected_payoff, stationary_state
from pdqre.qre import (
    CLAMP_EPS,
    DESCENT_GRAD_TOL,
    DESCENT_LOCAL_STEP,
    DESCENT_MAX_ITER,
    DESCENT_STEP_TOL,
    SolverConfig,
    _arc_frame,
    _degenerate_mask,
    _descend,
    _gap_gradients,
    _line_search,
    _objective_derivatives,
    conditional_payoffs,
    qre_objective,
    solve_qre,
)

OTHER_MATRIX = PayoffMatrix(reward_cc=4.0, sucker_cd=-1.5, temptation_dc=7.0, punishment_dd=0.5)


@st.composite
def _pd_matrices(draw):
    """Random prisoner's dilemmas: S < P < R < T with gaps in [0.1, 4]."""
    sucker = draw(st.floats(-2.0, 4.0))
    gaps = [draw(st.floats(0.1, 4.0)) for _ in range(3)]
    punish, reward, tempt = np.cumsum([sucker, *gaps])[1:].tolist()
    return PayoffMatrix(reward, sucker, tempt, punish)


_MATRICES = st.one_of(
    st.just(DEFAULT_MATRIX), st.just(PayoffMatrix(temptation_dc=7.0)), _pd_matrices()
)


def _same_bits(got, want, corner=False):
    """Arrays equal byte for byte, NaN payloads and -0.0 against 0.0 included.

    At a ``corner`` point, where a substituted chain is degenerate and 0/0
    makes NaNs, a NaN only has to meet a NaN: numpy does not fix which
    operand's NaN an operation passes on, and its loops for broadcast and for
    contiguous operands differ there.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if np.any(corner):
        got, want = (np.where(corner & np.isnan(v), np.nan, v) for v in (got, want))
    assert got.tobytes() == want.tobytes()


def _points(rng, size):
    """Arrays (lam, alpha, gamma).

    lam is uniform in [0, 1e5] or log-uniform in [1e-2, 1e5], and one in
    seven is 0, 1e5 or 1e308.  A point is uniform in the box, a node of the
    seed mesh (edges and corners included) or within 1e-2 of an edge.
    """
    lam = np.where(
        rng.random(size) < 0.5, rng.uniform(0.0, 1e5, size), 10.0 ** rng.uniform(-2, 5, size)
    )
    lam = np.where(rng.random(size) < 0.15, rng.choice([0.0, 1e5, 1e308], size), lam)
    uniform = rng.uniform(0.0, 1.0, (2, size))
    mesh = rng.integers(0, 81, (2, size)) / 80.0
    offset = rng.choice([-1.0, 1.0], (2, size)) * 10.0 ** rng.uniform(-12, -2, (2, size))
    near = rng.choice([0.0, 1.0], (2, size)) + offset
    kind = rng.integers(0, 3, size)
    x = np.clip(np.where(kind == 0, uniform, np.where(kind == 1, mesh, near)), 0.0, 1.0)
    return lam, x[0].copy(), x[1].copy()


def _pulled(alpha, gamma):
    """A point clipped into [0, 1]^2 on Python floats and pulled off a degenerate corner."""
    return clamped(min(max(alpha, 0.0), 1.0), min(max(gamma, 0.0), 1.0))[:2]


def _priced(lam, alpha, gamma, matrix):
    """sigma and F at points, from the kernel's sigma, as the line search prices them."""
    sigma = _sigma_vec(lam, alpha, gamma, matrix)
    r = sigma - (alpha, gamma)
    return sigma, r[0] * r[0] + r[1] * r[1]


def _line_search_per_element(lam, x, f, step, local, matrix):
    """``qre._line_search`` one element at a time, as (accepted, point, sigma, F, clipped).

    Each element tries t = 1, 1/2, ..., 1/1024 in turn and accepts the first
    trial x + t*step whose point, clipped by ``_pulled`` on Python floats, is
    inside the box on a ``local`` step or has F below ``f``; ``clipped``
    counts the clipped trials up to that one.  All trials are priced in one
    call of the kernel's sigma.  Where none is accepted, the last trial's.
    """
    ts = [0.5**k for k in range(11)]
    trials = [(a + t * da, g + t * dg) for a, g, da, dg in zip(*x.tolist(), *step.tolist()) for t in ts]
    pulled = [_pulled(a, g) for a, g in trials]
    point = np.array(pulled).T
    sigma, nf = _priced(np.repeat(lam, len(ts)), *point, matrix)
    ok, at, clipped = np.zeros(f.size, bool), np.zeros(f.size, int), np.zeros(f.size, np.int64)
    for n in range(f.size):
        for k in range(n * len(ts), (n + 1) * len(ts)):
            inside = pulled[k] == trials[k]
            clipped[n] += not inside
            at[n] = k
            if (local[n] and inside) or nf[k] < f[n]:
                ok[n] = True
                break
    return ok, point[:, at], sigma[:, at], nf[at], clipped


@settings(max_examples=10, deadline=None)
@given(matrix=_MATRICES, size=st.sampled_from([1, 40, 1000]), seed=st.integers(0, 2**32 - 1))
@example(matrix=DEFAULT_MATRIX, size=1500, seed=6)
def test_line_search_accepts_the_first_good_halving_bitwise(matrix, size, seed):
    # the one-call line search against a loop that halves each element's step one
    # trial at a time: which trial is accepted, its point, sigma and F, and the
    # clipped-trial counts, bit for bit.  Starts are uniform, mesh nodes (corners
    # included) or near an edge, with lambda from 0 to 1e308; steps of 1e-12 to 1
    # in each coordinate reach past the edges and into the corners; F to beat is
    # the start's, just above that of a random halving's trial (so later halvings
    # are taken too), 0 (no trial lowers it) or inf (every trial does)
    rng = np.random.default_rng(seed)
    lam, alpha, gamma = _points(rng, size)
    x = np.array([alpha, gamma])
    step = rng.choice([-1.0, 1.0], (2, size)) * 10.0 ** rng.uniform(-12.0, 0.0, (2, size))
    local = rng.random(size) < 0.5
    t = 0.5 ** rng.integers(0, 11, size)
    start_f, trial_f = (
        _priced(lam, *np.array([_pulled(a, g) for a, g in zip(*y.tolist())]).T, matrix)[1]
        for y in (x, x + t * step)
    )
    beat = (start_f, np.nextafter(trial_f, np.inf), np.zeros(size), np.full(size, np.inf))
    f = np.choose(rng.integers(0, 4, size), beat)
    got = _line_search(lam, x, f, step, local, matrix)
    ok, *want, clipped = _line_search_per_element(lam, x, f, step, local, matrix)
    _same_bits(got[0], ok)
    for part, same in zip(got[1:4], want):
        _same_bits(part[..., ok], same[..., ok])
    _same_bits(got[4], clipped)


@np.errstate(all="ignore")
def _descend_per_element(lam, alpha, gamma, matrix, gauss_newton):
    """``qre._descend`` with each element's shifted Newton step, stopping rules,
    clipped count and minimum test on Python floats; the derivatives and
    ``qre._line_search`` (checked above) price the moving elements at once.

    It is the one test that kills these mutants of ``qre._descend``:
    ``e_min > 0.0``, ``det > 0.0`` and the minimum test's ``> 0.0`` as
    ``>= 0.0``, ``live[~last[ok]]`` as ``live``, ``hess[::2].max(0)`` as
    ``.min(0)`` and ``clipped[live] +=`` as ``=``.
    """
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    x = np.array([_pulled(a, g) for a, g in zip(alpha.tolist(), gamma.tolist())]).T
    f, grad, hess = _objective_derivatives(lam, *x, matrix, gauss_newton=gauss_newton)
    clipped, live = np.zeros(lam.size, np.int64), range(lam.size)

    def e_min(n):
        h_aa, h_ag, h_gg = hess[:, n].tolist()
        return 0.5 * (h_aa + h_gg) - float(np.hypot(0.5 * (h_aa - h_gg), h_ag))

    for _ in range(DESCENT_MAX_ITER):
        moves = []
        for n in live:
            (g_a, g_g), (h_aa, h_ag, h_gg), low = grad[:, n].tolist(), hess[:, n].tolist(), e_min(n)
            mu = 0.0 if low > 0.0 else -2.0 * low
            h_aa, h_gg = h_aa + mu, h_gg + mu
            det = h_aa * h_gg - h_ag * h_ag
            if det > 0.0:
                step = ((-g_a * h_gg + g_g * h_ag) / det, (-g_g * h_aa + g_a * h_ag) / det)
                local = low > 0.0 and all(abs(s) <= DESCENT_LOCAL_STEP for s in step)
                last = low > 0.0 and all(abs(s) <= DESCENT_STEP_TOL for s in step)
                if gauss_newton or not last:
                    moves.append((n, step, local, last))
        if not moves:
            break
        at, step, local, last = (np.array(c) for c in zip(*moves))
        ok, point, _, _, n_clipped = _line_search(lam[at], x[:, at], f[at], step.T, local, matrix)
        clipped[at] += n_clipped
        x[:, at[ok]] = point[:, ok]
        f[at[ok]], grad[:, at[ok]], hess[:, at[ok]] = _objective_derivatives(
            lam[at[ok]], *point[:, ok], matrix, gauss_newton=gauss_newton
        )
        live = at[ok & ~last]

    def is_min(n):
        bound = DESCENT_GRAD_TOL * np.sqrt(np.maximum(1.0, hess[::2, n].max()))
        inside = lo < x[0, n] < hi and lo < x[1, n] < hi
        return np.abs(grad[:, n]).max() <= bound and inside and e_min(n) > 0.0

    return x[0], x[1], f, np.array([is_min(n) for n in range(lam.size)], bool), clipped


@settings(max_examples=5, deadline=None)
@given(matrix=_MATRICES, size=st.sampled_from([1, 40, 1000]), seed=st.integers(0, 2**32 - 1))
@example(matrix=DEFAULT_MATRIX, size=1500, seed=6)  # NaNs of other signs at corners
@example(matrix=PayoffMatrix(temptation_dc=7.0), size=300, seed=0)  # Gauss-Newton e_min of 0.0
def test_descent_runs_each_elements_iteration_on_its_own_bitwise(matrix, size, seed):
    # on the objective's Hessian and on the Gauss-Newton model that polishes
    # crossings: points, objectives, minimum flags and clipped-trial counts
    lam, alpha, gamma = _points(np.random.default_rng(seed), size)
    for gauss_newton in (False, True):
        got = _descend(lam, alpha, gamma, matrix, gauss_newton)
        want = _descend_per_element(lam, alpha, gamma, matrix, gauss_newton)
        for part, same in zip(got, want):
            _same_bits(part, same)


_UNIT_FRACTIONS = st.fractions(0, 1, max_denominator=10**6)
_RATIONAL_GAMES = st.builds(PayoffMatrix, *[st.fractions(-5, 10, max_denominator=1000)] * 4)


def _exact(matrix: PayoffMatrix) -> PayoffMatrix:
    """``matrix`` with its payoffs as the Fractions of their float values."""
    return PayoffMatrix(*map(Fraction, astuple(matrix)))


@settings(max_examples=30, deadline=None)
@given(matrix=_RATIONAL_GAMES, alpha=_UNIT_FRACTIONS, gamma=_UNIT_FRACTIONS)
@example(matrix=_exact(DEFAULT_MATRIX), alpha=Fraction(3, 10), gamma=Fraction(3, 5))
# next to the corner (0, 1): the smallest denominator is 2e-8, above the degeneracy threshold
@example(matrix=_exact(DEFAULT_MATRIX), alpha=Fraction(0), gamma=1 - Fraction(1, 10**8))
def test_scalar_route_is_the_jets_of_the_game_layer_exactly(matrix, alpha, gamma):
    # on Fractions the scalar route's payoffs and gap gradients are exact: they are
    # the values and first derivatives of jets through the game layer
    assume(abs(alpha - gamma) < 1)  # off the corners (0, 1) and (1, 0)
    u = conditional_payoffs_compositional(*Jet.variables(alpha, gamma), matrix)
    values = [v.value for v in u]
    gap_a, gap_g = u.u_alpha1 - u.u_alpha0, u.u_gamma1 - u.u_gamma0
    got = _conditional_utilities(alpha, gamma, matrix)
    assert got == values and [type(v) for v in got] == [Fraction] * 4
    assert list(vars(conditional_payoffs(alpha, gamma, matrix)).values()) == values
    assert list(conditional_payoffs_compositional(alpha, gamma, matrix)) == values
    grads = _gap_gradients(alpha, gamma, matrix)
    assert grads == [(gap_a.grad[0], gap_g.grad[0]), (gap_a.grad[1], gap_g.grad[1])]
    assert {type(v) for g in grads for v in g} == {Fraction}


#: float64's unit roundoff, and the absolute error of a result in the subnormal range.
_U, _TINY = 2.0**-53, 2.0**-1075

#: The constant C of the gap derivatives' bound C*u*M/d^(k+2).
_GAP_BOUND = 64


class _Rounded:
    """An exact value with a bound on the error of the float that a computation gives for it.

    A float +, - or * is exact to a relative u, or in the subnormal range an
    absolute 2**-1075; the operands' bounds carry through, as in a running
    error analysis (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., SIAM 2002, sec. 3.3).  A plain number is exact.  The bound is a
    float: its own rounding, a relative 1e-15 or so, is far inside the bound's slack.
    """

    __slots__ = ("value", "err")

    def __init__(self, value, err=0.0):
        self.value, self.err = Fraction(value), err

    @staticmethod
    def _rounded(value, err):
        return _Rounded(value, err + _U * (abs(value) + err) + _TINY)

    def __add__(self, other):
        o = other if isinstance(other, _Rounded) else _Rounded(other)
        return self._rounded(self.value + o.value, self.err + o.err)

    def __sub__(self, other):
        o = other if isinstance(other, _Rounded) else _Rounded(other)
        return self._rounded(self.value - o.value, self.err + o.err)

    def __rsub__(self, other):
        return _Rounded(other) - self

    def __mul__(self, other):
        o = other if isinstance(other, _Rounded) else _Rounded(other)
        err = abs(self.value) * o.err + abs(o.value) * self.err + self.err * o.err
        return self._rounded(self.value * o.value, err)

    __rmul__ = __mul__

    def holds(self, got) -> bool:
        return abs(Fraction(float(got)) - self.value) <= self.err


@pytest.mark.parametrize("matrix", [DEFAULT_MATRIX, OTHER_MATRIX], ids=["default", "other"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_stacked_derivatives_meet_a_forward_error_bound(matrix, seed):
    # The stacked route at float points, each taken exactly as a Fraction, against
    # exact jets of the game layer.  Each gap derivative of order k is within
    # C*u*M/d^(k+2) of the jet's, with M the largest payoff and d the smallest
    # chain denominator (d >= 1e-9 off the degenerate corners).  sigma's and F's
    # derivatives are the chain rule applied to the float sigma, checked against
    # that rule in exact arithmetic with the gap bounds and each float operation's
    # rounding carried through.
    lam, alpha, gamma = _points(np.random.default_rng(seed), 20)
    keep = ~_degenerate_mask(alpha, gamma) & (lam <= 1e5)
    lam, alpha, gamma = lam[keep], alpha[keep], gamma[keep]
    gap = _gap_derivatives(alpha, gamma, matrix)
    sigma, rows, hess_s = _sigma_derivatives(lam, alpha, gamma, matrix)
    objectives = {}
    for gauss_newton in (False, True):
        got = _objective_derivatives(lam, alpha, gamma, matrix, None, gauss_newton)
        # a caller's sigma, and the Gauss-Newton model, change no bit of what they share
        for part, same in zip(got, _objective_derivatives(lam, alpha, gamma, matrix, sigma, gauss_newton)):
            _same_bits(part, same)
        objectives[gauss_newton] = got
    for part, same in zip(objectives[False][:2], objectives[True][:2]):
        _same_bits(part, same)

    exact_matrix = _exact(matrix)
    big_m = max(map(abs, astuple(exact_matrix)))
    pairs = ((0, 0), (0, 1), (1, 1))
    for n in range(lam.size):
        a, g = Fraction(alpha[n]), Fraction(gamma[n])
        d = min(abs(den) for den in _conditional_dens(a, g))
        bounds = [_GAP_BOUND * _U * big_m / d ** (k + 2) for k in (1, 1, 2, 2, 2)]
        # ref_gap[i][j]: derivative j in (a, g, aa, ag, gg) of gap i
        ref_gap = [
            [_Rounded(v, b) for v, b in zip((*jet.grad, *jet.hess), bounds)]
            for jet in gap_jets(a, g, exact_matrix)
        ]
        assert all(ref_gap[i][j].holds(gap[j, i, n]) for i in range(2) for j in range(5))
        # sigma: w = lam*s*(1 - s), rows w*grad, Hessians w*hess + lam*w*(1 - 2s)*grad grad^T
        ref_rows, ref_hess = [], []
        for i in range(2):
            s, ref = _Rounded(sigma[i, n]), ref_gap[i]
            w = _Rounded(lam[n]) * s * (1.0 - s)
            v = _Rounded(lam[n]) * w * (1.0 - 2.0 * s)
            ref_rows.append([w * ref[j] for j in range(2)])
            ref_hess.append([w * ref[2 + p] + v * ref[j] * ref[k] for p, (j, k) in enumerate(pairs)])
            assert all(ref_rows[i][j].holds(rows[i, j, n]) for j in range(2))
            assert all(ref_hess[i][p].holds(hess_s[i, p, n]) for p in range(3))
        # F = |r|^2 with r = sigma - x, grad 2 J^T r and Hessian 2 J^T J (+ 2 sum r_i hess sigma_i)
        r = [_Rounded(sigma[0, n]) - a, _Rounded(sigma[1, n]) - g]
        jac = [[ref_rows[i][j] - (1.0 if i == j else 0.0) for j in range(2)] for i in range(2)]
        for gauss_newton, (f, grad, hess) in objectives.items():
            assert (r[0] * r[0] + r[1] * r[1]).holds(f[n])
            assert all((2.0 * (jac[0][j] * r[0] + jac[1][j] * r[1])).holds(grad[j, n]) for j in range(2))
            for p, (j, k) in enumerate(pairs):
                h = jac[0][j] * jac[0][k] + jac[1][j] * jac[1][k]
                if not gauss_newton:
                    h = h + r[0] * ref_hess[0][p] + r[1] * ref_hess[1][p]
                assert (2.0 * h).holds(hess[p, n])


@settings(max_examples=20, deadline=None)
@given(matrix=_MATRICES, seed=st.integers(0, 2**32 - 1))
def test_array_route_keeps_the_bits_of_the_scalar_route(matrix, seed):
    # where both routes exist, the stacked utilities and gap gradients are the
    # scalar route's, bit for bit; off the corners, where Python floats raise on 0/0
    _, alpha, gamma = _points(np.random.default_rng(seed), 200)
    keep = ~_degenerate_mask(alpha, gamma)
    alpha, gamma = alpha[keep], gamma[keep]
    points = list(zip(alpha.tolist(), gamma.tolist()))
    scalar_u = np.array([_conditional_utilities(a, g, matrix) for a, g in points]).reshape(-1, 4)
    _same_bits(_conditional_utilities(alpha, gamma, matrix), scalar_u.T)
    scalar_grads = np.array([_gap_gradients(a, g, matrix) for a, g in points]).reshape(-1, 2, 2)
    _same_bits(_gap_derivatives(alpha, gamma, matrix, hessians=False), scalar_grads.transpose(1, 2, 0))


# The float-constant expressions that the integer constants replaced.


def _float_dens(alpha, gamma):
    d = alpha - gamma
    return (1.0 + gamma * d, 1.0 - (1.0 - gamma) * d, 1.0 - alpha * d, 1.0 - (alpha - 1.0) * d)


def _float_numerators(alpha, gamma):
    aa, ag = alpha * alpha, alpha * gamma
    p1_g0 = alpha - aa
    p2_g = p1_g0 + ag
    return ((ag, alpha), (1.0 - alpha + ag, gamma), (p1_g0, p2_g), (2.0 * alpha - aa, p2_g))


def _float_payoff(m, own, other):
    return (
        m.reward_cc * own * other
        + m.sucker_cd * own * (1.0 - other)
        + m.temptation_dc * (1.0 - own) * other
        + m.punishment_dd * (1.0 - own) * (1.0 - other)
    )


def _float_stationary_state(s1, s2):
    d1 = s1.alpha - s1.gamma
    d2 = s2.alpha - s2.gamma
    denom = 1.0 - d1 * d2
    return (s1.alpha - s2.alpha * d1) / denom, (s2.alpha - s1.alpha * d2) / denom


@settings(max_examples=30, deadline=None)
@given(matrix=_MATRICES, seed=st.integers(0, 2**32 - 1))
def test_integer_constants_keep_the_float_bits(matrix, seed):
    # ints in place of float constants change no bit on floats or float arrays
    _, alpha, gamma = _points(np.random.default_rng(seed), 200)
    routes = (
        (_conditional_dens, _float_dens),
        (_conditional_numerators, _float_numerators),
        (matrix.payoff, partial(_float_payoff, matrix)),
    )
    for route, float_route in routes:
        _same_bits(route(alpha, gamma), float_route(alpha, gamma))
    keep = ~_degenerate_mask(alpha, gamma)
    points = list(zip(alpha[keep].tolist(), gamma[keep].tolist()))[:20]
    for a, g in points:
        for route, float_route in routes:
            _same_bits(route(a, g), float_route(a, g))
        s1, s2 = MarkovStrategy(a, g), MarkovStrategy(g, a * 0.5)
        state = stationary_state(s1, s2)
        _same_bits((state.p1, state.p2), _float_stationary_state(s1, s2))
    grads = [_gap_gradients(a, g, matrix) for a, g in points]
    with patch.object(pdqre._kernel, "_PART_ROWS", _PART_COEFFS.tolist()):
        _same_bits(grads, [_gap_gradients(a, g, matrix) for a, g in points])


@pytest.mark.parametrize(
    "matrix", [DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7)], ids=["default", "int7"]
)
def test_float_callers_stay_on_python_floats(matrix):
    # the arc is traced on Python floats: numpy scalars would make a frame
    # several times slower
    h, grad, lam, dlam, point = _arc_frame((0.3, -1.2), matrix)
    assert all(type(v) is float for v in (h, *grad, lam, dlam, *point))
    assert all(type(v) is float for g in _gap_gradients(0.3, 0.6, matrix) for v in g)
    payoffs = conditional_payoffs(0.3, 0.6, matrix)
    assert all(type(v) is float for v in vars(payoffs).values())
    assert type(qre_objective(2.0, 0.3, 0.6, matrix)) is float
    state = stationary_state(MarkovStrategy(0.3, 0.6), MarkovStrategy(0.2, 0.9))
    assert type(state.p1) is type(state.p2) is type(expected_payoff(matrix, state)) is float
    # Fractions in, Fractions out, but for sigma's math.exp: the objective and the
    # arc's frames stay on floats
    exact, a, g = _exact(matrix), Fraction(3, 10), Fraction(3, 5)
    assert {type(v) for grad in _gap_gradients(a, g, exact) for v in grad} == {Fraction}
    assert {type(v) for v in vars(conditional_payoffs(a, g, exact)).values()} == {Fraction}
    state = stationary_state(MarkovStrategy(a, g), MarkovStrategy(Fraction(1, 5), Fraction(9, 10)))
    assert type(state.p1) is type(state.p2) is type(expected_payoff(exact, state)) is Fraction
    assert type(qre_objective(2.0, a, g, exact)) is float
    h, grad, lam, dlam, point = _arc_frame((Fraction(3, 10), Fraction(-6, 5)), exact)
    assert all(type(v) is float for v in (h, *grad, lam, dlam, *point))


def _utilities_per_state(alpha, gamma, matrix):
    """The four substituted payoffs, one ``payoff`` call per state."""
    pairs = zip(_conditional_numerators(alpha, gamma), _conditional_dens(alpha, gamma))
    return np.array([matrix.payoff(n1 / den, n2 / den) for (n1, n2), den in pairs])


@pytest.mark.parametrize("shape", [(), (0,), (1,), (40,), (513,), (6601,), (3, 7), (10, 2, 5)])
@pytest.mark.parametrize("matrix", [DEFAULT_MATRIX, OTHER_MATRIX], ids=["default", "other"])
def test_conditional_utilities_are_one_stack_on_every_array_shape(shape, matrix):
    # an array of any size or shape takes the one stacked payoff call, with the
    # bits of a call per state; mesh nodes, edges and degenerate corners included
    n = math.prod(shape)
    _, alpha, gamma = (v.reshape(shape) for v in _points(np.random.default_rng(n), n))
    with np.errstate(all="ignore"):
        got = _conditional_utilities(alpha, gamma, matrix)
        want = _utilities_per_state(alpha, gamma, matrix)
    assert isinstance(got, np.ndarray) and got.shape == (4, *shape)
    _same_bits(got, want, _degenerate_mask(alpha.reshape(-1), gamma.reshape(-1)).reshape(shape))
    # Python floats stay on the float route: four floats, no numpy call
    u = _conditional_utilities(0.3, 0.6, matrix)
    assert [type(v) for v in u] == [float] * 4


# --- the Nelder-Mead route the descent replaced, kept as the reference -----


def _objective_safe(lam, alpha, gamma, matrix):
    alpha, gamma, _ = clamped(alpha, gamma)
    return qre_objective(lam, alpha, gamma, matrix)


def _is_local_min(lam, alpha, gamma, f0, matrix, h=1e-5):
    """Probe the 8 clipped neighbours of a point for a lower objective."""
    for da in (-h, 0.0, h):
        for dg in (-h, 0.0, h):
            na = min(max(alpha + da, 0.0), 1.0)
            ng = min(max(gamma + dg, 0.0), 1.0)
            if (na, ng) == (alpha, gamma):
                continue
            if _objective_safe(lam, na, ng, matrix) < f0 - 1e-12:
                return False
    return True


def _nelder_mead(lam, seed, matrix):
    x, ok = seed, False
    for _ in range(2):
        r = minimize(
            lambda z: _objective_safe(lam, z[0], z[1], matrix),
            x,
            method="Nelder-Mead",
            bounds=[(0.0, 1.0), (0.0, 1.0)],
            options={"xatol": 1e-9, "fatol": 1e-14, "maxfev": 800},
        )
        x, ok = (float(r.x[0]), float(r.x[1])), bool(r.success)
        if ok:
            break
    return x[0], x[1], float(r.fun), ok


def _nelder_mead_route(lam, matrix=DEFAULT_MATRIX):
    """Accepted points and candidates of a solve whose local search is Nelder-Mead."""
    cfg = SolverConfig()
    exact, cands = [], []
    for seed in seeds_via_objective_grid(lam, cfg, matrix):
        na, ng, nf = newton_polish(lam, seed, matrix)
        if nf < cfg.accept_tol:
            exact.append((na, ng, nf))
            if max(abs(na - seed[0]), abs(ng - seed[1])) <= 0.05:
                continue
        ma, mg, mf, ok = _nelder_mead(lam, seed, matrix)
        na, ng, nf = newton_polish(lam, (ma, mg), matrix)
        moved = max(abs(na - ma), abs(ng - mg))
        if nf < cfg.accept_tol and moved <= cfg.merge_tol:
            exact.append((na, ng, nf))
        elif not ok:
            continue
        elif nf < cfg.accept_tol:
            exact.append((na, ng, nf))
            cands.append((ma, mg, mf))
        elif mf <= nf or moved > cfg.merge_tol:
            cands.append((ma, mg, mf))
        else:
            cands.append((na, ng, nf))
    exact, cands = keep_by_dedupe(exact, cands, cfg)
    return sorted(exact), sorted(c for c in cands if _is_local_min(lam, *c, matrix))


@pytest.mark.parametrize("lam", [0.5, 2.0, 4.0, 5.5, 7.0, 9.6, 9.7, 20.0, 100.0])
def test_descent_finds_what_nelder_mead_found(lam):
    want_exact, want_cands = _nelder_mead_route(lam)
    points = solve_qre(lam)
    exact = [(p.alpha, p.gamma) for p in points if p.accepted]
    cands = [(p.alpha, p.gamma, p.objective) for p in points if not p.accepted]
    print(f"lambda={lam:g}: accepted={exact} candidates={cands}")
    assert len(exact) == len(want_exact)
    for (a, g), (wa, wg, _) in zip(exact, want_exact):
        assert max(abs(a - wa), abs(g - wg)) <= 1e-9
    assert len(cands) == len(want_cands)
    for got, want in zip(cands, want_cands):
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-6


def test_extra_candidate_is_a_strict_local_minimum():
    # At lambda = 7.09 the descent reports the defect-regime candidate one
    # grid step before Nelder-Mead did; the neighbour probe confirms it.
    lam = 7.09
    _, nelder_mead_cands = _nelder_mead_route(lam)
    extra = [p for p in solve_qre(lam) if not p.accepted]
    assert nelder_mead_cands == []
    assert len(extra) == 1
    p = extra[0]
    print(f"lambda={lam:g}: ({p.alpha:.6f}, {p.gamma:.6f}) objective={p.objective:.4e}")
    assert (p.alpha, p.gamma) == pytest.approx((0.13681, 0.21432), abs=1e-5)
    assert _is_local_min(lam, p.alpha, p.gamma, p.objective, DEFAULT_MATRIX)


def test_descent_does_not_report_a_saddle():
    # Plain Newton on grad F = 0 from between the root and the candidate of
    # lambda = 4 lands on the saddle that separates their basins.
    lam, (a, g) = 4.0, (0.25, 0.7)
    for _ in range(30):
        _, grad, (h_aa, h_ag, h_gg) = _objective_derivatives(lam, a, g, DEFAULT_MATRIX)
        step = np.linalg.solve([[h_aa, h_ag], [h_ag, h_gg]], [-grad[0], -grad[1]])
        a, g = a + step[0], g + step[1]
    f, grad, (h_aa, h_ag, h_gg) = _objective_derivatives(lam, a, g, DEFAULT_MATRIX)
    assert max(map(abs, grad)) < 1e-12
    assert h_aa * h_gg - h_ag * h_ag < 0.0  # indefinite: a saddle
    assert 0.0 < f < SolverConfig().candidate_ceiling
    is_min = _descend(np.array([lam]), np.array([a]), np.array([g]), DEFAULT_MATRIX)[3]
    assert is_min.tolist() == [False]
    # nor a root of the coordination game exactly CLAMP_EPS from the alpha = 0 edge,
    # though its gradient is small and its Hessian positive definite
    edge = [np.array([v]) for v in (37.005831, CLAMP_EPS, 0.4999999583684448)]
    alpha, _, _, is_min, _ = _descend(*edge, PayoffMatrix(1.0, 0.0, 0.0, 1.0))
    assert alpha.tolist() == [CLAMP_EPS] and is_min.tolist() == [False]
    candidates = [p for p in solve_qre(lam) if not p.accepted]
    assert all(max(abs(p.alpha - a), abs(p.gamma - g)) > 1e-3 for p in candidates)
