"""The batched solve: (rationality, seed) pairs stacked into arrays.

``solve_qre`` and ``sweep_lambda`` run the same private batched solve.  It
is checked against the per-seed scalar route it replaced (``scalar_route``),
and for leaks between the rationalities that share one stack of arrays.
"""

import functools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
from scalar_route import seeds_via_objective_grid, solve_scalar

import pdqre.qre
from pdqre.game import DEFAULT_MATRIX, PayoffMatrix
from pdqre.qre import (
    NoSolution,
    SolverConfig,
    _seeds,
    _solve,
    conditional_payoffs_compositional,
    logit_response,
    solve_qre,
    sweep_lambda,
)

PANEL = [0.0, 2.0, 4.0, 5.2, 5.5, 7.09, 9.6, 9.62, 9.7, 20.0, 100.0]


def _solve_alone(lam, matrix=DEFAULT_MATRIX):
    """Points and clipped descent trials of ``solve_qre`` at one rationality."""
    diag = {}
    try:
        points = solve_qre(lam, matrix=matrix, diagnostics=diag)
    except NoSolution as err:
        points = err.candidates
    return points, diag["clamped_evals"]


_cached_alone = functools.lru_cache(maxsize=None)(_solve_alone)


def _oracle_residual(lam, point, matrix):
    """|sigma(x) - x| at a point, from the compositional payoffs."""
    u = conditional_payoffs_compositional(point.alpha, point.gamma, matrix)
    ra = logit_response(lam, u.u_alpha1, u.u_alpha0) - point.alpha
    rg = logit_response(lam, u.u_gamma1, u.u_gamma0) - point.gamma
    return math.hypot(ra, rg)


def _bits(points):
    """Every field of each point, floats by bit pattern, branch labels aside."""
    return [
        (p.lam.hex(), p.alpha.hex(), p.gamma.hex(), p.objective.hex(), p.accepted, p.start_count)
        for p in points
    ]


@pytest.mark.parametrize(
    "matrix", [DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7.0)], ids=["default", "temptation7"]
)
@pytest.mark.parametrize("lam", PANEL)
def test_batched_solve_matches_the_scalar_route(lam, matrix):
    # numpy's exp and libm's differ in the last bits, so the points agree
    # within tolerances, and the counts exactly.  The scalar route polishes
    # every seed, so its start counts are not the solve's.
    want, _ = solve_scalar(lam, SolverConfig(), matrix)
    got, _ = _solve_alone(lam, matrix)
    for accepted in (True, False):
        w = [p for p in want if p.accepted is accepted]
        g = [p for p in got if p.accepted is accepted]
        assert len(g) == len(w), (accepted, g, w)
        for p, q in zip(g, w):
            moved = max(abs(p.alpha - q.alpha), abs(p.gamma - q.gamma))
            if accepted and (q.alpha, q.gamma) == (0.5, 1.0):
                # The scalar route accepts the edge seed (1/2, 1) itself, with F = 0
                # exactly, outside [CLAMP_EPS, 1 - CLAMP_EPS].  Only T = 7 at lambda 100
                # has it; the solve reports the arc's root next to it, which must
                # pass the oracle's residual bound.
                assert (lam, matrix) == (100.0, PayoffMatrix(temptation_dc=7.0))
                bound = math.sqrt(SolverConfig().accept_tol)
                assert moved <= 1e-7 and _oracle_residual(lam, p, matrix) <= bound, (p, q)
            elif accepted:
                assert moved <= 1e-11 and abs(p.objective - q.objective) <= 1e-25, (p, q)
            else:
                assert moved <= 1e-9, (p, q)
                assert abs(p.objective - q.objective) <= 1e-10 * q.objective, (p, q)


@settings(max_examples=10, deadline=None)
@given(lams=st.lists(st.sampled_from(PANEL), min_size=1, unique=True))
@example(lams=PANEL)
@example(lams=PANEL[::-1])
def test_no_rationality_leaks_into_another_in_the_stack(lams):
    solved = _solve(lams, SolverConfig(), DEFAULT_MATRIX)
    for lam, (points, _, _, clamped_evals) in zip(lams, solved):
        want, want_clamped = _cached_alone(lam)
        assert _bits(points) == _bits(want), lam
        assert clamped_evals == want_clamped, lam

    grid = sorted(lams)
    sweep = sweep_lambda(grid)
    for lam in grid:
        assert _bits([p for p in sweep.points if p.lam == lam]) == _bits(_cached_alone(lam)[0])
    total = sweep.diagnostics["clamped_evals"]
    assert type(total) is int  # the report goes through json.dumps
    assert total == sum(_cached_alone(lam)[1] for lam in grid)


def test_a_grid_split_into_several_stacks_matches_single_solves(monkeypatch):
    # A 9 x 9 seed mesh closes a stack at 81 pairs, so this grid needs several.
    monkeypatch.setattr(pdqre.qre, "SEED_GRID_SIZE", 9)
    stacks = []

    def spy(stack, cfg, matrix):
        stacks.append(len(stack))
        return solve_stack(stack, cfg, matrix)

    solve_stack = pdqre.qre._solve_stack
    monkeypatch.setattr(pdqre.qre, "_solve_stack", spy)
    grid = [0.1 * k for k in range(100)]
    sweep = sweep_lambda(grid)
    assert len(stacks) > 2 and sum(stacks) == len(grid)
    # the arc's root at lambda 9.6, which the coarse mesh misses, is in the
    # single solve too, so every point is compared
    for lam in grid:
        assert _bits([p for p in sweep.points if p.lam == lam]) == _bits(_solve_alone(lam)[0])
    assert [p.lam for p in sweep.main_branch] == grid


def test_seeds_from_the_priced_mesh_equal_the_objective_grid_route(monkeypatch):
    # The matrices alternate, so the one-entry mesh cache is rebuilt at every
    # call, and the first 9 x 9 call finds the 81 x 81 mesh of its matrix cached.
    cfg = SolverConfig()
    lams = [0.0, 1e-3, 2.0, 5.2, 5.5, 7.08, 7.09, 9.62, 20.0, 100.0, 1e5, 1e308]
    matrices = [DEFAULT_MATRIX, PayoffMatrix(temptation_dc=7.0)]
    for size in (pdqre.qre.SEED_GRID_SIZE, 9):
        monkeypatch.setattr(pdqre.qre, "SEED_GRID_SIZE", size)
        for lam in lams:
            for matrix in matrices:
                want = seeds_via_objective_grid(lam, cfg, matrix)
                assert _seeds(lam, cfg, matrix) == want, (size, lam, matrix)
        matrices.reverse()
    for array in pdqre.qre._seed_mesh(9, DEFAULT_MATRIX):
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_sweep_prices_the_seed_mesh_once(monkeypatch):
    # a sweep's stack holds at most 40 seeds per rationality, so no
    # array but the mesh has SEED_GRID_SIZE**2 elements here
    sizes = []
    price = pdqre.qre._conditional_utilities

    def spy(alpha, gamma, matrix):
        sizes.append(np.size(alpha))
        return price(alpha, gamma, matrix)

    pdqre.qre._seed_mesh.cache_clear()
    monkeypatch.setattr(pdqre.qre, "_conditional_utilities", spy)
    sweep_lambda([0.025 * k for k in range(161)])
    assert sizes.count(pdqre.qre.SEED_GRID_SIZE**2) == 1
