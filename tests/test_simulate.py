"""Simulator tests: determinism, degenerate strategies, estimator, group play."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqre._rows import CHUNK_ROWS
from pdqre.cli import main
from pdqre.game import DEFAULT_MATRIX, MarkovStrategy, PayoffMatrix
from pdqre.simulate import (
    GameLog,
    SimulationConfig,
    estimate_markov,
    estimate_markov_pooled,
    export_log,
    simulate,
    simulate_group,
)

ALWAYS_C = MarkovStrategy(1.0, 1.0)
ALWAYS_D = MarkovStrategy(0.0, 0.0)
TFT = MarkovStrategy(0.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(rounds=0, seed=1)
    with pytest.raises(ValueError):
        SimulationConfig(rounds=10, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(rounds=10, seed=2**64)
    with pytest.raises(ValueError):
        SimulationConfig(rounds=10, seed=1, initial_coop_prob=(1.5, 0.5))


def test_always_defect_pair():
    cfg = SimulationConfig(rounds=200, seed=3, initial_coop_prob=(0.0, 0.0))
    log = simulate(ALWAYS_D, ALWAYS_D, cfg)
    assert log.cooperation_rate(1) == 0.0
    assert log.cooperation_rate(2) == 0.0
    assert np.all(log.payoffs1 == 1.0)
    assert np.all(log.payoffs2 == 1.0)


def test_always_cooperate_pair():
    cfg = SimulationConfig(rounds=200, seed=3, initial_coop_prob=(1.0, 1.0))
    log = simulate(ALWAYS_C, ALWAYS_C, cfg)
    assert log.cooperation_rate(1) == 1.0
    assert log.cooperation_rate(2) == 1.0
    assert log.mean_payoff(1) == 5.0
    assert log.mean_payoff(2) == 5.0


def test_tft_pair_alternates_after_mixed_start():
    cfg = SimulationConfig(rounds=6, seed=11, initial_coop_prob=(1.0, 0.0))
    log = simulate(TFT, TFT, cfg)
    assert log.choices1.tolist() == [True, False, True, False, True, False]
    assert log.choices2.tolist() == [False, True, False, True, False, True]


def test_same_seed_reproduces_bitwise():
    cfg = SimulationConfig(rounds=1000, seed=2026)
    s = MarkovStrategy(0.3, 0.8)
    a = simulate(s, s, cfg)
    b = simulate(s, s, cfg)
    assert np.array_equal(a.choices1, b.choices1)
    assert np.array_equal(a.choices2, b.choices2)
    assert np.array_equal(a.payoffs1, b.payoffs1)


def test_different_seed_differs():
    s = MarkovStrategy(0.3, 0.8)
    a = simulate(s, s, SimulationConfig(rounds=1000, seed=1))
    b = simulate(s, s, SimulationConfig(rounds=1000, seed=2))
    assert not np.array_equal(a.choices1, b.choices1)


def test_players_draw_from_independent_streams():
    # identical strategies must not mirror each other's choices
    s = MarkovStrategy(0.5, 0.5)
    log = simulate(s, s, SimulationConfig(rounds=2000, seed=5))
    assert not np.array_equal(log.choices1, log.choices2)


def _manual_log(choices1, choices2):
    c1 = np.asarray(choices1, dtype=bool)
    c2 = np.asarray(choices2, dtype=bool)
    cfg = SimulationConfig(rounds=len(c1), seed=0)
    s = MarkovStrategy(0.5, 0.5)
    return GameLog(c1, c2, s, s, cfg)


def test_estimator_worked_example():
    # player C,D,C against opponent C,C,C: gamma-hat = 1/2, no alpha events
    log = _manual_log([1, 0, 1], [1, 1, 1])
    est1, est2 = estimate_markov(log)
    assert est1.gamma == pytest.approx(0.5, abs=1e-15)
    assert est1.alpha is None
    assert est1.gamma_count == 2
    assert est1.alpha_count == 0
    assert est2.gamma == pytest.approx(1.0, abs=1e-15)
    assert est2.alpha == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("short", ["choices1", "choices2", "all"])
def test_pair_log_rejects_arrays_of_another_length_than_its_rounds(short):
    names = ("choices1", "choices2")
    arrays = {n: np.zeros(5, dtype=bool) for n in names}
    for name in names if short == "all" else (short,):
        arrays[name] = arrays[name][:3]
    s = MarkovStrategy(0.5, 0.5)
    with pytest.raises(ValueError, match="log of 5 rounds"):
        GameLog(**arrays, strategy1=s, strategy2=s, config=SimulationConfig(rounds=5, seed=0))


def test_estimator_requires_two_rounds():
    with pytest.raises(ValueError):
        estimate_markov(_manual_log([1], [0]))


def test_estimator_recovers_markov_parameters():
    s = MarkovStrategy(0.2, 0.5)
    cfg = SimulationConfig(rounds=100_000, seed=20260815)
    log = simulate(s, s, cfg)
    est1, est2 = estimate_markov(log)
    for est in (est1, est2):
        assert est.alpha == pytest.approx(0.2, abs=0.015)
        assert est.gamma == pytest.approx(0.5, abs=0.015)
    # symmetric stationary cooperation rate is alpha / (1 + alpha - gamma)
    assert log.cooperation_rate(1, burn_in=100) == pytest.approx(2.0 / 7.0, abs=0.015)
    assert log.mean_payoff(1, burn_in=100) == pytest.approx(145.0 / 49.0, abs=0.05)


def test_burn_in_bounds_checked():
    log = simulate(ALWAYS_C, ALWAYS_C, SimulationConfig(rounds=5, seed=1))
    with pytest.raises(ValueError):
        log.cooperation_rate(1, burn_in=5)
    with pytest.raises(ValueError):
        log.mean_payoff(1, burn_in=9)
    with pytest.raises(ValueError):
        log.cooperation_rate(1, burn_in=-1)


@pytest.mark.parametrize("player", [0, 3, -1, "1"])
def test_pair_log_rejects_a_player_outside_one_and_two(player):
    log = simulate(ALWAYS_C, ALWAYS_D, SimulationConfig(rounds=5, seed=1))
    with pytest.raises(ValueError, match="player must be 1 or 2"):
        log.cooperation_rate(player)
    with pytest.raises(ValueError, match="player must be 1 or 2"):
        log.mean_payoff(player)


def test_group_play_requires_even_count():
    with pytest.raises(ValueError):
        simulate_group([ALWAYS_C, ALWAYS_C, ALWAYS_D], SimulationConfig(rounds=5, seed=1))


def test_group_play_pairing_invariants():
    strategies = [ALWAYS_C, ALWAYS_C, ALWAYS_D, ALWAYS_D]
    cfg = SimulationConfig(rounds=50, seed=99, initial_coop_prob=(1.0, 1.0))
    logs = simulate_group(strategies, cfg)
    assert len(logs) == 4
    for t in range(cfg.rounds):
        for i, log in enumerate(logs):
            j = int(log.partners[t])
            assert int(logs[j].partners[t]) == i  # pairing is symmetric
            if t >= 1:
                # the conditioning bit is the current partner's previous move
                assert log.conditioning[t] == logs[j].choices[t - 1]
            mine = log.choices[t]
            theirs = logs[j].choices[t]
            want = {
                (True, True): 5.0,
                (True, False): 0.0,
                (False, True): 10.0,
                (False, False): 1.0,
            }[(bool(mine), bool(theirs))]
            assert log.payoffs[t] == want
    # round 1 cooperates from the initial probability; then each plays its strategy
    assert [log.cooperation_rate() for log in logs] == [1.0, 1.0, 0.02, 0.02]
    assert [log.cooperation_rate(burn_in=1) for log in logs] == [1.0, 1.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        logs[0].cooperation_rate(burn_in=cfg.rounds)


def _stage_table(m):
    """(own, other) choices -> (own payoff, other payoff), read off the matrix."""
    return {
        (True, True): (m.reward_cc, m.reward_cc),
        (True, False): (m.sucker_cd, m.temptation_dc),
        (False, True): (m.temptation_dc, m.sucker_cd),
        (False, False): (m.punishment_dd, m.punishment_dd),
    }


def _pairwise_group_reference(strategies, config, matrix):
    """Group play pair by pair, one Python step per pair and round.

    The loop the vectorized round replaced, kept as the reference: same
    streams, same one permutation per round (round 0 included)."""
    n = len(strategies)
    streams = np.random.SeedSequence(config.seed).spawn(n + 1)
    uniforms = [np.random.default_rng(streams[i]).random(config.rounds) for i in range(n)]
    pair_rng = np.random.default_rng(streams[n])
    stage = _stage_table(matrix)
    choices = np.zeros((config.rounds, n), dtype=bool)
    conditioning = np.zeros((config.rounds, n), dtype=bool)
    partners = np.zeros((config.rounds, n), dtype=int)
    payoffs = np.zeros((config.rounds, n))
    for t in range(config.rounds):
        perm = pair_rng.permutation(n)
        for k in range(0, n, 2):
            i, j = int(perm[k]), int(perm[k + 1])
            for me, you in ((i, j), (j, i)):
                if t == 0:
                    choices[0, me] = uniforms[me][0] < config.initial_coop_prob[0]
                else:
                    cond = choices[t - 1, you]
                    conditioning[t, me] = cond
                    s = strategies[me]
                    choices[t, me] = uniforms[me][t] < (s.gamma if cond else s.alpha)
            partners[t, i], partners[t, j] = j, i
        for k in range(0, n, 2):
            i, j = int(perm[k]), int(perm[k + 1])
            payoffs[t, i], payoffs[t, j] = stage[(bool(choices[t, i]), bool(choices[t, j]))]
    return choices, conditioning, partners, payoffs


@pytest.mark.parametrize(
    "strategies,config,matrix",
    [
        (
            [MarkovStrategy(0.05 * k, 1.0 - 0.04 * k) for k in range(20)],
            SimulationConfig(rounds=2000, seed=4242),
            DEFAULT_MATRIX,
        ),
        (
            [MarkovStrategy(0.1, 0.9), MarkovStrategy(0.5, 0.5), MarkovStrategy(0.9, 0.1)] * 2,
            SimulationConfig(rounds=2000, seed=31, initial_coop_prob=(0.2, 0.9)),
            PayoffMatrix(reward_cc=3.0, sucker_cd=-2.0, temptation_dc=2.5, punishment_dd=0.5),
        ),
    ],
)
def test_group_play_matches_pairwise_reference(strategies, config, matrix):
    want = _pairwise_group_reference(strategies, config, matrix)
    logs = simulate_group(strategies, config, matrix)
    assert len(logs) == len(strategies)
    for i, log in enumerate(logs):
        got = (log.choices, log.conditioning, log.partners, log.payoffs)
        for name, g, w in zip(("choices", "conditioning", "partners", "payoffs"), got, want):
            assert np.array_equal(g, w[:, i]), f"player {i} {name}"


@pytest.mark.parametrize("n, rounds", [(2, 1000), (6, 333), (20, 5000)])
def test_group_pairings_are_one_permutation_per_round(n, rounds):
    # simulate_group draws every round's permutation in one call; the partners must be
    # those of one pair_rng.permutation(n) per round, round 0 included, in round order
    strategies = [MarkovStrategy(0.1 + 0.8 * k / n, 0.9 - 0.8 * k / n) for k in range(n)]
    config = SimulationConfig(rounds=rounds, seed=1000 * n + rounds)
    pair_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(n + 1)[n])
    partners = np.zeros((rounds, n), dtype=int)
    for t in range(rounds):
        perm = pair_rng.permutation(n)
        partners[t, perm[0::2]], partners[t, perm[1::2]] = perm[1::2], perm[0::2]
    want = _pairwise_group_reference(strategies, config, DEFAULT_MATRIX)
    for i, log in enumerate(simulate_group(strategies, config)):
        assert np.array_equal(log.partners, partners[:, i]), f"player {i}"
        got = (log.choices, log.conditioning, log.partners, log.payoffs)
        assert all(np.array_equal(g, w[:, i]) for g, w in zip(got, want)), f"player {i}"


def _pair_loop_reference(s1, s2, config, matrix):
    """Pair play one Python step per round over pre-drawn uniforms.

    The loop the two reply chains replaced, kept as the reference: same
    streams, same draws, same strict comparisons."""
    streams = np.random.SeedSequence(config.seed).spawn(2)
    u1 = np.random.default_rng(streams[0]).random(config.rounds).tolist()
    u2 = np.random.default_rng(streams[1]).random(config.rounds).tolist()
    c1 = u1[0] < config.initial_coop_prob[0]
    c2 = u2[0] < config.initial_coop_prob[1]
    choices1, choices2 = [c1], [c2]
    for t in range(1, config.rounds):
        c1, c2 = u1[t] < (s1.gamma if c2 else s1.alpha), u2[t] < (s2.gamma if c1 else s2.alpha)
        choices1.append(c1)
        choices2.append(c2)
    arr1 = np.asarray(choices1, dtype=bool)
    arr2 = np.asarray(choices2, dtype=bool)
    return arr1, arr2, matrix.payoff(arr1, arr2), matrix.payoff(arr2, arr1)


# 0 and 1 make a move fixed whatever the opponent did; the floats hit the rest
PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _markov_strategies(draw):
    alpha = draw(PROBABILITY)
    # gamma == alpha: every move is fixed, the chains are all resets
    return MarkovStrategy(alpha, draw(st.one_of(st.just(alpha), PROBABILITY)))


@settings(max_examples=80, deadline=None)
@given(
    s1=_markov_strategies(),
    s2=_markov_strategies(),
    initial=st.tuples(PROBABILITY, PROBABILITY),
    rounds=st.one_of(st.sampled_from([1, 2, 3, CHUNK_ROWS + 3]), st.integers(4, 300)),
    seed=st.integers(0, 2**64 - 1),
    matrix=st.sampled_from(
        [
            DEFAULT_MATRIX,
            PayoffMatrix(reward_cc=3.0, sucker_cd=-2.0, temptation_dc=2.5, punishment_dd=0.5),
        ]
    ),
)
def test_pair_play_matches_the_per_round_loop(s1, s2, initial, rounds, seed, matrix):
    config = SimulationConfig(rounds=rounds, seed=seed, initial_coop_prob=initial)
    log = simulate(s1, s2, config, matrix)
    want = _pair_loop_reference(s1, s2, config, matrix)
    for name, w in zip(("choices1", "choices2", "payoffs1", "payoffs2"), want):
        g = getattr(log, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        # byte for byte, so that -0.0 against 0.0 would count as a difference
        assert g.tobytes() == w.tobytes(), name


def test_pair_play_compares_strictly_at_a_tie():
    # a probability equal to the round's own uniform: u < p is false, so defect
    config = SimulationConfig(rounds=50, seed=12)
    u = np.random.default_rng(np.random.SeedSequence(12).spawn(2)[0]).random(50)
    for s1 in (MarkovStrategy(u[7], 1.0), MarkovStrategy(0.0, u[7]), MarkovStrategy(u[7], u[7])):
        s2 = MarkovStrategy(0.4, 0.6)
        log = simulate(s1, s2, config)
        want = _pair_loop_reference(s1, s2, config, DEFAULT_MATRIX)
        assert np.array_equal(log.choices1, want[0]) and np.array_equal(log.choices2, want[1])


def test_pair_payoffs_are_the_stage_payoffs_of_the_choices():
    m = PayoffMatrix(reward_cc=3.0, sucker_cd=-2.0, temptation_dc=2.5, punishment_dd=0.5)
    cfg = SimulationConfig(rounds=500, seed=6, initial_coop_prob=(0.2, 0.9))
    log = simulate(MarkovStrategy(0.3, 0.6), MarkovStrategy(0.7, 0.2), cfg, m)
    stage = _stage_table(m)
    pairs = list(zip(log.choices1.tolist(), log.choices2.tolist()))
    assert set(pairs) == set(stage)  # all four outcomes occur
    assert log.payoffs1.tolist() == [stage[c][0] for c in pairs]
    assert log.payoffs2.tolist() == [stage[c][1] for c in pairs]
    # each player's mean prices only that player's side of the rounds after burn-in
    assert log.mean_payoff(1, burn_in=7) == np.mean(log.payoffs1[7:])
    assert log.mean_payoff(2, burn_in=7) == np.mean(log.payoffs2[7:])


def test_group_play_deterministic():
    strategies = [MarkovStrategy(0.3, 0.7)] * 4
    cfg = SimulationConfig(rounds=100, seed=8)
    a = simulate_group(strategies, cfg)
    b = simulate_group(strategies, cfg)
    for la, lb in zip(a, b):
        assert np.array_equal(la.choices, lb.choices)
        assert np.array_equal(la.partners, lb.partners)


def test_pooled_estimator_recovers_parameters():
    strategies = [MarkovStrategy(0.3, 0.7)] * 6
    cfg = SimulationConfig(rounds=20_000, seed=17)
    logs = simulate_group(strategies, cfg)
    est = estimate_markov_pooled(logs[0])
    assert est.alpha == pytest.approx(0.3, abs=0.03)
    assert est.gamma == pytest.approx(0.7, abs=0.03)
    assert est.alpha_count + est.gamma_count == cfg.rounds - 1


def test_pooled_estimator_needs_two_rounds():
    logs = simulate_group([ALWAYS_C, ALWAYS_D], SimulationConfig(rounds=1, seed=1))
    with pytest.raises(ValueError, match="at least 2 rounds"):
        estimate_markov_pooled(logs[0])


def test_export_log_golden(tmp_path):
    cfg = SimulationConfig(rounds=3, seed=7, initial_coop_prob=(1.0, 0.0))
    log = simulate(ALWAYS_C, ALWAYS_D, cfg)
    out = tmp_path / "log.csv"
    export_log(log, out)
    want = (
        "# generator=PCG64\n"
        "# seed=7\n"
        "# rounds=3\n"
        "# initial_coop_prob=1,0\n"
        "# strategy1=1,1\n"
        "# strategy2=0,0\n"
        "round,choice1,choice2,payoff1,payoff2\n"
        "1,C,D,0,10\n"
        "2,C,D,0,10\n"
        "3,C,D,0,10\n"
    )
    assert out.read_text(encoding="utf-8") == want


def test_simulate_cli_log_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the log the per-round loop wrote; PCG64 draws, exact
    # comparisons and %.12g strings make it the same on every platform
    out = tmp_path / "log.csv"
    args = ["simulate", "--alpha1", "0.2", "--gamma1", "0.5", "--rounds", "100000", "--seed", "1"]
    assert main([*args, "--output", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "2e8e442829c61ba46674cfbae638a8150e937d67b43c07d6cb64d6af66066c25"
