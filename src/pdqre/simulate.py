"""Seeded Monte Carlo play of the iterated prisoner's dilemma.

Serves as the stochastic oracle for the stationary-state closed forms and
validates the conditional-frequency estimator that the experimental data
table relies on.  Every run is reproducible from the config seed: one
PCG64 stream is spawned per player (plus one for pairings in group mode)
and all uniforms are pre-drawn, so logs are bit-stable across runs.

Neither mode loops over players or rounds in Python.  From round 2 on, a
move depends only on the player's own uniform and the partner's last move,
so the moves form reply chains, one per player, that prefix operations
solve (see :func:`_chain_moves`), with the same draws and the same strict
comparisons as a round-by-round loop.  A pair's two chains alternate
between the players (:func:`_reply_chains`); in group play a chain follows
the pairings from round to round (:func:`simulate_group`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .game import DEFAULT_MATRIX, MarkovStrategy, PayoffMatrix

__all__ = [
    "GameLog",
    "MarkovEstimate",
    "PooledLog",
    "SimulationConfig",
    "estimate_markov",
    "estimate_markov_pooled",
    "export_log",
    "simulate",
    "simulate_group",
]

GENERATOR_NAME = "PCG64"


def _check_burn_in(burn_in: int, rounds: int) -> None:
    """Reject a burn-in that is negative or leaves no rounds to summarize."""
    if not 0 <= burn_in < rounds:
        raise ValueError(f"burn-in must lie in [0, {rounds}), got {burn_in}")


def _player_column(player: int, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Player 1's or player 2's column of a pair log; no other player exists."""
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    return first if player == 1 else second


@dataclass(frozen=True)
class SimulationConfig:
    """Run length, seed, and the (otherwise unspecified) round-1 behavior."""

    rounds: int
    seed: int
    initial_coop_prob: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for p in self.initial_coop_prob:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"initial cooperation probability {p} outside [0, 1]")


@dataclass
class GameLog:
    """Per-round choices of one fixed pair (True = cooperate) and the matrix that prices them."""

    choices1: np.ndarray
    choices2: np.ndarray
    strategy1: MarkovStrategy
    strategy2: MarkovStrategy
    config: SimulationConfig
    matrix: PayoffMatrix = DEFAULT_MATRIX
    generator: str = GENERATOR_NAME

    def __post_init__(self):
        lengths = [len(self.choices1), len(self.choices2)]
        if any(n != self.config.rounds for n in lengths):
            raise ValueError(
                f"a log of {self.config.rounds} rounds needs choices of that length, got {lengths}"
            )

    @property
    def rounds(self) -> int:
        return len(self.choices1)

    @property
    def payoffs1(self) -> np.ndarray:
        return self.matrix.payoff(self.choices1, self.choices2)

    @property
    def payoffs2(self) -> np.ndarray:
        return self.matrix.payoff(self.choices2, self.choices1)

    def cooperation_rate(self, player: int = 1, burn_in: int = 0) -> float:
        choices = _player_column(player, self.choices1, self.choices2)
        _check_burn_in(burn_in, len(choices))
        return float(np.mean(choices[burn_in:]))

    def mean_payoff(self, player: int = 1, burn_in: int = 0) -> float:
        own = _player_column(player, self.choices1, self.choices2)
        other = _player_column(player, self.choices2, self.choices1)
        _check_burn_in(burn_in, len(own))
        return float(np.mean(self.matrix.payoff(own[burn_in:], other[burn_in:])))


@dataclass
class PooledLog:
    """One player's pooled rounds under group play with re-pairing.

    ``conditioning[t]`` is the opponent action the player responded to at
    round t (the round-t partner's previous move); index 0 is a placeholder
    since round 1 has no conditioning event.
    """

    player: int
    choices: np.ndarray
    conditioning: np.ndarray
    partners: np.ndarray
    payoffs: np.ndarray
    strategy: MarkovStrategy
    config: SimulationConfig
    generator: str = GENERATOR_NAME

    @property
    def rounds(self) -> int:
        return len(self.choices)

    def cooperation_rate(self, burn_in: int = 0) -> float:
        _check_burn_in(burn_in, len(self.choices))
        return float(np.mean(self.choices[burn_in:]))


@dataclass(frozen=True)
class MarkovEstimate:
    """Conditional-frequency estimate; None marks an absent conditioning event."""

    alpha: float | None
    gamma: float | None
    alpha_count: int
    gamma_count: int


def _swap_odd_columns(x: np.ndarray) -> np.ndarray:
    """A copy of the (2, rounds) array ``x`` with its rows swapped in odd columns.

    It maps the two players' moves to the two reply chains and back.
    """
    y = x.copy()
    y[:, 1::2] = x[::-1, 1::2]
    return y


def _chain_moves(after_d: np.ndarray, after_c: np.ndarray) -> np.ndarray:
    """The moves along reply chains, one chain per row, each step answering the one before.

    The (chains, steps) inputs hold each step's move after a defection and
    after a cooperation; in column 0 both hold the chain's first move.  Where
    the two agree the move is fixed (a reset); where they differ it copies
    or negates the last move, and it equals ``after_d ^ last``.  A move is
    then the XOR of ``after_d`` from the chain's last reset up to its step,
    read off one XOR prefix, and the last reset comes from a running maximum
    of reset indices.
    """
    d, c = after_d.ravel(), after_c.ravel()
    # column 0 is a reset in every row, so no chain reads across another
    prefix = np.logical_xor.accumulate(d)
    last_reset = np.maximum.accumulate(np.where(d != c, 0, np.arange(d.size)))
    return (prefix ^ (prefix ^ d)[last_reset]).reshape(after_d.shape)


def _reply_chains(after_d: np.ndarray, after_c: np.ndarray) -> np.ndarray:
    """Both players' moves of a pair match: row i of the (2, rounds) inputs is player i's.

    Swapping the rows in odd columns turns the moves into two chains, c1[0],
    c2[1], c1[2], ... and c2[0], c1[1], c2[2], ..., for :func:`_chain_moves`.
    """
    moves = _chain_moves(_swap_odd_columns(after_d), _swap_odd_columns(after_c))
    return _swap_odd_columns(moves)


def simulate(
    s1: MarkovStrategy,
    s2: MarkovStrategy,
    config: SimulationConfig,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
) -> GameLog:
    """Play one seeded match; round 1 uses the configured initial probabilities.

    A player cooperates at round t >= 2 when their uniform lies below
    gamma after an opponent's cooperation and below alpha after a
    defection.  Both comparisons are made for every round up front, and
    :func:`_reply_chains` threads the opponent's moves through them.
    """
    streams = np.random.SeedSequence(config.seed).spawn(2)
    u = np.stack([np.random.default_rng(stream).random(config.rounds) for stream in streams])
    after_d = u < np.array([[s1.alpha], [s2.alpha]])
    after_c = u < np.array([[s1.gamma], [s2.gamma]])
    after_d[:, 0] = after_c[:, 0] = u[:, 0] < np.asarray(config.initial_coop_prob)
    arr1, arr2 = _reply_chains(after_d, after_c)
    return GameLog(arr1, arr2, s1, s2, config, matrix=matrix)


def simulate_group(
    strategies: Sequence[MarkovStrategy],
    config: SimulationConfig,
    matrix: PayoffMatrix = DEFAULT_MATRIX,
) -> list[PooledLog]:
    """Group play with uniform random re-pairing each round.

    Every player responds to their current partner's previous-round action.
    Round 1 uses the first configured initial probability for all players.
    """
    n = len(strategies)
    if n < 2 or n % 2 != 0:
        raise ValueError(f"group play needs an even number of players >= 2, got {n}")
    rounds = config.rounds
    streams = np.random.SeedSequence(config.seed).spawn(n + 1)
    uniforms = np.column_stack(
        [np.random.default_rng(streams[i]).random(rounds) for i in range(n)]
    )
    pair_rng = np.random.default_rng(streams[n])
    # One pair_rng.permutation(n) per round, round 0 included, drawn row by row in round
    # order in one call: the draws of pair-by-pair play, so a seed keeps giving the same logs.
    perms = pair_rng.permuted(np.tile(np.arange(n), (rounds, 1)), axis=1)

    rows = np.arange(rounds)[:, None]
    partners = np.zeros((rounds, n), dtype=int)
    partners[rows, perms[:, 0::2]] = perms[:, 1::2]
    partners[rows, perms[:, 1::2]] = perms[:, 0::2]

    # chain k is at player order[t, k] in round t: order[0] is the identity and
    # order[t] = partners[t][order[t - 1]], a prefix composition of the pairings
    # done by doubling, in about log2(rounds) gathers
    order = partners.copy()
    order[0] = np.arange(n)
    step = 1
    while step < rounds:
        order[step:] = np.take_along_axis(order[step:], order[:-step], axis=1)
        step *= 2
    after_d = uniforms < np.array([s.alpha for s in strategies])
    after_c = uniforms < np.array([s.gamma for s in strategies])
    after_d[0] = after_c[0] = uniforms[0] < config.initial_coop_prob[0]
    choices = np.empty((rounds, n), dtype=bool)
    choices[rows, order] = _chain_moves(after_d[rows, order].T, after_c[rows, order].T).T
    conditioning = np.zeros((rounds, n), dtype=bool)
    conditioning[1:] = choices[rows[:-1], partners[1:]]
    payoffs = matrix.payoff(choices, choices[rows, partners])

    return [
        PooledLog(
            player=i,
            choices=choices[:, i].copy(),
            conditioning=conditioning[:, i].copy(),
            partners=partners[:, i].copy(),
            payoffs=payoffs[:, i].copy(),
            strategy=strategies[i],
            config=config,
        )
        for i in range(n)
    ]


def _conditional_frequency(own: np.ndarray, cond: np.ndarray) -> MarkovEstimate:
    gamma_count = int(np.sum(cond))
    alpha_count = int(np.sum(~cond))
    gamma = float(np.sum(own & cond) / gamma_count) if gamma_count else None
    alpha = float(np.sum(own & ~cond) / alpha_count) if alpha_count else None
    return MarkovEstimate(alpha, gamma, alpha_count, gamma_count)


def estimate_markov(log: GameLog) -> tuple[MarkovEstimate, MarkovEstimate]:
    """Conditional cooperation frequencies per player from a pair log.

    Round t >= 2 actions are conditioned on the opponent's round t-1 action;
    round 1 has no conditioning event and is excluded.
    """
    if log.rounds < 2:
        raise ValueError("estimation needs at least 2 rounds")
    est1 = _conditional_frequency(log.choices1[1:], log.choices2[:-1])
    est2 = _conditional_frequency(log.choices2[1:], log.choices1[:-1])
    return est1, est2


def estimate_markov_pooled(log: PooledLog) -> MarkovEstimate:
    """Conditional frequencies from a pooled group-play log."""
    if log.rounds < 2:
        raise ValueError("estimation needs at least 2 rounds")
    return _conditional_frequency(log.choices[1:], log.conditioning[1:])


def export_log(log: GameLog, path) -> None:
    """Write a pair log as CSV with key=value header metadata."""
    from ._rows import blocks, write  # on first use, so that importing pdqre compiles no renderer

    head = (
        f"# generator={log.generator}\n"
        f"# seed={log.config.seed}\n"
        f"# rounds={log.config.rounds}\n"
        f"# initial_coop_prob={log.config.initial_coop_prob[0]:.12g},"
        f"{log.config.initial_coop_prob[1]:.12g}\n"
        f"# strategy1={log.strategy1.alpha:.12g},{log.strategy1.gamma:.12g}\n"
        f"# strategy2={log.strategy2.alpha:.12g},{log.strategy2.gamma:.12g}\n"
        "round,choice1,choice2,payoff1,payoff2\n"
    )
    # one label per choice pair, code 2 * c1 + c2, priced as simulate prices a round
    c1, c2 = np.array([False, False, True, True]), np.array([False, True, False, True])
    p1, p2 = log.matrix.payoff(c1, c2).tolist(), log.matrix.payoff(c2, c1).tolist()
    labels = [f",{a},{b},{x:.12g},{y:.12g}\n" for a, b, x, y in zip("DDCC", "DCDC", p1, p2)]
    codes = 2 * log.choices1.view(np.uint8) + log.choices2.view(np.uint8)
    write(path, head, blocks(np.arange(1, log.rounds + 1), (labels, codes)))
