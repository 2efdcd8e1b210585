"""Block writer against the per-row f-string route it replaces: same bytes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqre._rows import CHUNK_ROWS, labelled_blocks, template, write_blocks
from pdqre.cli import main
from pdqre.game import MarkovStrategy, PayoffMatrix
from pdqre.qre import objective_grid
from pdqre.simulate import GameLog, SimulationConfig, export_log, simulate

# Values whose .12g strings are easy to get wrong: signed zeros, non-finite
# values, subnormals, tiny and huge magnitudes and a sum with rounding error.
SPECIALS = [
    -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
    1e-30, 1e16, -1e16, 0.1 + 0.2, 1.0 / 3.0,
]


def _grid_oracle(a, g, f, clamped) -> bytes:
    """The objective-grid CSV as one f-string per row."""
    lines = ["alpha,gamma,objective,clamped"]
    lines.extend(
        f"{a[i]:.12g},{g[i]:.12g},{f[i]:.12g},{str(bool(clamped[i])).lower()}"
        for i in range(len(a))
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _export_log_oracle(log: GameLog) -> bytes:
    """A pair log CSV as one f-string per row."""
    lines = [
        f"# generator={log.generator}",
        f"# seed={log.config.seed}",
        f"# rounds={log.config.rounds}",
        f"# initial_coop_prob={log.config.initial_coop_prob[0]:.12g},"
        f"{log.config.initial_coop_prob[1]:.12g}",
        f"# strategy1={log.strategy1.alpha:.12g},{log.strategy1.gamma:.12g}",
        f"# strategy2={log.strategy2.alpha:.12g},{log.strategy2.gamma:.12g}",
        "round,choice1,choice2,payoff1,payoff2",
    ]
    payoffs1, payoffs2 = log.payoffs1, log.payoffs2
    for t in range(log.rounds):
        c1 = "C" if log.choices1[t] else "D"
        c2 = "C" if log.choices2[t] else "D"
        lines.append(f"{t + 1},{c1},{c2},{payoffs1[t]:.12g},{payoffs2[t]:.12g}")
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]),
    pool=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_writer_matches_per_row_route(tmp_path_factory, n, pool, seed):
    rng = np.random.default_rng(seed)
    values = np.array(SPECIALS + pool, dtype=np.float64)
    # the labelled column: each value's .12g string once, a row reads one by its code
    labels = np.array([format(v, ".12g") for v in values.tolist()], dtype=object)
    codes = rng.integers(0, len(values), n)
    # the value column mixes pool values with arbitrary bit patterns:
    # NaN payloads, subnormals and every exponent
    raw = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    dense = np.where(rng.random(n) < 0.5, values[rng.integers(0, len(values), n)], raw)

    want = "head\n" + "".join(f"{values[codes[t]]:.12g},{dense[t]:.12g}\n" for t in range(n))
    out = tmp_path_factory.mktemp("rows") / "rows.csv"
    write_blocks(out, "head\n", labelled_blocks("{},%.12g\n", (labels, codes), dense))
    assert out.read_bytes() == want.encode("utf-8")


def test_labels_holding_percent_signs_are_written_as_they_are(tmp_path):
    # a label's % is template text, never a conversion
    n = CHUNK_ROWS + 5
    flag = np.random.default_rng(3).random(n) < 0.5
    column = np.array(["50%,%(x)s", "%d%%s%,{}"], dtype=object), flag.view(np.uint8)
    out = tmp_path / "rows.csv"
    write_blocks(out, "%\n", labelled_blocks("{},%.12g\n", column, np.arange(n) + 0.5))
    want = "%\n" + "".join(
        f"{'%d%%s%' if flag[t] else '50%'},{'{}' if flag[t] else '%(x)s'},{t + 0.5:.12g}\n"
        for t in range(n)
    )
    assert out.read_bytes() == want.encode("utf-8")
    assert template("{},%.12g,{}", "1%", "%") % 0.25 == "1%,0.25,%"


def test_writer_rejects_columns_of_different_lengths(tmp_path):
    out = tmp_path / "rows.csv"
    column = np.array(["D", "C"], dtype=object), np.ones(3, dtype=np.uint8)
    with pytest.raises(ValueError, match="3 labelled rows but 4 rows of values"):
        write_blocks(out, "", labelled_blocks("%d,{}\n", column, np.zeros(4)))
    assert not out.exists()


def test_objective_grid_matches_per_row_route(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(
        ["objective-grid", "--rationality", "7.2", "--mesh", "301", "--output", str(out)]
    ) == 0
    capsys.readouterr()
    grid = objective_grid(7.2, 301)
    assert len(grid[0]) > CHUNK_ROWS  # the file spans more than one block
    assert out.read_bytes() == _grid_oracle(*grid)


@pytest.mark.parametrize("rationality", ["0", "7.2", "1e308"])
@pytest.mark.parametrize("mesh", [2, 3])
def test_objective_grid_rows_next_to_clamped_corners_match_per_row_route(
    tmp_path, capsys, rationality, mesh
):
    # every alpha row holds a clamped corner (mesh 2) or borders one (mesh 3)
    out = tmp_path / "grid.csv"
    argv = ["objective-grid", "--rationality", rationality, "--mesh", str(mesh)]
    assert main(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    grid = objective_grid(float(rationality), mesh)
    assert grid[3].any()
    assert out.read_bytes() == _grid_oracle(*grid)


def test_export_log_matches_per_row_route_across_blocks(tmp_path):
    cfg = SimulationConfig(rounds=CHUNK_ROWS + 1001, seed=5, initial_coop_prob=(0.3, 0.8))
    log = simulate(
        MarkovStrategy(0.2, 0.6), MarkovStrategy(0.7, 0.4), cfg, PayoffMatrix(temptation_dc=7.0)
    )
    out = tmp_path / "log.csv"
    export_log(log, out)
    assert out.read_bytes() == _export_log_oracle(log)


def test_export_log_matches_per_row_route_for_any_payoffs(tmp_path):
    # payoffs whose .12g strings are easy to get wrong; with every other payoff
    # negative, mutual cooperation pays -0.0
    awkward = (-0.0, 1e-30, 0.1 + 0.2, 1e16)
    n = CHUNK_ROWS + 2
    for seed, matrix in enumerate(
        [PayoffMatrix(*awkward), PayoffMatrix(-0.0, *(-v for v in awkward[1:]))]
    ):
        log = simulate(
            MarkovStrategy(0.1 + 0.2, 1.0 / 3.0),
            MarkovStrategy(0.0, 1.0),
            SimulationConfig(rounds=n, seed=2**64 - 1 - seed, initial_coop_prob=(1e-30, 0.5)),
            matrix,
        )
        assert len(set(zip(log.choices1.tolist(), log.choices2.tolist()))) == 4
        out = tmp_path / f"log{seed}.csv"
        export_log(log, out)
        assert out.read_bytes() == _export_log_oracle(log)
    assert b",C,C,-0,-0\n" in out.read_bytes()
