"""Block writer against the per-row f-string route it replaces: same bytes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdqre._rows import CHUNK_ROWS, distinct_g12, flags, fuse, labelled_blocks, template, write_blocks
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
    for t in range(log.rounds):
        c1 = "C" if log.choices1[t] else "D"
        c2 = "C" if log.choices2[t] else "D"
        lines.append(
            f"{t + 1},{c1},{c2},{log.payoffs1[t]:.12g},{log.payoffs2[t]:.12g}"
        )
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
    labelled = values[rng.integers(0, len(values), n)]
    # the dense column mixes pool values with arbitrary bit patterns:
    # NaN payloads, subnormals and every exponent
    raw = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    dense = np.where(rng.random(n) < 0.5, values[rng.integers(0, len(values), n)], raw)
    flag = rng.random(n) < 0.5

    want = "head\n" + "".join(
        f"{t + 1},{'C' if flag[t] else 'D'},{labelled[t]:.12g},{dense[t]:.12g}\n"
        for t in range(n)
    )
    # the dense column is the row's number; the round is one more label
    rounds = (np.array([str(t + 1) for t in range(n)], dtype=object), np.arange(n))
    column = fuse([rounds, flags(flag, "D", "C"), distinct_g12(labelled)])
    out = tmp_path_factory.mktemp("rows") / "rows.csv"
    write_blocks(out, "head\n", labelled_blocks("{},%.12g\n", column, dense))
    assert out.read_bytes() == want.encode("utf-8")


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([0, 1, 2, 7, CHUNK_ROWS + 1]),
    # label counts per column; 2**13 over five columns is a product of 2**65
    widths=st.lists(st.sampled_from([1, 2, 3, 12, 2**13]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_column_writes_the_bytes_of_the_unfused_columns(tmp_path_factory, n, widths, seed):
    rng = np.random.default_rng(seed)
    columns = []
    for j, width in enumerate(widths):
        labels = np.array([f"{j}:{k}" for k in range(width)], dtype=object)
        # uint8 codes as flags makes them, intp as distinct_g12 does
        codes = rng.integers(0, width, n).astype(np.uint8 if width <= 2 else np.intp)
        columns.append((labels, codes))
    # the oracle reads each unfused column's label of the row
    want = "".join(
        f"{t + 1}," + ",".join(labels[codes[t]] for labels, codes in columns) + "\n"
        for t in range(n)
    )
    out = tmp_path_factory.mktemp("fuse") / "fused.csv"
    write_blocks(out, "", labelled_blocks("%d,{}\n", fuse(columns), np.arange(1, n + 1)))
    assert out.read_bytes() == want.encode("utf-8")
    if len(columns) > 1:  # one label per combination that occurs
        occurring = set(zip(*(codes.tolist() for _, codes in columns)))
        assert sorted(fuse(columns)[0].tolist()) == sorted(
            ",".join(columns[j][0][k] for j, k in enumerate(combo)) for combo in occurring
        )


def test_labels_holding_percent_signs_are_written_as_they_are(tmp_path):
    # a label's % is template text, never a conversion
    n = CHUNK_ROWS + 5
    flag = np.random.default_rng(3).random(n) < 0.5
    column = fuse([flags(flag, "50%", "%d%%s%"), (np.array(["%(x)s", "{}"], dtype=object), flag.view(np.uint8))])
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
    with pytest.raises(ValueError, match="3 labelled rows but 4 rows of values"):
        write_blocks(out, "", labelled_blocks("%d,{}\n", flags([True] * 3, "D", "C"), np.zeros(4)))
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
    # a hand-built log whose payoffs are no matrix's values
    n = CHUNK_ROWS + 2
    rng = np.random.default_rng(11)
    payoffs = rng.standard_normal((2, n)) / 3.0
    payoffs[:, : len(SPECIALS)] = SPECIALS
    log = GameLog(
        rng.random(n) < 0.4,
        rng.random(n) < 0.7,
        payoffs[0],
        payoffs[1][::-1],
        MarkovStrategy(0.1 + 0.2, 1.0 / 3.0),
        MarkovStrategy(0.0, 1.0),
        SimulationConfig(rounds=n, seed=2**64 - 1, initial_coop_prob=(1e-30, 0.5)),
    )
    out = tmp_path / "log.csv"
    export_log(log, out)
    assert out.read_bytes() == _export_log_oracle(log)
