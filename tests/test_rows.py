"""The numpy byte renderer against the ``%`` route it replaces: same bytes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import percent_rows, template

from pdqre._rows import CHUNK_ROWS, _significands, blocks, labels, write
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


def _rendered(*columns) -> bytes:
    """The bytes of every block of ``columns``."""
    return b"".join(blocks(*columns))


def _grid_percent_rows(a, g, f, clamped) -> bytes:
    """The objective-grid CSV by the ``%`` route."""
    return b"alpha,gamma,objective,clamped\n" + percent_rows(
        a, ",", g, ",", f, ([",false\n", ",true\n"], clamped)
    )


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


def _near_ties(m: int, j: int, ulps: int) -> list[float]:
    """(m + 1/2) * 10**j, correctly rounded, then stepped up to ``ulps`` ulps either way."""
    tie = float(Fraction(2 * m + 1, 2) * Fraction(10) ** j)
    out, up, down = [tie], tie, tie
    for _ in range(ulps):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    return out


@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64),
    ties=st.lists(
        st.tuples(st.integers(10**11, 10**12 - 1), st.integers(-40, 40)), min_size=1, max_size=8
    ),
)
@example(bits=[0x3FF0000000000000, 0x7FF8000000000001, 0x8000000000000001], ties=[(10**12 - 1, 0)])
def test_g12_cells_match_percent_on_any_bit_pattern_and_near_ties(bits, ties):
    # every exponent and NaN payload, and the values where rounding to 12
    # digits is a near-tie: 13-digit halves, a few ulps either way, both signs
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    near = [v for m, j in ties for v in _near_ties(m, j - 11, 3)]
    x = np.concatenate([x, near, np.negative(near)])
    assert _rendered(x, "\n") == "".join("%.12g\n" % v for v in x.tolist()).encode("ascii")


def test_g12_cells_match_percent_at_every_exponent():
    # each power of ten and each 999999999999.5 * 10**j carry, one ulp either way,
    # from the smallest subnormal's exponent to the largest double's, both signs
    cells = [0.0, 5e-324]
    for e in range(-324, 309):
        for exact in (Fraction(10) ** e, Fraction(2 * 10**12 - 1, 2) * Fraction(10) ** (e - 11)):
            if exact < 2**1024:
                v = float(exact)
                cells += [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]
    x = np.array(cells + [-v for v in cells])
    assert _rendered(x, "\n") == "".join("%.12g\n" % v for v in x.tolist()).encode("ascii")


def test_fast_path_decides_zeros_subnormals_and_every_exponent():
    # the classes once left to %: zeros, subnormals and exponents outside [-11, 33]
    rng = np.random.default_rng(7)
    n = 30_000
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    biased = np.concatenate([rng.integers(1, 986, n // 2), rng.integers(1136, 2047, n - n // 2)])
    exponent = np.where(rng.random(n) < 0.1, 0, biased).astype(np.uint64)
    x = (exponent << np.uint64(52) | mantissa).view(np.float64)
    x = np.concatenate([x, np.negative(x), [0.0, -0.0] * 100])
    assert np.all(np.isfinite(x)) and not np.any((1e-11 <= np.abs(x)) & (np.abs(x) < 1e34))
    assert np.count_nonzero(~_significands(x)[2]) <= x.size // 1000
    assert _rendered(x, "\n") == "".join("%.12g\n" % v for v in x.tolist()).encode("ascii")


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 12), below=st.integers(0, 40), above=st.integers(1, 40))
@example(k=0, below=0, above=1)  # the single row 1
def test_d_cells_match_percent_d_across_powers_of_ten(k, below, above):
    # a column is as wide as its widest cell: alone, then with its negatives, then with the extremes
    n = np.arange(10**k - below, 10**k + above)
    for column in (n, np.concatenate([n, -n]), np.concatenate([n, [0, -(2**63), 2**63 - 1]])):
        assert _rendered(column, ",") == "".join("%d," % v for v in column.tolist()).encode("ascii")
    unsigned = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    assert _rendered(unsigned, ",") == b"0,9223372036854775808,18446744073709551615,"


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_renderer_matches_the_percent_route_column_by_column(n):
    # no row, one row, and row counts at a block's edge; one float in ten a special value
    rng = np.random.default_rng(11)
    normal = np.where(rng.random(n) < 0.1, rng.choice(SPECIALS, n), rng.normal(0.0, 1e3, n))
    columns = (
        np.arange(n) - 500, "|%s|", (["50%", "x{}", "é"], rng.integers(0, 3, n)),
        normal, ",", (10.0 ** rng.uniform(-8, 16, n)).round(rng.integers(0, 9)),
        "\n",
    )
    assert _rendered(*columns) == percent_rows(*columns)


def test_labels_holding_percent_signs_are_written_as_they_are(tmp_path):
    # a label's % and braces are text, never a conversion or a field
    n = CHUNK_ROWS + 5
    flag = np.random.default_rng(3).random(n) < 0.5
    column = ["50%,%(x)s", "%d%%s%,{}"], flag.view(np.uint8)
    out = tmp_path / "rows.csv"
    write(out, "%\n", blocks(column, ",", np.arange(n) + 0.5, "\n"))
    want = "%\n" + "".join(
        f"{'%d%%s%' if flag[t] else '50%'},{'{}' if flag[t] else '%(x)s'},{t + 0.5:.12g}\n"
        for t in range(n)
    )
    assert out.read_bytes() == want.encode("utf-8")
    assert template("{},%.12g,{}", "1%", "%") % 0.25 == "1%,0.25,%"


def test_writer_rejects_columns_of_different_lengths(tmp_path):
    out = tmp_path / "rows.csv"
    column = ["D", "C"], np.ones(3, dtype=np.uint8)
    with pytest.raises(ValueError, match=r"columns of different lengths: \[3, 4\]"):
        write(out, "", blocks(np.zeros(4, dtype=int), ",", column))
    assert not out.exists()


@pytest.mark.parametrize("bad", [(["D", "C\0"], "labels"), ("\0", "text")], ids=["label", "text"])
def test_a_nul_in_text_raises_before_the_file_is_opened(tmp_path, bad):
    # the renderer drops every NUL byte, so it refuses text that holds one
    out = tmp_path / "rows.csv"
    text, kind = bad
    column = (text, np.zeros(2, dtype=np.uint8)) if kind == "labels" else text
    with pytest.raises(ValueError, match="NUL"):
        write(out, "", blocks(np.arange(2), column))
    with pytest.raises(ValueError, match="NUL"):
        labels(["ok", "n\0"])
    assert not out.exists()


def test_objective_grid_matches_per_row_route(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(
        ["objective-grid", "--rationality", "7.2", "--mesh", "301", "--output", str(out)]
    ) == 0
    capsys.readouterr()
    grid = objective_grid(7.2, 301)
    assert len(grid[0]) > CHUNK_ROWS  # the file spans more than one block
    assert out.read_bytes() == _grid_percent_rows(*grid)


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
    assert out.read_bytes() == _grid_percent_rows(*grid)


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
