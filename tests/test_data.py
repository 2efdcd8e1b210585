"""Data-layer tests: parsing, round trips, aggregates, boundary classification."""

from dataclasses import replace

import pytest

from pdqre.data import (
    COLUMNS,
    ExperimentRecord,
    InsufficientSweep,
    ParseError,
    aggregate,
    bundled_experiments_path,
    classify_against_qre,
    load_experiments,
    save_experiments,
)
from pdqre.qre import QrePoint, SolverConfig, SweepResult


def test_bundled_table_loads():
    records = load_experiments()
    assert len(records) == 28
    ids = [r.experiment_id for r in records]
    assert ids[0] == ids[1] == "Exp_1"
    assert ids[-1] == "Exp_14"
    assert [r.phase for r in records[:4]] == ["before", "after", "before", "after"]


def test_bundled_path_exists():
    assert bundled_experiments_path().is_file()


def test_known_row_values():
    records = {(r.experiment_id, r.phase): r for r in load_experiments()}
    before = records[("Exp_4", "before")]
    assert before.coop_rate == pytest.approx(0.2917, abs=1e-12)
    assert before.alpha == pytest.approx(0.25, abs=1e-12)
    assert before.gamma == pytest.approx(0.36, abs=1e-12)
    after = records[("Exp_4", "after")]
    assert after.coop_rate == pytest.approx(0.8833, abs=1e-12)
    assert after.alpha == pytest.approx(0.69, abs=1e-12)
    assert after.gamma == pytest.approx(0.91, abs=1e-12)


def test_percent_suffix_optional(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        ",".join(COLUMNS) + "\nExp_1,25,0.1,0.2,75%,0.3,0.4\n", encoding="utf-8"
    )
    records = load_experiments(path)
    assert records[0].coop_rate == pytest.approx(0.25, abs=1e-12)
    assert records[1].coop_rate == pytest.approx(0.75, abs=1e-12)


def test_header_mismatch_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_experiments(path)
    assert info.value.row == 1


def test_bad_number_raises_with_location(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        ",".join(COLUMNS) + "\nExp_1,25%,half,0.2,75%,0.3,0.4\n", encoding="utf-8"
    )
    with pytest.raises(ParseError) as info:
        load_experiments(path)
    assert info.value.row == 2
    assert info.value.column == COLUMNS[2]


def test_error_names_the_line_after_blank_lines(tmp_path):
    # blank lines are skipped but still counted: the bad cell is on line 3
    path = tmp_path / "t.csv"
    path.write_text(",".join(COLUMNS) + "\n\nExp_1,20%,0.3,0.1,80%,0.3,1.8\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"row 3, column 'gamma after socialization'") as info:
        load_experiments(path)
    assert info.value.row == 3
    path.write_text("\n \n" + ",".join(COLUMNS[:3]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_experiments(path)
    assert info.value.row == 3


def test_out_of_range_fraction_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        ",".join(COLUMNS) + "\nExp_1,125%,0.1,0.2,75%,0.3,0.4\n", encoding="utf-8"
    )
    with pytest.raises(ParseError):
        load_experiments(path)


def test_ragged_row_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(",".join(COLUMNS) + "\nExp_1,25%,0.1\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_experiments(path)
    assert info.value.row == 2


def test_record_validation():
    with pytest.raises(ValueError):
        ExperimentRecord("X", "during", 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        ExperimentRecord("X", "before", 0.5, 1.5, 0.5)


def test_save_load_round_trip(tmp_path):
    records = load_experiments()
    path = tmp_path / "copy.csv"
    save_experiments(records, path)
    again = load_experiments(path)
    assert again == records


def test_save_requires_both_phases(tmp_path):
    rec = ExperimentRecord("Exp_1", "before", 0.2, 0.1, 0.3)
    with pytest.raises(ValueError):
        save_experiments([rec], tmp_path / "bad.csv")
    # every id is checked before the file is opened: the last experiment's
    # missing phase neither creates the file nor truncates an existing one
    records = load_experiments()
    assert (records[-1].experiment_id, records[-1].phase) == ("Exp_14", "after")
    with pytest.raises(ValueError, match="Exp_14"):
        save_experiments(records[:-1], tmp_path / "new.csv")
    assert not (tmp_path / "new.csv").exists()
    kept = tmp_path / "kept.csv"
    save_experiments(records, kept)
    before = kept.read_bytes()
    with pytest.raises(ValueError, match="Exp_14"):
        save_experiments(records[:-1], kept)
    assert kept.read_bytes() == before


def test_save_refuses_a_repeated_experiment(tmp_path):
    # Exp_1 on two rows loads as four records; saving them kept only the second row
    table = tmp_path / "twice.csv"
    table.write_text(
        ",".join(COLUMNS) + "\nExp_1,20%,0.3,0.1,80%,0.3,0.8\nExp_1,30%,0.2,0.2,70%,0.4,0.7\n",
        encoding="utf-8",
    )
    records = load_experiments(table)
    assert len(records) == 4
    with pytest.raises(ValueError, match="Exp_1"):
        save_experiments(records, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("text", ["", "\n \n,,\n"], ids=["empty", "blank"])
def test_empty_table_raises(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="empty table") as info:
        load_experiments(path)
    assert info.value.row == 1


def test_blank_experiment_id_raises(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(",".join(COLUMNS) + "\n  ,25%,0.1,0.2,75%,0.3,0.4\n", encoding="utf-8")
    with pytest.raises(ParseError, match="missing experiment id") as info:
        load_experiments(path)
    assert (info.value.row, info.value.column) == (2, COLUMNS[0])


def test_aggregate_known_means():
    agg = aggregate(load_experiments())
    assert agg["before"].count == agg["after"].count == 14
    assert agg["before"].coop_rate == pytest.approx(311.58 / 1400.0, abs=1e-9)
    assert agg["before"].alpha == pytest.approx(2.74 / 14.0, abs=1e-9)
    assert agg["before"].gamma == pytest.approx(3.73 / 14.0, abs=1e-9)
    assert agg["after"].coop_rate == pytest.approx(811.95 / 1400.0, abs=1e-9)
    assert agg["after"].alpha == pytest.approx(6.06 / 14.0, abs=1e-9)
    assert agg["after"].gamma == pytest.approx(9.39 / 14.0, abs=1e-9)


def test_aggregate_requires_records():
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_of_one_phase_has_only_that_phase():
    after = [r for r in load_experiments() if r.phase == "after"]
    agg = aggregate(after)
    assert list(agg) == ["after"] and agg["after"].count == 14
    assert agg["after"].alpha == pytest.approx(6.06 / 14.0, abs=1e-9)


def _synthetic_sweep(alphas, gammas):
    points = [
        QrePoint(float(lam), a, g, 0.0, True)
        for lam, (a, g) in enumerate(zip(alphas, gammas))
    ]
    return SweepResult(
        points=points,
        main_branch=points,
        no_solution=[],
        discontinuities=[],
        transition_lambda=None,
        config=SolverConfig(),
        diagnostics={},
    )


DIAGONAL = _synthetic_sweep([0.5, 0.4, 0.3, 0.2, 0.1], [0.5, 0.4, 0.3, 0.2, 0.1])


def _rec(exp, phase, alpha, gamma):
    return ExperimentRecord(exp, phase, 0.5, alpha, gamma)


def test_classification_monotone_interpolation():
    records = [
        _rec("E1", "before", 0.3, 0.1),
        _rec("E1", "after", 0.3, 0.8),
        _rec("E2", "after", 0.3, 0.3),
    ]
    report = classify_against_qre(records, DIAGONAL)
    assert report.interpolation == "gamma_of_alpha"
    by_id = {(c.record.experiment_id, c.record.phase): c for c in report.classifications}
    below = by_id[("E1", "before")]
    assert below.side == "Below"
    assert below.boundary_gamma == pytest.approx(0.3, abs=1e-12)
    assert below.distance == pytest.approx(0.2 / 2.0**0.5, abs=1e-12)
    assert not below.extrapolated
    assert by_id[("E1", "after")].side == "Above"
    assert by_id[("E2", "after")].side == "OnBoundary"
    assert report.separation_score == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert report.counts["before"]["Below"] == 1
    assert report.counts["after"]["Above"] == 1
    assert report.counts["after"]["OnBoundary"] == 1


def test_classification_flags_extrapolation_and_borderline():
    records = [
        _rec("E1", "after", 0.9, 0.9),
        _rec("E2", "before", 0.25, 0.26),
    ]
    report = classify_against_qre(records, DIAGONAL)
    outside, near = report.classifications
    assert outside.extrapolated  # alpha 0.9 is beyond the branch's range
    assert outside.side == "Above"
    assert near.borderline
    assert near.distance < 0.02


def test_classification_accepts_plain_sequence():
    records = [_rec("E1", "before", 0.3, 0.1)]
    a = classify_against_qre(records, DIAGONAL)
    b = classify_against_qre(records, DIAGONAL.main_branch)
    assert a.classifications[0].side == b.classifications[0].side
    assert a.classifications[0].distance == b.classifications[0].distance


def test_classification_ignores_unaccepted_points():
    noisy = DIAGONAL.main_branch + [QrePoint(2.5, 0.95, 0.05, 1.0, False)]
    report = classify_against_qre([_rec("E1", "before", 0.3, 0.1)], noisy)
    assert report.classifications[0].side == "Below"
    assert report.classifications[0].boundary_gamma == pytest.approx(0.3, abs=1e-12)


def test_classification_signed_distance_fallback():
    sweep = _synthetic_sweep([0.5, 0.3, 0.2, 0.3, 0.5], [0.0, 0.2, 0.5, 0.8, 1.0])
    records = [
        _rec("E1", "after", 0.9, 0.9),
        _rec("E2", "before", 0.05, 0.5),
    ]
    report = classify_against_qre(records, sweep)
    assert report.interpolation == "signed_distance"
    sides = [c.side for c in report.classifications]
    assert sides == ["Above", "Below"]


def test_classification_refuses_several_branches_in_a_point_list():
    # sorted by lambda, two branches would zig-zag into one boundary
    two_branches = DIAGONAL.main_branch + [QrePoint(2.0, 0.9, 0.1, 0.0, True)]
    with pytest.raises(InsufficientSweep, match="several accepted points at lambda=2;"):
        classify_against_qre([_rec("E1", "before", 0.3, 0.1)], two_branches)
    # a sweep result gives its main branch, whatever else it holds
    sweep = replace(DIAGONAL, points=two_branches)
    report = classify_against_qre([_rec("E1", "before", 0.3, 0.1)], sweep)
    assert report.classifications[0].boundary_gamma == pytest.approx(0.3, abs=1e-12)


def test_insufficient_sweep_detected():
    short = _synthetic_sweep([0.5, 0.4], [0.5, 0.4])  # lambda reaches only 1
    with pytest.raises(InsufficientSweep):
        classify_against_qre([_rec("E1", "before", 0.3, 0.1)], short)
    late_points = [QrePoint(2.0 + k, 0.4 - 0.1 * k, 0.4, 0.0, True) for k in range(3)]
    with pytest.raises(InsufficientSweep):
        classify_against_qre([_rec("E1", "before", 0.3, 0.1)], late_points)
