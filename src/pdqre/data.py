"""Bundled experimental strategy table: loading, aggregates, classification.

The table records 14 experiments, each with cooperation rate, tolerance to
defection (alpha) and mutual cooperation (gamma) estimated before and after
a socialization stage.  ``classify_against_qre`` tests the claimed geometry:
the low-rationality stretch of the QRE branch separates the before points
(below it) from the after points (above it).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .qre import QrePoint, SweepResult

__all__ = [
    "COLUMNS",
    "BoundaryReport",
    "ExperimentRecord",
    "InsufficientSweep",
    "ParseError",
    "PhaseAggregate",
    "RecordClassification",
    "aggregate",
    "bundled_experiments_path",
    "classify_against_qre",
    "load_experiments",
    "save_experiments",
]

PHASES = ("before", "after")

#: How far a branch's first and last rationality may miss 0 and ``lambda_max``
#: and still cover [0, lambda_max]: float steps leave grid ends a few ulps off.
LAMBDA_COVERAGE_TOL = 1e-9

COLUMNS = (
    "Number of the experiment",
    "% of cooperation before socialization",
    "alpha before socialization",
    "gamma before socialization",
    "% of cooperation after socialization",
    "alpha after socialization",
    "gamma after socialization",
)


class ParseError(ValueError):
    """Malformed tabular input, locating the offending cell."""

    def __init__(self, message: str, row: int, column: str = ""):
        where = f"row {row}" + (f", column {column!r}" if column else "")
        super().__init__(f"{message} ({where})")
        self.row = row
        self.column = column


class InsufficientSweep(ValueError):
    """The supplied sweep does not cover the requested boundary range."""


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment phase: cooperation rate and estimated strategy."""

    experiment_id: str
    phase: str
    coop_rate: float
    alpha: float
    gamma: float

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")
        for name in ("coop_rate", "alpha", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")


@dataclass(frozen=True)
class PhaseAggregate:
    """Unweighted means over the experiments of one phase."""

    phase: str
    coop_rate: float
    alpha: float
    gamma: float
    count: int


@dataclass(frozen=True)
class RecordClassification:
    """Side of the QRE boundary for one record, with diagnostics."""

    record: ExperimentRecord
    side: str  # "Above", "Below" or "OnBoundary"
    boundary_gamma: float
    distance: float
    extrapolated: bool
    borderline: bool


@dataclass(frozen=True)
class BoundaryReport:
    """Per-record sides plus the phase-consistency summary."""

    classifications: tuple[RecordClassification, ...]
    counts: dict
    separation_score: float
    lambda_max: float
    interpolation: str  # "gamma_of_alpha" or "signed_distance"


def bundled_experiments_path() -> Path:
    """Filesystem path of the packaged experiments table."""
    return Path(resources.files("pdqre") / "data" / "experiments.csv")


def _parse_fraction(raw: str, row: int, column: str, percent: bool) -> float:
    text = raw.strip()
    if percent:
        text = text.removesuffix("%").strip()
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {raw!r} as a number", row, column) from None
    if percent:
        value /= 100.0
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"value {raw!r} outside [0, 1]", row, column)
    return value


def load_experiments(source: str | Path | None = None) -> list[ExperimentRecord]:
    """Parse the seven-column table into per-phase records.

    Percent columns accept values with or without a trailing %; either way
    the number is interpreted on the 0-100 scale.  Records come out in file
    order, before then after per experiment.  Defaults to the bundled table.
    """
    path = Path(source) if source is not None else bundled_experiments_path()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        # each row is numbered by its (last) line in the file, blank lines included
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError("empty table", row=1)
    line, header = rows[0][0], tuple(cell.strip() for cell in rows[0][1])
    if header != COLUMNS:
        raise ParseError(
            f"header {header} does not match the expected columns", row=line
        )
    records: list[ExperimentRecord] = []
    for i, row in rows[1:]:
        if len(row) != len(COLUMNS):
            raise ParseError(f"expected {len(COLUMNS)} cells, got {len(row)}", row=i)
        exp_id = row[0].strip()
        if not exp_id:
            raise ParseError("missing experiment id", row=i, column=COLUMNS[0])
        for phase, offset in (("before", 1), ("after", 4)):
            coop = _parse_fraction(row[offset], i, COLUMNS[offset], percent=True)
            alpha = _parse_fraction(row[offset + 1], i, COLUMNS[offset + 1], False)
            gamma = _parse_fraction(row[offset + 2], i, COLUMNS[offset + 2], False)
            records.append(ExperimentRecord(exp_id, phase, coop, alpha, gamma))
    return records


def save_experiments(records: Sequence[ExperimentRecord], path: str | Path) -> None:
    """Serialize records back to the seven-column format.

    Requires a before and an after record for every experiment id.
    """
    by_id: dict[str, dict[str, ExperimentRecord]] = {}
    order: list[str] = []
    for rec in records:
        if rec.experiment_id not in by_id:
            by_id[rec.experiment_id] = {}
            order.append(rec.experiment_id)
        by_id[rec.experiment_id][rec.phase] = rec
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for exp_id in order:
            phases = by_id[exp_id]
            if set(phases) != set(PHASES):
                raise ValueError(f"experiment {exp_id!r} is missing a phase")
            b, a = phases["before"], phases["after"]
            writer.writerow(
                [
                    exp_id,
                    f"{b.coop_rate * 100.0:.12g}%",
                    f"{b.alpha:.12g}",
                    f"{b.gamma:.12g}",
                    f"{a.coop_rate * 100.0:.12g}%",
                    f"{a.alpha:.12g}",
                    f"{a.gamma:.12g}",
                ]
            )


def aggregate(records: Sequence[ExperimentRecord]) -> dict[str, PhaseAggregate]:
    """Unweighted per-phase means keyed by phase name."""
    if not records:
        raise ValueError("no records to aggregate")
    out: dict[str, PhaseAggregate] = {}
    for phase in PHASES:
        group = [r for r in records if r.phase == phase]
        if not group:
            continue
        n = len(group)
        out[phase] = PhaseAggregate(
            phase=phase,
            coop_rate=sum(r.coop_rate for r in group) / n,
            alpha=sum(r.alpha for r in group) / n,
            gamma=sum(r.gamma for r in group) / n,
            count=n,
        )
    return out


def _point_segment_distance(p, a, b) -> float:
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = ab[0] * ab[0] + ab[1] * ab[1]
    t = 0.0 if denom == 0.0 else max(0.0, min(1.0, (ap[0] * ab[0] + ap[1] * ab[1]) / denom))
    dx = p[0] - (a[0] + t * ab[0])
    dy = p[1] - (a[1] + t * ab[1])
    return math.hypot(dx, dy)


def _nearest_segment(p, poly) -> tuple[float, float]:
    """Distance to the polyline, and the cross product at its first nearest segment."""
    best = math.inf
    best_cross = 0.0
    for a, b in zip(poly, poly[1:]):
        d = _point_segment_distance(p, a, b)
        if d < best:
            best = d
            best_cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    return best, best_cross


def _extract_branch(
    qre_sweep: Sequence[QrePoint] | SweepResult, lambda_max: float
) -> list[QrePoint]:
    if isinstance(qre_sweep, SweepResult):
        pool = qre_sweep.main_branch
    else:
        pool = list(qre_sweep)
    branch = sorted(
        (p for p in pool if p.accepted and p.lam <= lambda_max + 1e-12),
        key=lambda p: p.lam,
    )
    # several accepted points at one lambda would join branches into one zig-zag
    for p, q in zip(branch, branch[1:]):
        if p.lam == q.lam:
            raise InsufficientSweep(
                f"several accepted points at lambda={p.lam:.12g}; "
                "classify needs one branch (pass the SweepResult)"
            )
    if len(branch) < 2:
        raise InsufficientSweep(
            f"need at least 2 accepted points with lambda <= {lambda_max}"
        )
    if branch[0].lam > LAMBDA_COVERAGE_TOL or branch[-1].lam < lambda_max - LAMBDA_COVERAGE_TOL:
        raise InsufficientSweep(
            f"sweep covers lambda in [{branch[0].lam:g}, {branch[-1].lam:g}], "
            f"need [0, {lambda_max:g}]"
        )
    return branch


def classify_against_qre(
    records: Sequence[ExperimentRecord],
    qre_sweep: Sequence[QrePoint] | SweepResult,
    lambda_max: float = 4.0,
    borderline_tol: float = 0.02,
) -> BoundaryReport:
    """Classify each record against the low-rationality QRE polyline.

    The boundary is the accepted branch for lambda in [0, lambda_max],
    read as gamma versus alpha (single-valued when alpha is monotone along
    the branch; otherwise a signed nearest-distance rule takes over, with
    the side of (1, 1) defined as Above).  Records outside the branch's
    alpha range use the nearest-endpoint extension and are flagged.  A
    point list must hold one accepted point per lambda; a ``SweepResult``
    gives its main branch.
    """
    branch = _extract_branch(qre_sweep, lambda_max)
    alphas = [p.alpha for p in branch]
    gammas = [p.gamma for p in branch]
    diffs = np.diff(alphas)
    monotone = bool(np.all(diffs < 0.0) or np.all(diffs > 0.0))
    poly = list(zip(alphas, gammas))

    if monotone:
        order = np.argsort(alphas)
        ax = np.asarray(alphas)[order]
        gx = np.asarray(gammas)[order]
        mode = "gamma_of_alpha"
    else:
        ref_sign = _nearest_segment((1.0, 1.0), poly)[1]
        mode = "signed_distance"

    classifications: list[RecordClassification] = []
    counts = {phase: {"Above": 0, "Below": 0, "OnBoundary": 0} for phase in PHASES}
    consistent = 0
    for rec in records:
        point = (rec.alpha, rec.gamma)
        distance, cross = _nearest_segment(point, poly)
        if monotone:
            boundary_gamma = float(np.interp(rec.alpha, ax, gx))
            extrapolated = not (ax[0] <= rec.alpha <= ax[-1])
            delta = rec.gamma - boundary_gamma
        else:
            boundary_gamma = math.nan
            extrapolated = False
            delta = math.copysign(distance, cross * ref_sign) if cross != 0.0 else 0.0
        if abs(delta) < 1e-12:
            side = "OnBoundary"
        elif delta > 0.0:
            side = "Above"
        else:
            side = "Below"
        counts[rec.phase][side] += 1
        if (rec.phase == "before" and side == "Below") or (
            rec.phase == "after" and side == "Above"
        ):
            consistent += 1
        classifications.append(
            RecordClassification(
                record=rec,
                side=side,
                boundary_gamma=boundary_gamma,
                distance=distance,
                extrapolated=extrapolated,
                borderline=distance < borderline_tol,
            )
        )

    return BoundaryReport(
        classifications=tuple(classifications),
        counts=counts,
        separation_score=consistent / len(records) if records else 0.0,
        lambda_max=lambda_max,
        interpolation=mode,
    )
