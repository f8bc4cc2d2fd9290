"""Occupancy ingestion and time-dependent transition estimation.

A zone's occupancy log is a per-day, per-hour boolean record. For every
consecutive hour pair (k, k+1) the log yields a 2x2 stochastic matrix by
counting day-level transitions:

    p_occupied_given_empty[k]    = #(empty at k -> occupied at k+1) / #(empty at k)
    p_occupied_given_occupied[k] = #(occupied at k -> occupied at k+1) / #(occupied at k)

with the complementary entries filled so each row sums to exactly 1.
Hours where a conditioning state never occurs (e.g. rooms that are never
occupied at opening time) default to stay-in-state and are flagged in the
diagnostics instead of failing.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass

from .errors import ValidationError

CSV_HEADER = ("day", "hour", "occupied")


@dataclass(frozen=True)
class OccupancyDataset:
    """Per-(day, hour) boolean records over a contiguous hour window."""

    days: tuple[int, ...]
    hours: tuple[int, ...]
    # records[(day, hour)] -> occupied
    records: dict[tuple[int, int], bool]

    @property
    def day_count(self) -> int:
        return len(self.days)

    def occupied(self, day: int, hour: int) -> bool:
        return self.records[(day, hour)]


@dataclass(frozen=True)
class StepMatrix:
    """Stochastic occupancy matrix for one hour boundary.

    Row "empty": (p_vf, p_vv); row "occupied": (p_ff, p_fv). v = empty,
    f = occupied.
    """

    step: int
    p_vf: float
    p_vv: float
    p_ff: float
    p_fv: float

    def __post_init__(self) -> None:
        for name, p in (("p_vf", self.p_vf), ("p_vv", self.p_vv),
                        ("p_ff", self.p_ff), ("p_fv", self.p_fv)):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"step {self.step}: {name}={p} outside [0, 1]")
        if abs(self.p_vf + self.p_vv - 1.0) > 1e-12:
            raise ValidationError(f"step {self.step}: empty row does not sum to 1")
        if abs(self.p_ff + self.p_fv - 1.0) > 1e-12:
            raise ValidationError(f"step {self.step}: occupied row does not sum to 1")


@dataclass(frozen=True)
class Diagnostic:
    hour: int
    condition: str  # "empty" or "occupied"
    reason: str

    def as_dict(self) -> dict:
        return {"hour": self.hour, "condition": self.condition, "reason": self.reason}


@dataclass(frozen=True)
class TransitionSchedule:
    """One StepMatrix per hour boundary, step k covering hour[k] -> hour[k+1]."""

    matrices: tuple[StepMatrix, ...]
    hours: tuple[int, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()

    def __len__(self) -> int:
        return len(self.matrices)

    def matrix(self, step: int) -> StepMatrix:
        try:
            return self.matrices[step]
        except IndexError:
            raise ValidationError(f"schedule has no step {step}") from None

    def as_dict(self) -> dict:
        return {
            "steps": [
                {
                    "step": m.step,
                    "hour_from": self.hours[i] if self.hours else m.step,
                    "hour_to": self.hours[i + 1] if self.hours else m.step + 1,
                    "p_vf": m.p_vf,
                    "p_vv": m.p_vv,
                    "p_ff": m.p_ff,
                    "p_fv": m.p_fv,
                }
                for i, m in enumerate(self.matrices)
            ],
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


def parse_occupancy_csv(source: io.TextIOBase | str) -> OccupancyDataset:
    """Parse a ``day,hour,occupied`` CSV into a dataset.

    Every (day, hour) pair must appear exactly once, the hour window must
    be the same contiguous range for every day, and occupied must be 0/1.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("no records: file is empty") from None
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        raise ValidationError(
            f"expected header 'day,hour,occupied', got {','.join(header)!r}"
        )

    records: dict[tuple[int, int], bool] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ValidationError(f"line {lineno}: expected 3 fields, got {len(row)}")
        try:
            day = int(row[0])
            hour = int(row[1])
        except ValueError:
            raise ValidationError(f"line {lineno}: day and hour must be integers") from None
        if day <= 0:
            raise ValidationError(f"line {lineno}: day must be a positive integer")
        if not 0 <= hour <= 23:
            raise ValidationError(f"line {lineno}: hour must be in 0..23")
        occ_raw = row[2].strip()
        if occ_raw not in ("0", "1"):
            raise ValidationError(f"line {lineno}: occupied must be 0 or 1, got {occ_raw!r}")
        key = (day, hour)
        if key in records:
            raise ValidationError(f"line {lineno}: duplicate record for day {day}, hour {hour}")
        records[key] = occ_raw == "1"

    if not records:
        raise ValidationError("no records: file contains a header but no rows")

    days = tuple(sorted({d for d, _ in records}))
    hours = tuple(sorted({h for _, h in records}))
    if hours != tuple(range(hours[0], hours[-1] + 1)):
        raise ValidationError(f"hours are not contiguous: {hours}")
    for d in days:
        for h in hours:
            if (d, h) not in records:
                raise ValidationError(f"gap in data: day {d} is missing hour {h}")
    return OccupancyDataset(days=days, hours=hours, records=records)


def estimate_transition_schedule(
    dataset: OccupancyDataset, smoothing: float = 0.0
) -> TransitionSchedule:
    """Estimate per-hour transition matrices by raw day counting.

    ``smoothing`` adds a pseudo-count to every transition cell (0 keeps the
    raw frequencies). With smoothing 0, an hour whose conditioning state
    never occurs defaults to stay-in-state and is flagged in diagnostics.
    """
    if smoothing < 0:
        raise ValidationError(f"smoothing must be >= 0, got {smoothing}")
    hours = dataset.hours
    if len(hours) < 2:
        raise ValidationError("need at least two hours to estimate transitions")

    matrices: list[StepMatrix] = []
    diags: list[Diagnostic] = []
    for k, (h0, h1) in enumerate(zip(hours, hours[1:])):
        n_vf = n_vv = n_ff = n_fv = 0
        for d in dataset.days:
            before = dataset.occupied(d, h0)
            after = dataset.occupied(d, h1)
            if before:
                if after:
                    n_ff += 1
                else:
                    n_fv += 1
            else:
                if after:
                    n_vf += 1
                else:
                    n_vv += 1

        denom_v = n_vf + n_vv + 2 * smoothing
        denom_f = n_ff + n_fv + 2 * smoothing
        if denom_v > 0:
            p_vf = (n_vf + smoothing) / denom_v
        else:
            p_vf = 0.0
            diags.append(Diagnostic(
                hour=h0, condition="empty",
                reason="no day was empty at this hour; defaulted to stay-in-state",
            ))
        if denom_f > 0:
            p_ff = (n_ff + smoothing) / denom_f
        else:
            p_ff = 1.0
            diags.append(Diagnostic(
                hour=h0, condition="occupied",
                reason="no day was occupied at this hour; defaulted to stay-in-state",
            ))
        matrices.append(StepMatrix(step=k, p_vf=p_vf, p_vv=1.0 - p_vf,
                                   p_ff=p_ff, p_fv=1.0 - p_ff))
    return TransitionSchedule(matrices=tuple(matrices), hours=hours,
                              diagnostics=tuple(diags))


def occupancy_marginals(schedule: TransitionSchedule, initial_occupied_prob: float) -> list[float]:
    """Forward-propagate P(occupied at step k) through the schedule.

    m[0] is the initial probability; m[k+1] = m[k]*p_ff[k] + (1-m[k])*p_vf[k].
    Returns one value per step 0..len(schedule).
    """
    if not 0.0 <= initial_occupied_prob <= 1.0:
        raise ValidationError(
            f"initial_occupied_prob must be in [0, 1], got {initial_occupied_prob}"
        )
    m = [float(initial_occupied_prob)]
    for mat in schedule.matrices:
        m.append(m[-1] * mat.p_ff + (1.0 - m[-1]) * mat.p_vf)
    return m


def sample_dataset(
    schedule: TransitionSchedule,
    days: int,
    seed: int,
    initial_occupied_prob: float = 0.0,
    first_hour: int | None = None,
) -> OccupancyDataset:
    """Sample a synthetic dataset whose rows follow ``schedule``.

    Day 1..days each start occupied with probability
    ``initial_occupied_prob`` and then evolve by the per-step matrices.
    Deterministic for a fixed seed.
    """
    if days <= 0:
        raise ValidationError(f"days must be positive, got {days}")
    if first_hour is None:
        first_hour = schedule.hours[0] if schedule.hours else 0
    rng = random.Random(seed)
    n_hours = len(schedule) + 1
    records: dict[tuple[int, int], bool] = {}
    for d in range(1, days + 1):
        occ = rng.random() < initial_occupied_prob
        records[(d, first_hour)] = occ
        for k, mat in enumerate(schedule.matrices):
            p_occ_next = mat.p_ff if occ else mat.p_vf
            occ = rng.random() < p_occ_next
            records[(d, first_hour + k + 1)] = occ
    return OccupancyDataset(
        days=tuple(range(1, days + 1)),
        hours=tuple(range(first_hour, first_hour + n_hours)),
        records=records,
    )


def dataset_to_csv(dataset: OccupancyDataset) -> str:
    """Render a dataset back to the canonical CSV text."""
    lines = ["day,hour,occupied"]
    for d in dataset.days:
        for h in dataset.hours:
            lines.append(f"{d},{h},{1 if dataset.records[(d, h)] else 0}")
    return "\n".join(lines) + "\n"
