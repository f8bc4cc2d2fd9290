"""Occupancy ingestion and time-dependent transition estimation.

A zone's occupancy log is a per-day, per-hour boolean record, held as one
``(days, hours)`` bool array. For every consecutive hour pair (k, k+1) the
log yields a 2x2 stochastic matrix by counting day-level transitions:

    p_occupied_given_empty[k]    = #(empty at k -> occupied at k+1) / #(empty at k)
    p_occupied_given_occupied[k] = #(occupied at k -> occupied at k+1) / #(occupied at k)

with the complementary entries filled so each row sums to exactly 1.
Hours where a conditioning state never occurs (e.g. rooms that are never
occupied at opening time) default to stay-in-state and are flagged in the
diagnostics instead of failing.
"""

from __future__ import annotations

import bisect
import io
import random
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

CSV_HEADER = ("day", "hour", "occupied")
# every byte a data row may hold; anything else rejects the body
_ROW_ALPHABET = b"0123456789+-, \t\n"
_INTEGER = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
_BLANK_LINE = re.compile(r"\n[ \t]+(?=\n)")
_MAX_DAY = 2**63 - 1  # the largest day an int64 column holds


@dataclass(frozen=True, eq=False)
class OccupancyDataset:
    """Per-(day, hour) boolean records over a contiguous hour window.

    ``grid[i, j]`` is whether day ``days[i]`` was occupied at hour
    ``hours[j]``. Days ascend but may skip numbers; the grid is read-only.
    """

    days: tuple[int, ...]
    hours: tuple[int, ...]
    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = np.array(self.grid, dtype=bool)
        if grid.shape != (len(self.days), len(self.hours)):
            raise ValidationError(
                f"grid shape {grid.shape} does not match {len(self.days)} days "
                f"x {len(self.hours)} hours"
            )
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OccupancyDataset):
            return NotImplemented
        return (self.days == other.days and self.hours == other.hours
                and np.array_equal(self.grid, other.grid))

    @property
    def day_count(self) -> int:
        return len(self.days)

    @property
    def records(self) -> Mapping[tuple[int, int], bool]:
        """Read-only ``(day, hour) -> occupied`` view of ``grid``."""
        return _Records(self)

    def occupied(self, day: int, hour: int) -> bool:
        return self.records[(day, hour)]


class _Records(Mapping):
    """A dataset's grid seen as a mapping, keys in day-major order."""

    def __init__(self, dataset: OccupancyDataset) -> None:
        self._dataset = dataset

    def __getitem__(self, key: tuple[int, int]) -> bool:
        days, hours = self._dataset.days, self._dataset.hours
        try:
            day, hour = key
            j = hours.index(hour)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        i = bisect.bisect_left(days, day)
        if i == len(days) or days[i] != day:
            raise KeyError(key)
        return bool(self._dataset.grid[i, j])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((d, h) for d in self._dataset.days for h in self._dataset.hours)

    def __len__(self) -> int:
        return self._dataset.grid.size


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

    The header is ``day,hour,occupied`` (case and spaces around names
    ignored). Every other line is blank (spaces and tabs only) or a row
    ``day,hour,occupied``: day and hour are ASCII integers with an optional
    sign and optional spaces or tabs around them, and occupied is exactly
    ``0`` or ``1`` with optional spaces or tabs around it. Days are
    positive, hours lie in 0..23, every (day, hour) pair appears exactly
    once, and every day covers the same contiguous hour window. Lines may
    end in LF, CRLF or CR.
    """
    text = source if isinstance(source, str) else source.read()
    if not text:
        raise ValidationError("no records: file is empty")
    header, _, body = text.replace("\r\n", "\n").replace("\r", "\n").partition("\n")
    if tuple(h.strip().lower() for h in header.split(",")) != CSV_HEADER:
        raise ValidationError(f"expected header 'day,hour,occupied', got {header!r}")

    dataset = _read_grid(body)
    if dataset is None:
        raise _fault(body)
    return dataset


def _read_grid(body: str) -> OccupancyDataset | None:
    """The dataset a well-formed body holds, or None if anything is wrong.

    One ``loadtxt`` pass reads every row; the rest are array tests. A
    rejected body goes to ``_fault`` for its message.
    """
    if not body.isascii():
        return None
    body = _BLANK_LINE.sub("\n", f"\n{body}\n")  # loadtxt rejects whitespace-only lines
    data = body.encode("ascii")
    squeezed = data.translate(None, b" \t")
    if data.translate(None, _ROW_ALPHABET) or not squeezed.strip(b"\n"):
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64,
                          ndmin=2, comments=None)
    except ValueError:
        return None
    # loadtxt reads "01" or "+1" as 1, so count the rows whose third token
    # is exactly one 0 or 1
    if rows.shape[1] != 3 or squeezed.count(b",0\n") + squeezed.count(b",1\n") != len(rows):
        return None
    first, last = int(rows[:, 1].min()), int(rows[:, 1].max())
    n_hours = last - first + 1
    if rows[:, 0].min() < 1 or first < 0 or last > 23 or len(rows) % n_hours:
        return None
    blocks = rows.reshape(-1, n_hours, 3)
    if not _is_day_blocks(blocks, first):
        # not in day-major order: sort by day, then hour, and look again
        blocks = rows[np.lexsort((rows[:, 1], rows[:, 0]))].reshape(-1, n_hours, 3)
        if not _is_day_blocks(blocks, first):
            return None
    return OccupancyDataset(days=tuple(blocks[:, 0, 0].tolist()),
                            hours=tuple(range(first, last + 1)), grid=blocks[:, :, 2])


def _is_day_blocks(blocks: np.ndarray, first: int) -> bool:
    """Whether each block of rows is one day's hours ``first, first+1, ...``
    in order, with the days strictly ascending from block to block."""
    day = blocks[:, :, 0]
    return bool((blocks[:, :, 1] == np.arange(first, first + blocks.shape[1])).all()
                and (day == day[:, :1]).all() and (day[1:, 0] > day[:-1, 0]).all())


def _fault(body: str) -> ValidationError:
    """The first fault of a body ``_read_grid`` rejected, as the message
    the row-by-row reading gives: row faults with their line number in
    file order, then a missing body, non-contiguous hours or a gap."""
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(body.split("\n"), start=2):
        if not line.strip(" \t"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            return ValidationError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        if not (_INTEGER.fullmatch(fields[0]) and _INTEGER.fullmatch(fields[1])):
            return ValidationError(f"line {lineno}: day and hour must be integers")
        day, hour = int(fields[0]), int(fields[1])
        if day <= 0:
            return ValidationError(f"line {lineno}: day must be a positive integer")
        if day > _MAX_DAY:
            return ValidationError(f"line {lineno}: day must be at most {_MAX_DAY}")
        if not 0 <= hour <= 23:
            return ValidationError(f"line {lineno}: hour must be in 0..23")
        occupied = fields[2].strip(" \t")
        if occupied not in ("0", "1"):
            return ValidationError(f"line {lineno}: occupied must be 0 or 1, got {occupied!r}")
        if (day, hour) in seen:
            return ValidationError(
                f"line {lineno}: duplicate record for day {day}, hour {hour}")
        seen.add((day, hour))

    if not seen:
        return ValidationError("no records: file contains a header but no rows")
    days = sorted({d for d, _ in seen})
    hours = tuple(sorted({h for _, h in seen}))
    if hours != tuple(range(hours[0], hours[-1] + 1)):
        return ValidationError(f"hours are not contiguous: {hours}")
    for d in days:
        for h in hours:
            if (d, h) not in seen:
                return ValidationError(f"gap in data: day {d} is missing hour {h}")
    # reached only if the two readers disagree about the grammar
    return ValidationError("occupancy rows could not be read")


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

    # per step: days occupied before, after, and both; the other three
    # counts follow exactly in integers
    grid = dataset.grid
    occupied = grid.sum(axis=0).tolist()
    stayed = (grid[:, :-1] & grid[:, 1:]).sum(axis=0).tolist()
    matrices: list[StepMatrix] = []
    diags: list[Diagnostic] = []
    for k, (h0, n_ff) in enumerate(zip(hours, stayed)):
        n_fv = occupied[k] - n_ff
        n_vf = occupied[k + 1] - n_ff
        n_vv = dataset.day_count - n_ff - n_fv - n_vf
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
    grid = []
    for _ in range(days):
        occ = rng.random() < initial_occupied_prob
        row = [occ]
        for mat in schedule.matrices:
            occ = rng.random() < (mat.p_ff if occ else mat.p_vf)
            row.append(occ)
        grid.append(row)
    return OccupancyDataset(
        days=tuple(range(1, days + 1)),
        hours=tuple(range(first_hour, first_hour + len(schedule) + 1)),
        grid=np.array(grid, dtype=bool),
    )


def dataset_to_csv(dataset: OccupancyDataset) -> str:
    """Render a dataset back to the canonical CSV text."""
    lines = ["day,hour,occupied"]
    for day, row in zip(dataset.days, dataset.grid.tolist()):
        lines.extend(f"{day},{hour},{int(occ)}" for hour, occ in zip(dataset.hours, row))
    return "\n".join(lines) + "\n"
