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
import random
import re
from collections.abc import Iterator, Mapping

import numpy as np

from .errors import ValidationError
from .records import Record

CSV_HEADER = ("day", "hour", "occupied")
# every byte a data row may hold; anything else rejects the body. The stride
# reader takes no space or tab.
_STRIDE_ALPHABET = b"0123456789+-,\n"
_ROW_ALPHABET = _STRIDE_ALPHABET + b" \t"
_INTEGER = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
_SPLIT_NUMBER = re.compile(rb"[0-9+-][ \t]+[0-9+-]")  # a space or tab inside a number
_COMMA, _NEWLINE, _PLUS, _MINUS, _ZERO, _NINE = b",\n+-09"
_MAX_DAY = 2**63 - 1  # the largest day an int64 column holds
# a body at least this long is first tried as fixed-stride day blocks; the
# inline reader is faster below about 15 KB, a 180-day, 10-hour log
STRIDE_MIN_BYTES = 32 * 1024
_STRIDE_DAY_DIGITS = 18  # every day of at most 18 digits fits an int64
_STRIDE_RUNS = 19  # runs of equal day width; unpadded days of 1 to 18 digits make 18
# day blocks checked at once, so no temporary grows with the body; one
# compare per run over a 1.1 MB log made 1-2 MB of them and ran slower
_STRIDE_SLICE_BYTES = 128 * 1024


class OccupancyDataset(Record):
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


class StepMatrix(Record):
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


class Diagnostic(Record):
    hour: int
    condition: str  # "empty" or "occupied"
    reason: str

    def as_dict(self) -> dict:
        return {"hour": self.hour, "condition": self.condition, "reason": self.reason}


class TransitionSchedule(Record):
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


def parse_occupancy_csv(data: bytes | str) -> OccupancyDataset:
    """Parse a ``day,hour,occupied`` CSV into a dataset.

    ``data`` is the file's bytes (UTF-8) or its text. The header is
    ``day,hour,occupied`` (case and spaces around names ignored). Every
    other line is blank (spaces and tabs only) or a row
    ``day,hour,occupied``: day and hour are ASCII integers with an optional
    sign and optional spaces or tabs around them, and occupied is exactly
    ``0`` or ``1`` with optional spaces or tabs around it. Days are
    positive, hours lie in 0..23, every (day, hour) pair appears exactly
    once, and every day covers the same contiguous hour window. Lines may
    end in LF, CRLF or CR.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    elif not data.isascii():
        try:
            _text(data)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"not UTF-8 text (byte {exc.start})") from None
    if not data:
        raise ValidationError("no records: file is empty")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header, _, body = data.partition(b"\n")
    if tuple(h.strip().lower() for h in _text(header).split(",")) != CSV_HEADER:
        raise ValidationError(f"expected header 'day,hour,occupied', got {_text(header)!r}")

    dataset = _read_grid(body)
    if dataset is None:
        raise _fault(_text(body))
    return dataset


def _text(data: bytes) -> str:
    """UTF-8 bytes as text; text handed to the parser comes back unchanged."""
    return data.decode("utf-8", "surrogatepass")


def _read_grid(body: bytes) -> OccupancyDataset | None:
    """The dataset a well-formed body holds, or None if anything is wrong.

    A body of at least ``STRIDE_MIN_BYTES`` whose days all repeat the
    first day's lines byte for byte, apart from the day digits and the
    occupied bit, is read as fixed-stride day blocks by ``_read_strides``,
    which checks every byte itself. Any other body has its bytes checked
    and then takes one structural pass: the layout of the separators and
    all three columns read at once, then array checks over the columns.
    The checks leave numpy only ``[+-]?[0-9]+`` tokens to read. A rejected
    body goes to ``_fault`` for its message.
    """
    if len(body) >= STRIDE_MIN_BYTES and (dataset := _read_strides(body)) is not None:
        return dataset
    data = _row_bytes(body)
    if data is None:
        return None
    rows = _read_lines(data)
    if rows is None or not len(rows):
        return None
    day, hour, occupied = rows.T
    first, last = int(hour.min()), int(hour.max())
    n_hours = last - first + 1
    if (day.min() < 1 or first < 0 or last > 23 or occupied.max() > 1
            or len(day) % n_hours):
        return None
    if not _is_day_blocks(day, hour, first, n_hours):
        # not in day-major order: sort by day, then hour, and look again
        order = np.lexsort((hour, day))
        day, hour, occupied = day[order], hour[order], occupied[order]
        if not _is_day_blocks(day, hour, first, n_hours):
            return None
    days = day[::n_hours]
    # numpy reads a number beyond the int64 range as an int64 limit, a
    # negative one too as the largest; a day read as the largest can only
    # be the last day, so then read the days exactly
    if days[-1] == _MAX_DAY and not all(
            1 <= int(line.partition(b",")[0]) <= _MAX_DAY for line in data.splitlines() if line):
        return None
    return OccupancyDataset(days=tuple(days.tolist()), hours=tuple(range(first, last + 1)),
                            grid=occupied.reshape(-1, n_hours))


def _row_bytes(body: bytes) -> bytes | None:
    """The body without spaces or tabs, ending in a newline; None if it
    holds a byte no row may hold or a space or tab inside a number."""
    if body.translate(None, _ROW_ALPHABET):
        return None
    if b" " in body or b"\t" in body:
        if _SPLIT_NUMBER.search(body):
            return None
        body = body.translate(None, b" \t")
    if body and not body.endswith(b"\n"):
        body += b"\n"
    return body


def _read_strides(data: bytes) -> OccupancyDataset | None:
    """The dataset a body holds if every day repeats the first day's lines
    byte for byte, apart from its day digits and occupied bits; None
    otherwise.

    The head, the first 24 lines, may hold only digits, signs, commas and
    newlines; ``_read_rows`` reads it, and the first day's lines in it must
    hold one row per hour in ascending order. The body is then walked in runs of days of
    equal digit count, each a zero-copy ``(days, block bytes)`` view
    checked by columns, ``_STRIDE_SLICE_BYTES`` of blocks at a time: the
    first day's bytes everywhere else, the same decimal digits on every
    line of a block, occupied 0 or 1. So every byte of the body is checked
    here. Days are read from their digit columns; a day of more than 18
    digits, a day below 1, days that do not strictly ascend, a partial
    last block (as when the body does not end in a newline) or more than
    19 runs decline the body.
    """
    head_end = 0
    for _ in range(24):
        if not (end := data.find(b"\n", head_end) + 1):
            break
        head_end = end
    head = data[:head_end]
    if head.translate(None, _STRIDE_ALPHABET):
        return None
    rows = _read_rows(head)
    if rows is None:
        return None
    n_hours = int((rows[:, 0] != rows[0, 0]).argmax()) or len(rows)
    first = int(rows[0, 1])
    if first < 0 or first + n_hours > 24 or (
            rows[:n_hours, 1] != np.arange(first, first + n_hours)).any():
        return None
    # each of the first day's lines past its day digits, occupied read as 0,
    # and where those tails start in a block of days of no digits
    tails = [line[line.index(b","):-1] + b"0\n" for line in head.split(b"\n")[:n_hours]]
    lengths = np.array([len(t) for t in tails])
    tail_at = np.cumsum(lengths) - lengths
    lines = np.arange(n_hours)
    a = np.frombuffer(data, np.uint8)
    days, grids, at = [], [], 0
    for _ in range(_STRIDE_RUNS):
        width = data.find(b",", at) - at
        if not 1 <= width <= _STRIDE_DAY_DIGITS:
            return None
        block = int(lengths.sum()) + n_hours * width
        blocks = a[at:at + (len(data) - at) // block * block].reshape(-1, block)
        # the run ends at the latest before the first block whose first day
        # is not ``width`` digits long, as at the first day of more digits
        ends = blocks[:, width] == _COMMA
        blocks = blocks[:len(blocks) if ends.all() else ends.argmin()]
        if not len(blocks):
            return None
        day_at = (tail_at + lines * width)[:, None] + np.arange(width)
        occupied_at = tail_at + lengths - 2 + (lines + 1) * width
        # b | 0x0F is 0x3F only for 0-9 and :;<=>?, and b | 0x01 is 0x31
        # only for 0 or 1: one compare checks every byte but the day digits'
        # upper bound
        mask = np.zeros(block, np.uint8)
        mask[day_at], mask[occupied_at] = 0x0F, 0x01
        template = np.frombuffer(b"".join(b"0" * width + t for t in tails), np.uint8) | mask
        powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        step = max(1, _STRIDE_SLICE_BYTES // block)
        for part in (blocks[i:i + step] for i in range(0, len(blocks), step)):
            digits = part[:, day_at]
            if not (((part | mask) == template).all() and (digits == digits[:, :1]).all()
                    and (digits[:, 0] <= _NINE).all()):
                return None
            days.append((digits[:, 0] - _ZERO).astype(np.int64) @ powers)
            grids.append(part[:, occupied_at] == _ZERO + 1)
        at += len(blocks) * block
        if at == len(data):
            break
    else:
        return None
    day, grid = np.concatenate(days), np.concatenate(grids)
    del days, grids  # the pieces go before the dataset copies the grid
    if day[0] < 1 or (day[1:] <= day[:-1]).any():
        return None
    return OccupancyDataset(days=tuple(day.tolist()), hours=tuple(range(first, first + n_hours)),
                            grid=grid)


def _read_lines(data: bytes) -> np.ndarray | None:
    """``_read_rows`` of whole lines, blank lines skipped; a body of blank
    lines alone holds no rows."""
    rows = _read_rows(data)
    if rows is None and (data.startswith(b"\n") or b"\n\n" in data):
        # a blank line fails the layout test; look for one only then, as the
        # search costs more than that test on a long body
        while b"\n\n" in data:
            data = data.replace(b"\n\n", b"\n")
        data = data.removeprefix(b"\n")
        rows = _read_rows(data) if data else np.empty((0, 3), np.int64)
    return rows


def _read_rows(data: bytes) -> np.ndarray | None:
    """The ``(rows, 3)`` int64 block of whole lines, or None if their
    layout is wrong."""
    n_rows = _row_count(data)
    if not n_rows:
        return None
    # the checks leave exactly three tokens per row; with ``count`` numpy
    # allocates once instead of growing 4096 values at a time, but it would
    # fill a shortfall with garbage, so the count must be known to be right
    return np.fromstring(data.replace(b"\n", b","), np.int64, count=3 * n_rows,
                         sep=",").reshape(n_rows, 3)


def _row_count(data: bytes) -> int:
    """How many rows ``data`` holds if every line is ``day,hour,occupied``
    with no empty field, a one-byte occupied field and a sign only at the
    start of a day or hour followed by a digit; 0 otherwise, also for any
    blank line."""
    a = np.frombuffer(data, np.uint8)
    commas = (a == _COMMA).nonzero()[0]
    lines = (a == _NEWLINE).nonzero()[0]  # where each row ends
    n_rows = len(lines)
    if not n_rows or len(commas) != 2 * n_rows:
        return 0
    day_end, hour_end = commas[0::2], commas[1::2]
    # the separators run comma, comma, newline with a field before each
    if (day_end[0] < 1 or (hour_end - day_end).min() < 2 or ((lines - hour_end) != 2).any()
            or n_rows > 1 and (day_end[1:] - lines[:-1]).min() < 2):
        return 0
    if b"+" in data or b"-" in data:
        signs = ((a == _PLUS) | (a == _MINUS)).nonzero()[0]
        before, after = a[signs - 1], a[signs + 1]  # a[-1] is the final newline
        if not (((before == _COMMA) | (before == _NEWLINE)) & (after >= _ZERO)).all():
            return 0
    return n_rows


def _is_day_blocks(day: np.ndarray, hour: np.ndarray, first: int, n_hours: int) -> bool:
    """Whether each block of ``n_hours`` rows is one day's hours ``first,
    first+1, ...`` in order, with the days strictly ascending from block to
    block."""
    day = day.reshape(-1, n_hours)
    return bool((hour.reshape(-1, n_hours) == np.arange(first, first + n_hours)).all()
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


def estimate_transition_schedule(dataset: OccupancyDataset) -> TransitionSchedule:
    """Estimate per-hour transition matrices by raw day counting.

    An hour whose conditioning state never occurs defaults to
    stay-in-state and is flagged in diagnostics.
    """
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
        denom_v = n_vf + n_vv
        denom_f = n_ff + n_fv
        if denom_v > 0:
            p_vf = n_vf / denom_v
        else:
            p_vf = 0.0
            diags.append(Diagnostic(
                hour=h0, condition="empty",
                reason="no day was empty at this hour; defaulted to stay-in-state",
            ))
        if denom_f > 0:
            p_ff = n_ff / denom_f
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
