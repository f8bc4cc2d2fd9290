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
import functools
import io
import os
import random
import re
import threading
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

CSV_HEADER = ("day", "hour", "occupied")
# every byte a data row may hold; anything else rejects the body
_ROW_ALPHABET = b"0123456789+-, \t\n"
_INTEGER = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
_SPLIT_NUMBER = re.compile(rb"[0-9+-][ \t]+[0-9+-]")  # a space or tab inside a number
_COMMA, _NEWLINE, _PLUS, _MINUS, _ZERO = b",\n+-0"
_MAX_DAY = 2**63 - 1  # the largest day an int64 column holds
# a body longer than this is read in line-aligned pieces, in parallel; small
# pieces keep the buffers each thread holds at once small
PIECE_BYTES = 128 * 1024
_pool = None  # the piece reader's ThreadPoolExecutor, built on the first long body
_pool_lock = threading.Lock()


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


def parse_occupancy_csv(source: bytes | str | io.IOBase) -> OccupancyDataset:
    """Parse a ``day,hour,occupied`` CSV into a dataset.

    ``source`` is the file's bytes (UTF-8), its text, or a stream of
    either. The header is ``day,hour,occupied`` (case and spaces around
    names ignored). Every other line is blank (spaces and tabs only) or a
    row ``day,hour,occupied``: day and hour are ASCII integers with an
    optional sign and optional spaces or tabs around them, and occupied is
    exactly ``0`` or ``1`` with optional spaces or tabs around it. Days are
    positive, hours lie in 0..23, every (day, hour) pair appears exactly
    once, and every day covers the same contiguous hour window. Lines may
    end in LF, CRLF or CR.
    """
    data = source if isinstance(source, (bytes, str)) else source.read()
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

    One structural pass over the bytes: byte checks, then per piece the
    layout of the separators and all three columns read at once, then
    array checks over the joined columns. The checks leave numpy only
    ``[+-]?[0-9]+`` tokens to read. A body longer than ``PIECE_BYTES`` is
    cut into line-aligned pieces read on the process-wide pool, one thread
    per usable CPU; a shorter body, or any body on one CPU, is read inline.
    A rejected body goes to ``_fault`` for its message.
    """
    data = _row_bytes(body)
    if data is None:
        return None
    columns = _read_columns(data)
    if columns is None and (data.startswith(b"\n") or b"\n\n" in data):
        # a blank line fails the layout test; look for one only then, as the
        # search costs more than that test on a long log
        while b"\n\n" in data:
            data = data.replace(b"\n\n", b"\n")
        data = data.removeprefix(b"\n")
        columns = _read_columns(data)
    if columns is None:
        return None
    day, hour, occupied = columns
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
            1 <= int(line.partition(b",")[0]) <= _MAX_DAY for line in data.splitlines()):
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


def _read_columns(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The day, hour and occupied columns of rows ending in newlines; None
    if there are none or any line fails ``_row_count``. A body of one piece
    is read inline into int64 columns; a longer one piece by piece, each
    into compact columns, then joined."""
    if len(data) <= PIECE_BYTES:
        rows = _read_rows(data)
        return None if rows is None else tuple(rows.T)
    ends, end = [], 0
    while end < len(data):
        end = data.find(b"\n", end + PIECE_BYTES - 1) + 1 or len(data)
        ends.append(end)
    pieces = _map_pieces(functools.partial(_read_piece, data), list(zip([0, *ends], ends)))
    if any(piece is None for piece in pieces):
        return None
    return tuple(np.concatenate(column) for column in zip(*pieces))


def _read_piece(data: bytes, bounds: tuple[int, int]) -> tuple | None:
    """Day (int64), hour and occupied (int8) columns of ``data[start:end]``,
    whole lines; None if its layout is wrong."""
    rows = _read_rows(data[slice(*bounds)])
    if rows is None:
        return None
    # an hour outside 0..23 is rejected, so clipping keeps the verdict in a
    # byte; occupied is one digit after the layout check
    hour = np.minimum(rows[:, 1], 24)
    return rows[:, 0].copy(), np.maximum(hour, -1, out=hour).astype(np.int8), \
        rows[:, 2].astype(np.int8)


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


def _map_pieces(read: Callable, bounds: list[tuple[int, int]]) -> list:
    """``read`` over every piece, in order: inline for one piece or one
    usable CPU, otherwise on the process-wide pool, built on first use."""
    global _pool
    if len(bounds) < 2 or (workers := _usable_cpus()) < 2:
        return [read(b) for b in bounds]
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # kept off import time

            _pool = ThreadPoolExecutor(workers, thread_name_prefix="thermark-parse")
        pool = _pool
    return list(pool.map(read, bounds))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _forget_pool() -> None:
    """In a forked child: the pool's threads did not survive the fork."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
