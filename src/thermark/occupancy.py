"""Occupancy ingestion and time-dependent transition estimation.

A zone's occupancy log is a per-day, per-hour boolean record, held as one
``(days, hours)`` bool array. For every consecutive hour pair (k, k+1) the
log yields a 2x2 stochastic matrix by counting day-level transitions:

    p_occupied_given_empty[k]    = #(empty at k -> occupied at k+1) / #(empty at k)
    p_occupied_given_occupied[k] = #(occupied at k -> occupied at k+1) / #(occupied at k)

with the complementary entries filled so each row sums to exactly 1.
Hours where a conditioning state never occurs (e.g. rooms that are never
occupied at opening time) default to stay-in-state instead of failing;
the counts of days occupied at each hour show where that happened.

Several logs are read in one call (:func:`parse_occupancy_logs`) and
counted as one (:func:`estimate_steps`), each getting the values it gets
alone; the one-log functions call the same code with one log.
"""

from __future__ import annotations

import bisect
import itertools
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ValidationError, check_utf8
from .records import Record

CSV_HEADER = ("day", "hour", "occupied")
# every byte a data row may hold; anything else rejects the body. The stride
# reader takes no space or tab.
_STRIDE_ALPHABET = b"0123456789+-,\n"
_ROW_ALPHABET = _STRIDE_ALPHABET + b" \t"
_INTEGER = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
_SPLIT_NUMBER = re.compile(rb"[0-9+-][ \t]+[0-9+-]")  # a space or tab inside a number
_COMMA, _NEWLINE, _PLUS, _MINUS, _ZERO = b",\n+-0"
_MAX_DAY = 2**63 - 1  # the largest day an int64 column holds
# a body at least this long is first tried as fixed-stride day blocks; the
# inline reader is faster below about 15 KB, a 180-day, 10-hour log
STRIDE_MIN_BYTES = 32 * 1024
_STRIDE_DAY_DIGITS = 18  # every day of at most 18 digits fits an int64
_STRIDE_RUNS = 19  # runs of equal day width; unpadded days of 1 to 18 digits make 18
# day blocks checked at once, so no temporary grows with the body; one
# compare per run over a 1.1 MB log made 1-2 MB of them and ran slower
_STRIDE_SLICE_BYTES = 128 * 1024
# short bodies checked against the reference are stacked about this many
# bytes at a time, which bounds the stack and its XOR buffer. On a 2-vCPU
# Xeon, 128 same-layout 20-day logs of 1.5 KB took within 10% of their time
# in one stack, and 512 of them 15-35% longer in one stack
_BATCH_BYTES = 64 * 1024
# a run of equal blocks of whole days (one day each from the day-block
# reader, a piece of several from _line_runs): where it starts, block bytes,
# block count, and where in a block the occupied bits are
_Run = tuple[int, int, int, np.ndarray]


class OccupancyDataset(Record):
    """Per-(day, hour) boolean records over a contiguous hour window.

    ``grid[i, j]`` is whether day ``days[i]`` was occupied at hour
    ``hours[j]``. Days ascend but may skip numbers; the grid is read-only.
    A read-only bool array is kept as it is, which is how the readers hand
    over the grid they build; any other grid is copied, so a caller's
    array never becomes read-only.
    """

    days: tuple[int, ...]
    hours: tuple[int, ...]
    grid: np.ndarray

    def __post_init__(self) -> None:
        grid = self.grid
        if not (type(grid) is np.ndarray and grid.dtype == bool and not grid.flags.writeable):
            grid = np.array(grid, dtype=bool)
            grid.flags.writeable = False
        if grid.shape != (len(self.days), len(self.hours)):
            raise ValidationError(
                f"grid shape {grid.shape} does not match {len(self.days)} days "
                f"x {len(self.hours)} hours"
            )
        object.__setattr__(self, "grid", grid)

    @property
    def day_count(self) -> int:
        return len(self.days)

    # perfbench/tracing.py reads len(records) after each parse
    @property
    def records(self) -> Mapping[tuple[int, int], bool]:
        """Read-only ``(day, hour) -> occupied`` view of ``grid``."""
        return _Records(self)


# OccupancyDataset.records' view, kept for perfbench/tracing.py
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


# perfbench/checks.py reads this record, to build a TransitionSchedule
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


# perfbench/checks.py reads this record, as unroll_zone's input
class TransitionSchedule(Record):
    """One StepMatrix per hour boundary, step k covering the k-th hour to the next."""

    matrices: tuple[StepMatrix, ...]


def parse_occupancy_csv(data: bytes | str) -> OccupancyDataset:
    """Parse a ``day,hour,occupied`` CSV into a dataset.

    ``data`` is the file's bytes, which must be UTF-8, strictly (no encoded
    surrogate), or its text, read as its UTF-8 bytes. The header is
    ``day,hour,occupied`` (case and spaces around names ignored). Every
    other line is blank (spaces and tabs only) or a row
    ``day,hour,occupied``: day and hour are ASCII integers with an optional
    sign and optional spaces or tabs around them, and occupied is exactly
    ``0`` or ``1`` with optional spaces or tabs around it. Days are
    positive, hours lie in 0..23, every (day, hour) pair appears exactly
    once, and every day covers the same contiguous hour window. Lines may
    end in LF, CRLF or CR.
    """
    return parse_occupancy_logs([data])[0]


def parse_occupancy_logs(logs: Iterable[bytes | str]) -> list[OccupancyDataset]:
    """Parse several logs in one call: each gets the dataset
    :func:`parse_occupancy_csv` gives it, and a fault raises the error
    that function gives for the first faulty log, as a :class:`LogFault`
    that holds the datasets of the logs before it.

    The logs are taken in turn. A body of at least ``STRIDE_MIN_BYTES``
    under a plain header, one that is right, ASCII and free of CR, is
    handed to the two fast readers as it lies in the log's bytes, with no
    UTF-8 or CR pass: a body either accepts holds only ``_STRIDE_ALPHABET``
    bytes, so it is UTF-8 and its line ends are LF. Every other log, and a
    long body that both fast readers decline, is checked in full first
    (``_body``): strict UTF-8, CR made LF, then the header.

    A body is read by checking it against a template, byte for byte apart
    from some allowed columns (``_differences``), where it can be:
    ``_read_strides`` checks a long body against its own first day, apart
    from the day digits and occupied bits, and ``_read_like`` checks a body
    against the reference, apart from the occupied bits. Every other body
    is read alone by the general reader (``_inline``). The reference is the
    first body that the day-block or the general reader reads in file order
    (nothing sorted, no blank line, space or tab dropped), kept until the
    call returns; no other log is kept once read. Each later body of the
    reference's length, whatever its header's, is checked against it: a
    long one alone, short ones stacked ``_BATCH_BYTES`` at a time, and the
    bodies of a stack that fails one at a time. The short bodies that fail
    their check, and those the general reader rejects, are read at the end,
    one at a time and in order, by ``_read_each``, which returns every
    log's dataset in order or raises the first fault.
    """
    items: list[OccupancyDataset | bytes] = []  # a dataset, or a body to read as rows
    alike: list[int] = []  # the items that are short bodies of the reference's length
    # the first body read in file order: its buffer, where it starts there, its
    # dataset and its runs; the general reader's reference holds its newlines
    # until a second body of its length arrives
    reference = None
    for log in logs:
        data = log.encode("utf-8", "surrogatepass") if isinstance(log, str) else log
        plain = _plain_start(data)  # a long body under a plain header goes unchecked
        data, start = (data, plain) if plain else _opened(data, items)
        size = len(data) - start
        if reference is not None and size == len(reference[0]) - reference[1]:
            if not isinstance(reference[3], list):
                reference = (*reference[:3], _line_runs(reference[3], len(reference[2].hours)))
            if size < STRIDE_MIN_BYTES:
                alike.append(len(items))
                items.append(data[start:])
                continue
            read = _read_like(np.frombuffer(data, np.uint8, offset=start)[None], *reference)
            if read is not None:
                items += read
                continue
        if size >= STRIDE_MIN_BYTES and (read := _read_strides(data, start)) is not None:
            items.append(read[0])
            if reference is None:
                reference = (data, start, *read)
            continue
        if plain:  # both fast readers declined it: check it in full
            data, start = _opened(data, items)
        body = data[start:]
        read = _inline(body)
        if read is None:  # a fault, raised in order by _read_each
            items.append(body)
            continue
        dataset, newlines = read
        items.append(dataset)
        if reference is None and newlines is not None and body.endswith(b"\n"):
            reference = (body, 0, dataset, newlines)
    at = iter(alike)
    for batch in _batches([items[i] for i in alike]) if alike else ():
        stack = np.frombuffer(b"".join(batch), np.uint8).reshape(len(batch), -1)
        read = _read_like(stack, *reference)
        if read is None and len(stack) > 1:  # some body differs elsewhere: check each
            read = [(_read_like(stack[i:i + 1], *reference) or [None])[0]
                    for i in range(len(stack))]
        for dataset, i in zip(read or [None], at):  # the list first: zip stops on it
            if dataset is not None:
                items[i] = dataset
    return _read_each(items)


def _plain_start(data: bytes) -> int:
    """Where the body starts past a plain header, one that is right, ASCII
    and free of CR, if the body is long enough for the day-block reader;
    else 0. Only the header is looked at."""
    end = data.find(b"\n")
    if (0 <= end < len(data) - STRIDE_MIN_BYTES and (header := data[:end]).isascii()
            and b"\r" not in header and _is_header(header)):
        return end + 1
    return 0


def _opened(data: bytes, items: list[OccupancyDataset | bytes]) -> tuple[bytes, int]:
    """``_body`` of a log read in a batch after ``items``; a fault raises
    the first fault among ``items``, else its own with every item's
    dataset, as a :class:`LogFault`."""
    try:
        return _body(data)
    except ValidationError as exc:
        raise LogFault(str(exc), _read_each(items)) from None  # an earlier fault first


class LogFault(ValidationError):
    """The fault of one log read in a batch: the message
    :func:`parse_occupancy_csv` gives it, and the datasets of the logs
    before it, so that its position is their count."""

    def __init__(self, message: str, datasets: list[OccupancyDataset]) -> None:
        super().__init__(message)
        self.datasets = datasets


def _body(data: bytes) -> tuple[bytes, int]:
    """A log's bytes, checked in full, line ends made LF, and where its
    body starts past the header; raises for a log that is not UTF-8
    (strictly, as :func:`thermark.errors.check_utf8` checks), is empty or
    has the wrong header."""
    check_utf8(data)
    if not data:
        raise ValidationError("no records: file is empty")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    end = data.find(b"\n")
    if end < 0:
        end = len(data)
    if not _is_header(data[:end]):
        raise ValidationError(f"expected header 'day,hour,occupied', got {data[:end].decode()!r}")
    return data, min(end + 1, len(data))


def _is_header(header: bytes) -> bool:
    """Whether a header line of UTF-8 bytes names the three columns, case
    and spaces around the names ignored."""
    return header == b"day,hour,occupied" or tuple(
        h.strip().lower() for h in header.decode().split(",")) == CSV_HEADER


def _batches(bodies: list[bytes]) -> Iterator[list[bytes]]:
    """The bodies in turn, in groups of about ``_BATCH_BYTES``."""
    ends = itertools.accumulate(map(len, bodies))
    for _, batch in itertools.groupby(zip(bodies, ends), lambda pair: pair[1] // _BATCH_BYTES):
        yield [body for body, _ in batch]


def _read_each(items: list[OccupancyDataset | bytes]) -> list[OccupancyDataset]:
    """Every item's dataset in order, a body's read alone by ``_inline``;
    the first body it rejects raises ``_fault``'s message as a
    :class:`LogFault` holding the datasets before it."""
    datasets = []
    for item in items:
        if isinstance(item, bytes):
            read = _inline(item)
            if read is None:
                raise LogFault(str(_fault(item.decode())), datasets)
            item = read[0]
        datasets.append(item)
    return datasets


def _inline(body: bytes) -> tuple[OccupancyDataset, np.ndarray | None] | None:
    """The general reader: the dataset of a body read as rows, and if every
    row was read where it stands (no space, tab or blank line dropped and
    the body not sorted) where each row's newline is, else None in its
    place; None if it rejects the body.

    Its bytes are checked and then take one structural pass, the layout
    of the separators and all three columns read at once, then array
    checks over the columns. The checks leave numpy only ``[+-]?[0-9]+``
    tokens to read."""
    if not body.endswith(b"\n"):
        body += b"\n"
    data = _row_bytes(body)
    if data is None:
        return None
    read = _read_lines(data)
    if read is None or not len(read[0]):
        return None
    rows, newlines = read
    in_order = len(data) == len(body) and len(rows) == body.count(b"\n")
    day, hour, occupied = rows.T
    first, last = int(hour.min()), int(hour.max())
    n_hours = last - first + 1
    if day.min() < 1 or first < 0 or last > 23 or occupied.max() > 1 or len(rows) % n_hours:
        return None
    if not _is_day_blocks(day, hour, first, n_hours):
        # not in day-major order: sort by day, then hour, and look again
        order = np.lexsort((hour, day))
        day, hour, occupied = day[order], hour[order], occupied[order]
        if not _is_day_blocks(day, hour, first, n_hours):
            return None
        in_order = False
    days = tuple(day[::n_hours].tolist())
    # numpy reads a number beyond the int64 range as an int64 limit, a
    # negative one too as the largest; a day read as the largest can only
    # be the last day, so then read the days exactly
    if days[-1] == _MAX_DAY and not all(
            1 <= int(line.partition(b",")[0]) <= _MAX_DAY for line in data.splitlines() if line):
        return None
    grid = _read_only(occupied.astype(bool)).reshape(-1, n_hours)  # a read-only view
    return (OccupancyDataset(days=days, hours=tuple(range(first, last + 1)), grid=grid),
            newlines if in_order else None)


def _read_only(grid: np.ndarray) -> np.ndarray:
    """A fresh bool grid made read-only, which the dataset takes without a copy."""
    grid.flags.writeable = False
    return grid


def _row_bytes(body: bytes) -> bytes | None:
    """The body without spaces or tabs; None if it holds a byte no row may
    hold or a space or tab inside a number."""
    if body.translate(None, _ROW_ALPHABET):
        return None
    if b" " in body or b"\t" in body:
        if _SPLIT_NUMBER.search(body):
            return None
        body = body.translate(None, b" \t")
    return body


def _read_strides(data: bytes, start: int) -> tuple[OccupancyDataset, list[_Run]] | None:
    """The dataset the body at ``start`` in ``data`` holds, and the runs it
    was read in, where they start in the body, if every day repeats the
    first day's lines byte for byte, apart from its day digits and occupied
    bits; None otherwise.

    The head, the first 24 lines, may hold only digits, signs, commas and
    newlines; ``_read_rows`` reads it, and the first day's lines in it must
    hold one row per hour in ascending order. The body is then walked in
    runs of days of equal digit count, each a zero-copy ``(days, block
    bytes)`` view checked by ``_differences``, ``_STRIDE_SLICE_BYTES`` of
    blocks at a time, against the first day's block with its day digits
    and occupied bits ``0``: the template's bytes everywhere else, the same
    decimal digits on every line of a block, occupied 0 or 1. So every byte
    of the body is checked here. Days are read from their digit columns; a
    day of more than 18 digits, a day below 1, days that do not strictly
    ascend, a partial last block (as when the body does not end in a
    newline) or more than 19 runs decline the body.
    """
    head_end = start
    for _ in range(24):
        if not (end := data.find(b"\n", head_end) + 1):
            break
        head_end = end
    head = data[start:head_end]
    if head.translate(None, _STRIDE_ALPHABET):
        return None
    read = _read_rows(head)
    if read is None:
        return None
    rows = read[0]
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
    days, grids, runs, at = [], [], [], start
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
        occupied_at = tail_at + lengths - 2 + (lines + 1) * width
        day_at = (tail_at + lines * width)[:, None] + np.arange(width)
        # a byte XORed with "0" is at most 9 only for a digit, and then its value
        template = np.frombuffer(b"".join(b"0" * width + t for t in tails), np.uint8)
        allowed = np.concatenate([occupied_at, day_at.ravel()])
        powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        step = _slice_blocks(block)
        buffer = np.empty(min(step, len(blocks)) * block, np.uint8)
        for part in (blocks[i:i + step] for i in range(0, len(blocks), step)):
            if (picked := _differences(part, template, allowed, buffer)) is None:
                return None
            bits, digits = picked[:, :n_hours], picked[:, n_hours:].reshape(len(part), n_hours, -1)
            if not (bits.max() <= 1 and digits[:, 0].max() <= 9
                    and (digits == digits[:, :1]).all()):
                return None
            days.append(digits[:, 0].astype(np.int64) @ powers)
            grids.append(bits.astype(bool))  # a copy: no view holds the digits
        runs.append((at - start, block, len(blocks), occupied_at))
        at += len(blocks) * block
        if at == len(data):
            break
    else:
        return None
    day, grid = np.concatenate(days), np.concatenate(grids)
    del days, grids  # the pieces go before the days are read into a tuple
    if day[0] < 1 or (day[1:] <= day[:-1]).any():
        return None
    return OccupancyDataset(days=tuple(day.tolist()), hours=tuple(range(first, first + n_hours)),
                            grid=_read_only(grid)), runs


def _read_like(stack: np.ndarray, reference: bytes, start: int,
               dataset: OccupancyDataset, runs: list[_Run]) -> list[OccupancyDataset] | None:
    """The dataset of each body in ``stack``, a ``(bodies, bytes)`` array of
    bodies of the reference's length, if each is the body at ``start`` in
    ``reference``, read in file order as ``dataset`` in ``runs``, with
    other occupied bits; None if any body differs from it elsewhere.

    Each run is walked in the slices of blocks that ``_read_strides``
    checks, each slice of every body checked against the reference's by
    ``_differences``. The reference holds ``0`` or ``1`` at every occupied
    column, so a difference of at most 1 there leaves a body a ``0`` or
    ``1`` too, and every other byte is the reference's: either reader
    would read the body as ``dataset``'s days and hours with the flipped
    bits.
    """
    ref = np.frombuffer(reference, np.uint8, offset=start)
    buffer = np.empty(len(stack) * max(min(count, _slice_blocks(block)) * block
                                       for _, block, count, _ in runs), np.uint8)
    grids, row, n_hours = [], 0, len(dataset.hours)
    for at, block, count, occupied_at in runs:
        step = _slice_blocks(block)
        bodies = stack[:, at:at + count * block].reshape(len(stack), count, block)
        blocks = ref[at:at + count * block].reshape(count, block)
        for i in range(0, count, step):
            flips = _differences(bodies[:, i:i + step], blocks[i:i + step], occupied_at, buffer)
            if flips is None or flips.max() > 1:
                return None
            flips = flips.reshape(len(stack), -1, n_hours).view(bool)
            grids.append(dataset.grid[row:row + flips.shape[1]] ^ flips)
            row += flips.shape[1]
    return [OccupancyDataset(days=dataset.days, hours=dataset.hours, grid=grid)
            for grid in _read_only(np.concatenate(grids, axis=1))]


def _differences(part: np.ndarray, template: np.ndarray, allowed: np.ndarray,
                 out: np.ndarray) -> np.ndarray | None:
    """``part``, a ``(..., block)`` array, XORed with ``template`` into the
    reused buffer ``out``, at the ``allowed`` columns of each block, if
    ``part`` differs from ``template`` nowhere else; None otherwise."""
    xor = np.bitwise_xor(part, template, out=out[:part.size].reshape(part.shape))
    picked = xor[..., allowed]
    # the allowed columns are distinct, so equal counts leave no byte outside them
    return picked if np.count_nonzero(xor) == np.count_nonzero(picked) else None


def _line_runs(newlines: np.ndarray, n_hours: int) -> list[_Run]:
    """The runs of a body the general reader read in file order, from where
    its newlines are: its days cut into pieces of about
    ``_STRIDE_SLICE_BYTES``, each piece one block, whose occupied bytes are
    those before its newlines. A short body is one piece."""
    day_ends = newlines[n_hours - 1::n_hours] + 1
    runs, at, day = [], 0, 0
    while day < len(day_ends):
        # the piece holds every day that ends in the slice this one ends in
        limit = ((int(day_ends[day]) - 1) // _STRIDE_SLICE_BYTES + 1) * _STRIDE_SLICE_BYTES
        last = int(day_ends.searchsorted(limit, "right"))
        end = int(day_ends[last - 1])
        runs.append((at, end - at, 1, newlines[day * n_hours:last * n_hours] - 1 - at))
        at, day = end, last
    return runs


def _slice_blocks(block: int) -> int:
    """How many day blocks of ``block`` bytes make one checked slice."""
    return max(1, _STRIDE_SLICE_BYTES // block)


def _read_lines(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """``_read_rows`` of whole lines, blank lines skipped, so that the
    newlines are those of ``data`` without them; a body of blank lines
    alone holds no rows."""
    read = _read_rows(data)
    if read is None and (data.startswith(b"\n") or b"\n\n" in data):
        # a blank line fails the layout test; look for one only then, as the
        # search costs more than that test on a long body
        while b"\n\n" in data:
            data = data.replace(b"\n\n", b"\n")
        data = data.removeprefix(b"\n")
        read = (_read_rows(data) if data
                else (np.empty((0, 3), np.int64), np.empty(0, np.intp)))
    return read


def _read_rows(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The ``(rows, 3)`` int64 block of whole lines and where each row's
    newline is, or None if their layout is wrong."""
    newlines = _row_ends(data)
    if newlines is None:
        return None
    n_rows = len(newlines)
    # the checks leave exactly three tokens per row; with ``count`` numpy
    # allocates once instead of growing 4096 values at a time, but it would
    # fill a shortfall with garbage, so the count must be known to be right
    return np.fromstring(data.replace(b"\n", b","), np.int64, count=3 * n_rows,
                         sep=",").reshape(n_rows, 3), newlines


def _row_ends(data: bytes) -> np.ndarray | None:
    """Where each row's newline is, if every line of ``data`` is
    ``day,hour,occupied`` with no empty field, a one-byte occupied field
    and a sign only at the start of a day or hour followed by a digit;
    None otherwise, also for no rows or any blank line."""
    a = np.frombuffer(data, np.uint8)
    commas = (a == _COMMA).nonzero()[0]
    lines = (a == _NEWLINE).nonzero()[0]  # where each row ends
    n_rows = len(lines)
    if not n_rows or len(commas) != 2 * n_rows:
        return None
    day_end, hour_end = commas[0::2], commas[1::2]
    # the separators run comma, comma, newline with a field before each
    if (day_end[0] < 1 or (hour_end - day_end).min() < 2 or ((lines - hour_end) != 2).any()
            or n_rows > 1 and (day_end[1:] - lines[:-1]).min() < 2):
        return None
    if b"+" in data or b"-" in data:
        signs = ((a == _PLUS) | (a == _MINUS)).nonzero()[0]
        before, after = a[signs - 1], a[signs + 1]  # a[-1] is the final newline
        if not (((before == _COMMA) | (before == _NEWLINE)) & (after >= _ZERO)).all():
            return None
    return lines


def _is_day_blocks(day: np.ndarray, hour: np.ndarray, first: int, n_hours: int) -> bool:
    """Whether each block of ``n_hours`` rows is one day's hours ``first,
    first+1, ...`` in order, with the days strictly ascending from block to
    block."""
    day = day.reshape(-1, n_hours)
    return bool((hour.reshape(-1, n_hours) == np.arange(first, first + n_hours)).all()
                and (day == day[:, :1]).all() and (day[1:, 0] > day[:-1, 0]).all())


def _fault(body: str) -> ValidationError:
    """The first fault of a body the readers rejected, as the message
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


def estimate_steps(grids: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Raw day-counting estimates of several logs at once.

    ``grids`` holds one ``(days, hours)`` bool grid per log, each of at
    least one day and all of one hour count H. Returns ``(p_vf, p_ff,
    occupied, days)``: the ``(N, H-1)`` probabilities of moving to
    occupied from empty and from occupied at each step, the ``(N, H)``
    count of days occupied at each hour and the ``(N,)`` day counts. A step
    whose conditioning state never occurs gets stay-in-state, 0.0 or 1.0.
    Each count is an exact integer, summed over every log's days by one
    ``np.add.reduceat`` at the day offsets, and each probability one float
    division of two of them, so every value equals a one-log count's.
    """
    lengths = [len(grid) for grid in grids]
    starts = list(itertools.accumulate(lengths[:-1], initial=0))
    grid = grids[0] if len(grids) == 1 else np.concatenate(grids)
    # an int32 sum is exact below 2**31 days, and on the day-block reader's
    # column-major grids about twice as fast as an intp one
    count = np.int32 if len(grid) < 2**31 else np.intp
    occupied = np.add.reduceat(grid, starts, dtype=count)
    stayed = np.add.reduceat(grid[:, :-1] & grid[:, 1:], starts, dtype=count)
    days = np.array(lengths)
    before = occupied[:, :-1]  # days occupied at k; the others were empty
    # a zero denominator becomes 1 over a numerator of 0, or for p_ff of 1
    p_vf = (occupied[:, 1:] - stayed) / np.maximum(days[:, None] - before, 1)
    p_ff = (stayed + (before == 0)) / np.maximum(before, 1)
    return p_vf, p_ff, occupied, days
