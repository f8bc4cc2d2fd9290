"""Tests for occupancy parsing, transition estimation and marginals."""

from __future__ import annotations

import json
import re
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from conftest import dataset_to_csv, make_schedule, random_schedule, sample_dataset
from thermark import ValidationError, occupied_marginals, parse_occupancy_csv
from thermark import occupancy
from thermark.cli import _schedule_json
from thermark.datasets import seven_day_log_csv
from thermark.errors import read_bytes
from thermark.markov import unroll_zones
from thermark.occupancy import OccupancyDataset, _fault, _read_strides


def read_grid(body: bytes) -> OccupancyDataset | None:
    """What ``parse_occupancy_csv`` reads in one body, or None where it
    raises."""
    try:
        return parse_occupancy_csv(b"day,hour,occupied\n" + body)
    except ValidationError:
        return None


@pytest.fixture
def benchmark_dataset():
    return parse_occupancy_csv(seven_day_log_csv().read_text())


def schedule_payload(dataset: OccupancyDataset) -> dict:
    """``estimate``'s schedule.json of one log, read back: its steps from
    ``estimate_steps`` and the hours flagged as defaulted."""
    (p_vf,), (p_ff,), (occupied,), _ = occupancy.estimate_steps([dataset.grid])
    return json.loads(_schedule_json(dataset.hours, p_vf, p_ff, occupied, dataset.day_count, []))


class TestParse:
    def test_benchmark_file(self, benchmark_dataset):
        assert benchmark_dataset.day_count == 7
        assert benchmark_dataset.hours == tuple(range(8, 18))
        assert not benchmark_dataset.records[(1, 8)]
        assert benchmark_dataset.records[(1, 9)]

    def test_empty_file(self):
        with pytest.raises(ValidationError, match="no records"):
            parse_occupancy_csv("")
        with pytest.raises(ValidationError, match="no records"):
            parse_occupancy_csv("day,hour,occupied\n")

    def test_occupied_must_be_binary(self):
        with pytest.raises(ValidationError, match="occupied must be 0 or 1"):
            parse_occupancy_csv("day,hour,occupied\n3,9,2\n")

    def test_duplicate_pair(self):
        text = "day,hour,occupied\n1,8,0\n1,9,1\n1,8,1\n"
        with pytest.raises(ValidationError, match="duplicate record"):
            parse_occupancy_csv(text)

    def test_gap_in_hours(self):
        text = "day,hour,occupied\n1,8,0\n1,10,1\n"
        with pytest.raises(ValidationError, match="not contiguous"):
            parse_occupancy_csv(text)

    def test_missing_hour_for_one_day(self):
        text = "day,hour,occupied\n1,8,0\n1,9,1\n2,8,0\n"
        with pytest.raises(ValidationError, match="day 2 is missing hour 9"):
            parse_occupancy_csv(text)

    def test_malformed_row_reports_line(self):
        text = "day,hour,occupied\n1,8,0\nnope\n"
        with pytest.raises(ValidationError, match="line 3"):
            parse_occupancy_csv(text)

    def test_header_required(self):
        with pytest.raises(ValidationError, match="header"):
            parse_occupancy_csv("a,b,c\n1,8,0\n")


H = "day,hour,occupied\n"

# (id, file text, (days, hours) if accepted or the exact message if rejected)
GRAMMAR_CASES = [
    ("canonical", H + "1,8,0\n1,9,1\n2,8,1\n2,9,0\n", ((1, 2), (8, 9))),
    ("spaces-and-tabs", H + " 1 ,\t8\t, 0 \n1 , 9,1\t\n", ((1,), (8, 9))),
    ("plus-sign-day", H + "+1,8,0\n1,9,1\n", ((1,), (8, 9))),
    ("minus-zero-hour", H + "1,-0,0\n1,1,1\n", ((1,), (0, 1))),
    ("leading-zeros", H + "01,08,0\n1,09,1\n", ((1,), (8, 9))),
    ("zero-padded-hour", H + "1,0008,0\n", ((1,), (8,))),
    ("zero-padded-20-digit-day", H + "00000000000000000001,8,0\n", ((1,), (8,))),
    ("blank-lines", H + "\n1,8,0\n\n\n1,9,1\n\n", ((1,), (8, 9))),
    ("whitespace-only-lines", H + " \t\n1,8,0\n  \n1,9,1\n\t", ((1,), (8, 9))),
    ("long-blank-run", H + "1,8,0\n" + "\n" * 20 + "1,9,1\n", ((1,), (8, 9))),
    ("largest-day-and-blank-line", H + "9223372036854775807,8,1\n\n9223372036854775807,9,0\n",
     ((2**63 - 1,), (8, 9))),
    ("no-final-newline", H + "1,8,0\n1,9,1", ((1,), (8, 9))),
    ("crlf", "day,hour,occupied\r\n1,8,0\r\n1,9,1\r\n", ((1,), (8, 9))),
    ("cr", "day,hour,occupied\r1,8,0\r1,9,1\r", ((1,), (8, 9))),
    ("header-case-and-spaces", " Day , HOUR,occupied \n1,8,0\n1,9,1\n", ((1,), (8, 9))),
    ("gapped-unsorted-days", H + "90,9,1\n7,8,0\n90,8,1\n7,9,0\n", ((7, 90), (8, 9))),
    ("occupied-01", H + "1,8,01\n1,9,1\n", "line 2: occupied must be 0 or 1, got '01'"),
    ("occupied-plus-1", H + "1,8,+1\n1,9,1\n", "line 2: occupied must be 0 or 1, got '+1'"),
    ("occupied-2", H + "1,8,0\n1,9,2\n", "line 3: occupied must be 0 or 1, got '2'"),
    ("occupied-1.0", H + "1,8,1.0\n", "line 2: occupied must be 0 or 1, got '1.0'"),
    ("day-1.0", H + "1.0,8,1\n", "line 2: day and hour must be integers"),
    ("comment-line", H + "# note\n1,8,0\n", "line 2: expected 3 fields, got 1"),
    ("comment-with-commas", H + "1,8,0\n#,a,b\n", "line 3: day and hour must be integers"),
    ("trailing-comma", H + "1,8,0,\n", "line 2: expected 3 fields, got 4"),
    ("two-fields", H + "1,8,0\n1,9\n", "line 3: expected 3 fields, got 2"),
    ("empty-field", H + "1,,0\n", "line 2: day and hour must be integers"),
    ("empty-first-day", H + ",8,0\n", "line 2: day and hour must be integers"),
    ("empty-later-day", H + "1,8,0\n,9,1\n", "line 3: day and hour must be integers"),
    ("space-inside-number", H + "1 2,8,0\n", "line 2: day and hour must be integers"),
    ("tab-inside-number", H + "1\t2,8,0\n", "line 2: day and hour must be integers"),
    ("bare-sign", H + "1,-,0\n", "line 2: day and hour must be integers"),
    ("sign-after-digit", H + "1,8-,0\n", "line 2: day and hour must be integers"),
    ("doubled-sign", H + "+-1,8,0\n", "line 2: day and hour must be integers"),
    ("signed-occupied", H + "1,8,-0\n", "line 2: occupied must be 0 or 1, got '-0'"),
    ("20-digit-day", H + "99999999999999999999,8,0\n",
     "line 2: day must be at most 9223372036854775807"),
    ("day-0", H + "0,8,0\n", "line 2: day must be a positive integer"),
    ("day-negative", H + "1,8,0\n-3,8,0\n", "line 3: day must be a positive integer"),
    ("hour-24", H + "1,24,0\n", "line 2: hour must be in 0..23"),
    ("hour-negative", H + "1,-1,0\n", "line 2: hour must be in 0..23"),
    ("hour-265", H + "1,8,0\n1,265,1\n", "line 3: hour must be in 0..23"),  # 9 in a byte
    ("duplicate", H + "1,8,0\n1,9,1\n1,8,1\n", "line 4: duplicate record for day 1, hour 8"),
    ("duplicate-spelled-differently", H + "1,8,0\n+1,08,0\n",
     "line 3: duplicate record for day 1, hour 8"),
    ("first-fault-wins", H + "1,8,0\n\n1,8,1\n1,25,0\n",
     "line 4: duplicate record for day 1, hour 8"),
    ("gap", H + "1,8,0\n1,9,1\n2,8,0\n", "gap in data: day 2 is missing hour 9"),
    ("non-contiguous-hours", H + "1,8,0\n1,10,1\n", "hours are not contiguous: (8, 10)"),
    ("missing-header", "1,8,0\n1,9,1\n", "expected header 'day,hour,occupied', got '1,8,0'"),
    ("empty-file", "", "no records: file is empty"),
    ("header-only", H, "no records: file contains a header but no rows"),
    ("blank-body", H + "\n \n\t\n", "no records: file contains a header but no rows"),
    # deliberate rejections: the grammar is ASCII integers, unquoted
    ("quoted-field", H + '"1",8,0\n1,9,1\n', "line 2: day and hour must be integers"),
    ("digit-separator", H + "1_0,8,0\n", "line 2: day and hour must be integers"),
    ("non-ascii-space", H + "\xa01,8,0\n", "line 2: day and hour must be integers"),
    ("non-ascii-digit", H + "1,8,0\n\u0661,8,0\n", "line 3: day and hour must be integers"),
    ("form-feed-line", H + "1,8,0\n\f\n", "line 3: expected 3 fields, got 1"),
    ("day-beyond-int64", H + "9223372036854775808,8,0\n",
     "line 2: day must be at most 9223372036854775807"),
]


def assert_verdict(text, verdict):
    if isinstance(verdict, str):
        with pytest.raises(ValidationError) as info:
            parse_occupancy_csv(text)
        assert str(info.value) == verdict
    else:
        dataset = parse_occupancy_csv(text)
        assert (dataset.days, dataset.hours) == verdict


def assert_largest_day_accepted():
    dataset = parse_occupancy_csv(H + "9223372036854775807,8,1\n9223372036854775807,9,0\n")
    assert dataset.days == (2**63 - 1,)
    assert dataset.records[(2**63 - 1, 8)]


GRAMMAR_PARAMS = dict(argnames="text, verdict", argvalues=[case[1:] for case in GRAMMAR_CASES],
                      ids=[case[0] for case in GRAMMAR_CASES])


class TestGrammar:
    @pytest.mark.parametrize(**GRAMMAR_PARAMS)
    def test_verdict(self, text, verdict):
        assert_verdict(text, verdict)

    def test_largest_day_is_accepted(self):
        assert_largest_day_accepted()


class TestDataset:
    def test_records_is_a_read_only_view(self, benchmark_dataset):
        records = benchmark_dataset.records
        assert isinstance(records, Mapping)
        assert len(records) == 7 * 10
        assert list(records)[:2] == [(1, 8), (1, 9)]
        assert records[(1, 9)] is True and records[(1, 8)] is False
        for key in ((8, 8), (1, 18), "x"):
            assert key not in records
        with pytest.raises(TypeError):
            records[(1, 8)] = True  # type: ignore[index]

    def test_grid_is_read_only(self, benchmark_dataset):
        assert benchmark_dataset.grid.shape == (7, 10)
        with pytest.raises(ValueError):
            benchmark_dataset.grid[0, 0] = True

    def test_grid_must_match_days_and_hours(self):
        with pytest.raises(ValidationError, match="grid shape"):
            OccupancyDataset(days=(1, 2), hours=(8, 9, 10), grid=np.zeros((2, 2), bool))

    def test_reader_grid_is_taken_without_a_copy(self, monkeypatch):
        handed = []
        post_init = OccupancyDataset.__post_init__

        def spy(dataset):
            handed.append(dataset.grid)
            post_init(dataset)

        monkeypatch.setattr(OccupancyDataset, "__post_init__", spy)
        # the short log takes the column reader, the long one the day-block reader
        for body in (seven_day_log_csv().read_bytes(), long_log(days=400)[0]):
            dataset = parse_occupancy_csv(body)
            assert np.shares_memory(dataset.grid, handed[-1])
            assert not dataset.grid.flags.writeable

    def test_window_view_is_taken_without_a_copy(self):
        dataset = parse_occupancy_csv(seven_day_log_csv().read_bytes())
        view = dataset.grid[:, 1:4]
        windowed = OccupancyDataset(dataset.days, dataset.hours[1:4], view)
        assert windowed.grid is view

    def test_caller_grid_is_copied(self):
        grid = np.array([[True, False]])
        dataset = OccupancyDataset(days=(1,), hours=(8, 9), grid=grid)
        assert not np.shares_memory(dataset.grid, grid)
        assert grid.flags.writeable and not dataset.grid.flags.writeable

    def test_equality_compares_contents(self):
        grid = np.array([[True, False]])
        a = OccupancyDataset(days=(1,), hours=(8, 9), grid=grid)
        assert a == OccupancyDataset(days=(1,), hours=(8, 9), grid=grid.copy())
        assert a != OccupancyDataset(days=(2,), hours=(8, 9), grid=grid)
        assert a != OccupancyDataset(days=(1,), hours=(8, 9), grid=~grid)


def reference_parse(text):
    """Read a well-formed log one row at a time into a dict."""
    records = {}
    for line in text.splitlines()[1:]:
        if line.strip():
            day, hour, occupied = (int(field) for field in line.split(","))
            records[(day, hour)] = occupied == 1
    days = tuple(sorted({d for d, _ in records}))
    hours = tuple(sorted({h for _, h in records}))
    return days, hours, records


def reference_estimate(days, hours, records):
    """Per-step (p_vf, p_ff, fallback hours) from one dict lookup per day and hour."""
    steps = []
    for h0, h1 in zip(hours, hours[1:]):
        n = {(a, b): 0 for a in (False, True) for b in (False, True)}
        for d in days:
            n[(records[(d, h0)], records[(d, h1)])] += 1
        denom_v = n[(False, True)] + n[(False, False)]
        denom_f = n[(True, True)] + n[(True, False)]
        p_vf = n[(False, True)] / denom_v if denom_v > 0 else 0.0
        p_ff = n[(True, True)] / denom_f if denom_f > 0 else 1.0
        steps.append((p_vf, 1.0 - p_vf, p_ff, 1.0 - p_ff))
    return steps


class TestColumnarMatchesPerRowReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_parse_and_estimate(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n_days = (1, 5000)[seed] if seed < 2 else int(np.exp(rng.uniform(0, np.log(5000))))
        day_numbers = np.sort(rng.choice(np.arange(1, 30 * n_days + 1), n_days, replace=False))
        first = int(rng.integers(0, 23))
        hours = range(first, int(rng.integers(first + 1, 24)) + 1)
        grid = rng.random((n_days, len(hours))) < rng.uniform(0.05, 0.95)
        if seed % 3 == 0:
            grid[:, int(rng.integers(len(hours)))] = bool(seed % 2)  # a one-state hour
        rows = [f"{d},{h},{int(grid[i, j])}"
                for i, d in enumerate(day_numbers.tolist()) for j, h in enumerate(hours)]
        rng.shuffle(rows)
        text = "day,hour,occupied\n" + "\n".join(rows) + "\n"

        dataset = parse_occupancy_csv(text)
        days, ref_hours, records = reference_parse(text)
        assert dataset.days == days == tuple(day_numbers.tolist())
        assert dataset.hours == ref_hours
        assert np.array_equal(dataset.grid, [[records[(d, h)] for h in ref_hours] for d in days])

        (p_vf,), (p_ff,), _, _ = occupancy.estimate_steps([dataset.grid])
        expected = reference_estimate(days, ref_hours, records)
        got = [(v, 1.0 - v, f, 1.0 - f) for v, f in zip(p_vf.tolist(), p_ff.tolist())]
        assert [[p.hex() for p in step] for step in got] == \
            [[p.hex() for p in step] for step in expected]


def mutated_bodies(st):
    """Log bodies over the row alphabet: a well-formed log of a few days,
    then up to four fields respelled (a sign, leading zeros, emptied, a 2,
    an 18-21 digit day, spaces or tabs around or inside), a repeated row,
    blank lines, rows in any order, and up to two bytes inserted, replaced
    or deleted."""
    respell = st.sampled_from(["+", "-", "0", "00", "0" * 19, "", "2", "pad", "split", "big"])
    big = st.one_of(st.integers(10**17, 10**21 - 1), st.sampled_from([2**63 - 1, 2**63]))
    gap = st.sampled_from(["", " ", "\t", " \t"])

    @st.composite
    def bodies(draw):
        first = draw(st.integers(0, 23))
        hours = range(first, draw(st.integers(first, min(first + 2, 23))) + 1)
        days = sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=3)))
        rows = [[str(d), str(h), str(draw(st.integers(0, 1)))] for d in days for h in hours]
        for _ in range(draw(st.integers(0, 4))):
            row = draw(st.integers(0, len(rows) - 1))
            field, kind = draw(st.integers(0, 2)), draw(respell)
            token = rows[row][field]
            if kind in ("+", "-", "0", "00", "0" * 19):
                token = kind + token
            elif kind in ("", "2"):
                token = kind
            elif kind == "pad":
                token = draw(gap) + token + draw(gap)
            elif kind == "split":
                token = "1" + draw(st.sampled_from([" ", "\t"])) + token
            else:  # a big day for every row of this row's day
                day, token = rows[row][0], str(draw(big))
                rows = [[token, *r[1:]] if r[0] == day else r for r in rows]
                continue
            rows[row][field] = token
        lines = [",".join(row) for row in rows]
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(lines)))
        if draw(st.booleans()):
            lines = draw(st.permutations(lines))
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(gap))
        body = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n \n"]))
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            at = draw(st.integers(0, len(body)))
            body = (body[:at] + draw(st.sampled_from(["", *"0123456789+-, \t\n"]))
                    + body[at + draw(st.integers(0, 1)):])
        return body

    return bodies()


def assert_structural_pass_matches_row_reader():
    hypothesis = pytest.importorskip("hypothesis")
    fallback = "occupancy rows could not be read"

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(mutated_bodies(hypothesis.strategies))
    def agree(body):
        dataset = read_grid(body.encode())
        fault = str(_fault(body))
        if dataset is None:
            assert fault != fallback, body
            return
        assert fault == fallback, body  # the row reader finds no fault either
        days, hours, records = reference_parse(H + body)
        assert dataset == OccupancyDataset(
            days, hours, [[records[(d, h)] for h in hours] for d in days])

    agree()


class TestStructuralPassMatchesRowReader:
    def test_mutated_bodies(self):
        assert_structural_pass_matches_row_reader()


@pytest.fixture
def stride_first(monkeypatch):
    """Offer every body, however short, to the stride reader first."""
    monkeypatch.setattr(occupancy, "STRIDE_MIN_BYTES", 0)


def long_log(days=5000, hours=range(24), seed=8):
    """A canonical log, far longer than ``STRIDE_MIN_BYTES``, and its dataset."""
    grid = np.random.default_rng(seed).random((days, len(hours))) < 0.4
    dataset = OccupancyDataset(tuple(range(1, days + 1)), tuple(hours), grid)
    return dataset_to_csv(dataset).encode(), dataset


def read_strides(data):
    """What the stride reader makes of a file's body, as the file holds it."""
    read = _read_strides(data, data.index(b"\n") + 1)
    return None if read is None else read[0]


def full_days(*days):
    """The lines of 24-hour days, each day spelled as given."""
    return "".join(f"{day},{hour},{hour % 2}\n" for day in days for hour in range(24))


# (id, file text, verdict as in GRAMMAR_CASES, whether the stride reader
# reads it rather than declining)
STRIDE_CASES = [
    ("day-width-9-to-10", H + "".join(f"{d},8,{d % 2}\n{d},9,1\n" for d in range(8, 12)),
     ((8, 9, 10, 11), (8, 9)), True),
    ("day-width-99-to-100", H + "".join(f"{d},0,0\n{d},1,{d % 2}\n" for d in range(98, 102)),
     ((98, 99, 100, 101), (0, 1)), True),
    ("zero-padded-days", H + "01,8,0\n01,9,1\n02,8,1\n02,9,0\n", ((1, 2), (8, 9)), True),
    ("padding-changes", H + "1,8,0\n1,9,1\n02,8,1\n02,9,0\n003,8,0\n003,9,0\n",
     ((1, 2, 3), (8, 9)), True),
    ("padding-shrinks", H + "001,8,0\n001,9,1\n2,8,1\n2,9,0\n", ((1, 2), (8, 9)), True),
    ("18-digit-day", H + "999999999999999999,8,0\n999999999999999999,9,1\n",
     ((10**18 - 1,), (8, 9)), True),
    ("signed-hours", H + "1,+8,0\n1,09,1\n2,+8,1\n2,09,0\n", ((1, 2), (8, 9)), True),
    ("19-runs", H + "".join(f"{d:0{2 + d % 2}},8,0\n{d:0{2 + d % 2}},9,1\n" for d in range(2, 21)),
     (tuple(range(2, 21)), (8, 9)), True),
    ("20-runs", H + "".join(f"{d:0{2 + d % 2}},8,0\n{d:0{2 + d % 2}},9,1\n" for d in range(1, 21)),
     (tuple(range(1, 21)), (8, 9)), False),
    ("first-day-hours-out-of-order", H + "1,9,0\n1,8,1\n2,9,0\n2,8,1\n",
     ((1, 2), (8, 9)), False),
    ("later-day-respells-an-hour", H + "1,8,0\n1,9,1\n2,08,0\n2,9,1\n", ((1, 2), (8, 9)), False),
    ("later-day-respells-an-hour-same-width", H + "1,08,0\n1,9,1\n2,+8,0\n2,9,1\n",
     ((1, 2), (8, 9)), False),
    ("duplicate-day", H + "1,8,0\n1,9,1\n2,8,0\n2,9,1\n2,8,1\n2,9,0\n",
     "line 6: duplicate record for day 2, hour 8", False),
    ("descending-days", H + "2,8,0\n2,9,1\n1,8,0\n1,9,1\n", ((1, 2), (8, 9)), False),
    ("day-digits-differ-within-a-day", H + "1,8,0\n2,9,1\n", "gap in data: day 1 is missing hour 9",
     False),
    ("19-digit-day", H + "1000000000000000000,8,0\n1000000000000000000,9,1\n",
     ((10**18,), (8, 9)), False),
    ("20-digit-day", H + "10000000000000000000,8,0\n10000000000000000000,9,1\n",
     "line 2: day must be at most 9223372036854775807", False),
    ("day-0", H + "0,8,0\n0,9,1\n", "line 2: day must be a positive integer", False),
    ("partial-last-day", H + "1,8,0\n1,9,1\n2,8,0\n", "gap in data: day 2 is missing hour 9",
     False),
    ("occupied-2", H + "1,8,0\n1,9,1\n2,8,0\n2,9,2\n", "line 5: occupied must be 0 or 1, got '2'",
     False),
    ("blank-line-between-days", H + "1,8,0\n1,9,1\n\n2,8,0\n2,9,1\n", ((1, 2), (8, 9)), False),
    ("hour-window-widens", H + "1,8,0\n2,8,0\n2,9,1\n", "gap in data: day 1 is missing hour 9",
     False),
    # bytes outside the row alphabet, and spaces and tabs, which only the
    # inline reader reads. The stride reader reads its head, up to 24 lines,
    # by rows, so a fault meant for its column checks comes after 24-hour
    # days; b | 0x0F == 0x3F holds for ``:`` and ``?`` too
    ("day-colon", H + full_days(1, ":"), "line 26: day and hour must be integers", False),
    ("day-question-mark", H + full_days(10, "1?"), "line 26: day and hour must be integers",
     False),
    ("hash-occupied-in-a-later-day", H + full_days(1, 2).replace("\n2,5,1", "\n2,5,#"),
     "line 31: occupied must be 0 or 1, got '#'", False),
    ("letter-day-in-a-later-day", H + full_days(1, "a"),
     "line 26: day and hour must be integers", False),
    ("non-ascii-hour-in-a-later-day", H + full_days(1, 2).replace("\n2,10,", "\n2,\u00e9,"),
     "line 36: day and hour must be integers", False),
    ("space-inside-a-first-day-hour", H + "1,0 8,0\n1,09,1\n2,0 8,0\n2,09,1\n",
     "line 2: day and hour must be integers", False),
    ("space-in-the-first-day", H + "1,8 ,0\n1,9,1\n2,8 ,0\n2,9,1\n", ((1, 2), (8, 9)), False),
    ("tab-in-the-first-day", H + "1,8,0\t\n1,9,1\n2,8,0\t\n2,9,1\n", ((1, 2), (8, 9)), False),
    ("space-in-a-later-day",
     H + full_days(1, 2).replace("\n1,5,", "\n1,05,").replace("\n2,5,", "\n2, 5,"),
     ((1, 2), tuple(range(24))), False),
    ("tab-in-a-later-day",
     H + full_days(1, 2).replace("\n1,5,", "\n1,05,").replace("\n2,5,", "\n2,\t5,"),
     ((1, 2), tuple(range(24))), False),
    ("no-final-newline", H + full_days(1, 2)[:-1], ((1, 2), tuple(range(24))), False),
]


def day_block_bodies(st):
    """Well-formed logs of ascending days whose digit counts change, hours
    spelled one way on every day, then up to two lines changed: a day digit,
    an hour respelled, occupied 2, a line dropped or repeated, or two days
    swapped."""

    @st.composite
    def bodies(draw):
        first = draw(st.integers(0, 22))
        hours = range(first, draw(st.integers(first, min(first + 3, 23))) + 1)
        spelled = [draw(st.sampled_from([str(h), f"0{h}", f"+{h}"])) for h in hours]
        days = sorted(draw(st.sets(st.sampled_from([*range(1, 12), *range(95, 105), 999, 1000]),
                                   min_size=1, max_size=8)))
        pad = draw(st.sampled_from(["", "0", "00"]))
        blocks = [[f"{pad}{d},{h},{draw(st.integers(0, 1))}" for h in spelled] for d in days]
        for _ in range(draw(st.integers(0, 2))):
            block = draw(st.integers(0, len(blocks) - 1))
            if not blocks[block]:
                continue  # a one-line day already dropped
            line = draw(st.integers(0, len(blocks[block]) - 1))
            kind = draw(st.sampled_from(["day", "hour", "occupied", "drop", "repeat", "swap"]))
            day, hour, occupied = blocks[block][line].split(",")
            if kind == "day":
                blocks[block][line] = f"{int(day) + 1},{hour},{occupied}"
            elif kind == "hour":
                blocks[block][line] = f"{day},0{hour},{occupied}"
            elif kind == "occupied":
                blocks[block][line] = f"{day},{hour},2"
            elif kind == "drop":
                del blocks[block][line]
            elif kind == "repeat":
                blocks.insert(block, list(blocks[block]))
            else:
                other = draw(st.integers(0, len(blocks) - 1))
                blocks[block], blocks[other] = blocks[other], blocks[block]
        return "".join(line + "\n" for block in blocks for line in block)

    return bodies()


class TestPieces:
    """The stride reader, offered every body, leaves each verdict and
    message of the inline reader as it was."""

    @pytest.mark.parametrize(**GRAMMAR_PARAMS)
    def test_verdict_in_pieces(self, stride_first, text, verdict):
        assert_verdict(text, verdict)

    def test_largest_day_in_pieces(self, stride_first):
        assert_largest_day_accepted()

    def test_mutated_bodies_in_pieces(self, stride_first):
        assert_structural_pass_matches_row_reader()

    @pytest.mark.parametrize("text, verdict, strided", [case[1:] for case in STRIDE_CASES],
                             ids=[case[0] for case in STRIDE_CASES])
    def test_stride_case(self, monkeypatch, text, verdict, strided):
        assert_verdict(text, verdict)  # the inline reader: the body is short
        inline = None if isinstance(verdict, str) else parse_occupancy_csv(text)
        monkeypatch.setattr(occupancy, "STRIDE_MIN_BYTES", 0)
        assert_verdict(text, verdict)
        dataset = read_strides(text.encode())
        assert (dataset is not None) == strided
        if strided:
            assert dataset == inline

    def test_stride_reader_declines_or_agrees(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        strided = []

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.one_of(mutated_bodies(st), day_block_bodies(st)))
        def agree(body):
            dataset = read_strides(("day,hour,occupied\n" + body).encode())
            if dataset is not None:
                strided.append(body)
                assert dataset == read_grid(body.encode()), body  # the inline reader
        agree()
        assert len(strided) > 60  # the property reaches the stride reader

    def test_stride_and_inline_read_equal(self, monkeypatch):
        data, dataset = long_log()
        assert len(data) > occupancy.STRIDE_MIN_BYTES
        assert read_strides(data) == dataset
        strided = parse_occupancy_csv(data)
        monkeypatch.setattr(occupancy, "STRIDE_MIN_BYTES", len(data) + 1)
        assert strided == parse_occupancy_csv(data) == dataset

    def test_long_log_takes_no_body_sized_temporary(self):
        data, expected = long_log()
        tracemalloc.start()
        try:
            dataset = parse_occupancy_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset == expected
        assert peak < len(data) / 2

    @pytest.mark.parametrize("edit, verdict", [
        (lambda d: d.replace(b"\n2500,7,", b"\n2500,07,"), None),
        (lambda d: d.replace(b"\n4999,", b"\n4998,"),
         "line 119954: duplicate record for day 4998, hour 0"),
        (lambda d: d[:-2] + b"2\n", "line 120001: occupied must be 0 or 1, got '2'"),
        (lambda d: d[:d.rindex(b"\n", 0, -1) + 1], "gap in data: day 5000 is missing hour 23"),
        (lambda d: d + b"\n\n", None),
    ], ids=["respelled-hour", "repeated-day", "occupied-2", "partial-last-day", "blank-lines"])
    def test_long_log_declined_reads_inline(self, edit, verdict):
        data, dataset = long_log()
        text = edit(data)
        assert read_strides(text) is None
        if verdict is None:
            assert parse_occupancy_csv(text) == dataset
        else:
            with pytest.raises(ValidationError) as info:
                parse_occupancy_csv(text)
            assert str(info.value) == verdict


class TestEstimate:
    def test_morning_transition_of_benchmark(self, benchmark_dataset):
        first = schedule_payload(benchmark_dataset)["steps"][0]  # 8 am -> 9 am
        assert first["p_vf"] == pytest.approx(3 / 7, abs=1e-15)
        assert first["p_vv"] == pytest.approx(4 / 7, abs=1e-15)
        assert f"{first['p_vf']:.2f}" == "0.43"

    def test_last_transition_of_benchmark(self, benchmark_dataset):
        last = schedule_payload(benchmark_dataset)["steps"][8]  # 4 pm -> 5 pm
        assert last["p_vf"] == pytest.approx(0.5, abs=1e-15)
        assert last["p_ff"] == pytest.approx(1 / 3, abs=1e-15)

    def test_rows_sum_exactly_to_one(self, benchmark_dataset):
        for step in schedule_payload(benchmark_dataset)["steps"]:
            assert step["p_vf"] + step["p_vv"] == 1.0
            assert step["p_ff"] + step["p_fv"] == 1.0

    def test_opening_hour_occupied_row_defaults(self, benchmark_dataset):
        # nobody is ever in the room at 8 am, so that row cannot be estimated
        payload = schedule_payload(benchmark_dataset)
        assert payload["steps"][0]["p_ff"] == 1.0
        flagged = [d for d in payload["diagnostics"] if d["hour"] == 8]
        assert len(flagged) == 1
        assert flagged[0]["condition"] == "occupied"

    def test_always_occupied_dataset(self):
        rows = ["day,hour,occupied"]
        for d in range(1, 4):
            for h in range(8, 12):
                rows.append(f"{d},{h},1")
        payload = schedule_payload(parse_occupancy_csv("\n".join(rows)))
        assert all(step["p_ff"] == 1.0 for step in payload["steps"])
        assert all(d["condition"] == "empty" for d in payload["diagnostics"])
        assert len(payload["diagnostics"]) == len(payload["steps"])

    def test_estimates_invariant_under_day_permutation(self, benchmark_dataset):
        base = schedule_payload(benchmark_dataset)
        # relabel days in reverse order
        remap = {d: max(benchmark_dataset.days) + 1 - d for d in benchmark_dataset.days}
        shuffled = parse_occupancy_csv(
            "day,hour,occupied\n" + "\n".join(
                f"{remap[d]},{h},{1 if benchmark_dataset.records[(d, h)] else 0}"
                for d in benchmark_dataset.days
                for h in benchmark_dataset.hours
            )
        )
        assert schedule_payload(shuffled) == base

    def test_reestimation_converges_to_the_generator(self):
        rng = np.random.default_rng(5)
        truth = random_schedule(rng, 9)
        dataset = sample_dataset(truth, days=10_000, seed=99, initial_occupied_prob=0.5)
        (p_vf,), (p_ff,), _, _ = occupancy.estimate_steps([dataset.grid])
        worst = max(
            max(abs(v - t.p_vf), abs(f - t.p_ff))
            for v, f, t in zip(p_vf.tolist(), p_ff.tolist(), truth.matrices)
        )
        assert worst < 0.05


def marginals(schedule, initial_occupied):
    """One zone's occupancy marginals over every step of ``schedule``."""
    return occupied_marginals([[m.p_vf for m in schedule.matrices]],
                              [[m.p_ff for m in schedule.matrices]], [initial_occupied])[0]


class TestMarginals:
    def test_one_step_from_benchmark(self, benchmark_dataset):
        p_vf, p_ff, _, _ = occupancy.estimate_steps([benchmark_dataset.grid])
        (m,) = occupied_marginals(p_vf, p_ff, [False])
        assert m[0] == 0.0
        assert m[1] == pytest.approx(3 / 7, abs=1e-15)

    def test_absorbing_occupied(self):
        schedule = make_schedule(p_vf=0.0, p_ff=1.0)
        m = marginals(schedule, initial_occupied=True)
        assert all(v == 1.0 for v in m)

    def test_memoryless_mixing(self):
        schedule = make_schedule(p_vf=0.5, p_ff=0.5)
        for start in (False, True):
            m = marginals(schedule, initial_occupied=start)
            assert all(v == pytest.approx(0.5) for v in m[1:])

    def test_marginals_stay_probabilities(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            schedule = random_schedule(rng, int(rng.integers(1, 15)))
            m = marginals(schedule, bool(rng.integers(0, 2)))
            assert all(0.0 <= v <= 1.0 for v in m)


class TestGenerator:
    def test_roundtrip_via_csv(self):
        rng = np.random.default_rng(1)
        truth = random_schedule(rng, 4)
        dataset = sample_dataset(truth, days=10, seed=2, first_hour=8)
        again = parse_occupancy_csv(dataset_to_csv(dataset))
        assert again == dataset

    def test_seed_determinism(self):
        rng = np.random.default_rng(1)
        truth = random_schedule(rng, 4)
        a = sample_dataset(truth, days=25, seed=4)
        b = sample_dataset(truth, days=25, seed=4)
        assert a == b
        c = sample_dataset(truth, days=25, seed=5)
        assert c != a


def log_bytes(rng, window, days, hours=None, spelling=()):
    """A log of ``days`` random day numbers over ``hours`` (the window's by
    default), with random occupancy but the window's first hour alike on
    every day, written in the given spelling."""
    start, end = window
    hours = range(start, end + 1) if hours is None else hours
    numbers = np.sort(rng.choice(np.arange(1, 3 * days + 1), days, replace=False)).tolist()
    grid = rng.random((days, len(hours))) < rng.uniform(0.1, 0.9)
    grid[:, start - hours[0]] = bool(rng.integers(0, 2))
    rows = [[str(d), str(h), str(int(o))]
            for d, row in zip(numbers, grid.tolist()) for h, o in zip(hours, row)]
    for row in rows:
        for field in (0, 1):
            if "signs" in spelling and rng.random() < 0.3:
                row[field] = "+" + row[field]
            if "zeros" in spelling and rng.random() < 0.3:
                row[field] = "00" + row[field].lstrip("+")
    lines = [",".join(row) for row in rows]
    if "shuffled" in spelling:
        rng.shuffle(lines)
    if "blank" in spelling:
        for _ in range(3):
            lines.insert(int(rng.integers(0, len(lines) + 1)), " \t" if rng.random() < 0.5 else "")
    text = "day,hour,occupied\n" + "\n".join(lines) + "\n"
    return (text.replace("\n", "\r\n") if "crlf" in spelling else text).encode()


# kind -> (each zone's log as (days, hours or None, spelling), one 1 per
# call of the general reader). Each log that the day-block reader does not
# read is read alone, once; the first one read in file order becomes the
# reference, and a later log of its length is XORed against it and
# reaches no reader
BATCH_CASES = {
    "different-day-counts": ([(1, None, ()), (7, None, ()), (30, None, ())], [1, 1, 1]),
    "hours-wider-than-window": ([(9, "wide", ()), (12, "wide", ())], [1, 1]),
    "hour-windows-differ": ([(9, "wide", ()), (12, None, ()), (5, "full", ())], [1, 1, 1]),
    "not-day-major": ([(8, "wide", ()), (11, "wide", ("shuffled",))], [1, 1]),
    "crlf-signs-zeros": ([(6, None, ("crlf",)), (9, None, ("signs", "zeros")),
                          (4, None, ("crlf", "signs"))], [1, 1, 1]),
    "blank-lines": ([(6, None, ()), (9, None, ("blank",)), (7, None, ())], [1, 1, 1]),
    "blank-line-first": ([(6, None, ("blank",)), (9, None, ()), (7, None, ())], [1, 1, 1]),
    "long-log": ([(400, "full", ()), (10, "full", ("signs",)), (3, "full", ())], [1, 1]),
    "two-identical-logs": ([(10, None, ()), "same"], [1]),
}


class TestParseLogs:
    GOOD = "day,hour,occupied\n1,8,0\n1,9,1\n"
    BAD_ROW = "day,hour,occupied\n1,8,0\n1,9,2\n"
    BAD_HEADER = "day,hour\n1,8,0\n"

    @pytest.mark.parametrize("logs, message, position", [
        ([GOOD, BAD_ROW, BAD_HEADER], "line 3: occupied must be 0 or 1, got '2'", 1),
        ([GOOD, BAD_HEADER, BAD_ROW], "expected header 'day,hour,occupied', got 'day,hour'", 1),
        ([BAD_ROW, ""], "line 3: occupied must be 0 or 1, got '2'", 0),
        ([GOOD, "", BAD_ROW], "no records: file is empty", 1),
        ([long_log(days=300)[0], GOOD, long_log(days=300)[0].replace(b"1,8,", b"1,8,2,")],
         "line 10: expected 3 fields, got 4", 2),
    ], ids=["row-before-header", "header-before-row", "row-before-empty", "empty-before-row",
            "long-log-last"])
    def test_the_first_faulty_log_names_the_error(self, logs, message, position):
        # each log's own error, as parse_occupancy_csv gives it, of the first
        # faulty one, with the datasets of the logs before it
        with pytest.raises(occupancy.LogFault, match=f"^{re.escape(message)}$") as fault:
            occupancy.parse_occupancy_logs(logs)
        assert fault.value.datasets == [parse_occupancy_csv(log) for log in logs[:position]]

    def test_each_log_gets_its_own_dataset(self):
        logs = [self.GOOD, long_log(days=300)[0], self.GOOD.replace("1,9,1", "1,9,0"),
                "day,hour,occupied\n\n2,8,1\n2,9,1\n"]  # a blank line: read by rows
        assert occupancy.parse_occupancy_logs(iter(logs)) == [parse_occupancy_csv(log)
                                                              for log in logs]
        assert occupancy.parse_occupancy_logs([]) == []


def logs_outcome(logs):
    """What reading each log alone gives: every dataset, or the message of
    the first log that raises."""
    datasets = []
    for log in logs:
        try:
            datasets.append(parse_occupancy_csv(log))
        except ValidationError as exc:
            return str(exc)
    return datasets


def batch_outcome(logs):
    """``parse_occupancy_logs``'s datasets, or its message."""
    try:
        return occupancy.parse_occupancy_logs(logs)
    except ValidationError as exc:
        return str(exc)


def assert_read_as_alone(logs, strides_calls):
    """The batch's outcome, asserted equal to each log's alone; clears
    ``strides_calls`` first, so that it then lists the batch's calls only."""
    expected = logs_outcome(logs)
    strides_calls.clear()
    outcome = batch_outcome(logs)
    assert outcome == expected
    return outcome


def occupied_bytes(data):
    """Where each row's occupied byte is, past the header."""
    a = np.frombuffer(data, np.uint8)
    return np.flatnonzero(a == ord("\n"))[1:] - 1


def bump(row, i):
    """``row`` with its digit at ``i`` one higher, 9 wrapping to 0."""
    return row[:i] + bytes([ord("0") + (row[i] - ord("0") + 1) % 10]) + row[i + 1:]


@pytest.fixture
def strides_calls(monkeypatch):
    """The bodies ``_read_strides`` is called on, in order."""
    calls = []
    read_strides = occupancy._read_strides
    monkeypatch.setattr(occupancy, "_read_strides",
                        lambda data, start: calls.append(data[start:]) or read_strides(data, start))
    return calls


class TestSharedLayout:
    """A long log of the layout of the first one read as day blocks, apart
    from its occupied bits, is read by one XOR pass against it; every other
    log gets what it gets alone, dataset or message."""

    @pytest.mark.parametrize("seed", range(12))
    def test_flipped_bits_read_as_alone(self, seed, strides_calls):
        rng = np.random.default_rng(seed)
        first = int(rng.integers(0, 12))
        hours = range(first, int(rng.integers(first + 1, 24)))
        # 1 500 days of 24 hours span four runs and three slices
        days = int(rng.integers(3, 8)) * 50_000 // (10 * len(hours))
        a = long_log(days=days, hours=hours, seed=seed)[0]
        at = occupied_bytes(a)
        logs = [a]
        for flips in (0, 1, int(rng.integers(2, len(at))), len(at)):
            b = np.frombuffer(a, np.uint8).copy()
            b[rng.choice(at, flips, replace=False)] ^= 1
            logs.append(b.tobytes())
        assert len(a) > occupancy.STRIDE_MIN_BYTES
        assert_read_as_alone(logs, strides_calls)
        assert len(strides_calls) == 1

    @pytest.fixture
    def small_slices(self, monkeypatch):
        """Slices of 4 KiB, so that a log of 200 days spans ten of them."""
        monkeypatch.setattr(occupancy, "_STRIDE_SLICE_BYTES", 4096)

    def edited(self, rng, where, edit):
        """A log A of 200 days and a copy B with ``edit`` made on one of its
        rows, the last or any."""
        a, _ = long_log(days=200, seed=int(rng.integers(100)))
        lines = a.split(b"\n")
        i = len(lines) - 2 if where == "last" else int(rng.integers(1, len(lines) - 1))
        lines[i] = edit(lines[i])
        return a, b"\n".join(lines)

    EDITS = {
        "day-digit": lambda row: bump(row, row.index(b",") - 1),  # the day's last digit
        "hour-digit": lambda row: bump(row, row.index(b",") + 1),  # the hour's first digit
        "separator": lambda row: row.replace(b",", b";", 1),
        "occupied-2": lambda row: row[:-1] + b"2",
        "occupied-9": lambda row: row[:-1] + b"9",
    }

    @pytest.mark.parametrize("where", ["last", "any"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("edit", EDITS)
    def test_other_bytes_read_as_alone(self, edit, seed, where, small_slices, strides_calls):
        rng = np.random.default_rng([seed, len(edit)])
        a, b = self.edited(rng, where, self.EDITS[edit])
        assert len(a) > occupancy.STRIDE_MIN_BYTES and len(a) == len(b) and a != b
        logs = [a, b, a]
        assert_read_as_alone(logs, strides_calls)
        assert len(strides_calls) == 2  # b is read alone; the second a like the first

    @pytest.mark.parametrize("bit", [b"0", b"1"])
    def test_a_2_where_the_reference_holds_either_bit(self, bit, small_slices, strides_calls):
        a, _ = long_log(days=200)
        at = occupied_bytes(a)
        i = at[np.flatnonzero(np.frombuffer(a, np.uint8)[at] == bit[0])[-1]]
        b = a[:i] + b"2" + a[i + 1:]
        message = assert_read_as_alone([a, b], strides_calls)
        assert message.endswith("occupied must be 0 or 1, got '2'")

    def test_same_length_other_days(self, strides_calls):
        grid = np.random.default_rng(3).random((1500, 24)) < 0.4
        a, b = (dataset_to_csv(OccupancyDataset(days, tuple(range(24)), grid)).encode()
                for days in (tuple(range(1000, 2500)), tuple(range(5000, 8000, 2))))
        assert len(a) == len(b) and a != b
        datasets = assert_read_as_alone([a, b], strides_calls)
        assert datasets[0].days != datasets[1].days
        assert len(strides_calls) == 2

    def test_other_length(self, strides_calls):
        a = long_log(days=1500)[0]
        longer = a + full_days(1501).encode()
        assert isinstance(assert_read_as_alone([a, long_log(days=1499)[0], longer, a],
                                               strides_calls), list)
        assert len(strides_calls) == 3
        assert assert_read_as_alone([a, a + b"1501,0,1\n"], strides_calls) == (
            "gap in data: day 1501 is missing hour 1")

    @pytest.mark.parametrize("spoil", ["space", "shuffled"])
    def test_reference_is_the_first_day_block_log(self, spoil, strides_calls):
        a = long_log(days=1500)[0]
        header, _, body = a.partition(b"\n")
        rows = body.split(b"\n")[:-1]
        if spoil == "space":
            rows[7] = rows[7].replace(b",", b" ,", 1)
        else:
            rows[7], rows[8] = rows[8], rows[7]
        first = b"\n".join([header, *rows]) + b"\n"
        b = a[:-2] + (b"1\n" if a[-2:] == b"0\n" else b"0\n")
        assert isinstance(assert_read_as_alone([first, a, b, first], strides_calls), list)
        # ``first`` is declined twice; ``a`` is the reference and ``b`` is read like it
        assert strides_calls == [first.partition(b"\n")[2], a.partition(b"\n")[2],
                                 first.partition(b"\n")[2]]

    def test_same_layout_takes_one_strides_read(self, strides_calls):
        a = long_log(days=1500)[0]
        b = a[:-2] + (b"1\n" if a[-2:] == b"0\n" else b"0\n")
        assert_read_as_alone([a, b], strides_calls)
        assert len(strides_calls) == 1
        other = b.replace(b"\n1500,", b"\n1501,")  # the last day renumbered
        assert_read_as_alone([a, other], strides_calls)
        assert len(strides_calls) == 2
        strides_calls.clear()
        occupancy.parse_occupancy_logs([b])  # nothing is kept from an earlier call
        assert len(strides_calls) == 1


@pytest.fixture
def inline_calls(monkeypatch):
    """One 1 per call of the general reader, which reads one body."""
    calls = []
    inline = occupancy._inline
    monkeypatch.setattr(occupancy, "_inline", lambda body: calls.append(1) or inline(body))
    return calls


def layout_logs(seed, n, days=20, hours=range(8, 18)):
    """``n`` logs over the same days and hours, each with its own occupied bits."""
    rng = np.random.default_rng(seed)
    return [dataset_to_csv(OccupancyDataset(tuple(range(1, days + 1)), tuple(hours),
                                            rng.random((days, len(hours))) < 0.4)).encode()
            for _ in range(n)]


def respelled(log, edit):
    """``log`` with ``edit`` applied to the list of its rows."""
    header, *rows = log.decode().splitlines()
    edit(rows)
    return "\n".join([header, *rows, ""]).encode()


class TestReference:
    """The first log either reader reads in file order is the reference, of
    any length; a later short log of its length is read by one stacked XOR
    check, and only a log that fails the check reaches a reader again."""

    @pytest.mark.parametrize("batch_bytes", [None, 4096])
    def test_same_layout_short_logs_take_one_general_read(self, monkeypatch, batch_bytes,
                                                          inline_calls, strides_calls):
        logs = layout_logs(1, 32)
        assert len(logs[0]) < occupancy.STRIDE_MIN_BYTES
        if batch_bytes:  # the stacked checks span eight batches
            monkeypatch.setattr(occupancy, "_BATCH_BYTES", batch_bytes)
        expected = logs_outcome(logs)
        inline_calls.clear()
        assert batch_outcome(logs) == expected
        assert inline_calls == [1] and not strides_calls

    SPOILED_FIRST = {
        "shuffled": lambda rows: rows.reverse(),
        "blank-line": lambda rows: rows.insert(5, ""),
        "space": lambda rows: rows.__setitem__(3, rows[3].replace(",", ", ", 1)),
    }

    @pytest.mark.parametrize("spoil", SPOILED_FIRST)
    def test_a_first_log_read_out_of_order_is_no_reference(self, spoil, inline_calls):
        logs = layout_logs(2, 6)
        logs[0] = respelled(logs[0], self.SPOILED_FIRST[spoil])
        expected = logs_outcome(logs)
        inline_calls.clear()
        assert batch_outcome(logs) == expected
        assert inline_calls == [1, 1]  # the second is the reference, the rest are checked

    def test_a_later_day_block_log_is_the_reference(self, inline_calls, strides_calls):
        # a first log that is no reference, then long logs of one layout
        long_logs = layout_logs(6, 3, days=400, hours=range(24))
        logs = [respelled(layout_logs(6, 1)[0], self.SPOILED_FIRST["shuffled"]), *long_logs]
        expected = logs_outcome(logs)
        inline_calls.clear()
        strides_calls.clear()
        assert batch_outcome(logs) == expected
        assert inline_calls == [1] and len(strides_calls) == 1

    def test_crlf_line_ends_leave_the_first_log_the_reference(self, inline_calls):
        logs = layout_logs(3, 6)
        logs[0] = logs[0].replace(b"\n", b"\r\n")
        logs[4] = logs[4].replace(b"\n", b"\r\n")
        expected = logs_outcome(logs)
        inline_calls.clear()
        assert batch_outcome(logs) == expected
        assert inline_calls == [1]

    EDITS = {  # each on the last day of a log of days 1..20 over 10 hours
        "day-renumbered": lambda rows: rows.__setitem__(
            slice(-10, None), [row.replace("20,", "21,", 1) for row in rows[-10:]]),
        "separator": lambda rows: rows.__setitem__(-1, rows[-1].replace(",", ";", 1)),
        "occupied-2": lambda rows: rows.__setitem__(-1, rows[-1][:-1] + "2"),
    }

    @pytest.mark.parametrize("edit, calls", [
        ("day-renumbered", [1, 1]), ("separator", [1, 1]), ("occupied-2", [1, 1])])
    def test_a_later_log_that_fails_the_check_is_read_alone(self, edit, calls, inline_calls):
        logs = layout_logs(4, 12)
        logs[7] = respelled(logs[7], self.EDITS[edit])
        assert len(logs[7]) == len(logs[0]) and logs[7] != logs[0]
        expected = logs_outcome(logs)
        inline_calls.clear()
        assert batch_outcome(logs) == expected
        # the reference, then the log that fails the check, read alone
        assert inline_calls == calls

    def test_a_long_reference_read_by_rows(self, monkeypatch, inline_calls, strides_calls):
        # an hour spelled two ways, so the day-block reader declines each log
        monkeypatch.setattr(occupancy, "_STRIDE_SLICE_BYTES", 4096)
        logs = [respelled(log, lambda rows: rows.__setitem__(
            slice(8, None, 48), [row.replace(",8,", ",08,") for row in rows[8::48]]))
            for log in layout_logs(5, 3, days=400, hours=range(24))]
        logs.append(logs[1].replace(b"\n400,", b"\n401,"))  # its last day renumbered
        assert len(logs[0]) > occupancy.STRIDE_MIN_BYTES
        expected = logs_outcome(logs)
        inline_calls.clear()
        strides_calls.clear()
        assert batch_outcome(logs) == expected
        # the first log is the reference, the next two are read like it, and
        # the last one fails the check in its last slice
        assert inline_calls == [1, 1] and len(strides_calls) == 2


SPOILS = ("byte", "occupied-2", "shuffled", "blank", "space", "crlf", "length")


def spoiled(rows, kind, seed):
    """``rows`` with one spoil made on them; the same seed makes the same
    spoil on rows of the same count."""
    rng = np.random.default_rng(seed)
    if not rows:
        return rows
    j = int(rng.integers(len(rows)))
    if kind == "byte" and len(rows[j]) > 1:  # any byte but the occupied one, changed
        at = int(rng.integers(len(rows[j]) - 1))
        rows[j] = rows[j][:at] + rng.choice([c for c in "0123456789,;+" if c != rows[j][at]]) + (
            rows[j][at + 1:])
    elif kind == "occupied-2" and rows[j]:
        rows[j] = rows[j][:-1] + "2"
    elif kind == "shuffled":
        rows[:] = [rows[i] for i in rng.permutation(len(rows))]
    elif kind == "blank":
        rows.insert(j, "")
    elif kind == "space":
        rows[j] = rows[j].replace(",", " ,", 1)
    elif kind == "length":
        rows[:] = rows[:-1] if rng.random() < 0.5 else rows + rows[-1:]
    return rows


def shared_layout_logs(st):
    """Two to six logs over one layout, short or long, each with its own
    occupied bits. One spoil may be made alike on every log, which leaves
    them one layout, and one to three on single logs: a non-occupied byte
    changed, an occupied 2, rows shuffled, a blank line, a space, CRLF line
    ends or one row more or less."""

    @st.composite
    def logs(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        first = draw(st.integers(0, 20))
        hours = range(first, draw(st.integers(first, 23)) + 1)
        spelled = [draw(st.sampled_from([str(h), f"0{h}", f"+{h}"])) for h in hours]
        long = draw(st.booleans())
        # every row takes at least 6 bytes
        n_days = occupancy.STRIDE_MIN_BYTES // (6 * len(hours)) + 1 if long else draw(
            st.integers(1, 30))
        days = (draw(st.integers(0, 999)) + np.cumsum(rng.integers(1, 3, n_days))).tolist()
        lines = [f"{d},{h}," for d in days for h in spelled]
        logs = [[line + str(bit) for line, bit in zip(lines, rng.integers(0, 2, len(lines)))]
                for _ in range(draw(st.integers(2, 6)))]
        crlf = set()
        # an occupied 2 on every log would leave no log to compare with the first
        shared = draw(st.sampled_from((None, *(kind for kind in SPOILS if kind != "occupied-2"))))
        spoils = [(i, shared, 0) for i in range(len(logs))] if shared else []
        spoils += draw(st.lists(st.tuples(st.integers(0, len(logs) - 1), st.sampled_from(SPOILS),
                                          st.integers(1, 2**32 - 1)), min_size=1, max_size=3))
        for i, kind, seed in spoils:
            if kind == "crlf":
                crlf.add(i)
            else:
                spoiled(logs[i], kind, seed)
        return ["\r\n".join(["day,hour,occupied", *rows, ""]) if i in crlf else
                "\n".join(["day,hour,occupied", *rows, ""]) for i, rows in enumerate(logs)]

    return logs()


def test_shared_layout_logs_read_as_alone():
    """Logs that share a layout, some spoiled, give each log's own dataset,
    or the first faulty log's message."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(shared_layout_logs(hypothesis.strategies))
    def check(logs):
        assert batch_outcome(logs) == logs_outcome(logs)

    check()


def opened(paths, made):
    """Each file read as the CLI reads a log, a long one mapped, in turn;
    ``made`` collects the mappings."""
    for path in paths:
        log = read_bytes(path, "occupancy", occupancy.STRIDE_MIN_BYTES)
        if not isinstance(log, bytes):
            made.append(log)
        yield log


def read_whole(paths):
    """Each file read whole, as the CLI read every log before long ones
    were mapped; a read's message drops the path."""
    for path in paths:
        try:
            yield read_bytes(path, "occupancy")
        except ValidationError as exc:
            raise ValidationError(str(exc).removeprefix(f"{path}: ")) from None


def mapped_outcome(tmp_path, logs):
    """``batch_outcome`` of ``logs`` written to files and read back as the
    CLI reads them, asserted equal to that of the files read whole and
    every mapping asserted closed; the outcome and the mappings made."""
    paths = []
    for i, data in enumerate(logs):
        paths.append(tmp_path / f"log{i}.csv")
        paths[-1].write_bytes(data)
    made = []
    outcome = batch_outcome(opened(paths, made))
    assert all(log.closed for log in made)
    assert outcome == batch_outcome(read_whole(paths))
    return outcome, made


class TestMappedLogs:
    """A long log is mapped and read where it lies; it reads as its bytes
    do, dataset or message, and its mapping is closed once read."""

    def test_mapped_log_reads_as_its_bytes(self, tmp_path):
        data, dataset = long_log()
        (tmp_path / "log.csv").write_bytes(data)
        (log,) = opened([tmp_path / "log.csv"], [])
        assert not isinstance(log, bytes)
        grid = parse_occupancy_csv(log)
        # closing fails while any array still views the mapping, so no grid does
        assert log.closed
        assert grid == parse_occupancy_csv(data) == dataset

    @pytest.mark.parametrize("edit", [
        lambda d: d.replace(b"\n", b"\r\n"),
        lambda d: d.replace(b"\n2500,7,", b"\n2500, 7,"),
        lambda d: d.replace(b"\n2500,7,", b"\n2500,7\xe9,"),
        lambda d: d.replace(b"\n2500,7,", b"\n2500,7\xed\xa0\x80,"),  # strict UTF-8 rejects it
        lambda d: d.replace(b"day,hour,occupied", b"Day,Hour,Occupied"),
        lambda d: d.replace(b"day,hour,occupied", b"\xe9day,hour,occupied"),
        lambda d: d.replace(b"day,hour,occupied", b"day,hour,occupied\r"),
        lambda d: d.replace(b"day,hour,occupied", b"\rday,hour,occupied"),
        lambda d: d[:d.rindex(b"\n", 0, -1) + 1],
        lambda d: d.replace(b"\n2500,", b"\n9999,"),
        lambda d: d[:-1],
        lambda d: d.replace(b"\n", b" "),
        lambda d: b"day,hour,occupied\n" + b" " * occupancy.STRIDE_MIN_BYTES,
    ], ids=["crlf", "space", "latin-1", "surrogate", "capitalised-header", "non-ascii-header",
            "cr-ended-header", "cr-led-header", "truncated-last-day", "day-out-of-order",
            "no-final-newline", "no-newline", "blank-body"])
    def test_edited_log_reads_as_its_bytes(self, tmp_path, edit):
        data = edit(long_log(days=1500)[0])
        (tmp_path / "log.csv").write_bytes(data)
        try:
            expected = parse_occupancy_csv(next(read_whole([tmp_path / "log.csv"])))
        except ValidationError as exc:
            expected = str(exc)
        made = []
        (log,) = opened([tmp_path / "log.csv"], made)
        try:
            outcome = parse_occupancy_csv(log)
        except ValidationError as exc:
            outcome = str(exc)
        assert outcome == expected
        assert made and all(log.closed for log in made)

    def test_batch_reads_as_the_bytes(self, tmp_path, strides_calls):
        a = long_log(days=1500)[0]
        at = occupied_bytes(a)
        flipped = np.frombuffer(a, np.uint8).copy()
        flipped[at[::7]] ^= 1
        flipped = flipped.tobytes()
        logs = [a, flipped, flipped.replace(b"day,hour,occupied", b"Day, Hour, Occupied"),
                long_log(days=1499)[0], a.replace(b"\n", b"\r\n"), flipped[:-2] + b"1\n",
                TestParseLogs.GOOD.encode()]
        outcome, made = mapped_outcome(tmp_path, logs)
        assert len(made) == 6
        # in each batch a and the 1499-day log are read as day blocks; the
        # rest, whatever their header, CRLF made LF, are XORed against a
        assert len(strides_calls) == 4
        assert outcome == logs_outcome(logs)

    @pytest.mark.parametrize("fault, message", [
        (b"2", "line 36001: occupied must be 0 or 1, got '2'"),
        (b"\xe9", "not UTF-8 text (byte 318448)"),
        (b"\xed\xa0\x80", "not UTF-8 text (byte 318448)"),  # a surrogate, which strict UTF-8 rejects
    ], ids=["occupied-2", "latin-1", "surrogate"])
    def test_batch_fault_closes_every_mapping(self, tmp_path, fault, message):
        a = long_log(days=1500)[0]
        logs = [a, a, a[:-2] + fault + b"\n", a]
        assert mapped_outcome(tmp_path, logs)[0] == message


def test_shared_layout_mapped_logs_read_as_their_bytes(tmp_path):
    """``test_shared_layout_logs_read_as_alone``'s logs, written to files
    and read back as the CLI reads them, a long one mapped."""
    hypothesis = pytest.importorskip("hypothesis")

    made = []

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(shared_layout_logs(hypothesis.strategies))
    def check(logs):
        made.extend(mapped_outcome(tmp_path, [log.encode() for log in logs])[1])

    check()
    assert len(made) > 25  # the property reaches the mapped route


class TestBatchedIngestion:
    """The CLI reads every zone's log as one batch and estimates them all
    at once; each zone's chain is float for float the one-log route's."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", BATCH_CASES)
    def test_each_chain_equals_the_one_log_route(self, tmp_path, monkeypatch, kind, seed):
        from thermark.cli import RunConfig, _chains, _heating_bits, _load_schedules
        from thermark.strategy import HeatingStrategy

        rng = np.random.default_rng([seed, *map(ord, kind)])
        start = int(rng.integers(1, 18))
        window = (start, start + int(rng.integers(1, 6)))
        wide = range(start - 1, min(window[1] + 2, 24))
        specs, reads = BATCH_CASES[kind]
        logs = []
        for spec in specs:
            if spec == "same":
                logs.append(logs[-1])
                continue
            days, hours, spelling = spec
            hours = {None: None, "wide": wide, "full": range(24)}[hours]
            logs.append(log_bytes(rng, window, days, hours, spelling))
        if kind == "long-log":
            assert len(logs[0]) > occupancy.STRIDE_MIN_BYTES
        zone_ids = tuple(f"zone{i + 1}" for i in range(len(logs)))
        paths = {}
        for zid, data in zip(zone_ids, logs):
            paths[zid] = tmp_path / f"{zid}.csv"
            paths[zid].write_bytes(data)
        config = RunConfig(building=tmp_path / "building.json", occupancy_paths=paths,
                           window=window)
        strat = HeatingStrategy(name="h", schedule={
            zid: frozenset(rng.choice(np.arange(*window), 2).tolist()) for zid in zone_ids})

        calls = []
        inline = occupancy._inline
        monkeypatch.setattr(occupancy, "_inline", lambda body: calls.append(1) or inline(body))
        (heating,) = _heating_bits(config, zone_ids, [strat])
        chains = _chains(config, _load_schedules(config, zone_ids), heating)
        monkeypatch.undo()
        assert calls == reads

        expected = []
        for zid, data in zip(zone_ids, logs):
            dataset = parse_occupancy_csv(data)
            columns = slice(start - dataset.hours[0], window[1] - dataset.hours[0] + 1)
            p_vf, p_ff, _, _ = occupancy.estimate_steps([dataset.grid[:, columns]])
            expected += unroll_zones((zid,), p_vf, p_ff, [strat.heating_bits(zid, window)],
                                     window[1] - start, [bool(dataset.grid[0, columns.start])])
        assert repr(chains) == repr(expected)  # every float's repr is its exact value
        assert chains == expected
