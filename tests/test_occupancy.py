"""Tests for occupancy parsing, transition estimation and marginals."""

from __future__ import annotations

import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from conftest import make_schedule, random_schedule
from thermark import (
    ValidationError,
    estimate_transition_schedule,
    parse_occupancy_csv,
    sample_dataset,
    unroll_zone,
)
from thermark import occupancy
from thermark.datasets import seven_day_log_csv
from thermark.occupancy import (
    OccupancyDataset, _fault, _read_grid, _read_strides, dataset_to_csv)


@pytest.fixture
def benchmark_dataset():
    return parse_occupancy_csv(seven_day_log_csv().read_text())


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

        schedule = estimate_transition_schedule(dataset)
        expected = reference_estimate(days, ref_hours, records)
        got = [(m.p_vf, m.p_vv, m.p_ff, m.p_fv) for m in schedule.matrices]
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
        dataset = _read_grid(body.encode())
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
    return _read_strides(data.partition(b"\n")[2])


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
            dataset = _read_strides(body.encode())
            if dataset is not None:
                strided.append(body)
                assert dataset == _read_grid(body.encode()), body  # the inline reader
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
        body = long_log()[0].partition(b"\n")[2]
        tracemalloc.start()
        try:
            dataset = _read_grid(body)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dataset is not None
        assert peak < len(body) / 2

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
        schedule = estimate_transition_schedule(benchmark_dataset)
        first = schedule.matrix(0)  # 8 am -> 9 am
        assert first.p_vf == pytest.approx(3 / 7, abs=1e-15)
        assert first.p_vv == pytest.approx(4 / 7, abs=1e-15)
        assert f"{first.p_vf:.2f}" == "0.43"

    def test_last_transition_of_benchmark(self, benchmark_dataset):
        schedule = estimate_transition_schedule(benchmark_dataset)
        last = schedule.matrix(8)  # 4 pm -> 5 pm
        assert last.p_vf == pytest.approx(0.5, abs=1e-15)
        assert last.p_ff == pytest.approx(1 / 3, abs=1e-15)

    def test_rows_sum_exactly_to_one(self, benchmark_dataset):
        schedule = estimate_transition_schedule(benchmark_dataset)
        for m in schedule.matrices:
            assert m.p_vf + m.p_vv == 1.0
            assert m.p_ff + m.p_fv == 1.0

    def test_opening_hour_occupied_row_defaults(self, benchmark_dataset):
        # nobody is ever in the room at 8 am, so that row cannot be estimated
        schedule = estimate_transition_schedule(benchmark_dataset)
        assert schedule.matrix(0).p_ff == 1.0
        flagged = [d for d in schedule.diagnostics if d.hour == 8]
        assert len(flagged) == 1
        assert flagged[0].condition == "occupied"

    def test_always_occupied_dataset(self):
        rows = ["day,hour,occupied"]
        for d in range(1, 4):
            for h in range(8, 12):
                rows.append(f"{d},{h},1")
        schedule = estimate_transition_schedule(parse_occupancy_csv("\n".join(rows)))
        assert all(m.p_ff == 1.0 for m in schedule.matrices)
        assert all(d.condition == "empty" for d in schedule.diagnostics)
        assert len(schedule.diagnostics) == len(schedule.matrices)

    def test_estimates_invariant_under_day_permutation(self, benchmark_dataset):
        base = estimate_transition_schedule(benchmark_dataset)
        # relabel days in reverse order
        remap = {d: max(benchmark_dataset.days) + 1 - d for d in benchmark_dataset.days}
        shuffled = parse_occupancy_csv(
            "day,hour,occupied\n" + "\n".join(
                f"{remap[d]},{h},{1 if benchmark_dataset.records[(d, h)] else 0}"
                for d in benchmark_dataset.days
                for h in benchmark_dataset.hours
            )
        )
        other = estimate_transition_schedule(shuffled)
        for a, b in zip(base.matrices, other.matrices):
            assert a == b

    def test_reestimation_converges_to_the_generator(self):
        rng = np.random.default_rng(5)
        truth = random_schedule(rng, 9)
        dataset = sample_dataset(truth, days=10_000, seed=99, initial_occupied_prob=0.5)
        estimate = estimate_transition_schedule(dataset)
        worst = max(
            max(abs(e.p_vf - t.p_vf), abs(e.p_ff - t.p_ff))
            for e, t in zip(estimate.matrices, truth.matrices)
        )
        assert worst < 0.05


def marginals(schedule, initial_occupied):
    """A zone chain's occupancy marginals over every step of ``schedule``."""
    return unroll_zone(schedule, [False] * (len(schedule) + 1), len(schedule),
                       initial_occupied=initial_occupied).occupied_marginals()


class TestMarginals:
    def test_one_step_from_benchmark(self, benchmark_dataset):
        schedule = estimate_transition_schedule(benchmark_dataset)
        m = marginals(schedule, initial_occupied=False)
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
