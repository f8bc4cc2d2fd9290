"""Tests for occupancy parsing, transition estimation and marginals."""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pytest

from conftest import make_schedule, random_schedule
from thermark import (
    ValidationError,
    estimate_transition_schedule,
    occupancy_marginals,
    parse_occupancy_csv,
    sample_dataset,
)
from thermark.datasets import seven_day_log_csv
from thermark.occupancy import OccupancyDataset, dataset_to_csv


@pytest.fixture
def benchmark_dataset():
    return parse_occupancy_csv(seven_day_log_csv().read_text())


class TestParse:
    def test_benchmark_file(self, benchmark_dataset):
        assert benchmark_dataset.day_count == 7
        assert benchmark_dataset.hours == tuple(range(8, 18))
        assert not benchmark_dataset.occupied(1, 8)
        assert benchmark_dataset.occupied(1, 9)

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
    ("blank-lines", H + "\n1,8,0\n\n\n1,9,1\n\n", ((1,), (8, 9))),
    ("whitespace-only-lines", H + " \t\n1,8,0\n  \n1,9,1\n\t", ((1,), (8, 9))),
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
    ("space-inside-number", H + "1 2,8,0\n", "line 2: day and hour must be integers"),
    ("day-0", H + "0,8,0\n", "line 2: day must be a positive integer"),
    ("day-negative", H + "1,8,0\n-3,8,0\n", "line 3: day must be a positive integer"),
    ("hour-24", H + "1,24,0\n", "line 2: hour must be in 0..23"),
    ("hour-negative", H + "1,-1,0\n", "line 2: hour must be in 0..23"),
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


class TestGrammar:
    @pytest.mark.parametrize("text, verdict", [case[1:] for case in GRAMMAR_CASES],
                             ids=[case[0] for case in GRAMMAR_CASES])
    def test_verdict(self, text, verdict):
        if isinstance(verdict, str):
            with pytest.raises(ValidationError) as info:
                parse_occupancy_csv(text)
            assert str(info.value) == verdict
        else:
            dataset = parse_occupancy_csv(text)
            assert (dataset.days, dataset.hours) == verdict

    def test_largest_day_is_accepted(self):
        dataset = parse_occupancy_csv(H + "9223372036854775807,8,1\n9223372036854775807,9,0\n")
        assert dataset.days == (2**63 - 1,)
        assert dataset.occupied(2**63 - 1, 8)


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


def reference_estimate(days, hours, records, smoothing):
    """Per-step (p_vf, p_ff, fallback hours) from one dict lookup per day and hour."""
    steps = []
    for h0, h1 in zip(hours, hours[1:]):
        n = {(a, b): 0 for a in (False, True) for b in (False, True)}
        for d in days:
            n[(records[(d, h0)], records[(d, h1)])] += 1
        denom_v = n[(False, True)] + n[(False, False)] + 2 * smoothing
        denom_f = n[(True, True)] + n[(True, False)] + 2 * smoothing
        p_vf = (n[(False, True)] + smoothing) / denom_v if denom_v > 0 else 0.0
        p_ff = (n[(True, True)] + smoothing) / denom_f if denom_f > 0 else 1.0
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

        smoothing = (0.0, 0.5, 1)[seed % 3]
        schedule = estimate_transition_schedule(dataset, smoothing=smoothing)
        expected = reference_estimate(days, ref_hours, records, smoothing)
        got = [(m.p_vf, m.p_vv, m.p_ff, m.p_fv) for m in schedule.matrices]
        assert [[p.hex() for p in step] for step in got] == \
            [[p.hex() for p in step] for step in expected]


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
                f"{remap[d]},{h},{1 if benchmark_dataset.occupied(d, h) else 0}"
                for d in benchmark_dataset.days
                for h in benchmark_dataset.hours
            )
        )
        other = estimate_transition_schedule(shuffled)
        for a, b in zip(base.matrices, other.matrices):
            assert a == b

    def test_smoothing_fills_degenerate_rows(self):
        rows = ["day,hour,occupied"] + [f"{d},{h},1" for d in (1, 2) for h in (8, 9)]
        dataset = parse_occupancy_csv("\n".join(rows))
        smoothed = estimate_transition_schedule(dataset, smoothing=1.0)
        assert smoothed.matrix(0).p_vf == pytest.approx(0.5)
        assert not smoothed.diagnostics
        assert smoothed.matrix(0).p_ff == pytest.approx(3 / 4)  # (2+1)/(2+2)

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


class TestMarginals:
    def test_one_step_from_benchmark(self, benchmark_dataset):
        schedule = estimate_transition_schedule(benchmark_dataset)
        m = occupancy_marginals(schedule, initial_occupied_prob=0.0)
        assert m[0] == 0.0
        assert m[1] == pytest.approx(3 / 7, abs=1e-15)

    def test_absorbing_occupied(self):
        schedule = make_schedule(p_vf=0.0, p_ff=1.0)
        m = occupancy_marginals(schedule, initial_occupied_prob=1.0)
        assert all(v == 1.0 for v in m)

    def test_memoryless_mixing(self):
        schedule = make_schedule(p_vf=0.5, p_ff=0.5)
        for start in (0.0, 0.3, 1.0):
            m = occupancy_marginals(schedule, initial_occupied_prob=start)
            assert all(v == pytest.approx(0.5) for v in m[1:])

    def test_marginals_stay_probabilities(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            schedule = random_schedule(rng, int(rng.integers(1, 15)))
            m = occupancy_marginals(schedule, float(rng.uniform(0, 1)))
            assert all(0.0 <= v <= 1.0 for v in m)

    def test_initial_probability_validated(self):
        schedule = make_schedule(p_vf=0.5)
        with pytest.raises(ValidationError):
            occupancy_marginals(schedule, 1.5)


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
