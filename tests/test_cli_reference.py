"""The CLI's wiring on random small instances, against a reference that
shares no code with thermark.

Each instance is a building of one to four zones with one occupancy log
per zone, of one to thirty days. The logs are padded by up to three hours
around the operating window and are named to ``--occupancy`` in an order
shuffled against the building's. A run also takes a bare ``--gains`` pair
plus per-zone pairs, a strategy file, a two-band tariff file and a theta
subset. ``analyze``, ``cost``, ``export`` and ``estimate`` run through
:func:`thermark.cli.main`. :func:`reference` recomputes their numbers
from the instance alone: day counts to transition probabilities (with the
stay-in-state defaults), occupancy marginals, the forward recursion of
expected temperatures, each point's comfort class, and band sums in
integers. ``export``'s models are answered by the text-only evaluator in
``prism_eval``.
"""

from __future__ import annotations

import csv
import json
import random
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import prism_eval  # noqa: E402
from thermark.cli import main  # noqa: E402

# names that a CSV cell must quote sit beside plain ones
ZONE_NAMES = ["zone1", "Room 1, east", 'a"b', "east wing", "ü"]
STRATEGY_NAMES = ["mine", "early, late", 'x"y']
BAND_NAMES = ["day", "off, peak", 'q"t']
DEFAULT_GAINS = (0.7, 1.5)
GAIN_VALUES = [0.0, 0.4, 1.1, 2.5]


@st.composite
def instances(draw) -> dict:
    n = draw(st.integers(1, 4))
    zone_ids = draw(st.permutations(ZONE_NAMES))[:n]
    start, horizon = draw(st.integers(6, 9)), draw(st.integers(2, 6))
    days = draw(st.integers(1, 30))
    zones = []
    for zid in zone_ids:
        hours = range(start - draw(st.integers(0, 3)), start + horizon + draw(st.integers(0, 3)) + 1)
        # the window's start hour is occupied on every day or on none
        first, p = draw(st.booleans()), draw(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        zones.append(dict(
            id=zid, capacitance=draw(st.sampled_from([1.5, 2.0, 3.0])),
            resistance=draw(st.sampled_from([1.5, 2.0, 4.0])),
            initial_temp=draw(st.sampled_from([16.3, 18.1, 19.7, 20.6, 21.4, 22.9])),
            hours=list(hours),
            grid=[[first if h == start else rng.random() < p for h in hours]
                  for _ in range(days)]))
    links = [[a, b] for a in zone_ids for b in zone_ids if a != b]
    pairs = st.tuples(st.sampled_from(GAIN_VALUES), st.sampled_from(GAIN_VALUES))
    lo = draw(st.integers(1, horizon))
    split = draw(st.integers(1, 23))
    return dict(
        zones=zones, start=start, horizon=horizon, days=days,
        edges=draw(st.lists(st.sampled_from(links), unique_by=str)) if links else [],
        delta=draw(st.sampled_from([0.5, 1.0])),
        occupancy_order=draw(st.permutations(zone_ids)),
        bare_gains=draw(st.none() | pairs),
        zone_gains={zid: pair for zid in zone_ids if (pair := draw(st.none() | pairs))},
        strategy=dict(name=draw(st.sampled_from(STRATEGY_NAMES)), schedule={
            zid: sorted(draw(st.sets(st.integers(start, start + horizon - 1))))
            for zid in zone_ids if draw(st.booleans())}),
        bands=[dict(name=name, start=s, end=e, price_minor_per_kwh=draw(st.integers(0, 50)))
               for name, (s, e) in zip(draw(st.permutations(BAND_NAMES)), [(0, split), (split, 24)])],
        thetas=list(range(lo, draw(st.integers(lo, horizon)) + 1)),
        band=draw(st.sampled_from([(15.0, 18.0), (19.0, 21.0), (20.0, 22.0)])),
    )


def step_probabilities(now: list[bool], after: list[bool]) -> tuple[float, float]:
    """(p_ff, p_vf) from one hour's column of days to the next: an hour with
    no occupied day stays occupied, one with no empty day stays empty."""
    occupied = sum(now)
    empty = len(now) - occupied
    stayed = sum(x and y for x, y in zip(now, after))
    arrived = sum(y and not x for x, y in zip(now, after))
    return stayed / occupied if occupied else 1.0, arrived / empty if empty else 0.0


def reference(case: dict) -> dict:
    """Expected temperatures per strategy and theta, comfort classes and
    summaries, and costs."""
    zones, start, horizon = case["zones"], case["start"], case["horizon"]
    ids = [z["id"] for z in zones]
    n = len(ids)
    # forward Euler on the RC network: a = I + delta * a_hat
    a = [[float(i == j) for j in range(n)] for i in range(n)]
    for source, target in case["edges"]:
        i, j = ids.index(source), ids.index(target)
        w = case["delta"] / (zones[i]["capacitance"] * zones[i]["resistance"])
        a[i][j] += w
        a[i][i] -= w
    marginals = []
    for z in zones:
        cols = [[row[z["hours"].index(h)] for row in z["grid"]]
                for h in range(start, start + horizon + 1)]
        m = [float(cols[0][0])]
        for now, after in zip(cols, cols[1:]):
            p_ff, p_vf = step_probabilities(now, after)
            m.append(m[-1] * p_ff + (1.0 - m[-1]) * p_vf)
        marginals.append(m)
    gains = [case["zone_gains"].get(zid, case["bare_gains"] or DEFAULT_GAINS) for zid in ids]
    low, high = case["band"]
    out = {}
    for name, schedule in ((case["strategy"]["name"], case["strategy"]["schedule"]), ("S1", {})):
        temps, trajectory = [z["initial_temp"] for z in zones], {}
        for k in range(max(case["thetas"])):
            heat = [float(start + k in schedule.get(zid, ())) for zid in ids]
            temps = [sum(a[i][j] * temps[j] for j in range(n)) + gains[i][0] * marginals[i][k]
                     + gains[i][1] * heat[i] for i in range(n)]
            trajectory[k + 1] = temps
        points = [trajectory[theta] for theta in case["thetas"]]
        counts = {band["name"]: 0 for band in case["bands"]}
        for hours in schedule.values():
            for h in hours:
                counts[next(b["name"] for b in case["bands"] if b["start"] <= h < b["end"])] += 1
        out[name] = dict(
            trajectory=points,
            # a point on an edge of the band is within it
            classes=[["below" if v < low else "above" if v > high else "within" for v in p]
                     for p in points],
            comfort={zid: {"ever_below": any(p[i] < low for p in points),
                           "ever_above": any(p[i] > high for p in points)}
                     for i, zid in enumerate(ids)},
            energy={band: float(count) for band, count in counts.items()},
            total=sum(counts[b["name"]] * b["price_minor_per_kwh"] for b in case["bands"]))
    return out


def arguments(case: dict, root: Path) -> list[str]:
    """The inputs written under ``root`` and the options every model command takes."""
    (root / "building.json").write_text(json.dumps(dict(
        zones=[{key: z[key] for key in ("id", "capacitance", "resistance", "initial_temp")}
               for z in case["zones"]],
        edges=case["edges"], delta=case["delta"])))
    (root / "strategy.json").write_text(json.dumps(case["strategy"]))
    (root / "tariff.json").write_text(json.dumps({"bands": case["bands"]}))
    lo, hi = case["thetas"][0], case["thetas"][-1]
    args = ["--building", str(root / "building.json"), "--strategy", str(root / "strategy.json"),
            "--window", f"{case['start']}-{case['start'] + case['horizon']}",
            "--theta", str(lo) if lo == hi else f"{lo}-{hi}"]
    paths = {}
    for i, z in enumerate(case["zones"]):
        paths[z["id"]] = root / f"log{i}.csv"
        paths[z["id"]].write_text("day,hour,occupied\n" + "".join(
            f"{day},{hour},{int(bit)}\n" for day, row in enumerate(z["grid"], 1)
            for hour, bit in zip(z["hours"], row)))
    for zid in case["occupancy_order"]:
        args += ["--occupancy", f"{zid}={paths[zid]}"]
    if case["bare_gains"]:
        args += ["--gains", "{},{}".format(*case["bare_gains"])]
    for zid, pair in case["zone_gains"].items():
        args += ["--gains", "{}={},{}".format(zid, *pair)]
    return args


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_analyze_and_cost_match_the_reference(case):
    expected = reference(case)
    # a point on a band edge would be classed by rounding, not by the wiring
    assume(all(abs(value - edge) > 1e-6 for run in expected.values()
               for point in run["trajectory"] for value in point for edge in case["band"]))
    name, ids = case["strategy"]["name"], [z["id"] for z in case["zones"]]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        args = [*arguments(case, root), "--band", "{}-{}".format(*case["band"])]
        assert main(["analyze", *args, "--out", str(root / "a")]) == 0
        assert main(["cost", *args, "--strategy", "S1", "--tariff", str(root / "tariff.json"),
                     "--out", str(root / "c")]) == 0
        with open(root / "a" / "trajectory.csv", newline="") as f:
            header, *rows = csv.reader(f)
        with open(root / "c" / "cost.csv", newline="") as f:
            cost_header, *cost_rows = csv.reader(f)
        comfort = json.loads((root / "a" / "comfort.json").read_text())
        cost = json.loads((root / "c" / "cost.json").read_text())

    assert header == ["theta_hour", "zone_id", "expected_temp_c"]
    assert [row[:2] for row in rows] == [[str(case["start"] + theta), zid]
                                         for theta in case["thetas"] for zid in ids]
    values = [v for point in expected[name]["trajectory"] for v in point]
    for row, value in zip(rows, values):
        assert float(row[2]) == pytest.approx(value, rel=1e-9, abs=1e-9)
    assert comfort["points"] == [
        {"theta": theta, "zone": zid, "classification": label}
        for theta, labels in zip(case["thetas"], expected[name]["classes"])
        for zid, label in zip(ids, labels)]
    assert comfort["summary"] == expected[name]["comfort"]

    assert cost_header[1:1 + len(case["bands"])] == [
        f"energy_{band['name']}_kwh" for band in case["bands"]]
    assert sorted(row[0] for row in cost_rows) == sorted([name, "S1"])
    by_name = {row["strategy"]: row for row in cost["rows"]}
    assert sorted(by_name) == sorted([name, "S1"])
    for strategy, run in expected.items():
        assert by_name[strategy]["total_cost_minor"] == run["total"]
        assert by_name[strategy]["band_energy_kwh"] == run["energy"]
        assert by_name[strategy]["comfort"] == run["comfort"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances())
def test_export_and_estimate_match_the_reference(case):
    expected = reference(case)[case["strategy"]["name"]]["trajectory"]
    thetas = case["thetas"]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        args = arguments(case, root)
        assert main(["export", *args, "--name", "m", "--out", str(root / "e")]) == 0
        props = (root / "e" / "m.props").read_text()
        for theta, point in zip(thetas, expected):
            model = (root / "e" / (f"m_theta{theta}.pm" if len(thetas) > 1 else "m.pm"))
            # the queries of one theta come in the building's zone order
            answers = [value for _, bound, value in prism_eval.answer(model.read_text(), props)
                       if bound == theta + 1]
            assert answers == pytest.approx(point, rel=1e-9, abs=1e-9)

        for i, zone in enumerate(case["zones"]):
            assert main(["estimate", str(root / f"log{i}.csv"), "--out", str(root / f"s{i}")]) == 0
            schedule = json.loads((root / f"s{i}" / "schedule.json").read_text())
            assert schedule["days"] == case["days"]
            cols = [[row[k] for row in zone["grid"]] for k in range(len(zone["hours"]))]
            steps = []
            for k, (now, after) in enumerate(zip(cols, cols[1:])):
                p_ff, p_vf = step_probabilities(now, after)
                steps.append(dict(step=k, hour_from=zone["hours"][k], hour_to=zone["hours"][k + 1],
                                  p_ff=p_ff, p_fv=1.0 - p_ff, p_vf=p_vf, p_vv=1.0 - p_vf))
            # one division of two day counts per probability, so they agree exactly
            assert schedule["steps"] == steps
