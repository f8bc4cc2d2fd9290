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

A second kind of instance reaches every route by which the occupancy
parser reads a log: up to twelve zones of 24-hour logs of 10 to 1 500
days, on either side of ``STRIDE_MIN_BYTES``, some sharing one layout,
some spelled in ways the fast readers decline, and at most one faulty.
"""

from __future__ import annotations

import csv
import json
import random
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
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
        if "log" in z:  # a log spelled by its instance
            paths[z["id"]].write_bytes(z["log"])
            continue
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


# spellings that the day-block reader and the reference check decline, each
# made on one row list; the general reader reads each as the plain log
SPELLINGS = {
    "crlf": None,  # applied when the rows are joined
    "space": lambda rows, j: rows.__setitem__(j, rows[j].replace(",", ", ", 1)),
    "shuffled": lambda rows, j: random.Random(j).shuffle(rows),
    "blank-line": lambda rows, j: rows.insert(j, ""),
    "plus-day": lambda rows, j: rows.__setitem__(j, "+" + rows[j]),
    "zero-padded-day": lambda rows, j: rows.__setitem__(j, "0" + rows[j]),
}
# faults that make a log fail when it is read alone
FAULTS = {
    "occupied-2": lambda rows, j: rows.__setitem__(j, rows[j][:-1] + "2"),
    "gap": lambda rows, j: rows.__delitem__(j),
    "duplicate": lambda rows, j: rows.insert(j, rows[j]),
    "separator": lambda rows, j: rows.__setitem__(j, rows[j].replace(",", ";", 1)),
}


@st.composite
def long_log_instances(draw) -> dict:
    """Buildings of one to twelve zones whose logs cover every hour of the
    day, over one to three layouts (the same days, so the same bytes apart
    from the occupied bits) of 10 to 1 500 days, on either side of
    ``STRIDE_MIN_BYTES``. Drawn zones spell their log in a way that the
    fast readers decline, and one zone's log may be faulty. The grids and
    logs are left to :func:`long_log_case`, which keeps a failing
    example's printout short."""
    n = draw(st.integers(1, 12))
    zone_ids = [f"zone{i}" for i in draw(st.permutations(range(n)))]
    start, horizon = draw(st.integers(6, 9)), draw(st.integers(2, 6))
    layouts = [(draw(st.integers(1, 5000)), draw(st.one_of(st.integers(10, 170),
                                                           st.integers(180, 1500))))
               for _ in range(draw(st.integers(1, 3)))]
    zones = [dict(
        id=zid, capacitance=draw(st.sampled_from([1.5, 2.0, 3.0])),
        resistance=draw(st.sampled_from([1.5, 2.0, 4.0])),
        initial_temp=draw(st.sampled_from([16.3, 18.1, 19.7, 20.6, 21.4, 22.9])),
        layout=draw(st.sampled_from(layouts)), seed=draw(st.integers(0, 2 ** 32)),
        # the window's start hour is occupied on every day or on none
        first=draw(st.booleans()), p=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        spelling=draw(st.none() | st.sampled_from(sorted(SPELLINGS)))) for zid in zone_ids]
    lo = draw(st.integers(1, horizon))
    return dict(
        zones=zones, start=start, horizon=horizon,
        fault=draw(st.none() | st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(FAULTS)))),
        # at most one edge out of each zone keeps the discretisation stable
        edges=[[a, b] for a in zone_ids
               if (b := draw(st.sampled_from([None, *zone_ids]))) not in (None, a)],
        delta=draw(st.sampled_from([0.5, 1.0])),
        occupancy_order=draw(st.permutations(zone_ids)),
        bare_gains=None, zone_gains={},
        strategy=dict(name="mine", schedule={
            zid: sorted(draw(st.sets(st.integers(start, start + horizon - 1))))
            for zid in zone_ids if draw(st.booleans())}),
        bands=[dict(name="day", start=0, end=24, price_minor_per_kwh=1)],
        thetas=list(range(lo, draw(st.integers(lo, horizon)) + 1)),
        band=draw(st.sampled_from([(15.0, 18.0), (19.0, 21.0), (20.0, 22.0)])),
    )


def long_log_case(case: dict) -> dict:
    """``case`` with each zone's grid and log bytes, as :func:`reference`
    and :func:`arguments` take them."""
    lines = {}
    zones = []
    for i, zone in enumerate(case["zones"]):
        first, days = zone["layout"]
        if zone["layout"] not in lines:
            lines[zone["layout"]] = [f"{day},{hour}," for day in range(first, first + days)
                                     for hour in range(24)]
        rng = random.Random(zone["seed"])
        grid = [[zone["first"] if hour == case["start"] else rng.random() < zone["p"]
                 for hour in range(24)] for _ in range(days)]
        rows = [line + "01"[bit] for line, bit in zip(lines[zone["layout"]],
                                                     (bit for row in grid for bit in row))]
        if zone["spelling"] not in (None, "crlf"):
            SPELLINGS[zone["spelling"]](rows, rng.randrange(len(rows)))
        if case["fault"] is not None and case["fault"][0] == i:
            FAULTS[case["fault"][1]](rows, rng.randrange(len(rows)))
        end = "\r\n" if zone["spelling"] == "crlf" else "\n"
        zones.append(dict(zone, hours=list(range(24)), grid=grid,
                          log=end.join(["day,hour,occupied", *rows, ""]).encode()))
    return dict(case, zones=zones)


def route_example(first: str, fault: str | None = None) -> dict:
    """An instance whose logs take every ingestion route but one of the
    reference checks: short logs of one layout, two stacks of them, the
    last log shuffled so that it fails its stack, long logs of another
    layout, and short logs of their own spellings. The ``first`` ("short"
    or "long") layout's logs come first, so one of them is the reference;
    it is never occupied, so that a ``fault`` in the second log differs
    from it wherever it lies. A separator fault keeps that log at the
    reference's length, so that only the check can reject it."""
    layouts = {"short": (1, 120), "long": (1, 400)}
    logs = [*[("short", None)] * 5, ("short", "shuffled"), ("long", None), ("long", None),
            ("short", "space"), ("short", "plus-day")]
    logs.sort(key=lambda log: log[0] != first)
    zones = [dict(id=f"zone{i}", capacitance=2.0, resistance=2.0, initial_temp=19.7,
                  layout=layouts[layout], seed=i, first=False, p=0.5 if i else 0.0,
                  spelling=spelling)
             for i, (layout, spelling) in enumerate(logs)]
    return dict(zones=zones, start=8, horizon=4, fault=fault and (1, fault),
                edges=[["zone0", "zone1"]],
                delta=1.0, occupancy_order=[z["id"] for z in zones], bare_gains=None,
                zone_gains={}, strategy=dict(name="mine", schedule={"zone0": [9, 10]}),
                bands=[dict(name="day", start=0, end=24, price_minor_per_kwh=1)],
                thetas=[1, 2, 3, 4], band=(19.0, 21.0))


@pytest.fixture
def routes(monkeypatch):
    """How often each ingestion route reads a body, counted by wrappers
    around the readers."""
    from thermark import occupancy

    counts = dict.fromkeys([
        "day blocks", "long reference check", "stacked reference check",
        "one body after a failed stack", "general reader", "long body handed over unchecked"], 0)

    def count(name, routes_of):
        read = getattr(occupancy, name)

        def counted(*args, **kwargs):
            result = read(*args, **kwargs)
            for route in routes_of(args, result):
                counts[route] += 1
            return result

        monkeypatch.setattr(occupancy, name, counted)

    failed = []  # whether the last stack of several bodies failed its check

    def checks(args, read):
        stack = args[0]
        if len(stack) > 1:
            failed[:] = [read is None]
            return ["stacked reference check"] * (read is not None)
        if stack.shape[1] >= occupancy.STRIDE_MIN_BYTES:
            return ["long reference check"] * (read is not None)
        return ["one body after a failed stack"] * (failed == [True])

    count("_read_strides", lambda args, read: ["day blocks"] * (read is not None))
    count("_read_like", checks)
    count("_inline", lambda args, read: ["general reader"])
    count("_plain_start", lambda args, start: ["long body handed over unchecked"] * (start > 0))
    return counts


def test_long_and_respelled_logs_match_the_reference(routes, capsys):
    """``analyze`` on long, shared-layout, respelled and faulty logs gives
    the reference's trajectory and comfort, or for a faulty log the one
    stderr line that ``estimate`` gives on that log; every ingestion route
    reads some body."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(long_log_instances())
    @example(route_example("short"))
    @example(route_example("long"))
    @example(route_example("short", "occupied-2"))
    @example(route_example("long", "occupied-2"))
    @example(route_example("short", "separator"))
    @example(route_example("long", "separator"))
    def check(case):
        case = long_log_case(case)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            args = [*arguments(case, root), "--band", "{}-{}".format(*case["band"])]
            capsys.readouterr()
            code = main(["analyze", *args, "--out", str(root / "a")])
            err = capsys.readouterr().err
            if case["fault"] is not None:
                assert code == 2 and err.count("\n") == 1
                log = root / f"log{case['fault'][0]}.csv"
                assert main(["estimate", str(log), "--out", str(root / "e")]) == 2
                assert capsys.readouterr().err == err
                return
            assert code == 0, err
            with open(root / "a" / "trajectory.csv", newline="") as f:
                _, *rows = csv.reader(f)
            comfort = json.loads((root / "a" / "comfort.json").read_text())
        expected = reference(case)["mine"]
        values = [v for point in expected["trajectory"] for v in point]
        assert [float(row[2]) for row in rows] == pytest.approx(values, rel=1e-9, abs=1e-9)
        edges = [abs(v - edge) > 1e-6 for v in values for edge in case["band"]]
        if all(edges):  # a point on a band edge would be classed by rounding
            assert [point["classification"] for point in comfort["points"]] == [
                label for labels in expected["classes"] for label in labels]

    check()
    assert all(routes.values()), routes
