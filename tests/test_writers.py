"""The JSON writers of ``thermark.cli`` against ``json.dumps``.

``comfort.json``, ``cost.json`` and ``schedule.json`` are written from
their fixed layouts. Each writer's text must equal
``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` of the payload
that describes the same data, for any names, floats and container sizes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thermark.cli import _comfort_json, _cost_json, _schedule_json  # noqa: E402
from thermark.strategy import CostReport, StrategyComparison  # noqa: E402

# a quote, a backslash, non-ASCII text (one character outside the BMP), a line
# separator and DEL, each of which json escapes
ESCAPED = ['a"b', "a\\b", "é", "😀", "a\u2028b", "a\x7fb", "zone1"]
names = st.sampled_from(ESCAPED) | st.text(max_size=6)
# repr and json part ways on none of these
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, 1.0, 2.0, 21.0, -3.0, 1e300]
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
probabilities = st.sampled_from([-0.0, 0.0, 5e-324, 0.1 + 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0)


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def summary_payload(zone_ids, ever_below, ever_above) -> dict:
    return {z: {"ever_below": b, "ever_above": a}
            for z, b, a in zip(zone_ids, ever_below.tolist(), ever_above.tolist())}


def bools(draw, shape) -> np.ndarray:
    return np.array(draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))).reshape(shape)


settle = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@settle
@given(data=st.data())
def test_comfort_json(data):
    draw = data.draw
    zone_ids = tuple(draw(st.lists(names, min_size=1, max_size=4, unique=True)))
    thetas = tuple(draw(st.lists(st.integers(1, 30), min_size=1, max_size=5)))
    low, high = sorted(draw(st.lists(floats, min_size=2, max_size=2, unique=True)))
    below = bools(draw, (len(thetas), len(zone_ids)))
    above = bools(draw, below.shape) & ~below
    ever_below, ever_above = below.any(axis=0), above.any(axis=0)
    text = _comfort_json((low, high), thetas, zone_ids, (below, above, ever_below, ever_above))
    labels = np.where(below, "below", np.where(above, "above", "within")).tolist()
    assert text == dumps({
        "band": {"low": low, "high": high},
        "points": [{"theta": theta, "zone": z, "classification": label}
                   for theta, row in zip(thetas, labels) for z, label in zip(zone_ids, row)],
        "summary": summary_payload(zone_ids, ever_below, ever_above),
    })


@settle
@given(data=st.data())
def test_cost_json(data):
    draw = data.draw
    strategies = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    bands = draw(st.lists(names, max_size=4, unique=True))
    zone_ids = tuple(draw(st.lists(names, min_size=1, max_size=3, unique=True)))
    rows = tuple(CostReport(
        strategy=name,
        band_energy_kwh={band: draw(floats) for band in bands},
        total_cost_minor=draw(st.integers(0, 10 ** 20)),
        notes=tuple(draw(st.lists(names, max_size=2))),
        cost_ratio=draw(st.none() | floats),
    ) for name in strategies)
    comparison = StrategyComparison(
        rows=rows, baseline=draw(st.none() | st.sampled_from(strategies)),
        flags=tuple(draw(st.lists(names, max_size=2))))
    # a strategy without masks, as every one without occupancy logs, gets null
    comfort = {name: (bools(draw, (len(zone_ids),)), bools(draw, (len(zone_ids),)))
               for name in strategies if draw(st.booleans())}
    assert _cost_json(comparison, zone_ids, comfort) == dumps({
        "baseline": comparison.baseline,
        "flags": list(comparison.flags),
        "rows": [{
            "strategy": r.strategy,
            "band_energy_kwh": r.band_energy_kwh,
            "total_cost_minor": r.total_cost_minor,
            "cost_ratio_vs_cheapest": r.cost_ratio,
            "comfort": summary_payload(zone_ids, *comfort[r.strategy]) if r.strategy in comfort
            else None,
            "notes": list(r.notes),
        } for r in rows],
    })


@settle
@given(data=st.data())
def test_schedule_json(data):
    draw = data.draw
    start = draw(st.integers(0, 22))
    hours = tuple(range(start, draw(st.integers(start + 1, 23)) + 1))
    steps = len(hours) - 1
    p_vf = np.array(draw(st.lists(probabilities, min_size=steps, max_size=steps)))
    p_ff = np.array(draw(st.lists(probabilities, min_size=steps, max_size=steps)))
    days = draw(st.integers(1, 10 ** 6))
    # hours that no day was empty at and hours that no day was occupied at are drawn often
    occupied = np.array(draw(st.lists(st.sampled_from([0, days]) | st.integers(0, days),
                                      min_size=len(hours), max_size=len(hours))))
    warnings = draw(st.lists(names, max_size=2))
    assert _schedule_json(hours, p_vf, p_ff, occupied, days, warnings) == dumps({
        "steps": [{"step": k, "hour_from": hours[k], "hour_to": hours[k + 1],
                   "p_vf": float(v), "p_vv": 1.0 - float(v),
                   "p_ff": float(f), "p_fv": 1.0 - float(f)}
                  for k, (v, f) in enumerate(zip(p_vf, p_ff))],
        "diagnostics": [{"hour": hours[k], "condition": condition,
                         "reason": f"no day was {condition} at this hour; "
                                   "defaulted to stay-in-state"}
                        for k in range(steps)
                        for condition, unseen in (("empty", occupied[k] == days),
                                                  ("occupied", occupied[k] == 0))
                        if unseen],
        "days": days,
        "warnings": warnings,
    })


def test_empty_containers():
    """Diagnostics, warnings, flags, notes and band energies may all be empty."""
    assert _schedule_json((8, 9), np.array([0.5]), np.array([1.0]), np.array([1, 1]), 2,
                          []) == dumps({
        "days": 2, "diagnostics": [], "warnings": [],
        "steps": [{"step": 0, "hour_from": 8, "hour_to": 9,
                   "p_vf": 0.5, "p_vv": 0.5, "p_ff": 1.0, "p_fv": 0.0}]})
    row = CostReport(strategy="S1", band_energy_kwh={}, total_cost_minor=0, notes=())
    comparison = StrategyComparison(rows=(row,), baseline=None, flags=())
    assert _cost_json(comparison, ("zone1",), {}) == dumps({
        "baseline": None, "flags": [], "rows": [{
            "strategy": "S1", "band_energy_kwh": {}, "total_cost_minor": 0,
            "cost_ratio_vs_cheapest": None, "comfort": None, "notes": []}]})
