"""Property test of the forward pass over the composed chain's layers.

On random small instances the trajectory must agree with the direct
marginal recursion, and must not depend on the order the zones are
composed in.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thermark import (  # noqa: E402
    DiscreteThermalModel,
    ZoneGains,
    compose,
    direct_expected_temperatures,
    temperature_trajectory,
    unroll_zone,
)
from thermark.occupancy import StepMatrix, TransitionSchedule  # noqa: E402

probability = st.floats(0.0, 1.0)


@st.composite
def instances(draw):
    """Zone chains over N <= 5 zones and K <= 6 steps, a row-stochastic A,
    a start temperature and gains per zone, and an order to compose in."""
    n, horizon = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    zone_ids = tuple(f"z{i}" for i in range(n))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n)))
    raw = raw.reshape(n, n)
    thermal = DiscreteThermalModel(
        a=raw / raw.sum(axis=1, keepdims=True), b=np.eye(n), delta=1.0,
        initial_temps=np.array(draw(st.lists(st.floats(-10.0, 40.0), min_size=n, max_size=n))),
        zone_ids=zone_ids, derived=False,
    )
    chains = []
    for zid in zone_ids:
        steps = draw(st.lists(st.tuples(probability, probability),
                              min_size=horizon, max_size=horizon))
        schedule = TransitionSchedule(tuple(
            StepMatrix(step=k, p_vf=pv, p_vv=1.0 - pv, p_ff=pf, p_fv=1.0 - pf)
            for k, (pv, pf) in enumerate(steps)))
        heating = draw(st.lists(st.booleans(), min_size=horizon + 1, max_size=horizon + 1))
        chains.append(unroll_zone(schedule, heating, horizon, zone_id=zid,
                                  initial_occupied=draw(st.booleans())))
    gains = {zid: ZoneGains(draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0)))
             for zid in zone_ids}
    return thermal, chains, gains, draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=instances())
def test_forward_pass_matches_direct_recursion_in_any_zone_order(instance):
    thermal, chains, gains, order = instance
    horizon = chains[0].horizon
    thetas = range(1, horizon + 1)
    trajectory = temperature_trajectory(compose(chains), thermal, gains, thetas)

    marginals = np.array([c.occupied_marginals() for c in chains]).T
    heat = np.array([c.heating for c in chains], dtype=float).T
    direct = direct_expected_temperatures(thermal, gains, marginals, heat, thetas)
    assert np.max(np.abs(trajectory.values - direct)) <= 1e-9

    permuted = temperature_trajectory(compose([chains[i] for i in order]), thermal, gains,
                                      thetas)
    assert np.max(np.abs(permuted.values - trajectory.values[:, order])) <= 1e-12
