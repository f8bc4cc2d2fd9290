"""Property tests of the evaluation core and of billing.

On random small instances the forward pass over the composed chain's
zone factors must agree with the direct marginal recursion and with the
path-enumeration oracle, must not depend on the order the zones are
composed in, and must not cool a zone when a heating bit is switched on;
every dense layer the factors make must be row-stochastic. The
batched routes are checked against one-at-a-time references: stacked
trajectories against one call per strategy, the comfort summary against
the scalar classification rule, and per-band billing against per-hour
exact accumulation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import chain_marginals, dense_layers, forward_temps  # noqa: E402
from thermark import (  # noqa: E402
    DiscreteThermalModel,
    HeatingStrategy,
    ValidationError,
    ZoneGains,
    assign_rewards,
    brute_force_expected_temperature,
    comfort_check,
    compose,
    direct_expected_temperatures,
    strategy_cost,
    temperature_trajectory,
    unroll_zone,
)
from thermark.analysis import ORACLE_MAX_PATH_BITS  # noqa: E402
from thermark.occupancy import StepMatrix, TransitionSchedule  # noqa: E402
from thermark.strategy import Tariff, TariffBand  # noqa: E402

probability = st.floats(0.0, 1.0)
examples = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def instances(draw, max_path_bits=30):
    """Zone chains over N <= 5 zones and K <= 6 steps with N*K <=
    ``max_path_bits``, a row-stochastic A, a start temperature and gains
    per zone, and an order to compose in."""
    n = draw(st.integers(1, 5))
    horizon = draw(st.integers(1, min(6, max_path_bits // n)))
    zone_ids = tuple(f"z{i}" for i in range(n))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n)))
    raw = raw.reshape(n, n)
    thermal = DiscreteThermalModel(
        a=raw / raw.sum(axis=1, keepdims=True), b=np.eye(n), delta=1.0,
        initial_temps=np.array(draw(st.lists(st.floats(-10.0, 40.0), min_size=n, max_size=n))),
        zone_ids=zone_ids,
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


@examples
@given(instance=instances())
def test_forward_pass_matches_direct_recursion_in_any_zone_order(instance):
    thermal, chains, gains, order = instance
    horizon = chains[0].horizon
    thetas = range(1, horizon + 1)
    trajectory = temperature_trajectory(compose(chains), thermal, gains, thetas)

    marginals = chain_marginals(chains).T
    heat = np.array([c.heating for c in chains], dtype=float).T
    direct = direct_expected_temperatures(thermal, gains, marginals, heat, thetas)
    assert np.max(np.abs(trajectory.values - direct)) <= 1e-9

    permuted = temperature_trajectory(compose([chains[i] for i in order]), thermal, gains,
                                      thetas)
    assert np.max(np.abs(permuted.values - trajectory.values[:, order])) <= 1e-12


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instance=instances(max_path_bits=ORACLE_MAX_PATH_BITS), data=st.data())
def test_oracle_matches_the_forward_pass(instance, data):
    thermal, chains, gains, _ = instance
    horizon = chains[0].horizon
    # drawn from the last step down, so most examples enumerate every step
    theta = data.draw(st.integers(1, horizon).map(lambda back: horizon + 1 - back))
    model = compose(chains)
    oracle = brute_force_expected_temperature(assign_rewards(model, thermal, gains, theta), theta)
    engine = forward_temps(model, thermal, gains, theta)
    assert max(abs(oracle[zid] - engine[zid]) for zid in engine) <= 1e-9


@examples
@given(instance=instances())
def test_every_layer_is_row_stochastic(instance):
    _, chains, _, _ = instance
    layers = dense_layers(compose(chains))
    assert len(layers) == chains[0].horizon
    for layer in layers:
        assert np.all(layer >= 0.0)
        assert np.max(np.abs(layer.sum(axis=1) - 1.0)) <= 1e-12


@examples
@given(instance=instances(), data=st.data())
def test_expected_temperature_is_monotone_in_heating_bits(instance, data):
    # A and every gain are non-negative, so switching on one heating bit
    # cannot lower any zone's expected temperature at any step
    thermal, chains, gains, _ = instance
    m = data.draw(st.integers(0, len(chains) - 1))
    off = [k for k, bit in enumerate(chains[m].heating) if not bit]
    assume(off)
    k = data.draw(st.sampled_from(off))
    bumped = list(chains)
    bumped[m] = chains[m].replace(heating=tuple(
        bit or step == k for step, bit in enumerate(chains[m].heating)))
    thetas = range(1, chains[0].horizon + 1)
    base = temperature_trajectory(compose(chains), thermal, gains, thetas).values
    more = temperature_trajectory(compose(bumped), thermal, gains, thetas).values
    assert np.all(more >= base - 1e-12)


@examples
@given(data=st.data(), n=st.integers(1, 8), horizon=st.integers(1, 12),
       strategies=st.integers(1, 6))
def test_stacked_trajectories_equal_one_call_per_strategy(data, n, horizon, strategies):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    zone_ids = tuple(f"z{i}" for i in range(n))
    raw = rng.uniform(0.05, 1.0, (n, n))
    thermal = DiscreteThermalModel(
        a=raw / raw.sum(axis=1, keepdims=True), b=np.eye(n), delta=1.0,
        initial_temps=rng.uniform(-10.0, 40.0, n), zone_ids=zone_ids)
    gains = {zid: ZoneGains(*rng.uniform(0.0, 3.0, 2).tolist()) for zid in zone_ids}
    marginals = rng.uniform(0.0, 1.0, (horizon + 1, n))
    heating = rng.integers(0, 2, (strategies, horizon + 1, n)).astype(bool)
    thetas = data.draw(st.lists(st.integers(1, horizon), min_size=1, max_size=horizon))
    stacked = direct_expected_temperatures(thermal, gains, marginals, heating, thetas)
    assert stacked.shape == (strategies, len(thetas), n)
    for s, heat in enumerate(heating):
        alone = direct_expected_temperatures(thermal, gains, marginals, heat, thetas)
        assert alone.shape == (len(thetas), n)
        assert np.array_equal(stacked[s], alone)


BAND = (20.0, 22.0)
# the edges themselves, their float neighbours, and values well inside and outside
temperature = st.sampled_from([
    BAND[0], BAND[1], math.nextafter(BAND[0], -math.inf), math.nextafter(BAND[0], math.inf),
    math.nextafter(BAND[1], -math.inf), math.nextafter(BAND[1], math.inf),
]) | st.floats(15.0, 27.0)


def scalar_class(value: float) -> str:
    return "below" if value < BAND[0] else "above" if value > BAND[1] else "within"


@examples
@given(data=st.data(), strategies=st.integers(1, 4), thetas=st.integers(0, 5),
       n=st.integers(1, 4))
def test_comfort_summary_follows_the_scalar_rule(data, strategies, thetas, n):
    values = np.array(data.draw(st.lists(temperature, min_size=strategies * thetas * n,
                                         max_size=strategies * thetas * n)))
    values = values.reshape(strategies, thetas, n)
    below, above, ever_below, ever_above = comfort_check(values, BAND)
    assert below.shape == above.shape == values.shape
    for index, value in np.ndenumerate(values):
        assert (below[index], above[index]) == (scalar_class(value) == "below",
                                                scalar_class(value) == "above")
    for s, trajectory in enumerate(values):
        for j in range(n):
            column = [scalar_class(v) for v in trajectory[:, j]]
            assert ever_below[s, j] == ("below" in column)
            assert ever_above[s, j] == ("above" in column)

    if values.size:
        values.flat[data.draw(st.integers(0, values.size - 1))] = data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(ValidationError, match="non-finite"):
            comfort_check(values, BAND)


@st.composite
def tariffs(draw) -> Tariff:
    """Non-overlapping bands on integer hours of 0..24, with gaps between some."""
    cuts = sorted(draw(st.sets(st.integers(0, 24), min_size=2, max_size=8)))
    bands = [TariffBand(f"b{i}", start, end, draw(st.integers(0, 50)))
             for i, (start, end) in enumerate(zip(cuts, cuts[1:]))
             if draw(st.integers(0, 4))]
    assume(bands)
    return Tariff(bands=tuple(draw(st.permutations(bands))))


def per_hour_cost(strategy: HeatingStrategy, tariff: Tariff, radiator_kw: float):
    """Band energies and total, one exact Fraction sum per heated zone-hour."""
    power = Fraction(str(radiator_kw))
    price = {band.name: band.price_minor_per_kwh for band in tariff.bands}
    energy = {band.name: Fraction(0) for band in tariff.bands}
    total = Fraction(0)
    for hours in strategy.schedule.values():
        for h in sorted(hours):
            band = tariff.band_for_hour(h)
            energy[band.name] += power
            total += power * price[band.name]
    return {name: float(e) for name, e in energy.items()}, round(total)


@examples
@given(data=st.data(), tariff=tariffs(), zones=st.integers(0, 4),
       radiator_kw=st.sampled_from([0.0, 0.1, 0.5, 1.37]) | st.integers(0, 500).map(
           lambda centi: centi / 100))
def test_band_count_billing_equals_per_hour_sums(data, tariff, zones, radiator_kw):
    covered = [h for band in tariff.bands for h in range(band.start, band.end)]
    # one example in four may heat an hour outside every band, which must
    # fail on the same hour as the per-hour loop
    hours = st.integers(0, 23) if data.draw(st.integers(0, 3)) == 0 else st.sampled_from(covered)
    strategy = HeatingStrategy("s", {f"z{i}": data.draw(st.frozensets(hours, max_size=10))
                                     for i in range(zones)})
    try:
        expected = per_hour_cost(strategy, tariff, radiator_kw)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            strategy_cost(strategy, tariff, radiator_kw)
        assert str(got.value) == str(exc)
        return
    report = strategy_cost(strategy, tariff, radiator_kw)
    assert (report.band_energy_kwh, report.total_cost_minor) == expected
