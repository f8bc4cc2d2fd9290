"""Engine/oracle equivalence and the closed-form temperature checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import (BENCH_A, BENCH_T0, chain_marginals, composed_values, forward_temps,
                      make_schedule, matrix_power, random_schedule)
from thermark import (
    DiscreteThermalModel,
    NumericalGuardError,
    ValidationError,
    ZoneGains,
    assign_rewards,
    brute_force_expected_temperature,
    comfort_check,
    compose,
    direct_expected_temperatures,
    unroll_zone,
)

ZONES = ("zone1", "zone2")


def bench_gains(q_int=0.7, q_rad=1.5):
    return {z: ZoneGains(q_int, q_rad) for z in ZONES}


def build_model(schedules, heats, horizon=9, initial=(False, False)):
    chains = [
        unroll_zone(s, h, horizon, zone_id=z, initial_occupied=i)
        for s, h, z, i in zip(schedules, heats, ZONES, initial)
    ]
    return compose(chains)


def random_instance(rng, horizon=9):
    schedules = [random_schedule(rng, horizon) for _ in ZONES]
    heats = [[bool(rng.integers(0, 2)) for _ in range(horizon + 1)] for _ in ZONES]
    initial = tuple(bool(rng.integers(0, 2)) for _ in ZONES)
    return build_model(schedules, heats, horizon, initial)


class TestClosedForms:
    def test_zero_gains_match_matrix_powers(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[False] * 10] * 2)
        gains = {z: ZoneGains(0.0, 0.0) for z in ZONES}
        for theta in range(1, 10):
            temps = forward_temps(model, bench_thermal, gains, theta)
            closed = matrix_power(BENCH_A, theta) @ BENCH_T0
            assert temps["zone1"] == pytest.approx(closed[0], abs=1e-12)
            assert temps["zone2"] == pytest.approx(closed[1], abs=1e-12)

    def test_zero_gain_theta_two_value(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[False] * 10] * 2)
        gains = {z: ZoneGains(0.0, 0.0) for z in ZONES}
        temps = forward_temps(model, bench_thermal, gains, 2)
        assert temps["zone1"] == pytest.approx(17.1606, abs=1e-4)

    def test_selective_preheating_theta_one(self, bench_thermal):
        heat = [True, True] + [False] * 8
        model = build_model([make_schedule(0.4)] * 2, [heat, heat])
        rewarded = assign_rewards(model, bench_thermal, bench_gains(), 1)
        temps = forward_temps(model, bench_thermal, bench_gains(), 1)
        assert temps["zone1"] == pytest.approx(18.9002, abs=1e-3)
        assert temps["zone2"] == pytest.approx(18.1014, abs=1e-3)
        oracle = brute_force_expected_temperature(rewarded, 1)
        assert oracle["zone1"] == pytest.approx(18.9002, abs=1e-3)
        assert oracle["zone2"] == pytest.approx(18.1014, abs=1e-3)

    def test_theta_one_independent_of_schedule(self, bench_thermal):
        heat = [True, True] + [False] * 8
        values = []
        for p_vf in (0.1, 0.5, 0.9):
            model = build_model([make_schedule(p_vf)] * 2, [heat, heat])
            values.append(forward_temps(model, bench_thermal, bench_gains(), 1))
        for z in ZONES:
            assert values[0][z] == pytest.approx(values[1][z], abs=1e-12)
            assert values[0][z] == pytest.approx(values[2][z], abs=1e-12)

    def test_always_occupied_theta_one(self, bench_thermal):
        # both zones occupied from the start, no heating: the occupant gain
        # lands at step 1 via the step-0 labels
        model = build_model(
            [make_schedule(p_vf=1.0, p_ff=1.0)] * 2,
            [[False] * 10] * 2,
            initial=(True, True),
        )
        temps = forward_temps(model, bench_thermal, bench_gains(), 1)
        assert temps["zone1"] == pytest.approx(18.1002, abs=1e-4)


class TestCrossEngine:
    def test_engine_matches_oracle_on_random_instances(self, bench_thermal):
        rng = np.random.default_rng(101)
        for _ in range(25):
            model = random_instance(rng)
            gains = {z: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                     for z in ZONES}
            for theta in (1, int(rng.integers(2, 9)), 9):
                rewarded = assign_rewards(model, bench_thermal, gains, theta)
                engine = forward_temps(model, bench_thermal, gains, theta)
                oracle = brute_force_expected_temperature(rewarded, theta)
                for z in ZONES:
                    assert abs(engine[z] - oracle[z]) <= 1e-9

    def test_engine_matches_oracle_across_sizes(self):
        rng = np.random.default_rng(321)
        for _ in range(30):
            n = int(rng.integers(1, 3))
            horizon = int(rng.integers(1, 11))
            zone_ids = ZONES[:n]
            # random closed-network update: nonneg rows summing to 1
            raw = rng.uniform(0.1, 1.0, size=(n, n))
            a = raw / raw.sum(axis=1, keepdims=True)
            thermal = DiscreteThermalModel(
                a=a, b=np.eye(n), delta=1.0,
                initial_temps=rng.uniform(10, 25, size=n),
                zone_ids=zone_ids,
            )
            chains = [
                unroll_zone(
                    random_schedule(rng, horizon),
                    [bool(rng.integers(0, 2)) for _ in range(horizon + 1)],
                    horizon, zone_id=z,
                    initial_occupied=bool(rng.integers(0, 2)),
                )
                for z in zone_ids
            ]
            model = compose(chains)
            gains = {z: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                     for z in zone_ids}
            theta = int(rng.integers(1, horizon + 1))
            rewarded = assign_rewards(model, thermal, gains, theta)
            engine = forward_temps(model, thermal, gains, theta)
            oracle = brute_force_expected_temperature(rewarded, theta)
            for z in zone_ids:
                assert abs(engine[z] - oracle[z]) <= 1e-9

    def test_direct_engine_matches_composed(self, bench_thermal):
        rng = np.random.default_rng(55)
        for _ in range(20):
            model = random_instance(rng)
            gains = {z: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                     for z in ZONES}
            marginals = chain_marginals(model.chains).T
            heat = np.array([[model.heating_at(k)[j] for j in range(2)]
                             for k in range(10)], dtype=float)
            thetas = list(range(1, 10))
            direct = direct_expected_temperatures(bench_thermal, gains, marginals, heat, thetas)
            for ti, theta in enumerate(thetas):
                composed = forward_temps(model, bench_thermal, gains, theta)
                for zi, z in enumerate(ZONES):
                    assert abs(direct[ti, zi] - composed[z]) <= 1e-12

    def test_deterministic_model_equals_single_path(self, bench_thermal):
        schedule = make_schedule(p_vf=1.0, p_ff=1.0)
        heat = [True] * 10
        model = build_model([schedule] * 2, [heat, heat])
        gains = bench_gains()
        # single path: empty at step 0, occupied afterwards
        t = BENCH_T0.copy()
        occupied = np.zeros(2)
        for k in range(4):
            gain = 0.7 * occupied + 1.5
            t = BENCH_A @ t + gain
            occupied = np.ones(2)
        rewarded = assign_rewards(model, bench_thermal, gains, 4)
        oracle = brute_force_expected_temperature(rewarded, 4)
        assert oracle["zone1"] == pytest.approx(t[0], abs=1e-12)
        assert oracle["zone2"] == pytest.approx(t[1], abs=1e-12)

    def test_linearity_in_gains(self, bench_thermal):
        rng = np.random.default_rng(77)
        model = random_instance(rng)

        def evaluate(gains, t0=BENCH_T0):
            thermal = bench_thermal.replace(initial_temps=np.asarray(t0))
            return forward_temps(model, thermal, gains, 6)

        g1 = {z: ZoneGains(0.4, 1.1) for z in ZONES}
        g2 = {z: ZoneGains(0.9, 0.2) for z in ZONES}
        g_sum = {z: ZoneGains(1.3, 1.3) for z in ZONES}
        zero = {z: ZoneGains(0.0, 0.0) for z in ZONES}
        e1, e2 = evaluate(g1), evaluate(g2)
        e0, es = evaluate(zero), evaluate(g_sum)
        for z in ZONES:
            assert abs((e1[z] + e2[z] - e0[z]) - es[z]) <= 1e-9

        # linear in T0 and the gains together: a zero start without gains stays zero
        t1, t2 = np.array([18.0, 16.0]), np.array([-3.0, 5.5])
        ea, eb, eab = evaluate(g1, t1), evaluate(g2, t2), evaluate(g_sum, t1 + t2)
        assert evaluate(zero, np.zeros(2)) == {z: 0.0 for z in ZONES}
        for z in ZONES:
            assert abs((ea[z] + eb[z]) - eab[z]) <= 1e-9

    def test_theta_mismatch_rejected(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[False] * 10] * 2)
        rewarded = assign_rewards(model, bench_thermal, bench_gains(), 3)
        with pytest.raises(ValidationError, match="theta"):
            brute_force_expected_temperature(rewarded, 4)

    def test_oracle_size_guard(self, bench_thermal):
        rng = np.random.default_rng(1)
        horizon = 12
        chains = [
            unroll_zone(random_schedule(rng, horizon), [False] * (horizon + 1),
                        horizon, zone_id=z)
            for z in ZONES
        ]
        thermal = bench_thermal
        model = compose(chains)
        rewarded = assign_rewards(model, thermal, bench_gains(), 3)
        with pytest.raises(NumericalGuardError, match="path enumeration"):
            brute_force_expected_temperature(rewarded, 3)


class TestTrajectory:
    def test_no_heating_trajectory_is_monotone(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[False] * 10] * 2)
        trajectory = composed_values(model, bench_thermal, bench_gains(), range(1, 10))
        for series in trajectory.T:
            assert np.all(np.diff(series) >= -1e-12)

    def test_singleton_range_matches_single_call(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[True] * 10] * 2)
        # a pass run to step 9 gives the bits at step 4 that a pass run to step 4 gives
        trajectory = composed_values(model, bench_thermal, bench_gains(), range(1, 10))
        single = forward_temps(model, bench_thermal, bench_gains(), 4)
        for j, z in enumerate(ZONES):
            assert trajectory[3, j] == pytest.approx(single[z], abs=0)

    def test_trajectory_matches_oracle_pointwise(self, bench_thermal):
        rng = np.random.default_rng(2024)
        model = random_instance(rng)
        trajectory = composed_values(model, bench_thermal, bench_gains(), range(1, 10))
        for theta in range(1, 10):
            rewarded = assign_rewards(model, bench_thermal, bench_gains(), theta)
            oracle = brute_force_expected_temperature(rewarded, theta)
            for j, z in enumerate(ZONES):
                assert abs(trajectory[theta - 1, j] - oracle[z]) <= 1e-9

    def test_propagates_once_per_call(self, bench_thermal):
        # one pass up to the largest theta reads each step's factors once, for every theta
        class CountingFactors(np.ndarray):
            def __getitem__(self, key):
                if self.ndim == 4:
                    reads.append(key)
                return super().__getitem__(key)

        reads = []
        model = random_instance(np.random.default_rng(4))
        counted = model.replace(factors=model.factors.view(CountingFactors))
        trajectory = composed_values(counted, bench_thermal, bench_gains(), [7, 2, 5])
        assert sorted(reads) == list(range(7))
        expected = composed_values(model, bench_thermal, bench_gains(), range(1, 10))
        assert np.array_equal(trajectory, expected[[6, 1, 4]])


def ring_thermal(rng, zone_ids):
    """A thermal model whose zones each exchange heat with the next one."""
    n = len(zone_ids)
    a = np.diag(rng.uniform(0.5, 0.9, size=n))
    a[np.arange(n), (np.arange(n) + 1) % n] += 1.0 - a.diagonal()
    return DiscreteThermalModel(a=a, b=np.eye(n), delta=1.0,
                                initial_temps=rng.uniform(10, 25, size=n),
                                zone_ids=tuple(zone_ids))


def direct(model, thermal, gains, thetas):
    marginals = chain_marginals(model.chains).T
    heat = np.array([model.heating_at(k) for k in range(model.horizon + 1)], dtype=float)
    return direct_expected_temperatures(thermal, gains, marginals, heat, thetas)


class TestForwardPassReadsLayers:
    """The forward pass answers from each step's zone factors, the layers
    of the product chain, so a wrong factor shows."""

    def test_swapped_factor_rows_move_the_engine(self, bench_thermal):
        # zone1 leaves step 2 with the occupied and empty rows exchanged
        heat = [True] * 10
        model = build_model([make_schedule(0.4)] * 2, [heat, heat])
        factors = model.factors.copy()
        factors[2, 0] = factors[2, 0, ::-1]
        mutant = model.replace(factors=factors)
        gains = bench_gains()
        before = forward_temps(model, bench_thermal, gains, 5)
        after = forward_temps(mutant, bench_thermal, gains, 5)
        assert before["zone1"] == pytest.approx(25.94144, abs=1e-5)
        assert before["zone1"] - after["zone1"] > 1e-3
        # the direct recursion reads the zone chains, which the mutant shares
        assert np.array_equal(direct(model, bench_thermal, gains, [5]),
                              direct(mutant, bench_thermal, gains, [5]))

    def test_reversed_kronecker_order_moves_the_trajectory(self, bench_thermal):
        # zone j's factor applied on zone N-1-j's axis
        model = random_instance(np.random.default_rng(8))
        mutant = model.replace(factors=model.factors[:, ::-1])
        thetas = range(1, 10)
        right = composed_values(model, bench_thermal, bench_gains(), thetas)
        wrong = composed_values(mutant, bench_thermal, bench_gains(), thetas)
        assert np.max(np.abs(right - wrong)) > 1e-3

    @pytest.mark.parametrize("n, horizon",
                             [(8, 9), (8, 23), (10, 9), (10, 23), (12, 23), (16, 9)])
    def test_matches_direct_recursion_past_the_oracle(self, n, horizon):
        # N*K from 72 to 276: far past the oracle's 2^22 paths, and at N=12
        # and 16 past any dense (2^N, 2^N) layer (3 GB and 400 GB)
        rng = np.random.default_rng(n * 100 + horizon)
        zone_ids = [f"z{i}" for i in range(n)]
        model = compose([
            unroll_zone(random_schedule(rng, horizon),
                        [bool(b) for b in rng.integers(0, 2, horizon + 1)], horizon,
                        zone_id=z, initial_occupied=bool(rng.integers(0, 2)))
            for z in zone_ids
        ])
        thermal = ring_thermal(rng, zone_ids)
        gains = {z: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                 for z in zone_ids}
        thetas = range(1, horizon + 1)
        trajectory = composed_values(model, thermal, gains, thetas)
        assert np.max(np.abs(trajectory - direct(model, thermal, gains, thetas))) <= 1e-9


class TestComfort:
    def check(self, values):
        """comfort_check of one strategy's trajectory, as a stack of one."""
        return comfort_check(np.asarray(values, dtype=float)[None], (20.0, 22.0))

    def test_all_within(self):
        below, above, ever_below, ever_above = self.check([[21.0, 21.0]] * 4)
        assert below.shape == above.shape == (1, 4, 2)
        assert not below.any() and not above.any()
        assert not ever_above.any()
        assert not ever_below.any()

    def test_boundary_counts_as_within(self):
        below, above, _, _ = self.check([[22.0, 20.0]])
        assert below.tolist() == above.tolist() == [[[False, False]]]

    def test_late_day_overshoot_flagged(self):
        below, above, ever_below, ever_above = self.check(
            [[19.0, 19.0], [21.0, 21.0], [22.5, 23.0]])
        assert ever_above.tolist() == [[True, True]]
        assert ever_below.tolist() == [[True, True]]
        assert below.tolist() == [[[True, True], [False, False], [False, False]]]
        assert above.tolist() == [[[False, False], [False, False], [True, True]]]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            self.check([[21.0, 21.0], [bad, 21.0]])

    def test_band_must_be_ordered(self):
        with pytest.raises(ValidationError, match="band"):
            comfort_check(np.full((1, 1, 2), 21.0), (22.0, 20.0))

    @pytest.mark.parametrize("band", [(-math.inf, 22.0), (20.0, math.inf), (math.nan, 22.0),
                                      (20.0, math.nan)])
    def test_band_must_be_finite(self, band):
        with pytest.raises(ValidationError, match="band must be finite"):
            comfort_check(np.full((1, 1, 2), 21.0), band)
