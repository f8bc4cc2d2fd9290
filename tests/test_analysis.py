"""Engine/oracle equivalence and the closed-form temperature checks."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import BENCH_A, BENCH_T0, make_schedule, random_schedule
from thermark import (
    NumericalGuardError,
    ValidationError,
    ZoneGains,
    assign_rewards,
    brute_force_expected_temperature,
    comfort_check,
    compose,
    direct_expected_temperatures,
    expected_temperature,
    temperature_trajectory,
    unroll_zone,
)
from thermark.analysis import TemperatureTrajectory
from thermark.thermal import matrix_power

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
            rewarded = assign_rewards(model, bench_thermal, gains, theta)
            temps = expected_temperature(rewarded, theta)
            closed = matrix_power(BENCH_A, theta) @ BENCH_T0
            assert temps["zone1"] == pytest.approx(closed[0], abs=1e-12)
            assert temps["zone2"] == pytest.approx(closed[1], abs=1e-12)

    def test_zero_gain_theta_two_value(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[False] * 10] * 2)
        gains = {z: ZoneGains(0.0, 0.0) for z in ZONES}
        temps = expected_temperature(assign_rewards(model, bench_thermal, gains, 2), 2)
        assert temps["zone1"] == pytest.approx(17.1606, abs=1e-4)

    def test_selective_preheating_theta_one(self, bench_thermal):
        heat = [True, True] + [False] * 8
        model = build_model([make_schedule(0.4)] * 2, [heat, heat])
        rewarded = assign_rewards(model, bench_thermal, bench_gains(), 1)
        temps = expected_temperature(rewarded, 1)
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
            rewarded = assign_rewards(model, bench_thermal, bench_gains(), 1)
            values.append(expected_temperature(rewarded, 1))
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
        rewarded = assign_rewards(model, bench_thermal, bench_gains(), 1)
        temps = expected_temperature(rewarded, 1)
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
                engine = expected_temperature(rewarded, theta)
                oracle = brute_force_expected_temperature(rewarded, theta)
                for z in ZONES:
                    assert abs(engine[z] - oracle[z]) <= 1e-9

    def test_engine_matches_oracle_across_sizes(self):
        from thermark import DiscreteThermalModel

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
                zone_ids=zone_ids, derived=False,
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
            engine = expected_temperature(rewarded, theta)
            oracle = brute_force_expected_temperature(rewarded, theta)
            for z in zone_ids:
                assert abs(engine[z] - oracle[z]) <= 1e-9

    def test_direct_engine_matches_composed(self, bench_thermal):
        rng = np.random.default_rng(55)
        for _ in range(20):
            model = random_instance(rng)
            gains = {z: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                     for z in ZONES}
            marginals = model.occupied_marginals()
            heat = np.array([[model.heating_at(k)[j] for j in range(2)]
                             for k in range(10)], dtype=float)
            thetas = list(range(1, 10))
            direct = direct_expected_temperatures(bench_thermal, gains, marginals, heat, thetas)
            for ti, theta in enumerate(thetas):
                rewarded = assign_rewards(model, bench_thermal, gains, theta)
                composed = expected_temperature(rewarded, theta)
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

        def evaluate(gains):
            rewarded = assign_rewards(model, bench_thermal, gains, 6)
            return expected_temperature(rewarded, 6)

        g1 = {z: ZoneGains(0.4, 1.1) for z in ZONES}
        g2 = {z: ZoneGains(0.9, 0.2) for z in ZONES}
        g_sum = {z: ZoneGains(1.3, 1.3) for z in ZONES}
        zero = {z: ZoneGains(0.0, 0.0) for z in ZONES}
        e1, e2 = evaluate(g1), evaluate(g2)
        e0, es = evaluate(zero), evaluate(g_sum)
        for z in ZONES:
            assert abs((e1[z] + e2[z] - e0[z]) - es[z]) <= 1e-9

    def test_heating_monotonicity(self, bench_thermal):
        rng = np.random.default_rng(99)
        for _ in range(10):
            schedules = [random_schedule(rng, 9) for _ in ZONES]
            heats = [[bool(rng.integers(0, 2)) for _ in range(10)] for _ in ZONES]
            zone_pick = int(rng.integers(0, 2))
            off_steps = [k for k in range(10) if not heats[zone_pick][k]]
            if not off_steps:
                continue
            flip = off_steps[int(rng.integers(0, len(off_steps)))]
            more = [list(h) for h in heats]
            more[zone_pick][flip] = True
            base_model = build_model(schedules, heats)
            more_model = build_model(schedules, more)
            for theta in (1, 5, 9):
                base = expected_temperature(
                    assign_rewards(base_model, bench_thermal, bench_gains(), theta), theta)
                bumped = expected_temperature(
                    assign_rewards(more_model, bench_thermal, bench_gains(), theta), theta)
                for z in ZONES:
                    assert bumped[z] >= base[z] - 1e-12

    def test_theta_mismatch_rejected(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[False] * 10] * 2)
        rewarded = assign_rewards(model, bench_thermal, bench_gains(), 3)
        with pytest.raises(ValidationError, match="theta"):
            expected_temperature(rewarded, 4)
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
        trajectory = temperature_trajectory(model, bench_thermal, bench_gains(), range(1, 10))
        for z in ZONES:
            series = trajectory.series(z)
            assert np.all(np.diff(series) >= -1e-12)

    def test_singleton_range_matches_single_call(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[True] * 10] * 2)
        trajectory = temperature_trajectory(model, bench_thermal, bench_gains(), [4])
        single = expected_temperature(
            assign_rewards(model, bench_thermal, bench_gains(), 4), 4)
        for z in ZONES:
            assert trajectory.value(4, z) == pytest.approx(single[z], abs=0)

    def test_trajectory_matches_oracle_pointwise(self, bench_thermal):
        rng = np.random.default_rng(2024)
        model = random_instance(rng)
        trajectory = temperature_trajectory(model, bench_thermal, bench_gains(), range(1, 10))
        for theta in range(1, 10):
            rewarded = assign_rewards(model, bench_thermal, bench_gains(), theta)
            oracle = brute_force_expected_temperature(rewarded, theta)
            for z in ZONES:
                assert abs(trajectory.value(theta, z) - oracle[z]) <= 1e-9

    def test_propagates_once_per_call(self, bench_thermal, monkeypatch):
        import thermark.analysis

        calls = []
        propagate = thermark.analysis.state_probabilities
        monkeypatch.setattr(thermark.analysis, "state_probabilities",
                            lambda model: calls.append(model) or propagate(model))
        model = random_instance(np.random.default_rng(4))
        temperature_trajectory(model, bench_thermal, bench_gains(), range(1, 10))
        assert len(calls) == 1 and calls[0] is model

    def test_empty_range_rejected(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[False] * 10] * 2)
        with pytest.raises(ValidationError, match="empty"):
            temperature_trajectory(model, bench_thermal, bench_gains(), [])

    def test_out_of_range_rejected(self, bench_thermal):
        model = build_model([make_schedule(0.4)] * 2, [[False] * 10] * 2)
        with pytest.raises(ValidationError, match="theta"):
            temperature_trajectory(model, bench_thermal, bench_gains(), [0, 1])


class TestComfort:
    def make_trajectory(self, values):
        values = np.asarray(values, dtype=float)
        return TemperatureTrajectory(
            zone_ids=ZONES,
            thetas=tuple(range(1, len(values) + 1)),
            values=values,
        )

    def test_all_within(self):
        report = comfort_check(self.make_trajectory([[21.0, 21.0]] * 4), (20.0, 22.0))
        assert all(v == "within" for v in report.classifications.values())
        assert not any(report.ever_above.values())
        assert not any(report.ever_below.values())

    def test_boundary_counts_as_within(self):
        report = comfort_check(self.make_trajectory([[22.0, 20.0]]), (20.0, 22.0))
        assert report.classifications[(1, "zone1")] == "within"
        assert report.classifications[(1, "zone2")] == "within"

    def test_late_day_overshoot_flagged(self):
        values = [[19.0, 19.0], [21.0, 21.0], [22.5, 23.0]]
        report = comfort_check(self.make_trajectory(values), (20.0, 22.0))
        assert report.ever_above["zone1"] and report.ever_above["zone2"]
        assert report.ever_below["zone1"]
        assert report.classifications[(3, "zone1")] == "above"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            comfort_check(self.make_trajectory([[21.0, 21.0], [bad, 21.0]]), (20.0, 22.0))

    def test_band_must_be_ordered(self):
        with pytest.raises(ValidationError, match="band"):
            comfort_check(self.make_trajectory([[21.0, 21.0]]), (22.0, 20.0))
