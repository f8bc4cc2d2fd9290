"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Criterion 5b is knowingly red: the exact cost table pins
the always-on strategies to hours 9..16 while selective pre-heating runs
at hour 8, and gains are read from the previous step's labels, so the
selective strategy leads at the first two evaluation points. Both
requirements cannot hold at once; the cost table wins here.
"""

from __future__ import annotations

import shutil
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (BENCH_A, BENCH_T0, build_model, composed_values, make_schedule,
                      matrix_power, random_schedule)
from thermark import (
    ZoneGains,
    assign_rewards,
    brute_force_expected_temperature,
    builtin_strategy,
    build_state_space,
    compose,
    discretize_forward_euler,
    export_properties,
    parse_occupancy_csv,
    render_models,
    step_reward_table,
    strategy_cost,
    table2_tariff,
    unroll_zone,
)
from thermark.cli import RunConfig
from thermark.datasets import two_zone_benchmark_dir, seven_day_log_csv
from thermark.occupancy import estimate_steps
from thermark.strategy import compare_strategies
from thermark.thermal import RCNetwork, Zone
from test_prism import GOLDEN

ZONES = ("zone1", "zone2")


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")
    return ok


def bench_thermal_model():
    from thermark import DiscreteThermalModel

    return DiscreteThermalModel(
        a=BENCH_A.copy(), b=np.diag([0.7299, 1.0]), delta=1.0,
        initial_temps=BENCH_T0.copy(), zone_ids=ZONES,
    )


def bench_gains():
    return {z: ZoneGains(0.7, 1.5) for z in ZONES}


class TestCriterion1Occupancy:
    def test_morning_estimate(self):
        start = time.perf_counter()
        dataset = parse_occupancy_csv(seven_day_log_csv().read_text())
        p = estimate_steps([dataset.grid])[0][0, 0].item()
        elapsed = time.perf_counter() - start
        ok = (
            abs(p - 3 / 7) <= 1e-15
            and f"{p:.2f}" == "0.43"
            and elapsed < 0.1
        )
        assert report("1 occupancy estimation", ok,
                      f"p_vf={p:.6f}, {elapsed * 1000:.1f} ms")


class TestCriterion2Cost:
    def test_reference_cost_table(self):
        start = time.perf_counter()
        tariff = table2_tariff()
        reports = {
            name: strategy_cost(builtin_strategy(name, ZONES), tariff)
            for name in ("S1", "S2", "S3", "S4", "S5", "S6")
        }
        totals = {name: r.total_cost_minor for name, r in reports.items()}
        comparison = compare_strategies(
            [builtin_strategy("S2", ZONES), builtin_strategy("S6", ZONES)], tariff
        )
        ratio = {r.strategy: r.cost_ratio for r in comparison.rows}["S2"]
        elapsed = time.perf_counter() - start
        ok = (
            totals == {"S1": 0, "S2": 270, "S3": 135, "S4": 135, "S5": 130, "S6": 40}
            and ratio == 6.75
            and any("13.5" in n for n in reports["S6"].notes)
            and any("off-peak" in n for n in reports["S5"].notes)
            and elapsed < 0.1
        )
        assert report("2 cost reproduction", ok,
                      f"totals={totals}, S2/S6 ratio={ratio}, {elapsed * 1000:.1f} ms")


class TestCriterion3EngineOracle:
    def test_hundred_random_instances(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20_240_817)
        thermal = bench_thermal_model()
        gains = bench_gains()
        worst = 0.0
        for _ in range(100):
            chains = []
            for z in ZONES:
                schedule = random_schedule(rng, 9)
                heating = [bool(rng.integers(0, 2)) for _ in range(10)]
                chains.append(unroll_zone(
                    schedule, heating, 9, zone_id=z,
                    initial_occupied=bool(rng.integers(0, 2)),
                ))
            model = compose(chains)
            values = composed_values(model, thermal, gains, range(1, 10))
            for theta in range(1, 10):
                rewarded = assign_rewards(model, thermal, gains, theta)
                engine = dict(zip(model.zone_ids, values[theta - 1].tolist()))
                oracle = brute_force_expected_temperature(rewarded, theta)
                for z in ZONES:
                    worst = max(worst, abs(engine[z] - oracle[z]))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9 and elapsed < 60.0
        assert report("3 engine/oracle equivalence", ok,
                      f"max |diff|={worst:.2e}, {elapsed:.1f} s")


class TestCriterion4ClosedForms:
    def test_zero_gain_and_selective_preheat(self):
        thermal = bench_thermal_model()
        model = compose([
            unroll_zone(make_schedule(0.4), [False] * 10, 9, zone_id=z) for z in ZONES
        ])
        zero = {z: ZoneGains(0.0, 0.0) for z in ZONES}
        worst = 0.0
        values = composed_values(model, thermal, zero, range(1, 10))
        for theta in range(1, 10):
            temps = dict(zip(model.zone_ids, values[theta - 1].tolist()))
            closed = matrix_power(BENCH_A, theta) @ BENCH_T0
            worst = max(worst, abs(temps["zone1"] - closed[0]),
                        abs(temps["zone2"] - closed[1]))

        heat = [True, True] + [False] * 8
        s6_model = compose([
            unroll_zone(make_schedule(0.4), heat, 9, zone_id=z) for z in ZONES
        ])
        temps = dict(zip(s6_model.zone_ids, composed_values(
            s6_model, thermal, bench_gains(), [1])[0].tolist()))
        s6_ok = (abs(temps["zone1"] - 18.9002) <= 1e-3
                 and abs(temps["zone2"] - 18.1014) <= 1e-3)
        ok = worst <= 1e-12 and s6_ok
        assert report("4 closed-form checks", ok,
                      f"zero-gain max err={worst:.2e}, theta1={temps}")


@pytest.fixture(scope="module")
def bundled_trajectories():
    """Trajectories of every builtin strategy on the pinned dataset."""
    start = time.perf_counter()
    d = two_zone_benchmark_dir()
    trajectories = {}
    for name in ("S1", "S2", "S3", "S4", "S5", "S6"):
        config = RunConfig(
            building=d / "building.json",
            occupancy_paths={
                "zone1": d / "occupancy_zone1.csv",
                "zone2": d / "occupancy_zone2.csv",
            },
            strategies=(name,),
        )
        _, thermal, model, _ = build_model(config)
        trajectories[name] = SimpleNamespace(thetas=tuple(range(1, 10)), values=composed_values(
            model, thermal, bench_gains(), range(1, 10)))
    elapsed = time.perf_counter() - start
    return trajectories, elapsed


class TestCriterion5Qualitative:
    def test_5a_no_heating_is_pointwise_coolest(self, bundled_trajectories):
        trajectories, elapsed = bundled_trajectories
        s1 = trajectories["S1"].values
        ok = all(
            np.all(s1 <= trajectories[name].values + 1e-12)
            for name in ("S2", "S3", "S4", "S5", "S6")
        ) and elapsed < 5.0
        assert report("5a no-heating lower envelope", ok, f"{elapsed:.2f} s")

    def test_5b_always_on_is_pointwise_hottest(self, bundled_trajectories):
        trajectories, elapsed = bundled_trajectories
        s2 = trajectories["S2"].values
        offenders = {}
        for name in ("S1", "S3", "S4", "S5", "S6"):
            gap = trajectories[name].values - s2
            if np.any(gap > 1e-12):
                where = np.argwhere(gap > 1e-12)
                offenders[name] = [
                    (int(trajectories[name].thetas[i]), ZONES[j], float(gap[i, j]))
                    for i, j in where
                ]
        ok = not offenders and elapsed < 5.0
        assert report("5b always-on upper envelope", ok,
                      f"violations={offenders}" if offenders else f"{elapsed:.2f} s"), (
            "always-on (S2) starts at hour 9 by the cost-table accounting while "
            "selective (S6) pre-heats at hour 8; with gains read from the previous "
            f"step, S6 leads at the first evaluation points: {offenders}"
        )

    def test_5c_threshold_crossings(self, bundled_trajectories):
        trajectories, elapsed = bundled_trajectories
        s1_max = float(trajectories["S1"].values.max())
        s2_max = float(trajectories["S2"].values.max())
        ok = s2_max > 22.0 and s1_max < 20.0 and elapsed < 5.0
        assert report("5c comfort threshold crossings", ok,
                      f"S1 max={s1_max:.2f} < 20, S2 max={s2_max:.2f} > 22")


class TestCriterion6Structure:
    def test_counts_and_invariants(self):
        from thermark import DiscreteThermalModel

        start = time.perf_counter()
        rng = np.random.default_rng(4242)
        thermal_by_n = {
            1: DiscreteThermalModel(
                a=np.array([[1.0]]), b=np.array([[1.0]]), delta=1.0,
                initial_temps=np.array([18.0]), zone_ids=("zone1",),
            ),
            2: bench_thermal_model(),
        }

        model = compose([
            unroll_zone(make_schedule(0.4), [False] * 10, 9, zone_id=z) for z in ZONES
        ])
        counts_ok = len(model.states) == 1 + 4 * 9 + 2 - 1 == 38

        for n in (1, 2, 3):
            for horizon in range(1, 13):
                chains = [
                    unroll_zone(random_schedule(rng, horizon),
                                [False] * (horizon + 1), horizon, zone_id=f"z{i}")
                    for i in range(n)
                ]
                counts_ok &= len(compose(chains).states) == 1 + (2 ** n) * horizon + 1

        invariants_ok = True
        for _ in range(1000):
            n = int(rng.integers(1, 3))
            horizon = int(rng.integers(1, 10))
            chains = [
                unroll_zone(
                    random_schedule(rng, horizon),
                    [bool(rng.integers(0, 2)) for _ in range(horizon + 1)],
                    horizon,
                    zone_id=z,
                    initial_occupied=bool(rng.integers(0, 2)),
                )
                for z in ZONES[:n]
            ]
            model = compose(chains)
            sums: dict[int, float] = {}
            for source, _, probability, _ in model.edges():
                sums[source] = sums.get(source, 0.0) + probability
            invariants_ok &= all(abs(v - 1.0) <= 1e-12 for v in sums.values())
            gains = {c.zone_id: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                     for c in chains}
            theta = int(rng.integers(1, horizon + 1))
            rewarded = assign_rewards(model, thermal_by_n[n], gains, theta)
            invariants_ok &= all(np.all(vec >= 0.0) for vec in rewarded.rewards.values())

        elapsed = time.perf_counter() - start
        ok = counts_ok and invariants_ok and elapsed < 30.0
        assert report("6 structural invariants", ok, f"{elapsed:.1f} s")


class TestCriterion7Discretization:
    def test_derivation_and_documented_mismatch(self):
        network = RCNetwork(
            zones=(
                Zone(id="zone1", capacitance=1.37, resistance=1.7429, initial_temp=18.0),
                Zone(id="zone2", capacitance=1.0, resistance=5.5897, initial_temp=16.0),
            ),
            edges=(("zone1", "zone2"), ("zone2", "zone1")),
        )
        ss = build_state_space(network)
        model = discretize_forward_euler(ss, 1.0, initial_temps=BENCH_T0)
        a_hat_ok = np.allclose(ss.a_hat, [[-0.4188, 0.4188], [0.1789, -0.1789]], atol=5e-5)
        b_hat_ok = np.allclose(ss.b_hat, np.diag([0.7299, 1.0]), atol=5e-5)
        a_ok = np.allclose(model.a, [[0.5812, 0.4188], [0.1789, 0.8211]], atol=5e-5)
        b_ok = np.allclose(model.b, np.diag([0.7299, 1.0]), atol=5e-5)
        # the derived matrix is asserted, and it genuinely differs from the
        # explicit benchmark matrix shipped with the bundled example
        differs = np.max(np.abs(model.a - BENCH_A)) > 0.1
        ok = a_hat_ok and b_hat_ok and a_ok and b_ok and differs
        assert report("7 discretization", ok,
                      f"derived A row0={model.a[0].round(4).tolist()}")


class TestCriterion8PrismExport:
    def test_golden_files(self):
        from test_prism import pinned_rewarded

        rewarded = pinned_rewarded()
        chains, thermal = rewarded.model.chains, rewarded.thermal
        table = step_reward_table(chains, thermal, rewarded.gains, [9])
        model_text = render_models(chains, table, [9], thermal.delta, "two_zone_benchmark")[0]
        properties_text = export_properties(range(1, 10), rewarded.model.zone_ids)
        ok = (
            model_text == (GOLDEN / "two_zone_benchmark.pm").read_text()
            and properties_text == (GOLDEN / "two_zone_benchmark.props").read_text()
        )
        assert report("8 PRISM export golden", ok)

    def test_prism_integration_if_available(self, tmp_path):
        if shutil.which("prism") is None:
            report("8 PRISM integration", True, "skipped: prism not on PATH")
            pytest.skip("PRISM not installed")
        from test_prism import TestPrismIntegration

        TestPrismIntegration().test_prism_agrees_with_engine(tmp_path)
        report("8 PRISM integration", True)
