"""Tests for chain unrolling, composition and reward assignment."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import BENCH_A, BENCH_T0, make_schedule, random_schedule
from thermark import (
    DiscreteThermalModel,
    ValidationError,
    ZoneGains,
    assign_rewards,
    compose,
    direct_expected_temperatures,
    expected_temperature,
    temperature_trajectory,
    unroll_zone,
)
from thermark.analysis import state_probabilities
from thermark.markov import SINK_LABEL, dump_model
from thermark.thermal import matrix_power


def bench_gains():
    return {"zone1": ZoneGains(0.7, 1.5), "zone2": ZoneGains(0.7, 1.5)}


def two_chains(schedule=None, heat1=None, heat2=None, horizon=9):
    schedule = schedule or make_schedule(p_vf=0.4, p_ff=0.7)
    heat1 = heat1 if heat1 is not None else [False] * (horizon + 1)
    heat2 = heat2 if heat2 is not None else [False] * (horizon + 1)
    c1 = unroll_zone(schedule, heat1, horizon, zone_id="zone1")
    c2 = unroll_zone(schedule, heat2, horizon, zone_id="zone2")
    return c1, c2


class TestUnroll:
    def test_state_and_transition_counts_horizon_nine(self):
        chain, _ = two_chains()
        assert len(chain.states) == 1 + 2 * 9 + 1 == 20
        # initial fan-out, four per interior boundary, two into the sink, self-loop
        assert len(chain.transitions) == 2 + 4 * 8 + 2 + 1 == 37

    def test_smallest_horizon_structure(self):
        schedule = make_schedule(p_vf=[0.3], p_ff=[0.8])
        chain = unroll_zone(schedule, [False, False], horizon=1, zone_id="z")
        assert [s.index for s in chain.states] == [0, 1, 2, 3]
        outgoing = {t.source: [] for t in chain.transitions}
        for t in chain.transitions:
            outgoing[t.source].append(t)
        assert {(t.target, t.probability) for t in outgoing[0]} == {(1, 0.3), (2, 0.7)}
        assert [(t.target, t.probability) for t in outgoing[1]] == [(3, 1.0)]
        assert [(t.target, t.probability) for t in outgoing[2]] == [(3, 1.0)]
        assert [(t.target, t.probability, t.label) for t in outgoing[3]] == [
            (3, 1.0, SINK_LABEL)
        ]

    def test_parity_convention(self):
        chain, _ = two_chains()
        for s in chain.states:
            if 1 <= s.step <= chain.horizon:
                assert s.occupied == (s.index % 2 == 1)

    def test_outgoing_probabilities_sum_to_one(self):
        chain, _ = two_chains()
        sums = {}
        for t in chain.transitions:
            sums[t.source] = sums.get(t.source, 0.0) + t.probability
        assert all(abs(v - 1.0) <= 1e-12 for v in sums.values())

    def test_transition_labels_follow_steps(self):
        chain, _ = two_chains()
        by_state = {s.index: s for s in chain.states}
        for t in chain.transitions:
            src = by_state[t.source]
            if t.label == SINK_LABEL:
                assert src.is_sink
            else:
                assert t.label == f"t{src.step + 1}"
                assert by_state[t.target].step == src.step + 1

    def test_deterministic_occupancy_single_spine(self):
        schedule = make_schedule(p_vf=1.0, p_ff=1.0)
        chain = unroll_zone(schedule, [False] * 10, 9, zone_id="z")
        prob = state_probabilities(compose([chain]))
        for s in compose([chain]).states:
            if s.is_sink or s.step == 0:
                continue
            expected = 1.0 if s.occupied == (True,) else 0.0
            assert prob[s.index] == pytest.approx(expected, abs=0)

    def test_short_schedule_rejected(self):
        schedule = make_schedule(p_vf=[0.5, 0.5])
        with pytest.raises(ValidationError, match="horizon"):
            unroll_zone(schedule, [False] * 10, 9, zone_id="z")

    def test_short_heating_rejected(self):
        schedule = make_schedule(p_vf=0.4)
        with pytest.raises(ValidationError, match="heating"):
            unroll_zone(schedule, [False] * 3, 9, zone_id="z")


class TestCompose:
    def test_two_zone_reachable_count(self):
        model = compose(two_chains())
        assert len(model.states) == 1 + 4 * 9 + 1 == 38

    def test_count_formula_exhaustive(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            for horizon in range(1, 13):
                chains = [
                    unroll_zone(random_schedule(rng, horizon), [False] * (horizon + 1),
                                horizon, zone_id=f"z{i}")
                    for i in range(n)
                ]
                model = compose(chains)
                assert len(model.states) == 1 + (2 ** n) * horizon + 1

    def test_single_chain_composition_is_isomorphic(self):
        chain, _ = two_chains()
        model = compose([chain])
        assert len(model.states) == len(chain.states)
        chain_sums = {}
        for t in chain.transitions:
            chain_sums.setdefault(t.source, []).append(t.probability)
        model_sums = {}
        for t in model.transitions:
            model_sums.setdefault(t.source, []).append(t.probability)
        for src, probs in chain_sums.items():
            assert sorted(model_sums[src]) == pytest.approx(sorted(probs))

    def test_deterministic_chains_single_path(self):
        schedule = make_schedule(p_vf=1.0, p_ff=1.0)
        chains = [
            unroll_zone(schedule, [False] * 10, 9, zone_id=f"z{i}") for i in range(2)
        ]
        model = compose(chains)
        prob = state_probabilities(model)
        for step in range(1, 10):
            step_probs = sorted(prob[s.index] for s in model.states_at_step(step))
            assert step_probs == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=0)

    def test_outgoing_probabilities_sum_to_one(self):
        rng = np.random.default_rng(13)
        chains = [
            unroll_zone(random_schedule(rng, 9), [False] * 10, 9, zone_id=f"z{i}")
            for i in range(3)
        ]
        model = compose(chains)
        sums = {}
        for t in model.transitions:
            sums[t.source] = sums.get(t.source, 0.0) + t.probability
        assert all(abs(v - 1.0) <= 1e-12 for v in sums.values())

    def test_mismatched_horizons_rejected(self):
        c1 = unroll_zone(make_schedule(p_vf=0.4), [False] * 10, 9, zone_id="a")
        c2 = unroll_zone(make_schedule(p_vf=0.4), [False] * 9, 8, zone_id="b")
        with pytest.raises(ValidationError, match="horizon"):
            compose([c1, c2])

    def test_duplicate_ids_rejected(self):
        c1, _ = two_chains()
        with pytest.raises(ValidationError, match="duplicate"):
            compose([c1, c1])


def random_chains(rng, n, horizon):
    return [
        unroll_zone(random_schedule(rng, horizon),
                    [bool(rng.integers(0, 2)) for _ in range(horizon + 1)],
                    horizon, zone_id=f"z{i}", initial_occupied=bool(rng.integers(0, 2)))
        for i in range(n)
    ]


def product_edges(chains):
    """Every product edge from the zones' raw probabilities, one entry at a time."""
    horizon = chains[0].horizon
    combos = list(itertools.product((True, False), repeat=len(chains)))
    sink = 1 + len(combos) * horizon

    def index(step, combo):
        return 1 + (step - 1) * len(combos) + combos.index(combo)

    def prob(k, source, target):
        p = 1.0
        for chain, occ_from, occ_to in zip(chains, source, target):
            p_occ = chain.occ_given_occupied[k] if occ_from else chain.occ_given_empty[k]
            p *= p_occ if occ_to else 1.0 - p_occ
        return p

    start = tuple(c.initial_occupied for c in chains)
    edges = [(0, index(1, t), prob(0, start, t), "t1") for t in combos]
    for k in range(1, horizon):
        edges += [(index(k, s), index(k + 1, t), prob(k, s, t), f"t{k + 1}")
                  for s in combos for t in combos]
    edges += [(index(horizon, s), sink, 1.0, f"t{horizon + 1}") for s in combos]
    return edges + [(sink, sink, 1.0, SINK_LABEL)]


class TestLayers:
    def test_transitions_view_equals_per_entry_products(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n, horizon = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            chains = random_chains(rng, n, horizon)
            model = compose(chains)
            assert len(model.layers) == horizon
            assert all(layer.shape == (2 ** n, 2 ** n) for layer in model.layers)
            edges = [(t.source, t.target, t.probability, t.label) for t in model.transitions]
            assert edges == product_edges(chains)

    def test_eight_zones_mass_and_direct_recursion(self):
        rng = np.random.default_rng(88)
        n, horizon = 8, 9
        chains = random_chains(rng, n, horizon)
        model = compose(chains)
        assert len(model.states) == 1 + 256 * horizon + 1
        for layer in model.layers:
            assert layer.shape == (256, 256)
            assert np.max(np.abs(layer.sum(axis=1) - 1.0)) <= 1e-12

        zone_ids = tuple(c.zone_id for c in chains)
        raw = rng.uniform(0.1, 1.0, size=(n, n))
        thermal = DiscreteThermalModel(
            a=raw / raw.sum(axis=1, keepdims=True), b=np.eye(n), delta=1.0,
            initial_temps=rng.uniform(10, 25, size=n), zone_ids=zone_ids, derived=False,
        )
        gains = {z: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                 for z in zone_ids}
        thetas = range(1, horizon + 1)
        trajectory = temperature_trajectory(model, thermal, gains, thetas)
        heat = np.array([model.heating_at(k) for k in range(horizon + 1)], dtype=float)
        direct = direct_expected_temperatures(thermal, gains, model.occupied_marginals(),
                                              heat, thetas)
        assert np.max(np.abs(trajectory.values - direct)) <= 1e-12


class TestAssignRewards:
    def test_theta_three_reward_pattern(self, bench_thermal):
        heat = [True] * 10
        c1, c2 = two_chains(heat1=heat, heat2=heat)
        model = compose([c1, c2])
        theta = 3
        rewarded = assign_rewards(model, bench_thermal, bench_gains(), theta)
        marginals = model.occupied_marginals()
        for zi, zid in enumerate(("zone1", "zone2")):
            row = matrix_power(BENCH_A, theta)[zi]
            assert rewarded.reward(zid, 0) == pytest.approx(float(row @ BENCH_T0), abs=1e-12)
            for s in model.states:
                if s.is_sink or s.step == 0:
                    continue
                if s.step > theta:
                    assert rewarded.reward(zid, s.index) == 0.0
                else:
                    gain = np.array([
                        0.7 * marginals[s.step - 1, j] + 1.5
                        for j in range(2)
                    ])
                    weight = matrix_power(BENCH_A, theta - s.step)[zi]
                    assert rewarded.reward(zid, s.index) == pytest.approx(
                        float(weight @ gain), abs=1e-12
                    )

    def test_selective_heating_theta_one_values(self, bench_thermal):
        heat = [True, True] + [False] * 8
        c1, c2 = two_chains(heat1=heat, heat2=heat)
        model = compose([c1, c2])
        rewarded = assign_rewards(model, bench_thermal, bench_gains(), 1)
        assert rewarded.reward("zone1", 0) == pytest.approx(17.4002, abs=1e-4)
        for s in model.states_at_step(1):
            assert rewarded.reward("zone1", s.index) == pytest.approx(1.5, abs=1e-12)
        for step in range(2, 10):
            for s in model.states_at_step(step):
                assert rewarded.reward("zone1", s.index) == 0.0

    def test_zero_gains(self, bench_thermal):
        model = compose(two_chains())
        gains = {"zone1": ZoneGains(0.0, 0.0), "zone2": ZoneGains(0.0, 0.0)}
        theta = 5
        rewarded = assign_rewards(model, bench_thermal, gains, theta)
        for zi, zid in enumerate(("zone1", "zone2")):
            expected = float(matrix_power(BENCH_A, theta)[zi] @ BENCH_T0)
            assert rewarded.reward(zid, 0) == pytest.approx(expected, abs=1e-12)
            assert all(
                rewarded.reward(zid, s.index) == 0.0
                for s in model.states if s.index != 0
            )

    def test_sink_always_zero(self, bench_thermal):
        model = compose(two_chains(heat1=[True] * 10, heat2=[True] * 10))
        for theta in (1, 5, 9):
            rewarded = assign_rewards(model, bench_thermal, bench_gains(), theta)
            sink = model.states[-1]
            assert sink.is_sink
            assert rewarded.reward("zone1", sink.index) == 0.0

    def test_theta_out_of_range(self, bench_thermal):
        model = compose(two_chains())
        with pytest.raises(ValidationError, match="theta"):
            assign_rewards(model, bench_thermal, bench_gains(), 0)
        with pytest.raises(ValidationError, match="theta"):
            assign_rewards(model, bench_thermal, bench_gains(), 10)

    def test_gains_required_for_every_zone(self, bench_thermal):
        # the coupled gain vector reads every zone
        model = compose(two_chains())
        partial = {"zone1": ZoneGains(0.7, 1.5)}
        with pytest.raises(ValidationError, match="zone2"):
            assign_rewards(model, bench_thermal, partial, 2)

    def test_rewards_nonnegative_for_nonnegative_inputs(self, bench_thermal):
        rng = np.random.default_rng(31)
        for _ in range(20):
            horizon = int(rng.integers(1, 10))
            chains = [
                unroll_zone(random_schedule(rng, horizon),
                            [bool(rng.integers(0, 2)) for _ in range(horizon + 1)],
                            horizon, zone_id=zid)
                for zid in ("zone1", "zone2")
            ]
            model = compose(chains)
            gains = {zid: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                     for zid in ("zone1", "zone2")}
            theta = int(rng.integers(1, horizon + 1))
            rewarded = assign_rewards(model, bench_thermal, gains, theta)
            for vec in rewarded.rewards.values():
                assert np.all(vec >= 0.0)

    def test_reward_telescoping_across_theta(self, bench_thermal):
        # with occupant gain off and heating only before theta, later steps add
        # nothing, so E at theta' is row(A^(theta'-theta)) @ E at theta
        theta, theta_prime = 4, 7
        heat = [k < theta for k in range(10)]
        c1, c2 = two_chains(heat1=heat, heat2=heat)
        model = compose([c1, c2])
        gains = {"zone1": ZoneGains(0.0, 1.5), "zone2": ZoneGains(0.0, 0.9)}
        e_theta = expected_temperature(assign_rewards(model, bench_thermal, gains, theta), theta)
        e_prime = expected_temperature(
            assign_rewards(model, bench_thermal, gains, theta_prime), theta_prime
        )
        e_vec = np.array([e_theta["zone1"], e_theta["zone2"]])
        propagated = matrix_power(BENCH_A, theta_prime - theta) @ e_vec
        assert e_prime["zone1"] == pytest.approx(propagated[0], abs=1e-12)
        assert e_prime["zone2"] == pytest.approx(propagated[1], abs=1e-12)

    def test_zone_order_invariance(self, bench_thermal):
        schedule_a = make_schedule(p_vf=0.4, p_ff=0.7)
        schedule_b = make_schedule(p_vf=0.2, p_ff=0.9)
        heat_a = [True, False] * 5
        heat_b = [False, True] * 5
        c1 = unroll_zone(schedule_a, heat_a, 9, zone_id="zone1")
        c2 = unroll_zone(schedule_b, heat_b, 9, zone_id="zone2")
        for theta in (1, 4, 9):
            fwd = expected_temperature(
                assign_rewards(compose([c1, c2]), bench_thermal, bench_gains(), theta), theta
            )
            rev = expected_temperature(
                assign_rewards(compose([c2, c1]), bench_thermal, bench_gains(), theta), theta
            )
            assert fwd["zone1"] == pytest.approx(rev["zone1"], abs=1e-12)
            assert fwd["zone2"] == pytest.approx(rev["zone2"], abs=1e-12)


class TestDump:
    def test_dump_shape(self, bench_thermal):
        model = compose(two_chains())
        rewarded = assign_rewards(model, bench_thermal, bench_gains(), 2)
        dump = dump_model(rewarded)
        assert dump["zones"] == ["zone1", "zone2"]
        assert len(dump["states"]) == 38
        assert len(dump["transitions"]) == len(model.transitions)
        assert dump["states"][0]["rewards"]["zone1"] == rewarded.reward("zone1", 0)
