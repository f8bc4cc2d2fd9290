"""Tests for chain unrolling, composition and reward assignment."""

from __future__ import annotations

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import (BENCH_A, BENCH_T0, chain_marginals, composed_values, dense_layers,
                      forward_temps, make_schedule, matrix_power, random_schedule)
from thermark import (
    DiscreteThermalModel,
    ValidationError,
    ZoneGains,
    assign_rewards,
    compose,
    direct_expected_temperatures,
    step_reward_table,
    unroll_zone,
)
from thermark.markov import SINK_LABEL, dump_model, occupied_marginals


def bench_gains():
    return {"zone1": ZoneGains(0.7, 1.5), "zone2": ZoneGains(0.7, 1.5)}


def two_chains(schedule=None, heat1=None, heat2=None, horizon=9):
    schedule = schedule or make_schedule(p_vf=0.4, p_ff=0.7)
    heat1 = heat1 if heat1 is not None else [False] * (horizon + 1)
    heat2 = heat2 if heat2 is not None else [False] * (horizon + 1)
    c1 = unroll_zone(schedule, heat1, horizon, zone_id="zone1")
    c2 = unroll_zone(schedule, heat2, horizon, zone_id="zone2")
    return c1, c2


def random_rewarded_zones(rng, n, horizon=None):
    """A random n-zone thermal model with rows of A summing below 1, one
    chain per zone in a shuffled order, and random gains, for a random
    horizon below 24 unless one is given."""
    horizon = horizon or int(rng.integers(1, 24))
    zone_ids = tuple(f"z{i}" for i in range(n))
    a = rng.random((n, n))
    a *= rng.uniform(0.5, 1.0) / a.sum(axis=1, keepdims=True)
    thermal = DiscreteThermalModel(a=a, b=np.eye(n), delta=1.0,
                                   initial_temps=rng.uniform(10, 25, n), zone_ids=zone_ids)
    chains = [unroll_zone(random_schedule(rng, horizon), rng.random(horizon + 1) < 0.5,
                          horizon, zone_id=str(zid), initial_occupied=bool(rng.integers(0, 2)))
              for zid in rng.permutation(zone_ids)]
    gains = {zid: ZoneGains(*rng.uniform(0, 3, 2).tolist()) for zid in zone_ids}
    return thermal, chains, gains, horizon


class TestUnroll:
    # a zone chain holds only its per-step probabilities; its states and edges
    # are those of the single-zone product
    def test_state_and_transition_counts_horizon_nine(self):
        chain, _ = two_chains()
        model = compose([chain])
        assert len(model.states) == 1 + 2 * 9 + 1 == 20
        # initial fan-out, four per interior boundary, two into the sink, self-loop
        assert len(list(model.edges())) == 2 + 4 * 8 + 2 + 1 == 37

    def test_smallest_horizon_structure(self):
        schedule = make_schedule(p_vf=[0.3], p_ff=[0.8])
        chain = unroll_zone(schedule, [False, False], horizon=1, zone_id="z")
        model = compose([chain])
        assert [s.index for s in model.states] == [0, 1, 2, 3]
        assert list(model.edges()) == [
            (0, 1, 0.3, "t1"), (0, 2, 0.7, "t1"), (1, 3, 1.0, "t2"), (2, 3, 1.0, "t2"),
            (3, 3, 1.0, SINK_LABEL),
        ]

    def test_parity_convention(self):
        chain, _ = two_chains()
        for s in compose([chain]).states:
            if 1 <= s.step <= chain.horizon:
                assert s.occupied == (s.index % 2 == 1,)

    def test_outgoing_probabilities_sum_to_one(self):
        chain, _ = two_chains()
        for k in range(chain.horizon):
            assert np.all(np.abs(chain.step_matrix(k).sum(axis=1) - 1.0) <= 1e-12)

    def test_transition_labels_follow_steps(self):
        chain, _ = two_chains()
        model = compose([chain])
        for source, target, _, label in model.edges():
            src = model.states[source]
            if label == SINK_LABEL:
                assert src.occupied is None
            else:
                assert label == f"t{src.step + 1}"
                assert model.states[target].step == src.step + 1

    def test_deterministic_occupancy_single_spine(self):
        schedule = make_schedule(p_vf=1.0, p_ff=1.0)
        model = compose([unroll_zone(schedule, [False] * 10, 9, zone_id="z")])
        for step, p in enumerate(step_masses(model), start=1):
            states = [s for s in model.states if s.step == step]
            assert p.tolist() == [1.0 if s.occupied == (True,) else 0.0 for s in states]

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

    def test_deterministic_chains_single_path(self):
        schedule = make_schedule(p_vf=1.0, p_ff=1.0)
        chains = [
            unroll_zone(schedule, [False] * 10, 9, zone_id=f"z{i}") for i in range(2)
        ]
        masses = step_masses(compose(chains))
        assert len(masses) == 9
        for p in masses:
            assert sorted(p.tolist()) == [0.0, 0.0, 0.0, 1.0]

    def test_outgoing_probabilities_sum_to_one(self):
        rng = np.random.default_rng(13)
        chains = [
            unroll_zone(random_schedule(rng, 9), [False] * 10, 9, zone_id=f"z{i}")
            for i in range(3)
        ]
        model = compose(chains)
        sums = {}
        for source, _, probability, _ in model.edges():
            sums[source] = sums.get(source, 0.0) + probability
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

    def test_holds_only_the_zone_factors(self):
        # a dense layer per step would be 23 * 4^10 floats, 193 MB
        chains = random_chains(np.random.default_rng(10), 10, 23)
        tracemalloc.start()
        try:
            model = compose(chains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert model.factors.shape == (23, 10, 2, 2)
        for k in (0, 22):
            assert [f.tolist() for f in model.factors[k]] == [
                c.step_matrix(k).tolist() for c in chains]


def step_masses(model):
    """P(X_k = s) over the states of each step k = 1..K, propagated from
    the initial state through the dense layers."""
    combos = list(itertools.product((True, False), repeat=model.zone_count))
    p = np.zeros(len(combos))
    p[combos.index(model.states[0].occupied)] = 1.0
    masses = []
    for layer in dense_layers(model):
        p = p @ layer
        masses.append(p)
    return masses


def random_chains(rng, n, horizon):
    return [
        unroll_zone(random_schedule(rng, horizon),
                    [bool(rng.integers(0, 2)) for _ in range(horizon + 1)],
                    horizon, zone_id=f"z{i}", initial_occupied=bool(rng.integers(0, 2)))
        for i in range(n)
    ]


def loop_marginals(chain):
    """One chain's occupancy marginals by the per-step loop, one float at a time."""
    m = [float(chain.initial_occupied)]
    for p_vf, p_ff in zip(chain.occ_given_empty, chain.occ_given_occupied):
        m.append(m[-1] * p_ff + (1.0 - m[-1]) * p_vf)
    return m


class TestMarginals:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_zones_at_once_equal_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        chains = random_chains(rng, int(rng.integers(1, 40)), int(rng.integers(1, 30)))
        marginals = occupied_marginals([c.occ_given_empty for c in chains],
                                       [c.occ_given_occupied for c in chains],
                                       [c.initial_occupied for c in chains])
        assert marginals.shape == (len(chains), chains[0].horizon + 1)
        assert np.array_equal(marginals, [loop_marginals(c) for c in chains])


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
    def test_edges_equal_per_entry_products(self):
        rng = np.random.default_rng(41)
        # one fixed single zone: its fan-out, the sink edges and the t_sink loop
        single = unroll_zone(make_schedule(p_vf=[0.3, 0.6], p_ff=[0.8, 0.1]), [False] * 3, 2,
                             zone_id="z", initial_occupied=True)
        instances = [[single]] + [random_chains(rng, int(rng.integers(1, 5)),
                                                int(rng.integers(1, 6))) for _ in range(40)]
        for chains in instances:
            n, horizon = len(chains), chains[0].horizon
            model = compose(chains)
            assert model.factors.shape == (horizon, n, 2, 2)
            assert list(model.edges()) == product_edges(chains)

    def test_eight_zones_mass_and_direct_recursion(self):
        rng = np.random.default_rng(88)
        n, horizon = 8, 9
        chains = random_chains(rng, n, horizon)
        model = compose(chains)
        assert len(model.states) == 1 + 256 * horizon + 1
        for layer, p in zip(dense_layers(model), step_masses(model)):
            assert layer.shape == (256, 256)
            assert np.max(np.abs(layer.sum(axis=1) - 1.0)) <= 1e-12
            assert abs(p.sum() - 1.0) <= 1e-12

        zone_ids = tuple(c.zone_id for c in chains)
        raw = rng.uniform(0.1, 1.0, size=(n, n))
        thermal = DiscreteThermalModel(
            a=raw / raw.sum(axis=1, keepdims=True), b=np.eye(n), delta=1.0,
            initial_temps=rng.uniform(10, 25, size=n), zone_ids=zone_ids,
        )
        gains = {z: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                 for z in zone_ids}
        thetas = range(1, horizon + 1)
        trajectory = composed_values(model, thermal, gains, thetas)
        heat = np.array([model.heating_at(k) for k in range(horizon + 1)], dtype=float)
        marginals = chain_marginals(chains).T
        direct = direct_expected_temperatures(thermal, gains, marginals, heat, thetas)
        assert np.max(np.abs(trajectory - direct)) <= 1e-12


class TestAssignRewards:
    def test_theta_three_reward_pattern(self, bench_thermal):
        heat = [True] * 10
        c1, c2 = two_chains(heat1=heat, heat2=heat)
        model = compose([c1, c2])
        theta = 3
        rewarded = assign_rewards(model, bench_thermal, bench_gains(), theta)
        marginals = chain_marginals([c1, c2]).T
        for zi, zid in enumerate(("zone1", "zone2")):
            per_step = rewarded.rewards[zid]
            assert per_step.shape == (1 + 9 + 1,)
            row = matrix_power(BENCH_A, theta)[zi]
            assert per_step[0] == pytest.approx(float(row @ BENCH_T0), abs=1e-12)
            for step in range(1, 10):
                if step > theta:
                    assert per_step[step] == 0.0
                else:
                    gain = 0.7 * marginals[step - 1] + 1.5
                    weight = matrix_power(BENCH_A, theta - step)[zi]
                    assert per_step[step] == pytest.approx(float(weight @ gain), abs=1e-12)

    def test_selective_heating_theta_one_values(self, bench_thermal):
        heat = [True, True] + [False] * 8
        c1, c2 = two_chains(heat1=heat, heat2=heat)
        model = compose([c1, c2])
        per_step = assign_rewards(model, bench_thermal, bench_gains(), 1).rewards["zone1"]
        assert per_step[0] == pytest.approx(17.4002, abs=1e-4)
        assert per_step[1] == pytest.approx(1.5, abs=1e-12)
        assert per_step[2:].tolist() == [0.0] * 9

    def test_zero_gains(self, bench_thermal):
        model = compose(two_chains())
        gains = {"zone1": ZoneGains(0.0, 0.0), "zone2": ZoneGains(0.0, 0.0)}
        theta = 5
        rewarded = assign_rewards(model, bench_thermal, gains, theta)
        for zi, zid in enumerate(("zone1", "zone2")):
            expected = float(matrix_power(BENCH_A, theta)[zi] @ BENCH_T0)
            assert rewarded.rewards[zid][0] == pytest.approx(expected, abs=1e-12)
            assert rewarded.rewards[zid][1:].tolist() == [0.0] * 10

    def test_sink_always_zero(self, bench_thermal):
        model = compose(two_chains(heat1=[True] * 10, heat2=[True] * 10))
        for theta in (1, 5, 9):
            rewarded = assign_rewards(model, bench_thermal, bench_gains(), theta)
            sink = model.states[-1]
            assert sink.occupied is None
            assert rewarded.rewards["zone1"][sink.step] == 0.0

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
        e_theta = forward_temps(model, bench_thermal, gains, theta)
        e_prime = forward_temps(model, bench_thermal, gains, theta_prime)
        e_vec = np.array([e_theta["zone1"], e_theta["zone2"]])
        propagated = matrix_power(BENCH_A, theta_prime - theta) @ e_vec
        assert e_prime["zone1"] == pytest.approx(propagated[0], abs=1e-12)
        assert e_prime["zone2"] == pytest.approx(propagated[1], abs=1e-12)

    def test_table_matches_the_power_ladder(self):
        # entry [m, k] of theta is row m of A^(theta-k) dotted with the gain
        # entering at step k (T[0] at k = 0); the table steps its columns by
        # Horner's rule, so it matches the powers of A to rounding. N of 16
        # and 64 sum over blocks that a BLAS kernel unrolls
        rng = np.random.default_rng(19)
        for n in [int(rng.integers(1, 9)) for _ in range(40)] + [16, 64]:
            thermal, chains, gains, horizon = random_rewarded_zones(rng, n)
            thetas = sorted(rng.choice(np.arange(1, horizon + 1), replace=False,
                                       size=int(rng.integers(1, horizon + 1))).tolist())
            table = step_reward_table(chains, thermal, gains, thetas)

            powers = [matrix_power(thermal.a, p) for p in range(max(thetas) + 1)]
            step_gains = np.zeros((horizon, n))
            for chain in chains:
                q = gains[chain.zone_id]
                step_gains[:, thermal.zone_index(chain.zone_id)] = (
                    q.q_int * chain_marginals([chain])[0, :-1]
                    + q.q_rad * np.array(chain.heating[:-1], dtype=float))
            expected = np.zeros_like(table)
            for t, theta in enumerate(thetas):
                for m, chain in enumerate(chains):
                    row = thermal.zone_index(chain.zone_id)
                    expected[t, m, 0] = powers[theta][row] @ thermal.initial_temps
                    for k in range(1, theta + 1):
                        expected[t, m, k] = powers[theta - k][row] @ step_gains[k - 1]
            np.testing.assert_allclose(table, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [16, 64])
    def test_columns_sum_to_the_direct_recursion(self, n):
        # the cumulative reward up to theta telescopes to E[T_theta]; at these
        # sizes no path enumeration or PRISM evaluation reaches
        rng = np.random.default_rng(n)
        thermal, chains, gains, horizon = random_rewarded_zones(rng, n, horizon=23)
        thetas = range(1, horizon + 1)
        table = step_reward_table(chains, thermal, gains, thetas)
        order = [thermal.zone_index(c.zone_id) for c in chains]
        marginals, heat = np.zeros((horizon + 1, n)), np.zeros((horizon + 1, n))
        marginals[:, order] = chain_marginals(chains).T
        heat[:, order] = np.array([c.heating for c in chains], dtype=float).T
        direct = direct_expected_temperatures(thermal, gains, marginals, heat, thetas)
        np.testing.assert_allclose(table.sum(axis=2), direct[:, order], rtol=1e-12, atol=0)

    def test_a_negative_zero_gain_enters_as_zero(self):
        # a gain enters its column as a @ 0 + gain, 0.0 for a >= 0, and T[0]'s
        # column gets + 0.0 at every step; 0.0 + -0.0 and -0.0 + 0.0 are 0.0,
        # so no entry keeps the sign of a zero
        thermal = DiscreteThermalModel(a=np.array([[0.5]]), b=np.eye(1), delta=1.0,
                                       initial_temps=np.array([-0.0]), zone_ids=("z",))
        chain = unroll_zone(make_schedule(0.5), [True] * 10, 9, zone_id="z")
        table = step_reward_table([chain], thermal, {"z": ZoneGains(-0.0, -0.0)}, [1, 9])
        assert table.tolist() == [[[0.0] * 11]] * 2
        assert not np.signbit(table).any()

    def test_zone_order_invariance(self, bench_thermal):
        schedule_a = make_schedule(p_vf=0.4, p_ff=0.7)
        schedule_b = make_schedule(p_vf=0.2, p_ff=0.9)
        heat_a = [True, False] * 5
        heat_b = [False, True] * 5
        c1 = unroll_zone(schedule_a, heat_a, 9, zone_id="zone1")
        c2 = unroll_zone(schedule_b, heat_b, 9, zone_id="zone2")
        for theta in (1, 4, 9):
            fwd = forward_temps(compose([c1, c2]), bench_thermal, bench_gains(), theta)
            rev = forward_temps(compose([c2, c1]), bench_thermal, bench_gains(), theta)
            assert fwd["zone1"] == pytest.approx(rev["zone1"], abs=1e-12)
            assert fwd["zone2"] == pytest.approx(rev["zone2"], abs=1e-12)


def expected_dump(model, rewards, theta):
    """``chain.json`` as one ``json.dumps`` of the chain, edges from ``product_edges``."""
    return json.dumps({
        "zones": list(model.zone_ids),
        "horizon": model.horizon,
        "theta": theta,
        "states": [
            {
                "index": s.index,
                "step": s.step,
                "occupied": None if s.occupied is None else list(s.occupied),
                "heating_on": None if s.heating_on is None else list(s.heating_on),
                "rewards": {zid: float(rewards[m][s.step])
                            for m, zid in enumerate(model.zone_ids)},
            }
            for s in model.states
        ],
        "transitions": [
            {"from": source, "to": target, "probability": p, "label": label}
            for source, target, p, label in product_edges(model.chains)
        ],
    }, indent=2, sort_keys=True) + "\n"


class TestDump:
    def test_dump_shape(self, bench_thermal):
        model = compose(two_chains())
        (rewards,) = step_reward_table(model.chains, bench_thermal, bench_gains(), [2])
        dump = json.loads("".join(dump_model(model, rewards, 2)))
        assert dump["zones"] == ["zone1", "zone2"]
        assert dump["theta"] == 2
        assert len(dump["states"]) == 38
        assert len(dump["transitions"]) == len(list(model.edges()))
        assert dump["states"][0]["rewards"]["zone1"] == rewards[0, 0]
        assert [s["rewards"]["zone2"] for s in dump["states"][1:5]] == [rewards[1, 1]] * 4

    def test_streamed_text_equals_one_json_dumps(self):
        # ids JSON must escape, and ids whose sorted order is not chain order
        names = ["zoné", 'z"1', "zone10", "zone2"]
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, horizon = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            zone_ids = tuple(str(z) for z in rng.permutation(names)[:n])
            raw = rng.uniform(0.1, 1.0, size=(n, n))
            thermal = DiscreteThermalModel(
                a=raw / raw.sum(axis=1, keepdims=True), b=np.eye(n), delta=1.0,
                initial_temps=rng.uniform(10, 25, size=n), zone_ids=zone_ids,
            )
            chains = [
                unroll_zone(random_schedule(rng, horizon),
                            [bool(b) for b in rng.integers(0, 2, horizon + 1)], horizon,
                            zone_id=zid, initial_occupied=bool(rng.integers(0, 2)))
                for zid in zone_ids
            ]
            gains = {z: ZoneGains(float(rng.uniform(0, 2)), float(rng.uniform(0, 3)))
                     for z in zone_ids}
            theta = int(rng.integers(1, horizon + 1))
            model = compose(chains)
            (rewards,) = step_reward_table(chains, thermal, gains, [theta])
            assert "".join(dump_model(model, rewards, theta)) == expected_dump(model, rewards, theta)
