"""Tests for deterministic PRISM model/property emission."""

from __future__ import annotations

import math
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import prism_eval
import prism_reference
from conftest import build_model, chain_marginals, forward_temps, make_schedule, random_schedule
from test_cli import pinned_args, read_trajectory
from thermark import (
    DiscreteThermalModel,
    ValidationError,
    ZoneGains,
    assign_rewards,
    compose,
    direct_expected_temperatures,
    export_properties,
    render_models,
    step_reward_table,
    unroll_zone,
)
from thermark.cli import RunConfig, main
from thermark.datasets import two_zone_benchmark_dir
from thermark.markov import ZoneChain

GOLDEN = Path(__file__).parent / "golden"


def pinned_rewarded(theta=9):
    d = two_zone_benchmark_dir()
    config = RunConfig(
        building=d / "building.json",
        occupancy_paths={
            "zone1": d / "occupancy_zone1.csv",
            "zone2": d / "occupancy_zone2.csv",
        },
        strategies=("S6",),
    )
    _, thermal, model, _ = build_model(config)
    gains = {z: ZoneGains(0.7, 1.5) for z in model.zone_ids}
    return assign_rewards(model, thermal, gains, theta)


def model_text(rewarded, name):
    """The model text ``export`` writes for ``rewarded``'s theta: its
    chains' :func:`step_reward_table` rendered by :func:`render_models`."""
    chains, thermal, theta = rewarded.model.chains, rewarded.thermal, rewarded.theta
    table = step_reward_table(chains, thermal, rewarded.gains, [theta])
    return render_models(chains, table, [theta], thermal.delta, name)[0]


def one_zone_rewarded():
    thermal = DiscreteThermalModel(
        a=np.array([[1.0]]), b=np.array([[1.0]]), delta=1.0,
        initial_temps=np.array([20.0]), zone_ids=("room",),
    )
    schedule = make_schedule(p_vf=[0.25], p_ff=[0.5])
    chain = unroll_zone(schedule, [True, False], 1, zone_id="room")
    model = compose([chain])
    return assign_rewards(model, thermal, {"room": ZoneGains(0.7, 1.5)}, 1)


class TestGolden:
    def test_model_text_matches_golden(self):
        text = model_text(pinned_rewarded(), "two_zone_benchmark")
        assert text == (GOLDEN / "two_zone_benchmark.pm").read_text()

    def test_properties_match_golden(self):
        text = export_properties(range(1, 10), pinned_rewarded().model.zone_ids)
        assert text == (GOLDEN / "two_zone_benchmark.props").read_text()

    def test_export_is_deterministic(self):
        a, b = pinned_rewarded(), pinned_rewarded()
        assert model_text(a, "x") == model_text(b, "x")
        assert (export_properties(range(1, 10), a.model.zone_ids)
                == export_properties(range(1, 10), b.model.zone_ids))


class TestOneZone:
    def test_hand_written_model(self):
        text = model_text(one_zone_rewarded(), "room_model")
        expected = """\
// room_model: 1-zone occupancy/thermal reward model
// horizon K=1, theta=1, step length 1 h
// modules synchronize on step labels t1..t2; t_sink loops the
// absorbing final state

dtmc

module zone_room
  step_room : [0..2] init 0;
  occ_room : [0..1] init 0;

  [t1] step_room=0 & occ_room=0 -> 0.25:(step_room'=1)&(occ_room'=1) + 0.75:(step_room'=1)&(occ_room'=0);
  [t2] step_room=1 -> 1:(step_room'=2)&(occ_room'=0);
  [t_sink] step_room=2 -> 1:(step_room'=2);
endmodule

rewards "zone_room"
  step_room=0 : 20;
  step_room=1 : 1.5;
endrewards
"""
        assert text == expected

    def test_one_reward_line_per_nonzero_step(self, bench_thermal):
        # zone2 has no gains of its own, so its reward at step theta, row e2 @ Q, is zero
        chains = [unroll_zone(make_schedule(p_vf=0.4), [True] * 10, 9, zone_id="zone1"),
                  unroll_zone(make_schedule(p_vf=0.2), [False] * 10, 9, zone_id="zone2")]
        gains = {"zone1": ZoneGains(0.7, 1.5), "zone2": ZoneGains(0.0, 0.0)}
        rewarded = assign_rewards(compose(chains), bench_thermal, gains, 4)
        text = model_text(rewarded, "lines")
        for zid in ("zone1", "zone2"):
            block = text.split(f'rewards "zone_{zid}"\n')[1].split("endrewards")[0]
            steps = [int(k) for k in re.findall(rf"^  step_{zid}=(\d+) : \S+;$", block, re.M)]
            per_step = rewarded.rewards[zid].tolist()
            assert len(per_step) == 1 + 9 + 1
            assert steps == [k for k, value in enumerate(per_step) if value != 0.0]
            assert len(block.splitlines()) == len(steps)
        assert len(re.findall(r"^  step_zone1=", text, re.M)) == 5
        assert len(re.findall(r"^  step_zone2=", text, re.M)) == 4


class TestValidationAndLiterals:
    def test_negative_reward_rejected(self, bench_thermal):
        schedule = make_schedule(p_vf=0.4)
        chains = [unroll_zone(schedule, [True] * 10, 9, zone_id=z)
                  for z in ("zone1", "zone2")]
        model = compose(chains)
        gains = {"zone1": ZoneGains(0.7, -1.5), "zone2": ZoneGains(0.7, 1.5)}
        rewarded = assign_rewards(model, bench_thermal, gains, 3)
        with pytest.raises(ValidationError,
                           match=r"negative reward unsupported by target: zone 'zone1', step 1$"):
            model_text(rewarded, "bad")

    def test_probability_literals_round_trip(self):
        rewarded = pinned_rewarded()
        text = model_text(rewarded, "x")
        probs = set()
        for chain in rewarded.model.chains:
            probs.update(chain.occ_given_empty)
            probs.update(chain.occ_given_occupied)
        emitted = re.findall(r"(\d\.\d+):", text)
        emitted_values = {float(e) for e in emitted}
        for p in probs:
            if p not in (0.0, 1.0):
                assert p in emitted_values or (1.0 - p) in emitted_values

    def test_module_renaming_for_identical_schedules(self, bench_thermal):
        schedule = make_schedule(p_vf=0.4)
        chains = [unroll_zone(schedule, [True] * 10, 9, zone_id=z)
                  for z in ("zone1", "zone2")]
        model = compose(chains)
        gains = {z: ZoneGains(0.7, 1.5) for z in ("zone1", "zone2")}
        rewarded = assign_rewards(model, bench_thermal, gains, 2)
        text = model_text(rewarded, "twins")
        assert ("module zone_zone2 = zone_zone1 "
                "[ step_zone1=step_zone2, occ_zone1=occ_zone2 ] endmodule"
                ) in text
        spelled_out = re.findall(r"^module zone_\w+$", text, re.M)
        assert spelled_out == ["module zone_zone1"]


def random_instance(rng, n, horizon, twins=False):
    """Chains in a shuffled zone order, plus a random stable thermal model."""
    zone_ids = tuple(f"z{j}" for j in range(n))
    a = rng.uniform(0.0, 1.0, (n, n))
    thermal = DiscreteThermalModel(
        a=a / a.sum(axis=1, keepdims=True), b=np.eye(n), delta=1.0,
        initial_temps=rng.uniform(12.0, 20.0, n), zone_ids=zone_ids)
    shared = random_schedule(rng, horizon)
    chains = [unroll_zone(shared if twins else random_schedule(rng, horizon),
                          [bool(b) for b in rng.integers(0, 2, horizon + 1)], horizon,
                          zone_id=zid, initial_occupied=bool(rng.integers(0, 2)) and not twins)
              for zid in zone_ids]
    gains = {zid: ZoneGains(float(rng.uniform(0, 1)), float(rng.uniform(0, 2)))
             for zid in zone_ids}
    return [chains[j] for j in rng.permutation(n)], thermal, gains


def direct_route(chains, thermal, gains, thetas):
    """(len(thetas), N) expected temperatures from the marginal recursion."""
    by_id = {c.zone_id: c for c in chains}
    ordered = [by_id[zid] for zid in thermal.zone_ids]
    marginals = chain_marginals(ordered).T
    heating = np.array([c.heating for c in ordered]).T
    return direct_expected_temperatures(thermal, gains, marginals, heating, thetas)


class TestEvaluator:
    """The text-only evaluator in ``prism_eval`` checks what PRISM would answer."""

    def test_golden_agrees_with_direct_route(self, tmp_path):
        answers = prism_eval.answer((GOLDEN / "two_zone_benchmark.pm").read_text(),
                                    (GOLDEN / "two_zone_benchmark.props").read_text())
        assert [(reward, bound) for reward, bound, _ in answers][-2:] == [
            ("zone_zone1", 10), ("zone_zone2", 10)]
        assert main(pinned_args("analyze", tmp_path)) == 0
        rows = read_trajectory(tmp_path / "trajectory.csv")
        for reward, _, value in answers[-2:]:
            assert abs(value - rows[(17, reward.removeprefix("zone_"))]) <= 1e-12

    def test_every_theta_of_the_bundled_export(self, tmp_path):
        assert main(pinned_args("analyze", tmp_path / "a")) == 0
        rows = read_trajectory(tmp_path / "a" / "trajectory.csv")
        assert main(pinned_args("export", tmp_path / "e", extra=["--name", "b"])) == 0
        props = (tmp_path / "e" / "b.props").read_text()
        for theta in range(1, 10):
            model = (tmp_path / "e" / f"b_theta{theta}.pm").read_text()
            answers = [(r, v) for r, bound, v in prism_eval.answer(model, props)
                       if bound == theta + 1]
            assert len(answers) == 2
            for reward, value in answers:
                assert abs(value - rows[(8 + theta, reward.removeprefix("zone_"))]) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(700 + seed)
        n, horizon = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        self.check_every_theta(*random_instance(rng, n, horizon))

    def test_six_zones_six_steps(self):
        self.check_every_theta(*random_instance(np.random.default_rng(17), 6, 6))

    def test_twin_schedules_use_module_renaming(self):
        chains, thermal, gains = random_instance(np.random.default_rng(5), 3, 5, twins=True)
        text = self.check_every_theta(chains, thermal, gains)
        assert len(re.findall(r"^module zone_\w+ = zone_\w+ \[", text, re.M)) == 2

    def test_half_matching_schedules_are_spelled_out(self):
        # z1 copies z0; z2 shares only p_ff with z0 and z3 only p_vf
        _, thermal, gains = random_instance(np.random.default_rng(9), 4, 4)
        p_vf, p_ff = [0.3, 0.5, 0.2, 0.6], [0.7, 0.4, 0.9, 0.5]
        schedules = [make_schedule(p_vf, p_ff), make_schedule(p_vf, p_ff),
                     make_schedule([0.4, 0.1, 0.6, 0.3], p_ff),
                     make_schedule(p_vf, [0.2, 0.8, 0.6, 0.3])]
        chains = [unroll_zone(sched, [True, False, True, True, False], 4, zone_id=f"z{j}")
                  for j, sched in enumerate(schedules)]
        text = self.check_every_theta(chains, thermal, gains)
        assert re.findall(r"^module zone_(\w+)", text, re.M) == ["z0", "z1", "z2", "z3"]
        assert re.findall(r"^module zone_\w+ = zone_\w+", text, re.M) == [
            "module zone_z1 = zone_z0"]

    def test_other_start_is_spelled_out(self):
        # z1 shares z0's schedule but starts occupied; z2 matches z1, not z0
        _, thermal, gains = random_instance(np.random.default_rng(11), 3, 4)
        schedule = make_schedule([0.3, 0.5, 0.2, 0.6], [0.7, 0.4, 0.9, 0.5])
        chains = [unroll_zone(schedule, [True, False, True, True, False], 4, zone_id=f"z{j}",
                              initial_occupied=start)
                  for j, start in enumerate((False, True, True))]
        text = self.check_every_theta(chains, thermal, gains)
        assert re.findall(r"^module zone_(\w+)$", text, re.M) == ["z0", "z1"]
        assert re.findall(r"^module zone_\w+ = zone_\w+", text, re.M) == [
            "module zone_z2 = zone_z1"]
        assert "  [t1] step_z0=0 & occ_z0=0 -> " in text
        assert "  [t1] step_z1=0 & occ_z1=1 -> " in text
        assert "step_z0=0 & occ_z0=1" not in text and "step_z1=0 & occ_z1=0" not in text

    def test_three_twins_rename_the_first(self):
        _, thermal, gains = random_instance(np.random.default_rng(12), 3, 4)
        schedule = make_schedule([0.3, 0.5, 0.2, 0.6], [0.7, 0.4, 0.9, 0.5])
        chains = [unroll_zone(schedule, [True, False, True, True, False], 4, zone_id=f"z{j}")
                  for j in range(3)]
        text = self.check_every_theta(chains, thermal, gains)
        assert re.findall(r"^module zone_(\w+)$", text, re.M) == ["z0"]
        assert re.findall(r"^module zone_\w+ = zone_\w+", text, re.M) == [
            "module zone_z1 = zone_z0", "module zone_z2 = zone_z0"]

    @staticmethod
    def check_every_theta(chains, thermal, gains) -> str:
        """Evaluate every theta's model text against the direct route; return the last."""
        thetas = range(1, chains[0].horizon + 1)
        zone_ids = tuple(c.zone_id for c in chains)
        table = step_reward_table(chains, thermal, gains, thetas)
        expected = direct_route(chains, thermal, gains, thetas)
        props = export_properties(thetas, zone_ids)
        texts = render_models(chains, table.tolist(), thetas, thermal.delta)
        for t, (theta, text) in enumerate(zip(thetas, texts)):
            values = {reward: v for reward, bound, v in prism_eval.answer(text, props)
                      if bound == theta + 1}
            for zid in zone_ids:
                got = values[f"zone_{zid}"]
                assert abs(got - expected[t, thermal.zone_index(zid)]) <= 1e-12
        return text


class TestRenderModels:
    """One call renders every theta; each text equals a call for its theta alone."""

    @staticmethod
    def check_each_theta_alone(chains, thermal, gains) -> list[str]:
        thetas = range(1, chains[0].horizon + 1)
        table = step_reward_table(chains, thermal, gains, thetas).tolist()
        texts = render_models(chains, table, thetas, thermal.delta, "m")
        assert len(texts) == len(thetas)
        for theta, rewards, text in zip(thetas, table, texts):
            assert text == render_models(chains, [rewards], [theta], thermal.delta, "m")[0]
        return texts

    def test_twin_schedules(self, bench_thermal):
        schedule = make_schedule(p_vf=0.4)
        chains = [unroll_zone(schedule, [True] * 10, 9, zone_id=z)
                  for z in ("zone1", "zone2")]
        gains = {z: ZoneGains(0.7, 1.5) for z in ("zone1", "zone2")}
        for text in self.check_each_theta_alone(chains, bench_thermal, gains):
            assert re.findall(r"^module .*$", text, re.M) == [
                "module zone_zone1",
                "module zone_zone2 = zone_zone1 "
                "[ step_zone1=step_zone2, occ_zone1=occ_zone2 ] endmodule"]

    def test_zone_with_zero_gains(self, bench_thermal):
        # zone2's reward at step theta, row e2 @ Q, is zero at every theta
        chains = [unroll_zone(make_schedule(p_vf=0.4), [True] * 10, 9, zone_id="zone1"),
                  unroll_zone(make_schedule(p_vf=0.2), [False] * 10, 9, zone_id="zone2")]
        gains = {"zone1": ZoneGains(0.7, 1.5), "zone2": ZoneGains(0.0, 0.0)}
        texts = self.check_each_theta_alone(chains, bench_thermal, gains)
        for theta, text in enumerate(texts, start=1):
            assert f"// horizon K=9, theta={theta}, step length 1 h\n" in text
            assert len(re.findall(r"^  step_zone1=", text, re.M)) == theta + 1
            assert len(re.findall(r"^  step_zone2=", text, re.M)) == theta

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_reward_rejected(self, bench_thermal, value):
        chains = [unroll_zone(make_schedule(p_vf=0.4), [True] * 10, 9, zone_id=z)
                  for z in ("zone1", "zone2")]
        gains = {z: ZoneGains(0.7, 1.5) for z in ("zone1", "zone2")}
        table = step_reward_table(chains, bench_thermal, gains, [1, 2]).tolist()
        table[1][1][2] = value
        with pytest.raises(ValidationError, match=r"^non-finite reward: zone 'zone2', step 2$"):
            render_models(chains, table, [1, 2], bench_thermal.delta)


# zone ids whose identifiers need a prefix, or clash once sanitised and are numbered
ZONE_IDS = ("zone1", "zone2", "a-b", "a_b", "a.b", "1", "z_1", "hall", "Kitchen", "r9")


class TestRenderBytes:
    """``render_models`` writes the bytes of the line-by-line renderer in
    ``prism_reference``."""

    def test_matches_the_line_by_line_renderer(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # ratios of small denominators, as 20-day logs give, so zones repeat
        # values; 0 and 1 among them
        ratios = st.integers(1, 6).flatmap(lambda d: st.integers(0, d).map(lambda n: n / d))
        rewards = st.one_of(st.just(0.0), st.integers(1, 40).map(float),
                            ratios.map(lambda p: 17 * p), st.floats(0.0, 1e300, allow_nan=False))

        @st.composite
        def instances(draw):
            n, horizon = draw(st.integers(1, 8)), draw(st.integers(1, 23))
            zone_ids = draw(st.lists(st.sampled_from(ZONE_IDS), min_size=n, max_size=n,
                                     unique=True))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            pool = draw(st.lists(ratios, min_size=1, max_size=6))
            chains = []
            for zid in zone_ids:
                p_vf, p_ff = (tuple(rng.choice(pool, horizon).tolist()) for _ in range(2))
                start = draw(st.booleans())
                kind = draw(st.sampled_from(["own", "twin", "half", "start"])) if chains else "own"
                if kind != "own":
                    other = draw(st.sampled_from(chains))
                    if kind == "twin":  # renamed from the first zone with its schedule
                        p_vf, p_ff, start = (other.occ_given_empty, other.occ_given_occupied,
                                             other.initial_occupied)
                    elif kind == "half":  # shares one of the two rows, spelled out
                        if draw(st.booleans()):
                            p_vf = other.occ_given_empty
                        else:
                            p_ff = other.occ_given_occupied
                    else:  # the same rows from the other start label, spelled out
                        p_vf, p_ff = other.occ_given_empty, other.occ_given_occupied
                        start = not other.initial_occupied
                chains.append(ZoneChain(zone_id=zid, horizon=horizon, initial_occupied=start,
                                        heating=(False,) * (horizon + 1),
                                        occ_given_empty=p_vf, occ_given_occupied=p_ff))
            thetas = sorted(draw(st.sets(st.integers(1, horizon), min_size=1)))
            table = rng.choice(draw(st.lists(rewards, min_size=1, max_size=6)),
                               (len(thetas), n, horizon + 2))
            table[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0  # zero gains
            return (chains, table if draw(st.booleans()) else table.tolist(), thetas,
                    draw(st.sampled_from([1.0, 0.5])))

        @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hypothesis.given(instances())
        def agree(instance):
            assert render_models(*instance, "m") == prism_reference.render_models(*instance, "m")
            seen.append(instance)

        seen = []
        agree()
        # the examples reach twins, both start labels and zero-gain zones
        texts = "".join(prism_reference.render_models(*inst, "m")[0] for inst in seen)
        assert re.search(r"^module zone_\w+ = zone_\w+", texts, re.M)
        assert " : [0..1] init 0;" in texts and " : [0..1] init 1;" in texts
        assert "  // no nonzero rewards for this zone\n" in texts


def first_fault(table, thetas, zone_ids):
    """The message of the first faulty reward, found one value at a time:
    per theta, then per zone, its steps in order, then its sum."""
    for theta, rewards in zip(thetas, table):
        for zid, per_step in zip(zone_ids, rewards):
            for step, value in enumerate(per_step):
                if not math.isfinite(value):
                    return f"non-finite reward: zone {zid!r}, step {step}"
                if value < 0:
                    return f"negative reward unsupported by target: zone {zid!r}, step {step}"
            if not math.isfinite(sum(per_step)):
                return f"non-finite reward sum: zone {zid!r}, theta {theta}"
    return None


class TestRewardFaults:
    """The first faulty reward is reported by theta, then zone, then step,
    and a zone's sum only after its steps."""

    ZONES = ("zone1", "zone2", "zone3")
    THETAS = tuple(range(1, 10))

    @pytest.fixture
    def setup(self):
        thermal = DiscreteThermalModel(
            a=np.full((3, 3), 0.3), b=np.eye(3), delta=1.0,
            initial_temps=np.array([18.0, 16.0, 17.0]), zone_ids=self.ZONES)
        chains = [unroll_zone(make_schedule(p_vf=0.1 * (i + 2)), [i != 1] * 10, 9, zone_id=zid)
                  for i, zid in enumerate(self.ZONES)]
        gains = {zid: ZoneGains(0.7, 1.5) for zid in self.ZONES}
        return chains, thermal, step_reward_table(chains, thermal, gains, self.THETAS).tolist()

    # (theta, zone index, step, value); two 1e308 terms overflow their zone's sum
    OVERFLOW_7_2 = [(7, 1, 1, 1e308), (7, 1, 2, 1e308)]

    @pytest.mark.parametrize("faults, message", [
        (OVERFLOW_7_2 + [(8, 0, 3, math.nan), (7, 2, 0, -1.0)],
         "non-finite reward sum: zone 'zone2', theta 7"),
        (OVERFLOW_7_2 + [(7, 1, 5, math.inf), (7, 1, 4, -1.0)],
         "negative reward unsupported by target: zone 'zone2', step 4"),
        (OVERFLOW_7_2 + [(7, 1, 6, -math.inf)],
         "non-finite reward: zone 'zone2', step 6"),
        (OVERFLOW_7_2 + [(7, 0, 10, math.nan), (3, 2, 9, -0.5)],
         "negative reward unsupported by target: zone 'zone3', step 9"),
        (OVERFLOW_7_2 + [(7, 0, 10, math.nan), (8, 0, 0, math.inf)],
         "non-finite reward: zone 'zone1', step 10"),
    ], ids=["sum-before-later-zone", "first-step-first", "minus-inf-is-non-finite",
            "earlier-theta-first", "earlier-zone-first"])
    def test_first_fault_message(self, setup, faults, message):
        chains, thermal, table = setup
        for theta, m, step, value in faults:
            table[theta - 1][m][step] = value
        assert first_fault(table, self.THETAS, self.ZONES) == message
        with pytest.raises(ValidationError) as info:
            render_models(chains, table, self.THETAS, thermal.delta)
        assert str(info.value) == message

    def test_random_faults_match_the_value_loop(self, setup):
        chains, thermal, clean = setup
        rng = np.random.default_rng(5)
        for _ in range(200):
            table = [[list(row) for row in rewards] for rewards in clean]
            for _ in range(int(rng.integers(1, 5))):
                theta, m, step = (int(rng.integers(1, 10)), int(rng.integers(0, 3)),
                                  int(rng.integers(0, 11)))
                table[theta - 1][m][step] = float(rng.choice(
                    [math.nan, math.inf, -math.inf, -1e-300, -2.0, 1e308]))
            message = first_fault(table, self.THETAS, self.ZONES)
            if message is None:
                render_models(chains, table, self.THETAS, thermal.delta)
                continue
            with pytest.raises(ValidationError) as info:
                render_models(chains, table, self.THETAS, thermal.delta)
            assert str(info.value) == message


class TestProperties:
    def test_full_range_two_zones(self):
        text = export_properties(range(1, 10), ("zone1", "zone2"))
        queries = [line for line in text.splitlines() if line.startswith("R{")]
        assert len(queries) == 18
        assert 'R{"zone_zone1"}=? [ C<=2 ]' in queries[0]
        assert "C<=10" in queries[-1]

    def test_empty_range_header_only(self):
        text = export_properties([], ("zone1",))
        lines = text.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("//")

    def test_single_query(self):
        text = export_properties([4], ("attic",))
        queries = [line for line in text.splitlines() if line.startswith("R{")]
        assert queries == ['R{"zone_attic"}=? [ C<=5 ]  // theta=4, zone attic']


@pytest.mark.skipif(shutil.which("prism") is None,
                    reason="PRISM model checker not on PATH")
class TestPrismIntegration:
    def test_prism_agrees_with_engine(self, tmp_path):
        for theta in (1, 5, 9):
            rewarded = pinned_rewarded(theta)
            model_path = tmp_path / f"check_{theta}.pm"
            props_path = tmp_path / f"check_{theta}.props"
            model_path.write_text(model_text(rewarded, "check"))
            props_path.write_text(export_properties([theta], rewarded.model.zone_ids))
            engine = forward_temps(rewarded.model, rewarded.thermal, rewarded.gains, theta)
            for prop_index, zid in enumerate(rewarded.model.zone_ids, start=1):
                out = subprocess.run(
                    ["prism", str(model_path), str(props_path), "-prop", str(prop_index)],
                    capture_output=True, text=True, timeout=300, check=True,
                )
                match = re.search(r"Result: ([0-9.eE+-]+)", out.stdout)
                assert match, out.stdout
                assert abs(float(match.group(1)) - engine[zid]) <= 1e-6
