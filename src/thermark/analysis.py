"""Expected zone temperatures as expected cumulative rewards.

Three evaluation routes are provided:

* :func:`expected_temperature` propagates the state-probability vector
  through the composed chain's per-step layers and dots the probability
  mass of each step with that step's reward (the cumulative-reward query
  with bound theta + 1). Every state of a step carries the same reward,
  so for any layers whose rows sum to one this is the sum of the per-step
  rewards: the route checks :func:`thermark.markov.step_reward_table` and
  the mass of each layer, not the edges :func:`thermark.markov.compose`
  builds.
* :func:`direct_expected_temperatures` skips the composed model entirely:
  because the expected gain at step k only needs each zone's occupancy
  marginal at step k-1 and the deterministic heating bit, the whole
  trajectory is the forward recursion E[k+1] = A @ E[k] + Q[k+1], costing
  O(N^2) per step.
* :func:`brute_force_expected_temperature` enumerates every occupancy
  path, runs the per-path temperature recursion, and averages under the
  exact path measure. It is deliberately built from the raw transition
  probabilities and gains rather than the assigned rewards, so agreement
  with the other routes validates the reward construction itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError, ValidationError
from .markov import ComposedModel, RewardedModel, ZoneGains, step_reward_table
from .thermal import DiscreteThermalModel

ORACLE_MAX_PATH_BITS = 22
# the largest product chain --dump-chain writes, in edges; N=8 zones over
# K=9 steps (524 801 edges, a 59 MB chain.json) takes 1.4 s and 38 MiB peak
# RSS as a fresh process on a 2-vCPU VM, and still fits
DUMP_MAX_EDGES = 2 ** 20


def _check_theta(rewarded: RewardedModel, theta: int) -> None:
    if theta != rewarded.theta:
        raise ValidationError(
            f"rewards were assigned for theta={rewarded.theta}, not theta={theta}"
        )


def state_probabilities(model: ComposedModel) -> np.ndarray:
    """Probability of occupying each composed state at its own step."""
    p = model.layers[0][model.initial_row]
    per_step = [np.ones(1), p]
    for layer in model.layers[1:]:
        p = p @ layer
        per_step.append(p)
    per_step.append(np.array([p.sum()]))  # every step-K state falls into the sink
    return np.concatenate(per_step)


def step_masses(model: ComposedModel) -> np.ndarray:
    """Probability mass of each step 0..K+1: the sum over its states."""
    width = 2 ** model.zone_count
    starts = [0, *range(1, width * model.horizon + 2, width)]
    return np.add.reduceat(state_probabilities(model), starts)


def expected_temperature(rewarded: RewardedModel, theta: int) -> dict[str, float]:
    """Expected temperature per zone at step theta via forward propagation."""
    _check_theta(rewarded, theta)
    mass = step_masses(rewarded.model)
    return {zid: float(mass @ rewarded.rewards[zid]) for zid in rewarded.model.zone_ids}


def direct_expected_temperatures(
    thermal: DiscreteThermalModel,
    gains: dict[str, ZoneGains],
    marginals: np.ndarray,
    heating: np.ndarray,
    thetas: list[int] | tuple[int, ...] | range,
) -> np.ndarray:
    """Expected temperatures without building the composed model.

    ``marginals`` and ``heating`` are (K+1, N) arrays in the thermal
    model's zone order: P(zone occupied at step k) and the heating bit at
    step k. Returns an array of shape (len(thetas), N).
    """
    thetas = list(thetas)
    if not thetas:
        raise ValidationError("empty theta range")
    marginals = np.asarray(marginals, dtype=float)
    heat = np.asarray(heating, dtype=float)
    n = len(thermal.zone_ids)
    if marginals.shape[1] != n or heat.shape[1] != n:
        raise ValidationError("marginals/heating column count must match the zone count")
    max_theta = max(thetas)
    if min(thetas) < 1 or max_theta > marginals.shape[0] - 1 or max_theta > heat.shape[0] - 1:
        raise ValidationError("theta range exceeds the available schedule steps")

    q_int = np.array([gains[zid].q_int for zid in thermal.zone_ids])
    q_rad = np.array([gains[zid].q_rad for zid in thermal.zone_ids])
    a = np.asarray(thermal.a, dtype=float)

    by_theta = {}
    expected = np.asarray(thermal.initial_temps, dtype=float).copy()
    for k in range(1, max_theta + 1):
        gain = q_int * marginals[k - 1] + q_rad * heat[k - 1]
        expected = a @ expected + gain
        by_theta[k] = expected.copy()
    return np.array([by_theta[t] for t in thetas])


def brute_force_expected_temperature(rewarded: RewardedModel, theta: int) -> dict[str, float]:
    """Exhaustive path-enumeration oracle for the expected temperature.

    Enumerates all 2^(N*theta) occupancy paths, evolves the deterministic
    temperature recursion along each (gains read from the path's previous
    step), and accumulates probability-weighted sums with exact
    compensated summation.
    """
    _check_theta(rewarded, theta)
    model = rewarded.model
    n = model.zone_count
    if n * model.horizon > ORACLE_MAX_PATH_BITS:
        raise NumericalGuardError(
            f"path enumeration over {n} zones x {model.horizon} steps exceeds "
            f"2^{ORACLE_MAX_PATH_BITS} paths; use expected_temperature instead"
        )

    thermal = rewarded.thermal
    a = np.asarray(thermal.a, dtype=float)
    order = [thermal.zone_index(zid) for zid in model.zone_ids]
    q_int = np.zeros(n)
    q_rad = np.zeros(n)
    for j, zid in enumerate(model.zone_ids):
        q_int[order[j]] = rewarded.gains[zid].q_int
        q_rad[order[j]] = rewarded.gains[zid].q_rad

    combos = list(itertools.product((True, False), repeat=n))
    combo_occ = np.zeros((len(combos), n))
    for ci, combo in enumerate(combos):
        for j, occ in enumerate(combo):
            combo_occ[ci, order[j]] = 1.0 if occ else 0.0

    def branch_matrix(step: int) -> np.ndarray:
        # rows: source combo, cols: target combo
        mat = np.ones((len(combos), len(combos)))
        for si, src in enumerate(combos):
            for ti, tgt in enumerate(combos):
                p = 1.0
                for chain, occ_from, occ_to in zip(model.chains, src, tgt):
                    p_occ = (chain.occ_given_occupied[step] if occ_from
                             else chain.occ_given_empty[step])
                    p *= p_occ if occ_to else 1.0 - p_occ
                mat[si, ti] = p
        return mat

    def heat_vector(step: int) -> np.ndarray:
        bits = model.heating_at(step)
        vec = np.zeros(n)
        for j, on in enumerate(bits):
            vec[order[j]] = 1.0 if on else 0.0
        return vec

    init_combo = tuple(c.initial_occupied for c in model.chains)
    init_idx = combos.index(init_combo)

    prob = np.array([1.0])
    temps = np.asarray(thermal.initial_temps, dtype=float)[None, :].copy()
    cur = np.array([init_idx])

    for k in range(theta):
        gain = combo_occ[cur] * q_int + heat_vector(k) * q_rad
        temps = temps @ a.T + gain
        branch = branch_matrix(k)
        prob = (prob[:, None] * branch[cur]).reshape(-1)
        temps = np.repeat(temps, len(combos), axis=0)
        cur = np.tile(np.arange(len(combos)), len(cur))

    total = math.fsum(prob)
    if abs(total - 1.0) > 1e-9:
        raise NumericalGuardError(f"path probabilities sum to {total}, not 1")
    return {
        zid: math.fsum(prob * temps[:, thermal.zone_index(zid)])
        for zid in model.zone_ids
    }


@dataclass(frozen=True)
class TemperatureTrajectory:
    """Expected temperature per (theta, zone)."""

    zone_ids: tuple[str, ...]
    thetas: tuple[int, ...]
    values: np.ndarray  # (len(thetas), len(zone_ids))

    def value(self, theta: int, zone_id: str) -> float:
        return float(self.values[self.thetas.index(theta), self.zone_ids.index(zone_id)])


def temperature_trajectory(
    model: ComposedModel,
    thermal: DiscreteThermalModel,
    gains: dict[str, ZoneGains],
    theta_range: list[int] | tuple[int, ...] | range,
) -> TemperatureTrajectory:
    """Evaluate expected temperatures over a theta range.

    The step masses do not depend on theta and are propagated once; the
    per-step rewards of every theta come from one reward table.
    """
    thetas = tuple(theta_range)
    if not thetas:
        raise ValidationError("empty theta range")
    if min(thetas) < 1 or max(thetas) > model.horizon:
        raise ValidationError(
            f"theta range {thetas} outside 1..{model.horizon}"
        )
    table = step_reward_table(model.chains, thermal, gains, thetas)
    return TemperatureTrajectory(
        zone_ids=model.zone_ids, thetas=thetas, values=table @ step_masses(model)
    )


@dataclass(frozen=True)
class ComfortReport:
    """Classification of a trajectory against a comfort band."""

    band: tuple[float, float]
    zone_ids: tuple[str, ...]
    thetas: tuple[int, ...]
    classifications: dict[tuple[int, str], str]  # (theta, zone) -> below/within/above
    ever_below: dict[str, bool]
    ever_above: dict[str, bool]

    def as_dict(self) -> dict:
        return {
            "band": {"low": self.band[0], "high": self.band[1]},
            "points": [
                {
                    "theta": theta,
                    "zone": zid,
                    "classification": self.classifications[(theta, zid)],
                }
                for theta in self.thetas
                for zid in self.zone_ids
            ],
            "summary": {
                zid: {"ever_below": self.ever_below[zid], "ever_above": self.ever_above[zid]}
                for zid in self.zone_ids
            },
        }


def comfort_check(
    trajectory: TemperatureTrajectory, band: tuple[float, float]
) -> ComfortReport:
    """Classify every trajectory point against [low, high]; ties are within."""
    low, high = band
    if not low < high:
        raise ValidationError(f"band low must be below high, got {band}")
    if not np.all(np.isfinite(trajectory.values)):
        raise ValidationError("trajectory holds a non-finite temperature")
    classifications: dict[tuple[int, str], str] = {}
    ever_below = {zid: False for zid in trajectory.zone_ids}
    ever_above = {zid: False for zid in trajectory.zone_ids}
    for ti, theta in enumerate(trajectory.thetas):
        for zi, zid in enumerate(trajectory.zone_ids):
            v = trajectory.values[ti, zi]
            if v < low:
                cls = "below"
                ever_below[zid] = True
            elif v > high:
                cls = "above"
                ever_above[zid] = True
            else:
                cls = "within"
            classifications[(theta, zid)] = cls
    return ComfortReport(
        band=(low, high),
        zone_ids=trajectory.zone_ids,
        thetas=trajectory.thetas,
        classifications=classifications,
        ever_below=ever_below,
        ever_above=ever_above,
    )
