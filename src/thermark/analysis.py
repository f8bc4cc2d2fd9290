"""Expected zone temperatures as expected cumulative rewards.

Three evaluation routes are provided:

* :func:`expected_temperature` and :func:`temperature_trajectory` run one
  forward pass over the composed chain's per-step layers. Over the 2^N
  states s of step k the pass carries p_k(s) = P(X_k = s) and
  m_k(s) = E[T_k 1{X_k = s}], and steps them with
  m_{k+1} = P_k^T (m_k A^T + p_k g_k) and p_{k+1} = p_k P_k, where g_k(s)
  is the heat gain of state s during hour k (its own occupancy bits and
  the step's heating bits). E[T_theta] is the sum of m_theta over the
  states, so the route reads every edge :func:`thermark.markov.compose`
  built, and one pass serves every theta. It never reads the assigned
  rewards.
* :func:`direct_expected_temperatures` skips the composed model entirely:
  because the expected gain at step k only needs each zone's occupancy
  marginal at step k-1 and the deterministic heating bit, the whole
  trajectory is the forward recursion E[k+1] = A @ E[k] + Q[k+1], costing
  O(N^2) per step.
* :func:`brute_force_expected_temperature` enumerates every occupancy
  path, runs the per-path temperature recursion, and averages under the
  exact path measure. It is deliberately built from the zone chains' raw
  transition probabilities and gains rather than the layers or the
  assigned rewards, so agreement with the forward pass validates
  :func:`thermark.markov.compose`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError, ValidationError
from .markov import ComposedModel, RewardedModel, ZoneGains, _check_zones
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


def _forward_pass(model: ComposedModel, thermal: DiscreteThermalModel,
                  gains: dict[str, ZoneGains], last: int) -> np.ndarray:
    """E[T_k] for k = 0..last in the model's zone order, propagated
    through ``model.layers`` (see the module docstring)."""
    zone_ids = model.zone_ids
    _check_zones(zone_ids, thermal, gains)
    # A and T0 permuted from thermal order into chain order
    order = [thermal.zone_index(zid) for zid in zone_ids]
    a_t = np.asarray(thermal.a, dtype=float)[np.ix_(order, order)].T
    t0 = np.asarray(thermal.initial_temps, dtype=float)[order]
    # occupant gain of every state of a step, rows in layer order
    occupant = np.array(list(itertools.product((1.0, 0.0), repeat=len(zone_ids))))
    occupant *= [gains[zid].q_int for zid in zone_ids]
    q_rad = np.array([gains[zid].q_rad for zid in zone_ids])

    p = np.zeros(len(occupant))
    p[model.initial_row] = 1.0
    m = np.outer(p, t0)
    expected = [t0]
    for k in range(last):
        gain = occupant + q_rad * np.array(model.heating_at(k), dtype=float)
        layer = model.layers[k]
        m = layer.T @ (m @ a_t + p[:, None] * gain)
        p = p @ layer
        expected.append(m.sum(axis=0))
    return np.array(expected)


def expected_temperature(rewarded: RewardedModel, theta: int) -> dict[str, float]:
    """Expected temperature per zone at step theta, by the forward pass
    over the composed model's layers."""
    _check_theta(rewarded, theta)
    model = rewarded.model
    values = _forward_pass(model, rewarded.thermal, rewarded.gains, theta)[theta]
    return dict(zip(model.zone_ids, values.tolist()))


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
    # gains near the float limit overflow to inf or nan without a warning;
    # comfort_check rejects the non-finite trajectory with one error line
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_theta + 1):
            gain = q_int * marginals[k - 1] + q_rad * heat[k - 1]
            expected = a @ expected + gain
            by_theta[k] = expected.copy()
    return np.array([by_theta[t] for t in thetas])


def brute_force_expected_temperature(rewarded: RewardedModel, theta: int) -> dict[str, float]:
    """Exhaustive path-enumeration oracle for the expected temperature.

    Enumerates all 2^(N*theta) occupancy paths, evolves the deterministic
    temperature recursion along each (gains read from the path's previous
    step), and sums the probabilities and the probability-weighted
    temperatures with numpy's pairwise summation. Over n contiguous
    doubles x_i that sum is off from the exact one by at most about
    (128 + log2 n)·u·Σ|x_i|, u = 2^-53: each term meets fewer than 128
    roundings inside its block of at most 128 terms and one more per
    pairwise level above it. At n = 2^22 paths that is below
    1.7e-14·Σ|x_i|. A BLAS dot product would not do, because its
    summation order is unspecified.
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

    total = float(np.sum(prob))
    if abs(total - 1.0) > 1e-9:
        raise NumericalGuardError(f"path probabilities sum to {total}, not 1")
    return {
        zid: float(np.sum(prob * temps[:, thermal.zone_index(zid)]))
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
    """Evaluate expected temperatures over a theta range, by one forward
    pass over the composed model's layers up to the largest theta."""
    thetas = tuple(theta_range)
    if not thetas:
        raise ValidationError("empty theta range")
    if min(thetas) < 1 or max(thetas) > model.horizon:
        raise ValidationError(
            f"theta range {thetas} outside 1..{model.horizon}"
        )
    expected = _forward_pass(model, thermal, gains, max(thetas))
    return TemperatureTrajectory(
        zone_ids=model.zone_ids, thetas=thetas, values=expected[list(thetas)]
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
