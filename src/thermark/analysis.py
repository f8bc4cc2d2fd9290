"""Expected zone temperatures as expected cumulative rewards.

Three evaluation routes are provided:

* :func:`temperature_trajectory` runs one forward pass over the composed
  chain's per-step zone factors. Over the 2^N states s of step k the pass
  carries p_k(s) = P(X_k = s) and m_k(s) = E[T_k 1{X_k = s}], and steps
  them with m_{k+1} = P_k^T (m_k A^T + p_k g_k) and p_{k+1} = p_k P_k,
  where g_k(s) is the heat gain of state s during hour k (its own
  occupancy bits and the step's heating bits). P_k is the Kronecker
  product of the zones' 2x2 step matrices, so it is applied one zone axis
  at a time, in O(N 2^N) per carried column, and never built.
  E[T_theta] is the sum of m_theta over the states, so the route reads
  every factor :func:`thermark.markov.compose` stacked, and one pass up to
  the largest theta serves every theta. It never reads the rewards.
* :func:`direct_expected_temperatures` skips the composed model entirely:
  because the expected gain at step k only needs each zone's occupancy
  marginal at step k-1 and the deterministic heating bit, the whole
  trajectory is the forward recursion E[k+1] = A @ E[k] + Q[k+1], costing
  O(N^2) per step. Given a stack of heating arrays, one recursion steps
  every strategy with one stacked product per step.
* :func:`brute_force_expected_temperature` enumerates every occupancy
  path, runs the per-path temperature recursion, and averages under the
  exact path measure. It is deliberately built from the zone chains' raw
  transition probabilities and gains rather than the factors or the
  assigned rewards, so agreement with the forward pass validates
  :func:`thermark.markov.compose`. It alone takes a
  :class:`thermark.markov.RewardedModel`, for its theta, thermal model and gains.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NumericalGuardError, ValidationError
from .markov import ComposedModel, RewardedModel, ZoneGains, _check_zones
from .records import Record
from .thermal import DiscreteThermalModel

ORACLE_MAX_PATH_BITS = 22


def direct_expected_temperatures(
    thermal: DiscreteThermalModel,
    gains: dict[str, ZoneGains],
    marginals: np.ndarray,
    heating: np.ndarray,
    thetas: list[int] | tuple[int, ...] | range,
) -> np.ndarray:
    """Expected temperatures without building the composed model.

    ``marginals`` is a (K+1, N) array in the thermal model's zone order,
    P(zone occupied at step k). ``heating`` holds the heating bit at step
    k, either as one (K+1, N) array or as a stack (S, K+1, N) of S
    strategies' arrays. Returns an array of shape (len(thetas), N), or
    (S, len(thetas), N) for a stack: one recursion steps every strategy,
    each with the same matrix-vector product a lone strategy gets.
    """
    thetas = list(thetas)
    if not thetas:
        raise ValidationError("empty theta range")
    marginals = np.asarray(marginals, dtype=float)
    heat = np.asarray(heating, dtype=float)
    stacked = heat.ndim == 3
    if not stacked:
        heat = heat[None]
    n = len(thermal.zone_ids)
    if marginals.shape[1] != n or heat.ndim != 3 or heat.shape[2] != n:
        raise ValidationError("marginals/heating column count must match the zone count")
    max_theta = max(thetas)
    if min(thetas) < 1 or max_theta > marginals.shape[0] - 1 or max_theta > heat.shape[1] - 1:
        raise ValidationError("theta range exceeds the available schedule steps")

    q_int = np.array([gains[zid].q_int for zid in thermal.zone_ids])
    q_rad = np.array([gains[zid].q_rad for zid in thermal.zone_ids])
    a = np.asarray(thermal.a, dtype=float)

    # expected[k, s] is strategy s's E[T_k] as an (N, 1) column
    expected = np.empty((max_theta + 1, len(heat), n, 1))
    expected[0, :, :, 0] = thermal.initial_temps
    # gains near the float limit overflow to inf or nan without a warning;
    # the comfort checks reject the non-finite trajectory with one error line
    with np.errstate(over="ignore", invalid="ignore"):
        # gain[k - 1, s], produced during hour k - 1, enters at step k
        gain = (q_int * marginals[:max_theta, None] + q_rad * heat[:, :max_theta].swapaxes(0, 1))
        for before, after, produced in zip(expected, expected[1:], gain[..., None]):
            np.matmul(a, before, out=after)
            after += produced
    values = expected[thetas, :, :, 0].swapaxes(0, 1)
    return values if stacked else values[0]


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
    if theta != rewarded.theta:
        raise ValidationError(
            f"rewards were assigned for theta={rewarded.theta}, not theta={theta}"
        )
    model = rewarded.model
    n = model.zone_count
    if n * model.horizon > ORACLE_MAX_PATH_BITS:
        raise NumericalGuardError(
            f"path enumeration over {n} zones x {model.horizon} steps exceeds "
            f"2^{ORACLE_MAX_PATH_BITS} paths; use temperature_trajectory instead"
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


class TemperatureTrajectory(Record):
    """Expected temperature per (theta, zone)."""

    zone_ids: tuple[str, ...]
    thetas: tuple[int, ...]
    values: np.ndarray  # (len(thetas), len(zone_ids))


def temperature_trajectory(
    model: ComposedModel,
    thermal: DiscreteThermalModel,
    gains: dict[str, ZoneGains],
    theta_range: list[int] | tuple[int, ...] | range,
) -> TemperatureTrajectory:
    """Evaluate expected temperatures over a theta range, in the model's
    zone order, by one forward pass over the composed model's factors up
    to the largest theta (see the module docstring)."""
    thetas = tuple(theta_range)
    if not thetas:
        raise ValidationError("empty theta range")
    if min(thetas) < 1 or max(thetas) > model.horizon:
        raise ValidationError(
            f"theta range {thetas} outside 1..{model.horizon}"
        )
    zone_ids = model.zone_ids
    n = len(zone_ids)
    _check_zones(zone_ids, thermal, gains)
    # A and T0 permuted from thermal order into chain order
    order = [thermal.zone_index(zid) for zid in zone_ids]
    a_t = np.asarray(thermal.a, dtype=float)[np.ix_(order, order)].T
    t0 = np.asarray(thermal.initial_temps, dtype=float)[order]
    # occupant gain of every state of a step, rows in state order
    occupant = np.array(list(itertools.product((1.0, 0.0), repeat=n)))
    occupant *= [gains[zid].q_int for zid in zone_ids]
    q_rad = np.array([gains[zid].q_rad for zid in zone_ids])

    # carried[:, :n] is m_k and carried[:, n] is p_k
    start = int("".join("0" if c.initial_occupied else "1" for c in model.chains), 2)
    carried = np.zeros((2 ** n, n + 1))
    carried[start] = [*t0, 1.0]
    expected = [t0]
    for k in range(max(thetas)):
        m, p = carried[:, :n], carried[:, n:]
        gain = occupant + q_rad * np.array(model.heating_at(k), dtype=float)
        carried = np.concatenate([m @ a_t + p * gain, p], axis=1)
        # P_k^T one zone at a time: zone j's bit is axis 1 of this view
        for j, factor in enumerate(model.factors[k]):
            carried = np.matmul(factor.T, carried.reshape(2 ** j, 2, -1)).reshape(2 ** n, -1)
        expected.append(carried[:, :n].sum(axis=0))
    return TemperatureTrajectory(
        zone_ids=zone_ids, thetas=thetas, values=np.array(expected)[list(thetas)]
    )


def comfort_check(values: np.ndarray, band: tuple[float, float]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Classify every point of a (S, len(thetas), N) stack of trajectories
    against [low, high]. Ties are within, and a non-finite value or band
    edge is rejected before any point is classified.

    Returns the (S, len(thetas), N) masks of the points below and above
    the band (a point in neither is within), then the (S, N) masks of the
    zones each strategy ever takes below and ever takes above it.
    """
    low, high = band
    if not -np.inf < low < high < np.inf:
        raise ValidationError(f"band must be finite with low below high, got {band}")
    if not np.isfinite(values).all():
        raise ValidationError("trajectory holds a non-finite temperature")
    below, above = values < low, values > high
    return below, above, below.any(axis=1), above.any(axis=1)
