"""Expected zone temperatures as expected cumulative rewards.

:func:`direct_expected_temperatures` is the one evaluation route. It
never builds the composed model: the expected gain at step k only needs
each zone's occupancy marginal at step k-1 and the deterministic heating
bit, so the whole trajectory is the forward recursion
E[k+1] = A @ E[k] + Q[k+1], costing O(N^2) per step: the loop of
:func:`thermark.markov.forward_recursion`, which the PRISM reward table
runs on its reward columns, here run on one (N, 1) column per strategy.

:func:`brute_force_expected_temperature` is an exhaustive check of it,
kept here because the benchmark's correctness check calls it. It
enumerates every occupancy path, runs the per-path temperature recursion
and averages under the exact path measure. It is built from the zone
chains' raw transition probabilities and gains rather than the composed
model's factors or the assigned rewards, and it alone takes a
:class:`thermark.markov.RewardedModel`, for its theta, thermal model and
gains. The tests hold a third route, the forward pass over the composed
model's factors, which checks :func:`thermark.markov.compose` against both.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NumericalGuardError, ValidationError
from .markov import RewardedModel, ZoneGains, expected_gains, forward_recursion
from .thermal import DiscreteThermalModel

ORACLE_MAX_PATH_BITS = 22  # the guard of the path oracle, which perfbench/checks.py reads


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
    heat = heat if stacked else heat[None]
    n = len(thermal.zone_ids)
    if marginals.shape[1] != n or heat.ndim != 3 or heat.shape[2] != n:
        raise ValidationError("marginals/heating column count must match the zone count")
    max_theta = max(thetas)
    if min(thetas) < 1 or max_theta > marginals.shape[0] - 1 or max_theta > heat.shape[1] - 1:
        raise ValidationError("theta range exceeds the available schedule steps")

    # gains near the float limit overflow to inf or nan without a warning;
    # the comfort checks reject the non-finite trajectory with one error line
    with np.errstate(over="ignore", invalid="ignore"):
        # gain[k - 1, s], produced during hour k - 1, enters at step k
        gain = expected_gains(gains, thermal.zone_ids, marginals[:max_theta, None],
                              heat[:, :max_theta].swapaxes(0, 1))
        # expected[k, s] is strategy s's E[T_k] as an (N, 1) column
        expected = forward_recursion(np.asarray(thermal.a, dtype=float),
                                     np.reshape(thermal.initial_temps, (n, 1)), gain[..., None])
    values = expected[thetas, :, :, 0].swapaxes(0, 1)
    return values if stacked else values[0]


# perfbench/checks.py reads this function
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
            f"2^{ORACLE_MAX_PATH_BITS} paths; use direct_expected_temperatures instead"
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
