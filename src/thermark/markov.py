"""Unrolled Markov reward chains for zones and their synchronized product.

Each zone becomes a layered chain over steps 0..K+1: one initial state,
an occupied/empty pair per step 1..K, and one absorbing sink. Transitions
from step k to k+1 all carry the shared label ``t{k+1}``, so composing
zones synchronizes layer by layer and only same-step tuples are reachable:
the product has 1 + 2^N * K + 1 states for N zones. A zone chain is held
as its per-step probabilities and the product as the zones' 2x2 step
matrices, one (N, 2, 2) stack per step: the product's step matrix is
their Kronecker product, which :meth:`ComposedModel.edges` builds one
step at a time to yield every product edge.

Rewards encode expected temperature and depend only on the step, so they
are held as one value per step and zone, computed from the zone chains
alone by :func:`step_reward_table`; every state of a step carries its
step's value. For an evaluation step ``theta``, the initial state of zone
m carries (A^theta T[0])[m]; a state at step k (1 <= k <= theta) carries
(A^(theta-k) Q_k)[m] where Q_k[j] is the expected heat gain produced by
zone j during hour k-1 (internal gain times the probability zone j was
occupied, plus radiator gain if zone j's heating was on). States past
theta and the sink carry zero. The cumulative reward over steps 0..theta
then telescopes to the forward solution of T[k+1] = A T[k] + Q[k], so its
expectation is the expected temperature. Column k at theta+1 is A times
column k at theta, so the table is that recursion on columns (Horner's rule).

Gains are read from the *previous* step's labels: heat delivered during
hour k-1 raises the temperature observed at step k.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .occupancy import TransitionSchedule
from .records import Record
from .thermal import DiscreteThermalModel

SINK_LABEL = "t_sink"


class ZoneChain(Record):
    """Layered occupancy chain of a single zone over horizon K, held as its
    per-step occupancy probabilities and heating bits."""

    zone_id: str
    horizon: int
    initial_occupied: bool
    heating: tuple[bool, ...]  # per step 0..K
    # per step 0..K-1: P(occupied at k+1 | empty at k) and | occupied at k)
    occ_given_empty: tuple[float, ...]
    occ_given_occupied: tuple[float, ...]

    def step_matrix(self, k: int) -> np.ndarray:
        """2x2 matrix of step k -> k+1; row and column 0 are occupied, 1 empty."""
        p_occ, p_emp = self.occ_given_occupied[k], self.occ_given_empty[k]
        return np.array([[p_occ, 1.0 - p_occ], [p_emp, 1.0 - p_emp]])


def occupied_marginals(
    p_vf: np.ndarray | Sequence[Sequence[float]],
    p_ff: np.ndarray | Sequence[Sequence[float]],
    initial_occupied: Sequence[bool],
) -> np.ndarray:
    """P(occupied at step k) of N zones for k = 0..K, an (N, K+1) array,
    from the rows of their (N, K) step probabilities (as for
    :func:`unroll_zones`) and their start labels. One recursion steps every
    zone at once, m[k+1] = m[k]*p_ff[k] + (1-m[k])*p_vf[k], with the float
    operations, in their order, of a loop over one zone."""
    p_vf, p_ff = np.asarray(p_vf, dtype=float), np.asarray(p_ff, dtype=float)
    m = np.empty((p_vf.shape[1] + 1, len(p_vf)))
    m[0] = initial_occupied
    rows = list(m)
    for prev, following, f, v in zip(rows, rows[1:], p_ff.T, p_vf.T):
        np.add(prev * f, (1.0 - prev) * v, out=following)
    return m.T


# perfbench/checks.py reads this function; the CLI unrolls with unroll_zones
def unroll_zone(
    schedule: TransitionSchedule,
    heating: list[bool] | tuple[bool, ...],
    horizon: int,
    zone_id: str = "zone",
    initial_occupied: bool = False,
) -> ZoneChain:
    """Unroll a time-dependent occupancy schedule into a layered chain.

    ``schedule`` must provide at least ``horizon`` step matrices and
    ``heating`` one on/off bit per step 0..horizon.
    """
    (chain,) = unroll_zones((zone_id,), [[m.p_vf for m in schedule.matrices]],
                            [[m.p_ff for m in schedule.matrices]], [heating], horizon,
                            [initial_occupied])
    return chain


def unroll_zones(
    zone_ids: Sequence[str],
    p_vf: np.ndarray | Sequence[Sequence[float]],
    p_ff: np.ndarray | Sequence[Sequence[float]],
    heating: Sequence[Sequence[bool]],
    horizon: int,
    initial_occupied: Sequence[bool],
) -> list[ZoneChain]:
    """One layered chain per zone, from the rows of its step probabilities.

    Row m of the ``(N, steps)`` arrays ``p_vf`` and ``p_ff`` holds zone
    ``zone_ids[m]``'s P(occupied at k+1 | empty at k) and | occupied at k)
    for each step k; they must cover at least ``horizon`` steps, and
    ``heating[m]`` must give one on/off bit per step 0..horizon.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    p_vf, p_ff = np.asarray(p_vf, dtype=float), np.asarray(p_ff, dtype=float)
    if p_vf.shape[1] < horizon:
        raise ValidationError(
            f"schedule covers {p_vf.shape[1]} steps but the horizon needs {horizon}"
        )
    chains = []
    for zone_id, bits, start, occ_given_empty, occ_given_occupied in zip(
            zone_ids, heating, initial_occupied, p_vf[:, :horizon].tolist(),
            p_ff[:, :horizon].tolist()):
        bits = tuple(map(bool, bits))
        if len(bits) < horizon + 1:
            raise ValidationError(
                f"heating covers {len(bits)} steps but steps 0..{horizon} are needed"
            )
        chains.append(ZoneChain(zone_id=zone_id, horizon=horizon, initial_occupied=start,
                                heating=bits[:horizon + 1],
                                occ_given_empty=tuple(occ_given_empty),
                                occ_given_occupied=tuple(occ_given_occupied)))
    return chains


class ComposedState(Record):
    """Synchronized tuple of same-step zone states; labels None on the sink."""

    index: int
    step: int
    occupied: tuple[bool, ...] | None
    heating_on: tuple[bool, ...] | None


class ComposedModel(Record):
    """Product of zone chains synchronized on the step labels.

    ``factors[k, j]`` is ``chains[j].step_matrix(k)``, zone j's 2x2 matrix
    of step k -> k+1 for k = 0..K-1. The product's matrix of step k is the
    Kronecker product of ``factors[k]`` in chain order, rows and columns in
    ``itertools.product((True, False), repeat=N)`` order, the order of
    each step's states. Step 0 has only the initial state, and every state
    at step K moves to the sink with probability 1.
    """

    zone_ids: tuple[str, ...]
    horizon: int
    factors: np.ndarray  # (K, N, 2, 2)
    chains: tuple[ZoneChain, ...]

    @property
    def zone_count(self) -> int:
        return len(self.zone_ids)

    @property
    def states(self) -> tuple[ComposedState, ...]:
        """Every product state in index order, built from the chains on each read."""
        combos = list(itertools.product((True, False), repeat=self.zone_count))
        states = [ComposedState(0, 0, tuple(c.initial_occupied for c in self.chains),
                                self.heating_at(0))]
        for k in range(1, self.horizon + 1):
            heat = self.heating_at(k)
            states += [ComposedState(len(states) + i, k, combo, heat)
                       for i, combo in enumerate(combos)]
        states.append(ComposedState(len(states), self.horizon + 1, None, None))
        return tuple(states)

    def edges(self) -> Iterator[tuple[int, int, float, str]]:
        """Every product edge as (source, target, probability, label), in
        state order, walked one row at a time from each step's Kronecker
        layer, built while that step is walked."""
        width = 2 ** self.zone_count
        start = int("".join("0" if c.initial_occupied else "1" for c in self.chains), 2)
        for k, factors in enumerate(self.factors):
            layer, label = functools.reduce(np.kron, factors), f"t{k + 1}"
            # step 0 holds only the initial state, so only its row is walked
            rows = enumerate(layer) if k else [(0, layer[start])]
            first = 1 + (k - 1) * width if k else 0
            for s, row in rows:
                for t, p in enumerate(row.tolist()):
                    yield first + s, 1 + k * width + t, p, label
        last, sink = 1 + (self.horizon - 1) * width, 1 + self.horizon * width
        for s in range(width):
            yield last + s, sink, 1.0, f"t{self.horizon + 1}"
        yield sink, sink, 1.0, SINK_LABEL

    def heating_at(self, step: int) -> tuple[bool, ...]:
        return tuple(c.heating[step] for c in self.chains)


# perfbench/checks.py reads this function, as does the CLI's --dump-chain
def compose(chains: list[ZoneChain] | tuple[ZoneChain, ...]) -> ComposedModel:
    """Synchronized product of zone chains sharing one horizon.

    Transition probabilities multiply across zones on the shared label.
    Zero-probability branches are kept: reachability is structural, so the
    state count is always 1 + 2^N * K + 1.
    """
    chains = tuple(chains)
    if not chains:
        raise ValidationError("compose needs at least one chain")
    ids = [c.zone_id for c in chains]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate zone ids in composition: {ids}")
    horizon = chains[0].horizon
    for c in chains[1:]:
        if c.horizon != horizon:
            raise ValidationError(
                f"mismatched horizons: {chains[0].zone_id}={horizon}, {c.zone_id}={c.horizon}"
            )
    factors = np.array([[c.step_matrix(k) for c in chains] for k in range(horizon)])
    factors.flags.writeable = False
    return ComposedModel(zone_ids=tuple(ids), horizon=horizon, factors=factors, chains=chains)


class ZoneGains(Record):
    """Per-step temperature gains (degC per step) of one zone's heat sources."""

    q_int: float
    q_rad: float


def expected_gains(gains: dict[str, ZoneGains], zone_ids: Sequence[str],
                   marginals: np.ndarray, heating: np.ndarray) -> np.ndarray:
    """Expected heat gain of ``zone_ids``, the last axis of ``marginals`` and
    ``heating``: internal gain by occupancy marginal plus radiator gain by bit."""
    q_int = np.array([gains[zid].q_int for zid in zone_ids])
    q_rad = np.array([gains[zid].q_rad for zid in zone_ids])
    return q_int * marginals + q_rad * heating


def forward_recursion(a: np.ndarray, start: np.ndarray, added: np.ndarray) -> np.ndarray:
    """x[0] = start and x[k+1] = a @ x[k] + added[k], stacked as x[0..len(added)]:
    the thermal recursion on columns. Each x[k] has the shape of ``added[k]``,
    an (N, c) block or a stack of them, and ``start`` is broadcast to it."""
    x = np.empty((len(added) + 1, *added.shape[1:]))
    x[0] = start
    for before, after, term in zip(x, x[1:], added):
        np.matmul(a, before, out=after)
        after += term
    return x


# perfbench/checks.py reads this record, through assign_rewards
class RewardedModel(Record):
    """A composed model with per-zone, per-step rewards for one theta: the oracle's input."""

    model: ComposedModel
    thermal: DiscreteThermalModel
    gains: dict[str, ZoneGains]
    theta: int
    # zone id -> reward at each step 0..K+1, carried by every state of the step
    rewards: dict[str, np.ndarray]


def _check_zones(zone_ids: tuple[str, ...], thermal: DiscreteThermalModel,
                 gains: dict[str, ZoneGains]) -> None:
    if set(zone_ids) != set(thermal.zone_ids):
        raise ValidationError(
            "chain zones must match the thermal model zones: "
            f"{sorted(zone_ids)} vs {sorted(thermal.zone_ids)}"
        )
    # the coupled gain vector needs every zone's gains
    for zid in zone_ids:
        if zid not in gains:
            raise ValidationError(f"no gains declared for zone {zid!r}")


def step_reward_table(
    chains: list[ZoneChain] | tuple[ZoneChain, ...],
    thermal: DiscreteThermalModel,
    gains: dict[str, ZoneGains],
    thetas: list[int] | tuple[int, ...] | range,
    marginals: np.ndarray | None = None,
) -> np.ndarray:
    """Per-step reward of every zone, for each evaluation step in ``thetas``.

    Returns a (len(thetas), N, K+2) array in chain order: entry [t, m, k]
    is zone m's reward at step k (0..K+1, the sink last) for
    ``thetas[t]``. The occupancy marginals, the chains'
    :func:`occupied_marginals` unless the caller passes that (N, K+1)
    array, and one :func:`forward_recursion` to max(theta) serve all thetas.
    """
    chains = tuple(chains)
    if not chains:
        raise ValidationError("rewards need at least one chain")
    zone_ids = tuple(c.zone_id for c in chains)
    horizon = chains[0].horizon
    thetas = list(thetas)
    for theta in thetas:
        if not 1 <= theta <= horizon:
            raise ValidationError(f"theta must be within 1..{horizon}, got {theta}")
    _check_zones(zone_ids, thermal, gains)

    # chain order may differ from the thermal matrix order
    index = {zid: i for i, zid in enumerate(thermal.zone_ids)}
    rows = [index[zid] for zid in zone_ids]  # _check_zones found each one there
    if marginals is None:
        marginals = occupied_marginals([c.occ_given_empty for c in chains],
                                       [c.occ_given_occupied for c in chains],
                                       [c.initial_occupied for c in chains])
    width = max(thetas, default=0) + 1  # the columns of steps 0..max(theta)

    # gains near the float limit overflow to inf or nan without a warning;
    # the PRISM renderer rejects a non-finite entry with one error line
    with np.errstate(over="ignore", invalid="ignore"):
        gain = expected_gains(gains, zone_ids, marginals[:, :width - 1].T,
                              np.array([c.heating[:width - 1] for c in chains], dtype=float).T)
        # in thermal order, T[0] starts column 0 and gain[k - 1], entering at step k, column k
        start = np.zeros((len(rows), width))
        start[:, 0] = thermal.initial_temps
        added = np.zeros((width - 1, len(rows), width))
        steps = np.arange(1, width)[:, None]
        added[steps - 1, rows, steps] = gain
        blocks = forward_recursion(np.asarray(thermal.a, dtype=float), start, added)
    # a column past theta is a @ 0 + 0.0 at every step, an exact 0.0, as a is finite
    table = np.zeros((len(thetas), len(chains), horizon + 2))
    table[:, :, :width] = blocks[thetas][:, rows]
    return table


# perfbench/checks.py reads this function
def assign_rewards(
    model: ComposedModel,
    thermal: DiscreteThermalModel,
    gains: dict[str, ZoneGains],
    theta: int,
) -> RewardedModel:
    """Attach the theta-specific reward of every zone at every step."""
    (table,) = step_reward_table(model.chains, thermal, gains, (theta,))
    return RewardedModel(model=model, thermal=thermal, gains=dict(gains),
                         theta=theta, rewards=dict(zip(model.zone_ids, table)))


def dump_model(model: ComposedModel, rewards: np.ndarray, theta: int) -> Iterator[str]:
    """The text ``json.dumps(..., indent=2, sort_keys=True)`` gives for the
    zones, horizon, theta, every state with its labels and rewards, and
    every edge, yielded in pieces from the states and
    :meth:`ComposedModel.edges`, so no edge is held as an object.
    ``rewards`` is theta's (N, K+2) row of :func:`step_reward_table`."""
    per_step = [dict(zip(model.zone_ids, column)) for column in np.asarray(rewards).T.tolist()]

    def nested(value, depth: int) -> str:  # as json.dumps writes it depth levels down
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)

    yield f'{{\n  "horizon": {model.horizon},\n  "states": [\n'
    yield ",\n".join("    " + nested({
        "index": s.index, "step": s.step, "occupied": s.occupied,
        "heating_on": s.heating_on, "rewards": per_step[s.step],
    }, 2) for s in model.states)
    yield f'\n  ],\n  "theta": {theta},\n  "transitions": [\n'
    # a finite float's repr is its JSON text, and labels need no escaping
    edges = (f'    {{\n      "from": {source},\n      "label": "{label}",\n'
             f'      "probability": {p!r},\n      "to": {target}\n    }}'
             for source, target, p, label in model.edges())
    separator = ""
    while piece := ",\n".join(itertools.islice(edges, 4096)):
        yield separator + piece
        separator = ",\n"
    yield f'\n  ],\n  "zones": {nested(list(model.zone_ids), 1)}\n}}\n'
