"""Unrolled Markov reward chains for zones and their synchronized product.

Each zone becomes a layered chain over steps 0..K+1: one initial state,
an occupied/empty pair per step 1..K, and one absorbing sink. Transitions
from step k to k+1 all carry the shared label ``t{k+1}``, so composing
zones synchronizes layer by layer and only same-step tuples are reachable:
the product has 1 + 2^N * K + 1 states for N zones. It is held as one
dense (2^N, 2^N) matrix per step, the Kronecker product of the zones' 2x2
step matrices; the list of product edges is built from them when read.

Rewards encode expected temperature. For an evaluation step ``theta``, the
initial state of zone m carries row_m(A^theta) @ T[0]; a state at step k
(1 <= k <= theta) carries row_m(A^(theta-k)) @ Q_k where Q_k[j] is the
expected heat gain produced by zone j during hour k-1 (internal gain times
the probability zone j was occupied, plus radiator gain if zone j's
heating was on). States past theta and the sink carry zero. The cumulative
reward over steps 0..theta then telescopes to the forward solution of
T[k+1] = A T[k] + Q[k], so its expectation is the expected temperature.

Gains are read from the *previous* step's labels: heat delivered during
hour k-1 raises the temperature observed at step k.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .occupancy import StepMatrix, TransitionSchedule, occupancy_marginals
from .thermal import DiscreteThermalModel, matrix_power

SINK_LABEL = "t_sink"


@dataclass(frozen=True)
class ChainState:
    """One state of an unrolled zone chain; labels are None on the sink."""

    index: int
    step: int
    occupied: bool | None
    heating_on: bool | None

    @property
    def is_sink(self) -> bool:
        return self.occupied is None


@dataclass(frozen=True)
class Transition:
    source: int
    target: int
    probability: float
    label: str


@dataclass(frozen=True)
class ZoneChain:
    """Layered occupancy chain of a single zone over horizon K."""

    zone_id: str
    horizon: int
    states: tuple[ChainState, ...]
    transitions: tuple[Transition, ...]
    initial_occupied: bool
    heating: tuple[bool, ...]  # per step 0..K
    # per step 0..K-1: P(occupied at k+1 | empty at k) and | occupied at k)
    occ_given_empty: tuple[float, ...]
    occ_given_occupied: tuple[float, ...]

    @property
    def sink_index(self) -> int:
        return 2 * self.horizon + 1

    def occupied_marginals(self) -> list[float]:
        """P(occupied at step k) for k = 0..K."""
        schedule = TransitionSchedule(tuple(
            StepMatrix(step=k, p_vf=pv, p_vv=1.0 - pv, p_ff=pf, p_fv=1.0 - pf)
            for k, (pv, pf) in enumerate(zip(self.occ_given_empty, self.occ_given_occupied))
        ))
        return occupancy_marginals(schedule, float(self.initial_occupied))

    def step_matrix(self, k: int) -> np.ndarray:
        """2x2 matrix of step k -> k+1; row and column 0 are occupied, 1 empty."""
        p_occ, p_emp = self.occ_given_occupied[k], self.occ_given_empty[k]
        return np.array([[p_occ, 1.0 - p_occ], [p_emp, 1.0 - p_emp]])


def unroll_zone(
    schedule: TransitionSchedule,
    heating: list[bool] | tuple[bool, ...],
    horizon: int,
    zone_id: str = "zone",
    initial_occupied: bool = False,
) -> ZoneChain:
    """Unroll a time-dependent occupancy schedule into a layered chain.

    ``schedule`` must provide at least ``horizon`` step matrices and
    ``heating`` one on/off bit per step 0..horizon. States follow the
    parity convention: per step, the odd index is the occupied state and
    the even index the empty one.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if len(schedule) < horizon:
        raise ValidationError(
            f"schedule covers {len(schedule)} steps but the horizon needs {horizon}"
        )
    heating = tuple(bool(h) for h in heating)
    if len(heating) < horizon + 1:
        raise ValidationError(
            f"heating covers {len(heating)} steps but steps 0..{horizon} are needed"
        )
    heating = heating[: horizon + 1]

    states: list[ChainState] = [
        ChainState(index=0, step=0, occupied=initial_occupied, heating_on=heating[0])
    ]
    for k in range(1, horizon + 1):
        states.append(ChainState(index=2 * k - 1, step=k, occupied=True, heating_on=heating[k]))
        states.append(ChainState(index=2 * k, step=k, occupied=False, heating_on=heating[k]))
    sink_index = 2 * horizon + 1
    states.append(ChainState(index=sink_index, step=horizon + 1, occupied=None, heating_on=None))

    transitions: list[Transition] = []

    def fan_out(source: ChainState, k: int) -> None:
        mat = schedule.matrix(k)
        p_occ = mat.p_ff if source.occupied else mat.p_vf
        transitions.append(Transition(source.index, 2 * (k + 1) - 1, p_occ, f"t{k + 1}"))
        transitions.append(Transition(source.index, 2 * (k + 1), 1.0 - p_occ, f"t{k + 1}"))

    fan_out(states[0], 0)
    for k in range(1, horizon):
        fan_out(states[2 * k - 1], k)
        fan_out(states[2 * k], k)
    transitions.append(Transition(2 * horizon - 1, sink_index, 1.0, f"t{horizon + 1}"))
    transitions.append(Transition(2 * horizon, sink_index, 1.0, f"t{horizon + 1}"))
    transitions.append(Transition(sink_index, sink_index, 1.0, SINK_LABEL))

    return ZoneChain(
        zone_id=zone_id,
        horizon=horizon,
        states=tuple(states),
        transitions=tuple(transitions),
        initial_occupied=initial_occupied,
        heating=heating,
        occ_given_empty=tuple(schedule.matrix(k).p_vf for k in range(horizon)),
        occ_given_occupied=tuple(schedule.matrix(k).p_ff for k in range(horizon)),
    )


@dataclass(frozen=True)
class ComposedState:
    """Synchronized tuple of same-step zone states; labels None on the sink."""

    index: int
    step: int
    occupied: tuple[bool, ...] | None
    heating_on: tuple[bool, ...] | None

    @property
    def is_sink(self) -> bool:
        return self.occupied is None


@dataclass(frozen=True)
class ComposedModel:
    """Product of zone chains synchronized on the step labels.

    ``layers[k]`` is the (2^N, 2^N) matrix of step k -> k+1 for k = 0..K-1,
    rows and columns in ``itertools.product((True, False), repeat=N)``
    order, the order of each step's states. Step 0 has only the initial
    state, whose row of ``layers[0]`` is ``initial_row``; every state at
    step K moves to the sink with probability 1.
    """

    zone_ids: tuple[str, ...]
    horizon: int
    states: tuple[ComposedState, ...]
    layers: tuple[np.ndarray, ...]
    chains: tuple[ZoneChain, ...]

    @property
    def zone_count(self) -> int:
        return len(self.zone_ids)

    @property
    def initial_row(self) -> int:
        return int("".join("0" if occ else "1" for occ in self.states[0].occupied), 2)

    @property
    def transitions(self) -> tuple[Transition, ...]:
        """Every product edge in state order, built from the layers on each read."""
        width = 2 ** self.zone_count
        sink = len(self.states) - 1
        edges = [Transition(0, 1 + t, p, "t1")
                 for t, p in enumerate(self.layers[0][self.initial_row].tolist())]
        for k in range(1, self.horizon):
            first = 1 + (k - 1) * width
            for s, row in enumerate(self.layers[k].tolist()):
                edges += [Transition(first + s, first + width + t, p, f"t{k + 1}")
                          for t, p in enumerate(row)]
        last = 1 + (self.horizon - 1) * width
        edges += [Transition(last + s, sink, 1.0, f"t{self.horizon + 1}") for s in range(width)]
        edges.append(Transition(sink, sink, 1.0, SINK_LABEL))
        return tuple(edges)

    def states_at_step(self, step: int) -> list[ComposedState]:
        return [s for s in self.states if s.step == step]

    def heating_at(self, step: int) -> tuple[bool, ...]:
        return tuple(c.heating[step] for c in self.chains)

    def occupied_marginals(self) -> np.ndarray:
        """(K+1, N) array of P(zone j occupied at step k)."""
        return np.array([c.occupied_marginals() for c in self.chains]).T


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

    # occupied before empty per zone, mirroring the odd/even state parity
    combos = list(itertools.product((True, False), repeat=len(chains)))
    states: list[ComposedState] = [
        ComposedState(
            index=0,
            step=0,
            occupied=tuple(c.initial_occupied for c in chains),
            heating_on=tuple(c.heating[0] for c in chains),
        )
    ]
    for k in range(1, horizon + 1):
        heat = tuple(c.heating[k] for c in chains)
        states += [ComposedState(index=len(states) + i, step=k, occupied=combo, heating_on=heat)
                   for i, combo in enumerate(combos)]
    states.append(ComposedState(index=len(states), step=horizon + 1, occupied=None,
                                heating_on=None))

    layers = tuple(functools.reduce(np.kron, [c.step_matrix(k) for c in chains])
                   for k in range(horizon))
    return ComposedModel(
        zone_ids=tuple(ids),
        horizon=horizon,
        states=tuple(states),
        layers=layers,
        chains=chains,
    )


@dataclass(frozen=True)
class ZoneGains:
    """Per-step temperature gains (degC per step) of one zone's heat sources."""

    q_int: float
    q_rad: float


@dataclass(frozen=True)
class RewardedModel:
    """A composed model annotated with per-zone reward vectors for one theta."""

    model: ComposedModel
    thermal: DiscreteThermalModel
    gains: dict[str, ZoneGains]
    theta: int
    # zone id -> reward value per composed state (aligned with model.states)
    rewards: dict[str, np.ndarray]

    @property
    def zone_ids(self) -> tuple[str, ...]:
        return self.model.zone_ids

    def reward(self, zone_id: str, state_index: int) -> float:
        return float(self.rewards[zone_id][state_index])


def expected_gain_vector(
    model: ComposedModel,
    gains: dict[str, ZoneGains],
    marginals: np.ndarray,
    k: int,
) -> np.ndarray:
    """Expected heat gain entering each zone during hour k-1 (for step k)."""
    heat_prev = model.heating_at(k - 1)
    out = np.empty(model.zone_count)
    for j, zid in enumerate(model.zone_ids):
        g = gains[zid]
        out[j] = g.q_int * marginals[k - 1, j] + g.q_rad * (1.0 if heat_prev[j] else 0.0)
    return out


def assign_rewards(
    model: ComposedModel,
    thermal: DiscreteThermalModel,
    gains: dict[str, ZoneGains],
    theta: int,
    zone_ids: list[str] | tuple[str, ...] | None = None,
) -> RewardedModel:
    """Attach the theta-specific reward structure for the given zones.

    ``zone_ids`` defaults to every zone in the model; passing a subset
    annotates only those reward functions (merge the results with
    :func:`relabel_and_merge_rewards`).
    """
    if not 1 <= theta <= model.horizon:
        raise ValidationError(
            f"theta must be within 1..{model.horizon}, got {theta}"
        )
    if set(model.zone_ids) != set(thermal.zone_ids):
        raise ValidationError(
            "composed model zones must match the thermal model zones: "
            f"{sorted(model.zone_ids)} vs {sorted(thermal.zone_ids)}"
        )
    targets = tuple(zone_ids) if zone_ids is not None else model.zone_ids
    for zid in targets:
        if zid not in model.zone_ids:
            raise ValidationError(f"unknown zone id {zid!r} in reward assignment")
    # the coupled gain vector needs every zone's gains, not just the targets'
    for zid in model.zone_ids:
        if zid not in gains:
            raise ValidationError(f"no gains declared for zone {zid!r}")

    thermal_rows = {zid: thermal.zone_index(zid) for zid in model.zone_ids}
    t0 = np.asarray(thermal.initial_temps, dtype=float)
    # model zone order may differ from the thermal matrix order
    order = [thermal_rows[zid] for zid in model.zone_ids]

    powers = [matrix_power(thermal.a, p) for p in range(theta + 1)]
    marginals = model.occupied_marginals()

    gain_vectors = {}
    for k in range(1, theta + 1):
        q = expected_gain_vector(model, gains, marginals, k)
        # re-express in thermal matrix order
        full = np.zeros(len(thermal.zone_ids))
        full[order] = q
        gain_vectors[k] = full

    # states per step 0..K+1; steps past theta and the sink carry zero
    counts = [1] + [2 ** model.zone_count] * model.horizon + [1]
    rewards: dict[str, np.ndarray] = {}
    for zid in targets:
        row = thermal_rows[zid]
        per_step = [float(powers[theta][row] @ t0)]
        per_step += [float(powers[theta - k][row] @ gain_vectors[k])
                     for k in range(1, theta + 1)]
        per_step += [0.0] * (model.horizon + 1 - theta)
        rewards[zid] = np.repeat(per_step, counts)

    return RewardedModel(model=model, thermal=thermal, gains=dict(gains),
                         theta=theta, rewards=rewards)


def relabel_and_merge_rewards(models: list[RewardedModel]) -> RewardedModel:
    """Merge reward annotations produced on the same composed model.

    Reward vectors are concatenated per state; zones may not repeat and
    all parts must share the model, thermal matrices and theta.
    """
    if not models:
        raise ValidationError("nothing to merge")
    base = models[0]
    merged: dict[str, np.ndarray] = {}
    for part in models:
        if part.model is not base.model and (
            part.model.zone_ids != base.model.zone_ids
            or part.model.horizon != base.model.horizon
        ):
            raise ValidationError("cannot merge rewards from different composed models")
        if part.theta != base.theta:
            raise ValidationError(
                f"theta mismatch in merge: {part.theta} != {base.theta}"
            )
        for zid, vec in part.rewards.items():
            if zid in merged:
                raise ValidationError(f"duplicate reward function for zone {zid!r}")
            merged[zid] = vec
    gains = {}
    for part in models:
        gains.update(part.gains)
    return RewardedModel(model=base.model, thermal=base.thermal, gains=gains,
                         theta=base.theta, rewards=merged)


def dump_model(rewarded: RewardedModel) -> dict:
    """JSON-friendly dump of states, labels, rewards and transitions."""
    model = rewarded.model
    return {
        "zones": list(model.zone_ids),
        "horizon": model.horizon,
        "theta": rewarded.theta,
        "states": [
            {
                "index": s.index,
                "step": s.step,
                "occupied": None if s.occupied is None else list(s.occupied),
                "heating_on": None if s.heating_on is None else list(s.heating_on),
                "rewards": {zid: rewarded.reward(zid, s.index) for zid in rewarded.rewards},
            }
            for s in model.states
        ],
        "transitions": [
            {"from": t.source, "to": t.target, "probability": t.probability, "label": t.label}
            for t in model.transitions
        ],
    }
