"""RC-network thermal model of a multi-zone building.

A building is a directed graph of zones. Each zone i carries a thermal
capacitance C_i and a resistance R_i against conductive heat flow to its
neighbours, giving one first-order ODE per zone:

    C_i * dT_i/dt = sum over neighbours j of (T_j - T_i) / R_i + Q_i

Stacking the zone equations yields the continuous state space

    dT/dt = A_hat @ T + B_hat @ Q

with A_hat[i][j] = 1/(C_i * R_i) for neighbours, rows summing to zero
(the network is closed: no outside-air node), and B_hat = diag(1/C_i).
Forward-Euler discretisation with step ``delta`` (hours) gives the
row-stochastic update matrix A = I + delta * A_hat used by the Markov
reward construction downstream.

The resistance deliberately sits on the *node*, not the edge, so the
coupling between two zones need not be symmetric.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import Name, NumericalGuardError, ValidationError, json_error, read_json
from .records import Record

ROW_SUM_TOL = 1e-12


class Zone(Record):
    """One lumped-air zone of the building."""

    id: str
    capacitance: float
    resistance: float
    initial_temp: float


class RCNetwork(Record):
    """Building topology: zones plus directed conductive edges between them."""

    zones: tuple[Zone, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        ids = [z.id for z in self.zones]
        if len(set(ids)) != len(ids):
            raise ValidationError("zone ids must be unique")
        known = set(ids)
        for z in self.zones:
            if not z.capacitance > 0:
                raise ValidationError(f"zone {z.id!r}: non-positive capacitance {z.capacitance}")
            if not z.resistance > 0:
                raise ValidationError(f"zone {z.id!r}: non-positive resistance {z.resistance}")
        for a, b in self.edges:
            if a not in known or b not in known:
                raise ValidationError(f"edge ({a!r}, {b!r}) references an undeclared zone")
            if a == b:
                raise ValidationError(f"self-edge on zone {a!r} is not allowed")

    @property
    def zone_ids(self) -> tuple[str, ...]:
        return tuple(z.id for z in self.zones)


class ContinuousStateSpace(Record):
    """Continuous-time model dT/dt = a_hat @ T + b_hat @ Q (1/hour units)."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    zone_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.a_hat, dtype=float)
        row_sums = np.abs(a.sum(axis=1))
        # rounding leaves a row's sum off by an amount that grows with its
        # entries, so the tolerance scales with the row's largest magnitude
        # where that is above 1; an infinite sum fails the check
        if ((row_sums > ROW_SUM_TOL * np.abs(a).max(axis=1, initial=1.0)).any()
                or np.isinf(row_sums).any()):
            raise ValidationError("a_hat rows must sum to 0 for a closed network")
        # a coupling below 0 is a negative entry that is not on the diagonal, so
        # counting the negative entries of a and of its diagonal finds one
        diagonal = a.diagonal()
        if (np.count_nonzero(a < 0.0) > np.count_nonzero(diagonal < 0.0)
                or (diagonal > 0.0).any()):
            raise ValidationError(
                "a_hat must have non-negative couplings and non-positive diagonal"
            )
        # off the diagonal every entry is 0 (NaN is not), and on it each is
        # positive and finite
        b = np.asarray(self.b_hat, dtype=float)
        diagonal = b.diagonal()
        if (np.count_nonzero(b != 0.0) > np.count_nonzero(diagonal != 0.0)
                or not ((diagonal > 0.0) & (diagonal < np.inf)).all()):
            raise ValidationError("b_hat must be diagonal with positive entries")


class DiscreteThermalModel(Record):
    """Discrete per-hour update T[k+1] = a @ T[k] + gains, plus initial temps.

    ``a``, ``b`` and ``initial_temps`` must be finite, and ``a`` entries
    must lie in [0, 1]; constructing one outside that range (an unstable
    Euler step) is a hard error because the reward weights downstream rely
    on a non-negative ``a``.
    """

    a: np.ndarray
    b: np.ndarray
    delta: float
    initial_temps: np.ndarray
    zone_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        n = len(self.zone_ids)
        for name in ("a", "b"):
            shape = np.shape(getattr(self, name))
            if shape != (n, n):
                raise ValidationError(f"{name} must be {n}x{n}, got {shape}")
        if not self.delta > 0:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        for name in ("a", "b", "initial_temps"):
            if not np.isfinite(np.asarray(getattr(self, name), dtype=float)).all():
                raise ValidationError(f"{name} must hold finite numbers only")
        # the least and greatest entries, with no boolean array per bound
        if not 0.0 <= a.min(initial=0.0) or not a.max(initial=0.0) <= 1.0:
            raise NumericalGuardError(
                "unstable discretisation: entries of a fall outside [0, 1]; "
                "use a smaller step length"
            )
        if len(np.asarray(self.initial_temps)) != n:
            raise ValidationError("initial_temps length must match the zone count")

    def zone_index(self, zone_id: str) -> int:
        try:
            return self.zone_ids.index(zone_id)
        except ValueError:
            raise ValidationError(f"unknown zone id {zone_id!r}") from None


def build_state_space(network: RCNetwork) -> ContinuousStateSpace:
    """Assemble the continuous matrices from the RC topology.

    Off-diagonal entries are 1/(C_i * R_i) for declared edges (i, j), the
    diagonal closes each row to zero, and b_hat = diag(1/C_i).
    """
    ids = network.zone_ids
    n = len(ids)
    index = {zid: i for i, zid in enumerate(ids)}
    zones = network.zones
    rows = [index[a] for a, _ in network.edges]
    a_hat = np.zeros((n, n))
    # a product C*R that underflows leaves an infinite coupling, a row of
    # couplings whose sum overflows an infinite diagonal, and a subnormal C an
    # infinite 1/C: each is named below
    with np.errstate(divide="ignore", over="ignore"):
        coupling = 1.0 / np.array([z.capacitance * z.resistance for z in zones])
        a_hat[rows, [index[b] for _, b in network.edges]] = coupling[rows]
        np.fill_diagonal(a_hat, -a_hat.sum(axis=1))  # each row's sum, its diagonal still zero
        heating = 1.0 / np.array([z.capacitance for z in zones])
    overflowed = np.flatnonzero(np.isinf(a_hat.diagonal()))
    if len(overflowed):
        z = zones[overflowed[0]]
        raise ValidationError(f"zone {z.id!r}: the couplings 1/(C*R) of capacitance "
                              f"{z.capacitance} and resistance {z.resistance} overflow")
    overflowed = np.flatnonzero(np.isinf(heating))
    if len(overflowed):
        z = zones[overflowed[0]]
        raise ValidationError(f"zone {z.id!r}: 1/C of capacitance {z.capacitance} overflows")
    return ContinuousStateSpace(a_hat=a_hat, b_hat=np.diag(heating), zone_ids=ids)


def discretize_forward_euler(
    ss: ContinuousStateSpace,
    delta: float,
    initial_temps: np.ndarray | None = None,
) -> DiscreteThermalModel:
    """Forward-Euler step: a = I + delta * a_hat, b = delta * b_hat; the
    model rejects a delta that is not positive, and a positive one that
    overflows an entry is named with the zone of the entry's row."""
    with np.errstate(over="ignore"):
        a = delta * np.asarray(ss.a_hat, dtype=float)
        b = delta * np.asarray(ss.b_hat, dtype=float)
    # each row's diagonal is its largest entry in magnitude, so an entry that
    # overflows leaves its row's diagonal infinite too
    overflowed = np.flatnonzero(np.isinf(a.diagonal()) | np.isinf(b.diagonal()))
    if delta > 0 and len(overflowed):
        raise ValidationError(f"zone {ss.zone_ids[overflowed[0]]!r}: delta {delta} times "
                              f"its rates 1/(C*R) or 1/C overflows")
    # I + delta * a_hat without building I: the identity's zeros turn a -0.0
    # into 0.0, and 1.0 + x has the bits of x + 1.0
    a += 0.0
    a.flat[::len(a) + 1] += 1.0
    if initial_temps is None:
        initial_temps = np.zeros(len(ss.zone_ids))
    return DiscreteThermalModel(
        a=a,
        b=b,
        delta=delta,
        initial_temps=np.asarray(initial_temps, dtype=float),
        zone_ids=ss.zone_ids,
    )


BUILDING_SCHEMA = {
    "zones": [{"id": Name, "capacitance": float, "resistance": float, "initial_temp": float}],
    "edges?": [("two zone ids", str, str)],
    "delta?": float,
    "explicit_discrete?": {"a": [[float]], "b": [[float]], "delta?": float},
}


def load_building(path: str | Path) -> tuple[RCNetwork, DiscreteThermalModel]:
    """Load a building topology JSON file and derive its discrete model.

    The file matches :data:`BUILDING_SCHEMA`, read by
    :func:`errors.read_json`::

        {
          "zones": [{"id": "...", "capacitance": x, "resistance": x,
                     "initial_temp": x}, ...],
          "edges": [["z1", "z2"], ...],
          "delta": x,
          "explicit_discrete": {"a": [[...]], "b": [[...]], "delta": x}
        }

    ``zones`` holds at least one zone. Ids are names (:class:`errors.Name`)
    and every ``x`` and matrix entry a finite JSON number. ``edges`` and
    ``delta`` (1 by default) are optional. ``explicit_discrete`` is
    optional too; when present it overrides the forward-Euler derivation
    and its matrices, whose rows must be of equal length, are taken
    literally (in the zone order of the ``zones`` list).
    """
    path = Path(path)
    raw = read_json(path, "building", BUILDING_SCHEMA)
    if not raw["zones"]:
        raise json_error(path, ("zones",), "expected at least one zone")
    zones = tuple(Zone(z["id"], float(z["capacitance"]), float(z["resistance"]),
                       float(z["initial_temp"])) for z in raw["zones"])
    network = RCNetwork(zones=zones, edges=tuple(map(tuple, raw.get("edges", ()))))
    initial = np.array([z.initial_temp for z in zones])

    explicit = raw.get("explicit_discrete")
    if explicit is not None:
        for key in ("a", "b"):
            if len({len(row) for row in explicit[key]}) > 1:
                raise json_error(path, ("explicit_discrete", key), "expected rows of equal length")
        return network, DiscreteThermalModel(
            a=np.array(explicit["a"], dtype=float),
            b=np.array(explicit["b"], dtype=float),
            delta=float(explicit.get("delta", 1.0)),
            initial_temps=initial,
            zone_ids=network.zone_ids,
        )
    delta = float(raw.get("delta", 1.0))
    return network, discretize_forward_euler(build_state_space(network), delta, initial)
