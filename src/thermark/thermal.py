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

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericalGuardError, ValidationError

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Zone:
    """One lumped-air zone of the building."""

    id: str
    capacitance: float
    resistance: float
    initial_temp: float


@dataclass(frozen=True)
class RCNetwork:
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

    def neighbours(self, zone_id: str) -> tuple[str, ...]:
        return tuple(b for a, b in self.edges if a == zone_id)


@dataclass(frozen=True)
class ContinuousStateSpace:
    """Continuous-time model dT/dt = a_hat @ T + b_hat @ Q (1/hour units)."""

    a_hat: np.ndarray
    b_hat: np.ndarray
    zone_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.a_hat, dtype=float)
        row_sums = a.sum(axis=1)
        if np.max(np.abs(row_sums), initial=0.0) > ROW_SUM_TOL:
            raise ValidationError("a_hat rows must sum to 0 for a closed network")
        off_diag = a - np.diag(np.diag(a))
        if np.any(off_diag < 0.0) or np.any(np.diag(a) > 0.0):
            raise ValidationError(
                "a_hat must have non-negative couplings and non-positive diagonal"
            )
        b = np.asarray(self.b_hat, dtype=float)
        if np.any(b - np.diag(np.diag(b)) != 0.0) or np.any(np.diag(b) <= 0.0):
            raise ValidationError("b_hat must be diagonal with positive entries")


@dataclass(frozen=True)
class DiscreteThermalModel:
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
    derived: bool = True

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        n = len(self.zone_ids)
        if a.shape != (n, n):
            raise ValidationError(f"a must be {n}x{n}, got {a.shape}")
        if not self.delta > 0:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        for name in ("a", "b", "initial_temps"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise ValidationError(f"{name} must hold finite numbers only")
        if np.any(a < 0.0) or np.any(a > 1.0):
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
    a_hat = np.zeros((n, n))
    for zi, zone in enumerate(network.zones):
        coupling = 1.0 / (zone.capacitance * zone.resistance)
        for nb in network.neighbours(zone.id):
            a_hat[zi, index[nb]] = coupling
        a_hat[zi, zi] = -a_hat[zi].sum()
    b_hat = np.diag([1.0 / z.capacitance for z in network.zones])
    return ContinuousStateSpace(a_hat=a_hat, b_hat=b_hat, zone_ids=ids)


def discretize_forward_euler(
    ss: ContinuousStateSpace,
    delta: float,
    initial_temps: np.ndarray | None = None,
) -> DiscreteThermalModel:
    """Forward-Euler step: a = I + delta * a_hat, b = delta * b_hat."""
    if not delta > 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    n = len(ss.zone_ids)
    a = np.eye(n) + delta * np.asarray(ss.a_hat, dtype=float)
    b = delta * np.asarray(ss.b_hat, dtype=float)
    if initial_temps is None:
        initial_temps = np.zeros(n)
    return DiscreteThermalModel(
        a=a,
        b=b,
        delta=delta,
        initial_temps=np.asarray(initial_temps, dtype=float),
        zone_ids=ss.zone_ids,
    )


def matrix_power(a: np.ndarray, k: int) -> np.ndarray:
    """k-fold repeated matrix product; k = 0 gives the identity."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix_power needs a square matrix, got shape {a.shape}")
    if k < 0:
        raise ValidationError(f"matrix_power needs k >= 0, got {k}")
    out = np.eye(a.shape[0])
    for _ in range(k):
        out = out @ a
    return out


@dataclass(frozen=True)
class NetworkDiagnostics:
    """Report-only findings from validate_network."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.errors and not self.warnings


def validate_network(
    zones: list[dict] | tuple[Zone, ...],
    edges: list[tuple[str, str]] | tuple[tuple[str, str], ...],
) -> NetworkDiagnostics:
    """Check a topology without constructing it; never raises.

    Accepts either Zone objects or raw dicts so malformed input can still
    be diagnosed. Errors are invariant violations; warnings cover
    disconnected zones and one-way edge declarations.
    """
    errors: list[str] = []
    warnings: list[str] = []

    norm: list[Zone] = []
    for z in zones:
        if isinstance(z, Zone):
            norm.append(z)
        else:
            try:
                norm.append(
                    Zone(
                        id=str(z["id"]),
                        capacitance=float(z["capacitance"]),
                        resistance=float(z["resistance"]),
                        initial_temp=float(z.get("initial_temp", 0.0)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"malformed zone entry {z!r}: {exc}")

    ids = [z.id for z in norm]
    seen: set[str] = set()
    for zid in ids:
        if zid in seen:
            errors.append(f"duplicate zone id {zid!r}")
        seen.add(zid)
    for z in norm:
        if not z.capacitance > 0:
            errors.append(f"non-positive capacitance on zone {z.id!r}")
        if not z.resistance > 0:
            errors.append(f"non-positive resistance on zone {z.id!r}")

    edge_set = {(a, b) for a, b in edges}
    for a, b in edge_set:
        if a == b:
            errors.append(f"self-edge on zone {a!r}")
        if a not in seen or b not in seen:
            errors.append(f"edge ({a!r}, {b!r}) references an undeclared zone")
        elif (b, a) not in edge_set:
            warnings.append(f"edge ({a!r}, {b!r}) has no reverse edge ({b!r}, {a!r})")

    if len(norm) > 1:
        touched = {a for a, _ in edge_set} | {b for _, b in edge_set}
        for zid in ids:
            if zid not in touched:
                warnings.append(f"zone {zid!r} is disconnected from the rest of the network")

    return NetworkDiagnostics(errors=tuple(errors), warnings=tuple(warnings))


def load_building(path: str | Path) -> tuple[RCNetwork, DiscreteThermalModel]:
    """Load a building topology JSON file and derive its discrete model.

    Schema::

        {
          "zones": [{"id": "...", "capacitance": x, "resistance": x,
                     "initial_temp": x}, ...],
          "edges": [["z1", "z2"], ...],
          "explicit_discrete": {"a": [[...]], "b": [[...]], "delta": 1.0}
        }

    ``explicit_discrete`` is optional; when present it overrides the
    forward-Euler derivation and its matrices are taken literally (in the
    zone order of the ``zones`` list).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"building file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"building file {path} is not valid JSON: {exc}") from None

    try:
        zones = tuple(
            Zone(
                id=str(z["id"]),
                capacitance=float(z["capacitance"]),
                resistance=float(z["resistance"]),
                initial_temp=float(z["initial_temp"]),
            )
            for z in raw["zones"]
        )
        edges = tuple((str(a), str(b)) for a, b in raw.get("edges", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"building file {path} is malformed: {exc}") from None

    network = RCNetwork(zones=zones, edges=edges)
    initial = np.array([z.initial_temp for z in zones])

    explicit = raw.get("explicit_discrete")
    if explicit is not None:
        try:
            a = np.asarray(explicit["a"], dtype=float)
            b = np.asarray(explicit["b"], dtype=float)
            delta = float(explicit.get("delta", 1.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"explicit_discrete in {path} is malformed: {exc}") from None
        model = DiscreteThermalModel(
            a=a,
            b=b,
            delta=delta,
            initial_temps=initial,
            zone_ids=network.zone_ids,
            derived=False,
        )
    else:
        ss = build_state_space(network)
        model = discretize_forward_euler(ss, delta=float(raw.get("delta", 1.0)), initial_temps=initial)
    return network, model
