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
import math
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import NumericalGuardError, ValidationError, expected_type, json_error, read_text
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

    def neighbours(self, zone_id: str) -> tuple[str, ...]:
        return tuple(b for a, b in self.edges if a == zone_id)


class ContinuousStateSpace(Record):
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
    derived: bool = True

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


def load_building(path: str | Path) -> tuple[RCNetwork, DiscreteThermalModel]:
    """Load a building topology JSON file and derive its discrete model.

    Schema::

        {
          "zones": [{"id": "...", "capacitance": x, "resistance": x,
                     "initial_temp": x}, ...],
          "edges": [["z1", "z2"], ...],
          "delta": x,
          "explicit_discrete": {"a": [[...]], "b": [[...]], "delta": x}
        }

    Ids are strings and every ``x`` and matrix entry a finite JSON number,
    never a boolean or a string; nothing is coerced. ``edges`` and
    ``delta`` (1 by default) are optional. ``explicit_discrete`` is
    optional too; when present it overrides the forward-Euler derivation
    and its matrices are taken literally (in the zone order of the
    ``zones`` list). A value of the wrong type raises a one-line
    :class:`ValidationError` naming the file, the key path and the
    expected type.
    """
    path = Path(path)
    text = read_text(path, "building")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"building file {path} is not valid JSON: {exc}") from None
    except ValueError:  # an integer literal longer than int() reads
        raw = json.loads(text, parse_int=_json_int)

    raw = _leaf(path, raw, "an object")
    zones = [_zone(path, z, i) for i, z in enumerate(_member(path, raw, "zones", "a list"))]
    edges = _member(path, raw, "edges", "a list", default=[])
    for i, edge in enumerate(edges):
        # the _leaf calls here only raise: they run on a value of the wrong type
        if type(edge) is not list:
            _leaf(path, edge, "a list", ("edges", i))
        if len(edge) != 2:
            raise json_error(path, ("edges", i), f"expected two zone ids, got {len(edge)} values")
        for j, end in enumerate(edge):
            if type(end) is not str:
                _leaf(path, end, "a string", ("edges", i, j))

    network = RCNetwork(zones=tuple(zones), edges=tuple(map(tuple, edges)))
    initial = np.array([z.initial_temp for z in zones])

    explicit = _member(path, raw, "explicit_discrete", "an object", default=None)
    if explicit is not None:
        model = DiscreteThermalModel(
            a=_matrix(path, explicit, "a"),
            b=_matrix(path, explicit, "b"),
            delta=_member(path, explicit, "delta", _FINITE, ("explicit_discrete",), 1.0),
            initial_temps=initial,
            zone_ids=network.zone_ids,
            derived=False,
        )
    else:
        ss = build_state_space(network)
        delta = _member(path, raw, "delta", _FINITE, (), 1.0)
        model = discretize_forward_euler(ss, delta=delta, initial_temps=initial)
    return network, model


def _json_int(literal: str) -> int | float:
    """An integer literal as an int or, when it is longer than ``int()``
    reads (4300 digits), as a float: an infinity, which is no finite number."""
    try:
        return int(literal)
    except ValueError:
        return float(literal)


_FINITE = "a finite number"
_JSON_TYPES = {"an object": dict, "a list": list, "a string": str}
_REQUIRED = object()


def _is_finite(value: object) -> bool:
    """Whether ``value`` is a JSON number (not a boolean) that is a finite float."""
    if type(value) is float:
        return math.isfinite(value)
    return type(value) is int and -sys.float_info.max <= value <= sys.float_info.max


def _leaf(path: Path, value: object, expected: str, where: tuple[str | int, ...] = (),
          step: str | int | None = None):
    """``value``, as a float if ``expected`` is a finite number, when it has
    the expected JSON type; otherwise a one-line error at the key path
    ``where``, plus ``step`` when given (a tuple is built only then)."""
    if expected == _FINITE:
        if _is_finite(value):
            return float(value)
    elif type(value) is _JSON_TYPES[expected]:
        return value
    raise json_error(path, where if step is None else (*where, step),
                     expected_type(expected, value))


def _member(path: Path, obj: dict, key: str, expected: str,
            where: tuple[str | int, ...] = (), default: object = _REQUIRED):
    """:func:`_leaf` of ``obj[key]``, where ``where`` leads to ``obj``; a
    missing key gives ``default`` or, when there is none, an error."""
    if key in obj:
        return _leaf(path, obj[key], expected, where, key)
    if default is _REQUIRED:
        raise json_error(path, where, f"missing key {key!r}")
    return default


def _zone(path: Path, z: object, i: int) -> Zone:
    """``zones[i]``: an object with a string id and three finite numbers."""
    if type(z) is dict:
        try:
            zid, c, r, t0 = z["id"], z["capacitance"], z["resistance"], z["initial_temp"]
        except KeyError:
            pass
        else:
            if type(zid) is str and _is_finite(c) and _is_finite(r) and _is_finite(t0):
                return Zone(zid, float(c), float(r), float(t0))
    # a faulty zone: the checked reads below raise at its first fault
    where = ("zones", i)
    z = _leaf(path, z, "an object", where)
    return Zone(
        id=_member(path, z, "id", "a string", where),
        capacitance=_member(path, z, "capacitance", _FINITE, where),
        resistance=_member(path, z, "resistance", _FINITE, where),
        initial_temp=_member(path, z, "initial_temp", _FINITE, where),
    )


def _matrix(path: Path, explicit: dict, key: str) -> np.ndarray:
    """``explicit_discrete[key]``: a list of equal-length rows of finite numbers."""
    rows = _member(path, explicit, key, "a list", ("explicit_discrete",))
    width = len(rows[0]) if rows and type(rows[0]) is list else 0
    for row in rows:
        if type(row) is not list or len(row) != width:
            _matrix_fault(path, rows, ("explicit_discrete", key))
        for x in row:
            # a float first, inline: the entries are nearly always floats
            if not (type(x) is float and math.isfinite(x)) and not _is_finite(x):
                _matrix_fault(path, rows, ("explicit_discrete", key))
    return np.array(rows, dtype=float)


def _matrix_fault(path: Path, rows: list, where: tuple[str, str]) -> NoReturn:
    """Raise the one-line error for the first fault of a matrix."""
    for i, row in enumerate(rows):
        _leaf(path, row, "a list", where, i)
        for j, x in enumerate(row):
            _leaf(path, x, _FINITE, (*where, i), j)
    raise json_error(path, where, "expected rows of equal length")
