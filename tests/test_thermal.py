"""Tests for the RC-network state space and its discretisation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from thermark import (
    ContinuousStateSpace,
    DiscreteThermalModel,
    NumericalGuardError,
    RCNetwork,
    ValidationError,
    Zone,
    build_state_space,
    discretize_forward_euler,
    load_building,
)
from conftest import BENCH_A, matrix_power


def two_zone_network() -> RCNetwork:
    return RCNetwork(
        zones=(
            Zone(id="z1", capacitance=1.37, resistance=1.7429, initial_temp=18.0),
            Zone(id="z2", capacitance=1.0, resistance=5.5897, initial_temp=16.0),
        ),
        edges=(("z1", "z2"), ("z2", "z1")),
    )


def random_closed_network(rng: np.random.Generator, n: int) -> RCNetwork:
    zones = tuple(
        Zone(id=f"z{i}", capacitance=float(rng.uniform(0.5, 5)),
             resistance=float(rng.uniform(0.5, 8)), initial_temp=float(rng.uniform(10, 25)))
        for i in range(n)
    )
    edges = []
    for i in range(n):  # ring keeps every zone connected
        j = (i + 1) % n
        edges += [(f"z{i}", f"z{j}"), (f"z{j}", f"z{i}")]
    extra = rng.integers(0, n)
    for _ in range(int(extra)):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((f"z{i}", f"z{j}"))
    return RCNetwork(zones=zones, edges=tuple(set(edges)))


class TestBuildStateSpace:
    def test_two_zone_benchmark_values(self):
        ss = build_state_space(two_zone_network())
        expected = np.array([[-0.41880, 0.41880], [0.17890, -0.17890]])
        assert np.allclose(ss.a_hat, expected, atol=5e-5)
        assert np.allclose(ss.b_hat, np.diag([0.72993, 1.0]), atol=5e-6)

    def test_single_zone_without_edges(self):
        net = RCNetwork(
            zones=(Zone(id="only", capacitance=2.0, resistance=3.0, initial_temp=20.0),),
            edges=(),
        )
        ss = build_state_space(net)
        assert np.allclose(ss.a_hat, [[0.0]], atol=0)
        assert np.allclose(ss.b_hat, [[0.5]], atol=1e-15)

    def test_three_zone_line_has_no_skip_coupling(self):
        net = RCNetwork(
            zones=tuple(Zone(id=f"z{i}", capacitance=1.0, resistance=1.0, initial_temp=20.0)
                        for i in range(3)),
            edges=(("z0", "z1"), ("z1", "z0"), ("z1", "z2"), ("z2", "z1")),
        )
        ss = build_state_space(net)
        assert ss.a_hat[0, 2] == 0.0
        assert ss.a_hat[2, 0] == 0.0
        assert np.allclose(ss.a_hat.sum(axis=1), 0.0, atol=1e-12)

    def test_row_sums_vanish_for_random_networks(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            ss = build_state_space(random_closed_network(rng, n))
            assert np.max(np.abs(ss.a_hat.sum(axis=1))) <= 1e-12

    def test_non_positive_parameters_rejected(self):
        with pytest.raises(ValidationError, match="capacitance"):
            RCNetwork(
                zones=(Zone(id="z", capacitance=-1.0, resistance=1.0, initial_temp=0.0),),
                edges=(),
            )
        with pytest.raises(ValidationError, match="resistance"):
            RCNetwork(
                zones=(Zone(id="z", capacitance=1.0, resistance=0.0, initial_temp=0.0),),
                edges=(),
            )

    def test_duplicate_ids_and_undeclared_edge_ends_rejected(self):
        zone = Zone(id="z", capacitance=1.0, resistance=1.0, initial_temp=0.0)
        with pytest.raises(ValidationError, match="unique"):
            RCNetwork(zones=(zone, zone), edges=())
        with pytest.raises(ValidationError, match="undeclared"):
            RCNetwork(zones=(zone,), edges=(("z", "w"),))


class TestDiscretize:
    def test_two_zone_forward_euler(self):
        ss = build_state_space(two_zone_network())
        model = discretize_forward_euler(ss, delta=1.0, initial_temps=np.array([18.0, 16.0]))
        assert np.allclose(model.a, [[0.5812, 0.4188], [0.1789, 0.8211]], atol=5e-5)
        assert np.allclose(model.b, np.diag([0.7299, 1.0]), atol=5e-5)
        assert np.allclose(model.a.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_delta_rejected(self):
        ss = build_state_space(two_zone_network())
        with pytest.raises(ValidationError, match="delta"):
            discretize_forward_euler(ss, delta=0.0)

    def test_isolated_zone_keeps_identity(self):
        net = RCNetwork(
            zones=(Zone(id="z", capacitance=4.0, resistance=1.0, initial_temp=0.0),),
            edges=(),
        )
        model = discretize_forward_euler(build_state_space(net), delta=7.0)
        assert np.allclose(model.a, [[1.0]], atol=0)

    def test_unstable_step_is_an_error(self):
        ss = build_state_space(two_zone_network())
        with pytest.raises(NumericalGuardError, match="unstable"):
            discretize_forward_euler(ss, delta=10.0)

    def test_discrete_rows_stay_stochastic_under_powers(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            net = random_closed_network(rng, n)
            ss = build_state_space(net)
            delta = float(0.5 / np.max(np.abs(np.diag(ss.a_hat))))
            model = discretize_forward_euler(ss, delta=delta)
            for k in (1, 6, 24):
                p = matrix_power(model.a, k)
                assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-9

    def test_zero_gain_spread_contracts(self):
        rng = np.random.default_rng(17)
        net = random_closed_network(rng, 4)
        ss = build_state_space(net)
        delta = float(0.5 / np.max(np.abs(np.diag(ss.a_hat))))
        model = discretize_forward_euler(ss, delta=delta)
        t = np.array([z.initial_temp for z in net.zones])
        spread = t.max() - t.min()
        for _ in range(24):
            t = model.a @ t
            new_spread = t.max() - t.min()
            assert new_spread <= spread + 1e-12
            spread = new_spread


def continuous_fault(a: np.ndarray, b: np.ndarray) -> str | None:
    """ContinuousStateSpace's checks as first written, on copies of each
    matrix with its diagonal cleared: the start of the first message, or None.
    A row's sum may be off by 1e-12 times its largest magnitude, or 1e-12
    if that is below 1, and must not be infinite."""
    sums = np.abs(a.sum(axis=1))
    if np.any((sums > 1e-12 * np.maximum(1.0, np.abs(a).max(axis=1))) | (sums == np.inf)):
        return "a_hat rows"
    if np.any(a - np.diag(np.diag(a)) < 0.0) or np.any(np.diag(a) > 0.0):
        return "a_hat must"
    if np.any(b - np.diag(np.diag(b)) != 0.0) or np.any(np.diag(b) <= 0.0):
        return "b_hat must"
    return None


def discrete_fault(a: np.ndarray, b: np.ndarray, t0: np.ndarray) -> str | None:
    """DiscreteThermalModel's value checks as first written, one pass per check."""
    for name, values in (("a", a), ("b", b), ("initial_temps", t0)):
        if not np.isfinite(values).all():
            return f"{name} must"
    if (a < 0.0).any() or (a > 1.0).any():
        return "unstable"
    return None


def raised(make) -> str | None:
    try:
        make()
    except (ValidationError, NumericalGuardError) as exc:
        return str(exc)
    return None


# entries that a check must see wherever they stand
ODD_ENTRIES = [np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-300, 1e-300, -1.0, 1.0 + 2 ** -52, 2.0,
               1e308]


class TestModelChecks:
    """The models' checks, which take fewer passes than they were first
    written with, name the same first fault as the first writing."""

    def test_checks_match_their_first_writing(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            ss = build_state_space(random_closed_network(rng, n))
            a_hat, b_hat = ss.a_hat.copy(), ss.b_hat.copy()
            a = discretize_forward_euler(ss, 0.1).a.copy()
            b, t0 = b_hat.copy(), rng.uniform(10, 20, n)
            for target in rng.choice(6, size=int(rng.integers(1, 4))):
                entry = ODD_ENTRIES[rng.integers(len(ODD_ENTRIES))]
                if target == 5:  # a shift within one row of a_hat keeps its sum
                    i, j = (int(k) for k in rng.integers(0, n, size=2))
                    with np.errstate(all="ignore"):
                        a_hat[i, j] += entry
                        a_hat[i, i] -= entry
                    continue
                values = (a_hat, b_hat, a, b, t0)[target]
                at = tuple(int(i) for i in rng.integers(0, n, size=values.ndim))
                if rng.integers(0, 2) and values.ndim == 2:
                    at = (at[0], at[0])  # on the diagonal
                values[at] = entry
            ids = tuple(f"z{i}" for i in range(n))
            with np.errstate(all="ignore"):
                got = raised(lambda: ContinuousStateSpace(a_hat=a_hat, b_hat=b_hat, zone_ids=ids))
                expected = continuous_fault(a_hat, b_hat)
            assert (got or "").startswith(expected or "@") or got is expected is None, got
            got = raised(lambda: DiscreteThermalModel(a=a, b=b, delta=1.0, initial_temps=t0,
                                                      zone_ids=ids))
            expected = discrete_fault(a, b, t0)
            assert (got or "").startswith(expected or "@") or got is expected is None, got

    def test_discretize_has_the_bits_of_identity_plus_step(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            ss = build_state_space(random_closed_network(rng, n))
            delta = float(rng.uniform(0.01, 0.5) / np.max(np.abs(np.diag(ss.a_hat))))
            model = discretize_forward_euler(ss, delta)
            assert model.a.tobytes() == (np.eye(n) + delta * ss.a_hat).tobytes()
            assert model.b.tobytes() == (delta * ss.b_hat).tobytes()
        # an off-diagonal -0.0 becomes 0.0, as adding the identity makes it
        ss = ContinuousStateSpace(a_hat=np.array([[-1.0, 1.0], [-0.0, 0.0]]), b_hat=np.eye(2),
                                  zone_ids=("z1", "z2"))
        assert not np.signbit(discretize_forward_euler(ss, 0.5).a).any()


class TestMatrixPower:
    """The repeated product the tests use as their reference power."""

    def test_square_of_benchmark_matrix(self):
        # independent oracle: explicit hand multiplication
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = sum(BENCH_A[i, k] * BENCH_A[k, j] for k in range(2))
        assert np.allclose(matrix_power(BENCH_A, 2), expected, atol=1e-15)
        assert np.allclose(expected, [[0.58032, 0.41968], [0.42080, 0.57920]], atol=5e-6)

    def test_power_zero_is_identity(self):
        assert np.array_equal(matrix_power(BENCH_A, 0), np.eye(2))

    def test_stochasticity_closure(self):
        for k in range(25):
            p = matrix_power(BENCH_A, k)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-9


class TestLoadBuilding:
    def test_explicit_discrete_override(self, tmp_path):
        payload = {
            "zones": [
                {"id": "z1", "capacitance": 1.37, "resistance": 1.7429, "initial_temp": 18.0},
                {"id": "z2", "capacitance": 1.0, "resistance": 5.5897, "initial_temp": 16.0},
            ],
            "edges": [["z1", "z2"], ["z2", "z1"]],
            "explicit_discrete": {
                "a": [[0.7001, 0.2999], [0.3007, 0.6993]],
                "b": [[0.7299, 0.0], [0.0, 1.0]],
                "delta": 1.0,
            },
        }
        path = tmp_path / "building.json"
        path.write_text(json.dumps(payload))
        network, model = load_building(path)
        assert network.zone_ids == ("z1", "z2")
        assert np.allclose(model.a, BENCH_A)
        assert model.initial_temps == pytest.approx([18.0, 16.0])

    def test_derivation_without_override(self, tmp_path):
        payload = {
            "zones": [
                {"id": "z1", "capacitance": 1.37, "resistance": 1.7429, "initial_temp": 18.0},
                {"id": "z2", "capacitance": 1.0, "resistance": 5.5897, "initial_temp": 16.0},
            ],
            "edges": [["z1", "z2"], ["z2", "z1"]],
        }
        path = tmp_path / "building.json"
        path.write_text(json.dumps(payload))
        _, model = load_building(path)
        assert np.allclose(model.a, [[0.5812, 0.4188], [0.1789, 0.8211]], atol=5e-5)

    def test_stable_stiff_building_loads(self, tmp_path):
        # rows of about 2e4, whose sums round past an absolute 1e-12, under a
        # stable Euler step
        rng = np.random.default_rng(0)
        ids = [f"z{i}" for i in range(4)]
        payload = {
            "zones": [{"id": z, "capacitance": float(rng.uniform(0.01, 0.013)),
                       "resistance": float(rng.uniform(0.01, 0.0121)), "initial_temp": 20.0}
                      for z in ids],
            "edges": [[a, b] for a in ids for b in ids if a != b],
            "delta": 1e-5,
        }
        path = tmp_path / "building.json"
        path.write_text(json.dumps(payload))
        _, model = load_building(path)
        temps = model.initial_temps
        for _ in range(1000):
            temps = model.a @ temps + model.b @ np.ones(4)
        assert np.isfinite(temps).all() and (temps > 20.0).all()

    def test_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_building(tmp_path / "nope.json")

    def test_self_edge_rejected(self, tmp_path):
        payload = {
            "zones": [{"id": "z1", "capacitance": 1.0, "resistance": 1.0, "initial_temp": 0.0}],
            "edges": [["z1", "z1"]],
        }
        path = tmp_path / "building.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="self-edge"):
            load_building(path)
