"""Seeded workload inputs and the independent reference answers for them.

Inputs are made with the benchmark's own numpy generator, never with
``thermark.occupancy.sample_dataset``, so no change to the program can
change what it is fed. The references below (transition counts, occupancy
marginals, the forward temperature recursion, the tariff sum) are computed
from the generator's own arrays with plain numpy and share no code with
the program.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GAINS = (0.7, 1.5)  # degC per hour: occupants, radiator (the CLI default)
BAND = (20.0, 22.0)  # the CLI's default comfort band
EXPORT_THETAS = tuple(range(1, 10))
ALL_STRATEGIES = ("S1", "S2", "S3", "S4", "S5", "S6")
# table2 tariff: (start hour inclusive, end hour exclusive, minor units per kWh)
TARIFF = ((8, 10, 10), (10, 13, 15), (13, 17, 20))

_ON = frozenset(range(9, 17))
_ALTERNATING = frozenset({9, 11, 13, 15})
_SELECTIVE = frozenset({8, 9})


def strategy_hours(name: str, zone_index: int) -> frozenset[int]:
    """Heated hours of builtin strategy ``name`` for the zone at ``zone_index``."""
    if name == "S1":
        return frozenset()
    if name == "S2":
        return _ON
    if name == "S3":
        return _ON if zone_index == 0 else frozenset()
    if name == "S4":
        return _ON if zone_index == 1 else frozenset()
    if name == "S5":
        return _ALTERNATING
    if name == "S6":
        return _SELECTIVE
    raise ValueError(f"unknown strategy {name!r}")


@dataclass
class Instance:
    """One workload's inputs on disk plus the arrays they were written from."""

    name: str
    zone_ids: tuple[str, ...]
    a: np.ndarray  # discrete update matrix, building zone order
    t0: np.ndarray
    window: tuple[int, int]
    logs: dict[str, np.ndarray]  # zone -> (days, K+1) bool, window hours only
    building: Path
    log_paths: dict[str, Path]
    analyze_strategy: str
    cost_strategies: tuple[str, ...]
    export_name: str
    estimate_repeats: int = 1
    input_sha256: dict[str, str] = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return self.window[1] - self.window[0]

    def common_args(self) -> list[str]:
        args = ["--building", str(self.building)]
        for zid in self.zone_ids:
            args += ["--occupancy", f"{zid}={self.log_paths[zid]}"]
        return args + ["--window", f"{self.window[0]}-{self.window[1]}"]

    def ops(self, out_root: Path) -> list[tuple[str, list[str]]]:
        """The workload's mix as (kind, argv) pairs, run in this order."""
        common = self.common_args()
        cost = [a for s in self.cost_strategies for a in ("--strategy", s)]
        return [
            ("analyze", ["analyze", *common, "--strategy", self.analyze_strategy,
                         "--out", str(out_root / "analyze")]),
            ("cost", ["cost", *common, *cost, "--out", str(out_root / "cost")]),
            ("export", ["export", *common, "--strategy", "S6",
                        "--theta", f"{EXPORT_THETAS[0]}-{EXPORT_THETAS[-1]}",
                        "--name", self.export_name, "--out", str(out_root / "export")]),
        ] + [("estimate", ["estimate", str(self.log_paths[self.zone_ids[0]]),
                           "--out", str(out_root / "estimate")])] * self.estimate_repeats


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_log(path: Path, occ: np.ndarray, first_hour: int) -> None:
    days, hours = occ.shape
    day_col = np.repeat(np.arange(1, days + 1), hours)
    hour_col = np.tile(np.arange(first_hour, first_hour + hours), days)
    rows = np.column_stack([day_col, hour_col, occ.reshape(-1).astype(int)])
    body = "\n".join(f"{d},{h},{o}" for d, h, o in rows.tolist())
    path.write_text("day,hour,occupied\n" + body + "\n")


def _sample_log(rng: np.random.Generator, days: int, steps: int) -> np.ndarray:
    """Occupancy of ``days`` days over steps+1 hours; every day starts empty."""
    p_vf = rng.uniform(0.25, 0.6, steps)
    p_ff = rng.uniform(0.4, 0.85, steps)
    occ = np.zeros((days, steps + 1), dtype=bool)
    for k in range(steps):
        u = rng.random(days)
        occ[:, k + 1] = np.where(occ[:, k], u < p_ff[k], u < p_vf[k])
    return occ


def _ring_building(rng: np.random.Generator, n: int, path: Path):
    """N zones on a ring, RC constants with C*R >= 2.25 so Euler stays stable."""
    zone_ids = tuple(f"zone{i + 1}" for i in range(n))
    cap = np.round(rng.uniform(1.5, 3.0, n), 4)
    res = np.round(rng.uniform(1.5, 3.0, n), 4)
    t0 = np.round(rng.uniform(15.0, 19.0, n), 2)
    edges = list(dict.fromkeys(
        pair for i in range(n)
        for pair in ((i, (i + 1) % n), ((i + 1) % n, i))
    ))
    a_hat = np.zeros((n, n))
    for i, j in edges:
        a_hat[i, j] = 1.0 / (cap[i] * res[i])
    for i in range(n):
        a_hat[i, i] = -a_hat[i].sum()
    spec = {
        "zones": [
            {"id": zone_ids[i], "capacitance": float(cap[i]),
             "resistance": float(res[i]), "initial_temp": float(t0[i])}
            for i in range(n)
        ],
        "edges": [[zone_ids[i], zone_ids[j]] for i, j in edges],
        "delta": 1.0,
    }
    path.write_text(json.dumps(spec, indent=2) + "\n")
    return zone_ids, np.eye(n) + a_hat, t0


def _read_log(path: Path) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=int, ndmin=2)
    days = np.unique(rows[:, 0])
    hours = np.unique(rows[:, 1])
    occ = np.zeros((len(days), len(hours)), dtype=bool)
    occ[np.searchsorted(days, rows[:, 0]), np.searchsorted(hours, rows[:, 1])] = rows[:, 2] == 1
    return occ


def paper(root: Path, work: Path, seed: int) -> Instance:
    """The bundled two-zone benchmark; it is fixed, so the seed is unused."""
    data = root / "src" / "thermark" / "data" / "two_zone_benchmark"
    spec = json.loads((data / "building.json").read_text())
    zone_ids = tuple(z["id"] for z in spec["zones"])
    log_paths = {zid: data / f"occupancy_{zid}.csv" for zid in zone_ids}
    return Instance(
        name="paper",
        zone_ids=zone_ids,
        a=np.array(spec["explicit_discrete"]["a"], dtype=float),
        t0=np.array([z["initial_temp"] for z in spec["zones"]], dtype=float),
        window=(8, 17),
        logs={zid: _read_log(p) for zid, p in log_paths.items()},
        building=data / "building.json",
        log_paths=log_paths,
        analyze_strategy="S6",
        cost_strategies=ALL_STRATEGIES,
        export_name="two_zone_benchmark",
    )


def _generated(name: str, work: Path, seed: int, n: int, window: tuple[int, int],
               days: int, analyze_strategy: str, cost_strategies: tuple[str, ...],
               estimate_repeats: int = 1) -> Instance:
    rng = np.random.default_rng(seed)
    work.mkdir(parents=True, exist_ok=True)
    building = work / "building.json"
    zone_ids, a, t0 = _ring_building(rng, n, building)
    steps = window[1] - window[0]
    logs, log_paths = {}, {}
    for zid in zone_ids:
        logs[zid] = _sample_log(rng, days, steps)
        log_paths[zid] = work / f"occupancy_{zid}.csv"
        _write_log(log_paths[zid], logs[zid], window[0])
    return Instance(
        name=name, zone_ids=zone_ids, a=a, t0=t0, window=window, logs=logs,
        building=building, log_paths=log_paths, analyze_strategy=analyze_strategy,
        cost_strategies=cost_strategies, export_name=name.replace("-", "_"),
        estimate_repeats=estimate_repeats,
    )


def zones(root: Path, work: Path, seed: int) -> Instance:
    """N=7 ring from RC constants, K=9, 20-day logs: the product chain dominates.

    A 20-day estimate takes milliseconds against seconds for the rest of the
    mix, so it runs 25 times per mix to give its median enough samples.
    """
    return _generated("zones", work, seed, n=7, window=(8, 17), days=20,
                      analyze_strategy="S2", cost_strategies=("S2", "S5", "S6"),
                      estimate_repeats=25)


def long_logs(root: Path, work: Path, seed: int) -> Instance:
    """N=2, window 0-23 (K=23), 5 000-day logs: parsing and estimation dominate.

    With 10 000-day logs a 25 s run took only four or five samples of each
    op, and their medians spread by up to 9% across seeds. ``estimate`` runs
    twice per mix for the same reason.
    """
    return _generated("long-logs", work, seed, n=2, window=(0, 23), days=5_000,
                      analyze_strategy="S2", cost_strategies=ALL_STRATEGIES,
                      estimate_repeats=2)


WORKLOADS = {"paper": paper, "zones": zones, "long-logs": long_logs}


def make_instance(name: str, root: Path, work: Path, seed: int) -> Instance:
    inst = WORKLOADS[name](root, work, seed)
    for path in (inst.building, *inst.log_paths.values()):
        inst.input_sha256[path.name] = _sha256(path)
    return inst


@dataclass
class Reference:
    """Expected outputs of every op, computed from the instance's arrays."""

    schedules: dict[str, list[tuple[float, float, float, float]]]  # p_vf, p_vv, p_ff, p_fv
    days: int
    marginals: np.ndarray  # (K+1, N)
    trajectories: dict[str, np.ndarray]  # strategy -> (K, N), thetas 1..K
    costs: dict[str, int]
    rewards: dict[int, np.ndarray]  # export theta -> (N, theta+1) per-step reward


def _counts_schedule(occ: np.ndarray) -> list[tuple[float, float, float, float]]:
    out = []
    for k in range(occ.shape[1] - 1):
        before, after = occ[:, k], occ[:, k + 1]
        n_vf = int(np.sum(~before & after))
        n_vv = int(np.sum(~before & ~after))
        n_ff = int(np.sum(before & after))
        n_fv = int(np.sum(before & ~after))
        # a conditioning state that never occurs defaults to stay-in-state
        p_vf = n_vf / (n_vf + n_vv) if n_vf + n_vv else 0.0
        p_ff = n_ff / (n_ff + n_fv) if n_ff + n_fv else 1.0
        out.append((p_vf, 1.0 - p_vf, p_ff, 1.0 - p_ff))
    return out


def heating(inst: Instance, strategy: str) -> np.ndarray:
    """(K+1, N) heating bits of a builtin strategy over the window's steps."""
    start = inst.window[0]
    return np.array([
        [start + k in strategy_hours(strategy, j) for j in range(len(inst.zone_ids))]
        for k in range(inst.horizon + 1)
    ], dtype=float)


def _trajectory(inst: Instance, marginals: np.ndarray, heat: np.ndarray) -> np.ndarray:
    expected = inst.t0.copy()
    rows = []
    for k in range(1, inst.horizon + 1):
        expected = inst.a @ expected + GAINS[0] * marginals[k - 1] + GAINS[1] * heat[k - 1]
        rows.append(expected)
    return np.array(rows)


def _cost(inst: Instance, strategy: str) -> int:
    total = 0
    for j in range(len(inst.zone_ids)):
        for hour in strategy_hours(strategy, j):
            total += next(price for lo, hi, price in TARIFF if lo <= hour < hi)
    return total


def reference(inst: Instance) -> Reference:
    schedules = {zid: _counts_schedule(inst.logs[zid]) for zid in inst.zone_ids}
    marginals = np.zeros((inst.horizon + 1, len(inst.zone_ids)))
    for j, zid in enumerate(inst.zone_ids):
        marginals[0, j] = float(inst.logs[zid][0, 0])
        for k, (p_vf, _, p_ff, _) in enumerate(schedules[zid][: inst.horizon]):
            m = marginals[k, j]
            marginals[k + 1, j] = m * p_ff + (1.0 - m) * p_vf
    strategies = {inst.analyze_strategy, "S6", *inst.cost_strategies}
    trajectories = {s: _trajectory(inst, marginals, heating(inst, s)) for s in strategies}

    heat = heating(inst, "S6")
    rewards = {}
    for theta in EXPORT_THETAS:
        per_step = np.zeros((len(inst.zone_ids), theta + 1))
        per_step[:, 0] = np.linalg.matrix_power(inst.a, theta) @ inst.t0
        for k in range(1, theta + 1):
            gain = GAINS[0] * marginals[k - 1] + GAINS[1] * heat[k - 1]
            per_step[:, k] = np.linalg.matrix_power(inst.a, theta - k) @ gain
        rewards[theta] = per_step

    return Reference(
        schedules=schedules,
        days=inst.logs[inst.zone_ids[0]].shape[0],
        marginals=marginals,
        trajectories=trajectories,
        costs={s: _cost(inst, s) for s in inst.cost_strategies},
        rewards=rewards,
    )
