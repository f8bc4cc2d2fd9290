"""Shared fixtures: the benchmark thermal model, schedule builders and
the data generators and reference helpers that only tests need."""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from thermark import (DiscreteThermalModel, compose, load_building, occupied_marginals,
                      temperature_trajectory)
from thermark.cli import RunConfig, _chains, _heating_bits, _load_inputs, _load_schedules
from thermark.occupancy import OccupancyDataset, StepMatrix, TransitionSchedule

BENCH_A = np.array([[0.7001, 0.2999], [0.3007, 0.6993]])
BENCH_B = np.diag([0.7299, 1.0])
BENCH_T0 = np.array([18.0, 16.0])


@pytest.fixture
def bench_thermal() -> DiscreteThermalModel:
    """Two-zone benchmark model with the explicit update matrix."""
    return DiscreteThermalModel(
        a=BENCH_A.copy(),
        b=BENCH_B.copy(),
        delta=1.0,
        initial_temps=BENCH_T0.copy(),
        zone_ids=("zone1", "zone2"),
    )


def make_schedule(p_vf, p_ff=None) -> TransitionSchedule:
    """Schedule from per-step probabilities; scalars broadcast."""
    if isinstance(p_vf, float):
        p_vf = [p_vf] * 9
    if p_ff is None:
        p_ff = [0.7] * len(p_vf)
    elif isinstance(p_ff, float):
        p_ff = [p_ff] * len(p_vf)
    return TransitionSchedule(matrices=tuple(
        StepMatrix(step=k, p_vf=v, p_vv=1.0 - v, p_ff=f, p_fv=1.0 - f)
        for k, (v, f) in enumerate(zip(p_vf, p_ff))
    ))


def random_schedule(rng: np.random.Generator, steps: int) -> TransitionSchedule:
    return TransitionSchedule(matrices=tuple(
        StepMatrix(
            step=k,
            p_vf=(pv := float(rng.uniform(0, 1))),
            p_vv=1.0 - pv,
            p_ff=(pf := float(rng.uniform(0, 1))),
            p_fv=1.0 - pf,
        )
        for k in range(steps)
    ))


def dense_layers(model) -> list[np.ndarray]:
    """The product's (2^N, 2^N) matrix of each step k -> k+1, the Kronecker
    product of the zones' factors in chain order."""
    return [functools.reduce(np.kron, factors) for factors in model.factors]


def matrix_power(a, k: int) -> np.ndarray:
    """k-fold repeated matrix product ``out @ a``; k = 0 gives the identity."""
    a = np.asarray(a, dtype=float)
    out = np.eye(a.shape[0])
    for _ in range(k):
        out = out @ a
    return out


def forward_temps(model, thermal, gains, theta: int) -> dict[str, float]:
    """E[T_theta] per zone by the forward pass over the composed model."""
    (values,) = temperature_trajectory(model, thermal, gains, [theta]).values
    return dict(zip(model.zone_ids, values.tolist()))


def build_model(config: RunConfig):
    """Network, thermal model, composed model and strategy of a run, read
    by the CLI's own loaders."""
    network, _ = load_building(config.building)
    thermal, _, (strat,) = _load_inputs(config)
    schedules = _load_schedules(config, thermal.zone_ids)
    (heating,) = _heating_bits(config, thermal.zone_ids, [strat])
    return network, thermal, compose(_chains(config, schedules, heating)), strat


def sample_dataset(schedule: TransitionSchedule, days: int, seed: int,
                   initial_occupied_prob: float = 0.0,
                   first_hour: int | None = None) -> OccupancyDataset:
    """A synthetic dataset whose rows follow ``schedule``: days 1..days each
    start occupied with probability ``initial_occupied_prob`` and then
    evolve by the per-step matrices. Deterministic for a fixed seed."""
    if first_hour is None:
        first_hour = schedule.hours[0] if schedule.hours else 0
    rng = random.Random(seed)
    grid = []
    for _ in range(days):
        occ = rng.random() < initial_occupied_prob
        row = [occ]
        for mat in schedule.matrices:
            occ = rng.random() < (mat.p_ff if occ else mat.p_vf)
            row.append(occ)
        grid.append(row)
    return OccupancyDataset(
        days=tuple(range(1, days + 1)),
        hours=tuple(range(first_hour, first_hour + len(schedule) + 1)),
        grid=np.array(grid, dtype=bool),
    )


def chain_marginals(chains) -> np.ndarray:
    """The (N, K+1) occupancy marginals of zone chains."""
    return occupied_marginals([c.occ_given_empty for c in chains],
                              [c.occ_given_occupied for c in chains],
                              [c.initial_occupied for c in chains])


def dataset_to_csv(dataset: OccupancyDataset) -> str:
    """A dataset as canonical CSV text."""
    lines = ["day,hour,occupied"]
    for day, row in zip(dataset.days, dataset.grid.tolist()):
        lines.extend(f"{day},{hour},{int(occ)}" for hour, occ in zip(dataset.hours, row))
    return "\n".join(lines) + "\n"
