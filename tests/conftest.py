"""Shared fixtures: the benchmark thermal model and schedule builders."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from thermark import DiscreteThermalModel
from thermark.occupancy import StepMatrix, TransitionSchedule

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
        derived=False,
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
