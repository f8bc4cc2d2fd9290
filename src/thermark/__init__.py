"""Occupancy-driven thermal dynamics of multi-zone buildings.

Builds finite-horizon Markov reward models that couple an RC-network
thermal model with per-hour stochastic occupancy, evaluates heating
strategies by expected zone temperature and time-of-use electricity
cost, and exports the models for external probabilistic model checking.
"""

from .analysis import (
    TemperatureTrajectory,
    brute_force_expected_temperature,
    comfort_check,
    direct_expected_temperatures,
    temperature_trajectory,
)
from .errors import NumericalGuardError, ThermarkError, ValidationError
from .markov import (
    ComposedModel,
    RewardedModel,
    ZoneChain,
    ZoneGains,
    assign_rewards,
    compose,
    occupied_marginals,
    step_reward_table,
    unroll_zone,
)
from .occupancy import (
    OccupancyDataset,
    TransitionSchedule,
    estimate_transition_schedule,
    parse_occupancy_csv,
)
from .prism import export_properties, render_models
from .strategy import (
    CostReport,
    HeatingStrategy,
    Tariff,
    builtin_strategy,
    compare_strategies,
    parse_strategy,
    parse_tariff,
    strategy_cost,
    table2_tariff,
)
from .thermal import (
    ContinuousStateSpace,
    DiscreteThermalModel,
    RCNetwork,
    Zone,
    build_state_space,
    discretize_forward_euler,
    load_building,
)

__version__ = "0.1.0"

__all__ = [
    "ComposedModel",
    "ContinuousStateSpace",
    "CostReport",
    "DiscreteThermalModel",
    "HeatingStrategy",
    "NumericalGuardError",
    "OccupancyDataset",
    "RCNetwork",
    "RewardedModel",
    "Tariff",
    "TemperatureTrajectory",
    "ThermarkError",
    "TransitionSchedule",
    "ValidationError",
    "Zone",
    "ZoneChain",
    "ZoneGains",
    "assign_rewards",
    "brute_force_expected_temperature",
    "build_state_space",
    "builtin_strategy",
    "comfort_check",
    "compare_strategies",
    "compose",
    "direct_expected_temperatures",
    "discretize_forward_euler",
    "estimate_transition_schedule",
    "export_properties",
    "load_building",
    "occupied_marginals",
    "parse_occupancy_csv",
    "parse_strategy",
    "parse_tariff",
    "render_models",
    "step_reward_table",
    "strategy_cost",
    "table2_tariff",
    "temperature_trajectory",
    "unroll_zone",
]
