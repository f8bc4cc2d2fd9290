"""Batch command-line interface.

Subcommands: ``analyze`` (expected-temperature trajectories + comfort),
``cost`` (tariff costing of heating strategies), ``export`` (PRISM model
and property files) and ``estimate`` (occupancy transition matrices from
a CSV log). All user-facing hours are absolute hours of the day; internal
step indices are hour minus the window start. Outputs are deterministic
and written atomically.

Exit codes: 0 success, 2 validation/configuration error, 3 numerical
guard (unstable discretisation, oracle size limit).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, markov, occupancy, prism, strategy as strategy_mod
from .errors import NumericalGuardError, ThermarkError, ValidationError
from .markov import ZoneGains
from .occupancy import TransitionSchedule
from .thermal import DiscreteThermalModel, load_building

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3

DEFAULT_GAINS = (0.7, 1.5)  # degC per hour: occupants, radiator

# zone id -> windowed transition schedule plus the deterministic start label
Schedules = dict[str, tuple[TransitionSchedule, bool]]


@dataclass
class RunConfig:
    """Resolved settings shared by the subcommands."""

    building: Path
    occupancy_paths: dict[str, Path] = field(default_factory=dict)
    strategy: str = "S1"
    tariff: str = "table2"
    gains: dict[str, tuple[float, float]] = field(default_factory=dict)
    default_gains: tuple[float, float] = DEFAULT_GAINS
    window: tuple[int, int] = (8, 17)
    band: tuple[float, float] = (20.0, 22.0)
    thetas: tuple[int, ...] = tuple(range(1, 10))
    out_dir: Path = Path(".")
    radiator_kw: float = 1.0

    def gains_for(self, zone_ids: tuple[str, ...]) -> dict[str, ZoneGains]:
        for zid in self.gains:
            if zid not in zone_ids:
                raise ValidationError(f"--gains references unknown zone {zid!r}")
        table = {}
        for zid in zone_ids:
            q_int, q_rad = self.gains.get(zid, self.default_gains)
            if q_int < 0 or q_rad < 0:
                raise ValidationError(f"gains for zone {zid!r} must be >= 0")
            table[zid] = ZoneGains(q_int=q_int, q_rad=q_rad)
        return table


def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        lo, hi = (int(p) for p in text.split("-"))
    except ValueError:
        raise ValidationError(f"{what} must look like '8-17', got {text!r}") from None
    if lo >= hi:
        raise ValidationError(f"{what} start must precede end, got {text!r}")
    return lo, hi


def _finite_floats(text: str, sep: str) -> tuple[float, ...]:
    values = tuple(float(p) for p in text.split(sep))
    if not all(map(math.isfinite, values)):
        raise ValueError(text)
    return values


def _parse_band(text: str) -> tuple[float, float]:
    try:
        lo, hi = _finite_floats(text, "-")
    except ValueError:
        raise ValidationError(
            f"band must look like '20-22' with finite numbers, got {text!r}") from None
    if lo >= hi:
        raise ValidationError(f"band low must be below high, got {text!r}")
    return lo, hi


def _parse_thetas(text: str) -> tuple[int, ...]:
    if "-" in text:
        lo, hi = _parse_range(text, "theta range")
        return tuple(range(lo, hi + 1))
    try:
        return (int(text),)
    except ValueError:
        raise ValidationError(f"theta must be an integer or range, got {text!r}") from None


def _parse_assignments(pairs: list[str], what: str) -> dict[str, str]:
    table = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"{what} must look like 'zone=value', got {pair!r}")
        zone, value = pair.split("=", 1)
        table[zone] = value
    return table


@functools.cache
def _file_mode() -> int:
    """Mode a plainly created file gets: 0o666 less the process umask."""
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def _atomic_write(path: Path, text: str) -> None:
    """Write through a uniquely named temp file in the target directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, _file_mode())  # mkstemp creates it 0o600
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_schedules(config: RunConfig, zone_ids: tuple[str, ...]) -> Schedules:
    """Per zone, in ``zone_ids`` order: windowed schedule and start label."""
    for zid in config.occupancy_paths:
        if zid not in zone_ids:
            raise ValidationError(f"--occupancy references unknown zone {zid!r}")
    schedules = {}
    for zid in zone_ids:
        if zid not in config.occupancy_paths:
            raise ValidationError(f"no occupancy file given for zone {zid!r} (--occupancy)")
        path = config.occupancy_paths[zid]
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise ValidationError(f"occupancy file not found: {path}") from None
        try:
            dataset = occupancy.parse_occupancy_csv(text)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        schedules[zid] = _window_schedule(dataset, config.window, zid)
    return schedules


def _window_schedule(
    dataset: occupancy.OccupancyDataset,
    window: tuple[int, int],
    zone_id: str,
) -> tuple[TransitionSchedule, bool]:
    """Estimate and slice a dataset's schedule to the operating window."""
    start, end = window
    if dataset.hours[0] > start or dataset.hours[-1] < end:
        raise ValidationError(
            f"zone {zone_id!r}: dataset hours {dataset.hours[0]}-{dataset.hours[-1]} "
            f"do not cover the window {start}-{end}"
        )
    full = occupancy.estimate_transition_schedule(dataset)
    offset = start - dataset.hours[0]
    steps = []
    for k in range(end - start):
        m = full.matrix(offset + k)
        steps.append(occupancy.StepMatrix(step=k, p_vf=m.p_vf, p_vv=m.p_vv,
                                          p_ff=m.p_ff, p_fv=m.p_fv))
    diags = tuple(d for d in full.diagnostics if start <= d.hour < end)
    first_frac = sum(
        dataset.records[(d, start)] for d in dataset.days
    ) / dataset.day_count
    if first_frac not in (0.0, 1.0):
        raise ValidationError(
            f"zone {zone_id!r}: occupancy at the window start hour {start} is mixed "
            f"({first_frac:.2f} of days); the chain needs a deterministic start"
        )
    schedule = TransitionSchedule(
        matrices=tuple(steps),
        hours=tuple(range(start, end + 1)),
        diagnostics=diags,
    )
    return schedule, first_frac == 1.0


def _resolve_strategy(config: RunConfig, zone_ids: tuple[str, ...],
                      name_or_path: str | None = None) -> strategy_mod.HeatingStrategy:
    ref = name_or_path if name_or_path is not None else config.strategy
    if ref in strategy_mod.BUILTIN_STRATEGY_NAMES:
        strat = strategy_mod.builtin_strategy(ref, zone_ids)
    else:
        strat = strategy_mod.parse_strategy(Path(ref), zone_ids=zone_ids)
    strategy_mod.validate_strategy_window(strat, config.window)
    return strat


def _resolve_tariff(config: RunConfig) -> strategy_mod.Tariff:
    if config.tariff == "table2":
        return strategy_mod.table2_tariff()
    return strategy_mod.parse_tariff(Path(config.tariff))


def _compose(config: RunConfig, schedules: Schedules,
             strat: strategy_mod.HeatingStrategy) -> markov.ComposedModel:
    """The product chain; only PRISM export and ``--dump-chain`` need it."""
    horizon = config.window[1] - config.window[0]
    return markov.compose([
        markov.unroll_zone(schedule, strat.heating_bits(zid, config.window), horizon,
                           zone_id=zid, initial_occupied=initial_occupied)
        for zid, (schedule, initial_occupied) in schedules.items()
    ])


def _load_inputs(config: RunConfig):
    """Building, per-zone schedules and the single strategy, each parsed once."""
    network, thermal = load_building(config.building)
    schedules = _load_schedules(config, thermal.zone_ids)
    return network, thermal, schedules, _resolve_strategy(config, thermal.zone_ids)


def _build_model(config: RunConfig):
    """Load building + occupancy + strategy into a composed model."""
    network, thermal, schedules, strat = _load_inputs(config)
    return network, thermal, _compose(config, schedules, strat), strat


def _trajectories(config: RunConfig, thermal: DiscreteThermalModel, schedules: Schedules,
                  strategies: list[strategy_mod.HeatingStrategy]):
    """Per strategy, the expected temperatures from the O(N^2 K) marginal recursion."""
    zone_ids = thermal.zone_ids
    gains = config.gains_for(zone_ids)
    marginals = np.array([occupancy.occupancy_marginals(schedule, float(initial_occupied))
                          for schedule, initial_occupied in schedules.values()]).T
    out = []
    for strat in strategies:
        heating = np.array([strat.heating_bits(zid, config.window) for zid in zone_ids]).T
        values = analysis.direct_expected_temperatures(
            thermal, gains, marginals, heating, config.thetas)
        out.append(analysis.TemperatureTrajectory(zone_ids, config.thetas, values))
    return out


def cmd_analyze(config: RunConfig, dump_chain: bool = False) -> int:
    _, thermal, schedules, strat = _load_inputs(config)
    (trajectory,) = _trajectories(config, thermal, schedules, [strat])
    report = analysis.comfort_check(trajectory, config.band)

    lines = ["theta_hour,zone_id,expected_temp_c"]
    for ti, theta in enumerate(trajectory.thetas):
        hour = config.window[0] + theta
        for zi, zid in enumerate(trajectory.zone_ids):
            lines.append(f"{hour},{zid},{float(trajectory.values[ti, zi])!r}")
    _atomic_write(config.out_dir / "trajectory.csv", "\n".join(lines) + "\n")
    _atomic_write(config.out_dir / "comfort.json",
                  json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    if dump_chain:
        rewarded = markov.assign_rewards(_compose(config, schedules, strat), thermal,
                                         config.gains_for(thermal.zone_ids), config.thetas[0])
        _atomic_write(config.out_dir / "chain.json",
                      json.dumps(markov.dump_model(rewarded), indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_cost(config: RunConfig, strategy_refs: list[str]) -> int:
    if not strategy_refs:
        raise ValidationError("no strategies given (--strategy)")
    _, thermal = load_building(config.building)
    zone_ids = thermal.zone_ids
    tariff = _resolve_tariff(config)
    strategies = [_resolve_strategy(config, zone_ids, ref) for ref in strategy_refs]

    # with occupancy data on hand, rank comfort alongside cost
    comfort_by_strategy = None
    if config.occupancy_paths:
        schedules = _load_schedules(config, zone_ids)
        trajectories = _trajectories(config, thermal, schedules, strategies)
        comfort_by_strategy = {
            strat.name: analysis.comfort_check(trajectory, config.band).as_dict()["summary"]
            for strat, trajectory in zip(strategies, trajectories)
        }

    comparison = strategy_mod.compare_strategies(
        strategies, tariff, radiator_kw=config.radiator_kw,
        comfort_by_strategy=comfort_by_strategy,
    )

    band_names = [b.name for b in tariff.bands]
    header = ["strategy"] + [f"energy_{b}_kwh" for b in band_names] + [
        "total_cost_minor", "total_cost", "cost_ratio_vs_cheapest", "notes"]
    lines = [",".join(header)]
    for row in comparison.rows:
        ratio = "" if row.cost_ratio is None else repr(row.cost_ratio)
        note = " | ".join(row.notes).replace(",", ";")
        cells = [row.strategy]
        cells += [repr(row.band_energy_kwh.get(b, 0.0)) for b in band_names]
        cells += [str(row.total_cost_minor), f"{row.total_cost_minor / 100:.2f}", ratio, note]
        lines.append(",".join(cells))
    _atomic_write(config.out_dir / "cost.csv", "\n".join(lines) + "\n")

    payload = {
        "baseline": comparison.baseline,
        "flags": list(comparison.flags),
        "rows": [
            {
                "strategy": r.strategy,
                "band_energy_kwh": r.band_energy_kwh,
                "total_cost_minor": r.total_cost_minor,
                "cost_ratio_vs_cheapest": r.cost_ratio,
                "comfort": r.comfort,
                "notes": list(r.notes),
            }
            for r in comparison.rows
        ],
    }
    _atomic_write(config.out_dir / "cost.json",
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_export(config: RunConfig, name: str, to_stdout: bool = False) -> int:
    _, thermal, model, _ = _build_model(config)
    gains = config.gains_for(thermal.zone_ids)
    artifacts = {}
    for theta in config.thetas:
        rewarded = markov.assign_rewards(model, thermal, gains, theta)
        artifacts[theta] = prism.export_prism_model(rewarded, name=name,
                                                    theta_range=config.thetas)
    if to_stdout:
        for theta in config.thetas:
            sys.stdout.write(artifacts[theta].model_text)
        sys.stdout.write(artifacts[config.thetas[0]].properties_text)
        return EXIT_OK
    for theta, artifact in artifacts.items():
        suffix = f"_theta{theta}" if len(config.thetas) > 1 else ""
        _atomic_write(config.out_dir / f"{name}{suffix}.pm", artifact.model_text)
    _atomic_write(config.out_dir / f"{name}.props",
                  artifacts[config.thetas[0]].properties_text)
    return EXIT_OK


def cmd_estimate(csv_path: Path, out_dir: Path, to_stdout: bool = False) -> int:
    try:
        text = Path(csv_path).read_text()
    except FileNotFoundError:
        raise ValidationError(f"occupancy file not found: {csv_path}") from None
    try:
        dataset = occupancy.parse_occupancy_csv(text)
    except ValidationError as exc:
        raise ValidationError(f"{csv_path}: {exc}") from None
    schedule = occupancy.estimate_transition_schedule(dataset)
    payload = schedule.as_dict()
    payload["days"] = dataset.day_count
    warnings = []
    if dataset.day_count < 5:
        warnings.append(f"low sample: only {dataset.day_count} day(s) in the dataset")
    payload["warnings"] = warnings
    text_out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if to_stdout:
        sys.stdout.write(text_out)
    else:
        _atomic_write(out_dir / "schedule.json", text_out)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="thermark",
        description="Occupancy-driven thermal analysis of multi-zone buildings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, building_required: bool = True) -> None:
        p.add_argument("--building", required=building_required,
                       help="building topology JSON file")
        p.add_argument("--occupancy", action="append", default=[],
                       metavar="ZONE=PATH", help="occupancy CSV per zone (repeatable)")
        p.add_argument("--strategy", action="append", default=[],
                       help="builtin name (S1..S6) or strategy JSON path (repeatable)")
        p.add_argument("--tariff", default="table2",
                       help="'table2' or tariff JSON path")
        p.add_argument("--gains", action="append", default=[],
                       metavar="ZONE=Q_INT,Q_RAD", help="per-zone gains in degC/hour")
        p.add_argument("--window", default="8-17", help="operating hours, e.g. 8-17")
        p.add_argument("--band", default="20-22", help="comfort band, e.g. 20-22")
        p.add_argument("--theta", default=None,
                       help="evaluation step or range (defaults to the full window)")
        p.add_argument("--radiator-kw", type=float, default=1.0,
                       help="radiator power per zone (kW)")
        p.add_argument("--out", default=".", help="output directory")

    p_analyze = sub.add_parser("analyze", help="expected-temperature trajectory + comfort")
    add_common(p_analyze)
    p_analyze.add_argument("--dump-chain", action="store_true",
                           help="also write the composed chain as chain.json")

    p_cost = sub.add_parser("cost", help="energy and cost per strategy")
    add_common(p_cost)

    p_export = sub.add_parser("export", help="emit PRISM model/properties")
    add_common(p_export)
    p_export.add_argument("--name", default="building", help="basename for .pm/.props")
    p_export.add_argument("--stdout", action="store_true",
                          help="print to standard output instead of files")

    p_estimate = sub.add_parser("estimate", help="estimate transition matrices from a CSV")
    p_estimate.add_argument("occupancy_csv", help="occupancy CSV file")
    p_estimate.add_argument("--out", default=".", help="output directory")
    p_estimate.add_argument("--stdout", action="store_true",
                            help="print to standard output instead of files")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    window = _parse_range(args.window, "window")
    horizon = window[1] - window[0]
    thetas = _parse_thetas(args.theta) if args.theta else tuple(range(1, horizon + 1))
    if min(thetas) < 1 or max(thetas) > horizon:
        raise ValidationError(f"theta range {thetas} outside 1..{horizon}")
    if not math.isfinite(args.radiator_kw):
        raise ValidationError(f"--radiator-kw must be a finite number, got {args.radiator_kw}")
    gains: dict[str, tuple[float, float]] = {}
    default_gains = DEFAULT_GAINS
    for pair in args.gains:
        if "=" in pair:
            zone, value = pair.split("=", 1)
        else:
            zone, value = None, pair
        try:
            q_int, q_rad = _finite_floats(value, ",")
        except ValueError:
            raise ValidationError(
                f"gains must look like 'zone=0.7,1.5' or '0.7,1.5' with finite numbers, "
                f"got {pair!r}"
            ) from None
        if zone is None:
            default_gains = (q_int, q_rad)
        else:
            gains[zone] = (q_int, q_rad)
    occupancy_paths = {
        z: Path(p) for z, p in _parse_assignments(args.occupancy, "--occupancy").items()
    }
    strategy_refs = list(args.strategy)
    return RunConfig(
        building=Path(args.building),
        occupancy_paths=occupancy_paths,
        strategy=strategy_refs[0] if strategy_refs else "S1",
        tariff=args.tariff,
        gains=gains,
        default_gains=default_gains,
        window=window,
        band=_parse_band(args.band),
        thetas=thetas,
        out_dir=Path(args.out),
        radiator_kw=args.radiator_kw,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "estimate":
            return cmd_estimate(Path(args.occupancy_csv), Path(args.out),
                                to_stdout=args.stdout)
        if args.command in ("analyze", "export") and len(args.strategy) > 1:
            raise ValidationError(
                f"{args.command} takes one --strategy, got {len(args.strategy)}")
        config = _config_from_args(args)
        if args.command == "analyze":
            return cmd_analyze(config, dump_chain=args.dump_chain)
        if args.command == "cost":
            refs = list(args.strategy) or list(strategy_mod.BUILTIN_STRATEGY_NAMES)
            return cmd_cost(config, refs)
        if args.command == "export":
            return cmd_export(config, name=args.name, to_stdout=args.stdout)
        raise ValidationError(f"unknown command {args.command!r}")
    except NumericalGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ThermarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
