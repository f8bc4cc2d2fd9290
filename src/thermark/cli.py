"""Batch command-line interface.

Subcommands: ``analyze`` (expected-temperature trajectories + comfort),
``cost`` (tariff costing of heating strategies), ``export`` (PRISM model
and property files) and ``estimate`` (occupancy transition matrices from
a CSV log). All user-facing hours are absolute hours of the day; internal
step indices are hour minus the window start. Outputs are deterministic
and written atomically.

Exit codes: 0 success, 2 validation/configuration error (including an
unreadable input file or an output that cannot be written), 3 numerical
guard (unstable discretisation, a ``--dump-chain`` chain above
``DUMP_MAX_EDGES``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import os
import sys
import types
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import analysis, markov, occupancy, prism, strategy as strategy_mod
from .errors import NumericalGuardError, ThermarkError, ValidationError, is_name, read_bytes
from .markov import ZoneGains
from .records import Record
from .thermal import DiscreteThermalModel, load_building

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3

DEFAULT_GAINS = (0.7, 1.5)  # degC per hour: occupants, radiator
NAME_MAX = 255  # bytes in one file name on common file systems
# the largest product chain --dump-chain writes, in edges; N=8 zones over
# K=9 steps (524 801 edges, a 59 MB chain.json) takes 1.4 s and 38 MiB peak
# RSS as a fresh process on a 2-vCPU VM, and still fits
DUMP_MAX_EDGES = 2 ** 20
_NO_ENTRIES = types.MappingProxyType({})  # RunConfig's shared, read-only default mapping


class RunConfig(Record):
    """Resolved settings shared by the subcommands."""

    building: Path
    occupancy_paths: dict[str, Path] = _NO_ENTRIES
    strategies: tuple[str, ...] = ("S1",)  # builtin names or strategy JSON paths
    tariff: str = "table2"
    gains: dict[str | None, tuple[float, float]] = _NO_ENTRIES  # None: the default
    window: tuple[int, int] = (8, 17)
    band: tuple[float, float] = (20.0, 22.0)
    thetas: tuple[int, ...] = tuple(range(1, 10))
    out_dir: Path = Path(".")
    radiator_kw: float = 1.0

    def gains_for(self, zone_ids: tuple[str, ...]) -> dict[str, ZoneGains]:
        known = set(zone_ids)
        for zid in self.gains:
            if zid is not None and zid not in known:
                raise ValidationError(f"--gains references unknown zone {zid!r}")
        default = self.gains.get(None, DEFAULT_GAINS)
        table = {}
        for zid in zone_ids:
            q_int, q_rad = self.gains.get(zid, default)
            if q_int < 0 or q_rad < 0:
                raise ValidationError(f"gains for zone {zid!r} must be >= 0")
            table[zid] = ZoneGains(q_int=q_int, q_rad=q_rad)
        return table


class Schedules(Record):
    """Every zone's windowed step probabilities, deterministic start label
    and occupancy marginals, rows in ``zone_ids`` order."""

    zone_ids: tuple[str, ...]
    p_vf: np.ndarray  # (N, K): P(occupied at k+1 | empty at k)
    p_ff: np.ndarray  # (N, K): P(occupied at k+1 | occupied at k)
    initial_occupied: list[bool]
    marginals: np.ndarray  # (N, K+1): P(occupied at k), which no heating changes


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


def _parse_assignments(pairs: list[str], what: str,
                       default: bool = False) -> dict[str | None, str]:
    """``zone=value`` pairs as a table, each zone at most once; with
    ``default``, a bare value is the default, under the key None."""
    table = {}
    for pair in pairs:
        if "=" in pair:
            zone, value = pair.split("=", 1)
        elif default:
            zone, value = None, pair
        else:
            raise ValidationError(f"{what} must look like 'zone=value', got {pair!r}")
        if zone in table:
            raise ValidationError(f"{what} gives the default twice" if zone is None
                                  else f"{what} names zone {zone!r} twice")
        table[zone] = value
    return table


def _csv_text(rows: Iterable[list]) -> str:
    """Rows as CSV lines ended by ``\n``; a cell holding a comma or a quote
    is quoted, every other cell is written as it is."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _write_in(directory: Path, prefix: str, name: str, text: str | Iterable[str]) -> None:
    """Write ``text``, or each of its pieces in turn, as UTF-8 to the temp
    file ``.<name>.<n>.tmp`` in ``directory`` (the first ``n`` from 0 whose
    name is free), then rename it onto ``name``. The directory must exist;
    a failed write removes the temp file. The system calls take string
    paths, ``prefix`` (``directory`` joined with an empty name, so ending
    in a separator) then a file name; a message's path is built from
    ``directory`` only when it is raised, so it reads as the ``Path`` does."""
    for n in itertools.count():
        tmp = f"{prefix}.{name}.{n}.tmp"
        try:
            # the kernel applies the umask, as for a plainly created file
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise ValidationError(
                f"cannot write to {directory}: {exc.strerror or exc}") from None
    try:
        try:
            for piece in [text] if isinstance(text, str) else text:
                data = memoryview(piece.encode())
                while data:
                    data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, prefix + name)
    except OSError as exc:
        os.unlink(tmp)
        raise ValidationError(f"cannot write {directory / name}: {exc.strerror or exc}") from None
    except BaseException:
        os.unlink(tmp)
        raise


# the JSON outputs are written from fixed layouts, in the bytes json.dumps(payload, indent=2,
# sort_keys=True) + "\n" gives: strings by _quote (ensure_ascii), keys sorted, numbers by repr
_BOOL, _CLASS = ("false", "true"), ("within", "below", "above")  # _CLASS[below - above]


def _block(items: Iterable[str], indent: str, brackets: str = "[]") -> str:
    """A JSON list (or object) of items written at ``indent`` plus two spaces."""
    items = ",\n".join(items)
    return f"{brackets[0]}\n{items}\n{indent}{brackets[1]}" if items else brackets


def _strings(values: Iterable[str], indent: str) -> str:
    return _block((f"{indent}  {_quote(v)}" for v in values), indent)


def _summary(zone_ids: tuple[str, ...], ever_below: np.ndarray, ever_above: np.ndarray,
             indent: str) -> str:
    """Each zone's ``ever_above`` and ``ever_below`` flags, zones in id order."""
    i = indent + "  "
    flags = sorted(zip(zone_ids, ever_below.tolist(), ever_above.tolist()))
    return _block((f'{i}{_quote(z)}: {{\n{i}  "ever_above": {_BOOL[a]},\n'
                   f'{i}  "ever_below": {_BOOL[b]}\n{i}}}' for z, b, a in flags), indent, "{}")


def _comfort_json(band: tuple[float, float], thetas: tuple[int, ...], zone_ids: tuple[str, ...],
                  masks: tuple[np.ndarray, ...]) -> str:
    """comfort.json from one strategy's masks; comfort_check rejects a non-finite band."""
    below, above, ever_below, ever_above = masks
    zones = [_quote(z) for z in zone_ids]
    points = (f'    {{\n      "classification": "{_CLASS[b - a]}",\n      "theta": {theta},\n'
              f'      "zone": {z}\n    }}' for theta, row_b, row_a in
              zip(thetas, below.tolist(), above.tolist()) for z, b, a in zip(zones, row_b, row_a))
    return (f'{{\n  "band": {{\n    "high": {band[1]!r},\n    "low": {band[0]!r}\n  }},\n'
            f'  "points": {_block(points, "  ")},\n'
            f'  "summary": {_summary(zone_ids, ever_below, ever_above, "  ")}\n}}\n')


def _cost_json(comparison: strategy_mod.StrategyComparison, zone_ids: tuple[str, ...],
               ever: dict[str, tuple[np.ndarray, np.ndarray]]) -> str:
    """cost.json from the ranked rows and the (N,) ever_below and ever_above masks
    of each strategy that has them; compare_strategies keeps each number finite."""
    rows = ('    {\n      "band_energy_kwh": %s,\n      "comfort": %s,\n'
            '      "cost_ratio_vs_cheapest": %s,\n      "notes": %s,\n      "strategy": %s,\n'
            '      "total_cost_minor": %s\n    }' % (
                _block((f"        {_quote(band)}: {kwh!r}" for band, kwh in
                        sorted(r.band_energy_kwh.items())), "      ", "{}"),
                _summary(zone_ids, *ever[r.strategy], "      ") if r.strategy in ever else "null",
                "null" if r.cost_ratio is None else repr(r.cost_ratio),
                _strings(r.notes, "      "), _quote(r.strategy), r.total_cost_minor)
            for r in comparison.rows)
    baseline = "null" if comparison.baseline is None else _quote(comparison.baseline)
    return (f'{{\n  "baseline": {baseline},\n  "flags": {_strings(comparison.flags, "  ")},\n'
            f'  "rows": {_block(rows, "  ")}\n}}\n')


def _schedule_json(hours: tuple[int, ...], p_vf: np.ndarray, p_ff: np.ndarray,
                   occupied: np.ndarray, days: int, warnings: list[str]) -> str:
    """schedule.json from one log's ``estimate_steps`` rows, the (H-1,) probabilities in
    [0, 1] and the (H,) days occupied at each of the H ``hours``. A step whose hour no day
    was empty (or occupied) at defaulted to stay-in-state, and is flagged."""
    steps = (f'    {{\n      "hour_from": {h0},\n      "hour_to": {h1},\n      "p_ff": {f!r},'
             f'\n      "p_fv": {1.0 - f!r},\n      "p_vf": {v!r},\n      "p_vv": {1.0 - v!r},'
             f'\n      "step": {k}\n    }}'
             for k, (v, f, h0, h1) in enumerate(zip(p_vf.tolist(), p_ff.tolist(), hours,
                                                    hours[1:])))
    diagnostics = (f'    {{\n      "condition": "{c}",\n      "hour": {hour},\n      "reason": '
                   f'"no day was {c} at this hour; defaulted to stay-in-state"\n    }}'
                   for hour, n in zip(hours[:-1], occupied.tolist())
                   for c, unseen in (("empty", n == days), ("occupied", n == 0)) if unseen)
    return (f'{{\n  "days": {days},\n  "diagnostics": {_block(diagnostics, "  ")},\n'
            f'  "steps": {_block(steps, "  ")},\n  "warnings": {_strings(warnings, "  ")}\n}}\n')


def _write_outputs(out_dir: Path, files: dict[str, str | Iterable[str]]) -> None:
    """Create ``out_dir``, and its parents, unless it is a directory, then
    write each file into it through :func:`_write_in`, in order."""
    prefix = os.path.join(out_dir, "")  # the directory's string, joined once
    if not os.path.isdir(prefix):
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot write to {out_dir}: {exc.strerror or exc}") from None
    for name, text in files.items():
        _write_in(out_dir, prefix, name, text)


def _load_schedules(config: RunConfig, zone_ids: tuple[str, ...]) -> Schedules:
    """Every zone's windowed schedule, marginals and start label, in
    ``zone_ids`` order, each log read once and all estimated in one count.
    The error names the first zone in order with a fault: no log given, a
    file that cannot be read or a log the parser rejects, then a log that
    does not cover the window or a start hour whose days are mixed."""
    known = set(zone_ids)
    for zid in config.occupancy_paths:
        if zid not in known:
            raise ValidationError(f"--occupancy references unknown zone {zid!r}")
    fault = None

    def logs():
        """Each zone's log in turn, up to the first that cannot be read, whose
        error is kept in ``fault``."""
        nonlocal fault
        for zid in zone_ids:
            if zid not in config.occupancy_paths:
                fault = ValidationError(f"no occupancy file given for zone {zid!r} (--occupancy)")
                return
            try:
                data = read_bytes(config.occupancy_paths[zid], "occupancy")
            except ValidationError as exc:
                fault = exc
                return
            yield data

    try:
        # the parser takes the logs in turn and keeps none once read but
        # its reference, which later logs of its layout are checked against
        datasets = occupancy.parse_occupancy_logs(logs())
    except occupancy.LogFault as exc:
        datasets = exc.datasets
        fault = ValidationError(f"{config.occupancy_paths[zone_ids[len(datasets)]]}: {exc}")
    start, end = config.window
    initial_occupied = []
    for zid, dataset in zip(zone_ids, datasets):
        if dataset.hours[0] > start or dataset.hours[-1] < end:
            raise ValidationError(
                f"zone {zid!r}: dataset hours {dataset.hours[0]}-{dataset.hours[-1]} "
                f"do not cover the window {start}-{end}"
            )
        occupied = int(np.count_nonzero(dataset.grid[:, start - dataset.hours[0]]))
        if 0 < occupied < dataset.day_count:
            raise ValidationError(
                f"zone {zid!r}: occupancy at the window start hour {start} is mixed "
                f"({occupied / dataset.day_count:.2f} of days); the chain needs a "
                f"deterministic start"
            )
        initial_occupied.append(occupied > 0)
    if fault is not None:
        raise fault
    # the window's columns, read-only views taken without a copy
    p_vf, p_ff, _, _ = occupancy.estimate_steps(
        [d.grid[:, start - d.hours[0]:end - d.hours[0] + 1] for d in datasets])
    return Schedules(zone_ids, p_vf, p_ff, initial_occupied,
                     markov.occupied_marginals(p_vf, p_ff, initial_occupied))


def _read_dataset(path: Path) -> occupancy.OccupancyDataset:
    """Read and parse one occupancy log; any failure names the file."""
    data = read_bytes(path, "occupancy")
    try:
        return occupancy.parse_occupancy_csv(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _heating_bits(config: RunConfig, zone_ids: tuple[str, ...],
                  strategies: list[strategy_mod.HeatingStrategy]) -> list[list[list[bool]]]:
    """Each strategy's on/off bits over the window, one list per zone in
    ``zone_ids`` order; built once per run for the chains and the
    trajectories alike."""
    return [[strat.heating_bits(zid, config.window) for zid in zone_ids] for strat in strategies]


def _chains(config: RunConfig, schedules: Schedules,
            heating: list[list[bool]]) -> list[markov.ZoneChain]:
    """One unrolled chain per zone, in ``schedules`` order, heated by one
    strategy's bits in that order."""
    return markov.unroll_zones(
        schedules.zone_ids, schedules.p_vf, schedules.p_ff, heating,
        config.window[1] - config.window[0], schedules.initial_occupied)


def _load_inputs(config: RunConfig) -> tuple[DiscreteThermalModel, dict[str, ZoneGains],
                                              list[strategy_mod.HeatingStrategy]]:
    """The thermal model, the gains table and the resolved strategies,
    checked in that order: the building, the strategies, the gains."""
    _, thermal = load_building(config.building)
    zone_ids = thermal.zone_ids
    for zid in zone_ids:
        if "=" in zid:
            raise ValidationError(f"{config.building}: zone id {zid!r} holds '=', which "
                                  f"--occupancy and --gains read as the end of the zone id")
    strategies = []
    for ref in config.strategies:
        strategies.append(strategy_mod.builtin_strategy(ref, zone_ids)
                          if ref in strategy_mod.BUILTIN_STRATEGY_NAMES
                          else strategy_mod.parse_strategy(Path(ref), zone_ids))
        strategy_mod.validate_strategy_window(strategies[-1], config.window)
    names = [strat.name for strat in strategies]
    for i, name in enumerate(names):
        first = names.index(name)
        if first < i:
            raise ValidationError(
                f"--strategy {config.strategies[first]} and --strategy {config.strategies[i]} "
                f"are both named {name!r}; each compared strategy needs its own name")
    return thermal, config.gains_for(zone_ids), strategies


def _trajectories(config: RunConfig, thermal: DiscreteThermalModel,
                  gains: dict[str, ZoneGains], marginals: np.ndarray,
                  heating: list[list[list[bool]]]) -> np.ndarray:
    """Expected temperatures of every strategy, (S, len(thetas), N), from one
    run of the O(N^2 K) marginal recursion; ``marginals`` are the zones'
    ``Schedules.marginals`` in thermal order, and ``heating`` holds each strategy's
    ``_heating_bits`` in that order."""
    return analysis.direct_expected_temperatures(
        thermal, gains, marginals.T, np.array(heating, dtype=float).swapaxes(1, 2), config.thetas)


def cmd_analyze(config: RunConfig, dump_chain: bool = False) -> int:
    thermal, gains, (strat,) = _load_inputs(config)
    zone_ids = thermal.zone_ids
    schedules = _load_schedules(config, zone_ids)
    if dump_chain:
        width, horizon = 2 ** len(zone_ids), config.window[1] - config.window[0]
        edges = width + (horizon - 1) * width ** 2 + width + 1
        if edges > DUMP_MAX_EDGES:
            raise NumericalGuardError(
                f"--dump-chain: the product chain has {edges} edges, above the limit of "
                f"{DUMP_MAX_EDGES}; use fewer zones or a shorter window")
    heating = _heating_bits(config, zone_ids, [strat])
    # only chain.json reads the chains; built before the trajectories, so that
    # errors come in one order with or without --dump-chain
    chains = _chains(config, schedules, heating[0]) if dump_chain else []
    values = _trajectories(config, thermal, gains, schedules.marginals, heating)
    masks = tuple(mask[0] for mask in analysis.comfort_check(values, config.band))

    rows = [["theta_hour", "zone_id", "expected_temp_c"]]
    for theta, temps in zip(config.thetas, values[0].tolist()):
        rows += ([config.window[0] + theta, zid, repr(t)] for zid, t in zip(zone_ids, temps))
    outputs = {"trajectory.csv": _csv_text(rows),
               "comfort.json": _comfort_json(config.band, config.thetas, zone_ids, masks)}
    if dump_chain:
        (rewards,) = markov.step_reward_table(chains, thermal, gains, config.thetas[:1],
                                              schedules.marginals)
        outputs["chain.json"] = markov.dump_model(markov.compose(chains), rewards,
                                                  config.thetas[0])
    _write_outputs(config.out_dir, outputs)
    return EXIT_OK


def cmd_cost(config: RunConfig) -> int:
    thermal, gains, strategies = _load_inputs(config)
    tariff = (strategy_mod.table2_tariff() if config.tariff == "table2"
              else strategy_mod.parse_tariff(Path(config.tariff)))
    # with occupancy data on hand, rank comfort alongside cost
    ever = {}
    if config.occupancy_paths:
        heating = _heating_bits(config, thermal.zone_ids, strategies)
        _, _, ever_below, ever_above = analysis.comfort_check(_trajectories(
            config, thermal, gains, _load_schedules(config, thermal.zone_ids).marginals,
            heating), config.band)
        ever = {strat.name: flags for strat, *flags in zip(strategies, ever_below, ever_above)}

    comparison = strategy_mod.compare_strategies(strategies, tariff,
                                                 radiator_kw=config.radiator_kw)

    band_names = [b.name for b in tariff.bands]
    rows = [["strategy"] + [f"energy_{b}_kwh" for b in band_names] + [
        "total_cost_minor", "total_cost", "cost_ratio_vs_cheapest", "notes"]]
    for row in comparison.rows:
        ratio = "" if row.cost_ratio is None else repr(row.cost_ratio)
        note = " | ".join(row.notes).replace(",", ";")
        rows.append([row.strategy, *(repr(row.band_energy_kwh.get(b, 0.0)) for b in band_names),
                     row.total_cost_minor, f"{row.total_cost_minor / 100:.2f}", ratio, note])
    _write_outputs(config.out_dir, {"cost.csv": _csv_text(rows),
                                    "cost.json": _cost_json(comparison, thermal.zone_ids, ever)})
    return EXIT_OK


def cmd_export(config: RunConfig, name: str, to_stdout: bool = False) -> int:
    # the name is a file name inside --out and a line of the model's header
    if not is_name(name) or "/" in name or name.startswith("."):
        raise ValidationError(f"--name must be a file name with no '/', leading '.' "
                              f"or control character, got {name!r}")
    # each output is first written as .<file>.0.tmp, and the longest such name,
    # .<name>_theta<k>.pm.0.tmp or .<name>.props.0.tmp, must fit in one file name
    suffix = f"_theta{max(config.thetas)}" if len(config.thetas) > 1 else ""
    limit = NAME_MAX - max(len(f".{suffix}.pm.0.tmp"), len("..props.0.tmp"))
    if len(name.encode()) > limit:
        raise ValidationError(f"--name must be at most {limit} UTF-8 bytes with these thetas, "
                              f"so that its temp file names fit in {NAME_MAX}; "
                              f"got {len(name.encode())}")
    thermal, gains, (strat,) = _load_inputs(config)
    (heating,) = _heating_bits(config, thermal.zone_ids, [strat])
    schedules = _load_schedules(config, thermal.zone_ids)
    chains = _chains(config, schedules, heating)
    table = markov.step_reward_table(chains, thermal, gains, config.thetas, schedules.marginals)
    models = prism.render_models(chains, table, config.thetas, thermal.delta, name)
    outputs = {f"{name}_theta{theta}.pm" if len(config.thetas) > 1 else f"{name}.pm": text
               for theta, text in zip(config.thetas, models)}
    outputs[f"{name}.props"] = prism.export_properties(config.thetas, thermal.zone_ids)
    if to_stdout:
        sys.stdout.write("".join(outputs.values()))
    else:
        _write_outputs(config.out_dir, outputs)
    return EXIT_OK


def cmd_estimate(csv_path: Path, out_dir: Path, to_stdout: bool = False) -> int:
    dataset = _read_dataset(csv_path)
    if len(dataset.hours) < 2:
        raise ValidationError("need at least two hours to estimate transitions")
    (p_vf,), (p_ff,), (occupied,), _ = occupancy.estimate_steps([dataset.grid])
    days = dataset.day_count
    warnings = [f"low sample: only {days} day(s) in the dataset"] if days < 5 else []
    text = _schedule_json(dataset.hours, p_vf, p_ff, occupied, days, warnings)
    if to_stdout:
        sys.stdout.write(text)
    else:
        _write_outputs(out_dir, {"schedule.json": text})
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="thermark",
        description="Occupancy-driven thermal analysis of multi-zone buildings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *extra: str) -> None:
        """The options every model subcommand reads, then those of ``extra``."""
        p.add_argument("--building", required=True, help="building topology JSON file")
        p.add_argument("--occupancy", action="append", default=[],
                       metavar="ZONE=PATH", help="occupancy CSV per zone (repeatable)")
        p.add_argument("--strategy", action="append", default=[],
                       help="builtin name (S1..S6) or strategy JSON path (repeatable)")
        p.add_argument("--gains", action="append", default=[],
                       metavar="ZONE=Q_INT,Q_RAD", help="per-zone gains in degC/hour")
        p.add_argument("--window", default="8-17", help="operating hours, e.g. 8-17")
        p.add_argument("--theta", default=None,
                       help="evaluation step or range (defaults to the full window)")
        p.add_argument("--out", default=".", help="output directory")
        options = {
            "--band": dict(default="20-22", help="comfort band, e.g. 20-22"),
            "--tariff": dict(default="table2", help="'table2' or tariff JSON path"),
            "--radiator-kw": dict(type=float, default=1.0, help="radiator power per zone (kW)"),
        }
        for flag in extra:
            p.add_argument(flag, **options[flag])

    p_analyze = sub.add_parser("analyze", help="expected-temperature trajectory + comfort")
    add_common(p_analyze, "--band")
    p_analyze.add_argument("--dump-chain", action="store_true",
                           help="also write the composed chain as chain.json")

    p_cost = sub.add_parser("cost", help="energy and cost per strategy")
    add_common(p_cost, "--band", "--tariff", "--radiator-kw")

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


# the action kinds that build_parser's subcommands hold, besides -h; the pass reads these
_ARGV_KINDS = {argparse._StoreAction: "store", argparse._AppendAction: "append",
               argparse._StoreTrueAction: "flag"}


@functools.cache
def _argv_tables() -> dict[str, tuple]:
    """The action table of each subcommand's parser in :func:`build_parser`,
    by name, as :func:`_read_argv` reads it: each option string's ``(dest,
    kind, type or const)``, the positional dests in order, every dest's
    default in the order ``parse_args`` sets them (the subcommand's dest
    first), and the required dests. A parser that holds an action of a kind
    the pass does not read has no table."""
    (commands,) = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return {command: table for command, parser in commands.choices.items()
            if (table := _argv_table(commands.dest, command, parser)) is not None}


def _argv_table(dest: str, command: str, parser: argparse.ArgumentParser) -> tuple | None:
    """One subcommand's table for :func:`_argv_tables`, or None."""
    options, positionals, defaults, required = {}, [], {dest: command}, set()
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue  # not in the table, so -h and --help go to argparse
        kind = _ARGV_KINDS.get(type(action))
        # the pass reads one value per option or positional, or none for a flag, and
        # no choices; argparse converts a string default by the type when it is used
        if kind is None or action.nargs not in (None, 0) or action.choices is not None or (
                isinstance(action.default, str) and action.type is not None):
            return None
        if action.required:  # argparse marks a one-value positional required
            required.add(action.dest)
        if not action.option_strings:
            positionals.append(action.dest)
        for option in action.option_strings:
            options[option] = (action.dest, kind, action.const if kind == "flag" else action.type)
        defaults[action.dest] = action.default
    return options, tuple(positionals), defaults, frozenset(required)


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace that ``build_parser().parse_args(argv)`` gives, read in
    one pass over ``argv`` from the subcommand's table in
    :func:`_argv_tables`, or None for any argv this pass does not take as
    it is. It takes a
    subcommand's name, then its exact option strings, each store or append
    option followed by one value that does not start with ``-``, and its
    positionals; anything else goes to argparse, which stays the one
    grammar and writes every help text and error: an abbreviation,
    ``--opt=value``, ``-h``, ``--``, a value that starts with ``-`` or is
    missing, a missing required option, a positional too many, or a value
    that the option's type rejects. argparse copies an append option's list
    at each use, and before Python 3.13 finds the next option by a search
    over all that remain, so N repeats cost it O(N^2); this pass is O(N)."""
    table = _argv_tables().get(argv[0]) if argv else None
    if table is None:
        return None
    options, positionals, defaults, required = table
    values, lists, seen = dict(defaults), {}, set()
    free = iter(positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):  # argparse reads an empty token as a positional too
            dest = next(free, None)
            if dest is None:
                return None
            values[dest] = token
        elif (entry := options.get(token)) is None:
            return None
        else:
            dest, kind, arg = entry
            if kind == "flag":
                values[dest] = arg
            else:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    return None
                if arg is not None:
                    try:
                        value = arg(value)
                    except (TypeError, ValueError, argparse.ArgumentTypeError):
                        return None
                if kind == "store":
                    values[dest] = value
                elif dest in lists:
                    lists[dest].append(value)
                else:  # the default copied, as argparse does, so that it stays as it is
                    lists[dest] = [*(values[dest] or ()), value]
        seen.add(dest)
    if not required <= seen:
        return None
    values.update(lists)
    return argparse.Namespace(**values)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    strategies = tuple(args.strategy) or (
        strategy_mod.BUILTIN_STRATEGY_NAMES if args.command == "cost" else ("S1",))
    if args.command != "cost" and len(strategies) > 1:
        raise ValidationError(f"{args.command} takes one --strategy, got {len(strategies)}")
    window = _parse_range(args.window, "window")
    if window[1] > 23:
        raise ValidationError(f"window must end by hour 23, got {args.window!r}")
    horizon = window[1] - window[0]
    thetas = _parse_thetas(args.theta) if args.theta else tuple(range(1, horizon + 1))
    if min(thetas) < 1 or max(thetas) > horizon:
        raise ValidationError(f"theta range {thetas} outside 1..{horizon}")
    optional = {}  # a subcommand that does not take an option keeps RunConfig's default
    if "radiator_kw" in args:
        if not math.isfinite(args.radiator_kw):
            raise ValidationError(f"--radiator-kw must be a finite number, got {args.radiator_kw}")
        optional["radiator_kw"] = args.radiator_kw
    gains = {}
    for zone, value in _parse_assignments(args.gains, "--gains", default=True).items():
        try:
            q_int, q_rad = _finite_floats(value, ",")
        except ValueError:
            pair = value if zone is None else f"{zone}={value}"
            raise ValidationError(
                f"gains must look like 'zone=0.7,1.5' or '0.7,1.5' with finite numbers, "
                f"got {pair!r}"
            ) from None
        gains[zone] = (q_int, q_rad)
    occupancy_paths = {
        z: Path(p) for z, p in _parse_assignments(args.occupancy, "--occupancy").items()
    }
    if "tariff" in args:
        optional["tariff"] = args.tariff
    if "band" in args:
        optional["band"] = _parse_band(args.band)
    return RunConfig(
        building=Path(args.building),
        occupancy_paths=occupancy_paths,
        strategies=strategies,
        gains=gains,
        window=window,
        thetas=thetas,
        out_dir=Path(args.out),
        **optional,
    )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        # argparse before Python 3.13 reads the value of "--opt=--" as [], not "--"
        for arg in itertools.takewhile("--".__ne__, argv):
            option, _, value = arg.partition("=")
            if option.startswith("--") and value == "--":
                raise ValidationError(f"{option} cannot take the value '--'")
        # an empty --theta would read as none given, the full window, and an
        # empty --out as the working directory
        for option in ("theta", "out"):
            if getattr(args, option, None) == "":
                raise ValidationError(f"--{option} cannot take an empty value")
        if args.command == "estimate":
            return cmd_estimate(Path(args.occupancy_csv), Path(args.out),
                                to_stdout=args.stdout)
        config = _config_from_args(args)
        if args.command == "analyze":
            if args.dump_chain and args.theta and len(config.thetas) > 1:
                raise ValidationError(
                    f"--dump-chain writes the rewards of one theta, but --theta {args.theta} "
                    f"names {len(config.thetas)}")
            return cmd_analyze(config, dump_chain=args.dump_chain)
        if args.command == "cost":
            return cmd_cost(config)
        return cmd_export(config, name=args.name, to_stdout=args.stdout)
    except NumericalGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ThermarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
