"""Heating strategies, time-of-use tariffs and cost reports.

A strategy is a per-zone set of hour-of-day slots during which the
radiator runs; a tariff is a list of non-overlapping price bands. Each
heated zone-hour is billed to the band containing the slot's start hour
at radiator_kw * 1 h. Prices are integer minor currency units per kWh and
all cost arithmetic is exact (Fractions internally, minor units out).

Built-ins cover the six benchmark strategies: S1 all off, S2 both zones
on over the 9..16 evaluation hours, S3/S4 single-zone variants of S2,
S5 alternating hours {9, 11, 13, 15}, and S6 selective pre-heating
{8, 9}. Two widely quoted reference figures for S5/S6 are internally
inconsistent with this accounting; cost reports carry explanatory notes
for them rather than silently diverging.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import ValidationError

BUILTIN_STRATEGY_NAMES = ("S1", "S2", "S3", "S4", "S5", "S6")
_ON_HOURS = frozenset(range(9, 17))
_ALTERNATING_HOURS = frozenset({9, 11, 13, 15})
_SELECTIVE_HOURS = frozenset({8, 9})


@dataclass(frozen=True)
class HeatingStrategy:
    """Named per-zone radiator schedule (hour-of-day slots with heating on)."""

    name: str
    schedule: dict[str, frozenset[int]]

    def hours_for(self, zone_id: str) -> frozenset[int]:
        return self.schedule.get(zone_id, frozenset())

    def heating_bits(self, zone_id: str, window: tuple[int, int]) -> list[bool]:
        """On/off bit per step 0..K for a [start, end] hour window."""
        start, end = window
        return [h in self.hours_for(zone_id) for h in range(start, end + 1)]

    def restricted_to(self, zone_id: str) -> "HeatingStrategy":
        return HeatingStrategy(
            name=f"{self.name}[{zone_id}]",
            schedule={zone_id: self.hours_for(zone_id)},
        )


@dataclass(frozen=True)
class TariffBand:
    name: str
    start: int  # inclusive hour
    end: int    # exclusive hour
    price_minor_per_kwh: int

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValidationError(f"band {self.name!r}: start must precede end")
        if self.price_minor_per_kwh < 0:
            raise ValidationError(f"band {self.name!r}: negative price")

    def covers(self, hour: int) -> bool:
        return self.start <= hour < self.end


@dataclass(frozen=True)
class Tariff:
    bands: tuple[TariffBand, ...]

    def __post_init__(self) -> None:
        ordered = sorted(self.bands, key=lambda b: b.start)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end:
                raise ValidationError(
                    f"tariff bands {prev.name!r} and {cur.name!r} overlap"
                )

    def band_for_hour(self, hour: int) -> TariffBand:
        for band in self.bands:
            if band.covers(hour):
                return band
        raise ValidationError(f"hour {hour} is outside every tariff band")


@dataclass(frozen=True)
class CostReport:
    """Band energies and exact total for one strategy."""

    strategy: str
    band_energy_kwh: dict[str, float]
    total_cost_minor: int
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def total_cost_major(self) -> float:
        return self.total_cost_minor / 100.0


def builtin_strategy(name: str, zone_ids: list[str] | tuple[str, ...]) -> HeatingStrategy:
    """One of S1..S6 mapped onto the building's zones (declaration order)."""
    zone_ids = tuple(zone_ids)
    if not zone_ids:
        raise ValidationError("builtin strategies need at least one zone")
    if name in ("S3", "S4") and len(zone_ids) < 2:
        raise ValidationError(f"{name} needs at least two zones")
    empty = frozenset()
    if name == "S1":
        schedule = {z: empty for z in zone_ids}
    elif name == "S2":
        schedule = {z: _ON_HOURS for z in zone_ids}
    elif name == "S3":
        schedule = {zone_ids[0]: _ON_HOURS, **{z: empty for z in zone_ids[1:]}}
    elif name == "S4":
        schedule = {zone_ids[0]: empty, zone_ids[1]: _ON_HOURS,
                    **{z: empty for z in zone_ids[2:]}}
    elif name == "S5":
        schedule = {z: _ALTERNATING_HOURS for z in zone_ids}
    elif name == "S6":
        schedule = {z: _SELECTIVE_HOURS for z in zone_ids}
    else:
        raise ValidationError(
            f"unknown builtin strategy {name!r}; choose one of {BUILTIN_STRATEGY_NAMES}"
        )
    return HeatingStrategy(name=name, schedule=schedule)


def table2_tariff() -> Tariff:
    """Benchmark three-band tariff: economy/off-peak/peak over 8 am to 5 pm."""
    return Tariff(bands=(
        TariffBand("economy", 8, 10, 10),
        TariffBand("off-peak", 10, 13, 15),
        TariffBand("peak", 13, 17, 20),
    ))


def parse_strategy(source: str | Path | dict,
                   zone_ids: tuple[str, ...] | None = None) -> HeatingStrategy:
    """Load a strategy from JSON text/file/dict.

    Schema: ``{"name": "...", "schedule": {"zone-id": [8, 9], ...}}``.
    When ``zone_ids`` is given, schedule keys must be declared zones.
    """
    raw = _load_json(source, "strategy")
    try:
        name = str(raw["name"])
        schedule = {
            str(z): frozenset(int(h) for h in hours)
            for z, hours in raw["schedule"].items()
        }
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed strategy: {exc}") from None
    if zone_ids is not None:
        for z in schedule:
            if z not in zone_ids:
                raise ValidationError(f"strategy references unknown zone id {z!r}")
    for z, hours in schedule.items():
        for h in hours:
            if not 0 <= h <= 23:
                raise ValidationError(f"strategy hour {h} for zone {z!r} outside 0..23")
    return HeatingStrategy(name=name, schedule=schedule)


def parse_tariff(source: str | Path | dict) -> Tariff:
    """Load a tariff from JSON text/file/dict.

    Schema: ``{"bands": [{"name": "...", "start": 8, "end": 10,
    "price_minor_per_kwh": 10}, ...]}``.
    """
    raw = _load_json(source, "tariff")
    try:
        bands = tuple(
            TariffBand(
                name=str(b["name"]),
                start=int(b["start"]),
                end=int(b["end"]),
                price_minor_per_kwh=int(b["price_minor_per_kwh"]),
            )
            for b in raw["bands"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed tariff: {exc}") from None
    return Tariff(bands=bands)


def _load_json(source: str | Path | dict, kind: str) -> dict:
    if isinstance(source, dict):
        return source
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source
                                    and source.strip().endswith(".json")):
        path = Path(source)
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise ValidationError(f"{kind} file not found: {path}") from None
    else:
        text = str(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid {kind} JSON: {exc}") from None


def validate_strategy_window(strategy: HeatingStrategy, window: tuple[int, int]) -> None:
    """Heating slots must start within [window_start, window_end)."""
    start, end = window
    for z, hours in strategy.schedule.items():
        for h in hours:
            if not start <= h < end:
                raise ValidationError(
                    f"strategy {strategy.name!r}: hour {h} for zone {z!r} "
                    f"outside the operating window {start}-{end}"
                )


def _normalise_power(radiator_kw: float | dict[str, float],
                     zone_ids: tuple[str, ...]) -> dict[str, Fraction]:
    if isinstance(radiator_kw, dict):
        table = {z: radiator_kw.get(z, 1.0) for z in zone_ids}
    else:
        table = {z: radiator_kw for z in zone_ids}
    out = {}
    for z, kw in table.items():
        if kw < 0:
            raise ValidationError(f"negative radiator power for zone {z!r}")
        out[z] = Fraction(str(kw))
    return out


def energy_by_band(
    strategy: HeatingStrategy,
    tariff: Tariff,
    radiator_kw: float | dict[str, float] = 1.0,
) -> dict[str, float]:
    """kWh billed per tariff band; every heated zone-hour must hit a band."""
    return strategy_cost(strategy, tariff, radiator_kw, notes=()).band_energy_kwh


def strategy_cost(
    strategy: HeatingStrategy,
    tariff: Tariff,
    radiator_kw: float | dict[str, float] = 1.0,
    notes: tuple[str, ...] | None = None,
) -> CostReport:
    """Exact total cost in minor currency units plus per-band energies."""
    zone_ids = tuple(strategy.schedule)
    power = _normalise_power(radiator_kw, zone_ids)
    price = {band.name: band.price_minor_per_kwh for band in tariff.bands}
    energy = {band.name: Fraction(0) for band in tariff.bands}
    total = Fraction(0)
    for z, hours in strategy.schedule.items():
        for h in sorted(hours):
            band = tariff.band_for_hour(h)
            energy[band.name] += power[z]
            total += power[z] * price[band.name]
    if notes is None:
        notes = builtin_discrepancy_notes(strategy, tariff)
    if total.denominator != 1:
        total_minor = round(total)
    else:
        total_minor = int(total)
    return CostReport(
        strategy=strategy.name,
        band_energy_kwh={name: float(e) for name, e in energy.items()},
        total_cost_minor=total_minor,
        notes=notes,
    )


def builtin_discrepancy_notes(strategy: HeatingStrategy, tariff: Tariff) -> tuple[str, ...]:
    """Known inconsistencies in commonly quoted reference figures for S5/S6."""
    if tariff != table2_tariff():
        return ()
    if strategy.name == "S5" and all(
        hours == _ALTERNATING_HOURS for hours in strategy.schedule.values()
    ):
        return (
            "S5 off-peak energy is 2 kWh under this accounting (hour 11 x 2 zones); "
            "a quoted figure of 4 kWh contradicts the 1.30 total it accompanies.",
        )
    if strategy.name == "S6" and all(
        hours == _SELECTIVE_HOURS for hours in strategy.schedule.values()
    ):
        return (
            "S6 bills all heated hours: 4 kWh economy (0.40). A quoted figure of "
            "2 kWh (0.20, implying a 13.5x ratio versus S2) is consistent only "
            "with billing that starts at 9 am, which would contradict how the "
            "other strategies are billed here.",
        )
    return ()


@dataclass(frozen=True)
class ComparisonRow:
    strategy: str
    total_cost_minor: int
    band_energy_kwh: dict[str, float]
    cost_ratio: float | None  # vs the cheapest nonzero-cost strategy
    comfort: dict | None
    notes: tuple[str, ...]


@dataclass(frozen=True)
class StrategyComparison:
    rows: tuple[ComparisonRow, ...]
    baseline: str | None  # cheapest nonzero-cost strategy
    flags: tuple[str, ...]


def compare_strategies(
    strategies: list[HeatingStrategy],
    tariff: Tariff,
    radiator_kw: float | dict[str, float] = 1.0,
    comfort_by_strategy: dict[str, dict] | None = None,
) -> StrategyComparison:
    """Rank strategies by exact cost; ties break on the strategy name.

    Ratios are taken against the cheapest strategy with nonzero cost;
    zero-cost strategies carry no ratio. ``comfort_by_strategy`` may map
    strategy names to comfort summaries to include in the rows.
    """
    if not strategies:
        raise ValidationError("compare_strategies needs at least one strategy")
    reports = {s.name: strategy_cost(s, tariff, radiator_kw) for s in strategies}
    nonzero = [r for r in reports.values() if r.total_cost_minor > 0]
    flags: list[str] = []
    baseline = None
    if nonzero:
        baseline = min(nonzero, key=lambda r: (r.total_cost_minor, r.strategy))
    else:
        flags.append("zero-cost baseline excluded: no strategy has a nonzero cost")

    rows = []
    for s in sorted(strategies, key=lambda s: (reports[s.name].total_cost_minor, s.name)):
        report = reports[s.name]
        if baseline is not None and report.total_cost_minor > 0:
            ratio = report.total_cost_minor / baseline.total_cost_minor
        else:
            ratio = None
            if report.total_cost_minor == 0 and baseline is not None:
                flags.append(f"{s.name}: zero-cost strategy excluded from ratios")
        comfort = (comfort_by_strategy or {}).get(s.name)
        rows.append(ComparisonRow(
            strategy=s.name,
            total_cost_minor=report.total_cost_minor,
            band_energy_kwh=report.band_energy_kwh,
            cost_ratio=ratio,
            comfort=comfort,
            notes=report.notes,
        ))
    return StrategyComparison(rows=tuple(rows), baseline=baseline.strategy if baseline else None,
                              flags=tuple(flags))
