"""Heating strategies, time-of-use tariffs and cost reports.

A strategy is a per-zone set of hour-of-day slots during which the
radiator runs; a tariff is a list of non-overlapping price bands. Each
heated zone-hour is billed to the band containing the slot's start hour
at radiator_kw * 1 h. Prices are integer minor currency units per kWh.
Billing counts each band's heated zone-hours and takes one exact product
per band: a band's energy is power * count and the total is
power * sum(count * price), with the power read as the exact decimal it
is written as; only the total is rounded, to whole minor units.

Built-ins cover the six benchmark strategies: S1 all off, S2 both zones
on over the 9..16 evaluation hours, S3/S4 single-zone variants of S2,
S5 alternating hours {9, 11, 13, 15}, and S6 selective pre-heating
{8, 9}. Two widely quoted reference figures for S5/S6 are internally
inconsistent with this accounting; cost reports carry explanatory notes
for them rather than silently diverging.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from .errors import ValidationError, read_json
from .records import Record

BUILTIN_STRATEGY_NAMES = ("S1", "S2", "S3", "S4", "S5", "S6")
_ON_HOURS = frozenset(range(9, 17))
_ALTERNATING_HOURS = frozenset({9, 11, 13, 15})
_SELECTIVE_HOURS = frozenset({8, 9})


class HeatingStrategy(Record):
    """Named per-zone radiator schedule (hour-of-day slots with heating on)."""

    name: str
    schedule: dict[str, frozenset[int]]

    def hours_for(self, zone_id: str) -> frozenset[int]:
        return self.schedule.get(zone_id, frozenset())

    def heating_bits(self, zone_id: str, window: tuple[int, int]) -> list[bool]:
        """On/off bit per step 0..K for a [start, end] hour window."""
        start, end = window
        hours = self.hours_for(zone_id)
        return [h in hours for h in range(start, end + 1)]


class TariffBand(Record):
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


class Tariff(Record):
    bands: tuple[TariffBand, ...]

    def __post_init__(self) -> None:
        # bands are billed by name, so one name would bill two bands at one price
        names = [band.name for band in self.bands]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValidationError(f"tariff has two bands named {name!r}")
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


class CostReport(Record):
    """Band energies and exact total for one strategy."""

    strategy: str
    band_energy_kwh: dict[str, float]
    total_cost_minor: int
    notes: tuple[str, ...]


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


STRATEGY_SCHEMA = {"name": str, "schedule": {str: {int}}}
TARIFF_SCHEMA = {
    "bands": [{"name": str, "start": int, "end": int, "price_minor_per_kwh": int}],
}


def parse_strategy(source: Path | dict,
                   zone_ids: tuple[str, ...] | None = None) -> HeatingStrategy:
    """Load a strategy from a JSON file or an already parsed dict.

    Schema (:data:`STRATEGY_SCHEMA`, read by :func:`errors.read_json`):
    ``{"name": "...", "schedule": {"zone-id": [8, 9], ...}}``; the name is
    a string and the hours distinct JSON integers. When ``zone_ids`` is
    given, schedule keys must be declared zones.
    """
    raw = read_json(source, "strategy", STRATEGY_SCHEMA)
    schedule = {z: frozenset(hours) for z, hours in raw["schedule"].items()}
    if zone_ids is not None:
        for z in schedule:
            if z not in zone_ids:
                raise ValidationError(f"strategy references unknown zone id {z!r}")
    for z, hours in schedule.items():
        for h in hours:
            if not 0 <= h <= 23:
                raise ValidationError(f"strategy hour {h} for zone {z!r} outside 0..23")
    return HeatingStrategy(name=raw["name"], schedule=schedule)


def parse_tariff(source: Path | dict) -> Tariff:
    """Load a tariff from a JSON file or an already parsed dict.

    Schema (:data:`TARIFF_SCHEMA`): ``{"bands": [{"name": "...", "start": 8,
    "end": 10, "price_minor_per_kwh": 10}, ...]}``; each name is a string
    and the hours and price are JSON integers.
    """
    raw = read_json(source, "tariff", TARIFF_SCHEMA)
    return Tariff(bands=tuple(TariffBand(**band) for band in raw["bands"]))


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


def strategy_cost(
    strategy: HeatingStrategy,
    tariff: Tariff,
    radiator_kw: float = 1.0,
) -> CostReport:
    """Exact total cost in minor currency units plus per-band energies;
    every heated zone-hour must fall in a band, and the total must lie
    within the float range that ratios and reports use."""
    return _strategy_cost(strategy, tariff, radiator_kw, tariff == table2_tariff())


def _strategy_cost(strategy: HeatingStrategy, tariff: Tariff, radiator_kw: float,
                   on_table2: bool) -> CostReport:
    """:func:`strategy_cost`, told whether ``tariff`` equals table 2's."""
    if radiator_kw < 0:
        raise ValidationError(f"negative radiator power {radiator_kw}")
    power = Fraction(str(radiator_kw))
    counts = {band.name: 0 for band in tariff.bands}
    for hours in strategy.schedule.values():
        for h in sorted(hours):
            counts[tariff.band_for_hour(h).name] += 1
    price = {band.name: band.price_minor_per_kwh for band in tariff.bands}
    total = round(power * sum(count * price[name] for name, count in counts.items()))
    if total > sys.float_info.max:
        raise ValidationError(f"strategy {strategy.name!r}: total cost is above "
                              f"{sys.float_info.max:.4g} minor units")
    return CostReport(
        strategy=strategy.name,
        band_energy_kwh={name: float(power * count) for name, count in counts.items()},
        total_cost_minor=total,
        notes=builtin_discrepancy_notes(strategy) if on_table2 else (),
    )


def builtin_discrepancy_notes(strategy: HeatingStrategy) -> tuple[str, ...]:
    """Known inconsistencies in commonly quoted reference figures for S5/S6,
    which apply when the strategy is billed on :func:`table2_tariff`."""
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


class ComparisonRow(Record):
    strategy: str
    total_cost_minor: int
    band_energy_kwh: dict[str, float]
    cost_ratio: float | None  # vs the cheapest nonzero-cost strategy
    comfort: dict | None
    notes: tuple[str, ...]


class StrategyComparison(Record):
    rows: tuple[ComparisonRow, ...]
    baseline: str | None  # cheapest nonzero-cost strategy
    flags: tuple[str, ...]


def compare_strategies(
    strategies: list[HeatingStrategy],
    tariff: Tariff,
    radiator_kw: float = 1.0,
    comfort_by_strategy: dict[str, dict] | None = None,
) -> StrategyComparison:
    """Rank strategies by exact cost; ties break on the strategy name.

    Ratios are taken against the cheapest strategy with nonzero cost;
    zero-cost strategies carry no ratio. ``comfort_by_strategy`` may map
    strategy names to comfort summaries to include in the rows.
    """
    if not strategies:
        raise ValidationError("compare_strategies needs at least one strategy")
    on_table2 = tariff == table2_tariff()
    reports = [_strategy_cost(s, tariff, radiator_kw, on_table2) for s in strategies]
    nonzero = [r for r in reports if r.total_cost_minor > 0]
    flags: list[str] = []
    baseline = None
    if nonzero:
        baseline = min(nonzero, key=lambda r: (r.total_cost_minor, r.strategy))
    else:
        flags.append("zero-cost baseline excluded: no strategy has a nonzero cost")

    rows = []
    for report in sorted(reports, key=lambda r: (r.total_cost_minor, r.strategy)):
        if baseline is not None and report.total_cost_minor > 0:
            ratio = report.total_cost_minor / baseline.total_cost_minor
        else:
            ratio = None
            if report.total_cost_minor == 0 and baseline is not None:
                flags.append(f"{report.strategy}: zero-cost strategy excluded from ratios")
        comfort = (comfort_by_strategy or {}).get(report.strategy)
        rows.append(ComparisonRow(
            strategy=report.strategy,
            total_cost_minor=report.total_cost_minor,
            band_energy_kwh=report.band_energy_kwh,
            cost_ratio=ratio,
            comfort=comfort,
            notes=report.notes,
        ))
    return StrategyComparison(rows=tuple(rows), baseline=baseline.strategy if baseline else None,
                              flags=tuple(flags))
