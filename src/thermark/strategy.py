"""Heating strategies, time-of-use tariffs and cost reports.

A strategy is a per-zone set of hour-of-day slots during which the
radiator runs; a tariff is a list of non-overlapping price bands. Each
heated zone-hour is billed to the band containing the slot's start hour
at radiator_kw * 1 h. Prices are integer minor currency units per kWh.
Billing is done in integers. The power is read once per call as the
ratio p/q of the exact decimal it is written as, and one hour→band table
per tariff counts each band's heated zone-hours. A band's energy is
p * count / q, the correctly rounded float of the exact product, and the
total p * sum(count * price) / q is the one value rounded, half to even
by ``divmod``, to whole minor units. The range checks compare integers
against ``int(sys.float_info.max)``.

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

from .errors import Name, ValidationError, read_json
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
    """Band energies and exact total for one strategy; in a comparison, also
    its cost ratio against the cheapest nonzero-cost strategy."""

    strategy: str
    band_energy_kwh: dict[str, float]
    total_cost_minor: int
    notes: tuple[str, ...]
    cost_ratio: float | None = None


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


STRATEGY_SCHEMA = {"name": Name, "schedule": {str: {int}}}
TARIFF_SCHEMA = {
    "bands": [{"name": Name, "start": int, "end": int, "price_minor_per_kwh": int}],
}


def parse_strategy(path: Path, zone_ids: tuple[str, ...]) -> HeatingStrategy:
    """Load a strategy from a JSON file.

    Schema (:data:`STRATEGY_SCHEMA`, read by :func:`errors.read_json`):
    ``{"name": "...", "schedule": {"zone-id": [8, 9], ...}}``; the name is
    a :class:`errors.Name` and the hours distinct JSON integers. Schedule
    keys must be among ``zone_ids``.
    """
    raw = read_json(path, "strategy", STRATEGY_SCHEMA)
    schedule = {z: frozenset(hours) for z, hours in raw["schedule"].items()}
    known = set(zone_ids)
    for z in schedule:
        if z not in known:
            raise ValidationError(f"strategy references unknown zone id {z!r}")
    for z, hours in schedule.items():
        for h in hours:
            if not 0 <= h <= 23:
                raise ValidationError(f"strategy hour {h} for zone {z!r} outside 0..23")
    return HeatingStrategy(name=raw["name"], schedule=schedule)


def parse_tariff(path: Path) -> Tariff:
    """Load a tariff from a JSON file.

    Schema (:data:`TARIFF_SCHEMA`): ``{"bands": [{"name": "...", "start": 8,
    "end": 10, "price_minor_per_kwh": 10}, ...]}``; each name is a
    :class:`errors.Name` and the hours and price are JSON integers.
    """
    raw = read_json(path, "tariff", TARIFF_SCHEMA)
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
    every heated zone-hour must fall in a band, and the total and each
    band's energy must lie within the float range that ratios and reports use."""
    (report,) = _bill([strategy], tariff, radiator_kw)
    return report


def _bill(strategies: list[HeatingStrategy], tariff: Tariff,
          radiator_kw: float) -> list[CostReport]:
    """:func:`strategy_cost` of each strategy, in integers: the power is
    read once as the ratio p/q of the decimal it is written as, and the
    hour→band table is built once for the tariff."""
    if radiator_kw < 0:
        raise ValidationError(f"negative radiator power {radiator_kw}")
    p, q = Fraction(str(radiator_kw)).as_integer_ratio()
    bands = tariff.bands
    table = {h: i for i, band in enumerate(bands) for h in range(24) if band.covers(h)}
    limit = int(sys.float_info.max)
    on_table2 = tariff == table2_tariff()
    reports = []
    for strategy in strategies:
        counts = [0] * len(bands)
        for hours in strategy.schedule.values():
            for h in sorted(hours):
                counts[table[h] if h in table else bands.index(tariff.band_for_hour(h))] += 1
        units = sum(count * band.price_minor_per_kwh for count, band in zip(counts, bands))
        # p * units / q rounded half to even, as round() rounds a Fraction
        total, rest = divmod(p * units, q)
        if 2 * rest > q or 2 * rest == q and total % 2:
            total += 1
        if total > limit:
            raise ValidationError(f"strategy {strategy.name!r}: total cost is above "
                                  f"{sys.float_info.max:.4g} minor units")
        for band, count in zip(bands, counts):
            if p * count > limit * q:
                raise ValidationError(f"strategy {strategy.name!r}: energy in band "
                                      f"{band.name!r} is above {sys.float_info.max:.4g} kWh")
        reports.append(CostReport(
            strategy=strategy.name,
            # int / int is the correctly rounded float of the exact ratio
            band_energy_kwh={band.name: p * count / q for band, count in zip(bands, counts)},
            total_cost_minor=total,
            notes=builtin_discrepancy_notes(strategy) if on_table2 else (),
        ))
    return reports


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


class StrategyComparison(Record):
    rows: tuple[CostReport, ...]
    baseline: str | None  # cheapest nonzero-cost strategy
    flags: tuple[str, ...]


def compare_strategies(
    strategies: list[HeatingStrategy],
    tariff: Tariff,
    radiator_kw: float = 1.0,
) -> StrategyComparison:
    """Rank strategies by exact cost; ties break on the strategy name.

    Ratios are taken against the cheapest strategy with nonzero cost;
    zero-cost strategies carry no ratio.
    """
    if not strategies:
        raise ValidationError("compare_strategies needs at least one strategy")
    reports = _bill(strategies, tariff, radiator_kw)
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
            report = report.replace(
                cost_ratio=report.total_cost_minor / baseline.total_cost_minor)
        elif report.total_cost_minor == 0 and baseline is not None:
            flags.append(f"{report.strategy}: zero-cost strategy excluded from ratios")
        rows.append(report)
    return StrategyComparison(rows=tuple(rows), baseline=baseline.strategy if baseline else None,
                              flags=tuple(flags))
