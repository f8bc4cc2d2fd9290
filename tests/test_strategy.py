"""Tests for strategies, tariffs and exact cost accounting."""

from __future__ import annotations

import json

import pytest

from thermark import (
    HeatingStrategy,
    ValidationError,
    builtin_strategy,
    compare_strategies,
    parse_strategy,
    parse_tariff,
    strategy_cost,
    table2_tariff,
)
from thermark.strategy import TariffBand, Tariff, validate_strategy_window

ZONES = ("zone1", "zone2")


class TestBuiltins:
    def test_s1_is_empty(self):
        s1 = builtin_strategy("S1", ZONES)
        assert all(not hours for hours in s1.schedule.values())

    def test_s2_covers_evaluation_hours(self):
        s2 = builtin_strategy("S2", ZONES)
        assert s2.hours_for("zone1") == frozenset(range(9, 17))
        assert s2.hours_for("zone2") == frozenset(range(9, 17))

    def test_s3_s4_are_single_zone(self):
        s3 = builtin_strategy("S3", ZONES)
        s4 = builtin_strategy("S4", ZONES)
        assert s3.hours_for("zone1") and not s3.hours_for("zone2")
        assert s4.hours_for("zone2") and not s4.hours_for("zone1")
        with pytest.raises(ValidationError, match="two zones"):
            builtin_strategy("S3", ("only",))

    def test_s5_alternating_hours(self):
        s5 = builtin_strategy("S5", ZONES)
        assert s5.hours_for("zone1") == frozenset({9, 11, 13, 15})
        assert s5.hours_for("zone2") == frozenset({9, 11, 13, 15})

    def test_s6_selective_hours(self):
        s6 = builtin_strategy("S6", ZONES)
        assert s6.hours_for("zone1") == frozenset({8, 9})

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown builtin"):
            builtin_strategy("S7", ZONES)

    def test_heating_bits_window_alignment(self):
        s6 = builtin_strategy("S6", ZONES)
        bits = s6.heating_bits("zone1", (8, 17))
        assert bits == [True, True] + [False] * 8


class TestTariff:
    def test_reference_bands(self):
        tariff = table2_tariff()
        assert [b.price_minor_per_kwh for b in tariff.bands] == [10, 15, 20]
        assert tariff.band_for_hour(9).name == "economy"
        assert tariff.band_for_hour(10).name == "off-peak"
        assert tariff.band_for_hour(13).name == "peak"

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            Tariff(bands=(
                TariffBand("a", 8, 10, 10),
                TariffBand("b", 9, 12, 15),
            ))

    def test_hour_outside_all_bands(self):
        tariff = table2_tariff()
        with pytest.raises(ValidationError, match="outside every tariff band"):
            tariff.band_for_hour(7)

    def test_parse_tariff_json(self, tmp_path):
        path = tmp_path / "tariff.json"
        path.write_text(json.dumps({"bands": [
            {"name": "flat", "start": 0, "end": 24, "price_minor_per_kwh": 12},
        ]}))
        tariff = parse_tariff(path)
        assert tariff.band_for_hour(23).price_minor_per_kwh == 12


class TestEnergyAndCost:
    def test_reference_table_energies(self):
        tariff = table2_tariff()
        energy = lambda name: strategy_cost(builtin_strategy(name, ZONES), tariff).band_energy_kwh
        assert energy("S2") == {"economy": 2.0, "off-peak": 6.0, "peak": 8.0}
        assert energy("S3") == {"economy": 1.0, "off-peak": 3.0, "peak": 4.0}
        assert energy("S5") == {"economy": 2.0, "off-peak": 2.0, "peak": 4.0}
        assert energy("S6") == {"economy": 4.0, "off-peak": 0.0, "peak": 0.0}
        assert energy("S1") == {"economy": 0.0, "off-peak": 0.0, "peak": 0.0}

    def test_reference_table_costs_exact(self):
        tariff = table2_tariff()
        totals = {
            name: strategy_cost(builtin_strategy(name, ZONES), tariff).total_cost_minor
            for name in ("S1", "S2", "S3", "S4", "S5", "S6")
        }
        assert totals == {"S1": 0, "S2": 270, "S3": 135, "S4": 135, "S5": 130, "S6": 40}

    def test_cost_is_integer_minor_units(self):
        report = strategy_cost(builtin_strategy("S2", ZONES), table2_tariff())
        assert isinstance(report.total_cost_minor, int)
        assert report.total_cost_minor == 270

    def test_cost_additive_over_zones(self):
        tariff = table2_tariff()
        s2 = builtin_strategy("S2", ZONES)
        total = strategy_cost(s2, tariff).total_cost_minor
        parts = sum(
            strategy_cost(HeatingStrategy(z, {z: s2.hours_for(z)}), tariff).total_cost_minor
            for z in ZONES
        )
        assert parts == total

    def test_adding_hour_never_cheapens(self):
        tariff = table2_tariff()
        base = HeatingStrategy("base", {"zone1": frozenset({9, 11})})
        more = HeatingStrategy("more", {"zone1": frozenset({9, 11, 14})})
        less = HeatingStrategy("less", {"zone1": frozenset({9})})
        cost = lambda s: strategy_cost(s, tariff).total_cost_minor
        assert cost(more) >= cost(base) >= cost(less)

    def test_heated_hour_outside_bands_is_error(self):
        strategy = HeatingStrategy("odd", {"zone1": frozenset({7})})
        with pytest.raises(ValidationError, match="outside every tariff band"):
            strategy_cost(strategy, table2_tariff())

    def test_fractional_radiator_power(self):
        tariff = table2_tariff()
        report = strategy_cost(builtin_strategy("S6", ZONES), tariff, radiator_kw=0.5)
        assert report.band_energy_kwh["economy"] == 2.0
        assert report.total_cost_minor == 20

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError, match="negative radiator"):
            strategy_cost(builtin_strategy("S6", ZONES), table2_tariff(), radiator_kw=-1.0)
        with pytest.raises(ValidationError, match="negative radiator"):
            strategy_cost(HeatingStrategy("none", {}), table2_tariff(), radiator_kw=-1.0)


class TestDiscrepancyNotes:
    def test_s5_and_s6_carry_notes_with_reference_tariff(self):
        tariff = table2_tariff()
        s5 = strategy_cost(builtin_strategy("S5", ZONES), tariff)
        s6 = strategy_cost(builtin_strategy("S6", ZONES), tariff)
        assert any("off-peak" in n for n in s5.notes)
        assert any("13.5" in n for n in s6.notes)

    def test_no_notes_for_custom_tariff(self):
        tariff = Tariff(bands=(TariffBand("flat", 0, 24, 10),))
        report = strategy_cost(builtin_strategy("S6", ZONES), tariff)
        assert report.notes == ()

    def test_other_strategies_have_no_notes(self):
        report = strategy_cost(builtin_strategy("S2", ZONES), table2_tariff())
        assert report.notes == ()


class TestCompare:
    def test_ratio_against_cheapest_nonzero(self):
        rows = compare_strategies(
            [builtin_strategy("S2", ZONES), builtin_strategy("S6", ZONES)],
            table2_tariff(),
        )
        assert rows.baseline == "S6"
        by_name = {r.strategy: r for r in rows.rows}
        assert by_name["S2"].cost_ratio == pytest.approx(6.75)
        assert by_name["S6"].cost_ratio == pytest.approx(1.0)

    def test_zero_cost_only_flagged(self):
        comparison = compare_strategies([builtin_strategy("S1", ZONES)], table2_tariff())
        assert comparison.baseline is None
        assert any("zero-cost baseline" in f for f in comparison.flags)
        assert comparison.rows[0].cost_ratio is None

    def test_equal_costs_ordered_by_name(self):
        comparison = compare_strategies(
            [builtin_strategy("S4", ZONES), builtin_strategy("S3", ZONES)],
            table2_tariff(),
        )
        assert [r.strategy for r in comparison.rows] == ["S3", "S4"]
        assert comparison.rows[0].total_cost_minor == comparison.rows[1].total_cost_minor

    def test_each_row_bills_its_own_strategy(self):
        comparison = compare_strategies(
            [HeatingStrategy("X", {"zone1": frozenset({9})}),
             HeatingStrategy("X", {"zone1": frozenset({9, 10, 11})})],
            table2_tariff(),
        )
        assert [r.total_cost_minor for r in comparison.rows] == [10, 40]

    def test_band_energy_beyond_float_range_rejected(self):
        # priced 0, the band's total stays 0 while its energy does not fit a float
        tariff = Tariff(bands=(TariffBand("all", 0, 24, 0),))
        strategies = [builtin_strategy("S1", ZONES), builtin_strategy("S2", ZONES)]
        with pytest.raises(ValidationError, match=r"^strategy 'S2': energy in band 'all' "
                                                  r"is above 1\.798e\+308 kWh$"):
            compare_strategies(strategies, tariff, radiator_kw=1e308)
        # at a tenth of that power the 16 heated zone-hours fit
        report = compare_strategies(strategies, tariff, radiator_kw=1e307).rows[1]
        assert report.band_energy_kwh == {"all": 1.6e308}

    def test_needs_at_least_one_strategy(self):
        with pytest.raises(ValidationError, match="at least one"):
            compare_strategies([], table2_tariff())


class TestParsing:
    def test_parse_strategy_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "custom", "schedule": {"zone1": [8, 9]}}))
        strategy = parse_strategy(path, zone_ids=ZONES)
        assert strategy.hours_for("zone1") == frozenset({8, 9})

    def test_unknown_zone_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "x", "schedule": {"nope": [9]}}))
        with pytest.raises(ValidationError, match="unknown zone"):
            parse_strategy(path, zone_ids=ZONES)

    def test_window_validation(self):
        strategy = HeatingStrategy("x", {"zone1": frozenset({7})})
        with pytest.raises(ValidationError, match="outside the operating window"):
            validate_strategy_window(strategy, (8, 17))

    def test_bad_hours_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"name": "x", "schedule": {"zone1": [25]}}))
        with pytest.raises(ValidationError, match="outside 0..23"):
            parse_strategy(path, zone_ids=ZONES)
