"""The shared base of the package's immutable record types."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from thermark import (
    NumericalGuardError,
    TemperatureTrajectory,
    ValidationError,
    ZoneGains,
    assign_rewards,
    compose,
    load_building,
    unroll_zone,
)
from thermark.cli import RunConfig
from thermark.datasets import two_zone_benchmark_dir
from thermark.occupancy import Diagnostic, OccupancyDataset, StepMatrix, TransitionSchedule
from thermark.records import Record
from thermark.strategy import TariffBand
from thermark.thermal import DiscreteThermalModel, RCNetwork, Zone


def step(**changes):
    fields = {"step": 0, "p_vf": 0.25, "p_vv": 0.75, "p_ff": 0.5, "p_fv": 0.5}
    return StepMatrix(**{**fields, **changes})


class TestFrozen:
    def test_assignment_raises(self):
        s = step()
        with pytest.raises(AttributeError, match="cannot assign to field 'p_vf'"):
            s.p_vf = 0.5
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            s.extra = 1
        assert s.p_vf == 0.25 and "extra" not in vars(s)

    def test_deletion_raises(self):
        s = step()
        with pytest.raises(AttributeError, match="cannot delete field 'step'"):
            del s.step
        assert s.step == 0


class TestValueSemantics:
    def test_equal_by_value_and_hashed_alike(self):
        assert step() == step() and step() is not step()
        assert hash(step()) == hash(step())
        assert step() != step(step=1)
        assert len({step(), step(), step(step=1)}) == 2

    def test_other_classes_never_equal(self):
        assert Diagnostic(8, "empty", "x") != (8, "empty", "x")
        assert Zone("z", 1.0, 1.0, 0.0) != Diagnostic("z", 1.0, 1.0)

    def test_unhashable_field_makes_record_unhashable(self):
        config = RunConfig(building=Path("b.json"))
        with pytest.raises(TypeError):
            hash(config)

    def test_occupancy_dataset_compares_grids_by_value(self):
        # np.array_equal: a bool grid equals the same grid of ints, and a
        # record holding an array is unhashable
        a = OccupancyDataset((1, 2), (8,), np.array([[True], [False]]))
        b = OccupancyDataset((1, 2), (8,), np.array([[1], [0]]))
        assert a == b and a is not b
        assert a != OccupancyDataset((1, 2), (8,), np.array([[True], [True]]))
        with pytest.raises(TypeError):
            hash(a)

    def test_records_holding_arrays_compare_by_value(self):
        thermal = load_building(two_zone_benchmark_dir() / "building.json")[1]
        assert thermal == load_building(two_zone_benchmark_dir() / "building.json")[1]
        assert thermal != thermal.replace(initial_temps=thermal.initial_temps + 1.0)

        chain = unroll_zone(TransitionSchedule((step(),)), [True, False], 1, zone_id="z")
        assert compose([chain]) == compose([chain])
        assert compose([chain]) != compose([chain.replace(occ_given_empty=(0.5,))])
        assert compose([chain]) != compose([chain.replace(zone_id="y")])

        values = np.array([[20.0, 21.5]])
        trajectory = TemperatureTrajectory(("a", "b"), (1,), values)
        assert trajectory == TemperatureTrajectory(("a", "b"), (1,), values.copy())
        assert trajectory != TemperatureTrajectory(("a", "b"), (1,), values + 0.5)
        assert trajectory != TemperatureTrajectory(("a", "b"), (2,), values)
        for record in (thermal, compose([chain]), trajectory):
            with pytest.raises(TypeError):
                hash(record)

    def test_rewarded_model_compares_reward_dicts_by_value(self):
        # rewards is a dict of arrays: the dict's own == would ask an array
        # for its truth value
        _, thermal = load_building(two_zone_benchmark_dir() / "building.json")
        model = compose([unroll_zone(TransitionSchedule((step(),) * 3), [True] * 4, 3,
                                     zone_id=zid) for zid in thermal.zone_ids])
        gains = {zid: ZoneGains(0.7, 1.5) for zid in thermal.zone_ids}
        rewarded = assign_rewards(model, thermal, gains, 3)
        assert rewarded == assign_rewards(model, thermal, dict(gains), 3)
        assert rewarded != assign_rewards(model, thermal, gains, 2)
        assert rewarded != rewarded.replace(
            rewards={**rewarded.rewards, "zone1": rewarded.rewards["zone1"] + 1.0})
        assert rewarded != rewarded.replace(rewards={"zone1": rewarded.rewards["zone1"]})
        with pytest.raises(TypeError):
            hash(rewarded)


class TestConstruction:
    def test_repr_lists_fields_in_order(self):
        assert repr(Diagnostic(8, "empty", "never")) == (
            "Diagnostic(hour=8, condition='empty', reason='never')")

    def test_defaults(self):
        schedule = TransitionSchedule(matrices=(step(),))
        assert schedule.hours == () and schedule.diagnostics == ()

    def test_shared_default_mappings_are_read_only(self):
        a, b = RunConfig(building=Path("a")), RunConfig(building=Path("b"))
        assert a.gains == {} and a.occupancy_paths == {}
        # one default serves every instance, so no instance may write to it
        assert a.gains is b.gains and a.occupancy_paths is b.occupancy_paths
        with pytest.raises(TypeError):
            a.gains[None] = (0.7, 1.5)
        with pytest.raises(TypeError):
            a.occupancy_paths["zone1"] = Path("log.csv")
        assert b.gains == {} and b.occupancy_paths == {}

    def test_positional_and_keyword_arguments(self):
        assert Diagnostic(8, "empty", "x") == Diagnostic(reason="x", hour=8, condition="empty")

    @pytest.mark.parametrize("call", [
        lambda: Diagnostic(8, "empty"),
        lambda: Diagnostic(8, "empty", "x", "y"),
        lambda: Diagnostic(8, "empty", "x", colour="red"),
        lambda: Diagnostic(8, "empty", "x", hour=9),
    ], ids=["missing", "extra-positional", "unknown", "repeated"])
    def test_bad_arguments_raise_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_replace_builds_a_validated_copy(self):
        s = step()
        moved = s.replace(step=3)
        assert moved == step(step=3) and s.step == 0
        with pytest.raises(ValidationError):
            s.replace(p_vf=1.5)
        with pytest.raises(TypeError):
            s.replace(colour="red")

    def test_field_without_default_after_one_with_is_rejected(self):
        with pytest.raises(TypeError, match="'b' without a default"):
            class Bad(Record):
                a: int = 0
                b: int


class TestPostInit:
    def test_step_matrix_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            step(p_vf=1.25, p_vv=-0.25)

    def test_tariff_band_start_not_before_end(self):
        with pytest.raises(ValidationError, match="start must precede end"):
            TariffBand("day", 10, 10, 5)

    def test_duplicate_zone_ids(self):
        zone = Zone("z", 1.0, 1.0, 0.0)
        with pytest.raises(ValidationError, match="unique"):
            RCNetwork(zones=(zone, zone), edges=())

    def test_unstable_a(self):
        with pytest.raises(NumericalGuardError, match="unstable"):
            DiscreteThermalModel(a=np.array([[1.5]]), b=np.eye(1), delta=1.0,
                                 initial_temps=np.zeros(1), zone_ids=("z",))

    def test_post_init_normalises_through_the_frozen_guard(self):
        dataset = OccupancyDataset((1,), (8,), [[1]])
        assert dataset.grid.dtype == bool and not dataset.grid.flags.writeable
