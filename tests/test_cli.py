"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermark
from thermark import ValidationError
from thermark.cli import main
from thermark.datasets import two_zone_benchmark_dir, seven_day_log_csv


def pinned_args(command, out_dir, strategy="S6", extra=()):
    d = two_zone_benchmark_dir()
    return [
        command,
        "--building", str(d / "building.json"),
        "--occupancy", f"zone1={d / 'occupancy_zone1.csv'}",
        "--occupancy", f"zone2={d / 'occupancy_zone2.csv'}",
        "--strategy", strategy,
        "--out", str(out_dir),
        *extra,
    ]


def read_trajectory(path):
    rows = {}
    lines = path.read_text().splitlines()
    assert lines[0] == "theta_hour,zone_id,expected_temp_c"
    for line in lines[1:]:
        hour, zone, value = line.split(",")
        rows[(int(hour), zone)] = float(value)
    return rows


class TestAnalyze:
    def test_selective_strategy_first_hour_values(self, tmp_path):
        assert main(pinned_args("analyze", tmp_path)) == 0
        rows = read_trajectory(tmp_path / "trajectory.csv")
        assert rows[(9, "zone1")] == pytest.approx(18.9002, abs=1e-3)
        assert rows[(9, "zone2")] == pytest.approx(18.1014, abs=1e-3)
        report = json.loads((tmp_path / "comfort.json").read_text())
        assert report["band"] == {"low": 20.0, "high": 22.0}

    def test_no_heating_trajectory_monotone(self, tmp_path):
        assert main(pinned_args("analyze", tmp_path, strategy="S1")) == 0
        rows = read_trajectory(tmp_path / "trajectory.csv")
        for zone in ("zone1", "zone2"):
            series = [rows[(h, zone)] for h in range(9, 18)]
            assert series == sorted(series)

    def test_missing_occupancy_file_exits_2(self, tmp_path, capsys):
        d = two_zone_benchmark_dir()
        args = [
            "analyze",
            "--building", str(d / "building.json"),
            "--occupancy", f"zone1={tmp_path / 'missing.csv'}",
            "--occupancy", f"zone2={d / 'occupancy_zone2.csv'}",
            "--out", str(tmp_path),
        ]
        assert main(args) == 2
        assert "missing.csv" in capsys.readouterr().err

    def test_outputs_are_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(pinned_args("analyze", out1)) == 0
        assert main(pinned_args("analyze", out2)) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "comfort.json").read_bytes() == (out2 / "comfort.json").read_bytes()

    def test_dump_chain(self, tmp_path):
        assert main(pinned_args("analyze", tmp_path, extra=["--dump-chain"])) == 0
        dump = json.loads((tmp_path / "chain.json").read_text())
        assert len(dump["states"]) == 38

    def test_dump_chain_takes_one_theta(self, tmp_path, capsys):
        assert main(pinned_args("analyze", tmp_path / "a", extra=["--theta", "4",
                                                                  "--dump-chain"])) == 0
        assert json.loads((tmp_path / "a" / "chain.json").read_text())["theta"] == 4
        assert main(pinned_args("analyze", tmp_path / "b", extra=["--theta", "3-5",
                                                                  "--dump-chain"])) == 2
        assert_one_line_error(capsys, "--dump-chain", "--theta 3-5 names 3")
        assert not (tmp_path / "b").exists()

    def test_unstable_derived_building_exits_3(self, tmp_path, capsys):
        building = {
            "zones": [
                {"id": "a", "capacitance": 1.0, "resistance": 1.0, "initial_temp": 20.0},
                {"id": "b", "capacitance": 1.0, "resistance": 1.0, "initial_temp": 20.0},
            ],
            "edges": [["a", "b"], ["b", "a"]],
            "delta": 5.0,
        }
        path = tmp_path / "building.json"
        path.write_text(json.dumps(building))
        d = two_zone_benchmark_dir()
        args = [
            "analyze",
            "--building", str(path),
            "--occupancy", f"a={d / 'occupancy_zone1.csv'}",
            "--occupancy", f"b={d / 'occupancy_zone2.csv'}",
            "--out", str(tmp_path),
        ]
        assert main(args) == 3
        assert "unstable" in capsys.readouterr().err


class TestCost:
    def test_builtin_table(self, tmp_path):
        args = pinned_args("cost", tmp_path)
        # default strategy list: drop the single --strategy flag to get all builtins
        args = [a for i, a in enumerate(args)
                if not (a == "--strategy" or (i > 0 and args[i - 1] == "--strategy"))]
        assert main(args) == 0
        payload = json.loads((tmp_path / "cost.json").read_text())
        totals = {r["strategy"]: r["total_cost_minor"] for r in payload["rows"]}
        assert totals == {"S1": 0, "S2": 270, "S3": 135, "S4": 135, "S5": 130, "S6": 40}
        notes = {r["strategy"]: r["notes"] for r in payload["rows"]}
        assert notes["S5"] and notes["S6"]
        assert not notes["S2"]
        csv_text = (tmp_path / "cost.csv").read_text()
        assert csv_text.splitlines()[0] == (
            "strategy,energy_economy_kwh,energy_off-peak_kwh,energy_peak_kwh,"
            "total_cost_minor,total_cost,cost_ratio_vs_cheapest,notes"
        )
        assert "2.70" in csv_text and "0.40" in csv_text

    def test_comfort_included_when_occupancy_given(self, tmp_path):
        args = pinned_args("cost", tmp_path, strategy="S2",
                           extra=["--strategy", "S6"])
        assert main(args) == 0
        payload = json.loads((tmp_path / "cost.json").read_text())
        by_name = {r["strategy"]: r for r in payload["rows"]}
        # always-on overheats late in the day; selective stays inside the band
        assert by_name["S2"]["comfort"]["zone1"]["ever_above"] is True
        assert by_name["S6"]["comfort"]["zone1"]["ever_above"] is False

    def test_custom_single_band_tariff(self, tmp_path):
        tariff = {"bands": [{"name": "flat", "start": 0, "end": 24,
                             "price_minor_per_kwh": 10}]}
        tariff_path = tmp_path / "tariff.json"
        tariff_path.write_text(json.dumps(tariff))
        args = pinned_args("cost", tmp_path, strategy="S2",
                           extra=["--tariff", str(tariff_path)])
        assert main(args) == 0
        payload = json.loads((tmp_path / "cost.json").read_text())
        assert payload["rows"][0]["total_cost_minor"] == 160  # 16 kWh at 10

    def test_unknown_strategy_exits_2(self, tmp_path):
        assert main(pinned_args("cost", tmp_path, strategy="S9")) == 2


class TestExport:
    def test_single_theta_files(self, tmp_path):
        args = pinned_args("export", tmp_path,
                           extra=["--theta", "9", "--name", "two_zone_benchmark"])
        assert main(args) == 0
        assert (tmp_path / "two_zone_benchmark.pm").exists()
        assert (tmp_path / "two_zone_benchmark.props").exists()
        text = (tmp_path / "two_zone_benchmark.pm").read_text()
        assert text.startswith("// two_zone_benchmark")

    def test_theta_range_emits_one_model_per_theta(self, tmp_path):
        args = pinned_args("export", tmp_path, extra=["--theta", "1-3", "--name", "b"])
        assert main(args) == 0
        for theta in (1, 2, 3):
            assert (tmp_path / f"b_theta{theta}.pm").exists()
        props = (tmp_path / "b.props").read_text()
        assert props.count("R{") == 6

    def test_stdout_flag(self, tmp_path, capsys):
        args = pinned_args("export", tmp_path, extra=["--theta", "9", "--stdout"])
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "dtmc" in out and 'R{"zone_zone1"}' in out
        assert not (tmp_path / "building.pm").exists()

    def test_bad_theta_range_exits_2(self, tmp_path):
        args = pinned_args("export", tmp_path, extra=["--theta", "0-4"])
        assert main(args) == 2
        args = pinned_args("export", tmp_path, extra=["--theta", "12"])
        assert main(args) == 2


class TestEstimate:
    def test_benchmark_estimates(self, tmp_path):
        assert main(["estimate", str(seven_day_log_csv()), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "schedule.json").read_text())
        first = payload["steps"][0]
        assert first["hour_from"] == 8 and first["hour_to"] == 9
        assert first["p_vf"] == pytest.approx(3 / 7)
        assert round(first["p_vf"], 4) == 0.4286
        assert payload["days"] == 7
        assert any(d["hour"] == 8 for d in payload["diagnostics"])

    def test_single_day_low_sample_warning(self, tmp_path):
        csv = "day,hour,occupied\n" + "\n".join(f"1,{h},{h % 2}" for h in range(8, 12))
        path = tmp_path / "one.csv"
        path.write_text(csv + "\n")
        assert main(["estimate", str(path), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "schedule.json").read_text())
        assert any("low sample" in w for w in payload["warnings"])
        for step in payload["steps"]:
            for key in ("p_vf", "p_vv", "p_ff", "p_fv"):
                assert step[key] in (0.0, 1.0)

    def test_stdout(self, capsys, tmp_path):
        assert main(["estimate", str(seven_day_log_csv()), "--stdout"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["days"] == 7

    def test_large_synthetic_log_recovers_generator(self, tmp_path):
        import numpy as np

        from conftest import random_schedule
        from thermark.occupancy import dataset_to_csv, sample_dataset

        rng = np.random.default_rng(8)
        truth = random_schedule(rng, 9)
        dataset = sample_dataset(truth, days=10_000, seed=77,
                                 initial_occupied_prob=0.5, first_hour=8)
        path = tmp_path / "big.csv"
        path.write_text(dataset_to_csv(dataset))
        assert main(["estimate", str(path), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "schedule.json").read_text())
        worst = max(
            max(abs(step["p_vf"] - t.p_vf), abs(step["p_ff"] - t.p_ff))
            for step, t in zip(payload["steps"], truth.matrices)
        )
        assert worst < 0.05

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("day,hour,occupied\n1,8,2\n")
        assert main(["estimate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "line 2" in err


class TestWindowHandling:
    def test_dataset_must_cover_window(self, tmp_path, capsys):
        csv = "day,hour,occupied\n" + "\n".join(
            f"{d},{h},0" for d in (1, 2) for h in range(9, 12))
        path = tmp_path / "short.csv"
        path.write_text(csv + "\n")
        d = two_zone_benchmark_dir()
        args = [
            "analyze",
            "--building", str(d / "building.json"),
            "--occupancy", f"zone1={path}",
            "--occupancy", f"zone2={path}",
            "--out", str(tmp_path),
        ]
        assert main(args) == 2
        assert "do not cover" in capsys.readouterr().err

    def test_unknown_occupancy_zone_rejected(self, tmp_path, capsys):
        d = two_zone_benchmark_dir()
        args = pinned_args("analyze", tmp_path,
                           extra=["--occupancy", f"attic={d / 'occupancy_zone1.csv'}"])
        assert main(args) == 2
        assert "attic" in capsys.readouterr().err

    def test_unknown_gains_zone_rejected(self, tmp_path, capsys):
        args = pinned_args("analyze", tmp_path, extra=["--gains", "attic=0.7,1.5"])
        assert main(args) == 2
        assert "attic" in capsys.readouterr().err

    def test_mixed_start_occupancy_rejected(self, tmp_path, capsys):
        rows = ["day,hour,occupied"]
        for d in (1, 2):
            for h in range(8, 18):
                rows.append(f"{d},{h},{1 if (d == 1 and h == 8) else 0}")
        path = tmp_path / "mixed.csv"
        path.write_text("\n".join(rows) + "\n")
        d = two_zone_benchmark_dir()
        args = [
            "analyze",
            "--building", str(d / "building.json"),
            "--occupancy", f"zone1={path}",
            "--occupancy", f"zone2={path}",
            "--out", str(tmp_path),
        ]
        assert main(args) == 2
        assert "deterministic start" in capsys.readouterr().err


def bench_config(strategy):
    from pathlib import Path

    from thermark.cli import RunConfig

    d = two_zone_benchmark_dir()
    return RunConfig(
        building=d / "building.json",
        occupancy_paths={"zone1": d / "occupancy_zone1.csv",
                         "zone2": d / "occupancy_zone2.csv"},
        strategy=strategy,
        out_dir=Path("."),
    )


def composed_comfort(strategy):
    """Comfort report of the composed-engine trajectory, the reference route."""
    from thermark.analysis import comfort_check, temperature_trajectory
    from thermark.cli import _build_model

    config = bench_config(strategy)
    _, thermal, model, _ = _build_model(config)
    gains = config.gains_for(thermal.zone_ids)
    trajectory = temperature_trajectory(model, thermal, gains, config.thetas)
    return comfort_check(trajectory, config.band).as_dict()


class TestDirectRoute:
    """analyze and cost answer from the marginal recursion, not the product chain."""

    @pytest.mark.parametrize("strategy", ["S1", "S2", "S3", "S4", "S5", "S6"])
    def test_trajectory_matches_oracle(self, tmp_path, strategy):
        from thermark.analysis import brute_force_expected_temperature
        from thermark.cli import _build_model
        from thermark.markov import assign_rewards

        assert main(pinned_args("analyze", tmp_path, strategy=strategy)) == 0
        rows = read_trajectory(tmp_path / "trajectory.csv")
        config = bench_config(strategy)
        _, thermal, model, _ = _build_model(config)
        gains = config.gains_for(thermal.zone_ids)
        assert model.zone_count * model.horizon == 18
        for theta in config.thetas:
            rewarded = assign_rewards(model, thermal, gains, theta)
            oracle = brute_force_expected_temperature(rewarded, theta)
            for zid, value in oracle.items():
                assert abs(rows[(8 + theta, zid)] - value) <= 1e-9

    @pytest.mark.parametrize("strategy", ["S1", "S2", "S3", "S4", "S5", "S6"])
    def test_comfort_matches_composed_engine(self, tmp_path, strategy):
        assert main(pinned_args("analyze", tmp_path, strategy=strategy)) == 0
        report = json.loads((tmp_path / "comfort.json").read_text())
        assert report == composed_comfort(strategy)

    def test_cost_comfort_matches_composed_engine(self, tmp_path):
        args = pinned_args("cost", tmp_path, strategy="S1",
                           extra=[a for s in ("S2", "S3", "S4", "S5", "S6")
                                  for a in ("--strategy", s)])
        assert main(args) == 0
        rows = json.loads((tmp_path / "cost.json").read_text())["rows"]
        assert len(rows) == 6
        for row in rows:
            assert row["comfort"] == composed_comfort(row["strategy"])["summary"]

    def test_only_dump_chain_composes(self, tmp_path, monkeypatch):
        import thermark.markov

        def refuse(name):
            def refused(*args, **kwargs):
                raise RuntimeError(f"{name} called")
            return refused

        monkeypatch.setattr(thermark.markov, "compose", refuse("compose"))
        monkeypatch.setattr(thermark.markov, "assign_rewards", refuse("assign_rewards"))
        assert main(pinned_args("analyze", tmp_path / "a")) == 0
        cost_args = pinned_args("cost", tmp_path / "c", extra=["--strategy", "S2"])
        assert main(cost_args) == 0
        assert main(pinned_args("export", tmp_path / "e", extra=["--theta", "9"])) == 0
        assert main(pinned_args("export", tmp_path / "f", extra=["--theta", "1-9"])) == 0
        with pytest.raises(RuntimeError, match="compose called"):
            main(pinned_args("analyze", tmp_path / "d", extra=["--dump-chain"]))


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


class TestArgumentChecks:
    @pytest.mark.parametrize("command", ["analyze", "cost"])
    @pytest.mark.parametrize("theta", ["0-4", "12"])
    def test_theta_outside_horizon_exits_2(self, tmp_path, capsys, command, theta):
        assert main(pinned_args(command, tmp_path, extra=["--theta", theta])) == 2
        assert_one_line_error(capsys, "theta range", "outside 1..9")

    def test_cost_without_occupancy_checks_theta(self, tmp_path, capsys):
        d = two_zone_benchmark_dir()
        args = ["cost", "--building", str(d / "building.json"), "--theta", "12",
                "--out", str(tmp_path)]
        assert main(args) == 2
        assert_one_line_error(capsys, "outside 1..9")

    @pytest.mark.parametrize("command", ["analyze", "export"])
    def test_extra_strategy_exits_2(self, tmp_path, capsys, command):
        args = pinned_args(command, tmp_path, strategy="S1", extra=["--strategy", "S2"])
        assert main(args) == 2
        assert_one_line_error(capsys, "--strategy")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_radiator_power_exits_2(self, tmp_path, capsys, value):
        args = pinned_args("cost", tmp_path, extra=[f"--radiator-kw={value}"])
        assert main(args) == 2
        assert_one_line_error(capsys, "--radiator-kw")
        assert not (tmp_path / "cost.json").exists()

    @pytest.mark.parametrize("gains", ["zone1=nan,1.5", "0.7,inf"])
    def test_non_finite_gains_exit_2(self, tmp_path, capsys, gains):
        assert main(pinned_args("analyze", tmp_path, extra=["--gains", gains])) == 2
        assert_one_line_error(capsys, "gains", "finite")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_non_finite_band_exits_2(self, tmp_path, capsys):
        assert main(pinned_args("analyze", tmp_path, extra=["--band", "20-inf"])) == 2
        assert_one_line_error(capsys, "band", "finite")

    def test_seed_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(pinned_args("analyze", tmp_path, extra=["--seed", "1"]))


def bench_building(**overrides):
    """The bundled building spec with zone1's fields or the explicit matrices overridden."""
    spec = json.loads((two_zone_benchmark_dir() / "building.json").read_text())
    for key, value in overrides.items():
        if key in spec["explicit_discrete"]:
            spec["explicit_discrete"][key][0][0] = value
        else:
            spec["zones"][0][key] = value
    return spec


class TestBuildingChecks:
    @pytest.mark.parametrize("override", [
        {"initial_temp": float("nan")},
        {"initial_temp": float("inf")},
        {"a": float("nan")},
        {"b": float("inf")},
    ], ids=["nan-initial-temp", "inf-initial-temp", "nan-in-a", "inf-in-b"])
    def test_non_finite_building_exits_2(self, tmp_path, capsys, override):
        path = tmp_path / "building.json"
        path.write_text(json.dumps(bench_building(**override)))
        out = tmp_path / "out"
        args = pinned_args("analyze", out)
        args[args.index("--building") + 1] = str(path)
        assert main(args) == 2
        assert_one_line_error(capsys, "finite")
        assert not out.exists()


class TestJsonInputFiles:
    """Building, strategy and tariff files share the occupancy logs' read checks."""

    @staticmethod
    def directory(tmp_path):
        path = tmp_path / "input.json"
        path.mkdir()
        return path, "Is a directory"

    @staticmethod
    def utf16_bom(tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(b"\xff\xfe")
        return path, "not UTF-8 text (byte 0)"

    @staticmethod
    def missing(tmp_path):
        return tmp_path / "input.json", "file not found"

    @pytest.mark.parametrize("make", ["directory", "utf16_bom", "missing"])
    @pytest.mark.parametrize("command,flag", [
        ("analyze", "--building"), ("cost", "--building"), ("export", "--building"),
        ("analyze", "--strategy"), ("cost", "--strategy"), ("cost", "--tariff"),
    ])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, command, flag, make):
        path, reason = getattr(self, make)(tmp_path)
        args = pinned_args(command, tmp_path / "out")
        if flag in args:
            args[args.index(flag) + 1] = str(path)
        else:
            args += [flag, str(path)]
        assert main(args) == 2
        assert_one_line_error(capsys, str(path), reason)
        assert not (tmp_path / "out").exists()


class TestDumpChainLimit:
    def test_edge_formula_counts_the_dumped_edges(self, tmp_path):
        assert main(pinned_args("analyze", tmp_path, extra=["--dump-chain"])) == 0
        dumped = json.loads((tmp_path / "chain.json").read_text())
        width, horizon = 2 ** 2, 9
        assert len(dumped["transitions"]) == width + (horizon - 1) * width ** 2 + width + 1

    def test_eight_zones_over_nine_steps_fit(self):
        from thermark.analysis import DUMP_MAX_EDGES

        width = 2 ** 8
        assert width + 8 * width ** 2 + width + 1 <= DUMP_MAX_EDGES

    def test_ten_zones_exit_3_before_composing(self, tmp_path, capsys, monkeypatch):
        import thermark.markov

        def refuse(chains):
            raise RuntimeError("compose called")

        monkeypatch.setattr(thermark.markov, "compose", refuse)
        zone_ids = [f"zone{i}" for i in range(10)]
        building = {
            "zones": [{"id": z, "capacitance": 2.0, "resistance": 2.0, "initial_temp": 18.0}
                      for z in zone_ids],
            "edges": [[a, b] for i, a in enumerate(zone_ids)
                      for b in (zone_ids[i - 1], zone_ids[(i + 1) % 10])],
        }
        (tmp_path / "building.json").write_text(json.dumps(building))
        log = tmp_path / "log.csv"
        log.write_text("day,hour,occupied\n" + "".join(
            f"{d},{h},{int(h > 8 and (d + h) % 3 == 0)}\n"
            for d in (1, 2, 3) for h in range(8, 18)))
        args = ["analyze", "--building", str(tmp_path / "building.json"),
                "--out", str(tmp_path / "out"), "--dump-chain"]
        for z in zone_ids:
            args += ["--occupancy", f"{z}={log}"]
        assert main(args) == 3
        assert_one_line_error(capsys, "--dump-chain", "limit")
        assert not (tmp_path / "out").exists()


class TestOutputFiles:
    def test_stale_temp_name_is_harmless(self, tmp_path):
        (tmp_path / "trajectory.csv.tmp").mkdir()
        assert main(pinned_args("analyze", tmp_path)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "comfort.json", "trajectory.csv", "trajectory.csv.tmp"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import thermark.cli

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(thermark.cli.os, "replace", fail)
        with pytest.raises(ValidationError, match=r"cannot write .*out\.txt: replace failed"):
            thermark.cli._atomic_write(tmp_path / "out.txt", "text")
        assert not any(tmp_path.iterdir())

    def test_target_that_is_a_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "trajectory.csv").mkdir()
        assert main(pinned_args("analyze", tmp_path)) == 2
        assert_one_line_error(capsys, f"cannot write {tmp_path / 'trajectory.csv'}: ",
                              "Is a directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv"]
        assert not any((tmp_path / "trajectory.csv").iterdir())

    def test_mode_matches_a_plainly_created_file(self, tmp_path):
        import stat

        from thermark.cli import _atomic_write

        _atomic_write(tmp_path / "atomic.txt", "text")
        (tmp_path / "plain.txt").write_text("text")
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("atomic.txt", "plain.txt")}
        assert len(modes) == 1


class TestParser:
    def test_parser_is_built_once(self):
        from thermark.cli import build_parser

        assert build_parser() is build_parser()

    def test_append_defaults_do_not_leak_between_calls(self, tmp_path):
        assert main(pinned_args("cost", tmp_path / "one", strategy="S1")) == 0
        args = pinned_args("cost", tmp_path / "all")
        del args[args.index("--strategy"):args.index("--strategy") + 2]
        assert main(args) == 0
        rows = (tmp_path / "all" / "cost.csv").read_text().splitlines()[1:]
        assert sorted(row.split(",")[0] for row in rows) == ["S1", "S2", "S3", "S4", "S5", "S6"]


def occupancy_args(command, log_path, out_dir):
    """Run ``command`` with ``log_path`` as the only or the first zone's log."""
    if command == "estimate":
        return ["estimate", str(log_path), "--out", str(out_dir)]
    args = pinned_args(command, out_dir)
    args[args.index("--occupancy") + 1] = f"zone1={log_path}"
    return args


class TestInputFiles:
    @pytest.mark.parametrize("command", ["estimate", "analyze", "cost", "export"])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command):
        target = tmp_path / "afile"
        target.write_text("kept")
        assert main(occupancy_args(command, seven_day_log_csv(), target)) == 2
        assert_one_line_error(capsys, "cannot write to", str(target))
        assert target.read_text() == "kept"

    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_directory_exits_2(self, tmp_path, capsys, command):
        log = tmp_path / "logs"
        log.mkdir()
        assert main(occupancy_args(command, log, tmp_path / "out")) == 2
        assert_one_line_error(capsys, str(log), "Is a directory")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command):
        log = tmp_path / "latin1.csv"
        log.write_bytes("day,hour,occupied\n1,8,0\n1,9,1 é\n".encode("latin-1"))
        assert main(occupancy_args(command, log, tmp_path / "out")) == 2
        assert_one_line_error(capsys, str(log), "not UTF-8 text (byte 30)")

    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, monkeypatch, command):
        import pathlib

        log = tmp_path / "locked.csv"
        log.write_text(seven_day_log_csv().read_text())
        real_read_bytes = pathlib.Path.read_bytes

        def read_bytes(self):
            if self == log:
                raise PermissionError(13, "Permission denied", str(self))
            return real_read_bytes(self)

        monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes)
        assert main(occupancy_args(command, log, tmp_path / "out")) == 2
        assert_one_line_error(capsys, str(log), "cannot read: Permission denied")


def test_import_loads_no_thread_pool():
    # the occupancy piece reader imports concurrent.futures when it first
    # builds its pool, so a short run pays nothing for it
    path = [str(Path(thermark.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    check = "import sys, thermark.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
