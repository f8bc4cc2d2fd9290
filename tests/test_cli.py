"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thermark
from thermark import ValidationError
from thermark.cli import main
from thermark.datasets import two_zone_benchmark_dir, seven_day_log_csv
from thermark.strategy import parse_strategy, parse_tariff
from thermark.thermal import load_building


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

    def test_dump_chain_matches_golden(self, tmp_path):
        assert main(pinned_args("analyze", tmp_path, extra=["--dump-chain"])) == 0
        golden = Path(__file__).parent / "golden" / "two_zone_benchmark_chain.json"
        assert (tmp_path / "chain.json").read_bytes() == golden.read_bytes()

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


class TestGoldenOutputs:
    def test_outputs_match_golden_files(self, tmp_path):
        d = two_zone_benchmark_dir()
        occupancy = ["--occupancy", f"zone1={d / 'occupancy_zone1.csv'}",
                     "--occupancy", f"zone2={d / 'occupancy_zone2.csv'}"]
        assert main(pinned_args("analyze", tmp_path)) == 0
        assert main(["cost", "--building", str(d / "building.json"), *occupancy,
                     "--out", str(tmp_path)]) == 0
        assert main(["estimate", str(d / "occupancy_zone1.csv"), "--out", str(tmp_path)]) == 0
        golden = Path(__file__).parent / "golden"
        for name in ("trajectory.csv", "comfort.json", "cost.csv", "cost.json",
                     "schedule.json"):
            expected = (golden / f"two_zone_benchmark_{name}").read_bytes()
            assert (tmp_path / name).read_bytes() == expected, name


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

    def test_bundled_theta_range_is_pinned(self, tmp_path, capsys):
        # sha256 of every file of `export --strategy S6 --theta 1-9` on the
        # bundled data, recorded before the modules were shared between thetas
        pinned = {
            "building_theta1.pm": "dd7c204bc3a3dc77e04fb850be64560ee29aa31f663f40309acdead48bae37e1",
            "building_theta2.pm": "5e0413db1d742049dcc791ae8bf9e6ffcccdb7bd9f4422c51337d4c6d9c75c76",
            "building_theta3.pm": "e77c5cdae840f69b3d495695b944b4c153a033ed11fdb684b505d92dc8ed56d4",
            "building_theta4.pm": "23b4affbe2d6498e9eeff7e943cdf4985862ec83b64714fbdb3bfb581d36e01f",
            "building_theta5.pm": "17b597d563b9e05f2dbf17751bcda35d079f5aba50c56deb25fc412212d5a29e",
            "building_theta6.pm": "6faf3fced15bb8972bf4c659e2529720203621db27ef42f1d060d75ff9ddbc72",
            "building_theta7.pm": "e0f5283d7acb2e362ed32f4d414b0034d970d7567615eac4b475a5b91b041353",
            "building_theta8.pm": "4f814b7cdd8f8ed60de91038edf7a675bb7904c304a0a5c28a7ef50f9a1ac4c3",
            "building_theta9.pm": "3e69b8a78b60f9540fea74c9c77477ad6ec3a52a36ae70b31fc6d6fffa310c8a",
            "building.props": "d65ba40451c4b281bbfd4d16ff656b4c4217daa8130bd7f42280b81648aabce0",
        }
        assert main(pinned_args("export", tmp_path, extra=["--theta", "1-9"])) == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(pinned)
        for name, digest in pinned.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        capsys.readouterr()
        assert main(pinned_args("export", tmp_path / "unused",
                                extra=["--theta", "1-9", "--stdout"])) == 0
        files = [f"building_theta{theta}.pm" for theta in range(1, 10)] + ["building.props"]
        expected = "".join((tmp_path / name).read_text() for name in files)
        assert capsys.readouterr().out == expected


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

    # one zone's log or gains, or one strategy name, given twice would leave one unread or
    # misbilled
    @pytest.mark.parametrize("command,extra,reason", [
        ("analyze", ["--occupancy", "zone1={d}/occupancy_zone2.csv"],
         "--occupancy names zone 'zone1' twice"),
        ("export", ["--occupancy", "zone2={d}/occupancy_zone2.csv"],
         "--occupancy names zone 'zone2' twice"),
        ("cost", ["--strategy", "S6"],
         "--strategy S6 and --strategy S6 are both named 'S6'"),
        ("cost", ["--strategy", "{tmp}/a.json", "--strategy", "{tmp}/b.json"],
         "--strategy {tmp}/a.json and --strategy {tmp}/b.json are both named 'X'"),
        ("analyze", ["--gains", "zone1=5,5", "--gains", "zone1=0.7,1.5"],
         "--gains names zone 'zone1' twice"),
        ("cost", ["--gains", "5,5", "--gains", "zone2=1,1", "--gains", "0.7,1.5"],
         "--gains gives the default twice"),
    ])
    def test_repeated_zone_or_strategy_name_exits_2(self, tmp_path, capsys, command, extra,
                                                    reason):
        (tmp_path / "a.json").write_text(json.dumps({"name": "X", "schedule": {"zone1": [9]}}))
        (tmp_path / "b.json").write_text(json.dumps({"name": "X", "schedule": {"zone1": [12]}}))
        names = dict(d=two_zone_benchmark_dir(), tmp=tmp_path)
        out = tmp_path / "out"
        assert main(pinned_args(command, out, extra=[arg.format(**names) for arg in extra])) == 2
        assert_one_line_error(capsys, reason.format(**names))
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_radiator_power_exits_2(self, tmp_path, capsys, value):
        args = pinned_args("cost", tmp_path, extra=[f"--radiator-kw={value}"])
        assert main(args) == 2
        assert_one_line_error(capsys, "--radiator-kw")
        assert not (tmp_path / "cost.json").exists()

    def test_negative_radiator_power_exits_2(self, tmp_path, capsys):
        d = two_zone_benchmark_dir()
        empty = tmp_path / "none.json"
        empty.write_text(json.dumps({"name": "none", "schedule": {}}))
        base = ["cost", "--building", str(d / "building.json"), "--radiator-kw=-1"]
        for extra in ([], ["--strategy", str(empty)]):
            out = tmp_path / "out"
            assert main([*base, *extra, "--out", str(out)]) == 2
            assert_one_line_error(capsys, "radiator")
            assert not out.exists()

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

    # each subcommand takes only the options it reads
    @pytest.mark.parametrize("command, option", [
        ("analyze", "--tariff=/nonexistent"), ("export", "--tariff=/nonexistent"),
        ("analyze", "--radiator-kw=-1"), ("export", "--radiator-kw=-1"),
        ("export", "--band=20-22"),
    ])
    def test_option_the_command_never_reads_exits_2(self, tmp_path, capsys, command, option):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(pinned_args(command, out, extra=[option]))
        assert info.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not out.exists()


def bench_building(**overrides):
    """The bundled building spec with zone1's fields or the explicit matrices overridden."""
    spec = json.loads((two_zone_benchmark_dir() / "building.json").read_text())
    for key, value in overrides.items():
        if key in spec["explicit_discrete"]:
            spec["explicit_discrete"][key][0][0] = value
        else:
            spec["zones"][0][key] = value
    return spec


def one_band_tariff(**overrides):
    return {"bands": [{"name": "day", "start": 8, "end": 17, "price_minor_per_kwh": 10,
                       **overrides}]}


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

    def test_b_of_wrong_shape_exits_2(self, tmp_path, capsys):
        spec = bench_building()
        spec["explicit_discrete"]["b"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        path = tmp_path / "building.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        args = pinned_args("analyze", out)
        args[args.index("--building") + 1] = str(path)
        assert main(args) == 2
        assert_one_line_error(capsys, "b must be 2x2, got (3, 3)")
        assert not out.exists()

    # nothing is coerced: one line names the file, the key path and the expected type
    @pytest.mark.parametrize("edit,reason", [
        (lambda text: text.replace("1.37", "1" + "0" * 400),
         "zones[0].capacitance: expected a finite number, got an integer beyond the float range"),
        (lambda text: text.replace("1.37", "1" + "0" * 4400),
         "zones[0].capacitance: expected a finite number, got a non-finite number"),
        (lambda text: text.replace("1.37", '"1.37"'),
         "zones[0].capacitance: expected a finite number, got a string"),
        (lambda text: text.replace("18.0", "true"),
         "zones[0].initial_temp: expected a finite number, got a boolean"),
        (lambda text: text.replace('"zone1"', "7", 1),
         "zones[0].id: expected a string, got an integer"),
        (lambda text: f"[{text}]", "top level: expected an object, got a list"),
        (lambda text: text.replace('"resistance": 5.5897, ', ""),
         "zones[1]: missing key 'resistance'"),
        (lambda text: text.replace('[["zone1", "zone2"]', '["zone1zone2"'),
         "edges[0]: expected a list, got a string"),
        (lambda text: text.replace('["zone1", "zone2"]', '["zone1", "zone2", "zone1"]'),
         "edges[0]: expected two zone ids, got 3 values"),
        (lambda text: text.replace("0.3007", '"0.3007"'),
         "explicit_discrete.a[1][0]: expected a finite number, got a string"),
        (lambda text: text.replace("0.7299", "true"),
         "explicit_discrete.b[0][0]: expected a finite number, got a boolean"),
        (lambda text: text.replace("[0.0, 1.0]", "[0.0, 1.0, 0.0]"),
         "explicit_discrete.b: expected rows of equal length"),
        (lambda text: text.replace('"delta": 1.0', '"delta": "1"'),
         "explicit_discrete.delta: expected a finite number, got a string"),
        (lambda text: text.replace('"capacitance": 1.37', '"capacitnce": 1.37'),
         "zones[0]: unknown key 'capacitnce'"),
        (lambda text: text.replace('"explicit_discrete"', '"explicit_dicrete"'),
         "top level: unknown key 'explicit_dicrete'"),
        (lambda text: text[:text.index('"explicit_discrete"')] + '"explicit_discrete": null}',
         "explicit_discrete: expected an object, got null"),
        (lambda text: "{" + text,
         "not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (lambda text: "[" * 100_000, "not valid JSON: nested too deeply"),
        (lambda text: "\ufeff" + text,
         "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (lambda text: '{"zones": [%s]]}' % ("1" * 5000),
         "not valid JSON: Expecting ',' delimiter: line 1 column 5013 (char 5012)"),
        (lambda text: text.replace('"capacitance": 1.37', '"capacitance": 1.37, "capacitance": 9'),
         "an object gives key 'capacitance' twice"),
        (lambda text: text.replace('{"zones"', '{"edges": [], "zones"'),
         "an object gives key 'edges' twice"),
    ], ids=["401-digits", "4400-digits", "string-number", "boolean-number", "integer-id",
            "top-level-list", "missing-key", "string-edge", "three-ended-edge", "string-in-a",
            "boolean-in-b", "ragged-b", "string-delta", "unknown-key", "misspelt-explicit",
            "null-explicit", "syntax-error", "deep-nesting",
            "utf-8-bom", "syntax-error-after-5000-digits", "repeated-zone-key",
            "repeated-top-level-key"])
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, edit, reason):
        path = tmp_path / "building.json"
        path.write_text(edit(json.dumps(bench_building())))
        out = tmp_path / "out"
        args = pinned_args("cost", out)
        args[args.index("--building") + 1] = str(path)
        assert main(args) == 2
        assert_one_line_error(capsys, f"error: {path}: {reason}\n")
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

    def test_two_bands_of_one_name_exit_2(self, tmp_path, capsys):
        """Bands are billed by name: one name would bill both at one price."""
        path = tmp_path / "tariff.json"
        path.write_text(json.dumps({"bands": [
            {"name": "day", "start": 8, "end": 12, "price_minor_per_kwh": 10},
            {"name": "day", "start": 12, "end": 17, "price_minor_per_kwh": 100}]}))
        out = tmp_path / "out"
        assert main(pinned_args("cost", out, "S2", ["--tariff", str(path)])) == 2
        assert_one_line_error(capsys, "tariff has two bands named 'day'")
        assert not out.exists()

    def test_shipped_inputs_load(self):
        """The bundled files and README's examples pass the schemas."""
        d = two_zone_benchmark_dir()
        network, _ = load_building(d / "building.json")
        parse_tariff(d / "tariff.json")
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        strategy = re.search(r"Strategy\s+JSON:\s+`(.+?)`", readme, re.S).group(1)
        tariff = re.search(r"Tariff\s+JSON:\s+`(.+?)`", readme, re.S).group(1)
        parse_strategy(json.loads(strategy), zone_ids=network.zone_ids)
        parse_tariff(json.loads(tariff))

    # nothing is coerced: one line names the file, the key path and the expected type
    @pytest.mark.parametrize("flag,content,reason", [
        ("--strategy", {"name": "x", "schedule": {"zone1": "8"}},
         "schedule.zone1: expected a list, got a string"),
        ("--strategy", {"name": "x", "schedule": {"zone1": [8.5]}},
         "schedule.zone1[0]: expected an integer, got a float"),
        ("--strategy", {"name": "x", "schedule": {"zone1": [True]}},
         "schedule.zone1[0]: expected an integer, got a boolean"),
        ("--strategy", {"name": 5, "schedule": {}}, "name: expected a string, got an integer"),
        ("--tariff", one_band_tariff(start=8.7), "bands[0].start: expected an integer, got a float"),
        ("--tariff", one_band_tariff(price_minor_per_kwh=True),
         "bands[0].price_minor_per_kwh: expected an integer, got a boolean"),
        ("--tariff", {"bands": [{"name": "day", "start": 8}]}, "bands[0]: missing key 'end'"),
        ("--tariff", [one_band_tariff()], "top level: expected an object, got a list"),
        pytest.param("--strategy", {"name": "x", "schedul": {"zone1": [9]}},
                     "top level: unknown key 'schedul'", id="unknown-key"),
        pytest.param("--strategy", {"name": "x", "schedule": {"zone1": [9, 9]}},
                     "schedule.zone1[1]: 9 is listed twice", id="repeated-hour"),
        pytest.param("--tariff", one_band_tariff(prce=10), "bands[0]: unknown key 'prce'",
                     id="unknown-band-key"),
        # text, not a document: a literal longer than int() reads is a non-finite number
        pytest.param("--strategy", '{"name": "x", "schedule": {"zone1": [%s]}}' % ("9" * 5000),
                     "schedule.zone1[0]: expected an integer, got a non-finite number",
                     id="5000-digit-hour"),
        pytest.param("--tariff", '{"bands": [}',
                     "not valid JSON: Expecting value: line 1 column 12 (char 11)",
                     id="syntax-error"),
        # a repeated key would keep its last value
        pytest.param("--strategy", '{"name": "a", "name": "b", "schedule": {"zone1": [9]}}',
                     "an object gives key 'name' twice", id="repeated-key"),
        pytest.param("--strategy", '{"name": "a", "schedule": {"zone1": [9], "zone1": [12]}}',
                     "an object gives key 'zone1' twice", id="repeated-zone"),
        pytest.param("--tariff", json.dumps(one_band_tariff())[:-3] + ', "end": 12}]}',
                     "an object gives key 'end' twice", id="repeated-band-key"),
    ])
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, flag, content, reason):
        path = tmp_path / "input.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        args = pinned_args("cost", tmp_path / "out")
        if flag in args:
            args[args.index(flag) + 1] = str(path)
        else:
            args += [flag, str(path)]
        assert main(args) == 2
        assert_one_line_error(capsys, f"error: {path}: {reason}\n")
        assert not (tmp_path / "out").exists()


def ring_args(tmp_path, n):
    """``analyze --dump-chain`` of an n-zone ring over the 8-17 window (K=9)."""
    zone_ids = [f"zone{i}" for i in range(n)]
    building = {
        "zones": [{"id": z, "capacitance": 2.0, "resistance": 2.0, "initial_temp": 18.0}
                  for z in zone_ids],
        "edges": [[a, b] for i, a in enumerate(zone_ids)
                  for b in (zone_ids[i - 1], zone_ids[(i + 1) % n])],
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
    return args


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
        assert main(ring_args(tmp_path, 10)) == 3
        assert_one_line_error(capsys, "--dump-chain", "limit")
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
    def test_seven_zones_dump_in_bounded_memory(self, tmp_path):
        # a fresh interpreter reports its own peak: on Linux that is VmHWM,
        # which belongs to its own address space, while ru_maxrss carries the
        # test process's high-water mark across fork and exec (and
        # RUSAGE_CHILDREN would give the largest child this process ever
        # waited for). Streamed from the layers, the 148 k edges need about
        # 34 MiB; one object per edge 206 MiB.
        check = ("import resource, sys; from thermark.cli import main; code = main(sys.argv[1:]); "
                 "peak = (int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]) "
                 "* 1024 if sys.platform == 'linux' "
                 "else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); "
                 "print(peak); sys.exit(code)")
        out = subprocess.run([sys.executable, "-c", check, *ring_args(tmp_path, 7)],
                             env=subprocess_env(), capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "out" / "chain.json").read_bytes().endswith(b"\n  ]\n}\n")
        assert int(out.stdout.split()[-1]) < 100 * 2 ** 20


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


def subprocess_env():
    """This environment, with the imported thermark first on the path."""
    path = [str(Path(thermark.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@pytest.mark.parametrize("command", ["analyze", "cost", "export"])
def test_overflowing_gains_exit_2_with_one_line(tmp_path, command):
    # the rewards and the recursion overflow to inf and nan; numpy must not
    # warn about it, and the non-finite values must not reach a writer
    args = pinned_args(command, tmp_path, strategy="S2", extra=["--gains", "1.7e308,1.7e308"])
    out = subprocess.run([sys.executable, "-m", "thermark.cli", *args], env=subprocess_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert "non-finite" in out.stderr
    assert "Traceback" not in out.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_reward_sum_overflow_exits_2_with_one_line(tmp_path, command):
    # every per-step reward of zone2 stays finite, but their sum for
    # theta=7 does not; analyze's recursion overflows there too
    args = pinned_args(command, tmp_path, strategy="S2", extra=["--gains", "1e308,0"])
    out = subprocess.run([sys.executable, "-m", "thermark.cli", *args], env=subprocess_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    if command == "export":
        assert out.stderr == "error: non-finite reward sum: zone 'zone2', theta 7\n"
    assert list(tmp_path.iterdir()) == []


def test_price_beyond_float_range_exits_2_with_one_line(tmp_path):
    tariff = tmp_path / "tariff.json"
    tariff.write_text(json.dumps(one_band_tariff(price_minor_per_kwh=10 ** 400)))
    out_dir = tmp_path / "out"
    args = pinned_args("cost", out_dir, extra=["--tariff", str(tariff)])
    out = subprocess.run([sys.executable, "-m", "thermark.cli", *args], env=subprocess_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "error: strategy 'S6': total cost is above 1.798e+308 minor units\n"
    assert not out_dir.exists()


def test_import_uses_no_dataclasses():
    # generating dataclass methods cost about 1 ms per class in every fresh
    # process; the records are built on thermark.records instead
    check = ("import sys, numpy; before = set(sys.modules); import thermark, thermark.cli; "
             "classes = [c for m in list(sys.modules.values()) if m.__name__.startswith('thermark')"
             " for c in vars(m).values() if isinstance(c, type)]; "
             "print(sorted(m for m in set(sys.modules) - before if 'dataclass' in m), "
             "[c.__name__ for c in classes if hasattr(c, '__dataclass_fields__')])")
    out = subprocess.run([sys.executable, "-c", check], env=subprocess_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[] []"


def test_import_loads_no_thread_pool():
    # nothing in thermark runs on threads, so nothing imports concurrent.futures
    check = "import sys, thermark.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run([sys.executable, "-c", check], env=subprocess_env(), capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
