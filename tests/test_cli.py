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

    def test_half_a_minor_unit_rounds_to_even(self, tmp_path):
        # 0.5 kW for one hour at 1 and at 3 costs 0.5 and 1.5: half to even
        # gives 0 and 2, where rounding half up would give 1 and 2
        tariff = {"bands": [{"name": "one", "start": 8, "end": 9, "price_minor_per_kwh": 1},
                            {"name": "three", "start": 9, "end": 10, "price_minor_per_kwh": 3}]}
        (tmp_path / "tariff.json").write_text(json.dumps(tariff))
        extra = ["--tariff", str(tmp_path / "tariff.json"), "--radiator-kw", "0.5"]
        for name, hour in (("at-one", 8), ("at-three", 9)):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"name": name, "schedule": {"zone1": [hour]}}))
            extra += ["--strategy", str(tmp_path / f"{name}.json")]
        building = two_zone_benchmark_dir() / "building.json"
        assert main(["cost", "--building", str(building), *extra,
                     "--out", str(tmp_path / "out")]) == 0
        rows = {r["strategy"]: r for r in
                json.loads((tmp_path / "out" / "cost.json").read_text())["rows"]}
        assert {name: r["total_cost_minor"] for name, r in rows.items()} == {
            "at-one": 0, "at-three": 2}
        assert rows["at-one"]["band_energy_kwh"] == {"one": 0.5, "three": 0.0}
        assert rows["at-three"]["band_energy_kwh"] == {"one": 0.0, "three": 0.5}

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

    @pytest.mark.parametrize("stdout", [False, True])
    @pytest.mark.parametrize("name", ["../escaped", "", ".hidden", "a/b", "a\nb"])
    def test_name_that_is_not_a_plain_file_name_exits_2(self, tmp_path, capsys, name, stdout):
        """--name is a file name inside --out and a line of the model's header."""
        extra = ["--name", name] + (["--stdout"] if stdout else [])
        assert main(pinned_args("export", tmp_path / "out", extra=extra)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --name") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    # every output is first written as .<file>.0.tmp, whose name must fit in
    # 255 bytes: .<name>_theta9.pm.0.tmp over 1-9, .<name>.props.0.tmp at 9
    @pytest.mark.parametrize("theta,longest", [("1-9", 238), ("9", 242)])
    @pytest.mark.parametrize("over", [0, 1])
    def test_name_length_counts_the_temp_file_name(self, tmp_path, capsys, theta, longest, over):
        name = "é" + "n" * (longest + over - 2)  # one two-byte character: UTF-8 bytes count
        out = tmp_path / "out"
        code = main(pinned_args("export", out, extra=["--theta", theta, "--name", name]))
        if over:
            assert code == 2
            assert_one_line_error(capsys, f"--name must be at most {longest} UTF-8 bytes",
                                  f"got {longest + 1}")
            assert not out.exists()
        else:
            assert code == 0
            suffix = "_theta9" if theta == "1-9" else ""
            assert (out / f"{name}{suffix}.pm").is_file() and (out / f"{name}.props").is_file()

    def test_bad_theta_range_exits_2(self, tmp_path):
        args = pinned_args("export", tmp_path, extra=["--theta", "0-4"])
        assert main(args) == 2
        args = pinned_args("export", tmp_path, extra=["--theta", "12"])
        assert main(args) == 2

    def test_bundled_theta_range_is_pinned(self, tmp_path, capsys):
        # sha256 of every file of `export --strategy S6 --theta 1-9` on the
        # bundled data, recorded before the modules were shared between thetas;
        # those of theta 3..9 again when the reward table became Horner's rule,
        # which moved the last bit of some reward literals
        pinned = {
            "building_theta1.pm": "dd7c204bc3a3dc77e04fb850be64560ee29aa31f663f40309acdead48bae37e1",
            "building_theta2.pm": "5e0413db1d742049dcc791ae8bf9e6ffcccdb7bd9f4422c51337d4c6d9c75c76",
            "building_theta3.pm": "7b243f3d7107b155b59516fc9ca6c8f06d664b11d1625e6ed236990c5dce78f5",
            "building_theta4.pm": "313e3f1bca0e9f9cc91fd54c54909b245960529e8ee09d213c30797b0d54946b",
            "building_theta5.pm": "311f29859e084f0e90f7919ce74477ba593c0698b6fcfb6459da5805289e1b3f",
            "building_theta6.pm": "982fe60318ba54905e11ed2142624d79c24cadf36042d761d1b67ba623a724f1",
            "building_theta7.pm": "9d5d5997afefa27f2c1b2ea65037971b09a26af4e8e69034aefbd2b31e5d64a7",
            "building_theta8.pm": "059fa80837433268cce0fd514df59000b1d0008f538f886fd1f1a7a87bc596a9",
            "building_theta9.pm": "b3d2bc7e956fadbd7f038da0db66bc48f1ddf5678fb0eca91caad28085b1ed6f",
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


def renamed_inputs(tmp_path, zone, strategy, band):
    """The bundled building with zone1 renamed ``zone``, a strategy named
    ``strategy`` that heats it, and a tariff whose first band is ``band``."""
    spec = json.loads((two_zone_benchmark_dir() / "building.json").read_text())
    spec["zones"][0]["id"] = zone
    spec["edges"] = [[zone if z == "zone1" else z for z in edge] for edge in spec["edges"]]
    files = {"building": spec,
             "strategy": {"name": strategy, "schedule": {zone: [9, 10], "zone2": [13]}},
             "tariff": {"bands": [{"name": band, "start": 8, "end": 12, "price_minor_per_kwh": 10},
                                  {"name": "late", "start": 12, "end": 17,
                                   "price_minor_per_kwh": 20}]}}
    for kind, content in files.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(content))
    d = two_zone_benchmark_dir()
    return ["--building", str(tmp_path / "building.json"),
            "--occupancy", f"{zone}={d / 'occupancy_zone1.csv'}",
            "--occupancy", f"zone2={d / 'occupancy_zone2.csv'}",
            "--strategy", str(tmp_path / "strategy.json")]


class TestNames:
    """Zone ids, strategy names and band names are written to the CSV
    outputs through one CSV writer, so any name that passes the name rule
    reads back as one cell."""

    @pytest.mark.parametrize("name", ["Room 1, east", 'a"b'])
    def test_csv_reads_back_every_name(self, tmp_path, name):
        import csv

        args = renamed_inputs(tmp_path, zone=name, strategy=name, band=name)
        assert main(["analyze", *args, "--out", str(tmp_path / "a")]) == 0
        assert main(["cost", *args, "--strategy", "S1", "--tariff", str(tmp_path / "tariff.json"),
                     "--out", str(tmp_path / "c")]) == 0
        with open(tmp_path / "a" / "trajectory.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert len(rows) == 18 and all(len(row) == 3 for row in rows)
        assert [row[1] for row in rows[:2]] == [name, "zone2"]
        with open(tmp_path / "c" / "cost.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header[:3] == ["strategy", f"energy_{name}_kwh", "energy_late_kwh"]
        assert all(len(row) == len(header) for row in rows)
        assert {row[0]: row[3] for row in rows} == {"S1": "0", name: "40"}

    # the name rule: non-empty, with no control character
    @pytest.mark.parametrize("zone,strategy,band,reason", [
        ("a\nb", "x", "day", "building.json: zones[0].id: expected a non-empty name with no "
                             "control character, got 'a\\nb'"),
        ("zone1", "", "day", "strategy.json: name: expected a non-empty name with no "
                             "control character, got ''"),
        ("zone1", "x", "d\ray", "tariff.json: bands[0].name: expected a non-empty name with no "
                                "control character, got 'd\\ray'"),
    ], ids=["newline-zone", "empty-strategy", "cr-band"])
    def test_name_breaking_a_line_exits_2(self, tmp_path, capsys, zone, strategy, band, reason):
        args = renamed_inputs(tmp_path, zone=zone, strategy=strategy, band=band)
        out = tmp_path / "out"
        assert main(["cost", *args, "--tariff", str(tmp_path / "tariff.json"),
                     "--out", str(out)]) == 2
        assert_one_line_error(capsys, reason)
        assert not out.exists()


    # --occupancy and --gains end a zone id at its first '=', so no run could
    # give such a zone its log or its gains; cost rejects it without logs too
    @pytest.mark.parametrize("command", ["analyze", "cost", "export"])
    def test_zone_id_holding_equals_exits_2(self, tmp_path, capsys, command):
        args = renamed_inputs(tmp_path, zone="a=b", strategy="x", band="day")
        out = tmp_path / "out"
        assert main([command, *(args[:2] if command == "cost" else args),
                     "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"{tmp_path / 'building.json'}: zone id 'a=b' holds '='")
        assert not out.exists()


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

    @pytest.mark.parametrize("days,warnings", [
        (4, ["low sample: only 4 day(s) in the dataset"]), (5, [])])
    def test_low_sample_below_five_days(self, tmp_path, days, warnings):
        path = tmp_path / "log.csv"
        path.write_text("day,hour,occupied\n" + "".join(
            f"{d},{h},{(d + h) % 2}\n" for d in range(1, days + 1) for h in range(8, 12)))
        assert main(["estimate", str(path), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "schedule.json").read_text())["warnings"] == warnings

    def test_one_hour_log_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("day,hour,occupied\n1,8,1\n2,8,0\n")
        assert main(["estimate", str(path), "--out", str(tmp_path / "out")]) == 2
        assert_one_line_error(capsys, "need at least two hours to estimate transitions")
        assert not (tmp_path / "out").exists()

    def test_stdout(self, capsys, tmp_path):
        assert main(["estimate", str(seven_day_log_csv()), "--stdout"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["days"] == 7

    def test_large_synthetic_log_recovers_generator(self, tmp_path):
        import numpy as np

        from conftest import dataset_to_csv, random_schedule, sample_dataset

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

    # the logs are read as one batch, but a run with faults names the first
    # one met when each zone's log is read and checked in turn, in zone order
    LOGS = {
        "good": "".join(f"{d},{h},{int(h == 12)}\n" for d in (1, 2) for h in range(8, 18)),
        "uncovered": "".join(f"{d},{h},0\n" for d in (1, 2) for h in range(9, 12)),
        "bad-row": "1,8,0\n1,9,2\n",
        "mixed-start": "".join(f"{d},{h},{int(d == 1)}\n" for d in (1, 2) for h in range(8, 18)),
    }

    @pytest.mark.parametrize("logs,extra,message", [
        ({"zone1": "uncovered", "zone2": "bad-row"}, [],
         "zone 'zone1': dataset hours 9-11 do not cover the window 8-17"),
        ({"zone1": "bad-row", "zone2": "mixed-start"}, [],
         "{zone1}: line 3: occupied must be 0 or 1, got '2'"),
        ({"zone2": "mixed-start", "zone3": None}, [],
         "zone 'zone2': occupancy at the window start hour 8 is mixed (0.50 of days); "
         "the chain needs a deterministic start"),
        ({"zone1": "bad-row", "zone3": None}, ["--occupancy", "attic={zone1}"],
         "--occupancy references unknown zone 'attic'"),
        ({"zone1": None, "zone2": "bad-row"}, [], "occupancy file not found: {zone1}"),
        ({"zone1": "uncovered", "zone3": "no-flag"}, [],
         "zone 'zone1': dataset hours 9-11 do not cover the window 8-17"),
    ], ids=["uncovered-before-bad-row", "bad-row-before-mixed-start",
            "mixed-start-before-missing-file", "unknown-zone-before-all",
            "missing-file-before-bad-row", "uncovered-before-no-occupancy-flag"])
    def test_first_fault_in_zone_order_is_named(self, tmp_path, capsys, logs, extra, message):
        zone_ids = ("zone1", "zone2", "zone3")
        (tmp_path / "building.json").write_text(json.dumps({
            "zones": [{"id": z, "capacitance": 2.0, "resistance": 2.0, "initial_temp": 18.0}
                      for z in zone_ids],
            "edges": [["zone1", "zone2"], ["zone2", "zone3"], ["zone3", "zone1"]]}))
        paths = {z: tmp_path / f"{z}.csv" for z in zone_ids}
        for zid, path in paths.items():
            kind = logs.get(zid, "good")
            if kind in self.LOGS:  # None: no file; "no-flag": no --occupancy either
                path.write_text("day,hour,occupied\n" + self.LOGS[kind])
        out = tmp_path / "out"
        argv = ["analyze", "--building", str(tmp_path / "building.json"),
                *(a for zid, path in paths.items() if logs.get(zid) != "no-flag"
                  for a in ("--occupancy", f"{zid}={path}")),
                *(a.format(**paths) for a in extra), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("faulty", ["zone1", "zone2"])
    def test_a_rejected_log_is_row_checked_once(self, tmp_path, capsys, monkeypatch, faulty):
        # two long logs of one layout, one with occupied 2 on its last row: the
        # batch names the fault, and the zone-by-zone reading takes its message
        rows = "".join(f"{d},{h},{d * h % 2}\n" for d in range(1, 501) for h in range(24))
        paths = {}
        for zid in ("zone1", "zone2"):
            paths[zid] = tmp_path / f"{zid}.csv"
            body = rows[:-2] + "2\n" if zid == faulty else rows
            paths[zid].write_text("day,hour,occupied\n" + body)
        assert len(rows) > thermark.occupancy.STRIDE_MIN_BYTES
        calls = []
        fault = thermark.occupancy._fault
        monkeypatch.setattr(thermark.occupancy, "_fault",
                            lambda body: calls.append(len(body)) or fault(body))
        building = two_zone_benchmark_dir() / "building.json"
        argv = ["analyze", "--building", str(building), "--window", "0-23",
                *(a for zid, path in paths.items() for a in ("--occupancy", f"{zid}={path}")),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {paths[faulty]}: line 12001: occupied must be 0 or 1, got '2'\n")
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [2, 7])
    def test_each_log_is_read_once(self, tmp_path, capsys, monkeypatch, n):
        # the last of n logs is rejected, and the message needs no second read
        args = ring_args(tmp_path, n)
        args.remove("--dump-chain")
        bad = tmp_path / "bad.csv"
        bad.write_text("day,hour,occupied\n" + self.LOGS["bad-row"])
        args[-1] = f"zone{n - 1}={bad}"
        reads = []
        read_bytes = thermark.cli.read_bytes
        monkeypatch.setattr(thermark.cli, "read_bytes",
                            lambda path, *rest: reads.append(path) or read_bytes(path, *rest))
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 3: occupied must be 0 or 1, got '2'\n")
        assert reads == [tmp_path / "log.csv"] * (n - 1) + [bad]

    @pytest.mark.parametrize("hours,code", [([16], 0), ([16, 17], 2)])
    def test_strategy_slot_at_the_window_end_exits_2(self, tmp_path, capsys, hours, code):
        # a slot heats the hour that starts at it, so window 8-17 ends with slot 16
        path = tmp_path / "late.json"
        path.write_text(json.dumps({"name": "late", "schedule": {"zone1": hours}}))
        assert main(pinned_args("analyze", tmp_path / "out", strategy=str(path))) == code
        if code:
            assert_one_line_error(capsys, "hour 17", "outside the operating window 8-17")

    @pytest.mark.parametrize("command", ["analyze", "export"])
    @pytest.mark.parametrize("padded", [False, True])
    def test_window_matches_logs_cut_to_it(self, tmp_path, command, padded):
        # the bundled logs cover 8..17; padded, they also hold hours 6, 7 and
        # 18, occupied on odd days, so the window starts two columns in
        d = two_zone_benchmark_dir()
        logs = {}
        for zid in ("zone1", "zone2"):
            header, *rows = (d / f"occupancy_{zid}.csv").read_text().splitlines()
            if padded:
                days = {int(row.split(",")[0]) for row in rows}
                rows += [f"{day},{hour},{day % 2}" for day in days for hour in (6, 7, 18)]
            rows.sort(key=lambda row: tuple(map(int, row.split(",")[:2])))
            for kind, keep in (("full", rows),
                               ("cut", [r for r in rows if 8 <= int(r.split(",")[1]) <= 12])):
                path = tmp_path / f"{kind}_{zid}.csv"
                path.write_text("\n".join([header, *keep]) + "\n")
                logs.setdefault(kind, []).extend(["--occupancy", f"{zid}={path}"])
        for kind, occupancy in logs.items():
            args = [command, "--building", str(d / "building.json"), *occupancy,
                    "--strategy", "S6", "--window", "8-12", "--out", str(tmp_path / kind)]
            assert main(args) == 0
        names = sorted(f.name for f in (tmp_path / "full").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "cut").iterdir())
        assert len(names) == (2 if command == "analyze" else 5)
        for name in names:
            assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "cut" / name).read_bytes()


def bench_config(strategy):
    from pathlib import Path

    from thermark.cli import RunConfig

    d = two_zone_benchmark_dir()
    return RunConfig(
        building=d / "building.json",
        occupancy_paths={"zone1": d / "occupancy_zone1.csv",
                         "zone2": d / "occupancy_zone2.csv"},
        strategies=(strategy,),
        out_dir=Path("."),
    )


def composed_comfort(strategy):
    """comfort.json's content from the composed-engine trajectory, classed
    point by point: the reference route."""
    from conftest import build_model, composed_values

    config = bench_config(strategy)
    _, thermal, model, _ = build_model(config)
    gains = config.gains_for(thermal.zone_ids)
    trajectory = composed_values(model, thermal, gains, config.thetas)
    (low, high), zone_ids = config.band, thermal.zone_ids
    classes = [["below" if v < low else "above" if v > high else "within" for v in row]
               for row in trajectory.tolist()]
    return {
        "band": {"low": low, "high": high},
        "points": [{"theta": theta, "zone": zid, "classification": label}
                   for theta, row in zip(config.thetas, classes)
                   for zid, label in zip(zone_ids, row)],
        "summary": {zid: {"ever_below": any(row[j] == "below" for row in classes),
                          "ever_above": any(row[j] == "above" for row in classes)}
                    for j, zid in enumerate(zone_ids)},
    }


class TestDirectRoute:
    """analyze and cost answer from the marginal recursion, not the product chain."""

    @pytest.mark.parametrize("strategy", ["S1", "S2", "S3", "S4", "S5", "S6"])
    def test_trajectory_matches_oracle(self, tmp_path, strategy):
        from conftest import build_model
        from thermark.analysis import brute_force_expected_temperature
        from thermark.markov import assign_rewards

        assert main(pinned_args("analyze", tmp_path, strategy=strategy)) == 0
        rows = read_trajectory(tmp_path / "trajectory.csv")
        config = bench_config(strategy)
        _, thermal, model, _ = build_model(config)
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

        compose = thermark.markov.compose
        monkeypatch.setattr(thermark.markov, "compose", refuse("compose"))
        monkeypatch.setattr(thermark.markov, "assign_rewards", refuse("assign_rewards"))
        assert main(pinned_args("analyze", tmp_path / "a")) == 0
        cost_args = pinned_args("cost", tmp_path / "c", extra=["--strategy", "S2"])
        assert main(cost_args) == 0
        assert main(pinned_args("export", tmp_path / "e", extra=["--theta", "9"])) == 0
        assert main(pinned_args("export", tmp_path / "f", extra=["--theta", "1-9"])) == 0
        with pytest.raises(RuntimeError, match="compose called"):
            main(pinned_args("analyze", tmp_path / "d", extra=["--dump-chain"]))
        # the dump composes, but takes its rewards from the reward table
        monkeypatch.setattr(thermark.markov, "compose", compose)
        assert main(pinned_args("analyze", tmp_path / "g", extra=["--dump-chain"])) == 0

    def test_dump_chain_unrolls_each_zone_once(self, tmp_path, monkeypatch):
        import thermark.markov

        unrolled = []
        unroll_zones = thermark.markov.unroll_zones

        def counted(zone_ids, *args, **kwargs):
            unrolled.extend(zone_ids)
            return unroll_zones(zone_ids, *args, **kwargs)

        monkeypatch.setattr(thermark.markov, "unroll_zones", counted)
        monkeypatch.setattr(thermark.markov, "unroll_zone", None)  # the CLI unrolls in one batch
        assert main(pinned_args("analyze", tmp_path, extra=["--dump-chain"])) == 0
        assert unrolled == ["zone1", "zone2"]


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

    # cost checks the gains and the window with or without logs, as
    # analyze and export do
    @pytest.mark.parametrize("extra,reason", [
        (["--gains", "nosuch=1,1"], "--gains references unknown zone 'nosuch'"),
        (["--gains=-5,1"], "gains for zone 'zone1' must be >= 0"),
        (["--strategy", "S1", "--window", "0-99"], "window must end by hour 23, got '0-99'"),
    ])
    def test_cost_without_occupancy_checks_gains_and_window(self, tmp_path, capsys, extra,
                                                            reason):
        d = two_zone_benchmark_dir()
        out = tmp_path / "out"
        assert main(["cost", "--building", str(d / "building.json"), *extra,
                     "--out", str(out)]) == 2
        assert_one_line_error(capsys, reason)
        assert not out.exists()

    def test_strategies_are_resolved_once(self, tmp_path):
        from thermark.cli import _config_from_args, build_parser

        def strategies(*argv):
            return _config_from_args(build_parser().parse_args(
                [*argv, "--building", "absent.json"])).strategies

        assert strategies("analyze") == strategies("export") == ("S1",)
        assert strategies("cost") == ("S1", "S2", "S3", "S4", "S5", "S6")
        assert strategies("cost", "--strategy", "S6", "--strategy", "S2") == ("S6", "S2")
        # checked before any other option or file
        with pytest.raises(ValidationError, match="^analyze takes one --strategy, got 2$"):
            strategies("analyze", "--strategy", "S1", "--strategy", "S2", "--window", "9-8")

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

    # each command checks the building, then the strategies, then the gains, then
    # the tariff (cost only), then the logs: of two faults, the earlier one is named
    @pytest.mark.parametrize("command,extra,reason", [
        ("analyze", ["--building", "{tmp}/absent.json", "--strategy", "S9"],
         "building file not found: {tmp}/absent.json"),
        ("analyze", ["--strategy", "S9", "--occupancy", "zone2={tmp}/absent.csv"],
         "strategy file not found: S9"),
        ("export", ["--gains", "zone3=1,1", "--occupancy", "zone2={tmp}/absent.csv"],
         "--gains references unknown zone 'zone3'"),
        ("cost", ["--strategy", "S2", "--strategy", "S2", "--gains", "zone3=1,1"],
         "--strategy S2 and --strategy S2 are both named 'S2'"),
        ("cost", ["--tariff", "{tmp}/absent.json", "--gains", "zone3=1,1"],
         "--gains references unknown zone 'zone3'"),
        ("cost", ["--tariff", "{tmp}/absent.json", "--occupancy", "zone2={tmp}/absent.csv"],
         "tariff file not found: {tmp}/absent.json"),
    ])
    def test_the_first_fault_in_check_order_is_named(self, tmp_path, capsys, command, extra,
                                                      reason):
        d = two_zone_benchmark_dir()
        out = tmp_path / "out"
        argv = [command, "--building", str(d / "building.json"),
                "--occupancy", f"zone1={d / 'occupancy_zone1.csv'}",
                *(arg.format(tmp=tmp_path) for arg in extra), "--out", str(out)]
        assert main(argv) == 2
        assert_one_line_error(capsys, reason.format(tmp=tmp_path))
        assert not out.exists()

    # argparse before Python 3.13 gives such a value as [], which ended in a traceback
    @pytest.mark.parametrize("command,option", [
        ("analyze", "--band"), ("analyze", "--window"), ("cost", "--gains"),
        ("cost", "--strategy"), ("export", "--building"), ("export", "--name"),
        ("estimate", "--out")])
    def test_option_value_of_two_dashes_exits_2(self, tmp_path, capsys, command, option):
        out = tmp_path / "out"
        args = ([command, str(two_zone_benchmark_dir() / "occupancy_zone1.csv")]
                if command == "estimate" else pinned_args(command, out))
        assert main([*args, f"{option}=--"]) == 2
        assert_one_line_error(capsys, f"{option} cannot take the value '--'")
        assert not out.exists() and not Path("--").exists()

    # an empty --theta once ran the full window, and an empty --out wrote
    # into the working directory, both with exit 0
    @pytest.mark.parametrize("command,option", [
        ("analyze", "--theta"), ("cost", "--theta"), ("export", "--theta"),
        ("analyze", "--out"), ("cost", "--out"), ("export", "--out"), ("estimate", "--out")])
    @pytest.mark.parametrize("joined", [False, True], ids=["apart", "joined"])
    def test_empty_option_value_exits_2(self, tmp_path, monkeypatch, capsys, command, option,
                                        joined):
        monkeypatch.chdir(tmp_path)
        args = ([command, str(two_zone_benchmark_dir() / "occupancy_zone1.csv")]
                if command == "estimate" else pinned_args(command, tmp_path / "out"))
        assert main([*args, *([f"{option}="] if joined else [option, ""])]) == 2
        assert_one_line_error(capsys, f"{option} cannot take an empty value")
        assert not any(tmp_path.iterdir())

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

    # C*R of 0 ended in a ZeroDivisionError traceback, and a subnormal C*R
    # printed a numpy RuntimeWarning before the error line
    @pytest.mark.parametrize("size", [1e-200, 1e-160])
    def test_a_coupling_that_overflows_exits_2(self, tmp_path, capsys, size):
        spec = bench_building(capacitance=size, resistance=size)
        del spec["explicit_discrete"]
        path = tmp_path / "building.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        args = pinned_args("analyze", out)
        args[args.index("--building") + 1] = str(path)
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: zone 'zone1': the couplings 1/(C*R) of capacitance {size} and "
            f"resistance {size} overflow\n")
        assert not out.exists()

    # a 1/C that overflowed printed "b_hat must be diagonal with positive
    # entries", and a delta that overflowed delta * a_hat "a must hold finite
    # numbers only"; neither named the input to change
    @pytest.mark.parametrize("capacitance, resistance, delta, message", [
        (1e-310, 1e300, 1.0, "zone 'zone1': 1/C of capacitance 1e-310 overflows"),
        (1e-150, 1e-150, 1e100,
         "zone 'zone1': delta 1e+100 times its rates 1/(C*R) or 1/C overflows"),
    ], ids=["heating-rate", "delta"])
    def test_an_overflow_names_its_input(self, tmp_path, capsys, capacitance, resistance, delta,
                                         message):
        spec = bench_building(capacitance=capacitance, resistance=resistance)
        del spec["explicit_discrete"]
        spec["delta"] = delta
        path = tmp_path / "building.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        args = pinned_args("analyze", out)
        args[args.index("--building") + 1] = str(path)
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # analyze and export ended in a traceback, and cost wrote a row of zeros
    @pytest.mark.parametrize("command", ["analyze", "cost", "export"])
    def test_a_building_with_no_zones_exits_2(self, tmp_path, capsys, command):
        building, strategy = tmp_path / "building.json", tmp_path / "strategy.json"
        building.write_text(json.dumps({"zones": []}))
        strategy.write_text(json.dumps({"name": "X", "schedule": {}}))
        out = tmp_path / "out"
        assert main([command, "--building", str(building), "--strategy", str(strategy),
                     "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"error: {building}: zones: expected at least one zone\n")
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

    def test_shipped_inputs_load(self, tmp_path):
        """The bundled files and README's examples pass the schemas."""
        d = two_zone_benchmark_dir()
        network, _ = load_building(d / "building.json")
        parse_tariff(d / "tariff.json")
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        strategy = re.search(r"Strategy\s+JSON:\s+`(.+?)`", readme, re.S).group(1)
        tariff = re.search(r"Tariff\s+JSON:\s+`(.+?)`", readme, re.S).group(1)
        (tmp_path / "strategy.json").write_text(strategy)
        (tmp_path / "tariff.json").write_text(tariff)
        parse_strategy(tmp_path / "strategy.json", zone_ids=network.zone_ids)
        parse_tariff(tmp_path / "tariff.json")

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

    @pytest.mark.parametrize("limit,code", [(137, 0), (136, 3)])
    def test_limit_is_the_exact_edge_count(self, tmp_path, capsys, monkeypatch, limit, code):
        # the bundled two zones over K=9 steps make 4 + 8 * 16 + 4 + 1 = 137 edges
        import thermark.cli

        monkeypatch.setattr(thermark.cli, "DUMP_MAX_EDGES", limit)
        out = tmp_path / "out"
        assert main(pinned_args("analyze", out, extra=["--dump-chain"])) == code
        if code:
            assert_one_line_error(capsys, "137 edges", "limit of 136")
            assert not out.exists()
        else:
            assert len(json.loads((out / "chain.json").read_text())["transitions"]) == 137

    def test_eight_zones_over_nine_steps_fit(self):
        from thermark.cli import DUMP_MAX_EDGES

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

    def test_taken_temp_name_moves_on(self, tmp_path):
        from thermark.cli import _write_outputs

        (tmp_path / ".out.txt.0.tmp").write_text("stale")
        (tmp_path / ".out.txt.1.tmp").mkdir()
        _write_outputs(tmp_path, {"out.txt": ["te", "xt"]})
        assert (tmp_path / "out.txt").read_text() == "text"
        assert (tmp_path / ".out.txt.0.tmp").read_text() == "stale"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".out.txt.0.tmp", ".out.txt.1.tmp", "out.txt"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import thermark.cli

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(thermark.cli.os, "replace", fail)
        with pytest.raises(ValidationError, match=r"cannot write .*out\.txt: replace failed"):
            thermark.cli._write_outputs(tmp_path, {"out.txt": "text"})
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("call, message", [
        ("open", r"cannot write to .*: open failed"),
        ("write", r"cannot write .*out\.txt: write failed"),
    ])
    def test_failed_open_or_write_leaves_no_temp_file(self, tmp_path, monkeypatch, call,
                                                      message):
        import thermark.cli

        def fail(*args):
            raise OSError(f"{call} failed")

        monkeypatch.setattr(thermark.cli.os, call, fail)
        with pytest.raises(ValidationError, match=message):
            thermark.cli._write_outputs(tmp_path, {"out.txt": "text"})
        monkeypatch.undo()
        assert not any(tmp_path.iterdir())

    def test_target_that_is_a_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "trajectory.csv").mkdir()
        assert main(pinned_args("analyze", tmp_path)) == 2
        assert_one_line_error(capsys, f"cannot write {tmp_path / 'trajectory.csv'}: ",
                              "Is a directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trajectory.csv"]
        assert not any((tmp_path / "trajectory.csv").iterdir())

    @pytest.mark.parametrize("out, shown", [
        (None, "trajectory.csv"),  # the default --out, the working directory
        (".", "trajectory.csv"),
        ("sub", "sub/trajectory.csv"),
        ("./sub/", "sub/trajectory.csv"),
        ("{tmp}/sub", "{tmp}/sub/trajectory.csv"),
    ])
    def test_failed_write_names_the_target_as_given(self, tmp_path, monkeypatch, capsys, out,
                                                    shown):
        monkeypatch.chdir(tmp_path)
        args = pinned_args("analyze", out and out.format(tmp=tmp_path))
        if out is None:
            del args[args.index("--out"):args.index("--out") + 2]
        (tmp_path / (out or ".").format(tmp=tmp_path) / "trajectory.csv").mkdir(parents=True)
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {shown.format(tmp=tmp_path)}: Is a directory\n")

    @pytest.mark.parametrize("out, shown", [
        (None, "."), ("sub", "sub"), ("./sub/", "sub"), ("{tmp}/sub", "{tmp}/sub")])
    def test_failed_open_names_the_directory_as_given(self, tmp_path, monkeypatch, capsys, out,
                                                      shown):
        import errno

        import thermark.cli

        def fail(*args):
            raise PermissionError(errno.EACCES, "Permission denied")

        monkeypatch.chdir(tmp_path)
        args = pinned_args("analyze", out and out.format(tmp=tmp_path))
        if out is None:
            del args[args.index("--out"):args.index("--out") + 2]
        monkeypatch.setattr(thermark.cli.os, "open", fail)
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write to {shown.format(tmp=tmp_path)}: Permission denied\n")

    @pytest.mark.parametrize("out, shown", [
        ("afile", "afile: File exists"),
        ("afile/sub", "afile/sub: Not a directory"),
        ("./afile/sub/", "afile/sub: Not a directory"),
        ("{tmp}/afile/sub", "{tmp}/afile/sub: Not a directory"),
    ])
    def test_out_that_cannot_be_made_is_named_as_given(self, tmp_path, monkeypatch, capsys,
                                                       out, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept")
        assert main(pinned_args("analyze", out.format(tmp=tmp_path))) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write to {shown.format(tmp=tmp_path)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_mode_matches_a_plainly_created_file(self, tmp_path):
        import stat

        from thermark.cli import _write_outputs

        _write_outputs(tmp_path, {"atomic.txt": "text"})
        (tmp_path / "plain.txt").write_text("text")
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("atomic.txt", "plain.txt")}
        assert len(modes) == 1

    @pytest.mark.parametrize("umask, mode", [(0o027, 0o640), (0o002, 0o664)])
    def test_mode_follows_a_changed_umask(self, tmp_path, umask, mode):
        # the umask in force at each write applies, not one read earlier
        import stat

        from thermark.cli import _write_outputs

        _write_outputs(tmp_path, {"before.txt": "text"})
        previous = os.umask(umask)
        try:
            _write_outputs(tmp_path, {"atomic.txt": "text"})
            (tmp_path / "plain.txt").write_text("text")
        finally:
            os.umask(previous)
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("atomic.txt", "plain.txt")}
        assert modes == {mode}

    @pytest.mark.parametrize("command", ["analyze", "cost", "export", "estimate"])
    def test_out_is_created_once(self, tmp_path, monkeypatch, command):
        made = []
        mkdir = Path.mkdir

        def spy(path, *args, **kwargs):
            made.append(path)
            mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", spy)
        # the parent exists, so pathlib makes no recursive call
        out = tmp_path / "out"
        assert main(occupancy_args(command, seven_day_log_csv(), out)) == 0
        assert made == [out] and any(out.iterdir())


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
        real_open = pathlib.Path.open

        def open_(self, *args, **kwargs):
            if self == log:
                raise PermissionError(13, "Permission denied", str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", open_)
        assert main(occupancy_args(command, log, tmp_path / "out")) == 2
        assert_one_line_error(capsys, str(log), "cannot read: Permission denied")


# each input file's role: its kind in the not-found message, its valid
# bytes, and the bytes after which one that is not UTF-8 goes
INPUT_FILES = {
    "building": ("building", lambda: (two_zone_benchmark_dir() / "building.json").read_bytes(),
                 b"{"),
    "strategy": ("strategy", lambda: b'{"name": "X", "schedule": {"zone1": [9]}}', b"{"),
    "tariff": ("tariff", lambda: (two_zone_benchmark_dir() / "tariff.json").read_bytes(), b"{"),
    "short-log": ("occupancy", lambda: seven_day_log_csv().read_bytes(), b"\n1,9"),
    "long-log": ("occupancy", lambda: long_log_bytes(), b"\n250,5"),
}


# a doubled or a missing path prefix passes a test of fragments; these
# compare the whole stderr line
@pytest.mark.parametrize("fault", ["missing", "unreadable", "not-utf-8"])
@pytest.mark.parametrize("role", INPUT_FILES)
def test_an_input_file_fault_is_one_whole_line(tmp_path, capsys, monkeypatch, role, fault):
    import pathlib

    files = {kind: tmp_path / f"valid-{kind}.json" for kind in ("building", "strategy", "tariff")}
    for kind, path in files.items():
        path.write_bytes(INPUT_FILES[kind][1]())
    files["occupancy"] = seven_day_log_csv()
    kind, content, marker = INPUT_FILES[role]
    path = files[kind] = tmp_path / f"{role}.{'csv' if kind == 'occupancy' else 'json'}"
    data = content()
    at = data.index(marker) + len(marker)
    if fault == "not-utf-8":
        path.write_bytes(data[:at] + b"\xe9" + data[at:])
    elif fault == "unreadable":
        path.write_bytes(data)
        real_open = pathlib.Path.open

        def open_(self, *args, **kwargs):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", open_)
    out = tmp_path / "out"
    assert main(["cost", "--building", str(files["building"]), "--strategy",
                 str(files["strategy"]), "--tariff", str(files["tariff"]),
                 "--occupancy", f"zone1={files['occupancy']}",
                 "--occupancy", f"zone2={two_zone_benchmark_dir() / 'occupancy_zone2.csv'}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == {
        "missing": f"error: {kind} file not found: {path}\n",
        "unreadable": f"error: {path}: cannot read: Permission denied\n",
        "not-utf-8": f"error: {path}: not UTF-8 text (byte {at})\n",
    }[fault]
    assert not out.exists()


def long_log_bytes(days=500):
    """A day-block log of 24-hour days, never occupied at hour 0, and far
    longer than ``STRIDE_MIN_BYTES``."""
    rows = "".join(f"{d},{h},{d * h // 3 % 2}\n" for d in range(1, days + 1) for h in range(24))
    return f"day,hour,occupied\n{rows}".encode()


def swap_days(data, day):
    """``data`` with the lines of ``day`` and the day after it swapped."""
    lines = data.split(b"\n")
    at = lines.index(f"{day},0,0".encode())
    lines[at:at + 48] = lines[at + 24:at + 48] + lines[at:at + 24]
    return b"\n".join(lines)


# edits of a long log that the day-block reader or the header check declines,
# or that give a long log a header of another length, and whether the
# edited log alone exits 2
LONG_EDITS = {
    "crlf": (lambda d: d.replace(b"\n", b"\r\n"), False),
    "space": (lambda d: d.replace(b"\n250,5,", b"\n250, 5,"), False),
    "latin-1": (lambda d: d.replace(b"\n250,5,", b"\n250,5\xe9,"), True),
    "surrogate": (lambda d: d.replace(b"\n250,5,", b"\n250,5\xed\xa0\x80,"), True),
    "capitalised-header": (lambda d: d.replace(b"day,hour,occupied", b"Day,Hour,Occupied"), False),
    "longer-header": (lambda d: d.replace(b"day,hour,occupied", b"day, hour, occupied"), False),
    "truncated-last-day": (lambda d: d[:d.rindex(b"\n", 0, -1) + 1], True),
    "days-out-of-order": (lambda d: swap_days(d, 250), False),
}


class TestLongLogs:
    """A log of at least ``STRIDE_MIN_BYTES`` is read whole and its body
    handed to the fast readers unchecked; every run gives what it gives
    when both decline every body: exit code, message and output bytes."""

    def run(self, capsys, command, logs, out):
        """Exit code, stderr and output files of ``command`` on ``logs``
        (one for estimate, two zones' for analyze)."""
        if command == "estimate":
            argv = ["estimate", str(logs[0])]
        else:
            argv = ["analyze", "--building", str(two_zone_benchmark_dir() / "building.json"),
                    "--window", "0-23", "--occupancy", f"zone1={logs[0]}",
                    "--occupancy", f"zone2={logs[1]}"]
        code = main([*argv, "--out", str(out)])
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        return code, capsys.readouterr().err, files

    @pytest.mark.parametrize("faulty", [False, True], ids=["", "occupied-2"])
    @pytest.mark.parametrize("edit", LONG_EDITS)
    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_run_matches_the_general_reader(self, tmp_path, capsys, monkeypatch, command, edit,
                                            faulty):
        import thermark.occupancy

        edited, exits_2 = LONG_EDITS[edit]
        data = long_log_bytes()
        if faulty:
            data = data.replace(b"\n300,7,0\n", b"\n300,7,2\n")
        first, second = tmp_path / "zone1.csv", tmp_path / "zone2.csv"
        first.write_bytes(long_log_bytes())
        second.write_bytes(edited(data))
        logs = [second] if command == "estimate" else [first, second]
        outcome = self.run(capsys, command, logs, tmp_path / "fast")
        monkeypatch.setattr(thermark.occupancy, "_read_strides", lambda data, start: None)
        monkeypatch.setattr(thermark.occupancy, "_read_like", lambda *args: None)
        assert outcome == self.run(capsys, command, logs, tmp_path / "general")
        code, err, files = outcome
        if faulty or exits_2:
            assert code == 2 and not files
            assert err.startswith(f"error: {second}: ") and err.count("\n") == 1, err
        else:
            assert code == 0 and err == ""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("edit", [None, "crlf", "latin-1", "truncated-last-day", "missing"])
    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_no_descriptor_outlives_a_run(self, tmp_path, capsys, command, edit):
        import gc

        first, second = tmp_path / "zone1.csv", tmp_path / "zone2.csv"
        first.write_bytes(long_log_bytes())
        if edit != "missing":
            second.write_bytes(LONG_EDITS[edit][0](long_log_bytes()) if edit else
                               long_log_bytes().replace(b"\n9,", b"\n09,"))
        logs = [second] if command == "estimate" else [first, second]
        before = len(os.listdir("/proc/self/fd"))
        gc.disable()  # a file left to the collector would still count
        try:
            code = self.run(capsys, command, logs, tmp_path / "out")[0]
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            gc.enable()
        assert code == (0 if edit in (None, "crlf") else 2)


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


def test_band_energy_beyond_float_range_exits_2_with_one_line(tmp_path):
    # priced 0, the band's total stays 0 while its energy does not fit a float
    tariff = tmp_path / "tariff.json"
    tariff.write_text(json.dumps({"bands": [{"name": "all", "start": 0, "end": 24,
                                             "price_minor_per_kwh": 0}]}))
    out_dir = tmp_path / "out"
    args = ["cost", "--building", str(two_zone_benchmark_dir() / "building.json"),
            "--tariff", str(tariff), "--radiator-kw", "1e308", "--out", str(out_dir)]
    out = subprocess.run([sys.executable, "-m", "thermark.cli", *args], env=subprocess_env(),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "error: strategy 'S2': energy in band 'all' is above 1.798e+308 kWh\n"
    assert not out_dir.exists()


def test_all_lists_every_public_import_once():
    import thermark

    assert len(set(thermark.__all__)) == len(thermark.__all__)
    assert all(hasattr(thermark, name) for name in thermark.__all__)
    public = {name for name, value in vars(thermark).items()
              if callable(value) and not name.startswith("_")}
    assert public == set(thermark.__all__)


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
