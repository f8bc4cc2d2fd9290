"""Fuzzing of occupancy log contents, of option values and of the building,
strategy and tariff JSON files through the command line.

Every run must end in exit 0, 2 or 3 with no traceback; a failing run
prints one ``error:`` line, and a successful one writes finite numbers only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thermark.cli import main  # noqa: E402
from thermark.datasets import two_zone_benchmark_dir  # noqa: E402

HEADER = "day,hour,occupied"
# field spellings the grammar accepts, rejects, or accepts only for some fields
TOKENS = ["0", "1", "2", "8", "9", "17", "23", "24", "-1", "-0", "+1", "01", "1.0", "1_0",
          "", " ", "\t1 ", '"1"', "#", "x", "\xa01", "١", "99999999999999999999"]


@st.composite
def window_logs(draw) -> str:
    """A well-formed log over hours 8..17, then up to three mutations."""
    n_days = draw(st.integers(1, 5))
    start_occupied = draw(st.booleans())
    lines = [HEADER]
    for day in range(1, n_days + 1):
        lines.append(f"{day},8,{int(start_occupied)}")
        bits = draw(st.lists(st.booleans(), min_size=9, max_size=9))
        lines += [f"{day},{hour},{int(bit)}" for hour, bit in zip(range(9, 18), bits)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "insert", "delete", "repeat", "pad", "order"]))
        if kind == "token":
            fields = lines[at].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(TOKENS))
            lines[at] = ",".join(fields)
        elif kind == "insert":
            lines.insert(at, ",".join(draw(st.lists(st.sampled_from(TOKENS), max_size=4))))
        elif kind == "delete":
            del lines[at]
        elif kind == "repeat":
            lines.insert(at, lines[at])
        elif kind == "pad":
            lines[at] = lines[at].replace(",", draw(st.sampled_from([" ,", ", ", "\t,\t"])))
        else:
            lines[1:] = draw(st.permutations(lines[1:]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline + " \t"]))


noise_logs = st.builds(
    lambda header, body: header + body,
    st.sampled_from(["", HEADER + "\n", " DAY,Hour , occupied\r\n"]),
    st.text(alphabet="0123456789,+-#._ \t\r\n\"x\xa0", max_size=60),
)


def numbers(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from numbers(item)
    elif isinstance(value, list):
        for item in value:
            yield from numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def check_run(command: str, code: int, err: str, out: Path) -> None:
    hypothesis.event(f"{command} exit {code}")
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    # the vectorised reader and the message loop must agree on the grammar
    assert "could not be read" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
        return
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            values = list(numbers(json.loads(text)))
        elif path.name == "trajectory.csv":
            values = [float(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:]]
        else:  # cost.csv and the PRISM files spell a non-finite number inf or nan
            values = [float(word) for word in re.findall(r"\b(?:inf|nan)\b", text, re.I)]
        assert all(math.isfinite(v) for v in values), path.name


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(window_logs(), noise_logs))
def test_occupancy_contents_through_estimate_and_analyze(text):
    bench = two_zone_benchmark_dir()
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "zone1.csv"
        log.write_bytes(text.encode("utf-8"))
        out = Path(tmp) / "estimate"
        check_run("estimate", *run(["estimate", str(log), "--out", str(out)]), out)
        out = Path(tmp) / "analyze"
        check_run("analyze", *run([
            "analyze", "--building", str(bench / "building.json"),
            "--occupancy", f"zone1={log}",
            "--occupancy", f"zone2={bench / 'occupancy_zone2.csv'}",
            "--strategy", "S6", "--out", str(out),
        ]), out)


# option values the CLI accepts or rejects; {bench} is the bundled data's
# directory and {tmp} an empty scratch directory
OPTION_VALUES = {
    "--window": ["8-17", "9-12", "8-9", "0-23", "17-8", "8-8", "8", "-1-5", "8-24", "08-17",
                 "8-17-3", "a-b", "", " 8-17", "1e1-17", "8 - 17"],
    "--theta": ["1", "9", "3-5", "1-9", "9-9", "0", "10", "5-3", "-1", "1.5", "", "x", "1-",
                "99999999999999999999"],
    "--band": ["20-22", "20.5-21.5", "-5-30", "20-20", "22-20", "20", "nan-22", "20-inf",
               "-inf-inf", "1e308-1e309", "a-b", "--", ""],
    "--gains": ["0.7,1.5", "0,0", "zone1=0,0", "zone2=3,4", "zone3=1,1", "zone1=1e308,1e308",
                "1e300,1e300", "nan,1", "1,inf", "-1,1", "1", "1,2,3", "zone1=", "=1,1", ""],
    "--radiator-kw": ["1", "0", "-0", "-1", "2.5", "1e-300", "1e308", "1e400", "nan", "inf",
                      "-inf"],
    "--occupancy": ["zone1={bench}/occupancy_zone1.csv", "zone2={bench}/occupancy_zone2.csv",
                    "zone2={bench}/occupancy_zone1.csv", "zone3={bench}/occupancy_zone1.csv",
                    "zone1", "={bench}/occupancy_zone1.csv", "zone1=", "zone1={tmp}",
                    "zone2={tmp}/missing.csv", "zone1={bench}/building.json"],
}
# the options each subcommand takes, beyond --building, --strategy and --out
COMMAND_OPTIONS = {
    "analyze": ("--window", "--theta", "--band", "--gains", "--occupancy"),
    "cost": ("--window", "--theta", "--band", "--gains", "--radiator-kw", "--occupancy"),
    "export": ("--window", "--theta", "--gains", "--occupancy"),
}


@st.composite
def option_lists(draw) -> list[tuple[str, str]]:
    """The bundled zone logs, then up to four options set to drawn values;
    a zone named twice by ``--occupancy`` or ``--gains``, or the default
    given twice by ``--gains``, exits 2, and a later value of any other
    option wins."""
    options = [("--occupancy", OPTION_VALUES["--occupancy"][0]),
               ("--occupancy", OPTION_VALUES["--occupancy"][1])]
    if draw(st.integers(0, 4)) == 0:
        del options[draw(st.integers(0, 1))]
    for _ in range(draw(st.integers(0, 4))):
        option = draw(st.sampled_from(sorted(OPTION_VALUES)))
        options.append((option, draw(st.sampled_from(OPTION_VALUES[option]))))
    return options


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(options=option_lists())
def test_option_values_through_analyze_cost_and_export(options):
    bench = two_zone_benchmark_dir()
    with tempfile.TemporaryDirectory() as tmp:
        for command, takes in COMMAND_OPTIONS.items():
            out = Path(tmp) / command
            argv = [command, "--building", str(bench / "building.json"), "--strategy", "S6",
                    "--out", str(out)]
            # one argument per option, so a value that starts with '-' stays a value
            argv += [f"{option}={value.format(bench=bench, tmp=tmp)}"
                     for option, value in options if option in takes]
            check_run(command, *run(argv), out)


LONG_LITERAL = "1" * 5000  # longer than int() reads
# values a mutation puts in place of another, or under a new key
JSON_VALUES = [None, True, False, 0, 1, -1, 8, 9, 17, 23, 24, 10 ** 400, 0.0, -0.0, 0.5, 1.0,
               1e-300, 1e308, float("inf"), float("nan"), "", "zone1", "zone2", "9", "S2",
               LONG_LITERAL, [], [9], [9, 9], ["zone1", "zone2"], [[1.0, 0.0], [0.0, 1.0]], {},
               {"zone1": [9]}]


def json_inputs() -> dict[str, object]:
    """A valid document per JSON option: the bundled building and tariff and
    a strategy file over both zones."""
    bench = two_zone_benchmark_dir()
    return {
        "--building": json.loads((bench / "building.json").read_text()),
        "--strategy": {"name": "custom", "schedule": {"zone1": [8, 9], "zone2": [12, 16]}},
        "--tariff": json.loads((bench / "tariff.json").read_text()),
    }


def containers(value):
    """Every object and list inside ``value``, itself included."""
    if isinstance(value, (dict, list)):
        yield value
        for item in value.values() if isinstance(value, dict) else value:
            yield from containers(item)


@st.composite
def mutated_inputs(draw) -> tuple[str, str]:
    """One JSON option and the text of its document after one to three
    mutations of a member's value, type or key, or, now and then, with the
    whole document replaced."""
    flag = draw(st.sampled_from(["--building", "--strategy", "--tariff"]))
    doc = json_inputs()[flag]
    values = st.sampled_from(JSON_VALUES)
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(containers(doc))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        kind = draw(st.sampled_from(["value", "delete", "add",
                                     "rename" if isinstance(node, dict) else "repeat"]))
        if kind == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.sampled_from(["extra", "zone3", "delta", "a"]))] = draw(values)
            else:
                node.append(draw(values))
            continue
        key = draw(st.sampled_from(keys))
        if kind == "value":
            node[key] = draw(values)
        elif kind == "delete":
            del node[key]
        elif kind == "rename":
            node[draw(st.sampled_from([key[:-1], key + "s", key.upper(), ""]))] = node.pop(key)
        else:
            node.insert(key, node[key])
    if draw(st.integers(0, 9)) == 0:
        doc = draw(values)
    # json.dumps cannot write an integer literal that int() cannot read
    return flag, json.dumps(doc).replace(json.dumps(LONG_LITERAL), LONG_LITERAL)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated=mutated_inputs())
def test_json_inputs_through_cost_and_analyze(mutated):
    flag, text = mutated
    bench = two_zone_benchmark_dir()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for option, doc in json_inputs().items():
            paths[option] = Path(tmp) / f"{option[2:]}.json"
            paths[option].write_text(text if option == flag else json.dumps(doc))
        inputs = ["--building", str(paths["--building"]),
                  "--occupancy", f"zone1={bench / 'occupancy_zone1.csv'}",
                  "--occupancy", f"zone2={bench / 'occupancy_zone2.csv'}",
                  "--strategy", str(paths["--strategy"])]
        out = Path(tmp) / "cost"
        check_run("cost", *run(["cost", *inputs, "--tariff", str(paths["--tariff"]),
                                "--out", str(out)]), out)
        if flag != "--tariff":
            out = Path(tmp) / "analyze"
            check_run("analyze", *run(["analyze", *inputs, "--out", str(out)]), out)
