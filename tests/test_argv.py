"""The one-pass argv reader, ``cli._read_argv``, against argparse.

Whenever the pass takes an argv it must give the Namespace that
``build_parser().parse_args`` gives, attribute for attribute and in the
same order; and ``cli.main`` must answer every argv with the same exit
code, standard output and standard error with the pass as with argparse
alone, whose grammar, help and errors the pass leaves to it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import tempfile
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thermark import cli  # noqa: E402
from thermark.datasets import two_zone_benchmark_dir  # noqa: E402

BENCH = two_zone_benchmark_dir()
BUILDING = str(BENCH / "building.json")
LOGS = [f"zone1={BENCH / 'occupancy_zone1.csv'}", f"zone2={BENCH / 'occupancy_zone2.csv'}"]
# values each option takes; "out" is a directory inside the test's own
VALUES = {
    "--building": [BUILDING, "missing.json"],
    "--occupancy": [*LOGS, "zone3=missing.csv", "zone1"],
    "--strategy": ["S1", "S6", "S9"],
    "--gains": ["0.7,1.5", "zone1=1,2"],
    "--window": ["8-17", "9-12"],
    "--theta": ["1", "1-9"],
    "--band": ["20-22", "22-20"],
    "--tariff": ["table2"],
    # float reads some of these, and rejects the rest, which argparse reports
    "--radiator-kw": ["1", "2.5", "nan", " 3 ", "1_0", "x", ""],
    "--name": ["building", "m"],
    "--out": ["out"],
}
# values that are empty, start with '-' or spell an option
ODD_VALUES = ["", "-", "--", "-1", "-x", "--out", "-h"]
CSV_PATHS = [str(BENCH / "occupancy_zone1.csv"), "missing.csv", ""]
SUBPARSERS = next(action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)).choices


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand (now and then an unknown one, or none), then pieces in
    a drawn order: its options as exact strings, each followed by one of
    its values, some of them repeated; then up to two odd pieces, each an
    option abbreviated, as ``--opt=value``, with no value or with an odd
    value, or ``--``, ``-h``, ``--help`` or a positional. A model command usually gets
    ``--building`` and both logs, and ``estimate`` one log path, so that
    many argvs are complete."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = [action for action in SUBPARSERS[command]._actions
               if action.option_strings and action.dest != "help"]
    pieces = []
    if command == "estimate":
        if draw(st.integers(0, 3)):
            pieces.append([draw(st.sampled_from(CSV_PATHS))])
    elif draw(st.integers(0, 3)):
        pieces += [["--building", BUILDING], *(["--occupancy", log] for log in LOGS)]
    for odd in [False] * draw(st.integers(0, 6)) + [True] * draw(st.sampled_from([0, 0, 1, 2])):
        action = draw(st.sampled_from(actions))
        option = draw(st.sampled_from(action.option_strings))
        value = draw(st.sampled_from(VALUES.get(action.option_strings[-1], ["x"])))
        kind = draw(st.sampled_from(["abbreviated", "joined", "bare", "separator", "help",
                                     "positional", "odd value"] if odd else ["exact"]))
        if kind == "odd value":
            kind, value = "exact", draw(st.sampled_from(ODD_VALUES))
        if kind == "exact":
            pieces.append([option] if action.nargs == 0 else [option, value])
        elif kind == "abbreviated":
            long = action.option_strings[-1]
            pieces.append([long[:draw(st.integers(3, len(long) - 1))], value])
        elif kind == "joined":
            pieces.append([f"{option}={value}"])
        elif kind == "bare":
            pieces.append([option])
        elif kind == "separator":
            pieces.append(["--"])
        elif kind == "help":
            pieces.append([draw(st.sampled_from(["-h", "--help"]))])
        else:
            pieces.append([draw(st.sampled_from(CSV_PATHS))])
    pieces = draw(st.permutations(pieces))
    if draw(st.integers(0, 11)) == 0:
        command = draw(st.sampled_from(["", "analyse", "ana", "-h", "--help"]))
    argv = [command, *(arg for piece in pieces for arg in piece)]
    return argv[1:] if draw(st.integers(0, 23)) == 0 else argv


def outcome(call) -> tuple[object, str, str]:
    """``call()``'s result, or the code of the SystemExit it raises, with
    what it wrote to standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def test_the_pass_reads_argv_as_argparse_does():
    routes = []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=argvs())
    def check(argv):
        namespace = cli._read_argv(argv)
        parsed, _, _ = outcome(lambda: cli.build_parser().parse_args(argv))
        routes.append(namespace is not None)
        if namespace is not None:
            assert isinstance(parsed, argparse.Namespace), argv
            # repr, so that a NaN matches itself and the order of the attributes counts
            assert repr(vars(namespace)) == repr(vars(parsed)), argv
        with tempfile.TemporaryDirectory() as tmp:
            # every output, even one that "--out ''" sends to ".", lands in tmp
            here = os.getcwd()
            os.chdir(tmp)
            try:
                with_pass = outcome(lambda: cli.main(argv))
                for path in os.listdir(tmp):
                    os.rename(path, f".{path}")  # so that nothing of this run is read back
                with mock.patch.object(cli, "_read_argv", return_value=None):
                    alone = outcome(lambda: cli.main(argv))
            finally:
                os.chdir(here)
        assert with_pass == alone, argv

    check()
    # neither route goes untested
    assert len(routes) // 4 <= routes.count(True) <= len(routes) * 3 // 4, routes.count(True)


@pytest.mark.parametrize("argv", [
    ["analyze", "--building", BUILDING, "--occupancy", LOGS[0], "--occupancy", LOGS[1],
     "--strategy", "S6", "--dump-chain", "--out", "out"],
    ["cost", "--building", BUILDING, "--strategy", "S1", "--strategy", "S2", "--tariff",
     "table2", "--radiator-kw", "2", "--band", "20-22", "--window", "8-17", "--theta", "1-9"],
    ["export", "--building", BUILDING, "--gains", "zone1=1,2", "--gains", "0.7,1.5",
     "--name", "m", "--stdout"],
    ["estimate", "log.csv", "--out", "out", "--stdout"],
    ["estimate", "--out", "out", "log.csv"],
])
def test_plain_spellings_are_read_without_argparse(argv):
    parsed = cli.build_parser().parse_args(argv)
    with mock.patch.object(argparse.ArgumentParser, "parse_known_args",
                           side_effect=AssertionError("argparse was called")):
        namespace = cli._read_argv(argv)
    assert repr(vars(namespace)) == repr(vars(parsed))
    # the parser's default lists, which a Namespace shares, are left empty
    assert all(action.default == [] for action in SUBPARSERS[argv[0]]._actions
               if isinstance(action, argparse._AppendAction))


@pytest.mark.parametrize("argv", [
    [], ["analyse", "--building", BUILDING], ["--building", BUILDING, "analyze"],
    ["analyze"], ["analyze", "--building"], ["analyze", "--building", "-x"],
    ["analyze", "--build", BUILDING], ["analyze", f"--building={BUILDING}"],
    ["analyze", "--building", BUILDING, "-h"], ["analyze", "--building", BUILDING, "--"],
    ["analyze", "--building", BUILDING, "extra"], ["analyze", "--building", BUILDING, "--dump"],
    ["cost", "--building", BUILDING, "--radiator-kw", "x"],
    ["cost", "--building", BUILDING, "--radiator-kw", "-1"],
    ["estimate"], ["estimate", "a.csv", "b.csv"], ["estimate", "-"], ["estimate", "a.csv", "--out"],
])
def test_every_other_spelling_is_left_to_argparse(argv):
    assert cli._read_argv(argv) is None
