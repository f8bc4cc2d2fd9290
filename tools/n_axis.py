"""Time in-process ``analyze``, ``cost`` and ``export`` along the zone axis,
for this checkout against another one.

For each zone count N and log length, perfbench's generator writes a ring
building and N logs of that many days over the window (0-23 by default,
K=23; ``--window 8-17`` is the ``zones`` workload's K=9). Both
checkouts' CLIs are loaded side by side, under two package names, and
called in alternation with the same arguments (``analyze --strategy S2``,
``cost`` over S1..S6 and ``export --strategy S6 --theta 1-9``). Each call
is timed by perfbench's calibrated clock, so host drift moves both columns
alike. Prints one Markdown row per N, log length and command; N must be at
least 2, as S3 and S4 heat two zones.

    python tools/n_axis.py --base <other checkout> [--n 7 32 128] [--days 20] [--calls 41]
                           [--window 0-23]

Run it from the root of this checkout; it writes only to a temporary
directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = {"analyze": ["--strategy", "S2"],
            "cost": [arg for name in ("S1", "S2", "S3", "S4", "S5", "S6")
                     for arg in ("--strategy", name)],
            "export": ["--strategy", "S6", "--theta", "1-9"]}


def load_cli(checkout: Path, name: str):
    """The ``thermark.cli`` module of ``checkout``, imported as package ``name``."""
    package = checkout / "src" / "thermark"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--n", type=int, nargs="+", default=[7, 32, 128], help="zone counts")
    parser.add_argument("--days", type=int, nargs="+", default=[20], help="days per log")
    parser.add_argument("--calls", type=int, default=41, help="calls of each CLI per cell")
    parser.add_argument("--window", default="0-23", help="operating hours of the logs, e.g. 8-17")
    args = parser.parse_args()
    window = tuple(int(hour) for hour in args.window.split("-"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from kernel import CalibratedClock

    clis = {"base": load_cli(args.base.resolve(), "thermark_base"),
            "this": load_cli(ROOT, "thermark_this")}
    clock = CalibratedClock()
    print("| N | days | command | base | this checkout | ratio |\n"
          "| --- | --- | --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        for n, days in itertools.product(args.n, args.days):
            work = Path(tmp) / f"n{n}-d{days}"
            inst = workloads._generated("n_axis", work, 3, n=n, window=window, days=days,
                                        analyze_strategy="S2", cost_strategies=("S2",))
            for command, extra in COMMANDS.items():
                out = work / "out"
                argv = [command, *inst.common_args(), *extra, "--out", str(out)]
                times = {name: [] for name in clis}
                for i in range(args.calls):
                    for name in (list(clis) if i % 2 else list(clis)[::-1]):
                        shutil.rmtree(out, ignore_errors=True)
                        code, _, calibrated = clock.time(lambda: clis[name].main(argv))
                        if code != 0:
                            raise SystemExit(
                                f"{name} {command} at N={n}, {days} days exited {code}")
                        times[name].append(calibrated)
                base, this = (statistics.median(times[name][1:]) * 1e3 for name in clis)
                print(f"| {n} | {days} | {command} | {base:.1f} ms | {this:.1f} ms "
                      f"| {this / base:.2f} |", flush=True)


if __name__ == "__main__":
    main()
