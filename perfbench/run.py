"""thermark benchmark: drive the real CLI in-process and check every output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper|zones|long-logs --seed N \
        --seconds S --trace 0|1

One closed-loop client in one single-threaded process calls
``thermark.cli.main(argv)`` for the workload's mix of subcommands, again
and again, until ``--seconds`` have passed, and checks each call's output
files against an independent reference. Call times are calibrated against
the host's speed (see ``kernel.py``). With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced mixes with
mixes in which every public thermark function is wrapped, and reports
per-layer self times and counts. The last stdout line is the result JSON;
the line before it, also written to ``.perfbench_out/``, has the details:
sample counts, raw and tail times, input hashes and the checker self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from kernel import CalibratedClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 6  # on each side of the timed loop
OP_KINDS = ("analyze", "cost", "export", "estimate")
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Import time drifts with the host by up to 1.8x over minutes, and the
# bytecode kernel does not track that drift, so each thermark import is
# scaled by the mean of a fixed reference import timed just before and
# after it, in the same kind of fresh interpreter. The reference holds
# numpy, thermark's one dependency and most of its import time, so it
# drifts the same way (a stdlib-only reference left 10% of the drift, this
# one 4%). Whatever thermark imports or runs beyond it still shows in full.
# Interpreter start-up is left out of both: it does not depend on thermark.
_IMPORT_CHILD = "from time import perf_counter; t0 = perf_counter(); import {}; print(perf_counter() - t0)"
_REFERENCE_IMPORT = "numpy, decimal, email.parser, http.client, xml.dom.minidom, unittest, asyncio"
REFERENCE_IMPORT_NOMINAL_S = 0.2  # about its median on the VM named in kernel.py


def setup_samples(count: int) -> tuple[list[float], list[float]]:
    """``count`` fresh-interpreter imports of thermark.cli: (calibrated, raw) seconds."""
    env = _child_env()

    def import_s(modules: str) -> float:
        argv = [sys.executable, "-c", _IMPORT_CHILD.format(modules)]
        return float(subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True,
                                    text=True).stdout)

    import_s("thermark.cli")  # writes .pyc files on a fresh checkout
    raw, calibrated = [], []
    before = import_s(_REFERENCE_IMPORT)
    for _ in range(count):
        own = import_s("thermark.cli")
        after = import_s(_REFERENCE_IMPORT)
        raw.append(own)
        calibrated.append(own * 2 * REFERENCE_IMPORT_NOMINAL_S / (before + after))
        before = after
    return calibrated, raw


def measure_peak_rss_mib(ops: list[tuple[str, list[str]]], work: Path) -> float:
    """Peak RSS of a fresh child that runs one pass of the workload's mix."""
    spec = work / "rss_ops.json"
    spec.write_text(json.dumps([argv for _, argv in ops]))
    done = subprocess.run([sys.executable, str(HERE / "rss_child.py"), str(spec)],
                          env=_child_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True)
    return int(done.stdout.split()[-1]) / 1024.0


def tail(samples: list[float], raw: list[float]) -> dict:
    """Median, count and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "p50_s": statistics.median(ordered), "raw_p50_s": statistics.median(raw)}
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            out[f"p{pct:g}_s"] = ordered[math.ceil(n * pct / 100) - 1]
            break
    return out


class Loop:
    """Closed-loop client: one mix after another, each output checked."""

    def __init__(self, cli, ops, checker):
        self.cli = cli
        self.ops = ops
        self.checker = checker
        self.clock = CalibratedClock()
        self.samples = {kind: [] for kind, _ in ops}
        self.raw = {kind: [] for kind, _ in ops}
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_written = 0
        self.last_ok: dict[str, Path] = {}

    def run(self, seconds: float) -> None:
        """Whole mixes until ``seconds`` have passed."""
        deadline = perf_counter() + seconds
        while True:
            self.run_mix()
            if perf_counter() >= deadline:
                return

    def run_mix(self) -> list[float]:
        """One pass of the mix; returns each call's calibrated seconds."""
        return [self._op(kind, argv) for kind, argv in self.ops]

    def _call(self, argv: list[str]):
        try:
            return self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a dead run
            return repr(exc)

    def _op(self, kind: str, argv: list[str]) -> float:
        out = Path(argv[argv.index("--out") + 1])
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rc, elapsed, calibrated = self.clock.time(lambda: self._call(argv))
        self.attempted += 1
        self.raw[kind].append(elapsed)
        self.samples[kind].append(calibrated)
        problem = f"exit {rc}" if rc != 0 else self.checker.check(kind, out)
        if problem is None:
            self.last_ok[kind] = out
            self.bytes_written += sum(p.stat().st_size for p in out.iterdir())
        else:
            self.failures.append(f"{kind}: {problem}")
        return calibrated


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "zones", "long-logs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "thermark" / "cli.py").is_file():
        _fail(f"no thermark sources under {SRC}; run from a full checkout")
    golden = ROOT / "tests" / "golden"
    if args.workload == "paper" and not (golden / "two_zone_benchmark.pm").is_file():
        _fail(f"golden PRISM files missing under {golden}")
    sys.path.insert(0, str(SRC))
    from thermark import cli

    import checks
    import workloads
    from tracing import Tracer

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    try:
        inst = workloads.make_instance(args.workload, ROOT, work / "inputs", args.seed)
        ref = workloads.reference(inst)
        problems = checks.program_reference_problems(inst, ref)
        paper = args.workload == "paper"
        checker = checks.Checker(
            inst, ref,
            golden_pm=(golden / "two_zone_benchmark.pm").read_bytes() if paper else None,
            golden_props=(golden / "two_zone_benchmark.props").read_bytes() if paper else None,
        )
        ops = inst.ops(work / "out")
        loop = Loop(cli, ops, checker)

        details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                         "inputs_sha256": inst.input_sha256}
        if args.trace:
            # untraced and traced mixes alternate, so both see the same host
            tracer = Tracer()
            plain, traced = [], []
            deadline = perf_counter() + args.seconds
            while not traced or perf_counter() < deadline:
                plain.append(sum(loop.run_mix()))
                tracer.install()
                try:
                    traced.extend(loop.run_mix())
                finally:
                    tracer.uninstall()
            mixes = len(plain)
            per_layer = tracer.metrics(traced, mixes)
            per_layer["trace.overhead_s"] = per_layer["trace.total_s"] - sum(plain) / mixes
            per_layer["cli.bytes_written"] = loop.bytes_written // (2 * mixes)
            per_layer["analysis.max_abs_err_c"] = checker.max_abs_err_c
            tracer.write(out_dir / f"spans-{args.workload}.csv")
            details["mixes_each"] = mixes
            metrics = {name: {"value": value, "unit": _unit(name)}
                       for name, value in per_layer.items()}
        else:
            setup, setup_raw = setup_samples(SETUP_SAMPLES)
            loop.run(args.seconds)
            more, more_raw = setup_samples(SETUP_SAMPLES)
            rss = measure_peak_rss_mib(ops, work)
            ok_ratio = (loop.attempted - len(loop.failures)) / loop.attempted
            metrics = {f"{k}_p50_s": {"value": statistics.median(loop.samples[k]), "unit": "s"}
                       for k in OP_KINDS}
            metrics["setup_s"] = {"value": statistics.median(setup + more), "unit": "s"}
            metrics["peak_rss_mib"] = {"value": rss, "unit": "MiB"}
            metrics["ok_ratio"] = {"value": ok_ratio, "unit": "ratio"}
            details["setup_raw_s"] = setup_raw + more_raw

        selftest = checks.self_test(checker, loop.last_ok, work / "selftest")
        problems += [f"checker self-test failed: {case}" for case, ok in selftest.items() if not ok]
        details.update(
            ops={k: tail(v, loop.raw[k]) for k, v in loop.samples.items()},
            failures=loop.failures[:20],
            problems=problems,
            checker_selftest=selftest,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    out_dir.mkdir(exist_ok=True)
    text = json.dumps(details, sort_keys=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({
        "correct": not loop.failures and not problems,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_c"):
        return "degC"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
