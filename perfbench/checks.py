"""Check each op's output files against the workload's reference.

``Checker.check`` returns a reason string for a wrong output and None for
a correct one. Verdicts are cached by a digest of the output files, so a
byte-identical output is judged once; any changed byte is judged afresh.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np

from thermark.analysis import brute_force_expected_temperature, direct_expected_temperatures
from thermark.markov import ZoneGains, assign_rewards, compose, unroll_zone
from thermark.occupancy import StepMatrix, TransitionSchedule
from thermark.thermal import load_building

from workloads import BAND, EXPORT_THETAS, GAINS, Instance, Reference, heating

TRAJ_TOL_C = 1e-9
REWARD_TOL_C = 1e-9
_REWARD_LINE = re.compile(r"^\s*step_\w+=(\d+)\b.*:\s*(\S+);$")


def _allowed_classes(value: float) -> set[str]:
    """Classes a point may carry; both are allowed within tolerance of an edge."""
    low, high = BAND
    allowed = set()
    if value < low + TRAJ_TOL_C:
        allowed.add("below")
    if value > high - TRAJ_TOL_C:
        allowed.add("above")
    if low - TRAJ_TOL_C <= value <= high + TRAJ_TOL_C:
        allowed.add("within")
    return allowed


def _summary_problem(summary: dict, zone_ids, values: np.ndarray) -> str | None:
    """Check ever_below/ever_above flags against (thetas, zones) reference values."""
    for j, zid in enumerate(zone_ids):
        allowed = [_allowed_classes(v) for v in values[:, j]]
        for cls, key in (("below", "ever_below"), ("above", "ever_above")):
            must = any(a == {cls} for a in allowed)
            may = any(cls in a for a in allowed)
            flag = summary.get(zid, {}).get(key)
            if not isinstance(flag, bool) or (must and not flag) or (flag and not may):
                return f"comfort summary {zid}.{key}={flag!r}"
    return None


def program_reference_problems(inst: Instance, ref: Reference) -> list[str]:
    """The program's own reference route must agree with the benchmark's.

    Both routes are fed the benchmark's transition counts. ``paper``
    (N*K = 18) uses the exhaustive path oracle; the others use the direct
    marginal recursion.
    """
    gains = {zid: ZoneGains(*GAINS) for zid in inst.zone_ids}
    thetas = range(1, inst.horizon + 1)
    strategy = inst.analyze_strategy
    heat = heating(inst, strategy)
    _, thermal = load_building(inst.building)
    if inst.name == "paper":
        model = compose([
            unroll_zone(
                TransitionSchedule(tuple(StepMatrix(k, *p) for k, p in enumerate(ref.schedules[zid]))),
                heating=heat[:, j].astype(bool), horizon=inst.horizon, zone_id=zid,
                initial_occupied=bool(ref.marginals[0, j]),
            )
            for j, zid in enumerate(inst.zone_ids)
        ])
        values = np.array([
            [brute_force_expected_temperature(assign_rewards(model, thermal, gains, t), t)[zid]
             for zid in inst.zone_ids]
            for t in thetas
        ])
        route = "brute_force_expected_temperature"
    else:
        values = direct_expected_temperatures(thermal, gains, ref.marginals, heat, thetas)
        route = "direct_expected_temperatures"
    err = float(np.max(np.abs(values - ref.trajectories[strategy])))
    return [] if err <= TRAJ_TOL_C else [f"reference disagrees with {route} by {err:.3g} degC"]


class Checker:
    def __init__(self, inst: Instance, ref: Reference, golden_pm: bytes | None,
                 golden_props: bytes | None):
        self.inst = inst
        self.ref = ref
        self.golden_pm = golden_pm
        self.golden_props = golden_props
        self.max_abs_err_c = 0.0
        self._verdicts: dict[tuple[str, str], str | None] = {}

    def check(self, kind: str, out: Path) -> str | None:
        files = sorted(p for p in out.iterdir() if p.is_file())
        digest = hashlib.sha256()
        for p in files:
            digest.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
        key = (kind, digest.hexdigest())
        if key not in self._verdicts:
            try:
                self._verdicts[key] = getattr(self, f"_check_{kind}")(out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                self._verdicts[key] = f"{kind}: unreadable output: {exc!r}"
        return self._verdicts[key]

    def _check_analyze(self, out: Path) -> str | None:
        inst, start = self.inst, self.inst.window[0]
        expected = self.ref.trajectories[inst.analyze_strategy]
        lines = (out / "trajectory.csv").read_text().splitlines()
        if lines[0] != "theta_hour,zone_id,expected_temp_c":
            return "trajectory.csv header"
        want = [(start + t, zid) for t in range(1, inst.horizon + 1) for zid in inst.zone_ids]
        if len(lines) - 1 != len(want):
            return f"trajectory.csv has {len(lines) - 1} rows, want {len(want)}"
        got = np.empty(expected.shape)
        for i, (line, (hour, zid)) in enumerate(zip(lines[1:], want)):
            h, z, v = line.split(",")
            if (int(h), z) != (hour, zid):
                return f"trajectory.csv row {i + 1} is {h},{z}, want {hour},{zid}"
            got.flat[i] = float(v)
        err = float(np.max(np.abs(got - expected)))
        self.max_abs_err_c = max(self.max_abs_err_c, err)
        if not err <= TRAJ_TOL_C:
            return f"trajectory off by {err:.3g} degC"

        report = json.loads((out / "comfort.json").read_text())
        if report["band"] != {"low": BAND[0], "high": BAND[1]}:
            return "comfort.json band"
        points = report["points"]
        if len(points) != len(want):
            return "comfort.json point count"
        for p, value, (hour, zid) in zip(points, expected.flat, want):
            if (p["theta"], p["zone"]) != (hour - start, zid):
                return f"comfort.json point order at {hour},{zid}"
            if p["classification"] not in _allowed_classes(value):
                return f"comfort class {p['classification']} at {hour},{zid}"
        return _summary_problem(report["summary"], inst.zone_ids, expected)

    def _check_cost(self, out: Path) -> str | None:
        if not (out / "cost.csv").is_file():
            return "cost.csv missing"
        payload = json.loads((out / "cost.json").read_text())
        rows = {r["strategy"]: r for r in payload["rows"]}
        if set(rows) != set(self.ref.costs):
            return f"cost.json strategies {sorted(rows)}"
        for name, total in self.ref.costs.items():
            if rows[name]["total_cost_minor"] != total:
                return f"{name} total {rows[name]['total_cost_minor']}, want {total}"
            problem = _summary_problem(rows[name]["comfort"], self.inst.zone_ids,
                                       self.ref.trajectories[name])
            if problem:
                return f"{name}: {problem}"
        return None

    def _check_export(self, out: Path) -> str | None:
        inst = self.inst
        n = len(inst.zone_ids)
        name = inst.export_name
        props = (out / f"{name}.props").read_bytes()
        queries = sum(1 for line in props.decode().splitlines() if line.startswith("R{"))
        if queries != n * len(EXPORT_THETAS):
            return f"{name}.props has {queries} queries, want {n * len(EXPORT_THETAS)}"
        for theta in EXPORT_THETAS:
            pm = (out / f"{name}_theta{theta}.pm").read_bytes()
            problem = self._check_rewards(pm.decode(), theta)
            if problem:
                return f"theta {theta}: {problem}"
        if self.golden_pm is not None:
            if (out / f"{name}_theta{EXPORT_THETAS[-1]}.pm").read_bytes() != self.golden_pm:
                return "model differs from the golden .pm"
            if props != self.golden_props:
                return "properties differ from the golden .props"
        return None

    def _check_rewards(self, text: str, theta: int) -> str | None:
        """N reward blocks, in zone order, whose values match the reference."""
        expected = self.ref.rewards[theta]
        blocks = text.split('\nrewards "')[1:]
        if len(blocks) != len(self.inst.zone_ids):
            return f"{len(blocks)} reward blocks"
        for m, block in enumerate(blocks):
            body = block.split("\nendrewards", 1)[0].splitlines()[1:]
            for line in body:
                match = _REWARD_LINE.match(line)
                if match is None:
                    if line.strip().startswith("//"):
                        continue
                    return f"unparsed reward line {line!r}"
                step, value = int(match.group(1)), float(match.group(2))
                if step > theta or not abs(value - expected[m, step]) <= REWARD_TOL_C:
                    return f"zone {m} step {step} reward {value}"
        return None

    def _check_estimate(self, out: Path) -> str | None:
        payload = json.loads((out / "schedule.json").read_text())
        if payload["days"] != self.ref.days:
            return f"days {payload['days']}, want {self.ref.days}"
        want_steps = self.ref.schedules[self.inst.zone_ids[0]]
        steps = payload["steps"]
        if len(steps) != len(want_steps):
            return f"{len(steps)} steps, want {len(want_steps)}"
        for k, (step, want) in enumerate(zip(steps, want_steps)):
            got = (step["p_vf"], step["p_vv"], step["p_ff"], step["p_fv"])
            if got != want:
                return f"step {k} probabilities {got}, want {want}"
        return None


def self_test(checker: Checker, outputs: dict[str, Path], tmp_dir: Path) -> dict[str, bool]:
    """Perturb copies of correct outputs; each perturbation must be judged wrong.

    Returns, per case, whether the checker passed the copy and then failed
    the perturbed copy.
    """
    name = checker.inst.export_name
    theta = EXPORT_THETAS[-1]

    def perturb_trajectory(out: Path) -> None:
        path = out / "trajectory.csv"
        lines = path.read_text().splitlines()
        h, z, v = lines[1].split(",")
        lines[1] = f"{h},{z},{float(v) + 1e-6!r}"
        path.write_text("\n".join(lines) + "\n")

    def perturb_cost(out: Path) -> None:
        path = out / "cost.json"
        payload = json.loads(path.read_text())
        payload["rows"][0]["total_cost_minor"] += 1
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def perturb_model(out: Path) -> None:
        # one byte: the leading digit of the first reward value
        path = out / f"{name}_theta{theta}.pm"
        data = bytearray(path.read_bytes())
        pos = data.index(b" : ", data.index(b'\nrewards "')) + 3
        data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
        path.write_bytes(bytes(data))

    cases = {
        "perturbed_trajectory": ("analyze", perturb_trajectory),
        "wrong_cost_total": ("cost", perturb_cost),
        "one_byte_model_edit": ("export", perturb_model),
    }
    flagged = {}
    for case, (kind, perturb) in cases.items():
        if kind not in outputs:  # no correct output of this kind to perturb
            flagged[case] = False
            continue
        copy = tmp_dir / case
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(outputs[kind], copy)
        untouched_ok = checker.check(kind, copy) is None
        perturb(copy)
        flagged[case] = untouched_ok and checker.check(kind, copy) is not None
        shutil.rmtree(copy)
    return flagged
