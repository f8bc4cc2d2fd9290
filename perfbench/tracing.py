"""Outside-in tracing: wrap the program's public functions with span recorders.

Every public function defined in a ``thermark`` module is replaced, under
every module-level name it is bound to (``cli.load_building``,
``analysis.assign_rewards``, ...), by a wrapper that records a span
(name, start, end, parent). Spans stay in memory and are written out when
the run ends. Self time is a span's duration minus its children's; the
groups below sum self times into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "thermal", "occupancy", "markov", "analysis", "strategy", "prism")

# function -> per-layer self-time metric; unlisted functions of a layer fall
# into "<layer>.other_s" (cli: "cli.self_s"), functions of other modules into
# "other.self_s", so the self times always sum to the traced total.
SELF_GROUPS = {
    "thermal.load_building": "thermal.load_building_s",
    "thermal.build_state_space": "thermal.load_building_s",
    "thermal.discretize_forward_euler": "thermal.load_building_s",
    "thermal.validate_network": "thermal.load_building_s",
    "thermal.matrix_power": "thermal.matrix_power_s",
    "occupancy.parse_occupancy_csv": "occupancy.parse_s",
    "occupancy.estimate_transition_schedule": "occupancy.estimate_s",
    "markov.unroll_zone": "markov.unroll_s",
    "markov.compose": "markov.compose_s",
    "markov.assign_rewards": "markov.assign_rewards_s",
    "markov.expected_gain_vector": "markov.assign_rewards_s",
    "analysis.expected_temperature": "analysis.propagate_s",
    "analysis.state_probabilities": "analysis.propagate_s",
    "analysis.temperature_trajectory": "analysis.trajectory_self_s",
    "analysis.comfort_check": "analysis.comfort_s",
    "strategy.compare_strategies": "strategy.compare_s",
    "strategy.strategy_cost": "strategy.compare_s",
    "strategy.energy_by_band": "strategy.compare_s",
    "strategy.builtin_discrepancy_notes": "strategy.compare_s",
    "prism.export_prism_model": "prism.render_s",
    "prism.export_properties": "prism.render_s",
}
SELF_METRICS = tuple(dict.fromkeys(
    ["cli.self_s", *SELF_GROUPS.values()]
    + [f"{layer}.other_s" for layer in LAYERS if layer != "cli"]
    + ["other.self_s"]
))
CALL_COUNTS = {
    "occupancy.parse_calls": "occupancy.parse_occupancy_csv",
    "markov.compose_calls": "markov.compose",
    "markov.assign_rewards_calls": "markov.assign_rewards",
    "analysis.propagate_calls": "analysis.expected_temperature",
    "prism.render_calls": "prism.export_prism_model",
}


def _self_group(name: str) -> str:
    if name in SELF_GROUPS:
        return SELF_GROUPS[name]
    layer = name.split(".", 1)[0]
    if layer == "cli":
        return "cli.self_s"
    return f"{layer}.other_s" if layer in LAYERS else "other.self_s"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.rows_parsed = 0
        self.composed_states = 0
        self.composed_transitions = 0
        self.model_bytes = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tally = {
            "occupancy.parse_occupancy_csv": self._tally_parse,
            "markov.compose": self._tally_compose,
            "prism.export_prism_model": self._tally_render,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if tally is not None:
                tally(result)
            return result

        return traced

    def _tally_parse(self, dataset) -> None:
        self.rows_parsed += len(dataset.records)

    def _tally_compose(self, model) -> None:
        self.composed_states += len(model.states)
        self.composed_transitions += len(model.transitions)

    def _tally_render(self, artifact) -> None:
        self.model_bytes += len(artifact.model_text.encode())

    def install(self) -> None:
        """Wrap every public thermark function under every name bound to it."""
        import thermark

        modules = [thermark] + [
            importlib.import_module(f"thermark.{info.name}")
            for info in pkgutil.iter_modules(thermark.__path__)
        ]
        originals = {}
        for mod in modules:
            short = mod.__name__.removeprefix("thermark.")
            for attr, value in vars(mod).items():
                if (callable(value) and not isinstance(value, type)
                        and getattr(value, "__module__", None) == mod.__name__
                        and not attr.startswith("_")):
                    originals[value] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, type) and callable(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _roots(self) -> np.ndarray:
        """Index of each span's root span, the CLI call it belongs to."""
        root = list(range(len(self.parents)))
        for i, p in enumerate(self.parents):
            if p >= 0:
                root[i] = root[p]
        return np.array(root, dtype=int)

    def metrics(self, call_s: list[float], mixes: int) -> dict[str, float]:
        """Self times and counts per mix.

        ``call_s`` holds the calibrated time of each root span, in order.
        Each span's self time is scaled by its root's calibrated/raw ratio,
        so the self times sum to the calibrated traced total.
        """
        names = np.array(self.names)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        nested = parents >= 0
        roots = np.flatnonzero(~nested)
        if len(roots) != len(call_s):
            raise RuntimeError(f"{len(roots)} root spans for {len(call_s)} timed calls")
        scale = np.zeros(len(dur))
        scale[roots] = np.array(call_s) / dur[roots]
        self_time = dur - np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        self_time *= scale[self._roots()]
        out = {m: 0.0 for m in SELF_METRICS}
        for name in set(self.names):
            out[_self_group(name)] += float(self_time[names == name].sum())
        out = {m: v / mixes for m, v in out.items()}
        counts = {metric: int(np.sum(names == name)) for metric, name in CALL_COUNTS.items()}
        counts["occupancy.rows_parsed"] = self.rows_parsed
        counts["markov.composed_states"] = self.composed_states
        counts["markov.composed_transitions"] = self.composed_transitions
        counts["prism.model_bytes"] = self.model_bytes
        for metric, total in counts.items():
            # every mix does the same work, so the quotient is whole
            out[metric] = total // mixes if total % mixes == 0 else total / mixes
        out["trace.total_s"] = sum(call_s) / mixes
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV, raw seconds; ``op`` is the index of the root span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("op,span,name,start_s,end_s,parent\n")
            for i, root in enumerate(self._roots().tolist()):
                fh.write(f"{root},{i},{self.names[i]},{self.starts[i]!r},{self.ends[i]!r},"
                         f"{self.parents[i]}\n")
