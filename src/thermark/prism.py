"""Emission of the composed model in the PRISM modelling language.

One module per zone, each holding a bounded step counter and an occupancy
variable; all modules share the step labels t1..t{K+1} (plus an absorbing
t_sink loop), so their parallel composition inside PRISM synchronizes
layer by layer exactly like :func:`thermark.markov.compose`. Zones whose
occupancy schedules coincide are emitted through module renaming instead
of being spelled out twice.

Per-zone reward blocks list one guard/value pair per composed state with
a nonzero reward. The target language only supports non-negative rewards,
so any negative value aborts the export. Output is deterministic: equal
inputs give byte-identical text, and every numeric literal is the
shortest representation that round-trips to the stored double.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ValidationError
from .markov import RewardedModel

_IDENT_RE = re.compile(r"[^A-Za-z0-9_]")


@dataclass(frozen=True)
class PrismArtifact:
    """Rendered model and property sources plus descriptive metadata."""

    model_text: str
    properties_text: str
    metadata: dict


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the double ``x``."""
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def _identifier(zone_id: str) -> str:
    ident = _IDENT_RE.sub("_", zone_id)
    if not ident or ident[0].isdigit():
        ident = f"z_{ident}"
    return ident


def _zone_identifiers(zone_ids: tuple[str, ...]) -> dict[str, str]:
    idents: dict[str, str] = {}
    used: set[str] = set()
    for zid in zone_ids:
        base = _identifier(zid)
        ident = base
        n = 2
        while ident in used:
            ident = f"{base}_{n}"
            n += 1
        used.add(ident)
        idents[zid] = ident
    return idents


def export_properties(theta_range, zone_ids: tuple[str, ...]) -> str:
    """Cumulative-reward queries, one line per theta and zone (bound theta+1)."""
    thetas = list(theta_range)
    idents = _zone_identifiers(tuple(zone_ids))
    lines = ["// expected cumulative temperature queries (bound = theta + 1)"]
    for theta in thetas:
        for zid in zone_ids:
            lines.append(
                f'R{{"zone_{idents[zid]}"}}=? [ C<={theta + 1} ]  // theta={theta}, zone {zid}'
            )
    return "\n".join(lines) + "\n"


def export_prism_model(
    rewarded: RewardedModel,
    name: str = "building",
    theta_range=None,
) -> PrismArtifact:
    """Render the rewarded composed model and its property file.

    ``theta_range`` controls the property file only (defaults to the
    rewards' own theta); the model text always carries the reward
    structure of ``rewarded.theta``.
    """
    model = rewarded.model
    horizon = model.horizon
    idents = _zone_identifiers(model.zone_ids)

    for zid in model.zone_ids:
        if zid not in rewarded.rewards:
            raise ValidationError(f"no reward function assigned for zone {zid!r}")
        negative = rewarded.rewards[zid] < 0
        if negative.any():
            state = model.states[int(negative.argmax())]
            raise ValidationError(
                "negative reward unsupported by target: "
                f"zone {zid!r}, state {state.index} (step {state.step})"
            )

    lines: list[str] = []
    lines.append(f"// {name}: {len(model.zone_ids)}-zone occupancy/thermal reward model")
    lines.append(
        f"// horizon K={horizon}, theta={rewarded.theta}, "
        f"step length {_fmt(rewarded.thermal.delta)} h"
    )
    lines.append("// modules synchronize on step labels t1..t%d; t_sink loops the"
                 % (horizon + 1))
    lines.append("// absorbing final state")
    lines.append("")
    lines.append("dtmc")
    lines.append("")

    emitted: list[str] = []  # zone ids with a spelled-out module, for renaming
    for zi, zid in enumerate(model.zone_ids):
        ident = idents[zid]
        chain = model.chains[zi]
        twin = None
        for prev_zid in emitted:
            prev = model.chains[model.zone_ids.index(prev_zid)]
            if (prev.occ_given_empty == chain.occ_given_empty
                    and prev.occ_given_occupied == chain.occ_given_occupied
                    and prev.initial_occupied == chain.initial_occupied):
                twin = prev_zid
                break
        if twin is not None:
            p_ident = idents[twin]
            lines.append(
                f"module zone_{ident} = zone_{p_ident} "
                f"[ step_{p_ident}=step_{ident}, occ_{p_ident}=occ_{ident} ] endmodule"
            )
            lines.append("")
            continue

        lines.append(f"module zone_{ident}")
        lines.append(f"  step_{ident} : [0..{horizon + 1}] init 0;")
        lines.append(f"  occ_{ident} : [0..1] init {1 if chain.initial_occupied else 0};")
        lines.append("")
        init_occ = 1 if chain.initial_occupied else 0
        for k in range(horizon):
            p_occ_from_empty = chain.occ_given_empty[k]
            p_occ_from_occ = chain.occ_given_occupied[k]
            if k == 0:
                p = p_occ_from_occ if chain.initial_occupied else p_occ_from_empty
                lines.append(
                    f"  [t1] step_{ident}=0 & occ_{ident}={init_occ} -> "
                    f"{_fmt(p)}:(step_{ident}'=1)&(occ_{ident}'=1) + "
                    f"{_fmt(1.0 - p)}:(step_{ident}'=1)&(occ_{ident}'=0);"
                )
            else:
                lines.append(
                    f"  [t{k + 1}] step_{ident}={k} & occ_{ident}=1 -> "
                    f"{_fmt(p_occ_from_occ)}:(step_{ident}'={k + 1})&(occ_{ident}'=1) + "
                    f"{_fmt(1.0 - p_occ_from_occ)}:(step_{ident}'={k + 1})&(occ_{ident}'=0);"
                )
                lines.append(
                    f"  [t{k + 1}] step_{ident}={k} & occ_{ident}=0 -> "
                    f"{_fmt(p_occ_from_empty)}:(step_{ident}'={k + 1})&(occ_{ident}'=1) + "
                    f"{_fmt(1.0 - p_occ_from_empty)}:(step_{ident}'={k + 1})&(occ_{ident}'=0);"
                )
        lines.append(
            f"  [t{horizon + 1}] step_{ident}={horizon} -> "
            f"1:(step_{ident}'={horizon + 1})&(occ_{ident}'=0);"
        )
        lines.append(f"  [t_sink] step_{ident}={horizon + 1} -> 1:(step_{ident}'={horizon + 1});")
        lines.append("endmodule")
        lines.append("")
        emitted.append(zid)

    step_var = f"step_{idents[model.zone_ids[0]]}"
    occ_vars = [f"occ_{idents[zid]}" for zid in model.zone_ids]
    # one guard per non-sink state, in state order; zip below drops the sink
    guards = [" & ".join([f"{step_var}={state.step}"]
                         + [f"{var}={int(occ)}" for var, occ in zip(occ_vars, state.occupied)])
              for state in model.states[:-1]]
    for zid in model.zone_ids:
        lines.append(f'rewards "zone_{idents[zid]}"')
        count = 0
        for guard, value in zip(guards, rewarded.rewards[zid].tolist()):
            if value != 0.0:
                lines.append(f"  {guard} : {_fmt(value)};")
                count += 1
        if count == 0:
            lines.append("  // no nonzero rewards for this zone")
        lines.append("endrewards")
        lines.append("")

    model_text = "\n".join(lines)
    thetas = list(theta_range) if theta_range is not None else [rewarded.theta]
    return PrismArtifact(
        model_text=model_text,
        properties_text=export_properties(thetas, model.zone_ids),
        metadata={
            "zones": len(model.zone_ids),
            "horizon": horizon,
            "theta_list": thetas,
        },
    )
