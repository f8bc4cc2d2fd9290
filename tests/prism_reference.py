"""A line-by-line PRISM renderer, kept as the reference that
:func:`thermark.prism.render_models` must match byte for byte.

It writes each module command and each reward line on its own, formatting
every number where it stands, as the renderer did before it filled one
module skeleton per start label. Only valid tables are rendered: the
reward checks are left to the renderer's own tests.
"""

from __future__ import annotations

import re

import numpy as np

_IDENT_RE = re.compile(r"[^A-Za-z0-9_]")


def _fmt(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def _zone_identifiers(zone_ids):
    idents, used = {}, set()
    for zid in zone_ids:
        base = _IDENT_RE.sub("_", zid)
        if not base or base[0].isdigit():
            base = f"z_{base}"
        ident, n = base, 2
        while ident in used:
            ident = f"{base}_{n}"
            n += 1
        used.add(ident)
        idents[zid] = ident
    return idents


def render_models(chains, table, thetas, delta, name="building"):
    """Model text for each evaluation step in ``thetas``, in order."""
    zone_ids = tuple(c.zone_id for c in chains)
    horizon = chains[0].horizon
    idents = _zone_identifiers(zone_ids)
    values = np.asarray(table, dtype=float).reshape(len(thetas), len(zone_ids), horizon + 2)

    lines = [f"// modules synchronize on step labels t1..t{horizon + 1}; t_sink loops the",
             "// absorbing final state", "", "dtmc", ""]
    spelled = {}
    for chain in chains:
        ident = idents[chain.zone_id]
        key = (chain.occ_given_empty, chain.occ_given_occupied, chain.initial_occupied)
        twin = spelled.setdefault(key, ident)
        if twin != ident:
            lines += [f"module zone_{ident} = zone_{twin} "
                      f"[ step_{twin}=step_{ident}, occ_{twin}=occ_{ident} ] endmodule", ""]
            continue

        init_occ = 1 if chain.initial_occupied else 0
        lines += [f"module zone_{ident}", f"  step_{ident} : [0..{horizon + 1}] init 0;",
                  f"  occ_{ident} : [0..1] init {init_occ};", ""]
        for k, sources in enumerate([(init_occ,)] + [(1, 0)] * (horizon - 1)):
            for occ in sources:
                p = (chain.occ_given_occupied if occ else chain.occ_given_empty)[k]
                lines.append(f"  [t{k + 1}] step_{ident}={k} & occ_{ident}={occ} -> "
                             f"{_fmt(p)}:(step_{ident}'={k + 1})&(occ_{ident}'=1) + "
                             f"{_fmt(1.0 - p)}:(step_{ident}'={k + 1})&(occ_{ident}'=0);")
        lines += [f"  [t{horizon + 1}] step_{ident}={horizon} -> "
                  f"1:(step_{ident}'={horizon + 1})&(occ_{ident}'=0);",
                  f"  [t_sink] step_{ident}={horizon + 1} -> 1:(step_{ident}'={horizon + 1});",
                  "endmodule", ""]

    shared = "".join(f"{line}\n" for line in lines)

    texts = []
    for theta, rewards in zip(thetas, values.tolist()):
        blocks = []
        for zid, per_step in zip(zone_ids, rewards):
            ident = idents[zid]
            blocks.append(f'rewards "zone_{ident}"')
            entries = [f"  step_{ident}={k} : "
                       f"{_fmt(value) if value.is_integer() else repr(value)};"
                       for k, value in enumerate(per_step) if value != 0.0]
            blocks += entries or ["  // no nonzero rewards for this zone"]
            blocks.append("endrewards")
            blocks.append("")
        texts.append(
            f"// {name}: {len(zone_ids)}-zone occupancy/thermal reward model\n"
            f"// horizon K={horizon}, theta={theta}, step length {_fmt(delta)} h\n"
            + shared + "\n".join(blocks)
        )
    return texts
