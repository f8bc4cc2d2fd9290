"""Emission of the zone chains in the PRISM modelling language.

One module per zone, each holding a bounded step counter and an occupancy
variable; all modules share the step labels t1..t{K+1} (plus an absorbing
t_sink loop), so their parallel composition inside PRISM synchronizes
layer by layer exactly like :func:`thermark.markov.compose`. Step k, the
window's k-th hour boundary (schedules are estimated on the window's
hours), is emitted by one rule: a command per occupancy reachable at k,
the start label at step 0 and either occupancy after it. A zone whose
probabilities and start label match an earlier zone's renames that
zone's module. The model is rendered from the zone chains and the
per-step reward table of :func:`thermark.markov.step_reward_table`; the
product chain is never built.

Every state at a step carries the same reward, so each per-zone reward
block holds one ``step_<zone>=k : value;`` line per step with a nonzero
reward; PRISM adds the values of every item whose guard a state
satisfies. The target language only supports non-negative rewards, so any
negative value aborts the export, as does a non-finite one (gains so large
that the rewards overflow) and a zone whose rewards for one theta sum to a
non-finite value. The modules do not depend on the evaluation
step theta, so :func:`render_models` renders them once for all thetas.
Output is deterministic: equal inputs give byte-identical text, and every
numeric literal is the shortest representation that round-trips to the
stored double.

The text costs little more than its numbers. All spelled-out modules with
one start label share one skeleton, their text with the identifier left
as a placeholder and each probability and its complement as a ``%s``; a
zone's module is the skeleton filled by one ``%`` and one ``str.replace``.
Each distinct probability is formatted once per call, with its
complement, however many zones and steps share it, as the ratios of a
log's small day counts repeat. Each reward line starts with a
``step_<zone>=k : `` prefix built once per call, so a theta's reward
blocks cost the formatting of their nonzero values. The bytes are those
of formatting every line in place, as ``tests/prism_reference.py`` does.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .errors import ValidationError
from .markov import ZoneChain

_IDENT_RE = re.compile(r"[^A-Za-z0-9_]")
_NO_REWARDS = "  // no nonzero rewards for this zone\n"


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


def render_models(
    chains: list[ZoneChain] | tuple[ZoneChain, ...],
    table: np.ndarray | list[list[list[float]]],
    thetas: list[int] | tuple[int, ...] | range,
    delta: float,
    name: str = "building",
) -> list[str]:
    """Model text for each evaluation step in ``thetas``, in order.

    ``table`` holds, per theta, per chain, the reward at each step 0..K+1
    (:func:`thermark.markov.step_reward_table`, as an array or nested
    lists); ``delta`` is the thermal step length in hours. The modules do
    not depend on theta, so they are rendered once and shared by every
    text; each text adds its own header lines and reward blocks.
    """
    zone_ids = tuple(c.zone_id for c in chains)
    horizon = chains[0].horizon
    idents = _zone_identifiers(zone_ids)
    values = np.asarray(table, dtype=float).reshape(len(thetas), len(zone_ids), horizon + 2)

    # the first fault by theta, then zone: a step's non-finite or negative
    # reward, else the zone's sum over the steps, which PRISM answers the
    # query with and which can overflow although every term is finite
    with np.errstate(over="ignore", invalid="ignore"):
        step_faults = ~np.isfinite(values) | (values < 0)
        sum_faults = ~np.isfinite(np.add.accumulate(values, axis=-1)[..., -1])
    faults = np.flatnonzero(step_faults.any(axis=-1) | sum_faults)
    if faults.size:
        t, m = divmod(int(faults[0]), len(zone_ids))
        zid = zone_ids[m]
        if not step_faults[t, m].any():
            raise ValidationError(f"non-finite reward sum: zone {zid!r}, theta {thetas[t]}")
        step = int(step_faults[t, m].argmax())
        if not math.isfinite(values[t, m, step]):
            raise ValidationError(f"non-finite reward: zone {zid!r}, step {step}")
        raise ValidationError(
            f"negative reward unsupported by target: zone {zid!r}, step {step}")

    # one skeleton per start label: "@" stands for the identifier, and each
    # probability and its complement for a %s, filled in per spelled-out zone
    skeletons = {label: _module_skeleton(horizon, label) for label in {
        bool(chain.initial_occupied) for chain in chains}}
    # (probabilities, start label) of each spelled-out module -> its identifier
    spelled: dict[tuple, str] = {}
    modules: list[str] = []
    numbers: dict[float, tuple[str, str]] = {}  # each probability's text and its complement's
    for chain in chains:
        ident = idents[chain.zone_id]
        key = (chain.occ_given_empty, chain.occ_given_occupied, chain.initial_occupied)
        twin = spelled.setdefault(key, ident)
        if twin != ident:
            modules.append(f"module zone_{ident} = zone_{twin} "
                           f"[ step_{twin}=step_{ident}, occ_{twin}=occ_{ident} ] endmodule\n\n")
            continue
        # step 0 leaves the start label only, a later step either occupancy
        start = chain.occ_given_occupied if chain.initial_occupied else chain.occ_given_empty
        probabilities = [start[0], *itertools.chain.from_iterable(
            zip(chain.occ_given_occupied[1:], chain.occ_given_empty[1:]))]
        for p in probabilities:
            if p not in numbers:
                numbers[p] = (_fmt(p), _fmt(1.0 - p))
        modules.append(skeletons[bool(chain.initial_occupied)].replace("@", ident) % tuple(
            itertools.chain.from_iterable(map(numbers.__getitem__, probabilities))))

    shared = (f"// modules synchronize on step labels t1..t{horizon + 1}; t_sink loops the\n"
              "// absorbing final state\n\ndtmc\n\n" + "".join(modules))

    # each zone's reward block opens and each of its lines starts the same for every theta
    heads = [f'rewards "zone_{idents[zid]}"\n' for zid in zone_ids]
    prefixes = [[f"  step_{idents[zid]}={k} : " for k in range(horizon + 2)] for zid in zone_ids]
    texts = []
    for theta, rewards in zip(thetas, values.tolist()):
        blocks = []
        for head, starts, per_step in zip(heads, prefixes, rewards):
            # only an integer-valued reward needs _fmt; repr is the rest's text
            entries = "".join([f"{start}{_fmt(value) if value.is_integer() else repr(value)};\n"
                               for start, value in zip(starts, per_step) if value != 0.0])
            blocks.append(f"{head}{entries or _NO_REWARDS}endrewards\n")
        texts.append(
            f"// {name}: {len(zone_ids)}-zone occupancy/thermal reward model\n"
            f"// horizon K={horizon}, theta={theta}, step length {_fmt(delta)} h\n"
            + shared + "\n".join(blocks)
        )
    return texts


def _module_skeleton(horizon: int, initial_occupied: bool) -> str:
    """The text of a spelled-out module with start label ``initial_occupied``:
    ``@`` in place of its identifier, and ``%s`` in place of each probability
    and of its complement, in the order of its commands."""
    init_occ = int(initial_occupied)
    lines = ["module zone_@", f"  step_@ : [0..{horizon + 1}] init 0;",
             f"  occ_@ : [0..1] init {init_occ};", ""]
    for k, sources in enumerate([(init_occ,)] + [(1, 0)] * (horizon - 1)):
        lines += [f"  [t{k + 1}] step_@={k} & occ_@={occ} -> %s:(step_@'={k + 1})&(occ_@'=1) + "
                  f"%s:(step_@'={k + 1})&(occ_@'=0);" for occ in sources]
    lines += [f"  [t{horizon + 1}] step_@={horizon} -> 1:(step_@'={horizon + 1})&(occ_@'=0);",
              f"  [t_sink] step_@={horizon + 1} -> 1:(step_@'={horizon + 1});", "endmodule", ""]
    return "".join(f"{line}\n" for line in lines)
