"""Evaluator for the PRISM subset that thermark emits, reading only the text.

Supported: ``dtmc`` models of modules with bounded integer variables,
labelled commands whose guards and updates are conjunctions of
``var=int`` terms, module renaming of variables, and reward blocks of
state rewards guarded the same way. Every label synchronises all modules
that use it, and each reachable state must enable exactly one label.
``R{"r"}=? [ C<=t ]`` is answered by forward propagation over the joint
state: the sum over times 0..t-1 of the expected state reward, where a
state's reward adds every item whose guard it satisfies.
"""

from __future__ import annotations

import re
from itertools import product

_DECL = re.compile(r"(\w+) : \[(\d+)\.\.(\d+)\] init (\d+);")
_COMMAND = re.compile(r"\[(\w+)\] (.+) -> (.+);")
_RENAMED = re.compile(r"module (\w+) = (\w+) \[ (.+) \] endmodule")
_ASSIGN = re.compile(r"\(?(\w+)'?=(\d+)\)?")
_QUERY = re.compile(r'R\{"(\w+)"\}=\? \[ C<=(\d+) \]')


def _terms(text: str) -> tuple[tuple[str, int], ...]:
    """``a=1 & b=2`` or ``(a'=1)&(b'=2)`` as ((a, 1), (b, 2))."""
    terms = []
    for part in text.split("&"):
        match = _ASSIGN.fullmatch(part.strip())
        if match is None:
            raise ValueError(f"unsupported term {part!r}")
        terms.append((match.group(1), int(match.group(2))))
    return tuple(terms)


def parse(model_text: str):
    """(variables {name: (lo, hi, init)}, modules {name: [commands]}, rewards)."""
    variables: dict[str, tuple[int, int, int]] = {}
    modules: dict[str, list] = {}
    rewards: dict[str, list] = {}
    lines = [line.split("//")[0].strip() for line in model_text.splitlines()]
    lines = [line for line in lines if line]
    if lines[0] != "dtmc":
        raise ValueError("not a dtmc")
    body = None
    for line in lines[1:]:
        if (renamed := _RENAMED.fullmatch(line)) is not None:
            new, old, pairs = renamed.groups()
            names = dict(p.split("=") for p in pairs.replace(" ", "").split(","))
            for var, (lo, hi, init) in list(variables.items()):
                if var in names:
                    variables[names[var]] = (lo, hi, init)
            modules[new] = [(label, tuple((names[v], x) for v, x in guard),
                             [(p, tuple((names[v], x) for v, x in upd)) for p, upd in branches])
                            for label, guard, branches in modules[old]]
        elif line.startswith("module "):
            body = modules[line.split()[1]] = []
        elif line.startswith("rewards "):
            body = rewards[line.split('"')[1]] = []
        elif line in ("endmodule", "endrewards"):
            body = None
        elif (decl := _DECL.fullmatch(line)) is not None:
            variables[decl.group(1)] = tuple(int(g) for g in decl.groups()[1:])
        elif (command := _COMMAND.fullmatch(line)) is not None and body is not None:
            label, guard, updates = command.groups()
            branches = [(float(p), _terms(u)) for p, u in
                        (b.strip().split(":", 1) for b in updates.split(" + "))]
            body.append((label, _terms(guard), branches))
        elif body is not None and " : " in line:
            guard, value = line.rstrip(";").rsplit(" : ", 1)
            body.append((_terms(guard), float(value)))
        else:
            raise ValueError(f"unsupported line {line!r}")
    return variables, modules, rewards


def expected_rewards(model_text: str, steps: int) -> dict[str, list[float]]:
    """Per reward structure, the expected state reward at times 0..steps-1."""
    variables, modules, rewards = parse(model_text)
    names = list(variables)
    where = {name: i for i, name in enumerate(names)}
    alphabets = [{c[0] for c in commands} for commands in modules.values()]

    def holds(state, guard) -> bool:
        return all(state[where[v]] == x for v, x in guard)

    def successors(state):
        moves = []
        for label in sorted(set().union(*alphabets)):
            choices = []
            for alphabet, commands in zip(alphabets, modules.values()):
                if label in alphabet:
                    enabled = [c for c in commands if c[0] == label and holds(state, c[1])]
                    if len(enabled) > 1:
                        raise ValueError(f"local nondeterminism on {label} in {state}")
                    choices.append(enabled[0][2] if enabled else None)
            if None not in choices:
                moves.append(choices)
        if len(moves) != 1:
            raise ValueError(f"{len(moves)} labels enabled in {state}")
        for combo in product(*moves[0]):
            target, p = list(state), 1.0
            for prob, update in combo:
                p *= prob
                for v, x in update:
                    lo, hi, _ = variables[v]
                    if not lo <= x <= hi:
                        raise ValueError(f"{v}={x} outside {lo}..{hi}")
                    target[where[v]] = x
            yield tuple(target), p

    dist = {tuple(variables[v][2] for v in names): 1.0}
    out: dict[str, list[float]] = {name: [] for name in rewards}
    for _ in range(steps):
        for name, items in rewards.items():
            out[name].append(sum(p * sum(value for guard, value in items if holds(s, guard))
                                 for s, p in dist.items()))
        step: dict[tuple, float] = {}
        for state, p in dist.items():
            for target, q in successors(state):
                step[target] = step.get(target, 0.0) + p * q
        dist = step
    return out


def answer(model_text: str, properties_text: str) -> list[tuple[str, int, float]]:
    """(reward, bound, value) of every ``R{..}=? [ C<=bound ]`` query, in order."""
    queries = [(reward, int(bound)) for reward, bound in _QUERY.findall(properties_text)]
    per_time = expected_rewards(model_text, max(bound for _, bound in queries))
    return [(reward, bound, sum(per_time[reward][:bound])) for reward, bound in queries]
