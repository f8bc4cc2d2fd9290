"""Exception types shared across the package, the one input-file reader,
and the schema walk that reads the building, strategy and tariff JSON files."""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable
from itertools import repeat
from pathlib import Path


class ThermarkError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ThermarkError):
    """Invalid user input: bad parameters, malformed files, inconsistent config."""


class NumericalGuardError(ThermarkError):
    """A numerical safety guard tripped (Euler instability, oracle size limit)."""


def read_bytes(path: Path, kind: str) -> bytes:
    """Read a UTF-8 input file as bytes; any failure is a one-line error
    naming it.

    ``kind`` names the file's role in the not-found message, e.g.
    ``"building"``. A directory, an unreadable file and bytes that are not
    UTF-8 each raise :class:`ValidationError`.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ValidationError(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return data


def read_text(path: Path, kind: str) -> str:
    """:func:`read_bytes` decoded, with CRLF and CR line ends read as LF."""
    text = read_bytes(path, kind).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_json(source: Path | dict, kind: str, schema: object) -> object:
    """Parse a JSON file, or take an already parsed dict, and check it
    against ``schema`` in one walk; ``kind`` names the input in the
    not-found message and stands in for a dict's file name.

    A schema is a plain literal:

    - ``str``, ``int`` or ``float``: a JSON string, a JSON integer, or a
      finite JSON number; never a boolean, and nothing is coerced
    - ``[S]``: a list whose elements match ``S``
    - ``{S}``: such a list with no element repeated
    - ``(what, S1, S2, ...)``: a list of exactly the elements ``S1``,
      ``S2``, ...; ``what`` names them when the length is wrong
    - ``{str: S}``: an object whose values match ``S``, under any keys
    - ``{"key": S, "other?": S}``: an object with exactly these keys; a
      trailing ``?`` marks one that may be left out

    An integer literal longer than ``int()`` reads (4 300 digits) is read
    as a non-finite number, and an object that gives one key twice is
    rejected. The first mismatch raises a one-line :class:`ValidationError`
    naming the input, the key path and the problem.
    """
    if isinstance(source, dict):
        raw, name = source, kind
    else:
        text = read_text(source, kind)
        try:
            if text.startswith("\ufeff"):  # json.loads says so; the decoder alone does not
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
            raw = _DECODER.decode(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{source}: not valid JSON: {exc}") from None
        except RecursionError:
            raise ValidationError(f"{source}: not valid JSON: nested too deeply") from None
        except _RepeatedKey as exc:
            raise ValidationError(f"{source}: an object gives key {exc.args[0]!r} twice") from None
        name = source
    try:
        _walk(raw, schema)
    except _Mismatch as exc:
        raise json_error(name, reversed(exc.steps), str(exc)) from None
    return raw


def _int_or_infinity(literal: str) -> int | float:
    """An integer literal as an int or, when it is longer than ``int()``
    reads, as a float: an infinity."""
    try:
        return int(literal)
    except ValueError:
        return float(literal)


class _RepeatedKey(Exception):
    """A JSON object gives the key ``args[0]`` twice."""


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key given twice raises
    :class:`_RepeatedKey`, where a plain dict would keep the last value."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return members


_DECODER = json.JSONDecoder(parse_int=_int_or_infinity, object_pairs_hook=_object)


class _Mismatch(Exception):
    """A value that does not match its schema; ``steps`` gathers the key
    path, innermost first, as the walk unwinds."""

    def __init__(self, problem: str) -> None:
        super().__init__(problem)
        self.steps: list[str | int] = []


_LEAF_NAMES = {str: "a string", int: "an integer", float: "a finite number"}


def _walk(value: object, schema: object) -> None:
    """Raise :class:`_Mismatch` at the first part of ``value`` that does not
    match ``schema`` (see :func:`read_json`)."""
    form = type(schema)
    if form is type:
        if type(value) is schema:
            if schema is not float or value - value == 0.0:  # inf - inf and nan - nan are nan
                return
        elif schema is float and type(value) is int and abs(value) <= sys.float_info.max:
            return
        raise _Mismatch(expected_type(_LEAF_NAMES[schema], value))
    fixed = None  # the schema of every member of a list or a map
    if form is dict:
        if type(value) is not dict:
            raise _Mismatch(expected_type("an object", value))
        if str in schema:
            fixed, members = schema[str], value.items()
        else:
            members, missing = [], None
            for key, item in schema.items():
                name = key.rstrip("?")
                if name in value:
                    members.append((name, value[name], item))
                elif name == key and missing is None:
                    missing = key
            if len(members) < len(value):
                names = {key.rstrip("?") for key in schema}
                raise _Mismatch(f"unknown key {next(k for k in value if k not in names)!r}")
            if missing is not None:
                raise _Mismatch(f"missing key {missing!r}")
    elif type(value) is not list:
        raise _Mismatch(expected_type("a list", value))
    elif form is tuple:
        if len(value) != len(schema) - 1:
            raise _Mismatch(f"expected {schema[0]}, got {len(value)} values")
        members = zip(range(len(value)), value, schema[1:])
    else:
        (fixed,) = schema
        members = enumerate(value)
    # a leaf of the expected kind passes in these loops; anything else is walked
    try:
        if fixed is None:
            for step, member, item in members:
                if type(member) is not item or item is float and member - member != 0.0:
                    _walk(member, item)
        else:
            for step, member in members:
                if type(member) is not fixed or fixed is float and member - member != 0.0:
                    _walk(member, fixed)
    except _Mismatch as exc:
        exc.steps.append(step)
        raise
    if form is set and len(set(value)) < len(value):
        step = next(i for i, member in enumerate(value) if member in value[:i])
        exc = _Mismatch(f"{value[step]!r} is listed twice")
        exc.steps.append(step)
        raise exc


def json_error(source: object, steps: Iterable[str | int], problem: str) -> ValidationError:
    """One line naming the input, the key path that ``steps`` (keys and list
    indices, outermost first) spell, such as ``bands[0].start``, and the problem."""
    path = "".join(f"[{step}]" if isinstance(step, int)
                   else f".{step}" if step.isidentifier() else f"[{json.dumps(step)}]"
                   for step in steps).removeprefix(".")
    return ValidationError(f"{source}: {path or 'top level'}: {problem}")


def expected_type(expected: str, value: object) -> str:
    """The problem of a value that is not of the ``expected`` JSON type."""
    return f"expected {expected}, got {_json_type(value)}"


def _json_type(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, int):
        beyond = abs(value) > sys.float_info.max
        return "an integer beyond the float range" if beyond else "an integer"
    if isinstance(value, float):
        return "a float" if math.isfinite(value) else "a non-finite number"
    if isinstance(value, str):
        return "a string"
    return "a list" if isinstance(value, list) else "an object"
