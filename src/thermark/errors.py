"""Exception types shared across the package, the one input-file reader,
and the typed reader of the strategy and tariff JSON files."""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import NoReturn


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


class JsonValue:
    """One value of a parsed JSON input, with the key path that reached it.

    Each accessor checks the value's JSON type and, when it does not
    match, raises a one-line :class:`ValidationError` that names the input,
    the key path (``bands[0].start``) and the expected type. Nothing is
    coerced: an integer must be a JSON integer, not a boolean or a float.
    """

    __slots__ = ("value", "_source", "_parent", "_step")

    def __init__(self, value: object, source: str,
                 parent: JsonValue | None = None, step: str | int = "") -> None:
        self.value = value
        self._source = source
        self._parent = parent
        self._step = step  # the key or list index that reached the value

    @classmethod
    def load(cls, source: Path | dict, kind: str) -> JsonValue:
        """Read and parse a JSON file, or wrap an already parsed dict; ``kind``
        names the input in messages (and stands in for a dict's file name)."""
        if isinstance(source, dict):
            return cls(source, kind)
        try:
            return cls(json.loads(read_text(source, kind)), str(source))
        except ValueError as exc:  # a syntax error, or an integer literal too long to read
            raise ValidationError(f"{source}: invalid {kind} JSON: {exc}") from None

    def _fail(self, problem: str) -> NoReturn:
        steps, node = [], self
        while node._parent is not None:
            steps.append(node._step)
            node = node._parent
        raise json_error(self._source, reversed(steps), problem)

    def _expect(self, expected: str) -> NoReturn:
        self._fail(expected_type(expected, self.value))

    def _object(self) -> dict:
        if not isinstance(self.value, dict):
            self._expect("an object")
        return self.value

    def field(self, key: str) -> JsonValue:
        """The member ``key`` of an object, which must be there."""
        obj = self._object()
        if key not in obj:
            self._fail(f"missing key {key!r}")
        return JsonValue(obj[key], self._source, self, key)

    def items(self) -> list[tuple[str, JsonValue]]:
        """The members of an object, in file order."""
        return [(key, JsonValue(value, self._source, self, key))
                for key, value in self._object().items()]

    def elements(self) -> list[JsonValue]:
        """The elements of a list."""
        if not isinstance(self.value, list):
            self._expect("a list")
        return [JsonValue(value, self._source, self, i) for i, value in enumerate(self.value)]

    def integer(self) -> int:
        if type(self.value) is not int:
            self._expect("an integer")
        return self.value

    def string(self) -> str:
        if not isinstance(self.value, str):
            self._expect("a string")
        return self.value


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
