"""Exception types shared across the package, and the one input-file reader."""

from __future__ import annotations

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
