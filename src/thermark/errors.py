"""Exception types shared across the package, and the one input-file reader."""

from __future__ import annotations

from pathlib import Path


class ThermarkError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ThermarkError):
    """Invalid user input: bad parameters, malformed files, inconsistent config."""


class NumericalGuardError(ThermarkError):
    """A numerical safety guard tripped (Euler instability, oracle size limit)."""


def read_text(path: Path, kind: str) -> str:
    """Read a UTF-8 input file; any failure is a one-line error naming it.

    ``kind`` names the file's role in the not-found message, e.g.
    ``"building"``. A directory, an unreadable file and bytes that are not
    UTF-8 each raise :class:`ValidationError`.
    """
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from None
