"""Exception types shared across the package, and the reader and decoder of every document it reads."""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path


class RavuError(Exception):
    """Base class for all package errors."""


class ParseError(RavuError):
    """A document or DSL text could not be parsed.

    Carries an optional line number (1-based) and the offending field name
    so callers can produce precise diagnostics; the message leads with the
    document's ``path`` when one is given, then with the line.
    """

    def __init__(
        self, message: str, line: int | None = None, field: str | None = None, path: str | Path | None = None
    ):
        self.line = line
        self.field = field
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class NotFound(RavuError):
    """A requested entity or node does not exist in the graph."""


class EmptyIndex(RavuError):
    """A retrieval operation was issued against an index with no vectors."""


class BackendError(RavuError):
    """Base class for model-backend failures."""


class Timeout(BackendError):
    """The remote backend did not respond within the configured deadline."""


class BlockedContent(BackendError):
    """The provider refused to process the request (safety filter)."""


class MalformedResponse(BackendError):
    """The backend reply failed caller-side validation after all retries."""


# What converting a wrong-shaped field raises; each reader turns these into a ParseError.
# json reads Infinity and 1e400 as float infinity, and ``int()`` of that raises OverflowError.
MALFORMED = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def read_document(path: str | Path, binary: bool = False) -> str | bytes:
    """The file at ``path`` as UTF-8 text, or as bytes when ``binary``.

    The text is the file's bytes decoded, with no newline translation, so
    ``\r\n`` stays ``\r\n``. A file that cannot be read (a directory, say)
    or is not UTF-8 text raises ParseError naming it.
    """
    try:
        data = Path(path).read_bytes()
        return data if binary else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (invalid byte at offset {exc.start})", path=path) from exc
    except OSError as exc:
        raise ParseError(f"cannot read: {exc.strerror or exc}", path=path) from exc


def json_object(text: str, what: str, line: int | None = None) -> dict:
    """Decode one JSON object; ``line`` is where ``text`` sits in its document, None for all of it."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        where = exc.lineno if line is None else line
        raise ParseError(f"invalid JSON: {exc.msg} at column {exc.colno}", line=where) from exc
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object", line=line)
    return value


def json_objects(text: str, what: str) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line of a JSON-lines document."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield lineno, json_object(line, what, lineno)


def integer(value, name: str, line: int | None = None) -> int:
    """``int(value)``; a boolean or a fractional number, which ``int()`` would truncate, raises ParseError."""
    if type(value) is int:  # the common case, checked first: graph documents hold thousands of IDs
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParseError(f"{name} must be an integer, got {value!r}", line=line, field=name)
    return int(value)
