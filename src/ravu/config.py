"""Runtime configuration: a frozen ``RavuConfig``, type- and range-checked however it is made, and env-var overrides."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ParseError, json_object, read_document

ENV_CONFIG = "RAVU_CONFIG"
ENV_ENDPOINT = "RAVU_ENDPOINT"
ENV_TOKEN = "RAVU_TOKEN"
ENV_EMBED_DIM = "RAVU_EMBED_DIM"

# Accepted JSON values per field annotation; a bool is never a number.
_ACCEPTS = {"str": (str,), "int": (int,), "float": (int, float)}

# The accepted range of each numeric field that has one: (test, wording).
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_RANGES = {
    "embed_dim": _AT_LEAST_ONE,
    "top_k": _AT_LEAST_ONE,
    "budget": _AT_LEAST_ONE,
    "hier_per_event": _AT_LEAST_ONE,
    "max_retries": _AT_LEAST_ONE,
    "deadline_s": _POSITIVE,
    "fps": _POSITIVE,
    "min_iou": (lambda v: 0 <= v <= 1, "between 0 and 1"),
}


def check_range(field: str, value, name: str | None = None) -> None:
    """Raise ValueError unless ``value`` is in the range of the config field ``field``; the message calls the value
    ``name``, by default ``field``. For functions that take a field's value as an argument."""
    test, wording = _RANGES[field]
    if not test(value):
        raise ValueError(f"{name or field} must be {wording}, got {value!r}")


@dataclass(frozen=True)
class RavuConfig:
    backend: str = "mock"  # "mock" or "remote"
    endpoint: str = ""
    token: str = ""
    model: str = ""
    embed_dim: int = 256
    mock_seed: int = 0
    min_iou: float = 0.1
    top_k: int = 10
    budget: int = 5
    max_retries: int = 2
    deadline_s: float = 60.0
    fps: float = 1.0
    hier_per_event: int = 3

    def __post_init__(self):
        for field in fields(self):
            value, what = getattr(self, field.name), f"config field '{field.name}' must be"
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[field.type]):
                raise ParseError(f"{what} {field.type}, got {value!r}", field=field.name)
            if field.name in _RANGES and not _RANGES[field.name][0](value):
                raise ParseError(f"{what} {_RANGES[field.name][1]}, got {value!r}", field=field.name)

    @classmethod
    def from_file(cls, path: str | Path) -> "RavuConfig":
        names = {f.name for f in fields(cls)}
        # Unknown keys are ignored so files written for other versions still load.
        return cls(**{k: v for k, v in json_object(read_document(path), "config").items() if k in names})


def load_config(path: str | Path | None = None) -> RavuConfig:
    """Load config from an explicit path, $RAVU_CONFIG, or defaults.

    RAVU_ENDPOINT / RAVU_TOKEN / RAVU_EMBED_DIM override file values; an
    override out of range raises ParseError naming its variable.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    cfg = RavuConfig.from_file(path) if path else RavuConfig()
    overrides = {name: os.environ[var] for name, var in (("endpoint", ENV_ENDPOINT), ("token", ENV_TOKEN))
                 if os.environ.get(var)}
    if embed_dim := os.environ.get(ENV_EMBED_DIM):
        try:
            overrides["embed_dim"] = int(embed_dim)
        except ValueError as exc:
            raise ParseError(f"{ENV_EMBED_DIM} must be an integer, got {embed_dim!r}", field=ENV_EMBED_DIM) from exc
    try:
        return replace(cfg, **overrides)
    except ParseError:  # embed_dim is the one override with a range: name its variable
        raise ParseError(f"{ENV_EMBED_DIM} must be {_RANGES['embed_dim'][1]}, got {overrides['embed_dim']!r}",
                         field=ENV_EMBED_DIM) from None
