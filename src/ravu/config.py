"""Runtime configuration with file loading and env-var overrides."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
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


def _check_range(name: str, value, what: str, field: str) -> None:
    """ParseError naming ``what`` unless ``value`` is in field ``name``'s range."""
    if name in _RANGES and not _RANGES[name][0](value):
        raise ParseError(f"{what} must be {_RANGES[name][1]}, got {value!r}", field=field)


@dataclass
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

    @classmethod
    def from_file(cls, path: str | Path) -> "RavuConfig":
        types = {f.name: f.type for f in fields(cls)}
        # Unknown keys are ignored so files written for other versions still load.
        values = {k: v for k, v in json_object(read_document(path), "config").items() if k in types}
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[types[name]]):
                raise ParseError(f"config field '{name}' must be {types[name]}, got {value!r}", field=name)
            _check_range(name, value, f"config field '{name}'", name)
        return cls(**values)


def load_config(path: str | Path | None = None) -> RavuConfig:
    """Load config from an explicit path, $RAVU_CONFIG, or defaults.

    RAVU_ENDPOINT / RAVU_TOKEN / RAVU_EMBED_DIM override file values.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    cfg = RavuConfig.from_file(path) if path else RavuConfig()
    if os.environ.get(ENV_ENDPOINT):
        cfg.endpoint = os.environ[ENV_ENDPOINT]
    if os.environ.get(ENV_TOKEN):
        cfg.token = os.environ[ENV_TOKEN]
    if embed_dim := os.environ.get(ENV_EMBED_DIM):
        try:
            cfg.embed_dim = int(embed_dim)
        except ValueError as exc:
            raise ParseError(f"{ENV_EMBED_DIM} must be an integer, got {embed_dim!r}", field=ENV_EMBED_DIM) from exc
        _check_range("embed_dim", cfg.embed_dim, ENV_EMBED_DIM, ENV_EMBED_DIM)
    return cfg
