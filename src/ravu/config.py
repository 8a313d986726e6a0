"""Runtime configuration with file loading and env-var overrides."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ParseError

ENV_CONFIG = "RAVU_CONFIG"
ENV_ENDPOINT = "RAVU_ENDPOINT"
ENV_TOKEN = "RAVU_TOKEN"
ENV_EMBED_DIM = "RAVU_EMBED_DIM"


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
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid config JSON: {exc.msg}", line=exc.lineno) from exc
        if not isinstance(raw, dict):
            raise ParseError("config must be a JSON object")
        # Unknown keys are ignored so files written for other versions still load.
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in raw.items() if k in known})


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
    if os.environ.get(ENV_EMBED_DIM):
        cfg.embed_dim = int(os.environ[ENV_EMBED_DIM])
    return cfg
