"""The traced benchmark wraps program functions by name; they must exist.

``pipebench/tracing.py`` lists every (owner, attribute) it replaces while
tracing. A rename in ``src/`` would otherwise only show when the traced
benchmark runs.
"""

import importlib.util
from pathlib import Path

from ravu.backends import MockBackend

TRACING = Path(__file__).resolve().parents[1] / "pipebench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("pipebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    targets = load_tracing().layer_targets(MockBackend)
    assert targets
    missing = []
    for owner, attr, name, _ in targets:
        # The tracer reads class attributes from the class's own namespace.
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr} ({name})")
    assert missing == []
