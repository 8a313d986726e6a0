from functools import cached_property

import numpy as np
import pytest

from ravu.backends import MockBackend
from ravu.config import RavuConfig
from ravu.evaluate import build_video
from ravu.graph_builder import EmbeddingColumns
from ravu.graph_model import SpatioTemporalGraph
from ravu.synth import synth_world


def mock_backend(cls=MockBackend, *args, **kwargs) -> MockBackend:
    """A ``cls``, ``MockBackend`` or a subclass, made with ``args`` and ``kwargs`` and the default config's
    ``mock_seed`` and ``embed_dim`` as ``seed`` and ``dim``; a subclass's ``__init__`` hands those two on."""
    cfg = RavuConfig()
    return cls(*args, **kwargs, seed=cfg.mock_seed, dim=cfg.embed_dim)


def make_columns(records) -> EmbeddingColumns:
    """Columns of ``records`` (``EmbeddingRecord``s, or anything with their four
    attributes), in order, each row with a vector of its own."""
    records = list(records)
    n = len(records)
    return EmbeddingColumns(
        np.stack([r.vector for r in records], dtype=np.float64) if n else np.zeros((0, 0)),
        np.arange(n, dtype=np.intp),
        np.array([r.entity_id for r in records], dtype=np.int64),
        np.array([r.frame_index for r in records], dtype=np.int64),
        [r.description for r in records],
    )


def record_rows(records) -> list[tuple]:
    """``(entity_id, frame_index, description, vector as a list)`` of each record, for comparing
    columns with columns or with a list of records."""
    return [(r.entity_id, r.frame_index, r.description, np.asarray(r.vector).tolist()) for r in records]


def rows(table: dict) -> list[dict]:
    """The rows of a table of a graph document, each a dict of its columns' entries; a node's ``box``
    is its four numbers."""
    columns = [name for name in table if name != "box"]
    records = [dict(zip(columns, values)) for values in zip(*(table[name] for name in columns))]
    if "box" in table:
        for i, record in enumerate(records):
            record["box"] = table["box"][4 * i:4 * i + 4]
    return records


def table(records: list[dict], like: dict) -> dict:
    """The table of ``records``, the rows ``rows`` gives, with the columns of the table ``like``."""
    return {name: [x for r in records for x in r[name]] if name == "box" else [r[name] for r in records]
            for name in like}


def new_state(doc: dict, node: dict, description) -> dict:
    """``node``, a row of ``doc``'s nodes, with a state of its own: its attributes and ``description``,
    appended to ``doc``'s states."""
    states = doc["states"]
    states["attributes"].append(states["attributes"][node["state"]])
    states["description"].append(description)
    return {**node, "state": len(states["description"]) - 1}


def count_table_builds(monkeypatch) -> dict[str, list]:
    """The graphs that each lookup table of ``SpatioTemporalGraph`` is built for from now on, by table name."""
    built = {name: [] for name in ("_by_frame", "_timeline", "_edges_at", "_descriptions")}
    for name in built:
        make = SpatioTemporalGraph.__dict__[name].func

        def counted(graph, name=name, make=make):
            built[name].append(graph)
            return make(graph)

        table = cached_property(counted)
        table.__set_name__(SpatioTemporalGraph, name)
        monkeypatch.setattr(SpatioTemporalGraph, name, table)
    return built


@pytest.fixture
def backend():
    return mock_backend()


@pytest.fixture(scope="session")
def world():
    return synth_world(7)


@pytest.fixture(scope="session")
def assets(world):
    return build_video(
        world.observations_text, world.tracklets_text, mock_backend(), RavuConfig()
    )
