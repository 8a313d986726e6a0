from functools import cached_property

import numpy as np
import pytest
from hypothesis import strategies as st

from ravu.backends import MockBackend
from ravu.config import RavuConfig
from ravu.evaluate import build_video
from ravu.graph_builder import EmbeddingColumns
from ravu.graph_model import (
    LINE_BREAK,
    RULES,
    BoundingBox,
    EntityEvent,
    EntityNode,
    FrameRecord,
    RelationEdge,
    SpatioTemporalGraph,
    _WALKED_EVENT_RULES,
)
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
    built = {name: [] for name in ("_timeline", "_descriptions")}
    for name in built:
        make = SpatioTemporalGraph.__dict__[name].func

        def counted(graph, name=name, make=make):
            built[name].append(graph)
            return make(graph)

        table = cached_property(counted)
        table.__set_name__(SpatioTemporalGraph, name)
        monkeypatch.setattr(SpatioTemporalGraph, name, table)
    return built


# Non-ASCII text, quotes, backslashes and control characters, besides any text.
texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n\t\r", "\x00\x1f\x7f", "é", "€", "😀", " ", 'a "b" \\c']),
)
# Finite floats only: a non-finite float is refused (``test_a_non_finite_float_is_neither_written_nor_read``).
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 0.0, 0.1, 1e16, 1e-7, 2.5])
)
# Text without a line break: loading refuses one in every text field but a frame's source_ref.
one_line_texts = texts.filter(lambda text: not LINE_BREAK.search(text))
positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
good_boxes = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.floats(0.0, 1e6), st.floats(0.0, 1e6), st.floats(1e-3, 1e6), st.floats(1e-3, 1e6),
)


@st.composite
def loadable_graphs(draw):
    """Graphs that ``deserialize`` loads: frames 0..n-1 with increasing timestamps, a finite fps > 0, valid
    boxes, nodes in those frames and event spans inside them."""
    timestamps = sorted(draw(st.lists(floats, max_size=4, unique=True)))
    frames = [FrameRecord(i, t, draw(one_line_texts), draw(texts)) for i, t in enumerate(timestamps)]
    # A node or an event needs a frame to be in.
    frame = st.integers(0, max(len(frames) - 1, 0))
    room = 1 if frames else 0
    keys = draw(st.lists(st.tuples(st.integers(0, 5), frame), max_size=6 * room, unique=True))
    nodes = [
        EntityNode(entity_id, frame_index, draw(st.dictionaries(one_line_texts, one_line_texts, max_size=3)),
                   draw(good_boxes), draw(st.one_of(st.none(), one_line_texts)))
        for entity_id, frame_index in keys
    ]
    edges = draw(st.lists(st.builds(RelationEdge, st.integers(0, 3), st.integers(0, 3), one_line_texts,
                                    st.integers(0, 3)), max_size=4))
    spans = st.lists(st.tuples(frame, frame).map(sorted), max_size=3 * room)
    events = {
        entity_id: [EntityEvent(entity_id, start, end, draw(one_line_texts)) for start, end in draw(spans)]
        for entity_id in draw(st.lists(st.integers(0, 12), max_size=4, unique=True))
    }
    return SpatioTemporalGraph(frames, nodes, edges, events, draw(positive_floats))


@st.composite
def event_rule_graphs(draw):
    """Graphs of frames 0..9 whose events break the event rules every way: entities 0 and 1 appear in drawn
    frames, entity 2 never does, and each event's entity and span are drawn apart from its key."""
    frames_of = draw(st.lists(st.sets(st.integers(0, 9)), min_size=2, max_size=2))
    events = draw(st.dictionaries(
        st.integers(0, 2),
        st.lists(st.builds(EntityEvent, st.integers(0, 2), st.integers(-2, 11), st.integers(-2, 11), st.just("e")),
                 max_size=5),
        max_size=3,
    ))
    attributes = {"appearance": "red ball", "action": "rolling", "body_pose": "none"}
    nodes = [EntityNode(e, f, attributes, BoundingBox(0, 0, 10, 10)) for e, frames in enumerate(frames_of)
             for f in frames]
    return SpatioTemporalGraph(frames=[FrameRecord(i, float(i), "") for i in range(10)], nodes=nodes, events=events)


# Each rule's place in the order ``validate`` reports them: that of ``RULES``, but for the event rules that one walk
# of each entity's events checks, which share a place.
RULE_PLACE = {rule: RULES.index(_WALKED_EVENT_RULES[0] if rule in _WALKED_EVENT_RULES else rule) for rule in RULES}


def by_rule(violations) -> list:
    """``violations`` in the order ``validate`` reports them, those of one rule (or of the walked event rules) in
    the order given."""
    return sorted(violations, key=lambda v: RULE_PLACE[v.rule])


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
