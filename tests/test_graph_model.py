import copy
import json
import pickle
import re
from dataclasses import fields as dataclass_fields, replace
from math import inf, nan
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ravu.config import RavuConfig
from ravu.errors import NotFound, ParseError
from ravu.evaluate import build_video
from ravu.graph_model import (
    LINE_BREAKS,
    BoundingBox,
    EdgeTable,
    EntityEvent,
    EntityNode,
    FrameRecord,
    NodeTable,
    RelationEdge,
    SpatioTemporalGraph,
    Violation,
    deserialize,
    entity_descriptions,
    entity_timeline,
    node_edges,
    parse_box,
    serialize,
    valid_boxes,
    validate,
)
from ravu.synth import synth_world

from conftest import by_rule, count_table_builds, event_rule_graphs, mock_backend, new_state, rows, table

ATTRS = {"appearance": "red ball", "action": "rolling", "body_pose": "none"}


def box(x=0.0, y=0.0, w=10.0, h=10.0):
    return BoundingBox(x, y, x + w, y + h)


def small_graph():
    frames = [
        FrameRecord(0, 0.0, "a frame", "v/frame_0000.jpg"),
        FrameRecord(1, 1.0, "another frame", "v/frame_0001.jpg"),
    ]
    nodes = [
        EntityNode(0, 0, dict(ATTRS), box(), "entity 0: red ball; rolling"),
        EntityNode(0, 1, dict(ATTRS), box(1), "entity 0: red ball; rolling"),
        EntityNode(1, 0, dict(ATTRS), box(30), None),
    ]
    edges = [RelationEdge(0, 0, "next to", 1)]
    events = {0: [EntityEvent(0, 0, 1, "red ball rolling")]}
    return SpatioTemporalGraph(frames=frames, nodes=nodes, edges=edges, events=events)


def node_at(g, entity_id, frame_index):
    """The node of ``g`` with the key (entity_id, frame_index)."""
    return next(n for n in g.nodes if (n.entity_id, n.frame_index) == (entity_id, frame_index))


def with_node(g, entity_id, frame_index, **changes):
    """``g`` with the node of the key (entity_id, frame_index) changed by ``changes``."""
    key = (entity_id, frame_index)
    return replace(g, nodes=[n._replace(**changes) if (n.entity_id, n.frame_index) == key else n for n in g.nodes])


def with_frame(g, i, **changes):
    """``g`` with its frame at position ``i`` changed by ``changes``."""
    return replace(g, frames=[f._replace(**changes) if j == i else f for j, f in enumerate(g.frames)])


def test_bounding_box_validity():
    boxes = [
        box(),
        BoundingBox(5, 0, 5, 10),  # zero width
        BoundingBox(-1, 0, 4, 10),  # negative origin
        BoundingBox(4, 10, 1, 2),  # inverted
        BoundingBox(0, 0, inf, 1),  # unbounded
        BoundingBox(0, nan, 1, 1),
    ]
    assert valid_boxes(np.array(boxes)).tolist() == [True, False, False, False, False, False]


def test_valid_graph_has_no_violations():
    assert validate(small_graph()) == []


def test_frame_index_density_checked():
    g = with_frame(small_graph(), 1, frame_index=5)
    assert any(v.rule == "frame-index-dense" for v in validate(g))


def test_timestamp_order_checked():
    g = with_frame(small_graph(), 1, timestamp_s=0.0)
    assert any(v.rule == "timestamp-order" for v in validate(g))


@pytest.mark.parametrize("timestamp", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_timestamp_checked(timestamp):
    g = with_frame(small_graph(), 0, timestamp_s=timestamp)
    assert [v for v in validate(g) if v.rule == "timestamp-finite"] == [
        Violation("timestamp-finite", f"frame 0: timestamp_s {timestamp} is not finite")
    ]


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_fps_checked(fps):
    g = small_graph()
    assert not [v for v in validate(g) if v.rule == "fps-finite"]
    g = replace(g, fps=fps)
    assert [v for v in validate(g) if v.rule == "fps-finite"] == [
        Violation("fps-finite", f"fps must be finite and > 0, found {fps}")
    ]


def test_duplicate_node_detected():
    g = small_graph()
    with pytest.raises(ValueError, match="^graph lists node entity 0 frame 0 twice$"):
        replace(g, nodes=[*g.nodes, EntityNode(0, 0, dict(ATTRS), box())])
    doc = json.loads(serialize(g))
    nodes = rows(doc["nodes"])
    doc["nodes"] = table([*nodes, new_state(doc, nodes[0], "a purple elephant juggling")], doc["nodes"])
    with pytest.raises(ParseError, match="^graph lists node entity 0 frame 0 twice$") as exc:
        deserialize(json.dumps(doc))
    assert exc.value.field == "nodes"


@pytest.mark.parametrize("frame", [-1, 2, 10**6])
def test_a_node_outside_the_video_frames_is_refused(frame):
    g = small_graph()
    g = replace(g, nodes=[*g.nodes, EntityNode(2, frame, dict(ATTRS), box())])
    message = f"node entity 2 frame {frame} is not in frames 0..1"
    assert validate(g) == [Violation("node-frame-unknown", message)]
    with pytest.raises(ParseError, match=f"^{message}$") as exc:
        deserialize(serialize(g))
    assert exc.value.field == "frame_index"


def test_a_built_graph_cut_short_is_refused(assets):
    doc = json.loads(serialize(assets.graph))
    doc["frames"] = table(rows(doc["frames"])[:20], doc["frames"])
    doc["events"] = {}
    # Loading names the first node past the last frame, in the graph's (frame, entity) order.
    first = next(node for node in rows(doc["nodes"]) if node["frame_index"] >= 20)
    assert first["frame_index"] == 20
    with pytest.raises(ParseError, match=f"^node entity {first['entity_id']} frame 20 is not in frames 0..19$"):
        deserialize(json.dumps(doc))
    cut = SpatioTemporalGraph(frames=assets.graph.frames[:20], nodes=assets.graph.nodes)
    late = [n for n in assets.graph.nodes if n.frame_index >= 20]
    assert late and validate(cut) == [
        Violation("node-frame-unknown", f"node entity {n.entity_id} frame {n.frame_index} is not in frames 0..19")
        for n in late
    ]


def test_missing_attribute_detected():
    g = small_graph()
    g = with_node(g, 0, 0, attributes={k: v for k, v in ATTRS.items() if k != "body_pose"})
    assert any(v.rule == "missing-attribute" for v in validate(g))


def test_self_and_dangling_edges_detected():
    g = small_graph()
    g = replace(g, edges=[*g.edges, RelationEdge(0, 1, "touching", 1), RelationEdge(1, 0, "near", 9)])
    rules = {v.rule for v in validate(g)}
    assert "self-edge" in rules and "dangling-edge" in rules


def test_event_invariants_detected():
    g = small_graph()
    g = replace(g, events={0: [
        EntityEvent(0, 0, 0, "first"),
        EntityEvent(0, 0, 1, "overlapping"),
    ]})
    rules = {v.rule for v in validate(g)}
    assert "event-overlap" in rules

    g = replace(small_graph(), events={0: [EntityEvent(0, 0, 0, "partial")]})
    assert any(v.rule == "event-coverage" for v in validate(g))

    g = small_graph()
    g = replace(g, events={**g.events, 7: [EntityEvent(7, 0, 0, "ghost")]})
    assert any(v.rule == "event-entity-unknown" for v in validate(g))

    g = replace(small_graph(), events={0: [EntityEvent(0, 0, 5, "out of range")]})
    assert any(v.rule == "event-span" for v in validate(g))

    g = replace(small_graph(), events={1: [EntityEvent(1, 0, 1, "in frame 1 too")]})  # entity 1 is in frame 0 only
    assert any(v.rule == "event-absent-frame" for v in validate(g))


def test_no_events_is_not_a_coverage_violation():
    g = replace(small_graph(), events={})
    assert validate(g) == []


def test_a_span_far_past_the_entity_frames_is_reported_not_expanded():
    g = replace(small_graph(), events={0: [EntityEvent(0, 0, 10**15, "forever")]})
    assert validate(g) == [
        Violation("event-span", "event 0 of entity 0: 0..1000000000000000 is not a span of frames 0..1"),
        Violation("event-coverage", "entity 0 frames [0, 1]"),
    ]


def expanded_event_violations(graph):
    """The event rules of ``validate``, checked by expanding each span into a set of frames."""
    out, appearance, last = [], {}, len(graph.frames) - 1
    for n in graph.nodes:
        appearance.setdefault(n.entity_id, set()).add(n.frame_index)
    for entity_id, events in graph.events.items():
        inside = [0 <= ev.start_frame <= ev.end_frame <= last for ev in events]
        out += [Violation("event-span", f"event {i} of entity {entity_id}: {ev.start_frame}..{ev.end_frame} is not a "
                          f"span of frames 0..{last}") for i, (ev, ok) in enumerate(zip(events, inside)) if not ok]
        if entity_id not in appearance:
            out.append(Violation("event-entity-unknown", f"entity {entity_id}"))
            continue
        covered = set()
        for ev, ok in zip(events, inside):
            where = f"entity {entity_id} [{ev.start_frame}..{ev.end_frame}]"
            if ev.entity_id != entity_id:
                out.append(Violation("event-entity-mismatch", f"entity {entity_id} holds event of {ev.entity_id}"))
            if not ok:
                continue
            span = set(range(ev.start_frame, ev.end_frame + 1))
            if covered & span:
                out.append(Violation("event-overlap", where))
            covered |= span
            if not span <= appearance[entity_id]:
                out.append(Violation("event-absent-frame", where))
        for prev, cur in zip(events, events[1:]):
            if cur.start_frame <= prev.end_frame:
                out.append(Violation("event-order", f"entity {entity_id} at frame {cur.start_frame}"))
        missing = appearance[entity_id] - covered
        if events and missing:
            out.append(Violation("event-coverage", f"entity {entity_id} frames {sorted(missing)}"))
    return out


@given(event_rule_graphs())
def test_event_rules_match_the_span_expanding_reference(g):
    assert [v for v in validate(g) if v.rule.startswith("event-")] == by_rule(expanded_event_violations(g))


def test_entity_timeline_sorted_and_missing():
    g = small_graph()
    timeline = entity_timeline(g, 0)
    assert [n.frame_index for n in timeline] == [0, 1]
    with pytest.raises(NotFound):
        entity_timeline(g, 42)


def test_node_edges():
    g = small_graph()
    assert len(node_edges(g, 0, 0)) == 1
    assert node_edges(g, 0, 1) == []
    with pytest.raises(NotFound):
        node_edges(g, 1, 1)


node_key = st.tuples(st.integers(0, 3), st.integers(0, 3))
node_keys = st.lists(node_key, max_size=12, unique=True)
edge_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(["near", "holding"]), st.integers(0, 3)),
    max_size=12,
)


def make_nodes(keys):
    return [EntityNode(entity_id, frame, dict(ATTRS), box()) for entity_id, frame in keys]


def make_edges(rows):
    return [RelationEdge(*row) for row in rows]


def ids(items):
    return [id(x) for x in items]


def assert_lookups_match_scans(g):
    assert g.entity_ids() == sorted({n.entity_id for n in g.nodes})
    for frame in range(5):
        expected = sorted((n for n in g.nodes if n.frame_index == frame), key=lambda n: n.entity_id)
        assert ids(g.nodes_in_frame(frame)) == ids(expected)
    for entity_id in range(5):
        expected = sorted((n for n in g.nodes if n.entity_id == entity_id), key=lambda n: n.frame_index)
        if expected:
            assert ids(entity_timeline(g, entity_id)) == ids(expected)
        else:
            with pytest.raises(NotFound):
                entity_timeline(g, entity_id)
        for frame in range(5):
            if any(n.entity_id == entity_id and n.frame_index == frame for n in g.nodes):
                expected = [
                    e for e in g.edges
                    if e.frame_index == frame and entity_id in (e.subject_id, e.object_id)
                ]
                assert ids(node_edges(g, entity_id, frame)) == ids(expected)
            else:
                with pytest.raises(NotFound):
                    node_edges(g, entity_id, frame)


@given(node_keys, edge_rows, node_keys, edge_rows)
def test_lookups_match_list_scans_before_and_after_replace(keys, rows, new_keys, new_rows):
    g = SpatioTemporalGraph(nodes=make_nodes(keys), edges=make_edges(rows))
    assert_lookups_match_scans(g)
    with_edges = replace(g, edges=make_edges(new_rows))
    assert_lookups_match_scans(with_edges)
    with_nodes = replace(with_edges, nodes=make_nodes(new_keys))
    assert_lookups_match_scans(with_nodes)
    for graph in (g, with_edges):
        assert_lookups_match_scans(graph)


@given(node_keys)
def test_a_graph_holds_its_nodes_in_frame_entity_order(keys):
    nodes = make_nodes(keys)
    g = SpatioTemporalGraph(nodes=nodes)
    assert list(g.nodes) == sorted(nodes, key=lambda n: (n.frame_index, n.entity_id))
    assert_lookups_match_scans(g)
    assert SpatioTemporalGraph(nodes=g.nodes).nodes is g.nodes
    assert replace(g, edges=make_edges([(0, 0, "near", 1)])).nodes is g.nodes


@st.composite
def keys_with_a_repeat(draw):
    keys = draw(st.lists(node_key, min_size=1, max_size=11))
    at = draw(st.integers(0, len(keys)))
    return keys[:at] + [draw(st.sampled_from(keys))] + keys[at:]


@given(keys_with_a_repeat())
def test_a_node_list_with_a_repeated_key_raises_naming_the_first(keys):
    entity_id, frame = min((k for k in keys if keys.count(k) > 1), key=lambda k: (k[1], k[0]))
    with pytest.raises(ValueError, match=f"^graph lists node entity {entity_id} frame {frame} twice$"):
        SpatioTemporalGraph(nodes=make_nodes(keys))


class CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def lookup_iterations(n_frames):
    """(node-list, edge-list) iterations, and the number of builds of each table, for one
    node_edges call per node, one entity_timeline call per entity, one nodes_in_frame call
    per frame and one entity_descriptions call per node."""
    nodes = make_nodes((entity_id, frame) for frame in range(n_frames) for entity_id in range(3))
    edges = make_edges((frame, 0, "near", 1) for frame in range(n_frames))
    given_nodes, given_edges = CountingList(nodes), CountingList(edges)
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = count_table_builds(monkeypatch)
        g = SpatioTemporalGraph(nodes=given_nodes, edges=given_edges)
        for n in nodes:
            node_edges(g, n.entity_id, n.frame_index)
            entity_descriptions(g)
        for entity_id in range(3):
            entity_timeline(g, entity_id)
        for frame in range(n_frames):
            g.nodes_in_frame(frame)
    assert all(graphs in ([], [g]) for graphs in built.values())
    return given_nodes.iterations, given_edges.iterations, tuple(map(len, built.values()))


def test_lookups_iterate_graph_lists_a_constant_number_of_times():
    small, large = lookup_iterations(4), lookup_iterations(64)
    assert small == large
    assert max(large[:2]) <= 2 and large[2] == (1, 1)


def test_frame_and_edge_lookups_read_the_columns():
    """``nodes_in_frame`` makes the records of its frame's rows alone, and neither it nor ``node_edges`` builds a
    table on the graph."""
    nodes = make_nodes((entity_id, frame) for frame in range(4) for entity_id in range(3))
    g = SpatioTemporalGraph(nodes=nodes, edges=make_edges((f, 0, "near", 1) for f in range(4)))
    assert [(n.entity_id, n.frame_index) for n in g.nodes_in_frame(2)] == [(0, 2), (1, 2), (2, 2)]
    assert [i for i, view in enumerate(g.nodes._views) if view is not None] == [6, 7, 8]
    assert [(e.frame_index, e.subject_id) for e in node_edges(g, 1, 3)] == [(3, 0)]
    assert not {"_timeline", "_descriptions"} & set(vars(g))


def test_node_edges_reads_the_edges_of_its_own_graph():
    g = SpatioTemporalGraph(nodes=make_nodes([(0, 0), (1, 0)]), edges=make_edges([(0, 0, "near", 1)]))
    assert [e.relation for e in node_edges(g, 1, 0)] == ["near"]
    with_edges = replace(g, edges=make_edges([(0, 1, "holding", 0), (0, 0, "near", 0)]))
    assert [e.relation for e in node_edges(with_edges, 1, 0)] == ["holding"]
    assert [e.relation for e in node_edges(with_edges, 0, 0)] == ["near", "holding"]
    assert [e.relation for e in node_edges(g, 1, 0)] == ["near"]


def test_a_built_graph_cannot_be_changed_in_place():
    world = synth_world(1, 24, 3)
    graph = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig()).graph
    before = serialize(graph)
    node, other = graph.nodes[0], graph.nodes[-1]
    for name in EntityNode._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, getattr(other, name))
    empty = SpatioTemporalGraph(fps=2.0)
    for f in dataclass_fields(graph):
        with pytest.raises(AttributeError):
            setattr(graph, f.name, getattr(empty, f.name))
    for name in ("nodes", "edges", "frames"):
        with pytest.raises(AttributeError):
            getattr(graph, name).append(getattr(graph, name)[0])
    with pytest.raises(TypeError):
        graph.nodes[0] = other
    with pytest.raises(TypeError):
        graph.events[0] = ()
    assert serialize(graph) == before
    repeated = node._replace(description="a purple elephant juggling")
    with pytest.raises(ValueError, match=f"^graph lists node entity {node.entity_id} frame 0 twice$"):
        replace(graph, nodes=[*graph.nodes, repeated])
    assert serialize(graph) == before


def test_node_attributes_cannot_be_written_in_a_built_or_a_loaded_graph():
    world = synth_world(1, 24, 3)
    built = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig()).graph
    document = serialize(built)
    loaded = deserialize(document)
    # The loaded nodes of one state share its one mapping, so a write to one node's would change them all.
    assert sum(n.attributes is loaded.nodes[0].attributes for n in loaded.nodes) > 1
    for graph in (built, loaded):
        node = graph.nodes[0]
        with pytest.raises(TypeError):
            graph.nodes[0].attributes["action"] = "x"
        with pytest.raises(TypeError):
            del node.attributes["action"]
        for name in ("clear", "update", "pop", "setdefault"):
            assert not hasattr(node.attributes, name)
        assert graph.nodes[0].attributes["action"] != "x" and serialize(graph) == document


def test_a_graph_made_from_records_holds_copies_of_their_attributes():
    attributes = dict(ATTRS)
    g = SpatioTemporalGraph(nodes=[EntityNode(0, 0, attributes, box()), EntityNode(1, 0, attributes, box())])
    attributes["action"] = "x"
    assert [n.attributes["action"] for n in g.nodes] == ["rolling", "rolling"]
    assert all(type(n.attributes) is MappingProxyType for n in g.nodes)


def test_a_graph_pickles_and_deep_copies(assets):
    text = serialize(assets.graph)
    for again in (pickle.loads(pickle.dumps(assets.graph)), copy.deepcopy(assets.graph)):
        assert again == assets.graph and serialize(again) == text
        assert type(again.events) is MappingProxyType


def test_serialize_round_trip():
    g = small_graph()
    text = serialize(g)
    assert text.endswith("\n")
    again = deserialize(text)
    assert serialize(again) == text
    assert again.entity_ids() == g.entity_ids()
    assert again.events[0] == g.events[0]


@pytest.mark.parametrize(
    "position, frame_index", [(-1, 500), (-1, -1), (1, 0)], ids=["past the end", "negative", "repeated"]
)
def test_a_document_whose_frame_indices_are_not_0_to_n_is_refused(assets, position, frame_index):
    doc = json.loads(serialize(assets.graph))
    last = len(doc["frames"]["frame_index"]) - 1
    doc["frames"]["frame_index"][position] = frame_index
    with pytest.raises(ParseError, match=f"^frame {frame_index}: frame indices must be 0..{last}, each once$") as exc:
        deserialize(json.dumps(doc))
    assert exc.value.field == "frame_index"


@pytest.mark.parametrize("earlier_by", [0.0, 0.5], ids=["equal", "earlier"])
def test_a_document_whose_timestamps_do_not_increase_is_refused(assets, earlier_by):
    doc = json.loads(serialize(assets.graph))
    before = doc["frames"]["timestamp_s"][4]
    doc["frames"]["timestamp_s"][5] = before - earlier_by
    message = f"frame 5: timestamp_s {before - earlier_by} is not after frame 4's {before}"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as exc:
        deserialize(json.dumps(doc))
    assert exc.value.field == "timestamp_s"


def test_serialize_canonical_under_reordering():
    g = small_graph()
    shuffled = SpatioTemporalGraph(
        frames=list(reversed(g.frames)),
        nodes=list(reversed(g.nodes)),
        edges=list(g.edges),
        events=g.events,
        fps=g.fps,
    )
    assert serialize(shuffled) == serialize(g)


def test_deserialize_missing_key():
    with pytest.raises(ParseError) as exc:
        deserialize(json.dumps({k: v for k, v in json.loads(serialize(small_graph())).items() if k != "frames"}))
    assert exc.value.field == "frames"


def test_deserialize_bad_json_reports_line():
    with pytest.raises(ParseError) as exc:
        deserialize('{\n  "frames": [,]\n}')
    assert exc.value.line == 2


def test_deserialize_bad_json_in_a_one_line_document_reports_the_column():
    with pytest.raises(ParseError) as exc:
        deserialize('{"frames":[,]}')
    assert exc.value.line == 1
    assert str(exc.value) == "line 1: invalid JSON: Expecting value at column 12"


@pytest.mark.parametrize(
    "start, end, field, message",
    [
        (0, 10**12, "end_frame", "0..1000000000000 is not a span of frames 0..23"),
        (0, 24, "end_frame", "0..24 is not a span of frames 0..23"),
        (-1, 3, "start_frame", "-1..3 is not a span of frames 0..23"),
        (5, 3, "start_frame", "5..3 is not a span of frames 0..23"),
    ],
)
def test_deserialize_rejects_an_event_span_outside_the_video(assets, start, end, field, message):
    doc = json.loads(serialize(assets.graph))
    events = doc["events"]["0"]
    assert len(doc["frames"]["frame_index"]) == 24 and deserialize(json.dumps(doc)).events == assets.graph.events
    events["start_frame"][-1], events["end_frame"][-1] = start, end
    # The event is numbered by its place in the graph's order of the entity's events.
    place = sorted(zip(events["start_frame"], events["end_frame"], events["summary"])).index(
        (start, end, events["summary"][-1]))
    with pytest.raises(ParseError, match=f"^event {place} of entity 0: {message}$") as exc:
        deserialize(json.dumps(doc))
    assert exc.value.field == field


def test_deserialize_invalid_box():
    doc = json.loads(serialize(small_graph()))
    doc["nodes"]["box"][4:8] = [5, 0, 1, 2]
    with pytest.raises(ParseError, match=r"box of node 1 frame 0 must be \[x0, y0, x1, y1\]"):
        deserialize(json.dumps(doc))


# Each a column of ``small_graph``'s document, as (table, column) or (entity key, column) of its events, and the
# name and field the ParseError gives when the column is one entry short.
SHORT_COLUMNS = [
    (("frames", "timestamp_s"), "frames", "frames"),
    (("states", "description"), "states", "states"),
    (("nodes", "state"), "nodes", "nodes"),
    (("nodes", "box"), "nodes", "nodes"),
    (("edges", "relation"), "edges", "edges"),
    (("0", "summary"), "events of entity 0", "events"),
]


@pytest.mark.parametrize("where, name, field", SHORT_COLUMNS, ids=["/".join(w) for w, _, _ in SHORT_COLUMNS])
def test_a_table_whose_columns_differ_in_length_is_refused(where, name, field):
    doc = json.loads(serialize(small_graph()))
    key, column = where
    (doc["events"][key] if key == "0" else doc[key])[column].pop()
    with pytest.raises(ParseError, match=f"^{name} columns must hold one entry per row") as exc:
        deserialize(json.dumps(doc))
    assert exc.value.field == field
    if column == "box":
        assert str(exc.value) == ("nodes columns must hold one entry per row (box four), "
                                  "found entity_id 3, frame_index 3, state 3, box 11")


@pytest.mark.parametrize(
    "users, column, row, value, message",
    [
        ("nodes", "state", 1, 2, "node 1: state 2 is not a row of states 0..1"),
        ("nodes", "state", 2, -1, "node 2: state -1 is not a row of states 0..1"),
        ("edges", "relation", 0, 1, "edge 0: relation 1 is not a row of relations 0..0"),
        ("edges", "relation", 0, -1, "edge 0: relation -1 is not a row of relations 0..0"),
    ],
)
def test_a_state_or_relation_number_outside_its_table_is_refused(users, column, row, value, message):
    doc = json.loads(serialize(small_graph()))
    doc[users][column][row] = value
    with pytest.raises(ParseError) as exc:
        deserialize(json.dumps(doc))
    assert (str(exc.value), exc.value.field) == (message, column)


@pytest.mark.parametrize("key", ["01", "00", "1_0", "+1", " 1", "1 ", "-0", "1.0", "x", ""])
def test_an_events_key_that_is_not_an_entity_id_in_plain_decimal_is_refused(key):
    doc = json.loads(serialize(small_graph()))
    doc["events"][key] = doc["events"]["0"]
    with pytest.raises(ParseError) as exc:
        deserialize(json.dumps(doc))
    assert str(exc.value) == f"events key {key!r} is not an entity ID in plain decimal, such as '7' or '-1'"
    assert exc.value.field == "events"


def test_events_with_one_start_frame_are_held_by_end_frame_then_summary():
    a, b, c = EntityEvent(0, 0, 0, "red ball"), EntityEvent(0, 0, 0, "red ball rolling"), EntityEvent(0, 0, 1, "a")
    graphs = [replace(small_graph(), events={0: order}) for order in ([a, b, c], [c, b, a], [b, c, a])]
    assert all(g.events[0] == (a, b, c) for g in graphs)
    documents = {serialize(g) for g in graphs}
    assert len(documents) == 1 and deserialize(documents.pop()) == graphs[0]


def with_attribute(g, entity_id, frame_index, key, value):
    attributes = node_at(g, entity_id, frame_index).attributes
    return with_node(g, entity_id, frame_index, attributes={**attributes, key: value})


# Each text field of ``small_graph``, as a function of the graph that gives the graph with a marker in the field,
# which the document's spelling of a line break replaces (or, as a second argument, the text to hold in its place),
# and the owner and field the ParseError names.
LINE_BREAK_FIELDS = [
    pytest.param(lambda g, m="MARK": with_frame(g, 1, description=f"another {m} frame"), "frame 1",
                 "description", id="frame description"),
    pytest.param(lambda g, m="MARK": with_node(g, 0, 1, description=f"red {m} ball"),
                 "node entity 0 frame 1", "description", id="node description"),
    pytest.param(lambda g, m="MARK": with_attribute(g, 1, 0, "action", f"rolling {m}"),
                 "node entity 1 frame 0", "attributes", id="attribute value"),
    pytest.param(lambda g, m="MARK": with_attribute(g, 1, 0, m, "x"), "node entity 1 frame 0", "attributes",
                 id="attribute key"),
    pytest.param(lambda g, m="MARK": replace(g, edges=[RelationEdge(0, 0, f"next {m} to", 1)]),
                 "edge frame 0 0->1", "relation", id="edge relation"),
    pytest.param(lambda g, m="MARK": replace(g, events={0: [EntityEvent(0, 0, 1, f"red {m} ball")]}),
                 "event entity 0 [0..1]", "summary", id="event summary"),
]
LINE_BREAK_SPELLINGS = {"escaped \\n": "\\n", "escaped \\u000b": "\\u000b", "raw U+2028": "\u2028",
                        "raw U+0085": "\x85"}


@pytest.mark.parametrize("spelling", LINE_BREAK_SPELLINGS.values(), ids=LINE_BREAK_SPELLINGS.keys())
@pytest.mark.parametrize("mark, owner, field", LINE_BREAK_FIELDS)
def test_deserialize_rejects_a_line_break_in_a_text_field(mark, owner, field, spelling):
    g = mark(small_graph())
    document = serialize(g).replace("MARK", spelling)
    assert serialize(g).count("MARK") == 1
    with pytest.raises(ParseError, match=f"^{re.escape(owner)} has a line break in") as exc:
        deserialize(document)
    assert exc.value.field == field


# Every character ``str.splitlines`` splits at, and some that it does not.
TEXT_CHARACTERS = [*LINE_BREAKS, "\t", "\x1f", "\x84", "\x86", "\u2027", "\u202a", "\\"]


@pytest.mark.parametrize("char", TEXT_CHARACTERS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("mark, owner, field", LINE_BREAK_FIELDS)
def test_validate_reports_a_line_break_exactly_when_deserialize_rejects_it(mark, owner, field, char):
    g = mark(small_graph(), char)
    try:
        deserialize(serialize(g))
        rejected = False
    except ParseError:
        rejected = True
    assert rejected == (char in LINE_BREAKS)
    expected = [("line-break", f"{owner} has a line break in its {field}")] if rejected else []
    assert [(v.rule, v.detail) for v in validate(g)] == expected


def test_deserialize_accepts_escapes_and_text_that_are_not_line_breaks():
    g = with_frame(small_graph(), 0, description="a backslash then n: \\n, a tab\t, a quote \" and caf\u00e9")
    g = with_node(g, 0, 0, description="\u2027 \u202a \x84 \x86")
    text = serialize(g)
    assert "\\\\n" in text and "\\u00e9" in text
    assert serialize(deserialize(text)) == text
    assert deserialize(text.replace("\\u2027", "\u2027")).nodes[0].description == g.nodes[0].description


RECORDS = [
    (BoundingBox, {"x_min": 1.0, "y_min": 2.5, "x_max": 3.0, "y_max": 4.0}),
    (RelationEdge, {"frame_index": 3, "subject_id": 1, "relation": "holds", "object_id": 2}),
    (FrameRecord, {"frame_index": 1, "timestamp_s": 0.5, "description": "a frame", "source_ref": "v/f1.jpg"}),
    (EntityEvent, {"entity_id": 2, "start_frame": 0, "end_frame": 4, "summary": "walks"}),
    (EntityNode, {"entity_id": 2, "frame_index": 3, "attributes": {"action": "walks"},
                  "box": BoundingBox(0.0, 0.0, 1.0, 1.0), "description": "a fox walks"}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_graph_records_are_immutable_hashable_and_replaceable(cls, fields):
    by_name, by_place = cls(**fields), cls(*fields.values())
    assert cls._fields == tuple(fields)
    assert type(by_name) is type(by_place) is cls
    assert by_name == by_place and repr(by_name) == repr(by_place)
    if cls is EntityNode:
        # A node holds its attributes as a dict, so it is not hashable.
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(by_name)
    else:
        assert hash(by_name) == hash(by_place) and {by_name, by_place} == {by_place}
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(by_name, name, value)
    name, value = next(iter(fields.items()))
    changed = by_name._replace(**{name: value * 2})
    assert type(changed) is cls and changed == cls(**{**fields, name: value * 2})
    assert by_name == by_place and getattr(by_name, name) == value
    assert tuple(by_name) == tuple(fields.values())


def test_a_frame_record_has_no_source_by_default():
    assert FrameRecord(0, 0.0, "a frame") == FrameRecord(0, 0.0, "a frame", "")
    assert EntityNode(0, 0, {}, box()) == EntityNode(0, 0, {}, box(), None)


def test_a_reloaded_graph_holds_exactly_the_record_types():
    g = small_graph()
    again = deserialize(serialize(g))
    assert {type(f) for f in again.frames} == {FrameRecord}
    assert {type(n.box) for n in again.nodes} == {BoundingBox}
    assert {type(n) for n in again.nodes} == {EntityNode}
    assert {type(e) for e in again.edges} == {RelationEdge}
    assert {type(ev) for evs in again.events.values() for ev in evs} == {EntityEvent}
    assert [type(getattr(again, name)) for name in ("frames", "nodes", "edges")] == [tuple, NodeTable, EdgeTable]
    assert type(again.events) is MappingProxyType and {type(evs) for evs in again.events.values()} == {tuple}
    with pytest.raises(TypeError):
        again.events[0] = again.events[0]
    assert serialize(again) == serialize(g)


@pytest.mark.parametrize(
    "raw", [[0, 0, float("inf"), 1], [0, 0, 1, float("inf")], [0, float("-inf"), 1, 1], [0, 0, float("nan"), 1]]
)
def test_parse_box_rejects_a_coordinate_that_is_not_finite(raw):
    with pytest.raises(ValueError, match="all finite"):
        parse_box(raw, "box")


def test_parsed_boxes_and_reloaded_edges_equal_directly_built_ones():
    assert parse_box([1, 2, 3, 4], "box") == BoundingBox(1.0, 2.0, 3.0, 4.0)
    g = small_graph()
    again = deserialize(serialize(g))
    assert len(again.edges) == len(g.edges) and set(again.edges) == set(g.edges)
    assert [n.box for n in again.nodes] == [n.box for n in sorted(g.nodes, key=lambda n: (n.frame_index, n.entity_id))]
