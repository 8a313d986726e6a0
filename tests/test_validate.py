"""``validate``'s rule passes over the columns against the record walk they replaced, and loading against
``validate``: a graph document loads exactly when its graph keeps every rule of ``LOAD_RULES``, and is refused
with the first violation's message and field otherwise."""

import json
from bisect import bisect_left, bisect_right
from itertools import chain
from math import inf, isfinite, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravu.config import RavuConfig
from ravu.errors import ParseError
from ravu.evaluate import build_video
from ravu.graph_model import (
    LINE_BREAK,
    LINE_BREAKS,
    LOAD_RULES,
    REQUIRED_ATTRIBUTES,
    BoundingBox,
    EntityEvent,
    EntityNode,
    FrameRecord,
    RelationEdge,
    SpatioTemporalGraph,
    Violation,
    deserialize,
    serialize,
    validate,
)
from ravu.synth import synth_world

from conftest import by_rule, event_rule_graphs, loadable_graphs, mock_backend, rows


def record_validate(graph):
    """``validate`` as a walk of the graph's records, one frame, node, edge and event at a time.

    It is the walk ``validate`` was before its rules became passes over the
    columns, with three changes: the details of the load rules are the
    messages ``deserialize`` raises, ``event-span`` holds every event, of a
    known entity or not, to the frames of the video, and the text fields are
    searched for line breaks one record at a time.
    """
    last = len(graph.frames) - 1
    out = [Violation("line-break", f"{owner} has a line break in its {name}") for owner, name in line_breaks(graph)]
    # A NaN fails the comparison too, and JSON has no token for NaN or infinity.
    if not (0 < graph.fps < inf):
        out.append(Violation("fps-finite", f"fps must be finite and > 0, found {graph.fps}"))

    for i, frame in enumerate(graph.frames):
        if frame.frame_index != i:
            out.append(Violation("frame-index-dense",
                                 f"frame {frame.frame_index}: frame indices must be 0..{last}, each once"))
        # A NaN fails every order check below, and JSON has no token for NaN or infinity.
        if not isfinite(frame.timestamp_s):
            out.append(Violation("timestamp-finite", f"frame {i}: timestamp_s {frame.timestamp_s} is not finite"))
    for i, (prev, cur) in enumerate(zip(graph.frames, graph.frames[1:]), start=1):
        if cur.timestamp_s <= prev.timestamp_s:
            out.append(Violation("timestamp-order", f"frame {i}: timestamp_s {cur.timestamp_s} is not after frame "
                                 f"{i - 1}'s {prev.timestamp_s}"))

    nodes_by_frame: dict[int, set[int]] = {}
    appearance: dict[int, list[int]] = {}  # each entity's frames, ascending: the graph holds nodes in frame order
    for node in graph.nodes:
        nodes_by_frame.setdefault(node.frame_index, set()).add(node.entity_id)
        appearance.setdefault(node.entity_id, []).append(node.frame_index)
        if not 0 <= node.frame_index < len(graph.frames):
            out.append(Violation("node-frame-unknown", f"node entity {node.entity_id} frame {node.frame_index} is not "
                                 f"in frames 0..{last}"))
        b = node.box
        if not (0 <= b.x_min < b.x_max < inf and 0 <= b.y_min < b.y_max < inf):
            out.append(Violation("box-invalid", f"entity {node.entity_id} frame {node.frame_index}"))
        for attr in REQUIRED_ATTRIBUTES:
            if attr not in node.attributes:
                out.append(
                    Violation("missing-attribute", f"entity {node.entity_id} frame {node.frame_index}: {attr}")
                )

    for edge in graph.edges:
        if edge.subject_id == edge.object_id:
            out.append(Violation("self-edge", f"frame {edge.frame_index} entity {edge.subject_id}"))
        present = nodes_by_frame.get(edge.frame_index, set())
        for endpoint in (edge.subject_id, edge.object_id):
            if endpoint not in present:
                out.append(
                    Violation("dangling-edge", f"frame {edge.frame_index} entity {endpoint}")
                )

    for entity_id, events in graph.events.items():
        inside = [0 <= ev.start_frame <= ev.end_frame <= last for ev in events]
        for i, (ev, ok) in enumerate(zip(events, inside)):
            if not ok:
                out.append(Violation("event-span", f"event {i} of entity {entity_id}: {ev.start_frame}..{ev.end_frame} "
                                     f"is not a span of frames 0..{last}"))
        if entity_id not in appearance:
            out.append(Violation("event-entity-unknown", f"entity {entity_id}"))
            continue
        frames_here = appearance[entity_id]
        # Spans are checked by arithmetic, never expanded. Events come by start frame, so one meets an earlier one
        # exactly when it starts by the furthest frame they reach, and the entity's frames in between are uncovered.
        reached, missing = -inf, []
        for ev, ok in zip(events, inside):
            if ev.entity_id != entity_id:
                out.append(Violation("event-entity-mismatch", f"entity {entity_id} holds event of {ev.entity_id}"))
            if not ok:
                continue
            start, end = ev.start_frame, ev.end_frame
            if start <= reached:
                out.append(Violation("event-overlap", f"entity {entity_id} [{start}..{end}]"))
            # The entity's frames ascend, each once: they hold all of start..end when end is end - start after start.
            i, n = bisect_left(frames_here, start), end - start
            if not (i + n < len(frames_here) and frames_here[i] == start and frames_here[i + n] == end):
                out.append(Violation("event-absent-frame", f"entity {entity_id} [{start}..{end}]"))
            missing += frames_here[bisect_right(frames_here, reached):i]
            reached = max(reached, end)
        for prev, cur in zip(events, events[1:]):
            if cur.start_frame <= prev.end_frame:
                out.append(Violation("event-order", f"entity {entity_id} at frame {cur.start_frame}"))
        # Coverage is only enforced once the entity has events at all, so
        # partially built graphs (pre-segmentation) still validate.
        missing += frames_here[bisect_right(frames_here, reached):]
        if events and missing:
            out.append(Violation("event-coverage", f"entity {entity_id} frames {missing}"))

    return out


def line_breaks(graph):
    """``(owner, field)`` of each text field that holds a line break: frame and node descriptions, node attributes
    (keys and values), edge relations and event summaries, in that order."""
    broken = lambda text: text is not None and LINE_BREAK.search(text)
    out = [(f"frame {f.frame_index}", "description") for f in graph.frames if broken(f.description)]
    for n in graph.nodes:
        owner = f"node entity {n.entity_id} frame {n.frame_index}"
        out += [(owner, "description")] if broken(n.description) else []
        out += [(owner, "attributes")] if any(map(broken, chain(n.attributes, n.attributes.values()))) else []
    out += [(f"edge frame {e.frame_index} {e.subject_id}->{e.object_id}", "relation")
            for e in graph.edges if broken(e.relation)]
    return out + [(f"event entity {ev.entity_id} [{ev.start_frame}..{ev.end_frame}]", "summary")
                  for evs in graph.events.values() for ev in evs if broken(ev.summary)]


# Small graphs that break every rule now and then: repeated or missing frame indices, non-finite timestamps, boxes
# and fps, nodes outside the frames or lacking attributes, self-edges, dangling edges, events of unknown entities
# or outside the video, and line breaks.
any_floats = st.one_of(st.floats(), st.sampled_from([0.0, 1.0, 2.0, 3.0, nan, inf, -inf]))
rule_breaking_graphs = st.builds(
    SpatioTemporalGraph,
    st.lists(st.builds(FrameRecord, st.integers(-1, 4), any_floats, st.sampled_from(["a frame", "a\nframe"])),
             max_size=4),
    st.lists(st.builds(EntityNode, st.integers(0, 3), st.integers(-1, 4),
                       st.dictionaries(st.sampled_from([*REQUIRED_ATTRIBUTES, "color"]),
                                       st.sampled_from(["x", "x\r"])),
                       st.builds(BoundingBox, any_floats, any_floats, any_floats, any_floats),
                       st.one_of(st.none(), st.sampled_from(["d", "d\u2028"]))),
             max_size=6, unique_by=lambda n: (n.entity_id, n.frame_index)),
    st.lists(st.builds(RelationEdge, st.integers(-1, 4), st.integers(0, 4), st.sampled_from(["near", "near\n"]),
                       st.integers(0, 4)), max_size=5),
    st.dictionaries(st.integers(0, 4), st.lists(st.builds(
        EntityEvent, st.integers(0, 4), st.integers(-1, 5), st.integers(-1, 5), st.sampled_from(["e", "\ve"])
    ), max_size=3), max_size=3),
    any_floats,
)


@settings(max_examples=300)
@given(st.one_of(loadable_graphs(), event_rule_graphs(), rule_breaking_graphs))
def test_validate_equals_the_record_walk_rule_by_rule(graph):
    violations = validate(graph)
    assert violations == by_rule(violations)
    assert violations == by_rule(record_validate(graph))


def test_validate_of_a_loaded_600_frame_graph_makes_no_node_record():
    world = synth_world(1, 600, 8)
    built = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig()).graph
    graph = deserialize(serialize(built))
    assert validate(graph) == [] and graph.nodes._views is None
    assert record_validate(graph) == []


def graph_of(doc):
    """The graph that ``doc``, a graph document's JSON value, describes, made from records: no rule is checked."""
    states = rows(doc["states"])
    return SpatioTemporalGraph(
        [FrameRecord(f["frame_index"], f["timestamp_s"], f["description"], f["source_ref"])
         for f in rows(doc["frames"])],
        [EntityNode(n["entity_id"], n["frame_index"], states[n["state"]]["attributes"], BoundingBox(*n["box"]),
                    states[n["state"]]["description"]) for n in rows(doc["nodes"])],
        [RelationEdge(e["frame_index"], e["subject_id"], doc["relations"][e["relation"]], e["object_id"])
         for e in rows(doc["edges"])],
        {int(key): [EntityEvent(int(key), ev["start_frame"], ev["end_frame"], ev["summary"]) for ev in rows(events)]
         for key, events in doc["events"].items()},
        doc["fps"],
    )


def edit_frame(column, values):
    """An edit setting one frame's ``column`` to a value drawn from ``values``, a function of the column."""
    def edit(doc, draw):
        entries = doc["frames"][column]
        entries[draw(st.integers(0, len(entries) - 1))] = draw(values(entries))
    return edit


def edit_node_frame(doc, draw):
    """Move one node to a frame near or past the video's ends, where its entity has no node yet."""
    nodes = doc["nodes"]
    row = draw(st.integers(0, len(nodes["state"]) - 1))
    entity_id, n_frames = nodes["entity_id"][row], len(doc["frames"]["frame_index"])
    taken = {f for e, f in zip(nodes["entity_id"], nodes["frame_index"]) if e == entity_id}
    nodes["frame_index"][row] = draw(st.integers(-3, n_frames + 2).filter(lambda f: f not in taken))


def edit_event(doc, draw):
    """Set one event's start or end frame to a frame near or past the video's ends."""
    events = doc["events"][draw(st.sampled_from(sorted(doc["events"])))]
    column = events[draw(st.sampled_from(["start_frame", "end_frame"]))]
    column[draw(st.integers(0, len(column) - 1))] = draw(st.integers(-3, len(doc["frames"]["frame_index"]) + 2))


def edit_text(doc, draw):
    """Put a character, a line break or not, into one text field that loading checks for line breaks."""
    char = draw(st.sampled_from([*LINE_BREAKS, "\t", "\u2027", "x"]))
    texts = draw(st.sampled_from([doc["frames"]["description"], doc["states"]["description"], doc["relations"],
                                  doc["events"]["0"]["summary"]]))
    row = draw(st.integers(0, len(texts) - 1))
    texts[row] = char + texts[row]


# For each rule of ``LOAD_RULES``, a one-edit change to a built document that often breaks it and sometimes not.
ONE_EDITS = {
    "fps-finite": lambda doc, draw: doc.update(fps=draw(st.sampled_from([0.0, -1.0, nan, inf, -inf, 1e-300, 30.0]))),
    "frame-index-dense": edit_frame("frame_index", lambda entries: st.integers(-2, len(entries) + 1)),
    "timestamp-finite": edit_frame("timestamp_s", lambda entries: st.sampled_from([nan, inf, -inf, 1.0])),
    "timestamp-order": edit_frame("timestamp_s", lambda entries: st.floats(-1.0, len(entries) + 1.0)),
    "node-frame-unknown": edit_node_frame,
    "event-span": edit_event,
    "line-break": edit_text,
}


@pytest.fixture(scope="module")
def built_document():
    world = synth_world(1, 24, 3)
    return serialize(build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig()).graph)


def test_every_load_rule_has_its_one_edit():
    assert set(ONE_EDITS) == LOAD_RULES


@pytest.mark.parametrize("rule", sorted(ONE_EDITS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_deserialize_refuses_a_one_edit_document_exactly_when_validate_reports_a_load_rule(built_document, rule, data):
    doc = json.loads(built_document)
    ONE_EDITS[rule](doc, data.draw)
    graph = graph_of(doc)
    broken = [v for v in validate(graph) if v.rule in LOAD_RULES]
    # A frame's new index or timestamp can also put the timestamps out of order.
    assert {v.rule for v in broken} <= {rule, "timestamp-order"}
    if broken:
        with pytest.raises(ParseError) as exc:
            deserialize(json.dumps(doc))
        assert (str(exc.value), exc.value.field) == (broken[0].detail, broken[0].field)
    else:
        assert deserialize(json.dumps(doc)) == graph


def test_a_graph_built_from_observations_without_body_pose_round_trips():
    """Ingestion takes an entity without ``body_pose``, so a build writes a graph that breaks missing-attribute at
    every node; that rule is not a load rule, so loading gives the graph back."""
    world = synth_world(1, 24, 3)
    frames = [json.loads(line) for line in world.observations_text.splitlines()]
    for frame in frames:
        for entity in frame["entities"]:
            del entity["attributes"]["body_pose"]
    observations = "".join(json.dumps(frame) + "\n" for frame in frames)
    graph = build_video(observations, world.tracklets_text, mock_backend(), RavuConfig()).graph
    assert validate(graph) == [
        Violation("missing-attribute", f"entity {n.entity_id} frame {n.frame_index}: body_pose") for n in graph.nodes
    ]
    document = serialize(graph)
    again = deserialize(document)
    assert again == graph and serialize(again) == document
