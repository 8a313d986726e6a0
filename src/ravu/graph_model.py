"""Core domain types for the spatio-temporal video graph.

A video is a sequence of frames; each frame holds entity nodes (attributes
plus a bounding box) and relation edges between entities of that frame.
Temporal linkage is implicit: nodes sharing an ``entity_id`` across frames
are the same entity. Per-entity events chunk an entity's frames into
contiguous behavioral segments.

A graph and every record in it are immutable, except a node's ``attributes``
dict, which nothing changes once the node is made: in a loaded graph, the
nodes of one state (one attributes dict and description) share one attributes
dict. The records ``BoundingBox``, ``EntityNode``, ``RelationEdge``,
``FrameRecord`` and ``EntityEvent`` are named tuples, changed by making a new
one with ``._replace``; a graph is a frozen dataclass, changed by making a new
one with ``dataclasses.replace``. A graph holds ``frames``, ``nodes`` and
``edges`` as tuples and ``events`` as a read-only mapping of tuples, whatever
sequences it was given, each in one order: frames by index, nodes by (frame,
entity), edges by (frame, subject, object, relation), and events by entity,
each entity's by (start frame, end frame, summary). A field already in its
order is kept as it is and any other is sorted stably; a node key
``(entity_id, frame_index)`` listed twice raises ValueError. Every reader
relies on these orders. The lookups (``nodes_in_frame``, ``entity_ids``,
``entity_timeline``, ``node_edges`` and ``entity_descriptions``) read tables
that the graph builds from its fields at their first use and keeps for its
lifetime. A graph is safe for concurrent reads.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
from math import inf, isfinite
from operator import attrgetter, index, lt
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import MALFORMED, NotFound, ParseError, integer, json_object

REQUIRED_ATTRIBUTES = ("appearance", "action", "body_pose")
# What ``str.splitlines`` splits at: every backend payload is line-oriented.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
LINE_BREAK = re.compile(f"[{LINE_BREAKS}]")
# An entity mention in description text, its ID the group, and what ends a sentence.
MENTION = re.compile(r"\[E(\d+)\]")
SENTENCE_END = re.compile(r"[.!?]")


class BoundingBox(NamedTuple):
    """Axis-aligned box in frame pixel coordinates, xyxy; valid when finite, non-negative and non-empty."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def is_valid(self) -> bool:
        return 0 <= self.x_min < self.x_max < inf and 0 <= self.y_min < self.y_max < inf


class EntityNode(NamedTuple):
    """One entity observed in one frame, with a video-consistent ID."""

    entity_id: int
    frame_index: int
    attributes: dict[str, str]
    box: BoundingBox
    description: str | None = None


class RelationEdge(NamedTuple):
    """Directed relation between two entities within a single frame."""

    frame_index: int
    subject_id: int
    relation: str
    object_id: int


class FrameRecord(NamedTuple):
    frame_index: int
    timestamp_s: float
    description: str
    source_ref: str = ""


class EntityEvent(NamedTuple):
    """Contiguous frame span of one entity sharing a behavior."""

    entity_id: int
    start_frame: int
    end_frame: int
    summary: str


@dataclass(frozen=True)
class SpatioTemporalGraph:
    frames: tuple[FrameRecord, ...] = ()
    nodes: tuple[EntityNode, ...] = ()
    edges: tuple[RelationEdge, ...] = ()
    events: Mapping[int, tuple[EntityEvent, ...]] = field(default_factory=dict)
    fps: float = 1.0

    def __post_init__(self):
        vars(self).update(
            frames=tuple(sorted(self.frames, key=attrgetter("frame_index"))),
            nodes=_in_node_order(self.nodes),
            edges=tuple(sorted(self.edges, key=attrgetter("frame_index", "subject_id", "object_id", "relation"))),
            events=MappingProxyType({k: tuple(sorted(self.events[k], key=_EVENT_KEY))
                                     for k in sorted(self.events)}),
        )

    def __reduce__(self):
        # A mappingproxy does not pickle, so pickle and deepcopy make the graph again from its fields.
        return SpatioTemporalGraph, (self.frames, self.nodes, self.edges, dict(self.events), self.fps)

    @cached_property
    def _by_frame(self) -> dict[int, list[EntityNode]]:
        """Nodes per frame, in entity order."""
        return {f: list(nodes) for f, nodes in groupby(self.nodes, attrgetter("frame_index"))}

    @cached_property
    def _timeline(self) -> dict[int, list[EntityNode]]:
        """Nodes per entity, keys in entity order, each in frame order."""
        timeline: dict[int, list[EntityNode]] = {}
        for n in self.nodes:
            timeline.setdefault(n.entity_id, []).append(n)
        return dict(sorted(timeline.items()))

    @cached_property
    def _edges_at(self) -> dict[tuple[int, int], list[RelationEdge]]:
        """Edges per node key ``(entity_id, frame_index)``, in the graph's edge order; a self-edge is listed once."""
        edges_at: dict[tuple[int, int], list[RelationEdge]] = {(n.entity_id, n.frame_index): [] for n in self.nodes}
        for e in self.edges:
            for entity_id in {e.subject_id, e.object_id}:
                bucket = edges_at.get((entity_id, e.frame_index))
                if bucket is not None:
                    bucket.append(e)
        return edges_at

    @cached_property
    def _descriptions(self) -> DescriptionTable:
        return DescriptionTable(self._timeline)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def entity_ids(self) -> list[int]:
        return list(self._timeline)

    def nodes_in_frame(self, frame_index: int) -> list[EntityNode]:
        return list(self._by_frame.get(frame_index, ()))


_NODE_KEY = attrgetter("frame_index", "entity_id")
_EVENT_KEY = attrgetter("start_frame", "end_frame", "summary")


def _in_node_order(nodes: Sequence[EntityNode]) -> tuple[EntityNode, ...]:
    """``nodes`` as a tuple, stably sorted into (frame, entity) order unless its keys already ascend strictly.

    A key listed twice raises ValueError naming the first repeated key in that order.
    """
    keys = list(map(_NODE_KEY, nodes))
    if all(map(lt, keys, keys[1:])):
        return tuple(nodes)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for i, j in zip(order, order[1:]):
        if keys[i] == keys[j]:
            frame_index, entity_id = keys[i]
            raise ValueError(f"graph lists node entity {entity_id} frame {frame_index} twice")
    return tuple([nodes[i] for i in order])


class DescriptionTable:
    """Each entity's distinct node descriptions, for matching words against.

    ``entities`` maps each entity (in entity order) to its distinct
    descriptions in timeline order, a missing one read as ``""``, and to
    their lowercased join, which holds every word of any of them as a
    substring. ``word_sets`` is a memo from a description to its normalised
    word set, filled by whoever tokenises the description first; two readers
    that tokenise one description at once store equal sets, so the memo
    needs no lock.
    """

    def __init__(self, timeline: dict[int, list[EntityNode]]):
        self.entities: dict[int, tuple[list[str], str]] = {}
        for entity_id, nodes in timeline.items():
            texts = list(dict.fromkeys([n.description or "" for n in nodes]))
            self.entities[entity_id] = (texts, "\n".join(texts).lower())
        self.word_sets: dict[str, set[str]] = {}


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str


def validate(graph: SpatioTemporalGraph) -> list[Violation]:
    """Check every structural invariant; an empty report means valid.

    Violations are data, not errors: callers decide whether to raise.
    The ``line-break`` rule reports ``line_break_fields``, which ``deserialize``
    raises from. No rule looks for a repeated node: a graph cannot hold one.
    Every rule reads the fields in the graph's orders: frames by index, events by start frame.
    """
    out = [Violation("line-break", f"{owner} {name}") for owner, name in line_break_fields(graph)]
    # A NaN fails the comparison too, and JSON has no token for NaN or infinity.
    if not (0 < graph.fps < inf):
        out.append(Violation("fps-finite", f"fps {graph.fps}"))

    for i, frame in enumerate(graph.frames):
        if frame.frame_index != i:
            out.append(Violation("frame-index-dense", f"position {i} has index {frame.frame_index}"))
        # A NaN fails every order check below, and JSON has no token for NaN or infinity.
        if not isfinite(frame.timestamp_s):
            out.append(Violation("timestamp-finite", f"frame {frame.frame_index}"))
    for prev, cur in zip(graph.frames, graph.frames[1:]):
        if cur.timestamp_s <= prev.timestamp_s:
            out.append(Violation("timestamp-order", f"frame {cur.frame_index}"))

    nodes_by_frame: dict[int, set[int]] = {}
    appearance: dict[int, list[int]] = {}  # each entity's frames, ascending: the graph holds nodes in frame order
    for node in graph.nodes:
        nodes_by_frame.setdefault(node.frame_index, set()).add(node.entity_id)
        appearance.setdefault(node.entity_id, []).append(node.frame_index)
        if not 0 <= node.frame_index < len(graph.frames):
            out.append(Violation("node-frame-unknown", f"entity {node.entity_id} frame {node.frame_index}"))
        if not node.box.is_valid():
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
        if entity_id not in appearance:
            out.append(Violation("event-entity-unknown", f"entity {entity_id}"))
            continue
        frames_here = appearance[entity_id]
        # Spans are checked by arithmetic, never expanded. Events come by start frame, so one meets an earlier one
        # exactly when it starts by the furthest frame they reach, and the entity's frames in between are uncovered.
        reached, missing = -inf, []
        for ev in events:
            if ev.entity_id != entity_id:
                out.append(Violation("event-entity-mismatch", f"entity {entity_id} holds event of {ev.entity_id}"))
            start, end = ev.start_frame, ev.end_frame
            if start > end:
                out.append(Violation("event-span", f"entity {entity_id} [{start}..{end}]"))
                continue
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


def line_break_fields(graph: SpatioTemporalGraph) -> Iterator[tuple[str, str]]:
    """Each text field that holds a line break, as ``(owner, field)``.

    The fields are frame and node descriptions, node attributes (keys and
    values), edge relations and event summaries, walked in that order.
    """
    frames, nodes, edges = graph.frames, graph.nodes, graph.edges
    events = list(chain.from_iterable(graph.events.values()))
    texts = "\0".join(chain(
        (f.description for f in frames),
        (n.description or "" for n in nodes),
        chain.from_iterable(chain(n.attributes, n.attributes.values()) for n in nodes),
        (e.relation for e in edges),
        (ev.summary for ev in events),
    ))
    # One substring scan per break of all the text is a fifth of a regex search per field.
    if not any(c in texts for c in LINE_BREAKS):
        return
    for f in frames:
        if LINE_BREAK.search(f.description):
            yield f"frame {f.frame_index}", "description"
    for n in nodes:
        owner = f"node entity {n.entity_id} frame {n.frame_index}"
        if n.description is not None and LINE_BREAK.search(n.description):
            yield owner, "description"
        if any(map(LINE_BREAK.search, chain(n.attributes, n.attributes.values()))):
            yield owner, "attributes"
    for e in edges:
        if LINE_BREAK.search(e.relation):
            yield f"edge frame {e.frame_index} {e.subject_id}->{e.object_id}", "relation"
    for ev in events:
        if LINE_BREAK.search(ev.summary):
            yield f"event entity {ev.entity_id} [{ev.start_frame}..{ev.end_frame}]", "summary"


def entity_timeline(graph: SpatioTemporalGraph, entity_id: int) -> list[EntityNode]:
    """All nodes of one entity, ordered by frame index."""
    nodes = graph._timeline.get(entity_id)
    if not nodes:
        raise NotFound(f"entity {entity_id} not in graph")
    return list(nodes)


def node_edges(graph: SpatioTemporalGraph, entity_id: int, frame_index: int) -> list[RelationEdge]:
    """Edges of the given frame that touch the given entity."""
    edges = graph._edges_at.get((entity_id, frame_index))
    if edges is None:
        raise NotFound(f"no node for entity {entity_id} in frame {frame_index}")
    return list(edges)


def entity_descriptions(graph: SpatioTemporalGraph) -> DescriptionTable:
    """The graph's description table, built at the first call; see ``DescriptionTable``."""
    return graph._descriptions


# The graph document, format 2, is ``json.dumps`` of the graph's fields as
# columns, with sorted keys and compact separators, so CPython writes it with
# its C encoder. A node's attributes and description are written once per
# distinct pair, as a row of ``states``, and a relation once, as a row of
# ``relations``; nodes and edges give the row's number. ``operator.index`` and
# ``str.__str__`` hold the int and text fields to their types, writing a
# boolean as 1 or 0, and ``_floats`` keeps out the non-finite floats JSON has
# no token for.
FORMAT = 2
_text = str.__str__


def _floats(values) -> list[float]:
    """``float()`` of each value; a non-finite one raises ValueError, as JSON has no token for it."""
    floats = list(map(float, values))
    if not all(map(isfinite, floats)):
        value = next(v for v in floats if not isfinite(v))
        raise ValueError(f"the graph document cannot hold the non-finite float {value}")
    return floats


def _columns(records: Sequence[tuple], width: int) -> list[tuple]:
    """The columns of ``records``, named tuples of ``width`` fields."""
    return list(zip(*records)) if records else [()] * width


def _numbered(values: Iterable) -> tuple[dict, list[int]]:
    """Each distinct value numbered in first-seen order, and the number of each value."""
    numbers: dict = {}
    return numbers, [numbers.setdefault(v, len(numbers)) for v in values]


def serialize(graph: SpatioTemporalGraph) -> str:
    """Canonical JSON document, on one line: equal graphs serialize byte-identically.

    Keys are sorted, frames, nodes, edges and each entity's events are listed
    in the orders the graph holds them in, and ``states`` and ``relations``
    are numbered in the order their first node or edge comes. Int and string
    fields must hold ints and strings, as the fields declare, or TypeError is
    raised; float fields take what ``float()`` takes, and a non-finite float
    raises ValueError.
    """
    frame_index, timestamp_s, description, source_ref = _columns(graph.frames, 4)
    entity_id, node_frame, attributes, boxes, node_description = _columns(graph.nodes, 5)
    # A dict does not hash, so a state is keyed by its attributes' items; ``json.dumps`` sorts them again.
    states, state = _numbered(zip(map(frozenset, map(dict.items, attributes)), node_description))
    edge_frame, subject_id, relation, object_id = _columns(graph.edges, 4)
    relations, relation_number = _numbered(relation)
    doc = {
        "format": FORMAT,
        "fps": _floats([graph.fps])[0],
        "frames": {"frame_index": list(map(index, frame_index)), "timestamp_s": _floats(timestamp_s),
                   "description": list(map(_text, description)), "source_ref": list(map(_text, source_ref))},
        "states": {
            "attributes": [{_text(k): _text(v) for k, v in items} for items, _ in states],
            "description": [None if text is None else _text(text) for _, text in states],
        },
        "nodes": {"entity_id": list(map(index, entity_id)), "frame_index": list(map(index, node_frame)),
                  "state": state, "box": _floats(chain.from_iterable(boxes))},
        "relations": list(map(_text, relations)),
        "edges": {"frame_index": list(map(index, edge_frame)), "subject_id": list(map(index, subject_id)),
                  "object_id": list(map(index, object_id)), "relation": relation_number},
        "events": {
            str(key): {"start_frame": [index(ev.start_frame) for ev in evs],
                       "end_frame": [index(ev.end_frame) for ev in evs],
                       "summary": [_text(ev.summary) for ev in evs]}
            for key, evs in graph.events.items()
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_box(raw, where: str, *args) -> BoundingBox:
    """Read an ``[x0, y0, x1, y1]`` box; a malformed one raises one of ``MALFORMED``.

    The error names the box's owner as ``where % args``, formatted only then.
    """
    if isinstance(raw, (list, tuple)) and len(raw) == 4:
        x_min, y_min, x_max, y_max = float(raw[0]), float(raw[1]), float(raw[2]), float(raw[3])
        # A NaN fails every comparison, and x0 < x1 < inf keeps x0 finite too.
        if 0 <= x_min < x_max < inf and 0 <= y_min < y_max < inf:
            return BoundingBox(x_min, y_min, x_max, y_max)
    raise ValueError(
        f"box of {where % args} must be [x0, y0, x1, y1] with 0 <= x0 < x1 and 0 <= y0 < y1, all finite"
    )


def parse_boxes(raws: list) -> tuple[np.ndarray, int]:
    """``parse_box`` over a list of raw boxes, checked as one array.

    Returns the boxes as an (n, 4) float64 array in xyxy layout, and
    ``n_ok``, the number of leading boxes that ``parse_box`` accepts; only
    those rows are read. When ``n_ok < len(raws)``, ``parse_box`` rejects
    ``raws[n_ok]``. JSON numbers (booleans included) convert in numpy as
    ``float()`` converts them; a box holding anything else, such as a
    string, null or an integer beyond uint64, makes the boxes go through
    ``parse_box`` one by one.
    """
    try:
        values = np.array(raws)
    except MALFORMED:  # boxes of different lengths
        values = np.empty(0)
    if values.shape == (len(raws), 4) and values.dtype.kind in "biuf":
        boxes = values.astype(np.float64, copy=False)
    else:
        rows = []
        for raw in raws:
            try:
                rows.append(parse_box(raw, ""))
            except MALFORMED:
                break
        boxes = np.array(rows, dtype=np.float64).reshape(-1, 4)
    x0, y0, x1, y1 = boxes.T
    # As in ``parse_box``: a NaN fails every comparison, and x0 < x1 < inf keeps x0 finite too.
    ok = (0 <= x0) & (x0 < x1) & (x1 < inf) & (0 <= y0) & (y0 < y1) & (y1 < inf)
    return boxes, len(ok) if ok.all() else int(ok.argmin())


def _table(table: dict, columns: tuple[str, ...], name: str, field: str | None = None) -> list[list]:
    """The ``columns`` of the table ``name``, each a list with one entry per row (``box`` four).

    A missing or non-list column raises one of ``MALFORMED``; columns of
    unequal length raise ParseError with ``field``, by default ``name``.
    """
    lists = [table[column] for column in columns]
    for column, values in zip(columns, lists):
        if type(values) is not list:
            raise TypeError(f"{name} column {column!r} must be a list")
    lengths = {len(values) / 4 if column == "box" else len(values) for column, values in zip(columns, lists)}
    if len(lengths) > 1:
        found = ", ".join(f"{column} {len(values)}" for column, values in zip(columns, lists))
        each = " (box four)" if "box" in columns else ""
        raise ParseError(f"{name} columns must hold one entry per row{each}, found {found}", field=field or name)
    return lists


def _integers(values: list, name: str, owner: str) -> list[int]:
    """``integer`` of each value; the first it rejects raises ParseError naming its row as ``owner % i``."""
    if set(map(type, values)) <= {int}:  # the common case, checked at C speed: documents hold thousands of IDs
        return values
    for i, value in enumerate(values):
        try:
            integer(value, name)
        except ParseError as exc:
            raise ParseError(f"{owner % i}: {exc}", field=name) from None
    return [integer(value, name) for value in values]


def _rows(values: list, name: str, owner: str, table: str, count: int) -> list[int]:
    """``_integers`` of row numbers into a table of ``count`` rows; one outside it raises ParseError."""
    values = _integers(values, name, owner)
    if values and not 0 <= min(values) <= max(values) < count:
        i = next(i for i, v in enumerate(values) if not 0 <= v < count)
        raise ParseError(f"{owner % i}: {name} {values[i]} is not a row of {table} 0..{count - 1}", field=name)
    return values


def _entity_key(key: str) -> int:
    """The entity ID an ``events`` key spells, as ``str(int)`` writes it; any other key raises ParseError."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ParseError(f"events key {key!r} is not an entity ID in plain decimal, such as '7' or '-1'", field="events")


def deserialize(document: str) -> SpatioTemporalGraph:
    """The graph a format-2 document holds; nodes of one state share one attributes dict.

    A malformed document, one of another format (format 1, which has no
    ``format`` key, included), columns of one table of unequal length, a
    state or relation number that is not a row of its table, an events key
    that is not an entity ID in plain decimal, an fps or a timestamp that
    is not finite (or an fps not > 0), frame indices that are not 0..n-1
    each once, a timestamp not after the previous frame's, a node listed
    twice or outside the video's frames, an event span outside them, or a
    line break in a text field raises ParseError. The document may list the
    rows of each table, and number its states and relations, in any order.
    """
    doc = json_object(document, "graph document")
    if "format" not in doc:
        raise ParseError("the graph document has no 'format', so it is format 1, which this version does not read; "
                         "re-run `ravu build` to rewrite it", field="format")
    if type(doc["format"]) is not int or doc["format"] != FORMAT:
        raise ParseError(f"the graph document is format {doc['format']!r}, and this version reads format {FORMAT} "
                         "only; re-run `ravu build` to rewrite it", field="format")
    for key in ("frames", "states", "nodes", "relations", "edges", "events", "fps"):
        if key not in doc:
            raise ParseError(f"missing key '{key}'", field=key)

    try:
        frame_index, timestamp_s, description, source_ref = _table(
            doc["frames"], ("frame_index", "timestamp_s", "description", "source_ref"), "frames")
        frames = list(map(FrameRecord, _integers(frame_index, "frame_index", "frame %s"), map(float, timestamp_s),
                          map(str, description), map(str, source_ref)))
        attributes, texts = _table(doc["states"], ("attributes", "description"), "states")
        attributes = [{str(k): str(v) for k, v in a.items()} for a in attributes]
        texts = [None if text is None else str(text) for text in texts]
        entity_id, node_frame, state, raw_boxes = _table(
            doc["nodes"], ("entity_id", "frame_index", "state", "box"), "nodes")
        entity_id = _integers(entity_id, "entity_id", "node %s")
        node_frame = _integers(node_frame, "frame_index", "node %s")
        state = _rows(state, "state", "node %s", "states", len(attributes))
        raw_boxes = list(zip(*[iter(raw_boxes)] * 4))  # the box column in fours, one per node
        boxes, n_ok = parse_boxes(raw_boxes)
        if n_ok < len(raw_boxes):
            parse_box(raw_boxes[n_ok], "node %s frame %s", entity_id[n_ok], node_frame[n_ok])
        nodes = list(map(EntityNode, entity_id, node_frame, map(attributes.__getitem__, state),
                         map(BoundingBox._make, boxes.tolist()), map(texts.__getitem__, state)))
        relations = doc["relations"]
        if type(relations) is not list:
            raise TypeError("relations must be a list")
        relations = list(map(str, relations))
        edge_frame, subject_id, object_id, relation = _table(
            doc["edges"], ("frame_index", "subject_id", "object_id", "relation"), "edges")
        edges = list(map(RelationEdge, _integers(edge_frame, "frame_index", "edge %s"),
                         _integers(subject_id, "subject_id", "edge %s"),
                         map(relations.__getitem__, _rows(relation, "relation", "edge %s", "relations", len(relations))),
                         _integers(object_id, "object_id", "edge %s")))
        events = {}
        for key, table in doc["events"].items():
            entity = _entity_key(key)
            owner = f"event %s of entity {key}"
            start, end, summary = _table(table, ("start_frame", "end_frame", "summary"), f"events of entity {key}",
                                         "events")
            events[entity] = list(map(EntityEvent, [entity] * len(start), _integers(start, "start_frame", owner),
                                      _integers(end, "end_frame", owner), map(str, summary)))
        fps = float(doc["fps"])
    except MALFORMED as exc:
        raise ParseError(f"malformed graph document: {exc}") from exc
    # ``validate``'s fps-finite rule, and below its timestamp-finite rule: json reads NaN, Infinity and 1e400 as floats.
    if not 0 < fps < inf:
        raise ParseError(f"fps must be finite and > 0, found {fps}", field="fps")
    try:
        graph = SpatioTemporalGraph(frames=frames, nodes=nodes, edges=edges, events=events, fps=fps)
    except ValueError as exc:  # a node listed twice
        raise ParseError(str(exc), field="nodes") from None
    last = len(frames) - 1
    # ``validate``'s frame-index-dense, timestamp-finite and timestamp-order rules: a reader takes frame f as frames[f].
    for i, f in enumerate(graph.frames):
        if f.frame_index != i:
            raise ParseError(f"frame {f.frame_index}: frame indices must be 0..{last}, each once", field="frame_index")
        if not isfinite(f.timestamp_s):
            raise ParseError(f"frame {i}: timestamp_s {f.timestamp_s} is not finite", field="timestamp_s")
        if i and not f.timestamp_s > graph.frames[i - 1].timestamp_s:
            raise ParseError(f"frame {i}: timestamp_s {f.timestamp_s} is not after frame {i - 1}'s "
                             f"{graph.frames[i - 1].timestamp_s}", field="timestamp_s")
    # In the graph's node order the first node holds the lowest frame and the last the highest.
    for n in graph.nodes[:1] + graph.nodes[-1:]:
        if not 0 <= n.frame_index <= last:
            raise ParseError(f"node entity {n.entity_id} frame {n.frame_index} is not in frames 0..{last}",
                             field="frame_index")
    for entity_id, evs in events.items():
        for i, ev in enumerate(evs):
            if not 0 <= ev.start_frame <= ev.end_frame <= last:  # sampling or validating would expand it
                raise ParseError(f"event {i} of entity {entity_id}: {ev.start_frame}..{ev.end_frame} is not a span "
                                 f"of frames 0..{last}", field="end_frame" if ev.end_frame > last else "start_frame")
    # A string holds a line break only as an escape or as a raw U+0085, U+2028 or U+2029: JSON forbids the others raw.
    if any(c in document for c in "\\\x85\u2028\u2029"):
        for owner, name in line_break_fields(graph):
            raise ParseError(f"{owner} has a line break in its {name}", field=name)
    return graph
