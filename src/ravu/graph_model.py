"""Core domain types for the spatio-temporal video graph.

A video is a sequence of frames; each frame holds entity nodes (attributes
plus a bounding box) and relation edges between entities of that frame.
Temporal linkage is implicit: nodes sharing an ``entity_id`` across frames
are the same entity. Per-entity events chunk an entity's frames into
contiguous behavioral segments.

A graph holds its nodes as columns (``NodeTable``): int64 entity and frame
columns, an (n, 4) float64 box array and a state column numbering each
node's row of a table of states, each an (attributes, description) pair,
the attributes a read-only mapping shared by the nodes of the state. Its
edges are columns too (``EdgeTable``): int64 frame, subject and object
columns and a relation column numbering a table of relation texts. Every
column is read-only. The records ``BoundingBox``, ``EntityNode``,
``RelationEdge``, ``FrameRecord`` and ``EntityEvent`` are named tuples; a
graph hands out an ``EntityNode`` or ``RelationEdge`` for a row at its
first access and keeps it, for the callers that walk one node or edge at a
time. A graph is a frozen dataclass, changed by making a new one with
``dataclasses.replace``; its constructor takes the tables or any sequences
of records, and holds ``frames`` as a tuple and ``events`` as a read-only
mapping of tuples. Nothing in a graph can be changed in place.

A graph holds each field in one order: frames by index, nodes by (frame,
entity), edges by (frame, subject, object, relation), and events by entity,
each entity's by (start frame, end frame, summary). A field already in its
order is kept as it is and any other is sorted stably; a node key
``(entity_id, frame_index)`` listed twice raises ValueError. Every reader
relies on these orders. ``nodes_in_frame`` and ``node_edges`` read slices
of the columns, found by binary search (``node_rows`` finds a node key's
row); ``entity_ids``, ``entity_timeline`` and ``entity_descriptions`` read
tables that the graph builds from its columns at their first use and keeps
for its lifetime. A graph is safe for concurrent reads.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import inf, isfinite
from operator import attrgetter, index
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
    """Axis-aligned box in frame pixel coordinates, xyxy; ``valid_boxes`` says whether it is valid."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float


def valid_boxes(boxes: np.ndarray) -> np.ndarray:
    """Whether each row of an (n, 4) xyxy array is a valid box: finite, non-negative and non-empty."""
    x0, y0, x1, y1 = boxes.T
    # A NaN fails every comparison, and x0 < x1 < inf keeps x0 finite too.
    return (0 <= x0) & (x0 < x1) & (x1 < inf) & (0 <= y0) & (y0 < y1) & (y1 < inf)


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


def _ascending(keys: Sequence[np.ndarray], strict: bool) -> bool:
    """Whether the rows ascend by ``keys``, the first key major; ``strict`` refuses two rows of equal keys."""
    ok = np.full(max(len(keys[0]) - 1, 0), not strict)
    for key in reversed(keys):
        ok = (key[:-1] < key[1:]) | ((key[:-1] == key[1:]) & ok)
    return bool(ok.all())


def first_seen(numbers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct number, ascending, and each row's place among them, counting from 0."""
    _, firsts, inverse = np.unique(numbers, return_index=True, return_inverse=True)
    order = np.argsort(firsts)
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    return firsts[order], place[inverse.reshape(-1)]


def _int64(values: Sequence[int], owner) -> np.ndarray:
    """``values`` as an int64 column; one outside int64 raises ValueError naming its row as ``owner(i)``."""
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        i = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise ValueError(f"{owner(i)} has an ID outside int64") from None


def _read_only(*columns: np.ndarray) -> None:
    for column in columns:
        column.flags.writeable = False


def _canonical(keys: Iterable, column: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct ``keys`` that the rows of ``column`` number, in the order of their first row, and each
    row's number among them: a table as the graph document writes it."""
    distinct, number = _numbered(keys)
    numbers = np.array(number, dtype=np.intp)[column]
    firsts, place = first_seen(numbers)
    distinct = list(distinct)
    return [distinct[k] for k in numbers[firsts].tolist()], place


class NodeTable(Sequence[EntityNode]):
    """A graph's nodes as columns, in (frame, entity) order, each ``(entity_id, frame_index)`` key once.

    ``entity`` and ``frame`` are int64, ``box`` is an (n, 4) float64 array
    in xyxy layout, and ``state`` (intp) numbers each row's state: its
    attributes, ``attributes[state[i]]``, a read-only mapping, and its
    description, ``descriptions[state[i]]``, a text or None. Every column
    is read-only, and the nodes of one state share its mapping. A loaded
    graph lists each distinct state once, and so do an ingested and a built
    one, but for attribute sets that differ in key order alone; ``of``
    gives each node a state of its own.
    Row ``i`` reads as an ``EntityNode`` made at its first access and kept,
    so every reader of the row gets the same record (two threads that read a
    fresh row at once may each make one; the two are equal).

    The constructor adopts the columns, in any row order, and sorts them
    stably; a key listed twice raises ValueError naming the first repeated
    key in that order. ``NodeTable.of`` makes the table of ``EntityNode``
    records, one state per node.
    """

    def __init__(self, entity, frame, box, state, attributes: Sequence[Mapping], descriptions: Sequence):
        entity, frame = np.asarray(entity, dtype=np.int64), np.asarray(frame, dtype=np.int64)
        box, state = np.asarray(box, dtype=np.float64).reshape(-1, 4), np.asarray(state, dtype=np.intp)
        if not _ascending((frame, entity), strict=True):
            order = np.lexsort((entity, frame))
            entity, frame, box, state = entity[order], frame[order], box[order], state[order]
            repeats = np.flatnonzero((frame[1:] == frame[:-1]) & (entity[1:] == entity[:-1]))
            if len(repeats):
                i = repeats[0]
                raise ValueError(f"graph lists node entity {entity[i]} frame {frame[i]} twice")
        _read_only(entity, frame, box, state)
        self.entity, self.frame, self.box, self.state = entity, frame, box, state
        self.attributes = tuple(a if type(a) is MappingProxyType else MappingProxyType(a) for a in attributes)
        self.descriptions = tuple(descriptions)
        self._views: list[EntityNode | None] | None = None

    @classmethod
    def of(cls, nodes: Iterable[EntityNode]) -> NodeTable:
        """The table of ``nodes``, each its own state with a copy of its attributes.

        An ID that is not an int (a bool reads as one) raises TypeError, and
        one outside int64 ValueError.
        """
        nodes = list(nodes)
        entity, frame, attributes, boxes, descriptions = _columns(nodes, 5)
        ids = list(map(index, entity)), list(map(index, frame))
        entity, frame = (_int64(column, lambda i: f"node entity {ids[0][i]} frame {ids[1][i]}") for column in ids)
        return cls(entity, frame, np.array(boxes, dtype=np.float64).reshape(-1, 4), np.arange(len(nodes)),
                   [MappingProxyType(dict(a)) for a in attributes], descriptions)

    def __len__(self) -> int:
        return len(self.state)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._all()[i])
        views = self._views
        if views is None:
            views = self._views = [None] * len(self)
        view = views[i]
        if view is None:
            s = self.state[i]
            view = views[i] = EntityNode(int(self.entity[i]), int(self.frame[i]), self.attributes[s],
                                         BoundingBox._make(self.box[i].tolist()), self.descriptions[s])
        return view

    def __iter__(self) -> Iterator[EntityNode]:
        return iter(self._all())

    def _all(self) -> list[EntityNode]:
        """Every row's record, made at once for the rows no reader has read yet."""
        views = self._views
        if views is None or None in views:
            state = self.state.tolist()
            made = map(EntityNode, self.entity.tolist(), self.frame.tolist(), map(self.attributes.__getitem__, state),
                       map(BoundingBox._make, self.box.tolist()), map(self.descriptions.__getitem__, state))
            views = self._views = list(made) if views is None else [v or m for v, m in zip(views, made)]
        return views

    def canonical(self) -> tuple[list[tuple[frozenset, str | None]], np.ndarray]:
        """The distinct states as ``(attribute items, description)``, in the order of their first row,
        and each row's number among them: what the graph document writes."""
        return _canonical(zip(map(frozenset, (a.items() for a in self.attributes)), self.descriptions), self.state)

    def __eq__(self, other):
        if not isinstance(other, NodeTable):
            return NotImplemented
        mine, theirs = self.canonical(), other.canonical()
        return (np.array_equal(self.entity, other.entity) and np.array_equal(self.frame, other.frame)
                and np.array_equal(self.box, other.box) and mine[0] == theirs[0] and np.array_equal(mine[1], theirs[1]))

    def __reduce__(self):
        # A mappingproxy does not pickle, so pickle and deepcopy hand each state's attributes over as a dict.
        return NodeTable, (self.entity, self.frame, self.box, self.state, list(map(dict, self.attributes)),
                           self.descriptions)

    def __repr__(self) -> str:
        return f"NodeTable({len(self)} nodes, {len(self.descriptions)} states)"


class NodeRows(Sequence[EntityNode]):
    """Some rows of a ``NodeTable``, in the order of ``rows`` (intp), read as the table's records."""

    def __init__(self, table: NodeTable, rows: np.ndarray):
        _read_only(rows)
        self.table, self.rows = table, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self.table[i] for i in self.rows[k].tolist()]
        return self.table[self.rows[k]]

    def __iter__(self) -> Iterator[EntityNode]:
        return map(self.table.__getitem__, self.rows.tolist())


def node_rows(nodes: NodeTable, entity: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The row of the node ``(entity[k], frame[k])`` for each ``k``, or -1 where ``nodes`` has none."""
    # The rows ascend by (frame, entity): each key's frame bounds a run of rows, halved by entity, for all keys at once.
    lo, end = nodes.frame.searchsorted(frame), nodes.frame.searchsorted(frame, "right")
    hi = end
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        below = open_ & (nodes.entity[np.where(open_, mid, 0)] < entity)
        lo, hi = np.where(below, mid + 1, lo), np.where(open_ & ~below, mid, hi)
    found = lo < end
    found[found] = nodes.entity[lo[found]] == entity[found]
    return np.where(found, lo, -1)


class EdgeTable(Sequence[RelationEdge]):
    """A graph's edges as columns, in (frame, subject, object, relation) order.

    ``frame``, ``subject`` and ``object`` are int64, and ``relation`` (intp)
    numbers each row's relation text in ``relations``. Every column is
    read-only. Row ``i`` reads as a ``RelationEdge`` made at its first
    access and kept; ``EdgeTable.of`` keeps the records it is given.
    The constructor adopts the columns, in any row order, and sorts them
    stably; one edge may be listed more than once.
    """

    def __init__(self, frame, subject, object_, relation, relations: Sequence,
                 views: list[RelationEdge] | None = None):
        frame, subject, object_ = (np.asarray(c, dtype=np.int64) for c in (frame, subject, object_))
        relation = np.asarray(relation, dtype=np.intp)
        place = {text: k for k, text in enumerate(sorted(set(relations)))}
        keys = (frame, subject, object_, np.array([place[text] for text in relations], dtype=np.intp)[relation])
        if not _ascending(keys, strict=False):
            order = np.lexsort(keys[::-1])
            frame, subject, object_, relation = frame[order], subject[order], object_[order], relation[order]
            views = None if views is None else [views[i] for i in order.tolist()]
        _read_only(frame, subject, object_, relation)
        self.frame, self.subject, self.object, self.relation = frame, subject, object_, relation
        self.relations = tuple(relations)
        self._views = views

    @classmethod
    def of(cls, edges: Iterable[RelationEdge]) -> EdgeTable:
        """The table of ``edges``, keeping them as its records. An ID that is not an int raises TypeError."""
        edges = list(edges)
        frame, subject, relation, object_ = _columns(edges, 4)
        relations, number = _numbered(relation)
        owner = lambda i: f"edge frame {edges[i].frame_index} {edges[i].subject_id}->{edges[i].object_id}"
        return cls(*(_int64(list(map(index, c)), owner) for c in (frame, subject, object_)), number, list(relations),
                   edges)

    def __len__(self) -> int:
        return len(self.relation)

    def __getitem__(self, i):
        return self._all()[i]

    def __iter__(self) -> Iterator[RelationEdge]:
        return iter(self._all())

    def _all(self) -> list[RelationEdge]:
        if self._views is None:
            self._views = list(map(RelationEdge, self.frame.tolist(), self.subject.tolist(),
                                   map(self.relations.__getitem__, self.relation.tolist()), self.object.tolist()))
        return self._views

    def canonical(self) -> tuple[list, np.ndarray]:
        """The distinct relations in the order of their first row, and each row's number among them."""
        return _canonical(self.relations, self.relation)

    def __eq__(self, other):
        if not isinstance(other, EdgeTable):
            return NotImplemented
        mine, theirs = self.canonical(), other.canonical()
        return (np.array_equal(self.frame, other.frame) and np.array_equal(self.subject, other.subject)
                and np.array_equal(self.object, other.object) and mine[0] == theirs[0]
                and np.array_equal(mine[1], theirs[1]))

    def __reduce__(self):
        return EdgeTable, (self.frame, self.subject, self.object, self.relation, self.relations)

    def __repr__(self) -> str:
        return f"EdgeTable({len(self)} edges, {len(self.relations)} relations)"


@dataclass(frozen=True)
class SpatioTemporalGraph:
    frames: tuple[FrameRecord, ...] = ()
    nodes: NodeTable = ()
    edges: EdgeTable = ()
    events: Mapping[int, tuple[EntityEvent, ...]] = field(default_factory=dict)
    fps: float = 1.0

    def __post_init__(self):
        vars(self).update(
            frames=tuple(sorted(self.frames, key=attrgetter("frame_index"))),
            nodes=self.nodes if isinstance(self.nodes, NodeTable) else NodeTable.of(self.nodes),
            edges=self.edges if isinstance(self.edges, EdgeTable) else EdgeTable.of(self.edges),
            events=MappingProxyType({k: tuple(sorted(self.events[k], key=_EVENT_KEY))
                                     for k in sorted(self.events)}),
        )

    def __reduce__(self):
        # A mappingproxy does not pickle, so pickle and deepcopy make the graph again from its fields.
        return SpatioTemporalGraph, (self.frames, self.nodes, self.edges, dict(self.events), self.fps)

    @cached_property
    def _timeline(self) -> dict[int, NodeRows]:
        """Rows per entity, keys in entity order, each in frame order."""
        order = np.argsort(self.nodes.entity, kind="stable")
        entities, firsts = np.unique(self.nodes.entity[order], return_index=True)
        return {e: NodeRows(self.nodes, rows) for e, rows in zip(entities.tolist(), np.split(order, firsts[1:]))}

    @cached_property
    def _descriptions(self) -> DescriptionTable:
        return DescriptionTable(self.nodes, self._timeline)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def entity_ids(self) -> list[int]:
        return list(self._timeline)

    def nodes_in_frame(self, frame_index: int) -> list[EntityNode]:
        """The frame's nodes, in entity order: the run of rows holding the frame."""
        rows = range(self.nodes.frame.searchsorted(frame_index), self.nodes.frame.searchsorted(frame_index, "right"))
        return [self.nodes[i] for i in rows]


_EVENT_KEY = attrgetter("start_frame", "end_frame", "summary")


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

    def __init__(self, nodes: NodeTable, timeline: dict[int, NodeRows]):
        self.entities: dict[int, tuple[list[str], str]] = {}
        state, descriptions = nodes.state, nodes.descriptions
        for entity_id, rows in timeline.items():
            # The entity's states in timeline order, each once, then their descriptions, each once.
            states = dict.fromkeys(state[rows.rows].tolist())
            texts = list(dict.fromkeys([descriptions[s] or "" for s in states]))
            self.entities[entity_id] = (texts, "\n".join(texts).lower())
        self.word_sets: dict[str, set[str]] = {}


@dataclass(frozen=True)
class Violation:
    """A break of ``rule``, ``detail`` naming what breaks it, and the graph document's ``field`` that holds it,
    which equality ignores."""

    rule: str
    detail: str
    field: str | None = field(default=None, compare=False)


# The event rules checked by one walk of each entity's events.
_WALKED_EVENT_RULES = ("event-entity-unknown", "event-entity-mismatch", "event-overlap", "event-absent-frame",
                       "event-order", "event-coverage")
# Every rule ``validate`` checks, in the order it checks them.
RULES = ("fps-finite", "frame-index-dense", "timestamp-finite", "timestamp-order", "node-frame-unknown",
         "box-invalid", "missing-attribute", "self-edge", "dangling-edge", "event-span", *_WALKED_EVENT_RULES,
         "line-break")
# The rules a graph document must keep to load. The others wait on what a build writes: one from observations
# that lack an attribute breaks missing-attribute, and loading must not refuse it.
LOAD_RULES = frozenset({"fps-finite", "frame-index-dense", "timestamp-finite", "timestamp-order",
                        "node-frame-unknown", "event-span", "line-break"})


def validate(graph: SpatioTemporalGraph) -> list[Violation]:
    """Check every rule of ``RULES``; an empty report means valid.

    Violations are data, not errors: callers decide whether to raise. Each
    rule is a pass over the columns, which makes no node or edge record, and
    the passes report in the order of ``RULES``, each rule's violations in
    the graph's orders: frames by index, nodes by (frame, entity), edges in
    the edge order (a dangling edge's subject before its object), events by
    entity, each entity's by start frame. The one walk of each entity's
    events reports its rules entity by entity, each entity's in the order of
    its events. No rule looks for a repeated node: a graph cannot hold one.
    """
    return list(_violations(graph, frozenset(RULES)))


def _violations(graph: SpatioTemporalGraph, rules: frozenset[str]) -> Iterator[Violation]:
    """The violations of the rules in ``rules`` (of every walked event rule when one is asked), in ``validate``'s
    order; no other rule is checked."""
    frames, nodes, edges, events = graph.frames, graph.nodes, graph.edges, graph.events
    last = len(frames) - 1
    # A NaN fails the comparison too, and JSON has no token for NaN or infinity.
    if "fps-finite" in rules and not 0 < graph.fps < inf:
        yield Violation("fps-finite", f"fps must be finite and > 0, found {graph.fps}", "fps")
    index, timestamp, description = _columns(frames, 4)[:3]
    if "frame-index-dense" in rules:  # a reader takes frame f as frames[f]
        yield from (Violation("frame-index-dense", f"frame {f}: frame indices must be 0..{last}, each once",
                              "frame_index") for i, f in enumerate(index) if f != i)
    seconds = np.array(timestamp, dtype=np.float64)
    if "timestamp-finite" in rules:
        for i in np.flatnonzero(~np.isfinite(seconds)).tolist():
            yield Violation("timestamp-finite", f"frame {i}: timestamp_s {timestamp[i]} is not finite", "timestamp_s")
    if "timestamp-order" in rules:  # a NaN is neither before nor after a timestamp: timestamp-finite reports it
        for i in (np.flatnonzero(seconds[1:] <= seconds[:-1]) + 1).tolist():
            yield Violation("timestamp-order", f"frame {i}: timestamp_s {timestamp[i]} is not after frame {i - 1}'s "
                            f"{timestamp[i - 1]}", "timestamp_s")

    entity, frame, state = nodes.entity, nodes.frame, nodes.state
    if "node-frame-unknown" in rules:  # the rows ascend by frame: those outside the video come first and last
        for i in chain(range(frame.searchsorted(0)), range(frame.searchsorted(last, "right"), len(frame))):
            yield Violation("node-frame-unknown", f"node entity {entity[i]} frame {frame[i]} is not in frames "
                            f"0..{last}", "frame_index")
    if "box-invalid" in rules:
        for i in np.flatnonzero(~valid_boxes(nodes.box)).tolist():
            yield Violation("box-invalid", f"entity {entity[i]} frame {frame[i]}", "box")
    if "missing-attribute" in rules:
        # A node's attributes are its state's: each state is searched once, and only the rows of one lacking any.
        missing = [[name for name in REQUIRED_ATTRIBUTES if name not in a] for a in nodes.attributes]
        for i in np.flatnonzero(np.isin(state, [s for s, names in enumerate(missing) if names])).tolist():
            yield from (Violation("missing-attribute", f"entity {entity[i]} frame {frame[i]}: {name}", "attributes")
                        for name in missing[state[i]])

    if "self-edge" in rules:
        for i in np.flatnonzero(edges.subject == edges.object).tolist():
            yield Violation("self-edge", f"frame {edges.frame[i]} entity {edges.subject[i]}", "object_id")
    if "dangling-edge" in rules:
        ends = [(edges.subject, "subject_id"), (edges.object, "object_id")]
        absent = [node_rows(nodes, ids, edges.frame) < 0 for ids, _ in ends]
        for i in np.flatnonzero(absent[0] | absent[1]).tolist():
            yield from (Violation("dangling-edge", f"frame {edges.frame[i]} entity {ids[i]}", name)
                        for (ids, name), gone in zip(ends, absent) if gone[i])

    # An event's span lies within the video's frames: sampling or validating any other would expand it.
    outside = {(k, i): ev for k, evs in events.items() for i, ev in enumerate(evs)
               if not 0 <= ev.start_frame <= ev.end_frame <= last}
    if "event-span" in rules:
        for (k, i), ev in outside.items():
            yield Violation("event-span", f"event {i} of entity {k}: {ev.start_frame}..{ev.end_frame} is not a span "
                            f"of frames 0..{last}", "end_frame" if ev.end_frame > last else "start_frame")
    if not rules.isdisjoint(_WALKED_EVENT_RULES):  # one walk of each entity's events checks all of these
        timeline = graph._timeline
        for k, evs in events.items():
            if k not in timeline:
                yield Violation("event-entity-unknown", f"entity {k}", "events")
                continue
            frames_here = frame[timeline[k].rows].tolist()  # ascending, each once
            # Spans are checked by arithmetic, never expanded. Events come by start frame, so one meets an earlier one
            # when it starts by the furthest frame they reach; the entity's frames in between are uncovered.
            reached, missing = -inf, []
            for i, ev in enumerate(evs):
                if ev.entity_id != k:
                    yield Violation("event-entity-mismatch", f"entity {k} holds event of {ev.entity_id}", "events")
                if (k, i) in outside:
                    continue
                start, end = ev.start_frame, ev.end_frame
                if start <= reached:
                    yield Violation("event-overlap", f"entity {k} [{start}..{end}]", "events")
                # The entity's frames ascend, each once: they hold start..end when end is end - start after start.
                at, n = bisect_left(frames_here, start), end - start
                if not (at + n < len(frames_here) and frames_here[at] == start and frames_here[at + n] == end):
                    yield Violation("event-absent-frame", f"entity {k} [{start}..{end}]", "events")
                missing += frames_here[bisect_right(frames_here, reached):at]
                reached = max(reached, end)
            for prev, cur in zip(evs, evs[1:]):
                if cur.start_frame <= prev.end_frame:
                    yield Violation("event-order", f"entity {k} at frame {cur.start_frame}", "events")
            # Coverage is only enforced once the entity has events at all, so
            # partially built graphs (pre-segmentation) still validate.
            missing += frames_here[bisect_right(frames_here, reached):]
            if evs and missing:
                yield Violation("event-coverage", f"entity {k} frames {missing}", "events")

    if "line-break" in rules:
        # Frame and node descriptions, node attributes (keys and values), edge relations and event summaries. A node's
        # texts are its state's: the states and relations tables are searched once, then only their rows found.
        summaries = list(chain.from_iterable(events.values()))
        texts = "\0".join(chain(description, (d or "" for d in nodes.descriptions),
                                chain.from_iterable(chain(a, a.values()) for a in nodes.attributes),
                                edges.relations, (ev.summary for ev in summaries)))
        # One substring scan per break of all the text is a fifth of a regex search per field.
        if not any(c in texts for c in LINE_BREAKS):
            return
        broken = [(f"frame {f}", "description") for f, text in zip(index, description) if LINE_BREAK.search(text)]
        breaks = [(d is not None and bool(LINE_BREAK.search(d)), any(map(LINE_BREAK.search, chain(a, a.values()))))
                  for a, d in zip(nodes.attributes, nodes.descriptions)]
        for i in np.flatnonzero(np.isin(state, [s for s, found in enumerate(breaks) if any(found)])).tolist():
            broken += [(f"node entity {entity[i]} frame {frame[i]}", name)
                       for name, found in zip(("description", "attributes"), breaks[state[i]]) if found]
        relations = [r for r, text in enumerate(edges.relations) if LINE_BREAK.search(text)]
        broken += [(f"edge frame {edges.frame[i]} {edges.subject[i]}->{edges.object[i]}", "relation")
                   for i in np.flatnonzero(np.isin(edges.relation, relations)).tolist()]
        broken += [(f"event entity {ev.entity_id} [{ev.start_frame}..{ev.end_frame}]", "summary")
                   for ev in summaries if LINE_BREAK.search(ev.summary)]
        yield from (Violation("line-break", f"{owner} has a line break in its {name}", name) for owner, name in broken)


def entity_timeline(graph: SpatioTemporalGraph, entity_id: int) -> NodeRows:
    """All nodes of one entity, ordered by frame index: a read-only sequence kept by the graph."""
    nodes = graph._timeline.get(entity_id)
    if nodes is None:
        raise NotFound(f"entity {entity_id} not in graph")
    return nodes


def node_edges(graph: SpatioTemporalGraph, entity_id: int, frame_index: int) -> list[RelationEdge]:
    """Edges of the given frame that touch the given entity, in the graph's edge order, a self-edge once: those
    of the run of edge rows holding the frame."""
    if node_rows(graph.nodes, np.array([entity_id]), np.array([frame_index]))[0] < 0:
        raise NotFound(f"no node for entity {entity_id} in frame {frame_index}")
    edges = graph.edges
    start, stop = edges.frame.searchsorted(frame_index), edges.frame.searchsorted(frame_index, "right")
    touching = (edges.subject[start:stop] == entity_id) | (edges.object[start:stop] == entity_id)
    return [edges[i] for i in (start + np.flatnonzero(touching)).tolist()]


def entity_descriptions(graph: SpatioTemporalGraph) -> DescriptionTable:
    """The graph's description table, built at the first call; see ``DescriptionTable``."""
    return graph._descriptions


# The graph document, format 2, is ``json.dumps`` of the graph's fields as
# columns, with sorted keys and compact separators, so CPython writes it with
# its C encoder. A node's attributes and description are written once per
# distinct pair, as a row of ``states``, and a relation once, as a row of
# ``relations``; nodes and edges give the row's number. Node and edge IDs are
# int64 columns already; ``operator.index`` and ``str.__str__`` hold the other
# int and text fields to their types, writing a boolean as 1 or 0, and
# ``_floats`` keeps out the non-finite floats JSON has no token for.
FORMAT = 2
_text = str.__str__


def _floats(values) -> list[float]:
    """``float()`` of each value, or an array's values; a non-finite one raises ValueError, as JSON has no token for it."""
    if isinstance(values, np.ndarray):
        floats, finite = values.tolist(), bool(np.isfinite(values).all())
    else:
        floats = list(map(float, values))
        finite = all(map(isfinite, floats))
    if not finite:
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
    list each distinct pair or text once, numbered in the order their first
    node or edge comes (``NodeTable.canonical``, ``EdgeTable.canonical``). Int and string
    fields must hold ints and strings, as the fields declare, or TypeError is
    raised; float fields take what ``float()`` takes, and a non-finite float
    raises ValueError.
    """
    frame_index, timestamp_s, description, source_ref = _columns(graph.frames, 4)
    nodes, edges = graph.nodes, graph.edges
    states, state = nodes.canonical()
    relations, relation = edges.canonical()
    doc = {
        "format": FORMAT,
        "fps": _floats([graph.fps])[0],
        "frames": {"frame_index": list(map(index, frame_index)), "timestamp_s": _floats(timestamp_s),
                   "description": list(map(_text, description)), "source_ref": list(map(_text, source_ref))},
        "states": {
            "attributes": [{_text(k): _text(v) for k, v in items} for items, _ in states],
            "description": [None if text is None else _text(text) for _, text in states],
        },
        "nodes": {"entity_id": nodes.entity.tolist(), "frame_index": nodes.frame.tolist(), "state": state.tolist(),
                  "box": _floats(nodes.box.ravel())},
        "relations": list(map(_text, relations)),
        "edges": {"frame_index": edges.frame.tolist(), "subject_id": edges.subject.tolist(),
                  "object_id": edges.object.tolist(), "relation": relation.tolist()},
        "events": {
            str(key): {"start_frame": [index(ev.start_frame) for ev in evs],
                       "end_frame": [index(ev.end_frame) for ev in evs],
                       "summary": [_text(ev.summary) for ev in evs]}
            for key, evs in graph.events.items()
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_box(raw, where: str, *args) -> BoundingBox:
    """Read an ``[x0, y0, x1, y1]`` box; a malformed or invalid one (``valid_boxes``) raises one of ``MALFORMED``.

    The error names the box's owner as ``where % args``, formatted only then.
    """
    if isinstance(raw, (list, tuple)) and len(raw) == 4:
        box = BoundingBox(float(raw[0]), float(raw[1]), float(raw[2]), float(raw[3]))
        if valid_boxes(np.array([box]))[0]:
            return box
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
    ok = valid_boxes(boxes)
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


def _box_rows(column: list):
    """The box column in fours, one per node: an (n, 4) array when every entry is a number, else a list of
    tuples, for ``parse_boxes``."""
    try:
        values = np.array(column)
    except MALFORMED:  # a nested list of another shape
        values = np.empty((0, 0))
    if values.ndim == 1 and values.dtype.kind in "biuf":
        return values.reshape(-1, 4)
    return list(zip(*[iter(column)] * 4))


def _integers(columns: list[tuple[list, str, str]]) -> list[list[int]]:
    """``integer`` of each value of each ``(values, name, owner)`` column; the first value it rejects raises
    ParseError naming its row as ``owner % i``. One type scan covers every column: JSON numbers are ints almost
    always, and documents hold thousands of IDs."""
    if set(map(type, chain.from_iterable(values for values, _, _ in columns))) <= {int}:
        return [values for values, _, _ in columns]
    return [[_integer(value, name, owner, i) for i, value in enumerate(values)] for values, name, owner in columns]


def _integer(value, name: str, owner: str, i: int) -> int:
    try:
        return integer(value, name)
    except ParseError as exc:
        raise ParseError(f"{owner % i}: {exc}", field=name) from None


def _rows(values: list[int], name: str, owner: str, table: str, count: int) -> np.ndarray:
    """Row numbers into a table of ``count`` rows, as an intp column; one outside it raises ParseError."""
    try:
        rows = np.fromiter(values, dtype=np.intp, count=len(values))
        inside = not len(rows) or 0 <= rows.min() and rows.max() < count
    except OverflowError:
        inside = False
    if not inside:
        i = next(i for i, v in enumerate(values) if not 0 <= v < count)
        raise ParseError(f"{owner % i}: {name} {values[i]} is not a row of {table} 0..{count - 1}", field=name)
    return rows


def _id_column(values: list[int], name: str, owner) -> np.ndarray:
    """``_int64`` of a document's ID column; an ID outside int64 raises ParseError naming its row and ``name``."""
    try:
        return _int64(values, owner)
    except ValueError as exc:
        raise ParseError(str(exc), field=name) from None


def _attributes(states: list) -> list[MappingProxyType]:
    """Each state's attributes as a read-only mapping of texts, a value of another type read as its ``str()``.

    JSON keys are texts, so attributes whose values all are texts are wrapped as they are.
    """
    if all(type(a) is dict for a in states) and set(map(type, chain.from_iterable(map(dict.values, states)))) <= {str}:
        return list(map(MappingProxyType, states))
    return [MappingProxyType({str(k): str(v) for k, v in a.items()}) for a in states]


def _entity_key(key: str) -> int:
    """The entity ID an ``events`` key spells, as ``str(int)`` writes it; any other key raises ParseError."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ParseError(f"events key {key!r} is not an entity ID in plain decimal, such as '7' or '-1'", field="events")


def deserialize(document: str) -> SpatioTemporalGraph:
    """The graph a format-2 document holds, its node and edge tables filled straight from the columns.

    A malformed document, one of another format (format 1, which has no
    ``format`` key, included), columns of one table of unequal length, a
    state or relation number that is not a row of its table, an entity ID or
    frame index outside int64, an events key that is not an entity ID in
    plain decimal or a node listed twice raises ParseError. So does a graph
    that breaks a rule of ``LOAD_RULES``, with the message and field of the
    first violation ``validate`` would report of them. The document may list
    the rows of each table, and number its states and relations, in any
    order.
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
        attributes, texts = _table(doc["states"], ("attributes", "description"), "states")
        entity_id, node_frame, state, raw_boxes = _table(
            doc["nodes"], ("entity_id", "frame_index", "state", "box"), "nodes")
        relations = doc["relations"]
        if type(relations) is not list:
            raise TypeError("relations must be a list")
        edge_frame, subject_id, object_id, relation = _table(
            doc["edges"], ("frame_index", "subject_id", "object_id", "relation"), "edges")
        event_tables = {_entity_key(key): _table(table, ("start_frame", "end_frame", "summary"),
                                                 f"events of entity {key}", "events")
                        for key, table in doc["events"].items()}
        frame_index, entity_id, node_frame, state, edge_frame, subject_id, object_id, relation, *spans = _integers([
            (frame_index, "frame_index", "frame %s"), (entity_id, "entity_id", "node %s"),
            (node_frame, "frame_index", "node %s"), (state, "state", "node %s"),
            (edge_frame, "frame_index", "edge %s"), (subject_id, "subject_id", "edge %s"),
            (object_id, "object_id", "edge %s"), (relation, "relation", "edge %s"),
            *((column, name, f"event %s of entity {entity}") for entity, (start, end, _) in event_tables.items()
              for column, name in ((start, "start_frame"), (end, "end_frame"))),
        ])
        frames = list(map(FrameRecord, frame_index, map(float, timestamp_s), map(str, description),
                          map(str, source_ref)))
        attributes = _attributes(attributes)
        texts = [None if text is None else str(text) for text in texts]
        node = lambda i: f"node entity {entity_id[i]} frame {node_frame[i]}"
        entities, frame_column = _id_column(entity_id, "entity_id", node), _id_column(node_frame, "frame_index", node)
        state = _rows(state, "state", "node %s", "states", len(attributes))
        boxes, n_ok = parse_boxes(_box_rows(raw_boxes))
        if n_ok < len(raw_boxes) // 4:
            parse_box(raw_boxes[4 * n_ok:4 * n_ok + 4], "node %s frame %s", entity_id[n_ok], node_frame[n_ok])
        relations = list(map(str, relations))
        edge_columns = [_id_column(values, name, "edge {}".format) for values, name in
                        ((edge_frame, "frame_index"), (subject_id, "subject_id"), (object_id, "object_id"))]
        relation = _rows(relation, "relation", "edge %s", "relations", len(relations))
        events = {entity: list(map(EntityEvent, [entity] * len(start), start, end, map(str, summary)))
                  for (entity, (_, _, summary)), start, end in zip(event_tables.items(), spans[::2], spans[1::2])}
        fps = float(doc["fps"])
        edges = EdgeTable(*edge_columns, relation, relations)
    except MALFORMED as exc:
        raise ParseError(f"malformed graph document: {exc}") from exc
    try:
        nodes = NodeTable(entities, frame_column, boxes, state, attributes, texts)
    except ValueError as exc:  # a node listed twice
        raise ParseError(str(exc), field="nodes") from None
    graph = SpatioTemporalGraph(frames=frames, nodes=nodes, edges=edges, events=events, fps=fps)
    # A string holds a line break only as an escape or as a raw U+0085, U+2028 or U+2029: JSON forbids the others raw.
    rules = LOAD_RULES if any(c in document for c in "\\\x85\u2028\u2029") else LOAD_RULES - {"line-break"}
    for violation in _violations(graph, rules):
        raise ParseError(violation.detail, field=violation.field)
    return graph
