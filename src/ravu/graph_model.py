"""Core domain types for the spatio-temporal video graph.

A video is a sequence of frames; each frame holds entity nodes (attributes
plus a bounding box) and relation edges between entities of that frame.
Temporal linkage is implicit: nodes sharing an ``entity_id`` across frames
are the same entity. Per-entity events chunk an entity's frames into
contiguous behavioral segments.

Graphs are immutable by convention after construction and safe for
concurrent reads; no mutation API is provided beyond building the fields.
The lookups (``nodes_in_frame``, ``entity_ids``, ``entity_timeline`` and
``node_edges``) read tables built from ``nodes`` and ``edges`` on first use.
Assigning either list drops those tables; mutating a list in place after
the first lookup is not supported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import MALFORMED, NotFound, ParseError, json_object

REQUIRED_ATTRIBUTES = ("appearance", "action", "body_pose")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in frame pixel coordinates, xyxy."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]

    def is_valid(self) -> bool:
        return (
            self.x_min >= 0
            and self.y_min >= 0
            and self.x_min < self.x_max
            and self.y_min < self.y_max
        )


@dataclass
class EntityNode:
    """One entity observed in one frame, with a video-consistent ID."""

    entity_id: int
    frame_index: int
    attributes: dict[str, str]
    box: BoundingBox
    description: str | None = None


@dataclass(frozen=True)
class RelationEdge:
    """Directed relation between two entities within a single frame."""

    frame_index: int
    subject_id: int
    relation: str
    object_id: int


@dataclass
class FrameRecord:
    frame_index: int
    timestamp_s: float
    description: str
    source_ref: str = ""


@dataclass(frozen=True)
class EntityEvent:
    """Contiguous frame span of one entity sharing a behavior."""

    entity_id: int
    start_frame: int
    end_frame: int
    summary: str


@dataclass
class SpatioTemporalGraph:
    frames: list[FrameRecord] = field(default_factory=list)
    nodes: list[EntityNode] = field(default_factory=list)
    edges: list[RelationEdge] = field(default_factory=list)
    events: dict[int, list[EntityEvent]] = field(default_factory=dict)
    fps: float = 1.0

    def __setattr__(self, name, value):
        if name in ("nodes", "edges"):
            self.__dict__.pop("_lookup", None)
        super().__setattr__(name, value)

    @cached_property
    def _lookup(self) -> _Lookup:
        return _Lookup(self.nodes, self.edges)

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def entity_ids(self) -> list[int]:
        return list(self._lookup.timeline)

    def nodes_in_frame(self, frame_index: int) -> list[EntityNode]:
        return list(self._lookup.by_frame.get(frame_index, ()))


class _Lookup:
    """Tables derived from a graph's nodes and edges, built in one pass each.

    ``by_frame``: nodes per frame, sorted by entity. ``timeline``: nodes per
    entity (keys in entity order), sorted by frame. ``edges_at``: edges per
    node key ``(entity_id, frame_index)``, in edge-list order; a self-edge is
    listed once. Sorts are stable, so ties keep node-list order.
    """

    def __init__(self, nodes: list[EntityNode], edges: list[RelationEdge]):
        by_frame: dict[int, list[EntityNode]] = {}
        timeline: dict[int, list[EntityNode]] = {}
        edges_at: dict[tuple[int, int], list[RelationEdge]] = {}
        for n in nodes:
            by_frame.setdefault(n.frame_index, []).append(n)
            timeline.setdefault(n.entity_id, []).append(n)
            edges_at[(n.entity_id, n.frame_index)] = []
        for out in by_frame.values():
            out.sort(key=lambda n: n.entity_id)
        for out in timeline.values():
            out.sort(key=lambda n: n.frame_index)
        for e in edges:
            for entity_id in {e.subject_id, e.object_id}:
                bucket = edges_at.get((entity_id, e.frame_index))
                if bucket is not None:
                    bucket.append(e)
        self.by_frame = by_frame
        self.timeline = dict(sorted(timeline.items()))
        self.edges_at = edges_at


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str


def validate(graph: SpatioTemporalGraph) -> list[Violation]:
    """Check every structural invariant; an empty report means valid.

    Violations are data, not errors: callers decide whether to raise.
    """
    out: list[Violation] = []

    for i, frame in enumerate(graph.frames):
        if frame.frame_index != i:
            out.append(Violation("frame-index-dense", f"position {i} has index {frame.frame_index}"))
    for prev, cur in zip(graph.frames, graph.frames[1:]):
        if cur.timestamp_s <= prev.timestamp_s:
            out.append(Violation("timestamp-order", f"frame {cur.frame_index}"))

    seen: set[tuple[int, int]] = set()
    nodes_by_frame: dict[int, set[int]] = {}
    appearance: dict[int, set[int]] = {}
    for node in graph.nodes:
        key = (node.entity_id, node.frame_index)
        if key in seen:
            out.append(Violation("duplicate-node", f"entity {node.entity_id} frame {node.frame_index}"))
        seen.add(key)
        nodes_by_frame.setdefault(node.frame_index, set()).add(node.entity_id)
        appearance.setdefault(node.entity_id, set()).add(node.frame_index)
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
        covered: set[int] = set()
        for ev in events:
            if ev.entity_id != entity_id:
                out.append(Violation("event-entity-mismatch", f"entity {entity_id} holds event of {ev.entity_id}"))
            if ev.start_frame > ev.end_frame:
                out.append(Violation("event-span", f"entity {entity_id} [{ev.start_frame}..{ev.end_frame}]"))
                continue
            span = set(range(ev.start_frame, ev.end_frame + 1))
            if covered & span:
                out.append(Violation("event-overlap", f"entity {entity_id} [{ev.start_frame}..{ev.end_frame}]"))
            covered |= span
            if not span <= frames_here:
                out.append(
                    Violation("event-absent-frame", f"entity {entity_id} [{ev.start_frame}..{ev.end_frame}]")
                )
        for prev, cur in zip(events, events[1:]):
            if cur.start_frame <= prev.end_frame:
                out.append(Violation("event-order", f"entity {entity_id} at frame {cur.start_frame}"))
        # Coverage is only enforced once the entity has events at all, so
        # partially built graphs (pre-segmentation) still validate.
        if events:
            missing = frames_here - covered
            if missing:
                out.append(Violation("event-coverage", f"entity {entity_id} frames {sorted(missing)}"))

    return out


def entity_timeline(graph: SpatioTemporalGraph, entity_id: int) -> list[EntityNode]:
    """All nodes of one entity, ordered by frame index."""
    nodes = graph._lookup.timeline.get(entity_id)
    if not nodes:
        raise NotFound(f"entity {entity_id} not in graph")
    return list(nodes)


def node_edges(graph: SpatioTemporalGraph, entity_id: int, frame_index: int) -> list[RelationEdge]:
    """Edges of the given frame that touch the given entity."""
    edges = graph._lookup.edges_at.get((entity_id, frame_index))
    if edges is None:
        raise NotFound(f"no node for entity {entity_id} in frame {frame_index}")
    return list(edges)


def _canonical_doc(graph: SpatioTemporalGraph) -> dict:
    frames = sorted(graph.frames, key=lambda f: f.frame_index)
    nodes = sorted(graph.nodes, key=lambda n: (n.frame_index, n.entity_id))
    edges = sorted(graph.edges, key=lambda e: (e.frame_index, e.subject_id, e.object_id, e.relation))
    return {
        "fps": float(graph.fps),
        "frames": [
            {
                "frame_index": f.frame_index,
                "timestamp_s": float(f.timestamp_s),
                "description": f.description,
                "source_ref": f.source_ref,
            }
            for f in frames
        ],
        "nodes": [
            {
                "entity_id": n.entity_id,
                "frame_index": n.frame_index,
                "attributes": n.attributes,
                "box": [float(v) for v in n.box.as_list()],
                "description": n.description,
            }
            for n in nodes
        ],
        "edges": [
            {
                "frame_index": e.frame_index,
                "subject_id": e.subject_id,
                "relation": e.relation,
                "object_id": e.object_id,
            }
            for e in edges
        ],
        "events": {
            str(entity_id): [
                {"start_frame": ev.start_frame, "end_frame": ev.end_frame, "summary": ev.summary}
                for ev in sorted(evs, key=lambda ev: ev.start_frame)
            ]
            for entity_id, evs in sorted(graph.events.items())
        },
    }


def serialize(graph: SpatioTemporalGraph) -> str:
    """Canonical JSON document: equal graphs serialize byte-identically."""
    return json.dumps(_canonical_doc(graph), sort_keys=True, indent=2) + "\n"


def parse_box(raw, where: str) -> BoundingBox:
    """Read an ``[x0, y0, x1, y1]`` box; a malformed one raises one of ``MALFORMED``."""
    box = BoundingBox(*map(float, raw)) if isinstance(raw, list) and len(raw) == 4 else None
    if box is None or not box.is_valid():
        raise ValueError(f"box of {where} must be [x0, y0, x1, y1] with 0 <= x0 < x1 and 0 <= y0 < y1")
    return box


def deserialize(document: str) -> SpatioTemporalGraph:
    doc = json_object(document, "graph document")
    for key in ("frames", "nodes", "edges", "events", "fps"):
        if key not in doc:
            raise ParseError(f"missing key '{key}'", field=key)

    try:
        frames = [
            FrameRecord(
                frame_index=int(f["frame_index"]),
                timestamp_s=float(f["timestamp_s"]),
                description=str(f["description"]),
                source_ref=str(f.get("source_ref", "")),
            )
            for f in doc["frames"]
        ]
        nodes = [
            EntityNode(
                entity_id=int(n["entity_id"]),
                frame_index=int(n["frame_index"]),
                attributes={str(k): str(v) for k, v in n["attributes"].items()},
                box=parse_box(n["box"], f"node {n['entity_id']} frame {n['frame_index']}"),
                description=None if n.get("description") is None else str(n["description"]),
            )
            for n in doc["nodes"]
        ]
        edges = [
            RelationEdge(
                frame_index=int(e["frame_index"]),
                subject_id=int(e["subject_id"]),
                relation=str(e["relation"]),
                object_id=int(e["object_id"]),
            )
            for e in doc["edges"]
        ]
        events = {
            int(entity_id): [
                EntityEvent(
                    entity_id=int(entity_id),
                    start_frame=int(ev["start_frame"]),
                    end_frame=int(ev["end_frame"]),
                    summary=str(ev["summary"]),
                )
                for ev in evs
            ]
            for entity_id, evs in doc["events"].items()
        }
        fps = float(doc["fps"])
    except MALFORMED as exc:
        raise ParseError(f"malformed graph document: {exc}") from exc

    return SpatioTemporalGraph(frames=frames, nodes=nodes, edges=edges, events=events, fps=fps)
