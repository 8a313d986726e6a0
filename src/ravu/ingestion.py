"""Per-frame observation parsing and tracklet-based ID association.

Observations arrive with frame-local entity IDs; tracklets provide
video-consistent identities. ``associate`` rewrites local IDs into
consistent entity IDs by greedy IoU matching against each frame's
tracklet boxes.

Entity mentions inside description text use ``[E<int>]`` tokens; after
association they reference the consistent ID.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import accel
from .errors import MALFORMED, ParseError, json_object, json_objects
from .graph_model import BoundingBox, EntityNode, FrameRecord, parse_box

MENTION_RE = re.compile(r"\[E(\d+)\]")


@dataclass
class FrameObservation:
    """One frame's raw output: description plus frame-local entities."""

    frame_index: int
    description: str
    entities: list[tuple[int, dict[str, str], BoundingBox]]
    source_ref: str = ""


@dataclass
class Tracklet:
    """One tracked object's per-frame boxes, from an external tracker."""

    track_id: int
    boxes: dict[int, BoundingBox] = field(default_factory=dict)


@dataclass
class AssociationResult:
    nodes: list[EntityNode]
    frames: list[FrameRecord]
    id_map: dict[int, dict[int, int]]  # frame_index -> local_id -> entity_id


def parse_observations(document: str) -> list[FrameObservation]:
    """Parse an observations.jsonl document, one frame object per line.

    Frame indices must be dense 0..N-1 (any line order); duplicates and
    malformed boxes are rejected.
    """
    observations: dict[int, FrameObservation] = {}
    for lineno, raw in json_objects(document, "frame"):
        try:
            frame_index = int(raw["frame_index"])
            if frame_index in observations:
                raise ParseError(f"duplicate frame {frame_index}", line=lineno, field="frame_index")
            entities = []
            local_seen: set[int] = set()
            for ent in raw.get("entities", []):
                local_id = int(ent["local_id"])
                if local_id in local_seen:
                    raise ParseError(f"duplicate local_id {local_id}", line=lineno, field="local_id")
                local_seen.add(local_id)
                attributes = {str(k): str(v) for k, v in ent.get("attributes", {}).items()}
                entities.append((local_id, attributes, parse_box(ent["box"], "entity %s", local_id)))
            observations[frame_index] = FrameObservation(
                frame_index=frame_index,
                description=str(raw.get("description", "")),
                entities=entities,
                source_ref=str(raw.get("source_ref", "")),
            )
        except MALFORMED as exc:
            raise ParseError(f"malformed frame: {exc}", line=lineno) from exc

    for expected in range(len(observations)):
        if expected not in observations:
            raise ParseError(f"frame indices not dense: missing frame {expected}", field="frame_index")
    return [observations[i] for i in range(len(observations))]


def parse_tracklets(document: str) -> list[Tracklet]:
    """Parse a tracklets.json document: {"tracks": [{track_id, boxes}]}."""
    raw = json_object(document, "tracklets document")
    if "tracks" not in raw:
        raise ParseError("missing key 'tracks'", field="tracks")

    tracklets: dict[int, Tracklet] = {}
    try:
        for tr in raw["tracks"]:
            track_id = int(tr["track_id"])
            if track_id in tracklets:
                raise ParseError(f"duplicate track_id {track_id}", field="track_id")
            boxes = {int(fi): parse_box(b, "track %s frame %s", track_id, fi) for fi, b in tr["boxes"].items()}
            if not boxes:
                raise ParseError(f"tracklet {track_id} has no boxes", field="boxes")
            tracklets[track_id] = Tracklet(track_id=track_id, boxes=boxes)
    except MALFORMED as exc:
        raise ParseError(f"malformed tracklet: {exc}") from exc
    return list(tracklets.values())


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes; 0 when disjoint."""
    return accel.iou_pair(a.as_list(), b.as_list())


def _rewrite_mentions(text: str, mapping: dict[int, int]) -> str:
    def repl(match: re.Match) -> str:
        local = int(match.group(1))
        if local in mapping:
            return f"[E{mapping[local]}]"
        return match.group(0)

    return MENTION_RE.sub(repl, text)


def associate(
    observations: list[FrameObservation],
    tracklets: list[Tracklet],
    min_iou: float = 0.1,
    fps: float = 1.0,
) -> AssociationResult:
    """Assign video-consistent entity IDs by per-frame greedy IoU matching.

    Each observed entity takes the track whose box in that frame maximizes
    IoU, subject to ``max IoU >= min_iou`` and one entity per track per
    frame. Ties break to the lowest track_id. Losers fall through to their
    next-best track; entities matching nothing get a fresh singleton ID
    allocated above all track IDs. Description mention tokens are rewritten
    to the consistent IDs.
    """
    if not 0.0 <= min_iou <= 1.0:
        raise ValueError(f"min_iou must be in [0, 1], got {min_iou}")
    n_frames = len(observations)
    for tr in tracklets:
        for fi in tr.boxes:
            if fi < 0 or fi >= n_frames:
                raise ParseError(
                    f"tracklet {tr.track_id} references unknown frame {fi}", field="boxes"
                )

    next_fresh = max((tr.track_id for tr in tracklets), default=-1) + 1
    nodes: list[EntityNode] = []
    frames: list[FrameRecord] = []
    id_map: dict[int, dict[int, int]] = {}

    for obs in observations:
        frame_tracks = [
            (tr.track_id, tr.boxes[obs.frame_index])
            for tr in sorted(tracklets, key=lambda t: t.track_id)
            if obs.frame_index in tr.boxes
        ]
        mapping: dict[int, int] = {}
        if obs.entities and frame_tracks:
            ent_boxes = np.asarray([e[2].as_list() for e in obs.entities])
            trk_boxes = np.asarray([b.as_list() for _, b in frame_tracks])
            matrix = accel.iou_matrix(ent_boxes, trk_boxes)
            pairs = [
                (matrix[ei, ti], frame_tracks[ti][0], obs.entities[ei][0], ei, ti)
                for ei in range(len(obs.entities))
                for ti in range(len(frame_tracks))
                if matrix[ei, ti] >= min_iou and matrix[ei, ti] > 0.0
            ]
            pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
            used_tracks: set[int] = set()
            for _, track_id, local_id, _, _ in pairs:
                if local_id in mapping or track_id in used_tracks:
                    continue
                mapping[local_id] = track_id
                used_tracks.add(track_id)
        for local_id, _, _ in sorted(obs.entities, key=lambda e: e[0]):
            if local_id not in mapping:
                mapping[local_id] = next_fresh
                next_fresh += 1

        id_map[obs.frame_index] = mapping
        for local_id, attributes, box in obs.entities:
            nodes.append(
                EntityNode(
                    entity_id=mapping[local_id],
                    frame_index=obs.frame_index,
                    attributes=dict(attributes),
                    box=box,
                )
            )
        frames.append(
            FrameRecord(
                frame_index=obs.frame_index,
                timestamp_s=obs.frame_index / fps,
                description=_rewrite_mentions(obs.description, mapping),
                source_ref=obs.source_ref,
            )
        )

    nodes.sort(key=lambda n: (n.frame_index, n.entity_id))
    return AssociationResult(nodes=nodes, frames=frames, id_map=id_map)
