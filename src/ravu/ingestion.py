"""Per-frame observation parsing and tracklet-based ID association.

Observations arrive with frame-local entity IDs; tracklets provide
video-consistent identities. ``associate`` rewrites local IDs into
consistent entity IDs by greedy IoU matching against each frame's
tracklet boxes.

Entity mentions inside description text use ``[E<int>]`` tokens; after
association they reference the consistent ID.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import accel
from .errors import ParseError
from .graph_model import BoundingBox, EntityNode, FrameRecord

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


def _box_from_raw(raw, line: int | None = None) -> BoundingBox:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ParseError("malformed box: expected [x0, y0, x1, y1]", line=line, field="box")
    try:
        box = BoundingBox(*(float(v) for v in raw))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed box: {exc}", line=line, field="box") from exc
    if not box.is_valid():
        raise ParseError("invalid box: need 0 <= x_min < x_max and 0 <= y_min < y_max", line=line, field="box")
    return box


def parse_observations(document: str) -> list[FrameObservation]:
    """Parse an observations.jsonl document, one frame object per line.

    Frame indices must be dense 0..N-1 (any line order); duplicates and
    malformed boxes are rejected.
    """
    observations: dict[int, FrameObservation] = {}
    for lineno, line in enumerate(document.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
        try:
            frame_index = int(raw["frame_index"])
            description = str(raw.get("description", ""))
            entities_raw = raw.get("entities", [])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed frame object: {exc}", line=lineno) from exc
        if frame_index in observations:
            raise ParseError(f"duplicate frame {frame_index}", line=lineno, field="frame_index")

        entities = []
        local_seen: set[int] = set()
        for ent in entities_raw:
            try:
                local_id = int(ent["local_id"])
                attributes = {str(k): str(v) for k, v in ent.get("attributes", {}).items()}
                box = _box_from_raw(ent["box"], line=lineno)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ParseError(f"malformed entity: {exc}", line=lineno) from exc
            if local_id in local_seen:
                raise ParseError(f"duplicate local_id {local_id}", line=lineno, field="local_id")
            local_seen.add(local_id)
            entities.append((local_id, attributes, box))

        observations[frame_index] = FrameObservation(
            frame_index=frame_index,
            description=description,
            entities=entities,
            source_ref=str(raw.get("source_ref", "")),
        )

    for expected in range(len(observations)):
        if expected not in observations:
            raise ParseError(f"frame indices not dense: missing frame {expected}", field="frame_index")
    return [observations[i] for i in range(len(observations))]


def parse_tracklets(document: str) -> list[Tracklet]:
    """Parse a tracklets.json document: {"tracks": [{track_id, boxes}]}."""
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(raw, dict) or "tracks" not in raw:
        raise ParseError("missing key 'tracks'", field="tracks")

    tracklets = []
    seen: set[int] = set()
    for tr in raw["tracks"]:
        try:
            track_id = int(tr["track_id"])
            boxes = {int(fi): _box_from_raw(b) for fi, b in tr["boxes"].items()}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"malformed tracklet: {exc}") from exc
        if track_id in seen:
            raise ParseError(f"duplicate track_id {track_id}", field="track_id")
        if not boxes:
            raise ParseError(f"tracklet {track_id} has no boxes", field="boxes")
        seen.add(track_id)
        tracklets.append(Tracklet(track_id=track_id, boxes=boxes))
    return tracklets


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
