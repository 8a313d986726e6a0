"""Per-frame observation parsing and tracklet-based ID association.

Observations arrive with frame-local entity IDs; tracklets provide
video-consistent identities. ``associate`` rewrites local IDs into
consistent entity IDs by greedy IoU matching against each frame's
tracklet boxes. It scores a whole video in one batched pass: every
(entity, track) pair that shares a frame goes through one
``accel.iou_rows`` call, the pairs passing the threshold are sorted once,
and only the greedy itself runs per pair in Python.

Entity mentions inside description text use ``[E<int>]`` tokens; after
association they reference the consistent ID.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter, itemgetter

import numpy as np

from . import accel
from .errors import MALFORMED, ParseError, json_object, json_objects
from .graph_model import LINE_BREAK, BoundingBox, EntityNode, FrameRecord, parse_box

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
    malformed boxes are rejected, and so is a line break in a description
    or an attribute key or value, since backend payloads are line-oriented.
    """
    # A document line is split at every line break, so a decoded string
    # holds one only where the document escapes it.
    escapes = "\\" in document
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
                if escapes and any(map(LINE_BREAK.search, chain(attributes, attributes.values()))):
                    raise ParseError(
                        f"entity {local_id} has a line break in an attribute key or value",
                        line=lineno, field="attributes",
                    )
                entities.append((local_id, attributes, parse_box(ent["box"], "entity %s", local_id)))
            description = str(raw.get("description", ""))
            if escapes and LINE_BREAK.search(description):
                raise ParseError("line break in description", line=lineno, field="description")
            observations[frame_index] = FrameObservation(
                frame_index=frame_index,
                description=description,
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


def _rewrite_mentions(text: str, mapping: dict[int, int]) -> str:
    """``text`` with every ``[E<local>]`` mention of a mapped local ID rewritten to its entity ID."""
    parts = MENTION_RE.split(text)  # text, digits, text, digits, ..., text
    if len(parts) > 1:
        tokens = {str(local): f"[E{entity}]" for local, entity in mapping.items()}
        parts[1::2] = [tokens.get(digits) or _mention(digits, mapping) for digits in parts[1::2]]
    return "".join(parts)


def _mention(digits: str, mapping: dict[int, int]) -> str:
    """``[E<digits>]`` rewritten if its local ID is mapped, else as written. For
    the mentions the token dict misses: unmapped IDs, and spellings that
    ``str`` does not give, such as ``007`` or non-ASCII digits."""
    local = int(digits)
    return f"[E{mapping[local]}]" if local in mapping else f"[E{digits}]"


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
    allocated above all track IDs, observation by observation in list order.
    Description mention tokens are rewritten to the consistent IDs.

    The whole video is scored in one batched pass: every (entity, track)
    pair that shares a frame is scored by one ``accel.iou_rows`` call, and
    only the pairs that pass ``min_iou`` are sorted, once, for the greedy.
    """
    if not 0.0 <= min_iou <= 1.0:
        raise ValueError(f"min_iou must be in [0, 1], got {min_iou}")
    n_frames = len(observations)
    # Track boxes grouped by frame; the sort below orders tracks by track_id.
    groups: dict[int, list[tuple[int, BoundingBox]]] = {}
    for tr in tracklets:
        for fi, box in tr.boxes.items():
            if fi < 0 or fi >= n_frames:
                raise ParseError(
                    f"tracklet {tr.track_id} references unknown frame {fi}", field="boxes"
                )
            groups.setdefault(fi, []).append((tr.track_id, box))
    track_ids = [track_id for group in groups.values() for track_id, _ in group]
    track_boxes = _box_array([box for group in groups.values() for _, box in group])
    # A frame's group as (first row, row count) in the two lists above.
    sizes = [len(group) for group in groups.values()]
    span = dict(zip(groups, zip(accumulate(sizes, initial=0), sizes)))

    # Every entity, in observation order, with its observation and its frame's group.
    entities = [e for obs in observations for e in obs.entities]
    ent_obs = np.repeat(np.arange(n_frames), [len(obs.entities) for obs in observations])
    obs_span = np.array([span.get(obs.frame_index, (0, 0)) for obs in observations], dtype=np.intp)
    ent_first, ent_count = obs_span.reshape(-1, 2)[ent_obs].T

    # Pair p joins entity ``pair_ent[p]`` with track row ``pair_row[p]``: each
    # entity's run of pairs walks its frame's group from the group's first row.
    pair_ent = np.repeat(np.arange(len(entities)), ent_count)
    run_start = np.cumsum(ent_count) - ent_count
    pair_row = np.repeat(ent_first - run_start, ent_count) + np.arange(len(pair_ent))
    ent_boxes = _box_array([e[2] for e in entities])
    scores = accel.iou_rows(ent_boxes.take(pair_ent, axis=0), track_boxes.take(pair_row, axis=0))
    keep = np.flatnonzero((scores >= min_iou) & (scores > 0.0))
    pair_ent, pair_row, scores = pair_ent[keep], pair_row[keep], scores[keep]
    pair_obs = ent_obs[pair_ent]
    # By observation, then IoU descending, track_id, local_id; a stable sort
    # leaves full ties (duplicate IDs) in entity-then-track order.
    order = np.lexsort(
        (_ranks([e[0] for e in entities])[pair_ent], _ranks(track_ids)[pair_row], -scores, pair_obs)
    )

    # The greedy: an observation's mapping holds exactly its taken tracks.
    mappings: list[dict[int, int]] = [{} for _ in observations]
    for position, ent, row in zip(pair_obs[order].tolist(), pair_ent[order].tolist(), pair_row[order].tolist()):
        mapping, local_id, track_id = mappings[position], entities[ent][0], track_ids[row]
        if local_id not in mapping and track_id not in mapping.values():
            mapping[local_id] = track_id

    next_fresh = max((tr.track_id for tr in tracklets), default=-1) + 1
    nodes: list[EntityNode] = []
    frames: list[FrameRecord] = []
    id_map: dict[int, dict[int, int]] = {}
    for obs, mapping in zip(observations, mappings):
        for local_id, _, _ in sorted(obs.entities, key=itemgetter(0)):
            if local_id not in mapping:
                mapping[local_id] = next_fresh
                next_fresh += 1

        id_map[obs.frame_index] = mapping
        for local_id, attributes, box in obs.entities:
            nodes.append(EntityNode(mapping[local_id], obs.frame_index, dict(attributes), box))
        frames.append(
            FrameRecord(
                frame_index=obs.frame_index,
                timestamp_s=obs.frame_index / fps,
                description=_rewrite_mentions(obs.description, mapping),
                source_ref=obs.source_ref,
            )
        )

    nodes.sort(key=attrgetter("frame_index", "entity_id"))
    return AssociationResult(nodes=nodes, frames=frames, id_map=id_map)


def _ranks(ids: list[int]) -> np.ndarray:
    """Each ID's place among the distinct IDs in sorted order: a sort key that
    orders IDs of any size, where a numpy array of them could turn to floats."""
    place = {value: i for i, value in enumerate(sorted(set(ids)))}
    return np.fromiter(map(place.__getitem__, ids), dtype=np.intp, count=len(ids))


_XYXY = attrgetter("x_min", "y_min", "x_max", "y_max")


def _box_array(boxes: list[BoundingBox]) -> np.ndarray:
    """``boxes`` as an (n, 4) float64 array in xyxy layout."""
    return np.fromiter(chain.from_iterable(map(_XYXY, boxes)), dtype=np.float64, count=4 * len(boxes)).reshape(-1, 4)
