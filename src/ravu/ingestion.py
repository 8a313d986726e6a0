"""Per-frame observation parsing and tracklet-based ID association.

Observations arrive with frame-local entity IDs; tracklets provide
video-consistent identities. ``associate`` rewrites local IDs into
consistent entity IDs by greedy IoU matching against each frame's
tracklet boxes.

A video's boxes stay in columns from parsing until its nodes are made.
Each reader checks all of a document's boxes as one array
(``graph_model.parse_boxes``). ``associate`` groups the track rows by
frame with one stable sort, scores every (entity, track) pair that shares
a frame in one ``accel.iou_rows`` call and sorts the pairs passing the
threshold once; only the greedy itself runs per pair in Python. It hands
its arrays to a ``NodeTable``, nodes frame by frame in entity order, and
makes no record per node. Parsing keeps each distinct attribute set once,
and the table numbers those sets as its states.

Entity mentions inside description text use ``[E<int>]`` tokens; after
association they reference the consistent ID.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from . import accel
from .config import check_range
from .errors import MALFORMED, ParseError, integer, json_object, json_objects
from .graph_model import LINE_BREAK, MENTION, FrameRecord, NodeTable, parse_box, parse_boxes


@dataclass(eq=False)
class Observations:
    """A video's per-frame observations: frames in index order, their entities as columns.

    Frame ``f``'s entities are the ``counts[f]`` rows after the
    ``sum(counts[:f])`` rows of the frames before it, in the order its line
    lists them. ``attributes`` holds each distinct attribute set once, and
    row ``i``'s is ``attributes[state[i]]``.
    """

    descriptions: list[str]
    source_refs: list[str]
    counts: list[int]
    local_ids: list[int]
    attributes: list[dict[str, str]]
    state: np.ndarray  # (n,) intp
    boxes: np.ndarray  # (n, 4) float64, xyxy, as ``parse_box`` reads them


@dataclass(eq=False)
class Tracklets:
    """Every box of a video's tracklets, one row per (track, frame), tracks in document order.

    Row ``r`` is track ``ids[track[r]]``'s box in frame ``frames[r]``; a
    track lists each frame once.
    """

    ids: list[int]
    track: np.ndarray  # (n,) intp
    frames: np.ndarray  # (n,) int64
    boxes: np.ndarray  # (n, 4) float64, xyxy, as ``parse_box`` reads them


@dataclass
class AssociationResult:
    nodes: NodeTable
    frames: list[FrameRecord]
    id_map: dict[int, dict[int, int]]  # frame_index -> local_id -> entity_id


def parse_observations(document: str) -> Observations:
    """Parse an observations.jsonl document, one frame object per line.

    Frame indices must be dense 0..N-1 (any line order); duplicates,
    malformed boxes and a boolean or fractional frame index or local ID are
    rejected, and so is a line break in a description or an attribute key
    or value, since backend payloads are line-oriented. The first error in
    document order is the one raised.

    Attribute keys and values are read as their ``str()`` texts, and each
    distinct set of texts, in key order, is kept as one dict that every
    entity with it shares: ``1`` and ``"1"`` give one set, ``true`` (read
    as ``"True"``) and ``"true"`` two. Only a new set is searched for line
    breaks.
    """
    # A document line is split at every line break, so a decoded string
    # holds one only where the document escapes it.
    escapes = "\\" in document
    place: dict[int, int] = {}  # frame index -> its line's place among the frame lines
    linenos: list[int] = []
    descriptions: list[str] = []
    source_refs: list[str] = []
    counts: list[int] = []
    local_ids: list[int] = []
    # Each distinct attribute set, keyed by its items, and each entity's number among them.
    numbered: dict[tuple, int] = {}
    attributes: list[dict[str, str]] = []
    state: list[int] = []
    raw_boxes: list = []

    def checked_boxes() -> np.ndarray:
        """The boxes read so far; the first bad one raises ``parse_box``'s error, naming its line."""
        boxes, n_ok = parse_boxes(raw_boxes)
        if n_ok < len(raw_boxes):
            line = linenos[bisect_right(list(accumulate(counts)), n_ok)]
            try:
                parse_box(raw_boxes[n_ok], "entity %s", local_ids[n_ok])
            except MALFORMED as exc:
                raise ParseError(f"malformed frame: {exc}", line=line) from exc
        return boxes

    try:
        for lineno, raw in json_objects(document, "frame"):
            linenos.append(lineno)
            try:
                frame_index = integer(raw["frame_index"], "frame_index", lineno)
                if frame_index in place:
                    raise ParseError(f"duplicate frame {frame_index}", line=lineno, field="frame_index")
                place[frame_index] = len(counts)
                local_seen: set[int] = set()
                for ent in raw.get("entities", []):
                    local_id = ent["local_id"]
                    if type(local_id) is not int:
                        local_id = integer(local_id, "local_id", lineno)
                    if local_id in local_seen:
                        raise ParseError(f"duplicate local_id {local_id}", line=lineno, field="local_id")
                    local_seen.add(local_id)
                    raw_attrs = ent.get("attributes", {})
                    try:
                        # Keys are kept only for sets of texts, which a value of any other type never equals.
                        number = numbered[tuple(raw_attrs.items())]
                    except (KeyError, TypeError):  # a new set, or one holding an unhashable value
                        attrs = {str(k): str(v) for k, v in raw_attrs.items()}
                        number = numbered.get(key := tuple(attrs.items()))
                        if number is None:
                            if escapes and any(map(LINE_BREAK.search, chain(attrs, attrs.values()))):
                                raise ParseError(
                                    f"entity {local_id} has a line break in an attribute key or value",
                                    line=lineno, field="attributes",
                                ) from None
                            number = numbered[key] = len(attributes)
                            attributes.append(attrs)
                    local_ids.append(local_id)
                    state.append(number)
                    raw_boxes.append(ent["box"])
                description = str(raw.get("description", ""))
                if escapes and LINE_BREAK.search(description):
                    raise ParseError("line break in description", line=lineno, field="description")
                descriptions.append(description)
                source_refs.append(str(raw.get("source_ref", "")))
                counts.append(len(local_seen))
            except MALFORMED as exc:
                raise ParseError(f"malformed frame: {exc}", line=lineno) from exc
    except ParseError:
        checked_boxes()  # a bad box on an earlier line comes first
        raise
    boxes = checked_boxes()
    state = np.array(state, dtype=np.intp)

    n_frames = len(counts)
    missing = set(range(n_frames)).difference(place)
    if missing:
        raise ParseError(f"frame indices not dense: missing frame {min(missing)}", field="frame_index")
    order = [place[f] for f in range(n_frames)]
    if order != list(range(n_frames)):
        starts = list(accumulate(counts, initial=0))
        rows = [r for p in order for r in range(starts[p], starts[p + 1])]
        descriptions = [descriptions[p] for p in order]
        source_refs = [source_refs[p] for p in order]
        counts = [counts[p] for p in order]
        local_ids = [local_ids[r] for r in rows]
        state, boxes = state[rows], boxes[rows]
    return Observations(descriptions, source_refs, counts, local_ids, attributes, state, boxes)


def parse_tracklets(document: str) -> Tracklets:
    """Parse a tracklets.json document: {"tracks": [{track_id, boxes}]}.

    ``boxes`` maps frame indices, written as strings, to the track's box in
    that frame. Track IDs are distinct integers that fit in int64 (not
    booleans or fractions); a track lists at least one frame and each frame
    once, so ``"1"`` and ``"01"`` in one track are rejected. The first error
    in document order is the one raised.
    """
    raw = json_object(document, "tracklets document")
    if "tracks" not in raw:
        raise ParseError("missing key 'tracks'", field="tracks")

    ids: list[int] = []
    seen: set[int] = set()
    box_maps: list[dict] = []
    counts: list[int] = []
    frames: list[int] = []
    raw_boxes: list = []

    def checked_boxes() -> np.ndarray:
        """The boxes read so far; the first bad one raises ``parse_box``'s error."""
        boxes, n_ok = parse_boxes(raw_boxes)
        if n_ok < len(raw_boxes):
            k = bisect_right(list(accumulate(counts)), n_ok)
            key = list(box_maps[k])[n_ok - sum(counts[:k])]
            try:
                parse_box(raw_boxes[n_ok], "track %s frame %s", ids[k], key)
            except MALFORMED as exc:
                raise ParseError(f"malformed tracklet: {exc}") from exc
        return boxes

    try:
        try:
            for tr in raw["tracks"]:
                track_id = integer(tr["track_id"], "track_id")
                if not -(2**63) <= track_id < 2**63:
                    raise ParseError(f"track_id {track_id} does not fit in int64", field="track_id")
                if track_id in seen:
                    raise ParseError(f"duplicate track_id {track_id}", field="track_id")
                seen.add(track_id)
                box_map = tr["boxes"]
                ids.append(track_id)
                box_maps.append(box_map)
                start = len(frames)
                for fi, box in box_map.items():
                    frames.append(int(fi))
                    raw_boxes.append(box)
                counts.append(len(frames) - start)
                if not counts[-1]:
                    raise ParseError(f"tracklet {track_id} has no boxes", field="boxes")
                if len(set(frames[start:])) < counts[-1]:
                    listed: set[int] = set()
                    for f in frames[start:]:
                        if f in listed:
                            raise ParseError(f"tracklet {track_id} lists frame {f} twice", field="boxes")
                        listed.add(f)
        except MALFORMED as exc:
            raise ParseError(f"malformed tracklet: {exc}") from exc
    except ParseError:
        checked_boxes()  # a bad box of an earlier entry comes first
        raise
    boxes = checked_boxes()

    track = np.repeat(np.arange(len(ids)), counts)
    try:
        frame_column = np.array(frames, dtype=np.int64)
    except OverflowError:
        # Past int64, and so past the last frame of any video.
        row = next(r for r, f in enumerate(frames) if not -(2**63) <= f < 2**63)
        raise ParseError(f"tracklet {ids[track[row]]} references unknown frame {frames[row]}", field="boxes")
    return Tracklets(ids, track, frame_column, boxes)


def _rewrite_mentions(text: str, mapping: dict[int, int]) -> str:
    """``text`` with every ``[E<local>]`` mention of a mapped local ID rewritten to its entity ID."""
    parts = MENTION.split(text)  # text, digits, text, digits, ..., text
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
    observations: Observations,
    tracklets: Tracklets,
    min_iou: float,
    fps: float,
) -> AssociationResult:
    """Assign video-consistent entity IDs by per-frame greedy IoU matching.

    Each observed entity takes the track whose box in that frame maximizes
    IoU, subject to ``max IoU >= min_iou`` and one entity per track per
    frame. Ties break to the lowest track_id. Losers fall through to their
    next-best track; entities matching nothing get a fresh singleton ID
    allocated above all track IDs, frame by frame in local_id order; a
    video whose fresh IDs would pass int64 raises ParseError. Description
    mention tokens are rewritten to the consistent IDs, and frame ``f`` is
    stamped ``f / fps`` seconds. Nodes come as a ``NodeTable`` in
    (frame_index, entity_id) order with a state per distinct attribute set
    of ``observations``, whose read-only attributes wrap that set's dict:
    the nodes that share a set share its state. A ``min_iou`` or ``fps``
    outside its ``RavuConfig`` range raises ValueError, worded as
    ``config.check_range`` words it, before any work.

    The whole video is scored in one batched pass: every (entity, track)
    pair that shares a frame is scored by one ``accel.iou_rows`` call, and
    only the pairs that pass ``min_iou`` are sorted, once, for the greedy.
    """
    check_range("min_iou", min_iou)
    check_range("fps", fps)
    counts, local_ids = observations.counts, observations.local_ids
    n_frames = len(counts)
    outside = np.flatnonzero((tracklets.frames < 0) | (tracklets.frames >= n_frames))
    if len(outside):
        row = outside[0]
        raise ParseError(
            f"tracklet {tracklets.ids[tracklets.track[row]]} references unknown frame {tracklets.frames[row]}",
            field="boxes",
        )

    # Track rows grouped by frame, in document order within a frame; a row is
    # one track in one frame.
    by_frame = np.argsort(tracklets.frames, kind="stable")
    row_track = tracklets.track[by_frame]
    group_size = np.bincount(tracklets.frames, minlength=n_frames)
    group_first = np.cumsum(group_size) - group_size

    # Pair p joins entity ``pair_ent[p]`` with track row ``pair_row[p]``: each
    # entity's run of pairs walks its frame's group from the group's first row.
    ent_frame = np.repeat(np.arange(n_frames), counts)
    ent_count = group_size[ent_frame]
    pair_ent = np.repeat(np.arange(len(ent_frame)), ent_count)
    run_start = np.cumsum(ent_count) - ent_count
    pair_row = np.repeat(group_first[ent_frame] - run_start, ent_count) + np.arange(len(pair_ent))
    scores = accel.iou_rows(
        observations.boxes.take(pair_ent, axis=0), tracklets.boxes.take(by_frame.take(pair_row), axis=0)
    )
    keep = np.flatnonzero((scores >= min_iou) & (scores > 0.0))
    pair_ent, pair_row, scores = pair_ent[keep], pair_row[keep], scores[keep]
    track_rank = _ranks(tracklets.ids)
    local_rank = _ranks(local_ids)
    order = np.lexsort((local_rank[pair_ent], track_rank[row_track[pair_row]], -scores, ent_frame[pair_ent]))

    # The greedy: by frame, then IoU descending, track_id, local_id, each
    # entity takes the first free row among its pairs.
    ent_row = [-1] * len(ent_frame)
    row_free = [True] * len(by_frame)
    for ent, row in zip(pair_ent[order].tolist(), pair_row[order].tolist()):
        if ent_row[ent] < 0 and row_free[row]:
            ent_row[ent] = row
            row_free[row] = False

    # An entity's key is its ID's place in ID order: a taken track's rank
    # among the track IDs, or the place of its fresh ID, handed out above
    # them frame by frame in local_id order.
    ent_row = np.array(ent_row, dtype=np.intp)
    taken = ent_row >= 0
    key = np.empty(len(ent_row), dtype=np.intp)
    key[taken] = track_rank[row_track[ent_row[taken]]]
    fresh = np.flatnonzero(~taken)
    fresh = fresh[np.lexsort((local_rank[fresh], ent_frame[fresh]))]
    n_tracks = len(tracklets.ids)
    key[fresh] = np.arange(n_tracks, n_tracks + len(fresh))
    next_fresh = max(tracklets.ids, default=-1) + 1
    if next_fresh + len(fresh) > 2**63:
        raise ParseError(
            f"{len(fresh)} unmatched entities need fresh IDs above track {next_fresh - 1}, past int64",
            field="track_id",
        )
    id_of_key = sorted(tracklets.ids) + list(range(next_fresh, next_fresh + len(fresh)))
    entity_ids = list(map(id_of_key.__getitem__, key.tolist()))

    # A state per distinct attribute set: its attributes, and no description yet.
    order = np.lexsort((key, ent_frame))
    attributes = observations.attributes
    nodes = NodeTable(np.array(entity_ids, dtype=np.int64)[order], ent_frame[order], observations.boxes[order],
                      observations.state[order], attributes, [None] * len(attributes))
    frames: list[FrameRecord] = []
    id_map: dict[int, dict[int, int]] = {}
    starts = list(accumulate(counts, initial=0))
    for f, description, source_ref in zip(range(n_frames), observations.descriptions, observations.source_refs):
        mapping = id_map[f] = dict(zip(local_ids[starts[f]:starts[f + 1]], entity_ids[starts[f]:starts[f + 1]]))
        frames.append(FrameRecord(f, f / fps, _rewrite_mentions(description, mapping), source_ref))
    return AssociationResult(nodes=nodes, frames=frames, id_map=id_map)


def _ranks(ids: list[int]) -> np.ndarray:
    """Each ID's place among the distinct IDs in sorted order: a sort key that
    orders IDs of any size, where a numpy array of them could turn to floats."""
    place = {value: i for i, value in enumerate(sorted(set(ids)))}
    return np.fromiter(map(place.__getitem__, ids), dtype=np.intp, count=len(ids))
