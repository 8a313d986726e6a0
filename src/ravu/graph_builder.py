"""Build the full graph from associated observations via backend calls.

Stages: per-frame relation edges, per-node descriptions, node embeddings,
and per-entity event segmentation. Each stage is deterministic under the
mock backend; results are keyed and sorted canonically so completion order
never affects the output. Node embeddings are ``EmbeddingColumns``, the one
embedding type: ``embed_graph`` returns them, ``write_embeddings`` persists
them, and ``read_embeddings`` loads them back against their graph.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backends
from .backends import generate_items_with_retries, generate_with_retries, make_bundle
from .errors import MALFORMED, BackendError, MalformedResponse, ParseError, json_objects, read_document
from .graph_model import (
    EntityEvent,
    EntityNode,
    FrameRecord,
    RelationEdge,
    SpatioTemporalGraph,
    entity_timeline,
    node_edges,
    repeated_nodes,
)


@dataclass(eq=False)
class EmbeddingRecord:
    """One node's description text and its unit-norm embedding vector."""

    entity_id: int
    frame_index: int
    description: str
    vector: np.ndarray


class EmbeddingColumns:
    """Node embeddings held as read-only columns, each distinct vector once.

    ``vectors`` is a float64 array with one row per distinct vector and
    ``vector_of`` an intp array giving each row's vector, so row ``i``'s
    vector is ``vectors[vector_of[i]]``. ``entities`` and ``frames`` are
    int64 arrays and ``descriptions`` is a list. Iterating yields each row
    as an ``EmbeddingRecord`` made on access.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        vector_of: np.ndarray,
        entities: np.ndarray,
        frames: np.ndarray,
        descriptions: list[str],
    ):
        for column in (vectors, vector_of, entities, frames):
            column.flags.writeable = False
        self.vectors, self.vector_of = vectors, vector_of
        self.entities, self.frames, self.descriptions = entities, frames, descriptions

    def __len__(self) -> int:
        return len(self.descriptions)

    def __iter__(self) -> Iterator[EmbeddingRecord]:
        vectors = self.vectors
        for entity_id, frame_index, description, j in zip(
            self.entities.tolist(), self.frames.tolist(), self.descriptions, self.vector_of.tolist()
        ):
            yield EmbeddingRecord(entity_id, frame_index, description, vectors[j])


@dataclass
class EventSegmentation:
    events: list[EntityEvent]
    fallback: bool = False


@dataclass
class BuildReport:
    dropped_edge_lines: int = 0
    fallback_entities: list[int] = field(default_factory=list)


# Frames or distinct node prompts a build sends in one backend call.
ITEMS_PER_CALL = 8


def _triples(lines: list[list[str]]) -> list[tuple[int, str, int]]:
    """The ``[subject, relation, object]`` field lists that parse, as triples."""
    triples = []
    for fields in lines:
        if len(fields) == 3 and fields[1].strip():
            try:
                triples.append((int(fields[0]), fields[1].strip(), int(fields[2])))
            except ValueError:
                pass
    return triples


_SENTENCE_END = re.compile(r"[.!?]")
_MENTION = re.compile(r"\[E\d+\]")


def _has_comention(description: str) -> bool:
    for sentence in _SENTENCE_END.split(description):
        if len(_MENTION.findall(sentence)) >= 2:
            return True
    return False


def build_frame_graph(
    batch: list[tuple[FrameRecord, list[EntityNode]]],
    backend,
    max_retries: int = 2,
) -> tuple[list[RelationEdge], int]:
    """Relation edges for distinct frames asked in one prompt, plus the count of dropped lines.

    ``batch`` pairs each frame with the nodes in it. The reply is parsed as
    ``frame|subject|relation|object`` lines, each charged to the frame it
    names. A line of a requested frame is dropped if its triple does not
    parse, references an entity absent from that frame, or relates an
    entity to itself. A line that names no requested frame (its first
    field is not the index of one) is dropped too, and charged to the
    reply's first kept frame. A frame whose description co-mentions two
    entities in a sentence but which gets no parseable triple is
    rejected; only rejected frames are asked again, as in
    :func:`generate_items_with_retries`. Edges come in batch order; the
    count covers the lines of kept frames only. Node attributes are never
    touched here.
    """
    present = {frame.frame_index: {n.entity_id for n in nodes} for frame, nodes in batch}

    def bundle(asked: list[tuple[FrameRecord, list[EntityNode]]]) -> backends.PromptBundle:
        return make_bundle("frame_graph", backends.frame_graph_payload(
            [(frame.frame_index, sorted(present[frame.frame_index]), frame.description) for frame, _ in asked]
        ))

    def parse(text: str, asked: list[tuple[FrameRecord, list[EntityNode]]]) -> list:
        charged: dict[int, list[list[str]]] = {frame.frame_index: [] for frame, _ in asked}
        stray = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            fields = line.split("|")
            try:
                charged[int(fields[0])].append(fields[1:])
            except (ValueError, KeyError):
                stray += 1
        outcome: list = []
        for frame, _ in asked:
            lines = charged[frame.frame_index]
            triples = _triples(lines)
            if not triples and _has_comention(frame.description):
                outcome.append(ValueError(
                    f"no parseable edges for frame {frame.frame_index} despite co-mentioned entities"
                ))
                continue
            entities = present[frame.frame_index]
            edges = [
                RelationEdge(frame.frame_index, subject, relation, obj)
                for subject, relation, obj in triples
                if subject in entities and obj in entities and subject != obj
            ]
            outcome.append((edges, len(lines) - len(edges) + stray))
            stray = 0
        return outcome

    replies = generate_items_with_retries(
        backend, batch, bundle, parse, lambda item: f"frame {item[0].frame_index}", max_retries
    )
    edges = [edge for frame_edges, _ in replies for edge in frame_edges]
    return edges, sum(dropped for _, dropped in replies)


def describe_node(node: EntityNode, edges: list[RelationEdge], backend, max_retries: int = 2) -> str:
    """One-sentence node description covering attributes and relations: a one-node :func:`_describe`."""
    block = backends.node_block(node.entity_id, node.attributes, edges)
    return _describe([(node, block)], backend, max_retries)[0]


def _describe(items: list[tuple[EntityNode, str]], backend, max_retries: int) -> list[str]:
    """The accepted sentence for each ``(node, node block)``, the blocks asked in one prompt.

    The reply is parsed as ``k|sentence`` lines, where ``k`` is a block's
    position in the prompt, from 0. A line whose ``k`` is not an integer
    in range is ignored. A block with no line, with more than one line or
    with an empty sentence is rejected; only rejected blocks are asked
    again, as in :func:`generate_items_with_retries`, and an error names
    the block's node.
    """

    def parse(text: str, asked: list[tuple[EntityNode, str]]) -> list:
        sentences: list[list[str]] = [[] for _ in asked]
        for line in text.splitlines():
            head, _, sentence = line.partition("|")
            try:
                k = int(head)
            except ValueError:
                continue
            if 0 <= k < len(asked):
                sentences[k].append(sentence.strip())
        return [
            ValueError(f"{len(found)} reply lines for item {k}") if len(found) != 1
            else found[0] or ValueError(f"empty description for item {k}")
            for k, found in enumerate(sentences)
        ]

    def bundle(asked: list[tuple[EntityNode, str]]) -> backends.PromptBundle:
        return make_bundle("node_description", backends.node_description_payload([block for _, block in asked]))

    return generate_items_with_retries(
        backend, items, bundle, parse,
        lambda item: f"entity {item[0].entity_id} frame {item[0].frame_index}", max_retries,
    )


def embed_graph(graph: SpatioTemporalGraph, backend) -> EmbeddingColumns:
    """One embedding row per node, in (frame, entity) order; all nodes must be described first.

    Each distinct description is embedded once per call and held once in
    the columns' ``vectors``; nodes that share a description share its
    vector: within one build, identical texts get identical vectors. A
    backend error is raised, naming the node, and never remembered.
    """
    nodes = sorted(graph.nodes, key=lambda n: (n.frame_index, n.entity_id))
    vectors: list[np.ndarray] = []
    slot: dict[str, int] = {}
    vector_of = np.empty(len(nodes), dtype=np.intp)
    for i, node in enumerate(nodes):
        if not node.description:
            raise ValueError(
                f"node entity {node.entity_id} frame {node.frame_index} has no description"
            )
        j = slot.get(node.description)
        if j is None:
            try:
                vector = backend.embed(node.description)
            except BackendError as exc:
                raise type(exc)(
                    f"embedding entity {node.entity_id} frame {node.frame_index}: {exc}"
                ) from exc
            j = slot[node.description] = len(vectors)
            vectors.append(np.asarray(vector, dtype=np.float64))
        vector_of[i] = j
    return EmbeddingColumns(
        np.stack(vectors) if vectors else np.zeros((0, 0)),
        vector_of,
        np.fromiter((n.entity_id for n in nodes), dtype=np.int64, count=len(nodes)),
        np.fromiter((n.frame_index for n in nodes), dtype=np.int64, count=len(nodes)),
        [n.description for n in nodes],
    )


def _appearance_runs(nodes: list[EntityNode]) -> list[list[EntityNode]]:
    runs: list[list[EntityNode]] = []
    for node in nodes:
        if runs and node.frame_index == runs[-1][-1].frame_index + 1:
            runs[-1].append(node)
        else:
            runs.append([node])
    return runs


def segment_events(
    graph: SpatioTemporalGraph, entity_id: int, backend, max_retries: int = 2
) -> EventSegmentation:
    """Chunk one entity's frames into events via the backend.

    Absence gaps always force an event boundary, so the backend is called
    once per maximal contiguous appearance run. The prompt lists each
    distinct ``(action, description)`` state of the run once, numbered,
    and then each frame with its state number
    (:func:`backends.event_segmentation_payload`): at 1 fps a state lasts
    many frames, so the prompt grows by one short line per frame. The
    reply names frames, not states. If a run's response fails
    the event invariants after retries, that run falls back to a single
    event summarized by its first frame's description, and the result is
    flagged.
    """
    nodes = entity_timeline(graph, entity_id)
    events: list[EntityEvent] = []
    fallback = False

    for run in _appearance_runs(nodes):
        run_frames = [n.frame_index for n in run]
        rows = [
            (n.frame_index, n.attributes.get("action", ""), n.description or "")
            for n in run
        ]
        payload = backends.event_segmentation_payload(entity_id, rows)
        bundle = make_bundle("event_segmentation", payload)

        def parse(text: str, run_frames=run_frames) -> list[EntityEvent]:
            spans = []
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                parts = line.split("|", 2)
                if len(parts) != 3:
                    raise ValueError(f"bad event line {line!r}")
                start, end, summary = int(parts[0]), int(parts[1]), parts[2].strip()
                if not summary:
                    raise ValueError("empty event summary")
                spans.append(EntityEvent(entity_id, start, end, summary))
            covered: list[int] = []
            for ev in spans:
                if ev.start_frame > ev.end_frame:
                    raise ValueError("inverted event span")
                covered.extend(range(ev.start_frame, ev.end_frame + 1))
            if covered != run_frames:
                raise ValueError("events do not exactly cover the appearance run")
            return spans

        try:
            events.extend(generate_with_retries(backend, bundle, parse, max_retries))
        except MalformedResponse:
            first = run[0]
            summary = first.description or first.attributes.get("action", "") or f"entity {entity_id}"
            events.append(EntityEvent(entity_id, run_frames[0], run_frames[-1], summary))
            fallback = True

    return EventSegmentation(events=events, fallback=fallback)


def build_graph(
    frames: list[FrameRecord],
    nodes: list[EntityNode],
    backend,
    fps: float = 1.0,
    max_retries: int = 2,
) -> tuple[SpatioTemporalGraph, BuildReport]:
    """Full build: edges, descriptions, and events.

    The frames that hold nodes are asked for their edges
    ``ITEMS_PER_CALL`` at a time, in frame order (:func:`build_frame_graph`).
    Each node's ``node_description`` block is built once; each distinct
    block is asked once per call, ``ITEMS_PER_CALL`` blocks to a prompt in
    first-seen order, and nodes whose blocks are identical share its
    accepted sentence: within one build, identical blocks get identical
    replies. Replies that fail parsing are retried item by item as in
    :func:`generate_items_with_retries`; a backend error is raised and
    never remembered.
    """
    graph = SpatioTemporalGraph(frames=list(frames), nodes=list(nodes), fps=fps)
    report = BuildReport()

    batch = [(frame, graph.nodes_in_frame(frame.frame_index)) for frame in graph.frames]
    batch = [(frame, in_frame) for frame, in_frame in batch if in_frame]
    all_edges: list[RelationEdge] = []
    for start in range(0, len(batch), ITEMS_PER_CALL):
        edges, dropped = build_frame_graph(batch[start : start + ITEMS_PER_CALL], backend, max_retries)
        all_edges.extend(edges)
        report.dropped_edge_lines += dropped
    all_edges.sort(key=lambda e: (e.frame_index, e.subject_id, e.object_id, e.relation))
    graph.edges = all_edges

    # Each distinct block, with the first node that has it, and each node's block number.
    slot: dict[str, int] = {}
    distinct: list[tuple[EntityNode, str]] = []
    slot_of: list[int] = []
    for node in graph.nodes:
        edges = node_edges(graph, node.entity_id, node.frame_index)
        block = backends.node_block(node.entity_id, node.attributes, edges)
        j = slot.setdefault(block, len(distinct))
        if j == len(distinct):
            distinct.append((node, block))
        slot_of.append(j)
    sentences: list[str] = []
    for start in range(0, len(distinct), ITEMS_PER_CALL):
        sentences.extend(_describe(distinct[start : start + ITEMS_PER_CALL], backend, max_retries))
    for node, j in zip(graph.nodes, slot_of):
        node.description = sentences[j]

    for entity_id in graph.entity_ids():
        seg = segment_events(graph, entity_id, backend, max_retries)
        graph.events[entity_id] = seg.events
        if seg.fallback:
            report.fallback_entities.append(entity_id)

    return graph, report


# ---------------------------------------------------------------------------
# Embedding persistence: embeddings.bin + embeddings.index.jsonl

_MAGIC = struct.Struct("<II")  # dimension, count
# One line of the row index, as ``json.dumps(entry, sort_keys=True)`` writes it.
_ROW_LINE = '{"entity_id": %d, "frame_index": %d, "row": %d}\n'
# An int as JSON spells it (no leading zero, no plus sign), so the pattern accepts no line json.loads rejects,
# of at most 18 digits, so every int it accepts fits in int64; a longer one sends the document to the JSON path.
_INT = "(-?(?:0|[1-9][0-9]{0,17}))"
_INT64 = np.iinfo(np.int64)
_CANONICAL_ROW = re.compile(
    r'^\{"entity_id": %s, "frame_index": %s, "row": %s\}\n' % (_INT, _INT, _INT), re.MULTILINE
)


def write_embeddings(columns: EmbeddingColumns, bin_path: str | Path, index_path: str | Path) -> None:
    """Write the vectors as little-endian float32 rows, one per node, and one index line per row."""
    rows = columns.vectors.astype("<f4")[columns.vector_of]
    count, dim = rows.shape
    with open(bin_path, "wb") as fh:
        fh.write(_MAGIC.pack(dim, count))
        fh.write(rows.tobytes())
    with open(index_path, "w") as fh:
        fh.write(
            "".join(
                _ROW_LINE % (entity_id, frame_index, row)
                for row, (entity_id, frame_index) in enumerate(
                    zip(columns.entities.tolist(), columns.frames.tolist())
                )
            )
        )


def _index_entries(text: str) -> Iterator[tuple[int, int, int, int]]:
    """``(line, row, entity_id, frame_index)`` of each row the index document lists.

    A document of canonical lines only (what ``write_embeddings`` writes) is
    read with one regex pass; any other is decoded line by line as JSON.
    A field that is not an int, or an ``entity_id`` or ``frame_index``
    outside int64, raises ParseError with the line and field.
    """
    found = _CANONICAL_ROW.findall(text)
    if text.endswith("\n") and len(found) == text.count("\n"):
        for lineno, (entity_id, frame_index, row) in enumerate(found, start=1):
            yield lineno, int(row), int(entity_id), int(frame_index)
        return
    for lineno, entry in json_objects(text, "index row"):
        values = []
        for name in ("row", "entity_id", "frame_index"):
            try:
                values.append(int(entry[name]))
            except MALFORMED as exc:
                raise ParseError(f"malformed index row: {exc}", line=lineno, field=name) from exc
        row, entity_id, frame_index = values
        for name, value in (("entity_id", entity_id), ("frame_index", frame_index)):
            if not _INT64.min <= value <= _INT64.max:
                raise ParseError(f"{name} {value} does not fit in int64", line=lineno, field=name)
        yield lineno, row, entity_id, frame_index


def read_embeddings(
    bin_path: str | Path,
    index_path: str | Path,
    graph: SpatioTemporalGraph,
    dim: int | None = None,
) -> EmbeddingColumns:
    """Load the rows, in index order, with their descriptions restored from ``graph``.

    The index must list each row and each ``(entity_id, frame_index)`` key
    once, as many rows as the header counts, and exactly the graph's node
    keys, which the graph must list once each. A non-empty file's vectors
    must have ``dim`` entries when ``dim`` is given, and every value must
    be finite. Anything else raises ParseError.

    Rows that share a description share one vector when their stored bytes
    are equal, so only distinct rows are converted to float64; any other
    row gets its own vector.
    """
    raw = read_document(bin_path, binary=True)
    if len(raw) < _MAGIC.size:
        raise ParseError("embeddings file too short for header", field="header")
    stored_dim, count = _MAGIC.unpack_from(raw)
    expected = _MAGIC.size + 4 * stored_dim * count
    if len(raw) != expected:
        raise ParseError(
            f"embeddings file has {len(raw)} bytes, expected {expected}", field="body"
        )
    if dim is not None and count and stored_dim != dim:
        raise ParseError(f"{bin_path}: vectors have dimension {stored_dim}, expected {dim}", field="dim")
    stored = np.frombuffer(raw, dtype="<f4", offset=_MAGIC.size).reshape(count, stored_dim)

    descriptions = {(n.entity_id, n.frame_index): n.description or "" for n in graph.nodes}
    if len(descriptions) != len(graph.nodes):
        raise ParseError("graph lists node entity %s frame %s twice" % next(repeated_nodes(graph.nodes)))

    rows: list[int] = []
    keys: list[tuple[int, int]] = []
    seen_rows: set[int] = set()
    seen_keys: set[tuple[int, int]] = set()
    text = read_document(index_path)
    for lineno, row, entity_id, frame_index in _index_entries(text):
        key = (entity_id, frame_index)
        if len(rows) == count:
            raise ParseError(f"index lists more than the header's {count} rows", line=lineno, field="row")
        if not 0 <= row < count:
            raise ParseError(f"row {row} out of range", line=lineno, field="row")
        if row in seen_rows:
            raise ParseError(f"row {row} listed twice", line=lineno, field="row")
        if key in seen_keys:
            raise ParseError(f"entity {entity_id} frame {frame_index} listed twice", line=lineno)
        if key not in descriptions:
            raise ParseError(f"entity {entity_id} frame {frame_index} is not a graph node", line=lineno)
        seen_rows.add(row)
        seen_keys.add(key)
        rows.append(row)
        keys.append(key)
    if len(rows) < count:
        raise ParseError(
            f"index lists {len(rows)} rows, header counts {count}", line=len(text.splitlines()) + 1, field="row"
        )
    if len(rows) < len(descriptions):
        entity_id, frame_index = next(k for k in descriptions if k not in seen_keys)
        raise ParseError(f"graph node entity {entity_id} frame {frame_index} has no embedding row")
    texts = [descriptions[key] for key in keys]
    if rows != list(range(count)):
        stored = stored[rows]
    vectors, vector_of = _distinct_vectors(stored, texts)
    if not np.isfinite(vectors).all():
        bad = int(np.argmin(np.isfinite(vectors).all(axis=1)))
        row = rows[int(np.argmax(vector_of == bad))]
        raise ParseError(f"row {row} has a non-finite value", field="row")
    entities, frames = zip(*keys) if keys else ((), ())
    return EmbeddingColumns(
        vectors, vector_of, np.array(entities, dtype=np.int64), np.array(frames, dtype=np.int64), texts
    )


# Rows per block of ``_distinct_vectors``' byte comparison: 96 rows of
# 256 float32s is a 96 KB temporary, below the size at which glibc maps a
# fresh block from the OS; the page faults of larger temporaries cost more
# than converting only the distinct rows saves. A short video's rows fit
# in one block.
_SHARE_BLOCK = 96


def _distinct_vectors(stored: np.ndarray, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(vectors, vector_of)`` in float64 for float32 rows in index order.

    Rows with the same text share the first such row's vector when their
    stored bytes are equal to it; any other row gets a vector of its own.
    """
    count = len(stored)
    first: dict[str, int] = {}
    owner = np.array([first.setdefault(text, i) for i, text in enumerate(texts)], dtype=np.intp)
    firsts = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    # ``firsts`` ascends, so each row's position in it is its vector.
    vector_of = np.searchsorted(firsts, owner)
    candidates = stored[firsts]
    bits, candidate_bits = stored.view(np.uint32), candidates.view(np.uint32)
    differ = np.empty(count, dtype=bool)
    for start in range(0, count, _SHARE_BLOCK):
        block = slice(start, start + _SHARE_BLOCK)
        differ[block] = (bits[block] != candidate_bits[vector_of[block]]).any(axis=1)
    if differ.any():
        own = np.flatnonzero(differ)
        vector_of[own] = len(firsts) + np.arange(len(own))
        candidates = np.concatenate([candidates, stored[own]])
    return candidates.astype(np.float64), vector_of
