"""Build the full graph from associated observations via backend calls.

Stages: per-frame relation edges, per-node descriptions, node embeddings,
and per-entity event segmentation. Each stage is deterministic under the
mock backend; results are keyed and sorted canonically so completion order
never affects the output. Node embeddings are ``EmbeddingColumns``, the one
embedding type: ``embed_graph`` returns them, ``write_embeddings`` persists
them, and ``read_embeddings`` loads them back against their graph.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import backends
from .backends import generate_items_with_retries, generate_with_retries, make_bundle
from .errors import BackendError, MalformedResponse, ParseError, read_document
from .graph_model import (
    MENTION,
    SENTENCE_END,
    EntityEvent,
    EntityNode,
    FrameRecord,
    NodeTable,
    RelationEdge,
    SpatioTemporalGraph,
    entity_timeline,
    first_seen,
    node_edges,
    node_rows,
)


@dataclass(eq=False)
class EmbeddingRecord:
    """One node's description text and its unit-norm embedding vector."""

    entity_id: int
    frame_index: int
    description: str
    vector: np.ndarray


class EmbeddingColumns:
    """Node embeddings held as read-only columns, each distinct vector and its text once.

    ``vectors`` is a float64 array with one row per distinct vector, and
    ``descriptions`` the list of their texts, in the same order. Each of
    the other columns has an entry per row (node): ``vector_of`` (intp) its
    vector, so row ``i``'s vector is ``vectors[vector_of[i]]`` and its text
    ``descriptions[vector_of[i]]``, and ``entities`` and ``frames`` (int64).
    Iterating yields each row as an ``EmbeddingRecord`` made on access.
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
        if len(descriptions) != len(vectors):
            raise ValueError(f"{len(descriptions)} descriptions for {len(vectors)} vectors")

    def __len__(self) -> int:
        return len(self.vector_of)

    def __iter__(self) -> Iterator[EmbeddingRecord]:
        vectors, descriptions = self.vectors, self.descriptions
        for entity_id, frame_index, j in zip(self.entities.tolist(), self.frames.tolist(), self.vector_of.tolist()):
            yield EmbeddingRecord(entity_id, frame_index, descriptions[j], vectors[j])


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


def _has_comention(description: str) -> bool:
    for sentence in SENTENCE_END.split(description):
        if len(MENTION.findall(sentence)) >= 2:
            return True
    return False


def build_frame_graph(
    batch: list[tuple[FrameRecord, list[int]]],
    backend,
    max_retries: int,
) -> tuple[list[RelationEdge], int]:
    """Relation edges for distinct frames asked in one prompt, plus the count of dropped lines.

    ``batch`` pairs each frame with the IDs of the entities in it, which
    the prompt lists in ascending order, each once. The reply is parsed as
    ``frame|subject|relation|object`` lines, each charged to the frame it
    names. A line of a requested frame is dropped if its triple does not
    parse, references an entity absent from that frame, or relates an
    entity to itself. A line that names no requested frame (its first
    field is not the index of one) is dropped too, and charged to the
    reply's first kept frame. A frame whose description co-mentions two
    entities in a sentence but which gets no parseable triple is
    rejected; only rejected frames are asked again, up to ``max_retries``
    asks in all, as in :func:`generate_items_with_retries`. Edges come in
    batch order; the count covers the lines of kept frames only.
    """
    present = {frame.frame_index: set(ids) for frame, ids in batch}

    def bundle(asked: list[tuple[FrameRecord, list[int]]]) -> backends.PromptBundle:
        return make_bundle("frame_graph", backends.frame_graph_payload(
            [(frame.frame_index, sorted(present[frame.frame_index]), frame.description) for frame, _ in asked]
        ))

    def parse(text: str, asked: list[tuple[FrameRecord, list[int]]]) -> list:
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


def describe_node(graph: SpatioTemporalGraph, node: EntityNode, backend, max_retries: int) -> str:
    """One-sentence description of ``node``, a node of ``graph``, covering its attributes and its edges in ``graph``
    (:func:`node_edges`), asked at most ``max_retries`` times: one node's part of a build."""
    block = backends.node_block(node.entity_id, node.attributes, node_edges(graph, node.entity_id, node.frame_index))
    return _describe([((node.entity_id, node.frame_index), block)], backend, max_retries)[0]


def _describe(items: list[tuple[tuple[int, int], str]], backend, max_retries: int) -> list[str]:
    """The accepted sentence for each ``((entity, frame), node block)``, the blocks asked in one prompt.

    The reply is parsed as ``k|sentence`` lines, where ``k`` is a block's
    position in the prompt, from 0. A line whose ``k`` is not an integer
    in range is ignored. A block with no line, with more than one line or
    with an empty sentence is rejected; only rejected blocks are asked
    again, as in :func:`generate_items_with_retries`, and an error names
    the block's node key.
    """

    def parse(text: str, asked: list[tuple[tuple[int, int], str]]) -> list:
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

    def bundle(asked: list[tuple[tuple[int, int], str]]) -> backends.PromptBundle:
        return make_bundle("node_description", backends.node_description_payload([block for _, block in asked]))

    return generate_items_with_retries(
        backend, items, bundle, parse, lambda item: "entity {} frame {}".format(*item[0]), max_retries,
    )


def _node_blocks(graph: SpatioTemporalGraph) -> tuple[list[tuple[tuple[int, int], str]], np.ndarray]:
    """Each distinct ``node_description`` block of the graph's nodes, in first-seen (frame, entity) order and
    labelled by its first node's key ``(entity, frame)``, and each node's block number.

    Read from the columns, with no record per node: each state's head (:func:`backends.node_head`) and each
    edge's line (:func:`backends.relation_line`) is rendered once, and a node's lines follow in the graph's
    edge order, a self-edge's once, as :func:`node_edges` lists its edges. A node's block is
    ``backends.node_block(entity, attributes, node_edges(graph, entity, frame))``.
    """
    nodes, edges = graph.nodes, graph.edges
    heads = list(map(backends.node_head, nodes.attributes))
    lines = ["\n" + backends.relation_line(s, edges.relations[r], o)
             for s, r, o in zip(edges.subject.tolist(), edges.relation.tolist(), edges.object.tolist())]
    # Each edge's ends: its subject, and its object unless that is the subject. Each end that is a node
    # gives that node the edge's line, the node's lines in edge order.
    other = np.flatnonzero(edges.subject != edges.object)
    end_edge = np.concatenate([np.arange(len(edges)), other])
    end_row = node_rows(nodes, np.concatenate([edges.subject, edges.object[other]]), edges.frame[end_edge])
    order = np.lexsort((end_edge, end_row))
    order = order[end_row[order] >= 0]
    end_lines = [lines[e] for e in end_edge[order].tolist()]
    stops = np.cumsum(np.bincount(end_row[order], minlength=len(nodes))).tolist()
    texts: dict[str, int] = {}
    block_of = np.array([
        texts.setdefault(f"entity: {entity}\n{heads[state]}{''.join(end_lines[start:stop])}", len(texts))
        for entity, state, start, stop in zip(nodes.entity.tolist(), nodes.state.tolist(), [0, *stops], stops)
    ], dtype=np.intp)
    firsts, _ = first_seen(block_of)
    keys = zip(nodes.entity[firsts].tolist(), nodes.frame[firsts].tolist())
    return list(zip(keys, texts)), block_of


def _node_columns(graph: SpatioTemporalGraph) -> tuple[np.ndarray, np.ndarray, list[str], np.ndarray, np.ndarray]:
    """``(entities, frames, descriptions, firsts, vector_of)`` of the graph's nodes, in its (frame, entity) order.

    ``descriptions`` holds each distinct description once, in first-seen
    order, ``firsts`` the first node with each, and ``vector_of`` each
    node's description number, so node ``i``'s description is
    ``descriptions[vector_of[i]]``. Read from the graph's state column: a
    description is numbered once per state, not once per node.
    """
    nodes = graph.nodes
    texts: dict[str, int] = {}
    of_state = np.array([texts.setdefault(d or "", len(texts)) for d in nodes.descriptions], dtype=np.intp)
    numbers = of_state[nodes.state]
    firsts, vector_of = first_seen(numbers)
    texts_list = list(texts)
    return nodes.entity, nodes.frame, [texts_list[k] for k in numbers[firsts].tolist()], firsts, vector_of


def embed_graph(graph: SpatioTemporalGraph, backend) -> EmbeddingColumns:
    """One embedding row per node, in (frame, entity) order; all nodes must be described first.

    Each distinct description is embedded once per call, in first-seen
    order, and held once, with its text, in the columns; nodes that share a
    description share its vector: within one build, identical texts get
    identical vectors. A backend error is raised, naming the node, and
    never remembered.
    """
    entities, frames, descriptions, firsts, vector_of = _node_columns(graph)
    if "" in descriptions:
        i = firsts[descriptions.index("")]
        raise ParseError(f"node entity {entities[i]} frame {frames[i]} has no description", field="description")
    vectors: list[np.ndarray] = []
    for i, description in zip(firsts.tolist(), descriptions):
        try:
            vectors.append(np.asarray(backend.embed(description), dtype=np.float64))
        except BackendError as exc:
            raise type(exc)(f"embedding entity {entities[i]} frame {frames[i]}: {exc}") from exc
    return EmbeddingColumns(
        np.stack(vectors) if vectors else np.zeros((0, 0)), vector_of, entities, frames, descriptions
    )


def _appearance_runs(frames: list[int]) -> list[list[int]]:
    """``frames``, ascending, cut into runs of consecutive frames."""
    runs: list[list[int]] = []
    for frame in frames:
        if runs and frame == runs[-1][-1] + 1:
            runs[-1].append(frame)
        else:
            runs.append([frame])
    return runs


def segment_events(
    graph: SpatioTemporalGraph, entity_id: int, backend, max_retries: int
) -> EventSegmentation:
    """Chunk one entity's frames into events via the backend.

    Absence gaps always force an event boundary, so the backend is called
    once per maximal contiguous appearance run. The prompt lists each
    distinct ``(action, description)`` state of the run once, numbered,
    and then each frame with its state number
    (:func:`backends.event_segmentation_payload`): at 1 fps a state lasts
    many frames, so the prompt grows by one short line per frame. The
    reply names frames, not states. If a run's response fails the event
    invariants after ``max_retries`` asks, that run falls back to a single
    event summarized by its first frame's description, and the result is
    flagged. The entity's rows are read from the graph's columns.
    """
    nodes = graph.nodes
    timeline = entity_timeline(graph, entity_id).rows
    states = nodes.state[timeline].tolist()
    attributes, descriptions = nodes.attributes, nodes.descriptions
    events: list[EntityEvent] = []
    fallback = False

    done = 0
    for run in _appearance_runs(nodes.frame[timeline].tolist()):
        first, last = run[0], run[-1]
        run_states = states[done:done + len(run)]
        done += len(run)
        rows = [(frame, attributes[s].get("action", ""), descriptions[s] or "") for frame, s in zip(run, run_states)]
        payload = backends.event_segmentation_payload(entity_id, rows)
        bundle = make_bundle("event_segmentation", payload)

        def parse(text: str, first=first, last=last) -> list[EntityEvent]:
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
            if any(ev.start_frame > ev.end_frame for ev in spans):
                raise ValueError("inverted event span")
            # The run's frames are first..last, so the spans cover them exactly when each starts where the
            # one before it ended: checked by arithmetic, as a reply's span may be of any length.
            starts = [first] + [ev.end_frame + 1 for ev in spans]
            if [ev.start_frame for ev in spans] != starts[:-1] or starts[-1] != last + 1:
                raise ValueError("events do not exactly cover the appearance run")
            return spans

        try:
            events.extend(generate_with_retries(backend, bundle, parse, max_retries))
        except MalformedResponse:
            s = run_states[0]
            summary = descriptions[s] or attributes[s].get("action", "") or f"entity {entity_id}"
            events.append(EntityEvent(entity_id, first, last, summary))
            fallback = True

    return EventSegmentation(events=events, fallback=fallback)


def build_graph(
    frames: list[FrameRecord],
    nodes: NodeTable | list[EntityNode],
    backend,
    fps: float,
    max_retries: int,
) -> tuple[SpatioTemporalGraph, BuildReport]:
    """Full build: edges, descriptions, and events, each prompt asked at most ``max_retries`` times, at ``fps``.

    The frames that hold nodes are asked for their edges
    ``ITEMS_PER_CALL`` at a time, in frame order (:func:`build_frame_graph`),
    each with its entity IDs cut from the entity column. Each node's
    ``node_description`` block is put together from the columns, its
    state's head and its edges' lines each rendered once (:func:`_node_blocks`),
    with no record made per node; each distinct block is asked once per call,
    ``ITEMS_PER_CALL`` blocks to a prompt in first-seen order, and nodes
    whose blocks are identical share its accepted sentence: within one
    build, identical blocks get identical replies. Replies that fail
    parsing are retried item by item as in
    :func:`generate_items_with_retries`; a backend error is raised and
    never remembered. Each stage makes a new graph with
    ``dataclasses.replace``: with the edges, then with the described nodes,
    then with the events. The described nodes share the node columns and
    number their states again, one per distinct (state, sentence) pair.
    """
    graph = SpatioTemporalGraph(frames, nodes, fps=fps)
    report = BuildReport()

    # Each frame's entity IDs, cut from the entity column: the nodes come in (frame, entity) order.
    nodes = graph.nodes
    frame_ids, firsts = np.unique(nodes.frame, return_index=True)
    entities, stops = nodes.entity.tolist(), [*firsts[1:].tolist(), len(nodes)]
    present = {f: entities[a:b] for f, a, b in zip(frame_ids.tolist(), firsts.tolist(), stops)}
    batch = [(frame, present[frame.frame_index]) for frame in graph.frames if frame.frame_index in present]
    all_edges: list[RelationEdge] = []
    for start in range(0, len(batch), ITEMS_PER_CALL):
        edges, dropped = build_frame_graph(batch[start : start + ITEMS_PER_CALL], backend, max_retries)
        all_edges.extend(edges)
        report.dropped_edge_lines += dropped
    graph = replace(graph, edges=all_edges)

    distinct, block_of = _node_blocks(graph)
    sentences: list[str] = []
    for start in range(0, len(distinct), ITEMS_PER_CALL):
        sentences.extend(_describe(distinct[start : start + ITEMS_PER_CALL], backend, max_retries))
    # A described node's state is its (state, sentence) pair: the same attributes with its block's sentence.
    said: dict[str, int] = {}
    sentence_of = np.array([said.setdefault(text, len(said)) for text in sentences], dtype=np.intp)[block_of]
    pairs, state = np.unique(nodes.state * len(said) + sentence_of, return_inverse=True)
    old, sentence = np.divmod(pairs, max(len(said), 1))
    texts = list(said)
    graph = replace(graph, nodes=NodeTable(
        nodes.entity, nodes.frame, nodes.box, state.reshape(-1),
        [nodes.attributes[s] for s in old.tolist()], [texts[j] for j in sentence.tolist()],
    ))

    events: dict[int, list[EntityEvent]] = {}
    for entity_id in graph.entity_ids():
        seg = segment_events(graph, entity_id, backend, max_retries)
        events[entity_id] = seg.events
        if seg.fallback:
            report.fallback_entities.append(entity_id)

    return replace(graph, events=events), report


# ---------------------------------------------------------------------------
# Embedding persistence: embeddings.bin + embeddings.bin.index.jsonl
#
# ``embeddings.bin`` is a (dimension, count) header, then one little-endian
# float32 row per distinct node description, in first-seen (frame, entity)
# order. The index file holds those descriptions, one JSON string per line, in
# the same order, with LF line ends on every platform. The reader renders the
# index from the graph and compares it byte for byte, with no newline
# translation, so a file embedded before a description changed cannot load.

_MAGIC = struct.Struct("<II")  # dimension, count
_RE_EMBED = "re-run `ravu embed` to rewrite the embeddings"


def _index_text(descriptions: Iterable[str]) -> str:
    return "".join([encode_basestring_ascii(d) + "\n" for d in descriptions])


def write_embeddings(columns: EmbeddingColumns, bin_path: str | Path, index_path: str | Path) -> None:
    """Write each vector of ``columns`` as a float32 row, and its description as an index line."""
    rows = columns.vectors.astype("<f4")
    count, dim = rows.shape
    with open(bin_path, "wb") as fh:
        fh.write(_MAGIC.pack(dim, count))
        fh.write(rows.tobytes())
    Path(index_path).write_bytes(_index_text(columns.descriptions).encode("ascii"))


def read_embeddings(
    bin_path: str | Path,
    index_path: str | Path,
    graph: SpatioTemporalGraph,
    dim: int | None = None,
) -> EmbeddingColumns:
    """Load the rows ``write_embeddings`` wrote for ``embed_graph(graph)``, descriptions restored from ``graph``.

    The index must be, byte for byte, the one the graph's distinct node
    descriptions give in first-seen (frame, entity) order, and the header
    must count one row per index line. A non-empty file's vectors must have
    ``dim`` entries when ``dim`` is given, and every value must be finite.
    Each node takes the row of its description. Anything else raises
    ParseError naming the file.
    """
    raw = read_document(bin_path, binary=True)
    if len(raw) < _MAGIC.size:
        raise ParseError("embeddings file too short for header", field="header", path=bin_path)
    stored_dim, count = _MAGIC.unpack_from(raw)
    expected = _MAGIC.size + 4 * stored_dim * count
    if len(raw) != expected:
        raise ParseError(f"embeddings file has {len(raw)} bytes, expected {expected}", field="body", path=bin_path)
    if dim is not None and count and stored_dim != dim:
        raise ParseError(f"vectors have dimension {stored_dim}, expected {dim}", field="dim", path=bin_path)

    entities, frames, descriptions, firsts, vector_of = _node_columns(graph)
    text = read_document(index_path)
    want = _index_text(descriptions)
    if text != want:
        pairs = zip_longest(want.splitlines(keepends=True), text.splitlines(keepends=True))
        line, (should, found) = next((k, pair) for k, pair in enumerate(pairs, start=1) if pair[0] != pair[1])
        should, found = ("the end of the file" if s is None else repr(s) for s in (should, found))
        raise ParseError(
            f"should be {should}, found {found}; {_RE_EMBED}", line=line, field="description", path=index_path
        )
    if count != len(descriptions):
        raise ParseError(
            f"header counts {count} rows, the index lists {len(descriptions)} descriptions; {_RE_EMBED}",
            field="header", path=bin_path,
        )

    vectors = np.frombuffer(raw, dtype="<f4", offset=_MAGIC.size).reshape(count, stored_dim).astype(np.float64)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise ParseError(f"row {int(np.argmin(finite))} has a non-finite value", field="row", path=bin_path)
    return EmbeddingColumns(vectors, vector_of, entities, frames, descriptions)
