"""Persisted artifacts: byte-level goldens, the graph writer against ``json.dumps``,
and the embedding row index, which the reader checks against the text its graph implies."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravu import accel
from ravu.backends import MockBackend
from ravu.config import RavuConfig
from ravu.evaluate import build_video
from ravu.errors import ParseError
from ravu.graph_builder import EmbeddingRecord, embed_graph, read_embeddings, write_embeddings
from ravu.graph_model import (
    BoundingBox,
    EntityEvent,
    EntityNode,
    FrameRecord,
    RelationEdge,
    SpatioTemporalGraph,
    deserialize,
    serialize,
)
from ravu.index import EmbeddingIndex
from ravu.synth import synth_world

from conftest import make_columns, record_rows

# sha256 of (graph document, embeddings.bin, row index) for synth_world(1, frames, entities)
# built with the mock backend and the default config.
GOLDEN_SHA256 = {
    (24, 3): (
        "aaded7e26af0bafa11cc16095e644215ca84ba2e6315ab860cf962192a6b9b20",
        "52aac5f3b630fccc1631ec143ae0130a008a58004f4b95be4e1a7bd036cd559f",
        "8251d8d821769ffa79682b956e5e49c57788ebd3f04809020a1c21df8dab0b23",
    ),
    (200, 6): (
        "c780d7c46fa314aff6a556b19b0e1360a01e6f3758f35cb07d20ad6d9363cadb",
        "b5a4856039d85edf9353cbaa03af78cf4dc59cba9c2a55620389a1758650048c",
        "5fbd7717057a11f6b52a6b78a067a8d2f80bce7fe886be86951cedc09a2dfd5b",
    ),
    (600, 8): (
        "1360cb3ca4372006f904bb2c5c1f04b68cd6cd42f178c2d455f4724d36d55c70",
        "093c32b050083720e38f84ce493e6176fd36cdd7d85747e8a6df262d28889371",
        "843bc5532532de57977cd42792a7050c3ca619f10cf503e286d061afb2b9f0f2",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("shape", sorted(GOLDEN_SHA256))
def test_artifacts_match_their_golden_bytes(tmp_path, shape):
    world = synth_world(1, *shape)
    assets = build_video(world.observations_text, world.tracklets_text, MockBackend(), RavuConfig())
    bin_path, idx_path = tmp_path / "embeddings.bin", tmp_path / "embeddings.index.jsonl"
    write_embeddings(assets.index.records, bin_path, idx_path)
    got = (
        sha256(serialize(assets.graph).encode()),
        sha256(bin_path.read_bytes()),
        sha256(idx_path.read_bytes()),
    )
    assert got == GOLDEN_SHA256[shape]


# ---------------------------------------------------------------------------
# The graph writer against the json.dumps document it replaced.


def oracle_serialize(graph):
    """``serialize`` as it was: build the document as dicts and lists, then ``json.dumps`` it."""
    frames = sorted(graph.frames, key=lambda f: f.frame_index)
    nodes = sorted(graph.nodes, key=lambda n: (n.frame_index, n.entity_id))
    edges = sorted(graph.edges, key=lambda e: (e.frame_index, e.subject_id, e.object_id, e.relation))
    doc = {
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
                "box": [float(n.box.x_min), float(n.box.y_min), float(n.box.x_max), float(n.box.y_max)],
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
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Non-ASCII text, quotes, backslashes and control characters, besides any text.
texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n\t\r", "\x00\x1f\x7f", "é", "€", "😀", " ", 'a "b" \\c']),
)
floats = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, 0.1, 1e16, 1e-7, 2.5, math.inf, -math.inf, math.nan])
)
ints = st.integers(-3, 10**20)
frames = st.builds(FrameRecord, ints, floats, texts, texts)
nodes = st.builds(
    EntityNode,
    st.integers(0, 12),
    st.integers(0, 5),
    st.dictionaries(texts, texts, max_size=3),
    st.builds(BoundingBox, floats, floats, floats, floats),
    st.one_of(st.none(), texts),
)
edges = st.builds(RelationEdge, st.integers(0, 3), st.integers(0, 3), texts, st.integers(0, 3))
events = st.dictionaries(
    st.integers(0, 12),
    st.lists(st.builds(EntityEvent, st.integers(0, 12), ints, ints, texts), max_size=3),
    max_size=4,
)
graphs = st.builds(
    SpatioTemporalGraph,
    st.lists(frames, max_size=3),
    st.lists(nodes, max_size=5),
    st.lists(edges, max_size=4),
    events,
    floats,
)


@settings(max_examples=300)
@given(graphs)
def test_serialize_matches_the_json_dumps_document(graph):
    assert serialize(graph) == oracle_serialize(graph)


def test_serialize_matches_the_json_dumps_document_on_built_graphs():
    for shape in [(24, 3), (200, 6)]:
        world = synth_world(2, *shape)
        graph = build_video(world.observations_text, world.tracklets_text, MockBackend()).graph
        assert serialize(graph) == oracle_serialize(graph)


def test_serialize_of_an_empty_graph():
    text = serialize(SpatioTemporalGraph())
    assert text == oracle_serialize(SpatioTemporalGraph())
    assert '"nodes": []' in text and '"events": {}' in text


# ---------------------------------------------------------------------------
# The row index: the reader accepts exactly the text the graph implies, and
# names the index file and its first line that differs from that text.


def described_graph():
    nodes = [
        EntityNode(entity_id, frame, {"action": "running"}, BoundingBox(0, 0, 4, 4), f"e{entity_id}f{frame}")
        for frame in range(3)
        for entity_id in (0, 1)
    ]
    return SpatioTemporalGraph(frames=[FrameRecord(f, float(f), "") for f in range(3)], nodes=nodes)


@pytest.fixture
def saved(tmp_path):
    """(graph, bin path, index path, index entries) of ``described_graph`` with random vectors."""
    graph = described_graph()
    rng = np.random.default_rng(5)
    records = [
        EmbeddingRecord(n.entity_id, n.frame_index, n.description, rng.standard_normal(4))
        for n in graph.nodes
    ]
    bin_path, idx_path = tmp_path / "e.bin", tmp_path / "e.idx"
    write_embeddings(make_columns(records), bin_path, idx_path)
    entries = [json.loads(line) for line in idx_path.read_text().splitlines()]
    return graph, bin_path, idx_path, entries


def canonical(entries):
    return "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries)


def index_error(saved, text):
    """The ParseError of reading ``saved`` with its index replaced by ``text``."""
    graph, bin_path, idx_path, _ = saved
    idx_path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_embeddings(bin_path, idx_path, graph)
    message = str(exc.value)
    assert message.startswith(f"{idx_path}: line {exc.value.line}: should be ")
    assert message.endswith("; re-run `ravu embed` to rewrite the embeddings")
    return exc.value


def test_the_written_index_is_the_canonical_text(saved):
    graph, bin_path, idx_path, entries = saved
    assert idx_path.read_text() == canonical(entries)
    assert [(e["entity_id"], e["frame_index"], e["row"]) for e in entries] == [
        (n.entity_id, n.frame_index, row) for row, n in enumerate(graph.nodes)
    ]
    assert record_rows(read_embeddings(bin_path, idx_path, graph))[0][:3] == (0, 0, "e0f0")


def break_row(entries, i, **values):
    return [dict(e, **values) if j == i else e for j, e in enumerate(entries)]


OUTSIDE_INT64 = ["99999999999999999999", "-99999999999999999999"]  # 20 digits: more than int64 holds
NOT_AN_INT = ["Infinity", "-Infinity", "1e400", "NaN"]  # json reads the first three as float infinity
PLACEHOLDER = 424242424  # written in place of the bad value, then replaced by its spelling


def spell_row(entries, i, field, spelling):
    return canonical(break_row(entries, i, **{field: PLACEHOLDER})).replace(str(PLACEHOLDER), spelling)


# (index text from the written entries, the first line that differs from the written index)
OTHER_INDEXES = {
    "reordered keys": (lambda es: "".join(
        json.dumps({"row": e["row"], "frame_index": e["frame_index"], "entity_id": e["entity_id"]}) + "\n"
        for e in es
    ), 1),
    "extra spaces": (lambda es: "".join(
        json.dumps(e, sort_keys=True, separators=(" ,  ", " :  ")) + "\n" for e in es
    ), 1),
    "blank lines": (lambda es: "\n  \n".join(json.dumps(e, sort_keys=True) for e in es) + "\n\n", 2),
    "no final newline": (lambda es: canonical(es).rstrip("\n"), 6),
    "float row": (lambda es: canonical(es).replace('"row": 1}', '"row": 1.0}'), 2),
    "negative zero": (lambda es: canonical(es).replace('"row": 0}', '"row": -0}'), 1),
    "leading zero": (lambda es: canonical(es).replace('"row": 1}', '"row": 01}'), 2),
    "plus sign": (lambda es: canonical(es).replace('"row": 1}', '"row": +1}'), 2),
    "trailing text": (lambda es: canonical(es).replace('"row": 1}', '"row": 1 }x'), 2),
    "reordered lines": (lambda es: canonical([es[i] for i in [0, 1, 5, 2, 3, 4]]), 3),
    "swapped lines": (lambda es: canonical([es[1], es[0]] + es[2:]), 1),
    "repeated row": (lambda es: canonical(break_row(es, 2, row=0)), 3),
    "repeated key": (lambda es: canonical(break_row(es, 1, frame_index=0, entity_id=0)), 2),
    "missing line": (lambda es: canonical(es[:-1]), 6),
    "extra line": (lambda es: canonical(es + [{"entity_id": 0, "frame_index": 9, "row": 6}]), 7),
    "row out of range": (lambda es: canonical(break_row(es, 3, row=6)), 4),
    "negative row": (lambda es: canonical(break_row(es, 3, row=-1)), 4),
    "key not a node": (lambda es: canonical(break_row(es, 3, entity_id=7)), 4),
    "empty index": (lambda es: "", 1),
}


def assert_first_difference(saved, text, line):
    """Reading ``saved`` with ``text`` as its index fails at ``line``, quoting both versions of it."""
    error = index_error(saved, text)
    assert (error.line, error.field) == (line, "row")
    written = canonical(saved[3]).splitlines(keepends=True)
    found = text.splitlines(keepends=True)
    should = repr(written[line - 1]) if line <= len(written) else "the end of the file"
    got = repr(found[line - 1]) if line <= len(found) else "the end of the file"
    assert f"should be {should}, found {got};" in str(error)


@pytest.mark.parametrize("render, line", OTHER_INDEXES.values(), ids=OTHER_INDEXES)
def test_read_embeddings_rejects_any_other_index_at_its_first_differing_line(saved, render, line):
    assert_first_difference(saved, render(saved[3]), line)


@pytest.mark.parametrize("field", ["entity_id", "frame_index", "row"])
@pytest.mark.parametrize("spelling", OUTSIDE_INT64 + NOT_AN_INT)
def test_read_embeddings_reports_a_value_that_is_not_an_int64_with_its_line(saved, field, spelling):
    assert_first_difference(saved, spell_row(saved[3], 2, field, spelling), 3)


# Each changes only line ``i + 1`` of the written index, or removes it.
CHANGED_LINES = {
    "respelled": lambda es, i: canonical(es).replace(
        json.dumps(es[i], sort_keys=True), json.dumps(es[i], sort_keys=True, separators=(",", ":"))
    ),
    "another row": lambda es, i: canonical(break_row(es, i, row=(i + 1) % len(es))),
    "key not a node": lambda es, i: canonical(break_row(es, i, entity_id=7)),
    "removed": lambda es, i: canonical(es[:i] + es[i + 1:]),
}


@pytest.mark.parametrize("i", range(6))
@pytest.mark.parametrize("change", CHANGED_LINES.values(), ids=CHANGED_LINES)
def test_read_embeddings_names_the_changed_line_wherever_it_is(saved, change, i):
    assert_first_difference(saved, change(saved[3], i), i + 1)


def test_read_embeddings_checks_the_dimension_only_when_asked(saved):
    graph, bin_path, idx_path, _ = saved
    assert len(read_embeddings(bin_path, idx_path, graph, dim=4)) == 6
    with pytest.raises(ParseError, match=f"{bin_path}: vectors have dimension 4, expected 3") as exc:
        read_embeddings(bin_path, idx_path, graph, dim=3)
    assert exc.value.field == "dim"


def test_read_embeddings_checks_the_header_count_against_the_graph(saved):
    graph, bin_path, idx_path, _ = saved
    graph.nodes = graph.nodes[:-1]
    with pytest.raises(ParseError, match=f"^{bin_path}: header counts 6 rows, graph has 5 nodes$") as exc:
        read_embeddings(bin_path, idx_path, graph)
    assert exc.value.field == "header"


def test_read_embeddings_reads_ids_at_the_int64_bounds(saved):
    graph, bin_path, idx_path, entries = saved
    low, high = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    idx_path.write_text(canonical(break_row(break_row(entries, 0, entity_id=low), 5, frame_index=high)))
    graph.nodes[0].entity_id, graph.nodes[5].frame_index = low, high
    columns = read_embeddings(bin_path, idx_path, graph)
    assert (columns.entities[0], columns.frames[5]) == (low, high)


@pytest.mark.parametrize("field, value", [("entity_id", 2**63), ("frame_index", -(2**63) - 1)])
def test_a_loaded_graph_with_an_id_outside_int64_is_a_parse_error(saved, field, value):
    graph, bin_path, idx_path, entries = saved
    doc = json.loads(serialize(graph))
    doc["nodes"][2][field] = value
    loaded = deserialize(json.dumps(doc))
    node = loaded.nodes[2]
    message = f"^node entity {node.entity_id} frame {node.frame_index} has an ID outside int64$"
    with pytest.raises(ParseError, match=message):
        embed_graph(loaded, MockBackend())
    with pytest.raises(ParseError, match=message):
        read_embeddings(bin_path, idx_path, loaded)


# ---------------------------------------------------------------------------
# Loaded columns go to the index as they are.


def test_index_adopts_loaded_columns_without_a_copy(saved):
    graph, bin_path, idx_path, _ = saved
    columns = read_embeddings(bin_path, idx_path, graph)
    index = EmbeddingIndex(columns)
    assert index.records is columns
    assert index.vectors is columns.vectors and index.vector_of is columns.vector_of
    for column in (columns.vectors, columns.vector_of, columns.entities, columns.frames):
        assert not column.flags.writeable
    assert index.frames is columns.frames and index.entities is columns.entities
    assert index.descriptions is columns.descriptions


# ---------------------------------------------------------------------------
# Rows that share a description share one vector, and must hold equal bytes.


def shared_graph():
    """Six nodes in (frame, entity) order, the first three described "left", the rest "right"."""
    keys = [(entity_id, frame) for frame in range(3) for entity_id in (0, 1)]
    nodes = [
        EntityNode(entity_id, frame, {}, BoundingBox(0, 0, 4, 4), description)
        for (entity_id, frame), description in zip(keys, ["left"] * 3 + ["right"] * 3)
    ]
    return SpatioTemporalGraph(frames=[FrameRecord(f, float(f), "") for f in range(3)], nodes=nodes)


@pytest.fixture
def shared(tmp_path):
    """(graph, bin path, index path, written records) of ``shared_graph``, one vector per description."""
    graph = shared_graph()
    rng = np.random.default_rng(7)
    left, right = rng.standard_normal(4), rng.standard_normal(4)
    records = [
        EmbeddingRecord(n.entity_id, n.frame_index, n.description, vector)
        for n, vector in zip(graph.nodes, [left] * 3 + [right] * 3)
    ]
    bin_path, idx_path = tmp_path / "e.bin", tmp_path / "e.idx"
    write_embeddings(make_columns(records), bin_path, idx_path)
    return graph, bin_path, idx_path, records


def stored(records):
    """``records`` with their vectors rounded to float32, as a reload gives them back."""
    return [
        EmbeddingRecord(r.entity_id, r.frame_index, r.description, r.vector.astype(np.float32).astype(np.float64))
        for r in records
    ]


def set_value(bin_path, row, column, value):
    """Overwrite one float32 of the six-row, four-column ``bin_path``."""
    raw = bin_path.read_bytes()
    body = np.frombuffer(raw, dtype="<f4", offset=8).reshape(6, 4).copy()
    body[row, column] = value
    bin_path.write_bytes(raw[:8] + body.tobytes())


def test_read_embeddings_shares_one_vector_per_description(shared):
    graph, bin_path, idx_path, records = shared
    columns = read_embeddings(bin_path, idx_path, graph)
    assert columns.vector_of.tolist() == [0, 0, 0, 1, 1, 1]
    assert len(columns.vectors) == 2
    assert record_rows(columns) == record_rows(stored(records))
    q = np.random.default_rng(8).standard_normal(4)
    full = np.stack([r.vector for r in stored(records)])
    assert EmbeddingIndex(columns).scores(q).tobytes() == accel.cosine_scores(full, q).tobytes()


def test_read_embeddings_rejects_rows_of_one_description_with_different_bytes(shared):
    graph, bin_path, idx_path, records = shared
    set_value(bin_path, 4, 2, np.nextafter(np.float32(records[4].vector[2]), np.float32(np.inf)))
    with pytest.raises(ParseError, match=f"^{bin_path}: row 4 differs from row 3, which holds the same description$"):
        read_embeddings(bin_path, idx_path, graph)


def test_write_embeddings_of_reloaded_columns_gives_back_the_same_bytes(shared, tmp_path):
    graph, bin_path, idx_path, _ = shared
    again_bin, again_idx = tmp_path / "again.bin", tmp_path / "again.idx"
    write_embeddings(read_embeddings(bin_path, idx_path, graph), again_bin, again_idx)
    assert (again_bin.read_bytes(), again_idx.read_bytes()) == (bin_path.read_bytes(), idx_path.read_bytes())


@pytest.mark.parametrize("n_frames", [24, 200, 600])
def test_read_embeddings_gives_back_the_written_columns(tmp_path, n_frames):
    world = synth_world(1, n_frames, 8)
    assets = build_video(world.observations_text, world.tracklets_text, MockBackend(), RavuConfig())
    bin_path, idx_path = tmp_path / "embeddings.bin", tmp_path / "embeddings.index.jsonl"
    written = assets.index.records
    write_embeddings(written, bin_path, idx_path)
    read = read_embeddings(bin_path, idx_path, assets.graph)
    assert read.vectors.tobytes() == written.vectors.astype("<f4").astype(np.float64).tobytes()
    assert read.vector_of.tolist() == written.vector_of.tolist()
    assert read.entities.tolist() == written.entities.tolist()
    assert read.frames.tolist() == written.frames.tolist()
    assert read.descriptions == written.descriptions


def test_built_and_reloaded_indexes_hold_one_vector_per_distinct_description(tmp_path):
    world = synth_world(1, 600, 8)
    assets = build_video(world.observations_text, world.tracklets_text, MockBackend(), RavuConfig())
    bin_path, idx_path = tmp_path / "embeddings.bin", tmp_path / "embeddings.index.jsonl"
    write_embeddings(assets.index.records, bin_path, idx_path)
    reloaded = EmbeddingIndex(read_embeddings(bin_path, idx_path, assets.graph))
    distinct = sorted(set(assets.index.descriptions))
    assert len(assets.index) == len(assets.graph.nodes) > 4 * len(distinct)
    for index in (assets.index, reloaded):
        assert len(index.vectors) == len(distinct)
        # Every row's vector is the first vector of its description.
        first = {}
        for description, vector in zip(index.descriptions, index.vector_of.tolist()):
            assert first.setdefault(description, vector) == vector
        assert len(set(first.values())) == len(distinct)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
# Row 5 would otherwise share row 3's vector; row 0 is the first "left" row, whose vector rows 1 and 2 would share.
@pytest.mark.parametrize("row", [5, 0], ids=["a later row", "a description's first row"])
def test_read_embeddings_rejects_a_non_finite_row(shared, value, row):
    graph, bin_path, idx_path, _ = shared
    set_value(bin_path, row, 1, value)
    with pytest.raises(ParseError, match=f"row {row} has a non-finite value") as exc:
        read_embeddings(bin_path, idx_path, graph)
    assert exc.value.field == "row"
