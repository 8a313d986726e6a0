"""Persisted artifacts: byte-level goldens, the columnar graph writer against
``json.dumps``, the refusal of format-1 and other-format graph documents, loadable
graphs round-tripped whatever order their document lists its rows in and however
it numbers its states and relations, and the embeddings, one float32 row per
distinct node description, with their index of those descriptions, which the reader
checks against the text its graph implies."""

import dataclasses
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravu import accel
from ravu.config import RavuConfig
from ravu.evaluate import build_video
from ravu.errors import ParseError
from ravu.graph_builder import EmbeddingColumns, EmbeddingRecord, _node_columns, read_embeddings, write_embeddings
from ravu.graph_model import (
    BoundingBox,
    EntityEvent,
    EntityNode,
    FrameRecord,
    RelationEdge,
    SpatioTemporalGraph,
    deserialize,
    entity_descriptions,
    entity_timeline,
    node_edges,
    serialize,
)
from ravu.index import EmbeddingIndex
from ravu.synth import synth_world

from conftest import floats, loadable_graphs, make_columns, mock_backend, record_rows, rows, table, texts

# sha256 of (graph document, embeddings.bin, description index) for synth_world(1, frames, entities)
# built with the mock backend and the default config.
GOLDEN_SHA256 = {
    (24, 3): (
        "c2a23074cbece2bca7c16b8decce361a6be35cec1b04844116d269a76b5e6ce9",
        "ac532806e15a68ee0024f0eed1e2b525b9a9d15c15b6a2ab5401ed7dee18e8d6",
        "6c50667994e74c7aade76f4573aea5c6526fc20e40fbd5ec1ce3b5f3ac1ac282",
    ),
    (200, 6): (
        "d841c47d102ac2350d7e52866270bc0151d585ab59064357eda178f34cf617ee",
        "5a4135e1ef878831d873560775e507759c37ad05f8987212c44efc8699ae14a4",
        "a7df30b33d655206c9d38248e5128c66dfb3019a3c5be9991fb69dda5f0705eb",
    ),
    (600, 8): (
        "b4547dee20f40bca37043a6951b164da9bc23db272ef418477dbb7342608fb56",
        "5305bad169f4011b62c0a3c013b8b30937f62a0838bb569b310f7f26db9f2f05",
        "be698f451ff5633692ad6ff269d3b43f40f2477b7801946c440a66431a163207",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("shape", sorted(GOLDEN_SHA256))
def test_artifacts_match_their_golden_bytes(tmp_path, shape):
    world = synth_world(1, *shape)
    assets = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig())
    bin_path, idx_path = tmp_path / "embeddings.bin", tmp_path / "embeddings.index.jsonl"
    write_embeddings(assets.index.records, bin_path, idx_path)
    got = (
        sha256(serialize(assets.graph).encode()),
        sha256(bin_path.read_bytes()),
        sha256(idx_path.read_bytes()),
    )
    assert got == GOLDEN_SHA256[shape]


# ---------------------------------------------------------------------------
# The graph writer against the json.dumps document of the graph's fields.


def in_graph_order(graph):
    """The graph's frames, nodes, edges and events, each sorted into the graph's order here."""
    return (
        sorted(graph.frames, key=lambda f: f.frame_index),
        sorted(graph.nodes, key=lambda n: (n.frame_index, n.entity_id)),
        sorted(graph.edges, key=lambda e: (e.frame_index, e.subject_id, e.object_id, e.relation)),
        {entity_id: sorted(evs, key=lambda ev: (ev.start_frame, ev.end_frame, ev.summary))
         for entity_id, evs in sorted(graph.events.items())},
    )


def first_seen(values):
    """The distinct ``values``, compared with ``==``, in first-seen order."""
    distinct = []
    for value in values:
        if value not in distinct:
            distinct.append(value)
    return distinct


def oracle_serialize(graph):
    """Build the format-2 document as dicts and lists, then ``json.dumps`` it with compact separators."""
    frames, nodes, edges, events = in_graph_order(graph)
    states = first_seen((n.attributes, n.description) for n in nodes)
    relations = first_seen(e.relation for e in edges)
    doc = {
        "format": 2,
        "fps": float(graph.fps),
        "frames": {
            "frame_index": [f.frame_index for f in frames],
            "timestamp_s": [float(f.timestamp_s) for f in frames],
            "description": [f.description for f in frames],
            "source_ref": [f.source_ref for f in frames],
        },
        # A node's attributes are a read-only mapping, which json does not write: its dict is.
        "states": {"attributes": [dict(a) for a, _ in states], "description": [d for _, d in states]},
        "nodes": {
            "entity_id": [n.entity_id for n in nodes],
            "frame_index": [n.frame_index for n in nodes],
            "state": [states.index((n.attributes, n.description)) for n in nodes],
            "box": [float(v) for n in nodes for v in (n.box.x_min, n.box.y_min, n.box.x_max, n.box.y_max)],
        },
        "relations": relations,
        "edges": {
            "frame_index": [e.frame_index for e in edges],
            "subject_id": [e.subject_id for e in edges],
            "object_id": [e.object_id for e in edges],
            "relation": [relations.index(e.relation) for e in edges],
        },
        "events": {
            str(entity_id): {
                "start_frame": [ev.start_frame for ev in evs],
                "end_frame": [ev.end_frame for ev in evs],
                "summary": [ev.summary for ev in evs],
            }
            for entity_id, evs in events.items()
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def format1_document(graph):
    """The document of format 1, which earlier versions wrote: one JSON object per frame, node, edge and
    event, each node with its own attributes and description, and no ``format`` key."""
    frames, nodes, edges, events = in_graph_order(graph)
    doc = {
        "fps": float(graph.fps),
        "frames": [{"frame_index": f.frame_index, "timestamp_s": float(f.timestamp_s), "description": f.description,
                    "source_ref": f.source_ref} for f in frames],
        "nodes": [{"entity_id": n.entity_id, "frame_index": n.frame_index, "attributes": dict(n.attributes),
                   "box": [float(v) for v in n.box], "description": n.description} for n in nodes],
        "edges": [{"frame_index": e.frame_index, "subject_id": e.subject_id, "relation": e.relation,
                   "object_id": e.object_id} for e in edges],
        "events": {str(entity_id): [{"start_frame": ev.start_frame, "end_frame": ev.end_frame, "summary": ev.summary}
                                    for ev in evs] for entity_id, evs in events.items()},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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
    st.lists(nodes, max_size=5, unique_by=lambda n: (n.entity_id, n.frame_index)),
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
        graph = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig()).graph
        assert serialize(graph) == oracle_serialize(graph)


def loaded(document):
    """The graph ``document`` holds, or the message of the ParseError it raises."""
    try:
        return deserialize(document)
    except ParseError as exc:
        return str(exc)


def indented(document):
    """``document`` as the same JSON value, nested two spaces deep."""
    return json.dumps(json.loads(document), sort_keys=True, indent=2) + "\n"


@settings(max_examples=300)
@given(graphs)
def test_an_indented_document_loads_as_the_compact_one(graph):
    document = serialize(graph)
    graph = loaded(indented(document))
    assert graph == loaded(document)
    if not isinstance(graph, str):
        assert serialize(graph) == document


FORMAT_1 = ("the graph document has no 'format', so it is format 1, which this version does not read; "
            "re-run `ravu build` to rewrite it")


@pytest.mark.parametrize("spelling", [lambda text: text, indented], ids=["compact", "indented"])
def test_a_format_1_document_is_refused_naming_its_format(spelling):
    world = synth_world(2, 24, 3)
    graph = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig()).graph
    document = serialize(graph)
    assert "\n" not in document[:-1] and deserialize(document) == graph
    doc = json.loads(document)
    del doc["format"]
    for text in (format1_document(graph), json.dumps(doc)):
        with pytest.raises(ParseError) as exc:
            deserialize(spelling(text))
        assert (str(exc.value), exc.value.field) == (FORMAT_1, "format")


@pytest.mark.parametrize("value", [1, 3, "2", 2.0, True, None, [2]], ids=repr)
def test_a_document_of_another_format_is_refused(value):
    doc = json.loads(serialize(one_node_graph()))
    doc["format"] = value
    with pytest.raises(ParseError) as exc:
        deserialize(json.dumps(doc))
    assert str(exc.value) == (f"the graph document is format {value!r}, and this version reads format 2 only; "
                              "re-run `ravu build` to rewrite it")
    assert exc.value.field == "format"


@settings(max_examples=200)
@given(loadable_graphs())
def test_a_loadable_graph_loads_to_an_equal_graph_and_the_same_bytes(graph):
    document = serialize(graph)
    again = deserialize(document)  # every draw loads: a ParseError fails the test
    assert again == graph
    assert serialize(again) == document


def reference_vector_of(graph):
    """Each node's description number and the distinct descriptions, a missing one read as "", numbered in
    first-seen node order: ``_node_columns``' ``vector_of`` and ``descriptions``, written one node at a time."""
    numbers: dict[str, int] = {}
    return [numbers.setdefault(n.description or "", len(numbers)) for n in graph.nodes], list(numbers)


@settings(max_examples=200)
@given(loadable_graphs())
def test_a_graph_made_from_records_and_its_loaded_document_read_alike(graph):
    """Columns filled from ``EntityNode`` records and columns filled from the document give the same lookups."""
    loaded = deserialize(serialize(graph))
    assert list(loaded.nodes) == list(graph.nodes)
    assert loaded.entity_ids() == graph.entity_ids()
    for frame in range(-1, len(graph.frames) + 1):
        assert loaded.nodes_in_frame(frame) == graph.nodes_in_frame(frame)
    for entity_id in graph.entity_ids():
        assert list(entity_timeline(loaded, entity_id)) == list(entity_timeline(graph, entity_id))
    for n in graph.nodes:
        assert node_edges(loaded, n.entity_id, n.frame_index) == node_edges(graph, n.entity_id, n.frame_index)
    assert entity_descriptions(loaded).entities == entity_descriptions(graph).entities
    assert serialize(loaded) == serialize(graph)
    for g in (graph, loaded):
        entities, frames, descriptions, firsts, vector_of = _node_columns(g)
        numbers, texts = reference_vector_of(g)
        assert (vector_of.tolist(), descriptions) == (numbers, texts)
        assert firsts.tolist() == [numbers.index(k) for k in range(len(texts))]
        assert (entities.tolist(), frames.tolist()) == ([n.entity_id for n in g.nodes], [n.frame_index for n in g.nodes])


def shuffled(records, random):
    """The table ``records`` with its rows in a random order."""
    rows_of = rows(records)
    random.shuffle(rows_of)
    return table(rows_of, records)


def renumbered(doc, random):
    """``doc`` with its states and relations numbered in a random order, its nodes and edges following."""
    for name, users, column in (("states", "nodes", "state"), ("relations", "edges", "relation")):
        old = doc[name] if name == "relations" else rows(doc[name])
        order = list(range(len(old)))
        random.shuffle(order)
        new = [old[i] for i in order]
        doc[name] = new if name == "relations" else table(new, doc[name])
        number = {i: k for k, i in enumerate(order)}
        doc[users][column] = [number[i] for i in doc[users][column]]
    return doc


@settings(max_examples=200)
@given(loadable_graphs(), st.randoms(use_true_random=False))
def test_a_document_listing_its_fields_in_any_order_loads_to_the_same_graph(graph, random):
    document = serialize(graph)
    doc = json.loads(document)
    for name in ("frames", "nodes", "edges"):
        doc[name] = shuffled(doc[name], random)
    keys = list(doc["events"])
    random.shuffle(keys)
    doc["events"] = {key: shuffled(doc["events"][key], random) for key in keys}
    again = deserialize(json.dumps(renumbered(doc, random)))  # unsorted keys: the events keep their shuffled order
    assert again == graph
    assert serialize(again) == document


def one_node_graph_with(**fields):
    """``one_node_graph`` with its frame, node, edge or events replaced by ``fields``."""
    return dataclasses.replace(one_node_graph(), **{name: [value] for name, value in fields.items()})


# Each a graph with one int or text field that holds another type.
MISTYPED = {
    "float entity ID": lambda: one_node_graph_with(nodes=EntityNode(0.0, 0, {}, BoundingBox(0, 0, 4, 4))),
    "str frame index": lambda: one_node_graph_with(frames=FrameRecord("0", 0.0, "a frame")),
    "int relation": lambda: one_node_graph_with(edges=RelationEdge(0, 0, 5, 0)),
    "bytes node description": lambda: one_node_graph_with(nodes=EntityNode(0, 0, {}, BoundingBox(0, 0, 4, 4), b"x")),
    "int attribute": lambda: one_node_graph_with(nodes=EntityNode(0, 0, {"action": 3}, BoundingBox(0, 0, 4, 4))),
    "None event summary": lambda: dataclasses.replace(one_node_graph(), events={0: [EntityEvent(0, 0, 0, None)]}),
}


@pytest.mark.parametrize("make", MISTYPED.values(), ids=MISTYPED)
def test_serialize_refuses_a_field_holding_another_type(make):
    with pytest.raises(TypeError):
        serialize(make())


def test_serialize_writes_a_boolean_id_as_an_int():
    document = serialize(one_node_graph_with(nodes=EntityNode(True, False, {}, BoundingBox(0, 0, 4, 4))))
    assert '"entity_id":[1],"frame_index":[0],' in document


NON_FINITE = [math.inf, -math.inf, math.nan]


def one_node_graph(timestamp=0.0, fps=1.0, x_max=4.0):
    return SpatioTemporalGraph(
        frames=[FrameRecord(0, timestamp, "a frame")],
        nodes=[EntityNode(0, 0, {}, BoundingBox(0.0, 0.0, x_max, 4.0))],
        fps=fps,
    )


# Each float field, as a function of its value that gives a graph holding it, and the ParseError's message and field.
FLOAT_FIELDS = {
    "fps": (lambda v: one_node_graph(fps=v), "fps must be finite and > 0, found {}", "fps"),
    "timestamp": (lambda v: one_node_graph(timestamp=v), "frame 0: timestamp_s {} is not finite", "timestamp_s"),
    "box": (lambda v: one_node_graph(x_max=v), "malformed graph document: box of node 0 frame 0 must be", None),
}


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("graph_with, message, field", FLOAT_FIELDS.values(), ids=FLOAT_FIELDS)
def test_a_non_finite_float_is_neither_written_nor_read(graph_with, message, field, value):
    graph = graph_with(value)
    with pytest.raises(ValueError, match=f"^the graph document cannot hold the non-finite float {value}$"):
        serialize(graph)
    document = oracle_serialize(graph)  # json.dumps writes NaN, Infinity and -Infinity
    assert serialize(graph_with(1.0)) == oracle_serialize(graph_with(1.0))
    # json reads 1e400 as infinity.
    for text in (document, document.replace("Infinity", "1e400")):
        with pytest.raises(ParseError, match=f"^{re.escape(message.format(value))}") as exc:
            deserialize(text)
        assert exc.value.field == field


def test_serialize_of_an_empty_graph():
    text = serialize(SpatioTemporalGraph())
    assert text == oracle_serialize(SpatioTemporalGraph())
    assert '"nodes":{"box":[],"entity_id":[],"frame_index":[],"state":[]}' in text and '"events":{}' in text


# ---------------------------------------------------------------------------
# The description index: the reader accepts exactly the text the graph
# implies, and names the index file and its first line that differs from it.


def described_graph():
    nodes = [
        EntityNode(entity_id, frame, {"action": "running"}, BoundingBox(0, 0, 4, 4), f"e{entity_id}f{frame}")
        for frame in range(3)
        for entity_id in (0, 1)
    ]
    return SpatioTemporalGraph(frames=[FrameRecord(f, float(f), "") for f in range(3)], nodes=nodes)


@pytest.fixture
def saved(tmp_path):
    """(graph, bin path, index path, indexed descriptions) of ``described_graph`` with random vectors."""
    graph = described_graph()
    rng = np.random.default_rng(5)
    records = [
        EmbeddingRecord(n.entity_id, n.frame_index, n.description, rng.standard_normal(4))
        for n in graph.nodes
    ]
    bin_path, idx_path = tmp_path / "e.bin", tmp_path / "e.idx"
    write_embeddings(make_columns(records), bin_path, idx_path)
    descriptions = [json.loads(line) for line in idx_path.read_text().splitlines()]
    return graph, bin_path, idx_path, descriptions


def canonical(descriptions):
    return "".join(json.dumps(d) + "\n" for d in descriptions)


def index_error(saved, text):
    """The ParseError of reading ``saved`` with its index replaced by ``text``."""
    graph, bin_path, idx_path, _ = saved
    idx_path.write_bytes(text.encode())
    with pytest.raises(ParseError) as exc:
        read_embeddings(bin_path, idx_path, graph)
    message = str(exc.value)
    assert message.startswith(f"{idx_path}: line {exc.value.line}: should be ")
    assert message.endswith("; re-run `ravu embed` to rewrite the embeddings")
    return exc.value


def test_the_written_index_is_the_canonical_text(saved):
    graph, bin_path, idx_path, descriptions = saved
    assert idx_path.read_bytes() == canonical(descriptions).encode()
    assert descriptions == [n.description for n in graph.nodes]
    assert record_rows(read_embeddings(bin_path, idx_path, graph))[0][:3] == (0, 0, "e0f0")


def with_node(graph, i, **changes):
    """``graph`` with its node ``i`` changed by ``changes``."""
    return dataclasses.replace(graph, nodes=[n._replace(**changes) if j == i else n for j, n in enumerate(graph.nodes)])


def replace(descriptions, i, description):
    return [description if j == i else d for j, d in enumerate(descriptions)]


def escaped(description):
    """``description`` as a JSON string whose first character is a \\u escape."""
    return '"\\u%04x%s"' % (ord(description[0]), description[1:])


# (index text from the written descriptions, the first line that differs from the written index)
OTHER_INDEXES = {
    "escaped character": (lambda ds: canonical(ds).replace('"e0f1"', escaped("e0f1")), 3),
    "extra spaces": (lambda ds: "".join(f" {json.dumps(d)}  \n" for d in ds), 1),
    "blank lines": (lambda ds: "\n  \n".join(json.dumps(d) for d in ds) + "\n\n", 2),
    "no final newline": (lambda ds: canonical(ds).rstrip("\n"), 6),
    "no quotes": (lambda ds: "".join(d + "\n" for d in ds), 1),
    "single quotes": (lambda ds: canonical(ds).replace('"e1f0"', "'e1f0'"), 2),
    "an object": (lambda ds: canonical(ds).replace('"e1f0"', '{"description": "e1f0"}'), 2),
    "trailing text": (lambda ds: canonical(ds).replace('"e1f0"', '"e1f0"x'), 2),
    "reordered lines": (lambda ds: canonical([ds[i] for i in [0, 1, 5, 2, 3, 4]]), 3),
    "swapped lines": (lambda ds: canonical([ds[1], ds[0]] + ds[2:]), 1),
    "repeated description": (lambda ds: canonical(replace(ds, 2, ds[0])), 3),
    "edited description": (lambda ds: canonical(replace(ds, 3, ds[3] + " ")), 4),
    "empty description": (lambda ds: canonical(replace(ds, 3, "")), 4),
    "missing line": (lambda ds: canonical(ds[:-1]), 6),
    "extra line": (lambda ds: canonical(ds + ["e0f9"]), 7),
    "empty index": (lambda ds: "", 1),
    "CRLF line ends": (lambda ds: canonical(ds).replace("\n", "\r\n"), 1),
    "one CRLF line end": (lambda ds: canonical(ds).replace('"e1f0"\n', '"e1f0"\r\n'), 2),
    "CR line ends": (lambda ds: canonical(ds).replace("\n", "\r"), 1),
}


def assert_first_difference(saved, text, line):
    """Reading ``saved`` with ``text`` as its index fails at ``line``, quoting both versions of it."""
    error = index_error(saved, text)
    assert (error.line, error.field) == (line, "description")
    written = canonical(saved[3]).splitlines(keepends=True)
    found = text.splitlines(keepends=True)
    should = repr(written[line - 1]) if line <= len(written) else "the end of the file"
    got = repr(found[line - 1]) if line <= len(found) else "the end of the file"
    assert f"should be {should}, found {got};" in str(error)


@pytest.mark.parametrize("render, line", OTHER_INDEXES.values(), ids=OTHER_INDEXES)
def test_read_embeddings_rejects_any_other_index_at_its_first_differing_line(saved, render, line):
    assert_first_difference(saved, render(saved[3]), line)


# Each changes only line ``i + 1`` of the written index, or removes it.
CHANGED_LINES = {
    "respelled": lambda ds, i: canonical(ds).replace(json.dumps(ds[i]), escaped(ds[i])),
    "another description": lambda ds, i: canonical(replace(ds, i, ds[(i + 1) % len(ds)])),
    "not in the graph": lambda ds, i: canonical(replace(ds, i, "a purple elephant juggling")),
    "removed": lambda ds, i: canonical(ds[:i] + ds[i + 1:]),
}


@pytest.mark.parametrize("i", range(6))
@pytest.mark.parametrize("change", CHANGED_LINES.values(), ids=CHANGED_LINES)
def test_read_embeddings_names_the_changed_line_wherever_it_is(saved, change, i):
    assert_first_difference(saved, change(saved[3], i), i + 1)


def test_read_embeddings_rejects_a_stale_description(saved):
    graph, bin_path, idx_path, _ = saved
    graph = with_node(graph, 3, description="e1f1, now digging")
    with pytest.raises(ParseError) as exc:
        read_embeddings(bin_path, idx_path, graph)
    assert str(exc.value) == (
        f"{idx_path}: line 4: should be '\"e1f1, now digging\"\\n', found '\"e1f1\"\\n'; "
        "re-run `ravu embed` to rewrite the embeddings"
    )


def test_read_embeddings_checks_the_dimension_only_when_asked(saved):
    graph, bin_path, idx_path, _ = saved
    assert len(read_embeddings(bin_path, idx_path, graph, dim=4)) == 6
    with pytest.raises(ParseError, match=f"{bin_path}: vectors have dimension 4, expected 3") as exc:
        read_embeddings(bin_path, idx_path, graph, dim=3)
    assert exc.value.field == "dim"


def test_read_embeddings_checks_the_header_count_against_the_index(saved):
    graph, bin_path, idx_path, _ = saved
    raw = bin_path.read_bytes()
    bin_path.write_bytes(struct.pack("<II", 4, 5) + raw[8:-16])
    message = f"^{bin_path}: header counts 5 rows, the index lists 6 descriptions; re-run `ravu embed` to rewrite"
    with pytest.raises(ParseError, match=message) as exc:
        read_embeddings(bin_path, idx_path, graph)
    assert exc.value.field == "header"


def test_read_embeddings_reads_ids_at_the_int64_bounds(saved):
    graph, bin_path, idx_path, _ = saved
    low, high = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    graph = with_node(with_node(graph, 0, entity_id=low), 5, frame_index=high)
    columns = read_embeddings(bin_path, idx_path, graph)
    assert (columns.entities[0], columns.frames[5]) == (low, high)


@pytest.mark.parametrize("field, value", [("entity_id", 2**63), ("frame_index", -(2**63) - 1)])
def test_a_loaded_graph_with_an_id_outside_int64_is_a_parse_error(saved, field, value):
    graph = saved[0]
    doc = json.loads(serialize(graph))
    doc["nodes"][field][2] = value
    entity_id, frame_index = doc["nodes"]["entity_id"][2], doc["nodes"]["frame_index"][2]
    message = f"^node entity {entity_id} frame {frame_index} has an ID outside int64$"
    with pytest.raises(ParseError, match=message) as exc:
        deserialize(json.dumps(doc))
    assert exc.value.field == field
    # A graph made in code cannot hold the node either: its columns are int64.
    with pytest.raises(ValueError, match=message):
        with_node(graph, 2, **{field: value})


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
# Nodes that share a description share its one stored row.


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
    columns = EmbeddingColumns(
        np.random.default_rng(7).standard_normal((2, 4)),
        np.array([0, 0, 0, 1, 1, 1], dtype=np.intp),
        np.array([n.entity_id for n in graph.nodes]),
        np.array([n.frame_index for n in graph.nodes]),
        ["left", "right"],
    )
    bin_path, idx_path = tmp_path / "e.bin", tmp_path / "e.idx"
    write_embeddings(columns, bin_path, idx_path)
    return graph, bin_path, idx_path, list(columns)


def stored(records):
    """``records`` with their vectors rounded to float32, as a reload gives them back."""
    return [
        EmbeddingRecord(r.entity_id, r.frame_index, r.description, r.vector.astype(np.float32).astype(np.float64))
        for r in records
    ]


def set_value(bin_path, row, column, value):
    """Overwrite one float32 of the four-column ``bin_path``."""
    raw = bin_path.read_bytes()
    body = np.frombuffer(raw, dtype="<f4", offset=8).reshape(-1, 4).copy()
    body[row, column] = value
    bin_path.write_bytes(raw[:8] + body.tobytes())


def test_read_embeddings_shares_one_vector_per_description(shared):
    graph, bin_path, idx_path, records = shared
    assert struct.unpack_from("<II", bin_path.read_bytes()) == (4, 2)
    assert idx_path.read_text() == '"left"\n"right"\n'
    columns = read_embeddings(bin_path, idx_path, graph)
    assert columns.vector_of.tolist() == [0, 0, 0, 1, 1, 1]
    assert len(columns.vectors) == 2
    assert record_rows(columns) == record_rows(stored(records))
    q = np.random.default_rng(8).standard_normal(4)
    full = np.stack([r.vector for r in stored(records)])
    scores = EmbeddingIndex(columns).scores(q)
    assert scores[columns.vector_of].tobytes() == accel.cosine_scores(full, q).tobytes()


# A node of a shared description gets a description of its own: the index
# gains a line, at the new description's first-seen place.
STALE = {
    "a later node": (4, '"right"\n"middle"\n', 3, "'\"middle\"\\n'", "the end of the file"),
    "a first node": (3, '"left"\n"middle"\n"right"\n', 2, "'\"middle\"\\n'", "'\"right\"\\n'"),
}


@pytest.mark.parametrize("node, want, line, should, found", STALE.values(), ids=STALE)
def test_read_embeddings_rejects_a_shared_description_that_changed(shared, node, want, line, should, found):
    graph, bin_path, idx_path, _ = shared
    graph = with_node(graph, node, description="middle")
    with pytest.raises(ParseError) as exc:
        read_embeddings(bin_path, idx_path, graph)
    assert str(exc.value) == (
        f"{idx_path}: line {line}: should be {should}, found {found}; re-run `ravu embed` to rewrite the embeddings"
    )


def test_read_embeddings_refuses_the_one_row_per_node_layout(shared, tmp_path):
    """The layout of one float32 row per node, with one ``{"entity_id", "frame_index", "row"}``
    line per node, which ``write_embeddings`` wrote before it stored each description once."""
    graph, bin_path, idx_path, records = shared
    old_bin, old_idx = tmp_path / "old.bin", tmp_path / "old.bin.index.jsonl"
    rows = np.stack([r.vector for r in records]).astype("<f4")
    old_bin.write_bytes(struct.pack("<II", 4, 6) + rows.tobytes())
    old_idx.write_text("".join(
        json.dumps({"entity_id": r.entity_id, "frame_index": r.frame_index, "row": row}, sort_keys=True) + "\n"
        for row, r in enumerate(records)
    ))
    with pytest.raises(ParseError) as exc:
        read_embeddings(old_bin, old_idx, graph)
    assert str(exc.value) == (
        f"""{old_idx}: line 1: should be '"left"\\n', found '{{"entity_id": 0, "frame_index": 0, "row": 0}}\\n'; """
        "re-run `ravu embed` to rewrite the embeddings"
    )
    # The old file beside a new index: the header counts a row per node.
    with pytest.raises(ParseError) as exc:
        read_embeddings(old_bin, idx_path, graph)
    assert str(exc.value) == (
        f"{old_bin}: header counts 6 rows, the index lists 2 descriptions; re-run `ravu embed` to rewrite the embeddings"
    )


def test_write_embeddings_of_reloaded_columns_gives_back_the_same_bytes(shared, tmp_path):
    graph, bin_path, idx_path, _ = shared
    again_bin, again_idx = tmp_path / "again.bin", tmp_path / "again.idx"
    write_embeddings(read_embeddings(bin_path, idx_path, graph), again_bin, again_idx)
    assert (again_bin.read_bytes(), again_idx.read_bytes()) == (bin_path.read_bytes(), idx_path.read_bytes())


@pytest.mark.parametrize("n_frames", [24, 200, 600])
def test_read_embeddings_gives_back_the_written_columns(tmp_path, n_frames):
    world = synth_world(1, n_frames, 8)
    assets = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig())
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
    assets = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig())
    bin_path, idx_path = tmp_path / "embeddings.bin", tmp_path / "embeddings.index.jsonl"
    write_embeddings(assets.index.records, bin_path, idx_path)
    reloaded = EmbeddingIndex(read_embeddings(bin_path, idx_path, assets.graph))
    distinct = list(dict.fromkeys(n.description for n in assets.graph.nodes))
    assert len(assets.index) == len(assets.graph.nodes) > 4 * len(distinct)
    for index in (assets.index, reloaded):
        # One vector and one text per distinct description, and each row reads its node's.
        assert index.descriptions == distinct and len(index.vectors) == len(distinct)
        assert [index.descriptions[j] for j in index.vector_of.tolist()] == [n.description for n in assets.graph.nodes]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [1, 0], ids=["a later row", "the first row"])
def test_read_embeddings_rejects_a_non_finite_row(shared, value, row):
    graph, bin_path, idx_path, _ = shared
    set_value(bin_path, row, 1, value)
    with pytest.raises(ParseError, match=f"^{bin_path}: row {row} has a non-finite value$") as exc:
        read_embeddings(bin_path, idx_path, graph)
    assert exc.value.field == "row"
