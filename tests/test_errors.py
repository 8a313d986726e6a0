"""Every outside document is decoded in ``ravu.errors``; a malformed one ends as ParseError."""

import ast
import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

import ravu
from ravu.config import RavuConfig
from ravu.datasets import load_loc, load_mcq
from ravu.errors import ParseError
from ravu.graph_builder import EmbeddingRecord, read_embeddings, write_embeddings
from ravu.graph_model import BoundingBox, EntityNode, SpatioTemporalGraph, deserialize
from ravu.ingestion import parse_observations, parse_tracklets

from conftest import make_columns

MODULES = sorted(p for p in Path(ravu.__file__).parent.glob("*.py") if p.name != "__init__.py")

# errors.py decodes documents; backends.py decodes a provider's reply.
JSON_DECODERS = {"errors.py", "backends.py"}


def json_decode_calls(source: str) -> list[int]:
    """Lines that call ``json.load``/``json.loads``, directly or as imported names."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name in ("load", "loads")
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("load", "loads")
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ) or (isinstance(func, ast.Name) and func.id in aliases):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_json_decoding():
    source = (
        "import json\nfrom json import loads as parse\n"
        "json.loads('1')\nparse('2')\njson.dumps(3)\njson.load(open('x'))\n"
    )
    assert json_decode_calls(source) == [3, 4, 6]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in JSON_DECODERS], ids=lambda p: p.name
)
def test_module_does_not_decode_json(path):
    assert json_decode_calls(path.read_text()) == []


FRAME = json.dumps({"frame_index": 0, "entities": [{"local_id": 0, "box": [0, 0, 1, 1]}]})
# A graph document with no frames, nodes, edges or events, and one state.
GRAPH = {
    "format": 2,
    "fps": 1.0,
    "frames": {"frame_index": [], "timestamp_s": [], "description": [], "source_ref": []},
    "states": {"attributes": [{}], "description": [None]},
    "nodes": {"entity_id": [], "frame_index": [], "state": [], "box": []},
    "relations": [],
    "edges": {"frame_index": [], "subject_id": [], "object_id": [], "relation": []},
    "events": {},
}
NODES = {"entity_id": [0], "frame_index": [0], "state": [0], "box": [0, 0, 1, 1]}
MCQ = json.dumps(
    {"question": "q", "options": ["a", "b"], "answer_index": 0, "category": "temporal", "video_id": "v"}
)
LOC = json.dumps({"video_id": "v", "question": "q", "gt_frames": [0]})
DESCRIPTION = json.dumps("a red fox")


def second_frame(**fields):
    return FRAME + "\n" + json.dumps({"frame_index": 1, **fields})


def entity(**fields):
    return {"local_id": 0, "box": [0, 0, 1, 1], **fields}


def graph(**fields):
    return json.dumps({**GRAPH, **fields})


def tracks(*entries):
    return json.dumps({"tracks": list(entries)})


def read_config(text, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(text)
    return RavuConfig.from_file(path)


def read_path(loader):
    def read(text, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text(text)
        return loader(path)

    return read


# One node, entity 0 in frame 0, and its one embedding row.
ONE_NODE = SpatioTemporalGraph(nodes=[EntityNode(0, 0, {}, BoundingBox(0, 0, 1, 1), "a red fox")])


def write_one_row(bin_path, index_path):
    write_embeddings(make_columns([EmbeddingRecord(0, 0, "a red fox", np.ones(2))]), bin_path, index_path)


def read_index(text, tmp_path):
    bin_path, index_path = tmp_path / "e.bin", tmp_path / "e.bin.index.jsonl"
    write_one_row(bin_path, index_path)
    index_path.write_text(text)
    return read_embeddings(bin_path, index_path, ONE_NODE)


READERS = {
    "config": read_config,
    "observations": lambda text, _: parse_observations(text),
    "tracklets": lambda text, _: parse_tracklets(text),
    "graph": lambda text, _: deserialize(text),
    "mcq": read_path(load_mcq),
    "loc": read_path(load_loc),
    "embeddings-index": read_index,
}

# (reader, document, line the ParseError names or None for a whole-document error)
MALFORMED_DOCUMENTS = [
    ("config", '{\n  "top_k": 7,\n  oops\n}', 3),
    ("config", "[1, 2]", None),
    ("config", '{"top_k": "ten"}', None),
    ("config", '{"budget": true}', None),
    ("config", '{"fps": null}', None),
    ("observations", second_frame(entities=5), 2),
    ("observations", FRAME + "\n\n[1, 2]", 3),
    ("observations", FRAME + "\n{not json", 2),
    ("observations", second_frame(frame_index=None), 2),
    ("observations", second_frame(entities=[5]), 2),
    ("observations", second_frame(entities=[entity(box="abcd")]), 2),
    ("observations", second_frame(entities=[entity(box=[0, 0, "x", 1])]), 2),
    ("observations", second_frame(entities=[entity(attributes=5)]), 2),
    ("tracklets", '{"tracks": 5}', None),
    ("tracklets", "[]", None),
    ("tracklets", "{\n  oops", 2),
    ("tracklets", tracks(5), None),
    ("tracklets", tracks({"track_id": 0, "boxes": 5}), None),
    ("tracklets", tracks({"track_id": 0, "boxes": {"x": [0, 0, 1, 1]}}), None),
    ("tracklets", tracks({"track_id": 0, "boxes": {"0": [0, 0, 1]}}), None),
    ("graph", graph(fps=None), None),
    ("graph", graph(fps="x"), None),
    ("graph", graph(frames=5), None),
    ("graph", graph(events=[]), None),
    ("graph", graph(nodes={**NODES, "box": None}), None),
    ("graph", graph(states={"attributes": [[]], "description": [None]}, nodes=NODES), None),
    ("graph", "[]", None),
    ("graph", '{\n  "frames": [,]\n}', 2),
    ("mcq", MCQ + '\n{"question": "q"}', 2),
    ("mcq", MCQ + "\n5", 2),
    ("mcq", MCQ + "\n" + MCQ.replace('["a", "b"]', "5"), 2),
    ("mcq", MCQ.replace('"answer_index": 0', '"answer_index": 9'), 1),
    ("loc", LOC + "\n" + LOC.replace("[0]", "5"), 2),
    ("loc", LOC.replace("[0]", "[]"), 1),
    ("loc", "\n" + LOC + "\n{oops", 3),
    ("embeddings-index", '{"row": 0, "entity_id": 0, "frame_index": 0}', 1),
    ("embeddings-index", "\n[]", 1),
    ("embeddings-index", "{oops", 1),
    ("embeddings-index", "null", 1),
    ("embeddings-index", DESCRIPTION + "\n" + DESCRIPTION, 2),
    # json reads Infinity and 1e400 as float infinity, which int() cannot convert.
    ("observations", FRAME + "\n" + FRAME.replace('"frame_index": 0', '"frame_index": Infinity'), 2),
    ("tracklets", tracks({"track_id": float("inf"), "boxes": {"0": [0, 0, 1, 1]}}), None),
    ("graph", graph(nodes={**NODES, "frame_index": [0.5]}).replace("0.5", "1e400"), None),
    ("mcq", MCQ.replace('"answer_index": 0', '"answer_index": -Infinity'), 1),
    ("loc", LOC.replace("[0]", "[Infinity]"), 1),
    # A box must be finite: 0 <= x0 < x1 alone holds for an infinite x1.
    ("observations", second_frame(entities=[entity(box=[0, 0, float("inf"), 1])]), 2),
    ("tracklets", tracks({"track_id": 0, "boxes": {"0": [0, 0, 1, float("inf")]}}), None),
    ("graph", graph(nodes={**NODES, "box": [0, 0, 0.5, 1]}).replace("0.5", "1e400"), None),
    # Every column, and the relations, must be a list.
    ("graph", graph(nodes={**NODES, "state": 0}), None),
    ("graph", graph(relations={"0": "near"}), None),
]


@pytest.mark.parametrize(
    "reader, document, line",
    MALFORMED_DOCUMENTS,
    ids=[f"{reader}-{i}" for i, (reader, _, _) in enumerate(MALFORMED_DOCUMENTS)],
)
def test_malformed_document_raises_parse_error(reader, document, line, tmp_path):
    with pytest.raises(ParseError) as exc:
        READERS[reader](document, tmp_path)
    assert exc.value.line == line


@pytest.mark.parametrize(
    "loader, good, bad, field",
    [
        (load_mcq, MCQ, MCQ.replace('"answer_index": 0', '"answer_index": true'), "answer_index"),
        (load_mcq, MCQ, MCQ.replace('"answer_index": 0', '"answer_index": 1.5'), "answer_index"),
        (load_loc, LOC, LOC.replace("[0]", "[0.5, 2.9]"), "gt_frames"),
        (load_loc, LOC, LOC.replace("[0]", "[0, false]"), "gt_frames"),
    ],
)
def test_dataset_loaders_reject_a_boolean_or_fractional_integer(loader, good, bad, field, tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text(good + "\n" + bad)
    with pytest.raises(ParseError, match=f"^line 2: {field} must be an integer, got ") as exc:
        loader(path)
    assert (exc.value.line, exc.value.field) == (2, field)


@pytest.mark.parametrize("value", ['"ab"', '"12"', '{"1": 2}', "null", "7"])
@pytest.mark.parametrize(
    "loader, good, field, old",
    [(load_mcq, MCQ, "options", '["a", "b"]'), (load_loc, LOC, "gt_frames", "[0]")],
    ids=["mcq options", "localization gt_frames"],
)
def test_dataset_loaders_reject_a_list_field_that_is_not_a_list(loader, good, field, old, value, tmp_path):
    # A string read item by item would load "ab" as the options a and b, and "12" as the frames 1 and 2.
    path = tmp_path / "items.jsonl"
    path.write_text(good + "\n" + good.replace(old, value))
    message = f"^line 2: {field} must be a list, got {re.escape(repr(json.loads(value)))}$"
    with pytest.raises(ParseError, match=message) as exc:
        loader(path)
    assert (exc.value.line, exc.value.field) == (2, field)


# A line break as a JSON line can spell it inside a string; a raw one would end the line.
ESCAPED_LINE_BREAKS = ["\\n", "\\r\\n", "\\u000b", "\\u2028"]


@pytest.mark.parametrize("spelling", ESCAPED_LINE_BREAKS, ids=ESCAPED_LINE_BREAKS)
@pytest.mark.parametrize(
    "loader, good, bad, field",
    [
        (load_mcq, MCQ, MCQ.replace('"question": "q"', '"question": "one BREAK two"'), "question"),
        (load_mcq, MCQ, MCQ.replace('["a", "b"]', '["a", "b BREAK c"]'), "options"),
        (load_loc, LOC, LOC.replace('"question": "q"', '"question": "BREAK q"'), "question"),
    ],
    ids=["mcq question", "mcq option", "localization question"],
)
def test_dataset_loaders_reject_a_line_break_in_a_question_or_option(loader, good, bad, field, spelling, tmp_path):
    assert "BREAK" in bad
    path = tmp_path / "items.jsonl"
    path.write_text(good + "\n" + bad.replace("BREAK", spelling))
    with pytest.raises(ParseError, match=f"^line 2: line break in {field}$") as exc:
        loader(path)
    assert (exc.value.line, exc.value.field) == (2, field)
    path.write_text(good + "\n" + bad.replace("BREAK", "\\t\\u2027"))
    assert len(loader(path)) == 2


# A graph document with one row in each table, every integer field an int.
WHOLE_GRAPH = {
    **GRAPH,
    "frames": {"frame_index": [0], "timestamp_s": [0.0], "description": ["f"], "source_ref": [""]},
    "states": {"attributes": [{}], "description": ["a red fox"]},
    "nodes": NODES,
    "relations": ["near"],
    "edges": {"frame_index": [0], "subject_id": [0], "object_id": [1], "relation": [0]},
    "events": {"0": {"start_frame": [0], "end_frame": [0], "summary": ["s"]}},
}


@pytest.mark.parametrize(
    "kind, field, owner",
    [
        ("nodes", "entity_id", "node 1"),
        ("nodes", "frame_index", "node 1"),
        ("nodes", "state", "node 1"),
        ("edges", "frame_index", "edge 1"),
        ("edges", "subject_id", "edge 1"),
        ("edges", "object_id", "edge 1"),
        ("edges", "relation", "edge 1"),
        ("frames", "frame_index", "frame 1"),
        ("events", "start_frame", "event 1 of entity 0"),
        ("events", "end_frame", "event 1 of entity 0"),
    ],
)
@pytest.mark.parametrize("value", [True, 0.5])
def test_graph_document_rejects_a_boolean_or_fractional_integer(kind, field, owner, value):
    deserialize(json.dumps(WHOLE_GRAPH))
    doc = copy.deepcopy(WHOLE_GRAPH)
    # One more row, the first with ``field`` set to ``value``.
    table = doc["events"]["0"] if kind == "events" else doc[kind]
    for column, values in table.items():
        values += values[:4] if column == "box" else [value if column == field else values[0]]
    with pytest.raises(ParseError, match=f"^{owner}: {field} must be an integer, got {value!r}$") as exc:
        deserialize(json.dumps(doc))
    assert exc.value.field == field


def test_every_reader_has_a_malformed_case():
    assert {reader for reader, _, _ in MALFORMED_DOCUMENTS} == set(READERS)


def read_embeddings_index(path):
    bin_path = path.parent / "e.bin"
    write_one_row(bin_path, path.parent / "unused.jsonl")
    return read_embeddings(bin_path, path, ONE_NODE)


def read_embeddings_body(path):
    index_path = path.parent / "e.bin.index.jsonl"
    index_path.write_text(DESCRIPTION + "\n")
    return read_embeddings(path, index_path, ONE_NODE)


@pytest.mark.parametrize(
    "reader",
    [RavuConfig.from_file, load_mcq, load_loc, read_embeddings_index],
    ids=["config", "mcq", "loc", "embeddings-index"],
)
def test_reader_rejects_a_file_that_is_not_utf8(reader, tmp_path):
    path = tmp_path / "doc"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ParseError, match="not UTF-8 text"):
        reader(path)


@pytest.mark.parametrize(
    "reader",
    [RavuConfig.from_file, load_mcq, load_loc, read_embeddings_index, read_embeddings_body],
    ids=["config", "mcq", "loc", "embeddings-index", "embeddings"],
)
def test_reader_rejects_a_directory(reader, tmp_path):
    path = tmp_path / "doc"
    path.mkdir()
    with pytest.raises(ParseError, match=f"{path}: cannot read"):
        reader(path)
