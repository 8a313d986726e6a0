import json
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravu import graph_builder, graph_model
from ravu.backends import MockBackend, frame_graph_payload, node_block
from ravu.config import RavuConfig
from ravu.errors import MalformedResponse, ParseError, Timeout
from ravu.evaluate import build_video
from ravu.graph_builder import (
    build_frame_graph,
    build_graph,
    describe_node,
    embed_graph,
    read_embeddings,
    segment_events,
    write_embeddings,
)
from ravu.graph_model import (
    BoundingBox,
    EntityEvent,
    EntityNode,
    FrameRecord,
    NodeTable,
    RelationEdge,
    SpatioTemporalGraph,
    deserialize,
    entity_timeline,
    node_edges,
    serialize,
    validate,
)
from ravu.ingestion import associate, parse_observations, parse_tracklets
from ravu.synth import synth_world

from conftest import count_table_builds, mock_backend, new_state, record_rows, rows, table


def node(entity_id, frame, action="running", appearance="red fox", desc=None):
    return EntityNode(
        entity_id=entity_id,
        frame_index=frame,
        attributes={"appearance": appearance, "action": action, "body_pose": "upright"},
        box=BoundingBox(0, 0, 10, 10),
        description=desc,
    )


class FailingGenBackend(MockBackend):
    """Mock whose generate() always returns garbage."""

    def generate(self, bundle):
        return "@@@ not parseable @@@"


def test_build_frame_graph_parses_triples(backend):
    frame = FrameRecord(0, 0.0, "[E1] chases [E2]. [E2] rests.")
    edges, dropped = build_frame_graph([(frame, [1, 2])], backend, max_retries=2)
    assert dropped == 0
    assert len(edges) == 1
    assert (edges[0].subject_id, edges[0].relation, edges[0].object_id) == (1, "chases", 2)


def test_build_frame_graph_drops_unknown_entities(backend):
    frame = FrameRecord(0, 0.0, "[E1] chases [E9].")
    edges, dropped = build_frame_graph([(frame, [1])], backend, max_retries=2)
    assert edges == [] and dropped == 1


def test_build_frame_graph_no_comention_tolerates_empty(backend):
    frame = FrameRecord(0, 0.0, "[E1] sits alone.")
    edges, dropped = build_frame_graph([(frame, [1])], backend, max_retries=2)
    assert edges == [] and dropped == 0


def test_build_frame_graph_raises_when_comention_unparseable():
    frame = FrameRecord(0, 0.0, "[E1] chases [E2].")
    with pytest.raises(MalformedResponse):
        build_frame_graph([(frame, [1, 2])], mock_backend(FailingGenBackend), max_retries=2)


class FlakyGenBackend(MockBackend):
    """Mock whose first ``bad`` generate() calls return garbage."""

    def __init__(self, bad, **backend_args):
        super().__init__(**backend_args)
        self.bad = bad
        self.calls = 0

    def generate(self, bundle):
        self.calls += 1
        return "@@@ not parseable @@@" if self.calls <= self.bad else super().generate(bundle)


@pytest.mark.parametrize("max_retries, calls", [(0, 1), (1, 1), (3, 3)])
def test_build_frame_graph_calls_at_most_max_retries(max_retries, calls):
    frame = FrameRecord(0, 0.0, "[E1] chases [E2].")
    flaky = mock_backend(FlakyGenBackend, bad=99)
    with pytest.raises(MalformedResponse):
        build_frame_graph([(frame, [1, 2])], flaky, max_retries)
    assert flaky.calls == calls


def test_build_frame_graph_counts_drops_of_the_accepted_reply():
    frame = FrameRecord(0, 0.0, "[E1] chases [E2].")
    flaky = mock_backend(FlakyGenBackend, bad=1)
    edges, dropped = build_frame_graph([(frame, [1, 2])], flaky, max_retries=2)
    assert flaky.calls == 2
    assert len(edges) == 1 and dropped == 0


def test_describe_node(backend):
    text = describe_node(SpatioTemporalGraph(nodes=[node(3, 0)]), node(3, 0), backend, max_retries=2)
    assert text == "entity 3: red fox; running; relations: none"


def small_described_graph():
    frames = [FrameRecord(i, float(i), f"frame {i}") for i in range(4)]
    nodes = [
        node(0, frame, action=action, desc=f"entity 0: red fox; {action}; relations: none")
        for frame, action in enumerate(["running", "running", "digging", "digging"])
    ]
    return SpatioTemporalGraph(frames=frames, nodes=nodes)


def test_segment_events_splits_on_action_change(backend):
    graph = small_described_graph()
    seg = segment_events(graph, 0, backend, max_retries=2)
    assert not seg.fallback
    assert [(e.start_frame, e.end_frame, e.summary) for e in seg.events] == [
        (0, 1, "red fox running"),
        (2, 3, "red fox digging"),
    ]


def test_segment_events_absence_gap_forces_boundary(backend):
    graph = small_described_graph()
    graph = replace(graph, nodes=[n for n in graph.nodes if n.frame_index != 1])
    seg = segment_events(graph, 0, backend, max_retries=2)
    assert [(e.start_frame, e.end_frame) for e in seg.events] == [(0, 0), (2, 3)]


def test_segment_events_fallback_flagged():
    graph = small_described_graph()
    seg = segment_events(graph, 0, mock_backend(FailingGenBackend), max_retries=2)
    assert seg.fallback
    assert [(e.start_frame, e.end_frame) for e in seg.events] == [(0, 3)]
    assert seg.events[0].summary  # non-empty summary even in fallback


class HugeSpanBackend(MockBackend):
    """Mock that answers every event segmentation with one span of 10**11 frames, and counts them."""

    def __init__(self, **backend_args):
        super().__init__(**backend_args)
        self.segmentations = 0

    def generate(self, bundle):
        if bundle.role != "event_segmentation":
            return super().generate(bundle)
        self.segmentations += 1
        return "0|100000000000|x"


def test_a_reply_span_past_the_run_is_retried_then_flagged_without_expanding_it():
    assoc = associated(synth_world(1, 24, 3))
    huge = mock_backend(HugeSpanBackend)
    graph, report = build_graph(assoc.frames, assoc.nodes, huge, fps=1.0, max_retries=2)
    assert report.fallback_entities == graph.entity_ids()
    runs = {
        e: graph_builder._appearance_runs([n.frame_index for n in entity_timeline(graph, e)])
        for e in graph.entity_ids()
    }
    assert huge.segmentations == 2 * sum(map(len, runs.values()))
    assert {e: [(ev.start_frame, ev.end_frame) for ev in evs] for e, evs in graph.events.items()} == {
        e: [(run[0], run[-1]) for run in entity_runs] for e, entity_runs in runs.items()
    }
    assert validate(graph) == []


def test_build_graph_end_to_end(backend):
    frames = [FrameRecord(0, 0.0, "[E0] beside [E1]."), FrameRecord(1, 1.0, "calm scene.")]
    nodes = [node(0, 0), node(1, 0, appearance="blue jay"), node(0, 1)]
    graph, report = build_graph(frames, nodes, backend, fps=1.0, max_retries=2)
    assert report.dropped_edge_lines == 0
    assert report.fallback_entities == []
    assert len(graph.edges) == 1
    assert all(n.description for n in graph.nodes)
    assert validate(graph) == []


def test_embed_graph_requires_descriptions(backend):
    graph = SpatioTemporalGraph(
        frames=[FrameRecord(0, 0.0, "x")], nodes=[node(0, 0)]
    )
    with pytest.raises(ParseError, match="^node entity 0 frame 0 has no description$"):
        embed_graph(graph, backend)


def test_embed_graph_and_persistence_round_trip(tmp_path, backend):
    graph = small_described_graph()
    records = embed_graph(graph, backend)
    assert len(records) == 4
    assert all(abs(np.linalg.norm(r.vector) - 1.0) < 1e-9 for r in records)

    bin_path = tmp_path / "embeddings.bin"
    idx_path = tmp_path / "embeddings.index.jsonl"
    write_embeddings(records, bin_path, idx_path)
    loaded = read_embeddings(bin_path, idx_path, graph)
    assert [(r.entity_id, r.frame_index, r.description) for r in loaded] == [
        (r.entity_id, r.frame_index, r.description) for r in records
    ]
    # float32 storage: vectors agree to storage precision
    for a, b in zip(records, loaded):
        np.testing.assert_allclose(a.vector, b.vector, atol=1e-6)


def persisted(tmp_path, backend):
    """(graph, bin path, index path, indexed descriptions) of small_described_graph."""
    graph = small_described_graph()
    bin_path, idx_path = tmp_path / "e.bin", tmp_path / "e.idx"
    write_embeddings(embed_graph(graph, backend), bin_path, idx_path)
    descriptions = [json.loads(line) for line in idx_path.read_text().splitlines()]
    return graph, bin_path, idx_path, descriptions


def rewrite(idx_path, descriptions):
    idx_path.write_text("".join(json.dumps(d) + "\n" for d in descriptions))


def index_error(bin_path, idx_path, graph, line):
    """The ParseError of reading an index whose line ``line`` is the first that differs from the written one."""
    with pytest.raises(ParseError) as exc:
        read_embeddings(bin_path, idx_path, graph)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{idx_path}: line {line}: should be ")
    assert "re-run `ravu embed`" in str(exc.value)
    return str(exc.value)


def test_read_embeddings_rejects_repeated_description(tmp_path, backend):
    graph, bin_path, idx_path, descriptions = persisted(tmp_path, backend)
    rewrite(idx_path, [descriptions[0], descriptions[0]])
    found = json.dumps(descriptions[0]) + "\n"
    assert f", found {found!r};" in index_error(bin_path, idx_path, graph, 2)


def test_read_embeddings_rejects_respelled_description(tmp_path, backend):
    graph, bin_path, idx_path, descriptions = persisted(tmp_path, backend)
    idx_path.write_text("".join(json.dumps(d).replace(":", "\\u003a") + "\n" for d in descriptions))
    index_error(bin_path, idx_path, graph, 1)


def test_read_embeddings_rejects_missing_index_line(tmp_path, backend):
    graph, bin_path, idx_path, descriptions = persisted(tmp_path, backend)
    rewrite(idx_path, descriptions[:-1])
    assert "found the end of the file" in index_error(bin_path, idx_path, graph, 2)


def test_read_embeddings_rejects_extra_index_line(tmp_path, backend):
    graph, bin_path, idx_path, descriptions = persisted(tmp_path, backend)
    rewrite(idx_path, descriptions + ["entity 0: red fox; sleeping; relations: none"])
    assert "should be the end of the file" in index_error(bin_path, idx_path, graph, 3)


def test_read_embeddings_rejects_descriptions_not_in_graph(tmp_path, backend):
    graph, bin_path, idx_path, descriptions = persisted(tmp_path, backend)
    rewrite(idx_path, [descriptions[0], "entity 7: blue jay; flying"])
    assert "entity 7: blue jay" in index_error(bin_path, idx_path, graph, 2)


def test_read_embeddings_rejects_graph_nodes_without_rows(tmp_path, backend):
    graph, bin_path, idx_path, _ = persisted(tmp_path, backend)
    graph = replace(graph, nodes=[*graph.nodes, node(1, 0, desc="entity 1: red fox; running")])
    assert "entity 1: red fox; running" in index_error(bin_path, idx_path, graph, 2)


def test_a_graph_that_lists_a_node_twice_is_neither_made_nor_loaded(backend):
    world = synth_world(1, 24, 3)
    assets = build_video(world.observations_text, world.tracklets_text, backend, RavuConfig())
    graph = graph_model.deserialize(graph_model.serialize(assets.graph))
    first = graph.nodes[0]
    copy = first._replace(description="a purple elephant juggling")
    message = f"^graph lists node entity {first.entity_id} frame 0 twice$"
    with pytest.raises(ValueError, match=message):
        replace(graph, nodes=[*graph.nodes, copy])
    doc = json.loads(graph_model.serialize(graph))
    nodes = rows(doc["nodes"])
    doc["nodes"] = table([*nodes, new_state(doc, nodes[0], copy.description)], doc["nodes"])
    with pytest.raises(ParseError, match=message):
        graph_model.deserialize(json.dumps(doc))


def test_embedding_a_shuffled_node_list_equals_embedding_the_sorted_one(tmp_path, backend):
    world = synth_world(1, 24, 3)
    graph = build_video(world.observations_text, world.tracklets_text, backend, RavuConfig()).graph
    shuffled = list(graph.nodes)
    np.random.default_rng(3).shuffle(shuffled)
    assert shuffled != graph.nodes
    reloaded = SpatioTemporalGraph(frames=graph.frames, nodes=shuffled, edges=graph.edges, events=graph.events)
    files = []
    for name, g in (("sorted", graph), ("shuffled", reloaded)):
        columns = embed_graph(g, backend)
        bin_path, idx_path = tmp_path / f"{name}.bin", tmp_path / f"{name}.idx"
        write_embeddings(columns, bin_path, idx_path)
        read = read_embeddings(bin_path, idx_path, g)
        files.append((record_rows(columns), bin_path.read_bytes(), idx_path.read_bytes(), record_rows(read)))
    assert files[0] == files[1]


def test_write_embeddings_is_byte_stable(tmp_path, backend):
    graph = small_described_graph()
    records = embed_graph(graph, backend)
    paths = []
    for name in ("a", "b"):
        bin_path = tmp_path / f"{name}.bin"
        idx_path = tmp_path / f"{name}.idx"
        write_embeddings(records, bin_path, idx_path)
        paths.append((bin_path.read_bytes(), idx_path.read_bytes()))
    assert paths[0] == paths[1]


# ---------------------------------------------------------------------------
# A build asks each distinct description prompt and embed text once.


_ITEM_LINE = re.compile(r"(?:^|\n)item \d+\n")


def node_blocks(payload):
    """The node blocks of a node_description payload, in item order."""
    return _ITEM_LINE.split(payload)[1:]


class CountingBackend(MockBackend):
    """Mock that records every node block it is asked, each embed text and the calls per role."""

    def __init__(self, **backend_args):
        super().__init__(**backend_args)
        self.payloads = Counter()
        self.texts = Counter()
        self.calls = Counter()
        self.most_items = Counter()  # role -> most items in one prompt

    def generate(self, bundle):
        self.calls[bundle.role] += 1
        if bundle.role == "node_description":
            blocks = node_blocks(bundle.user_payload)
            self.payloads.update(blocks)
            self.most_items[bundle.role] = max(self.most_items[bundle.role], len(blocks))
        elif bundle.role == "frame_graph":
            frames = sum(line.startswith("frame: ") for line in bundle.user_payload.splitlines())
            self.most_items[bundle.role] = max(self.most_items[bundle.role], frames)
        return super().generate(bundle)

    def embed(self, text):
        self.texts[text] += 1
        return super().embed(text)


def associated(world):
    """Freshly associated frames and nodes; a build sets node descriptions in place."""
    cfg = RavuConfig()
    return associate(
        parse_observations(world.observations_text),
        parse_tracklets(world.tracklets_text),
        min_iou=cfg.min_iou,
        fps=cfg.fps,
    )


def build(world, backend, max_retries=2):
    assoc = associated(world)
    return build_graph(assoc.frames, assoc.nodes, backend, fps=1.0, max_retries=max_retries)[0]


def node_payloads(graph):
    """Each node's node_description block, in node order."""
    return [
        node_block(n.entity_id, n.attributes, node_edges(graph, n.entity_id, n.frame_index))
        for n in graph.nodes
    ]


def assert_column_blocks_are_the_record_blocks(graph):
    """``_node_blocks`` gives every node the block ``node_block`` writes from its record and ``node_edges``,
    and lists each distinct block once, in first-seen node order, labelled by its first node's key."""
    distinct, block_of = graph_builder._node_blocks(graph)
    blocks = node_payloads(graph)
    assert [distinct[j][1] for j in block_of.tolist()] == blocks
    firsts = {}
    for n, block in zip(graph.nodes, blocks):
        firsts.setdefault(block, (n.entity_id, n.frame_index))
    assert distinct == [(key, block) for block, key in firsts.items()]


def hand_built(keys, edges, attributes=lambda e, f: {"action": "run"}):
    return SpatioTemporalGraph(
        nodes=[EntityNode(e, f, attributes(e, f), BoundingBox(0, 0, 1, 1)) for e, f in keys],
        edges=[RelationEdge(*edge) for edge in edges],
    )


HAND_BUILT = {
    "self-edges": hand_built([(1, 0), (2, 0)], [(0, 1, "grooms", 1), (0, 1, "near", 2), (0, 2, "eyes", 2)]),
    "repeated edges": hand_built([(1, 0), (2, 0)], [(0, 1, "near", 2)] * 3 + [(0, 2, "near", 1)]),
    "edge-less nodes": hand_built([(1, 0), (2, 0), (3, 1)], []),
    "edges in some frames": hand_built(
        [(1, f) for f in range(4)] + [(2, f) for f in range(4)], [(1, 1, "chases", 2), (3, 2, "flees", 1)],
    ),
    "dangling ends": hand_built([(1, 0), (2, 1)], [(0, 1, "sees", 9), (1, 7, "sees", 2), (5, 1, "sees", 2)]),
    "equal attributes in two orders": hand_built(
        [(1, 0), (1, 1), (2, 0)], [(0, 1, "near", 2)],
        lambda e, f: {"a": "1", "b": "2"} if f else {"b": "2", "a": "1"},
    ),
    "no attributes, extreme IDs": hand_built(
        [(-2**63, 0), (2**63 - 1, 0)], [(0, -2**63, "near", 2**63 - 1)], lambda e, f: {},
    ),
    "no nodes": hand_built([], [(0, 1, "near", 2)]),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_column_node_blocks_equal_the_record_blocks_of_hand_built_graphs(name):
    assert_column_blocks_are_the_record_blocks(HAND_BUILT[name])


IDS = st.sampled_from([-2**63, -1, 0, 1, 2, 3, 2**63 - 1])


@st.composite
def edged_graphs(draw):
    """Graphs whose edges may loop, repeat, or name an entity or frame that holds no node."""
    attributes = st.sampled_from([{}, {"action": "run"}, {"a": "1", "b": "2"}, {"b": "2", "a": "1"}, {"x": "a|b"}])
    keys = draw(st.lists(st.tuples(IDS, st.integers(0, 3)), unique=True, max_size=10))
    edges = st.tuples(st.integers(0, 4), IDS, st.sampled_from(["near", "holds", "a|b", ""]), IDS)
    return hand_built(keys, draw(st.lists(edges, max_size=12)), lambda e, f: draw(attributes))


@settings(max_examples=200, deadline=None)
@given(edged_graphs())
def test_column_node_blocks_equal_the_record_blocks(graph):
    assert_column_blocks_are_the_record_blocks(graph)


@pytest.mark.parametrize("shape", [(24, 3), (200, 6), (600, 8)])
def test_column_node_blocks_equal_the_record_blocks_of_built_graphs(shape):
    for seed in (1, 11) if shape[0] == 600 else range(5):
        assert_column_blocks_are_the_record_blocks(build(synth_world(seed, *shape), mock_backend()))


@pytest.mark.parametrize("shape", [(24, 3), (200, 6), (600, 8)])
def test_a_built_graph_lists_each_state_once(shape):
    """A build numbers its states as a load does: one per distinct (attributes, description) pair."""
    graph = build(synth_world(11, *shape), mock_backend())
    assert len(graph.nodes.descriptions) == len(deserialize(serialize(graph)).nodes.descriptions)
    assert len(graph.nodes.descriptions) < len(graph.nodes)


def test_nodes_of_one_state_given_one_sentence_share_a_described_state():
    """Three nodes of one state have three blocks; a reply of one sentence for all three gives them one state."""
    nodes = NodeTable([1, 2, 3], [0, 0, 0], [[0, 0, 1, 1]] * 3, [0, 0, 0], [node(1, 0).attributes], [None])
    scripted = mock_backend(ScriptedBackend, "node_description", ["0|a fox\n1|a fox\n2|a fox"])
    graph, _ = build_graph([FrameRecord(0, 0.0, "calm scene.")], nodes, scripted, fps=1.0, max_retries=2)
    assert len(scripted.asked) == 1 and scripted.asked[0].count("item ") == 3
    assert [n.description for n in graph.nodes] == ["a fox"] * 3
    assert graph.nodes.state.tolist() == [0, 0, 0] and graph.nodes.descriptions == ("a fox",)


def test_build_asks_each_distinct_prompt_once():
    world = synth_world(1, 200, 6)
    backend = mock_backend(CountingBackend)
    assets = build_video(world.observations_text, world.tracklets_text, backend, RavuConfig())
    graph = assets.graph
    payloads = set(node_payloads(graph))
    texts = {n.description for n in graph.nodes}
    assert len(graph.nodes) == 1204
    assert len(payloads) == len(texts) == 395
    assert set(backend.payloads) == payloads and set(backend.payloads.values()) == {1}
    assert set(backend.texts) == texts and set(backend.texts.values()) == {1}


@pytest.mark.parametrize("shape", [(24, 3), (200, 6)])
def test_build_makes_each_node_table_once(monkeypatch, shape):
    """One entity timeline per build, for the events, and no description table; the frames' entity IDs and
    the nodes' edges are read from the columns."""
    built = count_table_builds(monkeypatch)
    graph = build(synth_world(1, *shape), mock_backend())
    assert {name: len(graphs) for name, graphs in built.items()} == {"_timeline": 1, "_descriptions": 0}
    assert graph.edges and graph.events


@pytest.mark.parametrize("shape", [(24, 3), (200, 6)])
def test_build_makes_no_node_record(monkeypatch, shape):
    """Ingestion and build read and write the node columns only: no ``EntityNode`` is made, for any node."""
    made = []

    class Counted(EntityNode):
        def __new__(cls, *fields):
            made.append(fields[:2])
            return EntityNode.__new__(EntityNode, *fields)

    monkeypatch.setattr(graph_model, "EntityNode", Counted)
    graph = build(synth_world(1, *shape), mock_backend())
    assert made == [] and graph.nodes._views is None
    first = graph.nodes[0]  # a reader's access makes the row's record, as counted here
    assert made == [(first.entity_id, first.frame_index)]


@pytest.mark.parametrize("shape", [(24, 3), (200, 6)])
def test_batched_build_equals_one_item_per_call(monkeypatch, shape):
    assert graph_builder.ITEMS_PER_CALL == 8
    for seed in range(10):
        world = synth_world(seed, *shape)
        built = {}
        for per_call in (1, 8):
            monkeypatch.setattr(graph_builder, "ITEMS_PER_CALL", per_call)
            counting = mock_backend(CountingBackend)
            built[per_call] = counting, build_video(
                world.observations_text, world.tracklets_text, counting, RavuConfig()
            )
        (one, single), (eight, batched) = built[1], built[8]
        graph = batched.graph
        assert graph_model.serialize(graph) == graph_model.serialize(single.graph)
        assert batched.index.vectors.tobytes() == single.index.vectors.tobytes()
        assert np.array_equal(batched.index.vector_of, single.index.vector_of)
        assert batched.build_report == single.build_report
        framed = sum(1 for f in graph.frames if graph.nodes_in_frame(f.frame_index))
        distinct = len(set(node_payloads(graph)))
        assert (one.calls["frame_graph"], one.calls["node_description"]) == (framed, distinct)
        assert eight.calls["frame_graph"] == math.ceil(framed / 8)
        assert eight.calls["node_description"] == math.ceil(distinct / 8)
        assert max(eight.most_items.values()) == 8 and max(one.most_items.values()) == 1


class ScriptedBackend(MockBackend):
    """Answers ``role`` from scripted replies, in turn, and records its payloads; the mock answers the rest."""

    def __init__(self, role, replies, **backend_args):
        super().__init__(**backend_args)
        self.role, self.replies, self.asked = role, list(replies), []

    def generate(self, bundle):
        if bundle.role != self.role:
            return super().generate(bundle)
        self.asked.append(bundle.user_payload)
        return self.replies.pop(0) if self.replies else ""


def chase_frames(n=3):
    """``n`` frames in each of which entity 1 chases entity 2, with their entity IDs."""
    frames = [FrameRecord(i, float(i), f"[E1] chases [E2] in field {i}.") for i in range(n)]
    return [(f, [1, 2]) for f in frames]


def triples(edges):
    return [(e.frame_index, e.subject_id, e.relation, e.object_id) for e in edges]


def test_frame_graph_reply_missing_a_frame_reasks_only_that_frame():
    batch = chase_frames()
    scripted = mock_backend(ScriptedBackend, "frame_graph", ["0|1|chases|2\n2|1|chases|2", "1|2|flees|1"])
    edges, dropped = build_frame_graph(batch, scripted, max_retries=2)
    assert scripted.asked[1] == frame_graph_payload([(1, [1, 2], batch[1][0].description)])
    assert triples(edges) == [(0, 1, "chases", 2), (1, 2, "flees", 1), (2, 1, "chases", 2)]
    assert dropped == 0


def test_frame_graph_line_naming_no_requested_frame_is_dropped_with_the_first_kept_frame():
    batch = chase_frames()
    reply = "7|1|chases|2\n1|1|chases|2\n2|1|chases|2\nchases\nx|1|chases|2"
    scripted = mock_backend(ScriptedBackend, "frame_graph", [reply, "0|1|chases|2"])
    edges, dropped = build_frame_graph(batch, scripted, max_retries=2)
    # Frame 0 got no line and is asked again; the three stray lines count once, with frame 1.
    assert len(scripted.asked) == 2
    assert triples(edges) == [(0, 1, "chases", 2), (1, 1, "chases", 2), (2, 1, "chases", 2)]
    assert dropped == 3


def test_dropped_edge_lines_counts_only_the_lines_of_kept_replies():
    batch = chase_frames(2)
    frames = [frame for frame, _ in batch]
    nodes = [node(entity_id, frame.frame_index) for frame, ids in batch for entity_id in ids]
    first = "\n".join([
        "0|1|chases|2",
        "0|1|chases|9",  # kept frame, absent entity: counted
        "1|1|chases",  # the only line of frame 1, which is rejected: not counted
        "5|1|chases|2",  # no requested frame: counted with frame 0
    ])
    rejected = "@@@\n1|2|2|x"  # frame 1 rejected again: nothing counted
    scripted = mock_backend(ScriptedBackend, "frame_graph", [first, rejected, "1|1|chases|2\n1|1|chases|1"])
    graph, report = build_graph(frames, nodes, scripted, fps=1.0, max_retries=3)
    assert len(scripted.asked) == 3
    assert triples(graph.edges) == [(0, 1, "chases", 2), (1, 1, "chases", 2)]
    assert report.dropped_edge_lines == 3  # two of frame 0's reply, one (self-relation) of frame 1's


def test_frame_graph_error_names_the_first_rejected_frame():
    scripted = mock_backend(ScriptedBackend, "frame_graph", ["0|1|chases|2"] * 2)
    with pytest.raises(MalformedResponse, match="^frame 1: "):
        build_frame_graph(chase_frames(), scripted, max_retries=2)
    assert len(scripted.asked) == 2


def described_build(replies, max_retries=2):
    """(node descriptions, scripted backend) of a build of three nodes in one calm frame."""
    nodes = [node(i, 0, appearance=f"animal {i}") for i in range(3)]
    scripted = mock_backend(ScriptedBackend, "node_description", replies)
    graph, _ = build_graph([FrameRecord(0, 0.0, "calm scene.")], nodes, scripted, fps=1.0, max_retries=max_retries)
    return [n.description for n in graph.nodes], scripted


def test_description_reply_missing_a_block_reasks_only_that_block():
    descriptions, scripted = described_build(["0|first\n2|third", "0|second"])
    assert descriptions == ["first", "second", "third"]
    want = node_block(1, node(1, 0, appearance="animal 1").attributes, [])
    assert scripted.asked[1] == f"item 0\n{want}"


def test_description_reply_ignores_stray_lines_and_reasks_a_repeated_item():
    reply = "0|one\n0|one again\n1|two\n2|three\n3|ghost\n-1|ghost\nno index here"
    descriptions, scripted = described_build([reply, "0|one"])
    # Item 0 has two lines and is asked again, alone; the lines of 3, -1 and no index are ignored.
    assert descriptions == ["one", "two", "three"]
    assert len(scripted.asked) == 2 and scripted.asked[1].count("item ") == 1


def test_description_error_names_the_first_rejected_node():
    with pytest.raises(MalformedResponse, match="^entity 0 frame 0: "):
        described_build(["1|two", ""])


@pytest.mark.parametrize("max_retries, calls", [(0, 1), (1, 1), (3, 3)])
def test_describe_node_calls_at_most_max_retries(max_retries, calls):
    flaky = mock_backend(FlakyGenBackend, bad=99)
    with pytest.raises(MalformedResponse):
        describe_node(SpatioTemporalGraph(nodes=[node(3, 0)]), node(3, 0), flaky, max_retries)
    assert flaky.calls == calls


@pytest.mark.parametrize("field, value", [
    ("description", "the dog sits.\n[E1] looking toward [E2]."),
    ("action", "run\nrelations:\n1|x|2"),
])
def test_build_rejects_a_line_break_before_any_backend_call(field, value):
    world = synth_world(1, 24, 3)
    lines = world.observations_text.splitlines()
    frame = json.loads(lines[3])
    if field == "description":
        frame["description"] = value
    else:
        frame["entities"][0]["attributes"]["action"] = value
    lines[3] = json.dumps(frame)
    counting = mock_backend(CountingBackend)
    with pytest.raises(ParseError, match="line break") as exc:
        build_video("\n".join(lines), world.tracklets_text, counting, RavuConfig())
    assert exc.value.line == 4 and not counting.calls


def reference_build(world, backend):
    """(graph, embedding matrix) built asking the backend once per node."""
    assoc = associated(world)
    graph = SpatioTemporalGraph(frames=list(assoc.frames), nodes=list(assoc.nodes), fps=1.0)
    edges = []
    for frame in graph.frames:
        in_frame = [n.entity_id for n in graph.nodes_in_frame(frame.frame_index)]
        if in_frame:
            edges.extend(build_frame_graph([(frame, in_frame)], backend, max_retries=2)[0])
    graph = replace(graph, edges=sorted(edges, key=lambda e: (e.frame_index, e.subject_id, e.object_id, e.relation)))
    # ``describe_node`` asks for the block of the node's own edges, ``node_edges(graph, ...)``.
    graph = replace(graph, nodes=[
        n._replace(description=describe_node(graph, n, backend, max_retries=2)) for n in graph.nodes
    ])
    graph = replace(graph, events={
        entity_id: segment_events(graph, entity_id, backend, max_retries=2).events for entity_id in graph.entity_ids()
    })
    ordered = sorted(graph.nodes, key=lambda n: (n.frame_index, n.entity_id))
    return graph, np.stack([backend.embed(n.description) for n in ordered])


@pytest.mark.parametrize("shape", [(24, 3), (200, 6), (600, 8)])
def test_memoised_build_matches_one_call_per_node(shape):
    world = synth_world(1, *shape)
    graph, matrix = reference_build(world, mock_backend())
    assets = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig())
    assert graph_model.serialize(assets.graph) == graph_model.serialize(graph)
    assert assets.index.vectors[assets.index.vector_of].tobytes() == matrix.tobytes()


def per_frame_events(graph, entity_id):
    """The mock's segmentation rule applied to one ``(frame, action, description)`` row per frame.

    An event ends at an absence gap or where the action changes; its summary
    is the appearance in its last frame's description, then its action.
    """
    spans = []
    for n in entity_timeline(graph, entity_id):
        action = n.attributes.get("action", "")
        if spans and n.frame_index == spans[-1][1] + 1 and action == spans[-1][2]:
            spans[-1][1], spans[-1][3] = n.frame_index, n.description
        else:
            spans.append([n.frame_index, n.frame_index, action, n.description])
    events = []
    for start, end, action, description in spans:
        appearance = re.match(r"entity \d+: ([^;]+);", description)
        summary = f"{appearance.group(1).strip() if appearance else description} {action}"
        events.append(EntityEvent(entity_id, start, end, summary))
    return events


@pytest.mark.parametrize("shape", [(24, 3), (200, 6), (600, 8)])
def test_state_table_segmentation_matches_the_per_frame_rule(shape):
    for seed in range(10):
        assoc = associated(synth_world(seed, *shape))
        graph, report = build_graph(assoc.frames, assoc.nodes, mock_backend(), fps=1.0, max_retries=2)
        assert report.fallback_entities == []
        assert graph.events == {e: tuple(per_frame_events(graph, e)) for e in graph.entity_ids()}


class FirstReplyEmptyBackend(CountingBackend):
    """Replies with an empty sentence the first time it sees a node block."""

    def generate(self, bundle):
        if bundle.role != "node_description":
            return super().generate(bundle)
        fresh = [block not in self.payloads for block in node_blocks(bundle.user_payload)]
        lines = super().generate(bundle).splitlines()
        return "\n".join(f"{k}|  " if fresh[k] else line for k, line in enumerate(lines))


def test_memo_keeps_the_retry_and_reuses_the_accepted_reply():
    world = synth_world(1, 24, 3)
    flaky = mock_backend(FirstReplyEmptyBackend)
    graph = build(world, flaky, max_retries=2)
    want = build(world, mock_backend())
    assert len(flaky.payloads) < len(graph.nodes)
    assert set(flaky.payloads.values()) == {2}
    # Every block of a batch is rejected once, and the batch is asked again in one more call.
    assert flaky.calls["node_description"] == 2 * math.ceil(len(flaky.payloads) / 8)
    assert graph_model.serialize(graph) == graph_model.serialize(want)


class TimeoutOnceBackend(CountingBackend):
    """Times out the first time it is asked a prompt holding the node block ``payload``."""

    def __init__(self, payload, **backend_args):
        super().__init__(**backend_args)
        self.payload = payload
        self.timed_out = False

    def generate(self, bundle):
        if (
            bundle.role == "node_description"
            and self.payload in node_blocks(bundle.user_payload)
            and not self.timed_out
        ):
            self.timed_out = True
            raise Timeout("slow")
        return super().generate(bundle)


def test_timeout_on_a_repeated_prompt_propagates_and_is_not_remembered():
    world = synth_world(1, 24, 3)
    want = build(world, mock_backend())
    repeated = next(p for p, n in Counter(node_payloads(want)).items() if n > 1)

    flaky = mock_backend(TimeoutOnceBackend, repeated)
    with pytest.raises(Timeout):
        build(world, flaky)
    assert flaky.timed_out and repeated not in flaky.payloads
    graph = build(world, flaky)
    assert flaky.payloads[repeated] == 1
    assert graph_model.serialize(graph) == graph_model.serialize(want)


def test_embed_error_names_the_node_and_is_not_remembered():
    class EmbedTimeoutOnce(MockBackend):
        calls = 0

        def embed(self, text):
            self.calls += 1
            if self.calls == 1:
                raise Timeout("slow")
            return super().embed(text)

    graph = small_described_graph()
    backend = mock_backend(EmbedTimeoutOnce)
    with pytest.raises(Timeout, match="embedding entity 0 frame 0: slow"):
        embed_graph(graph, backend)
    columns = embed_graph(graph, backend)
    assert backend.calls == 1 + len({n.description for n in graph.nodes})
    assert record_rows(columns) == record_rows(embed_graph(graph, mock_backend()))
