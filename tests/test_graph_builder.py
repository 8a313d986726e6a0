import json

import numpy as np
import pytest

from ravu.backends import MockBackend
from ravu.errors import MalformedResponse, ParseError
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
    EntityNode,
    FrameRecord,
    SpatioTemporalGraph,
    validate,
)


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
    edges, dropped = build_frame_graph(frame, [node(1, 0), node(2, 0)], backend)
    assert dropped == 0
    assert len(edges) == 1
    assert (edges[0].subject_id, edges[0].relation, edges[0].object_id) == (1, "chases", 2)


def test_build_frame_graph_drops_unknown_entities(backend):
    frame = FrameRecord(0, 0.0, "[E1] chases [E9].")
    edges, dropped = build_frame_graph(frame, [node(1, 0)], backend)
    assert edges == [] and dropped == 1


def test_build_frame_graph_no_comention_tolerates_empty(backend):
    frame = FrameRecord(0, 0.0, "[E1] sits alone.")
    edges, dropped = build_frame_graph(frame, [node(1, 0)], backend)
    assert edges == [] and dropped == 0


def test_build_frame_graph_raises_when_comention_unparseable():
    frame = FrameRecord(0, 0.0, "[E1] chases [E2].")
    with pytest.raises(MalformedResponse):
        build_frame_graph(frame, [node(1, 0), node(2, 0)], FailingGenBackend())


class FlakyGenBackend(MockBackend):
    """Mock whose first ``bad`` generate() calls return garbage."""

    def __init__(self, bad):
        super().__init__()
        self.bad = bad
        self.calls = 0

    def generate(self, bundle):
        self.calls += 1
        return "@@@ not parseable @@@" if self.calls <= self.bad else super().generate(bundle)


@pytest.mark.parametrize("max_retries, calls", [(0, 1), (1, 1), (3, 3)])
def test_build_frame_graph_calls_at_most_max_retries(max_retries, calls):
    frame = FrameRecord(0, 0.0, "[E1] chases [E2].")
    flaky = FlakyGenBackend(bad=99)
    with pytest.raises(MalformedResponse):
        build_frame_graph(frame, [node(1, 0), node(2, 0)], flaky, max_retries)
    assert flaky.calls == calls


def test_build_frame_graph_counts_drops_of_the_accepted_reply():
    frame = FrameRecord(0, 0.0, "[E1] chases [E2].")
    flaky = FlakyGenBackend(bad=1)
    edges, dropped = build_frame_graph(frame, [node(1, 0), node(2, 0)], flaky, max_retries=2)
    assert flaky.calls == 2
    assert len(edges) == 1 and dropped == 0


def test_describe_node(backend):
    text = describe_node(node(3, 0), [], backend)
    assert text == "entity 3: red fox; running; relations: none"


def small_described_graph():
    frames = [FrameRecord(i, float(i), f"frame {i}") for i in range(4)]
    nodes = [
        node(0, 0, action="running"),
        node(0, 1, action="running"),
        node(0, 2, action="digging"),
        node(0, 3, action="digging"),
    ]
    graph = SpatioTemporalGraph(frames=frames, nodes=nodes)
    for n in graph.nodes:
        n.description = f"entity 0: red fox; {n.attributes['action']}; relations: none"
    return graph


def test_segment_events_splits_on_action_change(backend):
    graph = small_described_graph()
    seg = segment_events(graph, 0, backend)
    assert not seg.fallback
    assert [(e.start_frame, e.end_frame, e.summary) for e in seg.events] == [
        (0, 1, "red fox running"),
        (2, 3, "red fox digging"),
    ]


def test_segment_events_absence_gap_forces_boundary(backend):
    graph = small_described_graph()
    graph.nodes = [n for n in graph.nodes if n.frame_index != 1]
    seg = segment_events(graph, 0, backend)
    assert [(e.start_frame, e.end_frame) for e in seg.events] == [(0, 0), (2, 3)]


def test_segment_events_fallback_flagged():
    graph = small_described_graph()
    seg = segment_events(graph, 0, FailingGenBackend())
    assert seg.fallback
    assert [(e.start_frame, e.end_frame) for e in seg.events] == [(0, 3)]
    assert seg.events[0].summary  # non-empty summary even in fallback


def test_build_graph_end_to_end(backend):
    frames = [FrameRecord(0, 0.0, "[E0] beside [E1]."), FrameRecord(1, 1.0, "calm scene.")]
    nodes = [node(0, 0), node(1, 0, appearance="blue jay"), node(0, 1)]
    graph, report = build_graph(frames, nodes, backend)
    assert report.dropped_edge_lines == 0
    assert report.fallback_entities == []
    assert len(graph.edges) == 1
    assert all(n.description for n in graph.nodes)
    assert validate(graph) == []


def test_embed_graph_requires_descriptions(backend):
    graph = SpatioTemporalGraph(
        frames=[FrameRecord(0, 0.0, "x")], nodes=[node(0, 0)]
    )
    with pytest.raises(ValueError, match="no description"):
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
    """(graph, bin path, index path, index entries) of small_described_graph."""
    graph = small_described_graph()
    bin_path, idx_path = tmp_path / "e.bin", tmp_path / "e.idx"
    write_embeddings(embed_graph(graph, backend), bin_path, idx_path)
    entries = [json.loads(line) for line in idx_path.read_text().splitlines()]
    return graph, bin_path, idx_path, entries


def rewrite(idx_path, entries):
    idx_path.write_text("".join(json.dumps(e) + "\n" for e in entries))


def test_read_embeddings_rejects_repeated_row(tmp_path, backend):
    graph, bin_path, idx_path, entries = persisted(tmp_path, backend)
    entries[2]["row"] = 0
    rewrite(idx_path, entries)
    with pytest.raises(ParseError, match="row 0 listed twice") as exc:
        read_embeddings(bin_path, idx_path)
    assert exc.value.line == 3


def test_read_embeddings_rejects_repeated_key(tmp_path, backend):
    graph, bin_path, idx_path, entries = persisted(tmp_path, backend)
    entries[1]["frame_index"] = entries[0]["frame_index"]
    rewrite(idx_path, entries)
    with pytest.raises(ParseError, match="listed twice") as exc:
        read_embeddings(bin_path, idx_path)
    assert exc.value.line == 2


def test_read_embeddings_rejects_missing_index_line(tmp_path, backend):
    graph, bin_path, idx_path, entries = persisted(tmp_path, backend)
    rewrite(idx_path, entries[:-1])
    with pytest.raises(ParseError, match="3 rows, header counts 4") as exc:
        read_embeddings(bin_path, idx_path)
    assert exc.value.line == 4


def test_read_embeddings_rejects_extra_index_line(tmp_path, backend):
    graph, bin_path, idx_path, entries = persisted(tmp_path, backend)
    rewrite(idx_path, entries + [{"row": 0, "entity_id": 0, "frame_index": 9}])
    with pytest.raises(ParseError, match="more than the header's 4 rows") as exc:
        read_embeddings(bin_path, idx_path)
    assert exc.value.line == 5


def test_read_embeddings_rejects_keys_not_in_graph(tmp_path, backend):
    graph, bin_path, idx_path, entries = persisted(tmp_path, backend)
    entries[3]["entity_id"] = 7
    rewrite(idx_path, entries)
    assert len(read_embeddings(bin_path, idx_path)) == 4
    with pytest.raises(ParseError, match="entity 7 frame 3 is not a graph node") as exc:
        read_embeddings(bin_path, idx_path, graph)
    assert exc.value.line == 4


def test_read_embeddings_rejects_graph_nodes_without_rows(tmp_path, backend):
    graph, bin_path, idx_path, _ = persisted(tmp_path, backend)
    graph.nodes = graph.nodes + [node(1, 0, desc="entity 1: red fox; running")]
    with pytest.raises(ParseError, match="entity 1 frame 0 has no embedding row"):
        read_embeddings(bin_path, idx_path, graph)


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
