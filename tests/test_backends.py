import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ravu import backends
from ravu.backends import (
    BLOCK_TOKEN,
    MockBackend,
    PromptBundle,
    RemoteBackend,
    generate_with_retries,
    make_bundle,
    mock_breakdown,
)
from ravu.config import RavuConfig
from ravu.errors import BackendError, BlockedContent, MalformedResponse, RavuError, Timeout
from ravu.evaluate import build_video, eval_localization, eval_qa
from ravu.graph_builder import EmbeddingRecord, build_frame_graph
from ravu.graph_model import LINE_BREAKS, EntityEvent, FrameRecord, RelationEdge
from ravu.index import EmbeddingIndex, rerank
from ravu.reasoning import examples_for, load_example_library
from ravu.synth import make_corpus, synth_world

from conftest import make_columns, mock_backend


def test_bundle_role_validation():
    with pytest.raises(ValueError, match="unknown role"):
        PromptBundle(role="oracle", system_prompt="", user_payload="")
    with pytest.raises(ValueError, match="frame_refs"):
        PromptBundle(role="rerank", system_prompt="", user_payload="", frame_refs=[])
    with pytest.raises(ValueError, match="frame_refs"):
        PromptBundle(role="event_select", system_prompt="", user_payload="", frame_refs=[])


def test_system_prompts_exist_for_all_roles():
    for role in backends.ROLES:
        assert backends.load_system_prompt(role)


def test_system_prompt_is_read_once_per_role():
    first, second = make_bundle("rerank", "a"), make_bundle("rerank", "b")
    assert first.system_prompt is second.system_prompt


def test_embed_deterministic_unit_norm(backend):
    v1 = backend.embed("a red dog runs")
    v2 = backend.embed("a red dog runs")
    np.testing.assert_array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0)
    assert backend.embed("").tolist() == [0.0] * backend.dim


def test_embed_seed_changes_vectors():
    a = MockBackend(seed=0, dim=RavuConfig().embed_dim).embed("hello world")
    b = MockBackend(seed=1, dim=RavuConfig().embed_dim).embed("hello world")
    assert not np.allclose(a, b)


def test_embed_similarity_orders_by_overlap(backend):
    q = backend.embed("red dog running fast")
    close = backend.embed("red dog running")
    far = backend.embed("blue cat sleeping")
    assert float(q @ close) > float(q @ far)


def test_frame_graph_rule(backend):
    payload = backends.frame_graph_payload(
        [(0, [1, 2], "[E1] stands beside [E2]. [E2] is alone. [E1] waves.")]
    )
    out = backend.generate(make_bundle("frame_graph", payload))
    assert out == "0|1|stands beside|2"


def test_frame_graph_rule_answers_each_frame_of_a_batch(backend):
    frames = [
        (4, [1, 2], "[E1] stands beside [E2]. [E2] looks at [E1]."),
        (5, [3], "[E3] sits alone."),
        (6, [1, 3], "[E3] chases [E1]."),
    ]
    out = backend.generate(make_bundle("frame_graph", backends.frame_graph_payload(frames)))
    assert out.splitlines() == ["4|1|stands beside|2", "4|2|looks at|1", "6|3|chases|1"]
    alone = [backend.generate(make_bundle("frame_graph", backends.frame_graph_payload([f]))) for f in frames]
    assert "\n".join(a for a in alone if a) == out


def test_node_description_rule(backend):
    edges = [RelationEdge(0, 3, "next to", 4), RelationEdge(0, 5, "behind", 3)]
    block = backends.node_block(
        3, {"appearance": "red fox", "action": "digging", "body_pose": "crouched"}, edges
    )
    out = backend.generate(make_bundle("node_description", backends.node_description_payload([block])))
    assert out == "0|entity 3: red fox; digging; relations: next to entity 4, entity 5 behind"


def test_node_description_no_relations(backend):
    block = backends.node_block(0, {"appearance": "red fox", "action": "digging"}, [])
    out = backend.generate(make_bundle("node_description", backends.node_description_payload([block])))
    assert out.endswith("relations: none")


def test_node_description_rule_numbers_each_block(backend):
    blocks = [
        backends.node_block(3, {"appearance": "red fox", "action": "digging"}, [RelationEdge(0, 3, "near", 4)]),
        backends.node_block(4, {"appearance": "blue jay", "action": "singing"}, []),
    ]
    payload = backends.node_description_payload(blocks)
    assert payload.splitlines()[0] == "item 0" and "\nitem 1\nentity: 4\n" in payload
    out = backend.generate(make_bundle("node_description", payload))
    assert out.splitlines() == [
        "0|entity 3: red fox; digging; relations: near entity 4",
        "1|entity 4: blue jay; singing; relations: none",
    ]


def test_node_description_rule_reads_relations_after_a_relations_attribute(backend):
    block = backends.node_block(
        3, {"action": "digging", "relations": "", "zone": "garden"}, [RelationEdge(0, 3, "near", 4)]
    )
    out = backend.generate(make_bundle("node_description", backends.node_description_payload([block])))
    assert out == "0|entity 3: ; digging; relations: near entity 4"


def test_event_segmentation_rule(backend):
    rows = [
        (0, "running", "entity 0: red fox; running; relations: none"),
        (1, "running", "entity 0: red fox; running; relations: none"),
        (2, "digging", "entity 0: red fox; digging; relations: none"),
    ]
    payload = backends.event_segmentation_payload(0, rows)
    assert payload.splitlines() == [
        "entity: 0",
        "states:",
        "0|running|entity 0: red fox; running; relations: none",
        "1|digging|entity 0: red fox; digging; relations: none",
        "frames:",
        "0|0",
        "1|0",
        "2|1",
    ]
    out = backend.generate(make_bundle("event_segmentation", payload))
    assert out.splitlines() == ["0|1|red fox running", "2|2|red fox digging"]


def test_event_segmentation_state_is_the_action_and_description_pair(backend):
    sentence = "entity 0: red fox; running; relations: none"
    payload = backends.event_segmentation_payload(0, [(5, "running", sentence), (6, "digging", sentence)])
    assert payload.splitlines() == [
        "entity: 0", "states:", f"0|running|{sentence}", f"1|digging|{sentence}", "frames:", "5|0", "6|1"
    ]
    out = backend.generate(make_bundle("event_segmentation", payload))
    assert out.splitlines() == ["5|5|red fox running", "6|6|red fox digging"]


@given(st.lists(st.tuples(st.sampled_from(["run", "dig", "sit"]), st.sampled_from(["a fox", "a jay"])), max_size=30))
def test_event_segmentation_payload_lists_each_state_once_and_each_frame_once(states):
    rows = [(10 + i, action, description) for i, (action, description) in enumerate(states)]
    lines = backends.event_segmentation_payload(3, rows).splitlines()
    at = lines.index("frames:")
    assert lines[:2] == ["entity: 3", "states:"]
    table = [line.split("|", 2) for line in lines[2:at]]
    assert [int(k) for k, _, _ in table] == list(range(len(table)))
    assert len({(action, description) for _, action, description in table}) == len(table)
    frames = [tuple(map(int, line.split("|"))) for line in lines[at + 1 :]]
    assert [frame for frame, _ in frames] == [frame for frame, _, _ in rows]
    assert all(0 <= k < len(table) for _, k in frames)
    assert [(frame, *table[k][1:]) for frame, k in frames] == rows


def test_rerank_rule(backend):
    payload = backends.rerank_payload(
        "gray cat sleeping", ["brown dog", "gray cat sleeping on mat", "gray cat"]
    )
    assert backend.generate(make_bundle("rerank", payload)) == "1"


def test_rerank_tie_goes_to_lowest_index(backend):
    payload = backends.rerank_payload("gray cat", ["gray cat", "gray cat"])
    assert backend.generate(make_bundle("rerank", payload)) == "0"


def test_event_analysis_rule(backend):
    events = [
        EntityEvent(0, 0, 4, "red fox running"),
        EntityEvent(0, 5, 9, "red fox digging a hole"),
    ]
    payload = backends.event_analysis_payload("when did the fox start digging", events)
    assert backend.generate(make_bundle("event_analysis", payload)) == "5"
    payload = backends.event_analysis_payload("when did the fox start flying", events)
    assert backend.generate(make_bundle("event_analysis", payload)) == "0"


def test_answer_rule_uses_frames_and_notes(backend):
    refs = [(0, "f0.jpg", "the red fox digs a hole"), (1, "f1.jpg", "the red fox rests")]
    payload = backends.answer_payload("what happens", ["a bird sings", "a fox digs"], "")
    bundle = make_bundle("answer", payload, refs)
    assert backend.answer(bundle, "what happens", ["a bird sings", "a fox digs"]) == 1

    payload = backends.answer_payload("how many foxes", ["2", "3"], "count of 'foxes': 3")
    bundle = make_bundle("answer", payload, [])
    assert backend.answer(bundle, "how many foxes", ["2", "3"]) == 1


def test_event_select_rule(backend):
    payload = backends.event_select_payload(
        "fox digging", ["bird singing", "fox digging", "fox sleeping"], 2
    )
    assert backend.generate(make_bundle("event_select", payload)) == "1, 2"


def test_block_token_raises(backend):
    payload = backends.rerank_payload("[BLOCK] anything", ["x"])
    with pytest.raises(BlockedContent):
        backend.generate(make_bundle("rerank", payload))
    bundle = make_bundle("answer", backends.answer_payload("q", ["a"]), [(0, "", "[BLOCK]")])
    with pytest.raises(BlockedContent):
        backend.answer(bundle, "q", ["a"])


def test_mock_breakdown_templates():
    out = mock_breakdown("What did the gray dog do before chasing the ball?")
    assert 'localize_node(query="gray dog chasing the ball")' in out
    assert 'events_to_sample="previous:1"' in out
    out = mock_breakdown("What did the cat do after eating?")
    assert 'events_to_sample="next:1"' in out
    out = mock_breakdown("How many dogs appear?")
    assert 'count_nodes(node_query="dogs")' in out
    out = mock_breakdown("What happens at the beginning of the video?")
    assert 'extract_temporal_part(target_part="beginning")' in out
    out = mock_breakdown("Which of these happens in the video?")
    assert "get_global_context()" in out


def test_generate_with_retries_retries_then_fails(backend):
    calls = []

    def parse(text):
        calls.append(text)
        raise ValueError("nope")

    bundle = make_bundle("rerank", backends.rerank_payload("x", ["x"]))
    with pytest.raises(MalformedResponse, match="after retries"):
        generate_with_retries(backend, bundle, parse, max_retries=3)
    assert len(calls) == 3


def test_generate_with_retries_propagates_blocked(backend):
    bundle = make_bundle("rerank", backends.rerank_payload("[BLOCK]", ["x"]))
    with pytest.raises(BlockedContent):
        generate_with_retries(backend, bundle, lambda t: t, max_retries=2)


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, bad_json=False):
        self.status_code = status_code
        self._payload = payload or {}
        self._bad_json = bad_json

    def json(self):
        if self._bad_json:
            raise ValueError("not json")
        return self._payload


def _patch_post(monkeypatch, response=None, exc=None, record=None):
    """Stub ``requests.Session.post``; a session opens no socket until it posts."""
    import requests

    def fake_post(session, url, json=None, headers=None, timeout=None):
        if record is not None:
            record.append({"session": session, "url": url, "json": json, "headers": headers})
        if exc is not None:
            raise exc
        return response

    monkeypatch.setattr(requests.Session, "post", fake_post)


def test_remote_backend_generate(monkeypatch):
    record = []
    _patch_post(monkeypatch, _FakeResponse(payload={"text": "hello"}), record=record)
    remote = RemoteBackend("http://example.test/api/", token="tok", model="m1", deadline_s=60.0, dim=RavuConfig().embed_dim)
    bundle = make_bundle("rerank", backends.rerank_payload("x", ["x"]))
    assert remote.generate(bundle) == "hello"
    sent = record[0]
    assert sent["url"] == "http://example.test/api"
    assert sent["headers"]["Authorization"] == "Bearer tok"
    assert sent["json"]["model"] == "m1"
    assert sent["json"]["role"] == "rerank"


def test_remote_backend_reuses_one_session(monkeypatch):
    import requests

    record = []
    _patch_post(monkeypatch, _FakeResponse(payload={"text": "[3.0, 4.0]"}), record=record)
    remote = RemoteBackend("http://example.test", "", "", 60.0, dim=2)
    remote.embed("a")
    remote.embed("b")
    first, second = (sent["session"] for sent in record)
    assert isinstance(first, requests.Session) and first is second
    assert RemoteBackend("http://example.test", "", "", 60.0, dim=2)._session is None


def test_remote_backend_error_mapping(monkeypatch):
    remote = RemoteBackend("http://example.test", "", "", 60.0, dim=RavuConfig().embed_dim)
    bundle = make_bundle("rerank", backends.rerank_payload("x", ["x"]))

    _patch_post(monkeypatch, _FakeResponse(status_code=451))
    with pytest.raises(BlockedContent):
        remote.generate(bundle)

    _patch_post(monkeypatch, _FakeResponse(status_code=500))
    with pytest.raises(MalformedResponse):
        remote.generate(bundle)

    import requests

    _patch_post(monkeypatch, exc=requests.exceptions.Timeout("slow"))
    with pytest.raises(Timeout):
        remote.generate(bundle)

    _patch_post(monkeypatch, _FakeResponse(bad_json=True))
    with pytest.raises(MalformedResponse):
        remote.generate(bundle)


def two_entity_frame(description):
    return FrameRecord(0, 0.0, description), [0, 1]


def remote_generate(remote):
    return remote.generate(make_bundle("rerank", backends.rerank_payload("x", ["x"])))


REMOTE_REPLIES = [
    # An empty text is a reply like any other: the caller's parser accepts it or not.
    pytest.param({"text": ""}, remote_generate, "", id="empty text"),
    pytest.param({"text": ""}, lambda r: build_frame_graph([two_entity_frame("[E0] waits. [E1] sits.")], r, 2),
                 ([], 0), id="frame graph, no relation stated"),
    pytest.param({"text": ""}, lambda r: build_frame_graph([two_entity_frame("[E0] greets [E1].")], r, 2),
                 MalformedResponse, id="frame graph, co-mention"),
    pytest.param({"text": ""}, lambda r: rerank("x", ["a", "b"], r), (0, True), id="rerank"),
    pytest.param({"text": 5}, remote_generate, MalformedResponse, id="int text"),
    pytest.param({"answer": "0"}, remote_generate, MalformedResponse, id="no text"),
    pytest.param([1, 2], remote_generate, MalformedResponse, id="list body, generate"),
    pytest.param([1, 2], lambda r: r.embed("a"), MalformedResponse, id="list body, embed"),
]


@pytest.mark.parametrize("payload, call, expected", REMOTE_REPLIES)
def test_remote_backend_reply_shapes(monkeypatch, payload, call, expected):
    _patch_post(monkeypatch, _FakeResponse(payload=payload))
    remote = RemoteBackend("http://example.test", "", "", 60.0, dim=2)
    if expected is MalformedResponse:
        with pytest.raises(MalformedResponse):
            call(remote)
    else:
        assert call(remote) == expected


REQUEST_FAILURES = ["ChunkedEncodingError", "TooManyRedirects", "InvalidURL", "RequestException"]


@pytest.mark.parametrize("name", REQUEST_FAILURES)
def test_remote_backend_maps_any_request_failure_to_a_backend_error(monkeypatch, name):
    import requests

    _patch_post(monkeypatch, exc=getattr(requests.exceptions, name)("broken"))
    remote = RemoteBackend("http://example.test", "", "", 60.0, dim=2)
    bundle = make_bundle("rerank", backends.rerank_payload("x", ["x"]))
    for call in (lambda: remote.generate(bundle), lambda: remote.embed("a")):
        with pytest.raises(BackendError, match="remote backend request failed: broken") as exc:
            call()
        assert type(exc.value) is BackendError
        assert isinstance(exc.value.__cause__, getattr(requests.exceptions, name))


@pytest.mark.parametrize("name", ["Timeout", "ConnectTimeout", "ReadTimeout", "ConnectionError"])
def test_remote_backend_maps_timeouts_and_refused_connections_to_timeout(monkeypatch, name):
    import requests

    _patch_post(monkeypatch, exc=getattr(requests.exceptions, name)("slow"))
    with pytest.raises(Timeout, match="remote backend unreachable: slow"):
        RemoteBackend("http://example.test", "", "", 60.0, dim=2).embed("a")


def test_remote_backend_embed_and_answer(monkeypatch):
    remote = RemoteBackend("http://example.test", "", "", 60.0, dim=2)
    _patch_post(monkeypatch, _FakeResponse(payload={"text": "[3.0, 4.0]"}))
    vec = remote.embed("hi")
    np.testing.assert_allclose(vec, [0.6, 0.8])

    _patch_post(monkeypatch, _FakeResponse(payload={"text": "option 1"}))
    bundle = make_bundle("answer", backends.answer_payload("q", ["a", "b"]))
    assert remote.answer(bundle, "q", ["a", "b"]) == 1

    _patch_post(monkeypatch, _FakeResponse(payload={"text": "7"}))
    with pytest.raises(MalformedResponse, match="out of range"):
        remote.answer(bundle, "q", ["a", "b"])


@pytest.mark.parametrize("text", ["[3.0, 4.0, 0.0]", "[3.0]", "[[3.0, 4.0]]", "5.0"])
def test_remote_backend_rejects_embeddings_of_the_wrong_dimension(monkeypatch, text):
    remote = RemoteBackend("http://example.test", "", "", 60.0, dim=2)
    _patch_post(monkeypatch, _FakeResponse(payload={"text": text}))
    with pytest.raises(MalformedResponse, match=r"expected \(2,\)"):
        remote.embed("hi")


@pytest.mark.parametrize("text", ["[NaN, 1.0]", "[1.0, Infinity]", "[-Infinity, 0.0]", "[1e400, 1.0]", '["nan", 1.0]'])
def test_remote_backend_rejects_non_finite_embeddings(monkeypatch, text):
    remote = RemoteBackend("http://example.test", "", "", 60.0, dim=2)
    _patch_post(monkeypatch, _FakeResponse(payload={"text": text}))
    with pytest.raises(MalformedResponse, match="non-finite"):
        remote.embed("hi")


def test_localize_with_a_non_finite_embedding_ends_as_a_typed_error(monkeypatch):
    index = EmbeddingIndex(make_columns(
        [EmbeddingRecord(0, 0, "alpha", np.array([1.0, 0.0])), EmbeddingRecord(1, 1, "beta", np.array([0.0, 1.0]))]
    ))
    _patch_post(monkeypatch, _FakeResponse(payload={"text": "[NaN, 1.0]"}))
    with pytest.raises(RavuError, match="non-finite") as exc:
        index.localize("alpha", 2, RemoteBackend("http://example.test", "", "", 60.0, dim=2))
    assert type(exc.value) is MalformedResponse


def test_remote_backend_requires_endpoint():
    with pytest.raises(ValueError):
        RemoteBackend("", "", "", 60.0, dim=RavuConfig().embed_dim)


# ---------------------------------------------------------------------------
# The payload grammar: one writer, one reader, and the scanners they replaced.

# sha256 over every bundle (role, system prompt, payload, frame refs) and the MockBackend's reply
# to it, while building, asking every question and localizing every annotation of
# make_corpus(42, 6, 24, 3, 4) and synth_world(1, 200, 6) with the default config.
PROMPT_GOLDEN_SHA256 = "b08c108eb563b30e1634df0f16dafdb75c3582eed939d5fdab5362806cc47dcb"


class RecordingBackend:
    """A MockBackend that hashes every bundle it is sent with its reply."""

    def __init__(self):
        self.inner = mock_backend()
        self.digest = hashlib.sha256()

    def _record(self, bundle, reply):
        fields = (bundle.role, bundle.system_prompt, bundle.user_payload, bundle.frame_refs, reply)
        self.digest.update(repr(fields).encode())
        return reply

    def generate(self, bundle):
        return self._record(bundle, self.inner.generate(bundle))

    def answer(self, bundle, question, options):
        return self._record(bundle, self.inner.answer(bundle, question, options))

    def embed(self, text):
        return self.inner.embed(text)


def test_prompts_and_mock_replies_match_their_golden_bytes():
    recording = RecordingBackend()
    for world in [*make_corpus(42, 6, 24, 3, 4), synth_world(1, 200, 6)]:
        assets = {world.video_id: build_video(world.observations_text, world.tracklets_text, recording, RavuConfig())}
        assert eval_qa(world.questions, assets, recording)["errored"] == 0
        eval_localization(world.loc_annotations, assets, recording, RavuConfig())
    assert recording.digest.hexdigest() == PROMPT_GOLDEN_SHA256


LINE = st.text(st.characters(exclude_characters=LINE_BREAKS), max_size=12)
# Free text, with the shapes that could read as grammar.
TEXT = st.one_of(
    LINE,
    st.builds("{}: {}".format, LINE, LINE),
    st.sampled_from(["", " ", "relations:", "relations: ", "entity: 1", "item 0", "question: q", " | "]),
)
KEY = st.from_regex(r"[a-z_]+", fullmatch=True)


@given(st.dictionaries(KEY, st.one_of(LINE, st.lists(LINE.filter(lambda s: not re.match(r"[a-z_]+:", s)), max_size=4))))
@example({"a": [""], "b": "x"})
@example({"a": [], "b": [""], "c": []})
@example({"a": "", "b": [" ", "0|c: d"], "c": " x "})
def test_read_gives_back_what_payload_wrote(entries):
    fields = {key: value for key, value in entries.items() if isinstance(value, str)}
    sections = {key: value for key, value in entries.items() if isinstance(value, list)}
    assert backends._read(backends._payload(**entries)) == (fields, sections)


def old_line_value(lines, key):
    for line in lines:
        if line.startswith(key + ":"):
            return line[len(key) + 1 :].strip()
    return ""


def old_header_value(payload, key):
    return old_line_value(payload.splitlines(), key)


def old_section_lines(payload, key):
    out, active = [], False
    for line in payload.splitlines():
        if line.strip() == key + ":":
            active = True
            continue
        if active:
            if re.match(r"^[a-z_]+:\s*$", line.strip()):
                break
            if line.strip():
                out.append(line)
    return out


def old_parse_indexed(lines):
    return [line.partition("|")[2] for line in lines]


def old_node_description(payload):
    blocks = []
    for line in payload.splitlines():
        item = re.fullmatch(r"item (\d+)", line)
        if item:
            blocks.append((item.group(1), []))
        elif blocks:
            blocks[-1][1].append(line)
    out = []
    for k, lines in blocks:
        entity_id = int(old_line_value(lines, "entity"))
        start = max(i for i, line in enumerate(lines) if line.strip() == "relations:") + 1
        rendered = []
        for line in lines[start:]:
            if not line.strip():
                continue
            subj, rel, obj = line.split("|")
            rendered.append(f"{rel} entity {obj}" if int(subj) == entity_id else f"entity {subj} {rel}")
        appearance, action = old_line_value(lines, "appearance"), old_line_value(lines, "action")
        out.append(f"{k}|entity {entity_id}: {appearance}; {action}; relations: {', '.join(rendered) or 'none'}")
    return "\n".join(out)


def old_event_segmentation(payload):
    lines = payload.splitlines()
    at = lines.index("frames:")
    states = [line.split("|", 2)[1:] for line in lines[lines.index("states:") + 1 : at]]
    events = []
    for line in lines[at + 1 :]:
        frame, k = line.split("|")
        action, description = states[int(k)]
        if events and events[-1][2] == action:
            events[-1][1], events[-1][3] = frame, description
        else:
            events.append([frame, frame, action, description])
    out = []
    for s, e, action, description in events:
        match = re.match(r"entity \d+: ([^;]+);", description)
        out.append(f"{s}|{e}|{match.group(1).strip() if match else description} {action}")
    return "\n".join(out)


def old_rerank(payload):
    grounding = set(backends.words(old_header_value(payload, "grounding")))
    candidates = old_parse_indexed(old_section_lines(payload, "candidates"))
    overlaps = [len(grounding & set(backends.words(c))) for c in candidates]
    return str(max(range(len(candidates)), key=lambda i: (overlaps[i], -i)))


def old_event_analysis(payload):
    query = backends.content_words(old_header_value(payload, "question"))
    events = []
    for line in old_section_lines(payload, "events"):
        s, e, summary = line.split("|", 2)
        events.append((int(s), int(e), summary))
    if not events:
        return "0"
    for s, _, summary in events:
        if query and query <= set(backends.words(summary)):
            return str(s)
    return str(events[0][0])


def old_event_select(payload):
    question = backends.content_words(old_header_value(payload, "question"))
    top = int(old_header_value(payload, "select"))
    candidates = old_parse_indexed(old_section_lines(payload, "candidates"))
    ranked = sorted(range(len(candidates)), key=lambda i: (-len(question & set(backends.words(candidates[i]))), i))
    return ", ".join(str(i) for i in ranked[:top])


def old_answer(payload, options):
    haystack = set(backends.words(old_header_value(payload, "notes")))
    overlaps = [len(backends.content_words(opt) & haystack) for opt in options]
    return max(range(len(options)), key=lambda i: (overlaps[i], -i))


NODE = st.tuples(
    st.integers(0, 9),
    st.dictionaries(st.one_of(st.sampled_from(["appearance", "action", "relations", "entity", "appearance:x"]), TEXT), TEXT),
    st.lists(st.builds(RelationEdge, st.just(0), st.integers(0, 9), TEXT, st.integers(0, 9)), max_size=3),
)
NUMBERED = st.lists(TEXT, max_size=5)
INDEX = st.integers(0, 99)
# Every shipped breakdown example, as the breakdown of a category without its own examples sends them.
EVERY_EXAMPLE = examples_for(load_example_library(), "global")

# role: (argument strategy, the builder, the builder as it was, the mock rule as it was)
OLD_RULES = {
    "node_description": (
        st.tuples(st.lists(NODE, max_size=3)),
        lambda nodes: backends.node_description_payload([backends.node_block(*node) for node in nodes]),
        None,
        old_node_description,
    ),
    "event_segmentation": (
        st.tuples(INDEX, st.lists(st.tuples(INDEX, TEXT, TEXT), max_size=8)),
        backends.event_segmentation_payload,
        None,
        old_event_segmentation,
    ),
    "rerank": (
        st.tuples(TEXT, NUMBERED),
        backends.rerank_payload,
        lambda grounding, candidates: "\n".join(
            [f"grounding: {grounding}", "candidates:", *(f"{i}|{c}" for i, c in enumerate(candidates))]
        ),
        old_rerank,
    ),
    "event_analysis": (
        st.tuples(TEXT, st.lists(st.builds(EntityEvent, st.just(0), INDEX, INDEX, TEXT), max_size=4)),
        backends.event_analysis_payload,
        lambda question, events: "\n".join(
            [f"question: {question}", "events:", *(f"{ev.start_frame}|{ev.end_frame}|{ev.summary}" for ev in events)]
        ),
        old_event_analysis,
    ),
    "breakdown": (
        st.tuples(TEXT, st.one_of(st.text(max_size=40), st.just("\n\n".join(EVERY_EXAMPLE)))),
        backends.breakdown_payload,
        lambda question, examples_text: f"question: {question}\nexamples:\n{examples_text}",
        lambda payload: mock_breakdown(old_header_value(payload, "question")),
    ),
    "event_select": (
        st.tuples(TEXT, NUMBERED, st.integers(0, 6)),
        backends.event_select_payload,
        lambda question, candidates, top: "\n".join(
            [f"question: {question}", f"select: {top}", "candidates:", *(f"{i}|{c}" for i, c in enumerate(candidates))]
        ),
        old_event_select,
    ),
    "frame_graph": (
        st.tuples(st.lists(st.tuples(INDEX, st.lists(INDEX, max_size=3), TEXT), max_size=3)),
        backends.frame_graph_payload,
        lambda frames: "\n".join(
            f"frame: {f}\nentities: {', '.join(map(str, ids))}\ndescription: {d}" for f, ids, d in frames
        ),
        None,
    ),
}


def outcome(call):
    """What a call returns, or the type of the exception it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("role", sorted(OLD_RULES))
@given(data=st.data())
def test_builders_and_mock_rules_agree_with_the_scanners_they_replaced(role, data):
    arguments, build, old_build, old_rule = OLD_RULES[role]
    args = data.draw(arguments)
    payload = build(*args)
    if old_build is not None:
        assert payload == old_build(*args)
    if old_rule is not None and BLOCK_TOKEN not in payload:
        assert outcome(lambda: mock_backend().generate(make_bundle(role, payload))) == outcome(lambda: old_rule(payload))


@given(TEXT, st.lists(TEXT, min_size=1, max_size=4), TEXT)
def test_answer_rule_agrees_with_the_scanner_it_replaced(question, options, notes):
    payload = backends.answer_payload(question, options, notes)
    old_payload = "\n".join([f"question: {question}", "options:", *(f"{i}|{o}" for i, o in enumerate(options))])
    assert payload == (f"{old_payload}\nnotes: {notes}" if notes else old_payload)
    if BLOCK_TOKEN not in payload:
        assert mock_backend().answer(make_bundle("answer", payload, []), question, options) == old_answer(payload, options)
