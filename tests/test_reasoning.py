import dataclasses
import hashlib
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ravu.backends import MockBackend, content_words, words
from ravu.config import RavuConfig
from ravu.datasets import CATEGORIES
from ravu.errors import BlockedContent, NotFound, ParseError
from ravu.evaluate import VideoAssets, build_video, retrieve
from ravu.graph_builder import embed_graph
from ravu.graph_model import (
    BoundingBox,
    EntityEvent,
    EntityNode,
    FrameRecord,
    SpatioTemporalGraph,
    entity_descriptions,
    entity_timeline,
)
from ravu.index import EmbeddingIndex
from ravu.plan import COUNT, FRAMES, FUNCTIONS, NODE, SEGMENT, TEMPORAL_PARTS, TIME, parse_plan
from ravu import reasoning
from ravu.reasoning import (
    NodeRef,
    Segment,
    StepRunner,
    _split_plan,
    breakdown,
    examples_for,
    execute,
    fn_count_nodes,
    fn_identify_node,
    fn_sample_entity_events,
    hierarchical_retrieve,
    load_example_library,
    temporal_thirds,
    uniform_sample,
)
from ravu.synth import synth_world

from conftest import mock_backend


def test_uniform_sample_canonical_positions():
    assert uniform_sample(list(range(20)), 5) == [0, 5, 10, 15, 19]


def test_uniform_sample_edges():
    assert uniform_sample([3, 4, 5], 10) == [3, 4, 5]
    assert uniform_sample(list(range(10)), 1) == [0]
    assert uniform_sample(list(range(10)), 0) == []


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=50))
def test_uniform_sample_properties(n, budget):
    frames = list(range(100, 100 + n))
    out = uniform_sample(frames, budget)
    assert len(out) == min(budget, n)
    assert out == sorted(set(out))
    assert set(out) <= set(frames)
    assert out[0] == frames[0]
    if budget > 1 or n == 1:
        assert out[-1] == frames[-1]


def test_temporal_thirds():
    parts = temporal_thirds(10)
    assert parts["beginning"] == Segment(0, 2)
    assert parts["middle"] == Segment(3, 5)
    assert parts["end"] == Segment(6, 9)  # remainder goes to the end
    tiny = temporal_thirds(2)
    assert tiny["beginning"] == tiny["end"] == Segment(0, 1)


@pytest.mark.parametrize("n_frames", [0, 1, 2, 3, 10, 24])
def test_every_temporal_part_choice_resolves_to_a_segment(n_frames):
    choices = FUNCTIONS["extract_temporal_part"].args["target_part"].choices
    assert choices == set(TEMPORAL_PARTS)
    graph = SpatioTemporalGraph(frames=[FrameRecord(i, float(i), "") for i in range(n_frames)])
    runner = StepRunner(graph, None, None, top_k=10, max_retries=2)
    for part in choices:
        parse_plan(f'extract_temporal_part(target_part="{part}")')
        segment = temporal_thirds(n_frames)[part]
        assert isinstance(segment, Segment) and runner.extract_temporal_part(3, part).value == segment
    # The parts run in video order and cover every frame once.
    if n_frames >= 3:
        segments = [temporal_thirds(n_frames)[part] for part in TEMPORAL_PARTS]
        assert [f for seg in segments for f in range(seg.start, seg.end + 1)] == list(range(n_frames))


def make_graph(backend):
    """Two entities: 0 with three events, 1 with one event."""
    frames = [FrameRecord(i, float(i), f"scene {i}") for i in range(12)]
    nodes = []
    actions = {0: ["running"] * 4 + ["digging"] * 4 + ["resting"] * 4, 1: ["flying"] * 12}
    appearance = {0: "red fox", 1: "blue jay"}
    for entity, acts in actions.items():
        for i, act in enumerate(acts):
            nodes.append(
                EntityNode(
                    entity,
                    i,
                    {"appearance": appearance[entity], "action": act, "body_pose": "x"},
                    BoundingBox(0 + 30 * entity, 0, 20 + 30 * entity, 15),
                    f"entity {entity}: {appearance[entity]}; {act}; relations: none",
                )
            )
    events = {
        0: [
            EntityEvent(0, 0, 3, "red fox running"),
            EntityEvent(0, 4, 7, "red fox digging"),
            EntityEvent(0, 8, 11, "red fox resting"),
        ],
        1: [EntityEvent(1, 0, 11, "blue jay flying")],
    }
    graph = SpatioTemporalGraph(frames=frames, nodes=nodes, edges=[], events=events)
    index = EmbeddingIndex(embed_graph(graph, backend))
    return graph, index


def test_sample_entity_events_directions(backend):
    graph, _ = make_graph(backend)
    node = NodeRef(0, 5)
    assert fn_sample_entity_events(graph, node, 5, "current", 10) == [4, 5, 6, 7]
    assert fn_sample_entity_events(graph, node, 5, "previous:1", 10) == [0, 1, 2, 3]
    assert fn_sample_entity_events(graph, node, 5, "next:1", 10) == [8, 9, 10, 11]
    assert fn_sample_entity_events(graph, node, 5, "all", 3) == [0, 6, 11]
    # No previous event before the first one: empty
    assert fn_sample_entity_events(graph, NodeRef(0, 0), 0, "previous:1", 10) == []


def test_sample_entity_events_unknown_entity(backend):
    graph, _ = make_graph(backend)
    with pytest.raises(NotFound):
        fn_sample_entity_events(graph, NodeRef(9, 0), 0, "all", 5)


def test_sample_entity_events_refuses_what_a_plan_refuses(backend):
    graph, _ = make_graph(backend)
    for spec in ("previous:0", "next:01", "later"):
        with pytest.raises(ValueError, match="bad events_to_sample"):
            fn_sample_entity_events(graph, NodeRef(0, 5), 5, spec, 10)
        with pytest.raises(ParseError):
            parse_plan(f'identify_node(query="x")\nsample_entity_events(node=$1, sample_start_time=0, events_to_sample="{spec}")')


def test_count_nodes(backend):
    graph, _ = make_graph(backend)
    assert fn_count_nodes(graph, "fox") == 1
    assert fn_count_nodes(graph, "fox", event_condition="digging") == 1
    assert fn_count_nodes(graph, "fox", event_condition="swimming") == 0
    assert fn_count_nodes(graph, "jay") == 1
    assert fn_count_nodes(graph, "elephant") == 0
    # Plural-insensitive matching
    assert fn_count_nodes(graph, "jays") == 1


def oracle_matches(query, text):
    """``reasoning._matches`` as it was before counting normalised the query once."""
    need = {reasoning._norm_word(w) for w in content_words(query)}
    have = {reasoning._norm_word(w) for w in words(text)}
    return bool(need) and need <= have


def oracle_count_nodes(graph, node_query, event_condition=None):
    count = 0
    for entity_id in graph.entity_ids():
        descriptions = dict.fromkeys(n.description or "" for n in entity_timeline(graph, entity_id))
        if not any(oracle_matches(node_query, d) for d in descriptions):
            continue
        if event_condition:
            events = graph.events.get(entity_id, [])
            if not any(oracle_matches(event_condition, ev.summary) for ev in events):
                continue
        count += 1
    return count


# Plurals, irregular ones too, words ending in "ss", words of three letters
# or fewer, stopwords, a word inside another ("cat" in "cats", "scatter"; "man"
# in "woman", "mans"; "men" in "women") and mixed case.
COUNT_WORDS = [
    "boy", "boys", "Boys", "glass", "glasses", "bus", "buses", "cat", "cats", "scatter",
    "ss", "is", "as", "gas", "the", "a", "of", "red", "RED", "running", "runs", "dogs!", "dog,",
    "man", "mans", "woman", "Women", "men", "mens", "women", "child", "children", "wolf", "wolves",
]
count_text = st.lists(st.sampled_from(COUNT_WORDS), max_size=5).map(" ".join)


@given(
    descriptions=st.lists(st.lists(count_text, min_size=1, max_size=3), min_size=1, max_size=4),
    summaries=st.lists(st.lists(count_text, max_size=2), min_size=1, max_size=4),
    queries=st.lists(st.tuples(count_text, st.one_of(st.none(), count_text)), min_size=1, max_size=4),
)
def test_count_nodes_matches_the_per_description_reference(descriptions, summaries, queries):
    nodes, events = [], {}
    for entity_id, texts in enumerate(descriptions):
        for frame, text in enumerate(texts):
            nodes.append(EntityNode(entity_id, frame, {}, BoundingBox(0, 0, 1, 1), text or None))
        evs = summaries[entity_id % len(summaries)]
        events[entity_id] = [EntityEvent(entity_id, i, i, summary) for i, summary in enumerate(evs)]
    graph = SpatioTemporalGraph(nodes=nodes, events=events)
    # Every query after the first reads the word sets the earlier ones memoised.
    for node_query, event_condition in [*queries, ("man", None), ("mans", "man"), *queries]:
        assert fn_count_nodes(graph, node_query, event_condition) == oracle_count_nodes(
            graph, node_query, event_condition
        )


def test_count_nodes_tells_a_word_from_a_substring():
    texts = ["woman", "mans", "a man", "Women running"]
    nodes = [EntityNode(e, 0, {}, BoundingBox(0, 0, 1, 1), text) for e, text in enumerate(texts)]
    events = {e: [EntityEvent(e, 0, 0, "running" if e % 2 else "sitting")] for e in range(len(texts))}
    graph = SpatioTemporalGraph(nodes=nodes, events=events)
    # "mans" and "men" normalise to "man", "women" to "woman"; "woman" and "women" hold "man" and
    # "men" only as substrings.
    assert [fn_count_nodes(graph, q) for q in ("man", "mans", "woman", "women", "men")] == [2, 2, 2, 2, 2]
    assert fn_count_nodes(graph, "man", "running") == 1
    assert fn_count_nodes(graph, "man", "sitting") == 1
    assert fn_count_nodes(graph, "man", "runs") == 0
    assert set(entity_descriptions(graph).word_sets) == {"woman", "mans", "a man", "Women running"}


def test_count_nodes_reads_irregular_plurals_in_the_query_and_the_descriptions():
    world = synth_world(1)
    graph = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig()).graph
    assert [fn_count_nodes(graph, q) for q in ("woman", "women", "the women")] == [1, 1, 1]
    texts = ["two women waiting", "a man", "children running", "a wolf"]
    nodes = [EntityNode(e, 0, {}, BoundingBox(0, 0, 1, 1), text) for e, text in enumerate(texts)]
    graph = SpatioTemporalGraph(nodes=nodes, events={})
    counts = [fn_count_nodes(graph, q) for q in ("woman", "women", "men", "child", "wolves", "children running")]
    assert counts == [1, 1, 1, 1, 1, 1]


def per_node_count(graph, node_query, event_condition=None):
    """Entities with a matching node, found by testing every node's description."""
    matched = {n.entity_id for n in graph.nodes if oracle_matches(node_query, n.description or "")}
    if event_condition:
        matched = {
            e for e in matched
            if any(oracle_matches(event_condition, ev.summary) for ev in graph.events.get(e, []))
        }
    return len(matched)


def test_count_nodes_on_a_built_graph_matches_the_per_node_reference():
    world = synth_world(3, 60, 4)
    # build_video makes the graph's lookup before build_graph assigns the descriptions.
    graph = build_video(world.observations_text, world.tracklets_text, mock_backend(), RavuConfig()).graph
    vocabulary = sorted({w for n in graph.nodes for w in content_words(n.description or "")})
    queries = [*vocabulary, *(w + "s" for w in vocabulary), "man", "golden girls", "entity"]
    counts = [fn_count_nodes(graph, q) for q in queries]
    assert counts == [per_node_count(graph, q) for q in queries]
    assert 0 < counts[vocabulary.index("girl")] < len(graph.entity_ids())
    for q in ("girl", "boy", "woman"):
        for condition in ("digging", "running up the stairs", "swimming"):
            assert fn_count_nodes(graph, q, condition) == per_node_count(graph, q, condition)


def test_replacing_nodes_makes_a_graph_with_its_own_description_table():
    graph, _ = make_graph(mock_backend())
    table = entity_descriptions(graph)
    assert entity_descriptions(graph) is table
    assert fn_count_nodes(graph, "yak") == 0
    renamed = dataclasses.replace(graph, nodes=[n._replace(description="a purple yak") for n in graph.nodes])
    assert entity_descriptions(renamed) is not table
    assert fn_count_nodes(renamed, "yak") == len(renamed.entity_ids())
    assert entity_descriptions(graph) is table and fn_count_nodes(graph, "yak") == 0


def test_identify_node_reranks_first_descriptions(backend):
    graph, _ = make_graph(backend)
    assert fn_identify_node(graph, "blue jay", backend) == (NodeRef(1, 0), False)
    assert fn_identify_node(graph, "red fox running", backend) == (NodeRef(0, 0), False)


def test_identify_node_falls_back_to_first_entity_on_garbage(backend):
    class Garbage(MockBackend):
        def generate(self, bundle):
            return "the jay, obviously"

    graph, _ = make_graph(backend)
    assert fn_identify_node(graph, "blue jay", mock_backend(Garbage)) == (NodeRef(0, 0), True)


def test_identify_node_single_entity_makes_no_backend_call(backend):
    class NoGenerate(MockBackend):
        def generate(self, bundle):
            raise AssertionError("generate must not be called")

    graph, _ = make_graph(backend)
    graph = dataclasses.replace(graph, nodes=[n for n in graph.nodes if n.entity_id == 1])
    assert fn_identify_node(graph, "red fox", mock_backend(NoGenerate)) == (NodeRef(1, 0), False)


def test_execute_canonical_before_plan(backend):
    graph, index = make_graph(backend)
    plan = parse_plan(
        'localize_node(query="red fox digging")\n'
        'analyze_events(query="when did the fox start digging", node=$1)\n'
        'sample_entity_events(node=$1, sample_start_time=$2, events_to_sample="previous:1")',
        question="What did the fox do before digging?",
    )
    result = execute(plan, graph, index, backend, budget=5, top_k=10, max_retries=2)
    assert result.errors == []
    # Frames come from the localized frame plus the event before digging.
    assert set(result.frames) <= {0, 1, 2, 3, 4, 5, 6, 7}
    assert len(result.frames) <= 5
    assert any(f in {0, 1, 2, 3} for f in result.frames)


def test_execute_records_each_function_value(backend):
    """Each step's value has its function's result type; a count step adds its note."""
    graph, index = make_graph(backend)
    plan = parse_plan(
        'localize_node(query="red fox digging")\n'
        'identify_node(query="blue jay")\n'
        'analyze_events(query="when did the fox start digging", node=$1)\n'
        'sample_entity_events(node=$1, sample_start_time=$3, events_to_sample="current")\n'
        'extract_temporal_part(target_part="end")\n'
        'count_nodes(node_query="fox")\n'
        "get_global_context()"
    )
    assert [step.function for step in plan.steps] == list(FUNCTIONS)
    result = execute(plan, graph, index, backend, budget=8, top_k=10, max_retries=2)
    assert result.values == [NodeRef(0, 4), NodeRef(1, 0), 4, [4, 6, 7], Segment(8, 11), 1, [0, 11]]
    kinds = {NODE: NodeRef, TIME: int, FRAMES: list, SEGMENT: Segment, COUNT: int}
    assert [type(value) for value in result.values] == [kinds[FUNCTIONS[s.function].result] for s in plan.steps]
    assert result.frames == [0, 4, 6, 7, 8, 10, 11]
    assert (result.errors, result.flags, result.notes) == ([], [], "count of 'fox': 1")


def test_each_plan_function_is_one_step_runner_method():
    runners = {name for name, member in vars(StepRunner).items() if callable(member) and not name.startswith("_")}
    assert runners == set(FUNCTIONS)


def test_execute_flags_each_backend_fallback_with_its_step(backend):
    class Garbage(MockBackend):
        def generate(self, bundle):
            return "garbage"

    graph, index = make_graph(backend)
    plan = parse_plan(
        'identify_node(query="fox")\n'
        'localize_node(query="red fox digging")\n'
        'analyze_events(query="when did the fox start digging", node=$2)'
    )
    result = execute(plan, graph, index, mock_backend(Garbage), budget=5, top_k=10, max_retries=2)
    assert result.flags == [
        "step 1: identify fallback", "step 2: rerank fallback", "step 3: event-analysis fallback",
    ]
    assert result.values == [NodeRef(0, 0), NodeRef(0, 4), 4] and result.errors == []


def test_execute_respects_budget(backend):
    graph, index = make_graph(backend)
    plan = parse_plan("get_global_context()")
    result = execute(plan, graph, index, backend, budget=5, top_k=10, max_retries=2)
    assert result.frames == [0, 3, 6, 9, 11]


@pytest.mark.parametrize("steps, share", [
    ('localize_node(query="red fox digging")', 2),
    ('identify_node(query="fox")\nsample_entity_events(node=$2, sample_start_time=0, events_to_sample="all")', 2),
    ('extract_temporal_part(target_part="end")', 2),
    ("get_global_context()", 2),
    ('identify_node(query="fox")', 4),
    ('identify_node(query="fox")\nanalyze_events(query="when did the fox start digging", node=$2)', 4),
    ('count_nodes(node_query="fox")', 4),
], ids=["localize", "sample", "temporal-part", "global", "identify", "analyze", "count"])
def test_only_steps_that_produce_frames_share_the_budget(backend, steps, share):
    graph, index = make_graph(backend)
    result = execute(parse_plan(f"get_global_context()\n{steps}"), graph, index, backend, budget=4, top_k=10, max_retries=2)
    assert result.errors == []
    assert len(result.values[0]) == share


def test_execute_count_plan_emits_notes_and_unflagged_fallback_frames(backend):
    graph, index = make_graph(backend)
    plan = parse_plan('count_nodes(node_query="fox")')
    result = execute(plan, graph, index, backend, budget=5, top_k=10, max_retries=2)
    assert "count of 'fox': 1" in result.notes
    assert result.frames  # global-context fallback supplies context frames
    # A count plan has no frame-producing step, so the fallback is expected, not flagged.
    assert result.flags == []


def test_execute_flags_the_fallback_when_a_frame_producing_step_produced_none(backend):
    graph, index = make_graph(backend)
    plan = parse_plan(
        'identify_node(query="x")\n'
        'sample_entity_events(node=$1, sample_start_time=99, events_to_sample="current")'
    )
    bad_graph = SpatioTemporalGraph(frames=graph.frames, nodes=[], edges=[], events={})
    result = execute(plan, bad_graph, index, backend, budget=5, top_k=10, max_retries=2)
    assert len(result.errors) == 2 and result.frames
    assert result.flags == ["no frames produced; global-context fallback"]


def test_execute_records_step_error_and_continues(backend):
    graph, index = make_graph(backend)
    plan = parse_plan(
        'identify_node(query="x")\n'
        'sample_entity_events(node=$1, sample_start_time=99, events_to_sample="current")\n'
        "get_global_context()"
    )
    # Make identify fail by emptying the graph nodes it needs.
    bad_graph = SpatioTemporalGraph(frames=graph.frames, nodes=[], edges=[], events={})
    result = execute(plan, bad_graph, index, backend, budget=5, top_k=10, max_retries=2)
    assert len(result.errors) == 2  # identify fails; ref resolution fails
    assert result.frames  # global context still produced frames


def test_execute_propagates_blocked(backend):
    graph, index = make_graph(backend)
    plan = parse_plan('localize_node(query="[BLOCK] fox")')
    with pytest.raises(BlockedContent):
        execute(plan, graph, index, backend, budget=5, top_k=10, max_retries=2)


# Each function ``pipebench/tracing.py`` replaces on the step path, with a plan that calls it.
@pytest.mark.parametrize("owner, name, steps", [
    (reasoning, "fn_count_nodes", 'count_nodes(node_query="fox")'),
    (reasoning, "fn_identify_node", 'identify_node(query="fox")'),
    (reasoning, "fn_analyze_events", 'identify_node(query="fox")\nanalyze_events(query="when", node=$1)'),
    (EmbeddingIndex, "localize", 'localize_node(query="red fox digging")'),
], ids=["fn_count_nodes", "fn_identify_node", "fn_analyze_events", "localize"])
def test_execute_propagates_programming_errors(backend, monkeypatch, owner, name, steps):
    """A step calls what its function's name holds when it runs, so a replaced function is the one called."""
    def broken(*args, **kwargs):
        raise TypeError("bug in a step")

    graph, index = make_graph(backend)
    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(TypeError, match="bug in a step"):
        execute(parse_plan(steps), graph, index, backend, budget=5, top_k=10, max_retries=2)


def shipped_examples():
    root = resources.files("ravu").joinpath("breakdown_examples")
    return sorted((e for e in root.iterdir() if e.name.endswith(".txt")), key=lambda e: e.name)


def test_example_library_is_read_once_and_immutable(monkeypatch):
    opened = []
    files = resources.files

    def counting_files(package):
        opened.append(package)
        return files(package)

    load_example_library.cache_clear()
    monkeypatch.setattr(reasoning.resources, "files", counting_files)
    first, second = load_example_library(), load_example_library()
    assert opened == ["ravu"]
    assert first is second
    with pytest.raises(TypeError):
        first["temporal"] = ()
    for examples in first.values():
        assert isinstance(examples, tuple) and all(isinstance(example, str) for example in examples)


def every_example():
    return examples_for(load_example_library(), "global")


def test_split_plan_reads_every_shipped_example():
    entries = shipped_examples()
    assert len(entries) == len(every_example())
    for entry, example in zip(entries, every_example()):
        assert example == entry.read_text().strip()
        fields, plan_lines = _split_plan(example)
        assert set(fields) == {"question", "analysis"} and all(fields.values())
        assert plan_lines
        parse_plan("\n".join(plan_lines))


def test_split_plan_keeps_the_last_repeated_key_and_reads_a_reply_without_plan():
    assert _split_plan("analysis: a\nanalysis: b\nplan:\nx: y\n") == (
        {"analysis": "b"}, ["x: y"]
    )
    reply = 'localize_node(query="fox")'
    assert _split_plan(reply) == ({}, None)

    class BarePlan(MockBackend):
        def generate(self, bundle):
            return reply

    out = breakdown("Where is the fox?", every_example(), mock_backend(BarePlan), max_retries=2)
    assert not out.fallback
    assert [s.function for s in out.plan.steps] == ["localize_node"]


def test_example_library_loads_and_parses():
    library = load_example_library()
    assert len(every_example()) >= 4
    # A file is named ``<category>_<name>.txt``, its category one of ``datasets.CATEGORIES``.
    names = [entry.name for entry in shipped_examples()]
    assert all(any(name.startswith(f"{category}_") for category in CATEGORIES) for name in names), names
    assert {"temporal", "descriptive", "causal"} <= set(library) <= set(CATEGORIES)
    for example in every_example():
        parse_plan("\n".join(_split_plan(example)[1]))  # every shipped example must be valid


@pytest.mark.parametrize("category", CATEGORIES)
def test_the_breakdown_prompt_holds_exactly_its_category_examples(category):
    """``retrieve`` shows the breakdown its category's files in file-name order, or every file for
    ``global``, which has none (its questions reach a breakdown only on a graph without events)."""
    entries = shipped_examples()
    own = [e.read_text().strip() for e in entries if e.name.startswith(f"{category}_")]
    expected = own or [e.read_text().strip() for e in entries]
    if category == "global":
        assert not own
    graph, index = make_graph(mock_backend())
    assets = VideoAssets(dataclasses.replace(graph, events={}), index, None)
    sent = []

    class Capture(MockBackend):
        def generate(self, bundle):
            sent.append(bundle)
            return super().generate(bundle)

    retrieve(assets, "What did the fox do after digging?", category, mock_backend(Capture), budget=5, top_k=10,
             per_event=3, max_retries=2)
    (bundle,) = [b for b in sent if b.role == "breakdown"]
    assert bundle.user_payload.partition("\nexamples:\n")[2] == "\n\n".join(expected)


def test_breakdown_bundle_is_pinned():
    """The system prompt and payload sent for one fixed question keep their bytes; the goldens count only tokens."""
    sent = []

    class Capture(MockBackend):
        def generate(self, bundle):
            sent.append(bundle)
            return super().generate(bundle)

    examples = examples_for(load_example_library(), "temporal")
    breakdown("What did the red fox do after digging?", examples, mock_backend(Capture), max_retries=2)
    (bundle,) = sent
    digest = hashlib.sha256(f"{bundle.system_prompt}\0{bundle.user_payload}".encode()).hexdigest()
    assert digest == "d4243278e033c924d9d5c9e5a425881b9faa1d95c5451fb1f1a971c94bc3184f"


def test_breakdown_uses_mock_templates(backend):
    out = breakdown("What did the red fox do before digging?", every_example(), backend, max_retries=2)
    assert not out.fallback
    assert [s.function for s in out.plan.steps] == [
        "localize_node",
        "analyze_events",
        "sample_entity_events",
    ]


def test_breakdown_fallback_on_garbage():
    class Garbage(MockBackend):
        def generate(self, bundle):
            return "no plan here"

    out = breakdown("anything?", every_example(), mock_backend(Garbage), max_retries=2)
    assert out.fallback
    assert [s.function for s in out.plan.steps] == ["get_global_context"]


def test_hierarchical_retrieve(backend):
    graph, index = make_graph(backend)
    frames, fallback = hierarchical_retrieve(
        "is the fox digging at any point", graph, index, backend, per_event=2, top=4
    )
    assert not fallback
    assert frames and len(frames) <= 4
    assert any(f in {4, 5, 6, 7} for f in frames)  # digging event represented


def test_hierarchical_requires_events(backend):
    graph, index = make_graph(backend)
    graph = dataclasses.replace(graph, events={})
    with pytest.raises(ValueError):
        hierarchical_retrieve("q", graph, index, backend, per_event=3, top=10)
