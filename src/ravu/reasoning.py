"""Plan execution over the graph: question breakdown, the seven reasoning
functions, and hierarchical retrieval for whole-video questions.

Steps run strictly in sequence; each sees only earlier results. Step
failures are recorded and execution continues, degrading to uniform
sampling when nothing produced frames, so retrieval is total.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

from . import backends
from .backends import generate_with_retries, make_bundle
from .config import check_range
from .errors import EmptyIndex, MalformedResponse, NotFound, ParseError
from .graph_model import EntityEvent, SpatioTemporalGraph, entity_descriptions, entity_timeline
from .index import EmbeddingIndex, rerank
from .plan import EVENTS_TO_SAMPLE_RE, FUNCTIONS, TEMPORAL_PARTS, ReasoningPlan, Ref, parse_plan


@dataclass(frozen=True)
class NodeRef:
    entity_id: int
    frame_index: int


@dataclass(frozen=True)
class Segment:
    start: int
    end: int


@dataclass
class ExecutionResult:
    frames: list[int]
    values: list[object]
    errors: list[tuple[int, str]]
    flags: list[str]
    notes: str


def uniform_sample(frames: list[int], budget: int) -> list[int]:
    """Evenly spaced subset of ``frames`` including both endpoints.

    Positions are ceil-rounded over the index range, so 20 frames at
    budget 5 give positions 0, 5, 10, 15, 19.
    """
    n = len(frames)
    if budget >= n:
        return list(frames)
    if budget <= 0:
        return []
    if budget == 1:
        return [frames[0]]
    positions = sorted({math.ceil(i * (n - 1) / (budget - 1)) for i in range(budget)})
    return [frames[p] for p in positions]


def _entity_events(graph: SpatioTemporalGraph, entity_id: int) -> tuple[EntityEvent, ...]:
    events = graph.events.get(entity_id, ())
    if not events:
        raise NotFound(f"entity {entity_id} has no events")
    return events


def _anchor_event_index(events: tuple[EntityEvent, ...], t: int) -> int:
    for i, ev in enumerate(events):
        if ev.start_frame <= t <= ev.end_frame:
            return i
    before = [i for i, ev in enumerate(events) if ev.start_frame <= t]
    return before[-1] if before else 0


def fn_analyze_events(
    graph: SpatioTemporalGraph, query: str, node: NodeRef, backend, max_retries: int
) -> tuple[int, bool]:
    """Frame index answering a temporal sub-question about one entity.

    Returns (time_index, fallback). The backend reply is clamped to the
    entity's appearance span; a reply still malformed after ``max_retries``
    asks falls back to the start of the event containing the node's frame.
    """
    events = _entity_events(graph, node.entity_id)
    timeline = entity_timeline(graph, node.entity_id)
    first, last = timeline[0].frame_index, timeline[-1].frame_index
    bundle = make_bundle("event_analysis", backends.event_analysis_payload(query, events))
    try:
        t = generate_with_retries(backend, bundle, int, max_retries)
    except MalformedResponse:
        anchor = events[_anchor_event_index(events, node.frame_index)]
        return anchor.start_frame, True
    return min(max(t, first), last), False


def fn_sample_entity_events(
    graph: SpatioTemporalGraph,
    node: NodeRef,
    sample_start_time: int,
    events_to_sample: str,
    quota: int,
) -> list[int]:
    """Frames sampled uniformly from the selected events of one entity.

    ``events_to_sample`` is read as a plan reads it (``plan.EVENTS_TO_SAMPLE_RE``); any other value,
    such as ``previous:0``, raises ``ValueError``."""
    events = _entity_events(graph, node.entity_id)
    anchor = _anchor_event_index(events, sample_start_time)
    match = EVENTS_TO_SAMPLE_RE.match(events_to_sample)
    if not match:
        raise ValueError(f"bad events_to_sample {events_to_sample!r}")
    direction, count = match.groups()
    if direction == "previous":
        selected = events[max(0, anchor - int(count)) : anchor]
    elif direction == "next":
        selected = events[anchor + 1 : anchor + 1 + int(count)]
    else:
        selected = [events[anchor]] if events_to_sample == "current" else events

    frames: list[int] = []
    for ev in selected:
        frames.extend(range(ev.start_frame, ev.end_frame + 1))
    return uniform_sample(sorted(frames), quota)


def temporal_thirds(n_frames: int) -> dict[str, Segment]:
    """Thirds of [0, N-1], keyed by ``plan.TEMPORAL_PARTS``; remainder frames go to the last third."""
    if n_frames < 3:
        seg = Segment(0, max(0, n_frames - 1))
        return dict.fromkeys(TEMPORAL_PARTS, seg)
    third = n_frames // 3
    segments = (Segment(0, third - 1), Segment(third, 2 * third - 1), Segment(2 * third, n_frames - 1))
    return dict(zip(TEMPORAL_PARTS, segments, strict=True))


# Irregular plurals and their singulars; any other word longer than three
# letters ending in one ``s`` (not ``ss``) is a plural of itself without it.
_IRREGULAR_PLURALS = {
    "men": "man",
    "women": "woman",
    "children": "child",
    "people": "person",
    "mice": "mouse",
    "geese": "goose",
    "feet": "foot",
    "teeth": "tooth",
    "wolves": "wolf",
    "knives": "knife",
}
_IRREGULAR_PLURAL_OF = {singular: plural for plural, singular in _IRREGULAR_PLURALS.items()}


def _norm_word(word: str) -> str:
    if word in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[word]
    if len(word) > 3 and word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def _written_in(word: str, lower: str) -> bool:
    """Whether some written form of the normalised ``word`` is a substring of ``lower``.

    A word ``x`` with ``_norm_word(x) == word`` holds ``word`` as a substring
    or is one of its irregular plurals, so a text for which this is false
    has no word that normalises to ``word``.
    """
    plural = _IRREGULAR_PLURAL_OF.get(word)
    return word in lower or (plural is not None and plural in lower)


def _needed_words(query: str) -> set[str]:
    """The query's non-stopword words, plural-insensitive."""
    return {_norm_word(w) for w in backends.content_words(query)}


def _has_words(needed: set[str], text: str, word_sets: dict[str, set[str]] | None = None) -> bool:
    """Every needed word is a word of the text (plural-insensitive); none are needed means no match.

    A text in which no written form of a needed word occurs as a substring
    is skipped untokenised (see ``_written_in``).
    ``word_sets``, when given, is a memo of normalised word sets by text: a
    text found there is not tokenised again, and one tokenised here is added.
    """
    have = None if word_sets is None else word_sets.get(text)
    if have is None:
        lower = text.lower()
        if not needed or not all(_written_in(w, lower) for w in needed):
            return False
        have = {_norm_word(w) for w in backends.words(lower)}
        if word_sets is not None:
            word_sets[text] = have
    return bool(needed) and needed <= have


def fn_count_nodes(
    graph: SpatioTemporalGraph, node_query: str, event_condition: str | None = None
) -> int:
    """Distinct entities with any node description matching the query.

    Reads the graph's description table: an entity whose joined
    descriptions hold no written form of a needed word is skipped, and the
    others' distinct descriptions are matched with the table's word-set
    memo, so each is tokenised at most once per graph.
    """
    node_words = _needed_words(node_query)
    event_words = _needed_words(event_condition) if event_condition else None
    table = entity_descriptions(graph)
    count = 0
    for entity_id, (texts, joined) in table.entities.items():
        if not all(_written_in(w, joined) for w in node_words):
            continue
        if not any(_has_words(node_words, d, table.word_sets) for d in texts):
            continue
        if event_words is not None:
            events = graph.events.get(entity_id, [])
            if not any(_has_words(event_words, ev.summary) for ev in events):
                continue
        count += 1
    return count


def fn_identify_node(
    graph: SpatioTemporalGraph, query: str, backend
) -> tuple[NodeRef, bool]:
    """Backend picks an entity by reranking each entity's first description."""
    entity_ids = graph.entity_ids()
    if not entity_ids:
        raise EmptyIndex("graph has no entities")
    reps = [entity_timeline(graph, entity_id)[0] for entity_id in entity_ids]
    chosen, fallback = rerank(query, [n.description or "" for n in reps], backend)
    return NodeRef(reps[chosen].entity_id, reps[chosen].frame_index), fallback


class StepOutput(NamedTuple):
    """A step's value, whether it fell back, the frames it retrieved and its note for the answerer."""

    value: object
    fallback: bool = False
    frames: Sequence[int] = ()
    note: str = ""


class StepRunner:
    """Runs plan steps over one graph, index and backend: each plan function's runner is the method
    named after it, which takes the step's frame quota and resolved arguments and returns a ``StepOutput``."""

    def __init__(self, graph: SpatioTemporalGraph, index: EmbeddingIndex, backend, top_k: int, max_retries: int):
        self.graph, self.index, self.backend, self.top_k, self.max_retries = graph, index, backend, top_k, max_retries

    def localize_node(self, quota: int, query: str) -> StepOutput:
        loc = self.index.localize(query, self.top_k, self.backend)
        ref = NodeRef(loc.candidate.entity_id, loc.candidate.frame_index)
        return StepOutput(ref, loc.fallback, [ref.frame_index])

    def identify_node(self, quota: int, query: str) -> StepOutput:
        return StepOutput(*fn_identify_node(self.graph, query, self.backend))

    def analyze_events(self, quota: int, query: str, node: NodeRef) -> StepOutput:
        return StepOutput(*fn_analyze_events(self.graph, query, node, self.backend, self.max_retries))

    def sample_entity_events(
        self, quota: int, node: NodeRef, sample_start_time: int, events_to_sample: str
    ) -> StepOutput:
        frames = fn_sample_entity_events(self.graph, node, sample_start_time, events_to_sample, quota)
        return StepOutput(frames, frames=frames)

    def extract_temporal_part(self, quota: int, target_part: str) -> StepOutput:
        seg = temporal_thirds(self.graph.num_frames)[target_part]
        return StepOutput(seg, frames=uniform_sample(list(range(seg.start, seg.end + 1)), quota))

    def count_nodes(self, quota: int, node_query: str, event_condition: str | None = None) -> StepOutput:
        count = fn_count_nodes(self.graph, node_query, event_condition)
        return StepOutput(count, note=f"count of '{node_query}': {count}")

    def get_global_context(self, quota: int) -> StepOutput:
        frames = uniform_sample(list(range(self.graph.num_frames)), quota)
        return StepOutput(frames, frames=frames)


def execute(
    plan: ReasoningPlan,
    graph: SpatioTemporalGraph,
    index: EmbeddingIndex,
    backend,
    budget: int,
    top_k: int,
    max_retries: int,
) -> ExecutionResult:
    """Run the plan's steps in sequence and collect the retrieved frames.

    Each step resolves its ``$n`` references and runs the ``StepRunner``
    method named after its function, looked up when the step runs.
    Frame-producing steps share the budget: each gets a quota of
    ceil(remaining / remaining frame-producing steps). A step that falls back
    is flagged ``step N: <label> fallback``, with its function's label. A step
    that fails with ``ValueError``, ``NotFound``, ``EmptyIndex`` or
    ``MalformedResponse`` is recorded and execution continues; any other
    exception propagates. If nothing produced frames, a uniform-sampling
    fallback is appended; it is flagged only when the plan has a
    frame-producing step, since a count plan answers from its notes. The
    final set is sorted, de-duplicated, and truncated uniformly to the budget.
    """
    runner = StepRunner(graph, index, backend, top_k, max_retries)
    values: list[object] = []
    errors: list[tuple[int, str]] = []
    flags: list[str] = []
    notes: list[str] = []
    pool: list[int] = []

    frame_steps_left = sum(1 for s in plan.steps if FUNCTIONS[s.function].produces_frames)
    produces_frames = frame_steps_left > 0

    for number, step in enumerate(plan.steps, start=1):
        function = FUNCTIONS[step.function]
        quota = 0
        if function.produces_frames:
            quota = math.ceil(max(0, budget - len(set(pool))) / frame_steps_left)
            frame_steps_left -= 1

        try:
            args = dict(step.args)
            for name, value in step.args.items():
                if isinstance(value, Ref):
                    args[name] = values[value.step - 1]
                    if args[name] is None:
                        raise ValueError(f"step {value.step} failed; cannot resolve ${value.step}")
            out = getattr(runner, step.function)(quota, **args)
        except (ValueError, NotFound, EmptyIndex, MalformedResponse) as exc:
            values.append(None)
            errors.append((number, str(exc)))
            continue
        values.append(out.value)
        pool.extend(out.frames)
        if out.note:
            notes.append(out.note)
        if out.fallback:
            flags.append(f"step {number}: {function.fallback} fallback")

    if not pool and graph.num_frames:
        pool = runner.get_global_context(budget).value
        if produces_frames:
            flags.append("no frames produced; global-context fallback")

    final = sorted({f for f in pool if 0 <= f < graph.num_frames})
    if len(final) > budget:
        final = uniform_sample(final, budget)
    return ExecutionResult(final, values, errors, flags, "; ".join(notes))


# ---------------------------------------------------------------------------
# Question breakdown


def _split_plan(text: str) -> tuple[dict[str, str], list[str] | None]:
    """Split a ``key: value`` block from the lines after its ``plan:`` line.

    Returns the fields before ``plan:`` (a repeated key keeps its last
    value) and the plan lines, or ``None`` when no line is ``plan:``.
    """
    fields: dict[str, str] = {}
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "plan:":
            return fields, lines[i + 1 :]
        key, colon, value = line.partition(":")
        if colon:
            fields[key] = value.strip()
    return fields, None


@cache
def load_example_library() -> Mapping[str, tuple[str, ...]]:
    """Shipped few-shot examples for question breakdown, read once per process, keyed by category.

    Each ``breakdown_examples/<category>_<name>.txt`` file holds one example
    as the prompt sends it: ``question:`` and ``analysis:`` lines, then
    ``plan:`` and the plan's steps. A category's examples are in file-name
    order, and the categories in the order of their first file, so the
    values in order are every example in file-name order.
    """
    root = resources.files("ravu").joinpath("breakdown_examples")
    library: dict[str, tuple[str, ...]] = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".txt"):
            category = entry.name.partition("_")[0]
            library[category] = (*library.get(category, ()), entry.read_text().strip())
    return MappingProxyType(library)


def examples_for(library: Mapping[str, tuple[str, ...]], category: str) -> tuple[str, ...]:
    """The examples of ``category`` in ``library``, or, for a category with none, every example in file-name order."""
    return library.get(category) or tuple(chain.from_iterable(library.values()))


@dataclass
class BreakdownResult:
    plan: ReasoningPlan
    fallback: bool = False


def breakdown(
    question: str,
    example_library: Sequence[str],
    backend,
    max_retries: int,
) -> BreakdownResult:
    """Decompose a question into a plan using in-context examples.

    Backend output still unparseable after ``max_retries`` asks falls back
    to a single uniform-sampling step; blocked content propagates to the caller.
    """
    if not example_library:
        raise ValueError("example library must be non-empty")
    examples_text = "\n\n".join(example_library)
    bundle = make_bundle("breakdown", backends.breakdown_payload(question, examples_text))

    def parse(text: str) -> ReasoningPlan:
        fields, plan_lines = _split_plan(text)
        plan_text = text if plan_lines is None else "\n".join(plan_lines)
        try:
            return parse_plan(plan_text, question=question, analysis=fields.get("analysis", ""))
        except ParseError as exc:
            raise MalformedResponse(str(exc)) from exc

    try:
        return BreakdownResult(plan=generate_with_retries(backend, bundle, parse, max_retries))
    except MalformedResponse:
        fallback_plan = parse_plan("get_global_context()", question=question)
        return BreakdownResult(plan=fallback_plan, fallback=True)


# ---------------------------------------------------------------------------
# Hierarchical retrieval for global questions


_SELECTION_SPLIT_RE = re.compile(r"[,\s]+")

# The selector sees at most this many candidates per frame it may pick, so
# its prompt stops growing with the number of events. Ten keeps whole every
# pool of the 24-frame acceptance corpus (at most 42 candidates at top 5).
CANDIDATES_PER_PICK = 10


def hierarchical_retrieve(
    question: str,
    graph: SpatioTemporalGraph,
    index: EmbeddingIndex,
    backend,
    per_event: int,
    top: int,
) -> tuple[list[int], bool]:
    """Two-stage retrieval for whole-video questions.

    Stage 1 keeps the ``per_event`` best node descriptions of every entity
    event by cosine similarity against the question, and of those pooled
    candidates the ``CANDIDATES_PER_PICK * top`` best. Stage 2 asks the
    backend to pick the ``top`` most relevant of them; on failure the pool
    is truncated by score instead (flagged).

    Returns (frames, fallback). Raises ``ValueError``, worded as for
    ``hier_per_event`` and ``budget``, whose values they take, if ``per_event``
    or ``top`` is out of their range (below 1).
    """
    check_range("hier_per_event", per_event, "per_event")
    check_range("budget", top, "top")
    if not graph.events:
        raise ValueError("hierarchical retrieval requires entity events")
    qvec = backend.embed(question)

    scores = index.scores(qvec)
    # One range per event, in the graph's order: by entity, each entity's by start frame.
    ranges = [
        (entity_id, ev.start_frame, ev.end_frame)
        for entity_id, events in graph.events.items()
        for ev in events
    ]
    pool = index.rank_ranges(scores, ranges, per_event)
    if not pool:
        return [], False
    pool = index.rank(scores, pool, CANDIDATES_PER_PICK * top)

    descriptions = [index.descriptions[j] for j in index.vector_of[pool].tolist()]
    bundle = make_bundle("event_select", backends.event_select_payload(question, descriptions, top))
    fallback = False
    try:
        text = backend.generate(bundle)
        chosen = [int(tok) for tok in _SELECTION_SPLIT_RE.split(text.strip()) if tok]
        if not chosen or any(not 0 <= c < len(pool) for c in chosen):
            raise ValueError("bad selection indices")
        chosen = chosen[:top]
    except (ValueError, MalformedResponse):
        chosen = list(range(min(top, len(pool))))
        fallback = True

    frames = sorted({int(index.frames[pool[c]]) for c in chosen})
    return frames, fallback
