import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ravu import accel, backends
from ravu.backends import MockBackend, make_bundle
from ravu.errors import EmptyIndex, MalformedResponse
from ravu.graph_builder import EmbeddingColumns, EmbeddingRecord
from ravu.graph_model import EntityEvent, SpatioTemporalGraph
from ravu.index import EmbeddingIndex, LocalizeResult, rerank
from ravu.reasoning import hierarchical_retrieve

from conftest import make_columns, mock_backend, record_rows


def rec(entity, frame, vector, description=""):
    v = np.asarray(vector, dtype=np.float64)
    return EmbeddingRecord(entity, frame, description or f"e{entity}f{frame}", v)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_empty_index_raises():
    with pytest.raises(EmptyIndex):
        EmbeddingIndex(make_columns([])).top_k(np.ones(4), 1)


def test_k_must_be_positive():
    index = EmbeddingIndex(make_columns([rec(0, 0, [1, 0])]))
    with pytest.raises(ValueError):
        index.top_k(np.ones(2), 0)


def test_top_k_orders_by_score():
    index = EmbeddingIndex(
        make_columns([rec(0, 0, unit([1, 0])), rec(1, 1, unit([0, 1])), rec(2, 2, unit([1, 1]))])
    )
    out = index.top_k(unit([1, 0.1]), 3)
    assert [c.entity_id for c in out] == [0, 2, 1]


def test_top_k_tie_breaks_by_frame_then_entity():
    same = unit([1, 1])
    index = EmbeddingIndex(make_columns([rec(5, 2, same), rec(1, 2, same), rec(9, 0, same)]))
    out = index.top_k(same, 3)
    assert [(c.frame_index, c.entity_id) for c in out] == [(0, 9), (2, 1), (2, 5)]


def test_top_k_clamps_to_size():
    index = EmbeddingIndex(make_columns([rec(0, 0, unit([1, 0]))]))
    assert len(index.top_k(unit([1, 0]), 10)) == 1


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_top_k_matches_full_sort(n, k, seed):
    rng = np.random.default_rng(seed)
    records = [rec(i % 7, i, rng.standard_normal(8)) for i in range(n)]
    index = EmbeddingIndex(make_columns(records))
    q = rng.standard_normal(8)
    got = index.top_k(q, k)

    scores = accel.cosine_scores(np.stack([r.vector for r in records]), q)
    oracle = sorted(
        range(n), key=lambda i: (-scores[i], records[i].frame_index, records[i].entity_id)
    )[: min(k, n)]
    assert [(c.frame_index, c.entity_id) for c in got] == [
        (records[i].frame_index, records[i].entity_id) for i in oracle
    ]


# The reference implementations: Python's stable ``sorted`` over every row,
# and hierarchical retrieval that rescans an entity's rows for every event
# and shows the selector the ``10 * top`` best of the pool.


def sorted_rank(records, scores, rows, k):
    return sorted(
        rows, key=lambda r: (-scores[r], records[r].frame_index, records[r].entity_id)
    )[:k]


def sorted_top_k(records, q, k):
    scores = accel.cosine_scores(np.stack([r.vector for r in records]), q)
    return [
        (records[i].frame_index, records[i].entity_id, float(scores[i]), records[i].description)
        for i in sorted_rank(records, scores, range(len(records)), k)
    ]


def sorted_hierarchical_retrieve(question, graph, records, backend, per_event, top):
    qvec = backend.embed(question)
    matrix = np.stack([r.vector for r in records]) if records else np.zeros((0, 0))
    scores = accel.cosine_scores(matrix, qvec)
    by_entity = {}
    for row, r in enumerate(records):
        by_entity.setdefault(r.entity_id, []).append(row)
    pool = []
    for entity_id, events in sorted(graph.events.items()):
        rows = by_entity.get(entity_id, [])
        for ev in sorted(events, key=lambda ev: ev.start_frame):
            in_event = [r for r in rows if ev.start_frame <= records[r].frame_index <= ev.end_frame]
            pool.extend(sorted_rank(records, scores, in_event, per_event))
    if not pool:
        return [], False
    pool = sorted_rank(records, scores, pool, 10 * top)
    descriptions = [records[r].description for r in pool]
    bundle = make_bundle("event_select", backends.event_select_payload(question, descriptions, top))
    fallback = False
    try:
        text = backend.generate(bundle)
        chosen = [int(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok]
        if not chosen or any(not 0 <= c < len(pool) for c in chosen):
            raise ValueError("bad selection indices")
        chosen = chosen[:top]
    except (ValueError, MalformedResponse):
        chosen = list(range(min(top, len(pool))))
        fallback = True
    return sorted({records[pool[c]].frame_index for c in chosen}), fallback


# Few distinct vectors, so rows tie on score; zero and parallel rows included.
VECTORS = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 2, 0], [-1, 0.5, 2], [0.3, -0.7, 0.1]]
vectors = st.one_of(
    st.sampled_from(VECTORS),
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3),
)
# Few entities and frames, so rows also tie on (frame, entity), and on all
# three keys when the vector repeats too.
rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 6), vectors), min_size=0, max_size=30
)


def index_of(drawn):
    records = [rec(e, f, v, f"row{i}") for i, (e, f, v) in enumerate(drawn)]
    return records, EmbeddingIndex(make_columns(records))


@given(rows.filter(bool), vectors, st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_top_k_matches_the_sorted_reference(drawn, q, k):
    records, index = index_of(drawn)
    q = np.asarray(q, dtype=np.float64)
    scores = index.scores(q)
    assert len(scores) == len(index.vectors)
    assert np.array_equal(scores[index.vector_of], accel.cosine_scores(np.stack([r.vector for r in records]), q))
    got = [(c.frame_index, c.entity_id, c.score, c.description) for c in index.top_k(q, k)]
    assert got == sorted_top_k(records, q, k)


class Selecting(MockBackend):
    """Embeds every text as ``query`` and answers event selection with ``reply``."""

    def __init__(self, query, reply, **backend_args):
        super().__init__(**backend_args)
        self.query, self.reply, self.payloads = query, reply, []

    def embed(self, text):
        return self.query

    def generate(self, bundle):
        self.payloads.append(bundle.user_payload)
        return self.reply


# Events may overlap, and entity 4 has events but never a row.
events = st.dictionaries(
    st.integers(0, 4),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 4)).map(lambda t: (t[0], t[0] + t[1])),
        min_size=1, max_size=4,
    ),
    min_size=1,
)


replies = st.sampled_from(["0", "2, 0", "1 3 40", "none"])


@given(rows, vectors, events, st.integers(1, 4), st.integers(1, 6), replies)
@settings(max_examples=200, deadline=None)
def test_hierarchical_retrieve_matches_the_sorted_reference(drawn, q, spans, per_event, top, reply):
    check_hierarchical_retrieve(drawn, q, spans, per_event, top, reply)


# Many rows and events with short spans, so most pools exceed ``10 * top``.
many_rows = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6), vectors), min_size=40, max_size=90)
many_events = st.dictionaries(
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)).map(lambda t: (t[0], t[0] + t[1])),
             min_size=3, max_size=6),
    min_size=3,
)


@given(many_rows, vectors, many_events, st.integers(2, 4), st.integers(1, 2), replies)
@settings(max_examples=100, deadline=None)
def test_hierarchical_retrieve_caps_the_pool_like_the_sorted_reference(drawn, q, spans, per_event, top, reply):
    check_hierarchical_retrieve(drawn, q, spans, per_event, top, reply)


def check_hierarchical_retrieve(drawn, q, spans, per_event, top, reply):
    records, index = index_of(drawn)
    q = np.asarray(q, dtype=np.float64)
    graph = SpatioTemporalGraph(events={
        e: [EntityEvent(e, start, end, "") for start, end in ranges] for e, ranges in spans.items()
    })
    got_backend, want_backend = mock_backend(Selecting, q, reply), mock_backend(Selecting, q, reply)
    got = hierarchical_retrieve("q", graph, index, got_backend, per_event=per_event, top=top)
    want = sorted_hierarchical_retrieve("q", graph, records, want_backend, per_event, top)
    assert got == want
    assert got_backend.payloads == want_backend.payloads


@pytest.mark.parametrize("reply, fallback", [("49, 0, 7", False), ("none", True)])
def test_hierarchical_retrieve_shows_the_selector_the_ten_per_pick_best(reply, fallback):
    # One entity with 40 four-frame events: at per_event 3 the pool holds 120
    # rows, of which the selector sees the 50 best for a budget of 5.
    rng = np.random.default_rng(7)
    records = [rec(0, f, rng.standard_normal(4)) for f in range(160)]
    index = EmbeddingIndex(make_columns(records))
    graph = SpatioTemporalGraph(events={0: [EntityEvent(0, f, f + 3, "") for f in range(0, 160, 4)]})
    q = rng.standard_normal(4)
    scores = accel.cosine_scores(np.stack([r.vector for r in records]), q)
    pool = [r for f in range(0, 160, 4) for r in sorted_rank(records, scores, range(f, f + 4), 3)]
    best = sorted_rank(records, scores, pool, 50)
    assert len(pool) == 120 and len(best) == 50

    backend = mock_backend(Selecting, q, reply)
    frames, fell_back = hierarchical_retrieve("q", graph, index, backend, per_event=3, top=5)
    assert backend.payloads == [
        backends.event_select_payload("q", [records[r].description for r in best], 5)
    ]
    chosen = [0, 1, 2, 3, 4] if fallback else [49, 0, 7]
    assert (frames, fell_back) == (sorted(records[best[c]].frame_index for c in chosen), fallback)


# Two entities over 64 frames; entity 1's rows come in descending frame order,
# and the last two rows repeat keys of earlier ones.
TIED_ENTITIES = [0] * 64 + [1] * 64 + [0, 1]
TIED_FRAMES = [*range(64), *range(63, -1, -1), 7, 7]
TIED_RANGES = [(0, 0, 63), (1, 5, 40), (0, 7, 7), (2, 0, 9), (1, 0, 63), (0, 30, 10), (0, 0, 63)]


def tied_columns(vectors):
    """The 130 tied rows over ``vectors``, or over that many rounded random vectors if it is an int."""
    if isinstance(vectors, int):
        vectors = np.round(np.random.default_rng(vectors).standard_normal((vectors, 3)), 1)
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(TIED_FRAMES)
    return EmbeddingColumns(
        vectors, np.array([(r * 7) % len(vectors) for r in range(n)], dtype=np.intp),
        np.array(TIED_ENTITIES), np.array(TIED_FRAMES), [""] * len(vectors),
    )


def nan_last_rank(scores, rows, frames, k):
    """The ``k`` best of ``rows`` by descending score, NaN after every number, then by frame, then by position."""
    def key(r):
        nan = math.isnan(scores[r])
        return nan, 0.0 if nan else -scores[r], frames[r]

    return sorted(rows, key=key)[:k]


def sorted_ranges(columns, vector_scores, ranges, k):
    """Each range's ``k`` best rows in ``nan_last_rank`` order."""
    scores = vector_scores[columns.vector_of]
    return [
        row
        for entity_id, start, end in ranges
        for row in nan_last_rank(
            scores,
            [r for r in range(len(columns)) if columns.entities[r] == entity_id and start <= columns.frames[r] <= end],
            columns.frames, k,
        )
    ]


@pytest.mark.parametrize("vectors, query, copies, nan_vectors", [
    # Three vectors give every range long runs of exact ties.
    pytest.param(3, [1.0, 0.5, 0.0], 1, [], id="3"),
    pytest.param(130, [1.0, 0.5, 0.0], 1, [], id="130"),
    # Two distinct vectors with bitwise-equal scores, interleaved over frames.
    pytest.param([[1, 0, 0], [0, 1, 0]], [1.0, 1.0, 0.0], 1, [], id="equal-scores"),
    # 560 ranges times 130 vectors is past 16 bits.
    pytest.param(130, [1.0, 0.5, 0.0], 80, [], id="wide-key"),
    # Scores of -0.0 and 0.0, equal to a float sort, interleaved over frames.
    pytest.param([[1, 0, 0], [0, 0, 1]], [-1e-12, 1.0, 0.0], 1, [], id="signed-zeros"),
    # A NaN query scores the zero vector 0 and the others NaN, which ranks last.
    pytest.param([[1, 0, 0], [0, 0, 0], [0, 1, 0]], [math.nan, 1.0, 0.0], 1, [], id="nan-query"),
    # One vector's rows all scored NaN, the others' numbers.
    pytest.param(3, [1.0, 0.5, 0.0], 1, [1], id="nan-vector"),
])
def test_rank_ranges_matches_the_sorted_reference_over_long_tied_runs(vectors, query, copies, nan_vectors):
    columns = tied_columns(vectors)
    index = EmbeddingIndex(columns)
    scores = index.scores(np.array(query))
    scores[nan_vectors] = math.nan
    ranges = TIED_RANGES * copies
    assert (len(ranges) * len(columns.vectors) >= 1 << 16) == (copies > 1)
    for k in (0, 1, 3, 20, 200):
        assert index.rank_ranges(scores, ranges, k) == sorted_ranges(columns, scores, ranges, k)


@pytest.mark.parametrize("k", [-1, -3])
def test_rank_rejects_a_negative_k(k):
    index = EmbeddingIndex(make_columns([rec(0, f, [1, f]) for f in range(5)]))
    with pytest.raises(ValueError, match="k must be"):
        index.rank(index.scores(np.array([1.0, 0.0])), range(5), k)


@pytest.mark.parametrize("per_event, top", [(0, 5), (3, 0), (-1, 5), (3, -2)])
def test_hierarchical_retrieve_rejects_an_empty_pick(per_event, top):
    records = [rec(0, f, [1, f]) for f in range(5)]
    graph = SpatioTemporalGraph(events={0: [EntityEvent(0, 0, 4, "")]})
    backend = mock_backend(Selecting, np.array([1.0, 0.0]), "0")
    # Worded as the config words ``hier_per_event`` and ``budget``, whose values they take.
    name, value = ("per_event", per_event) if per_event < 1 else ("top", top)
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        hierarchical_retrieve("q", graph, EmbeddingIndex(make_columns(records)), backend, per_event=per_event, top=top)
    assert backend.payloads == []


def test_index_keeps_columns_and_gives_back_equal_records():
    records = [rec(3, 1, [1, 2]), rec(0, 5, [0, 0]), rec(3, 0, [2, -1])]
    index = EmbeddingIndex(make_columns(records))
    assert record_rows(index.records) == record_rows(records)
    assert (index.frames.tolist(), index.entities.tolist()) == ([1, 5, 0], [3, 0, 3])
    assert index.descriptions == ["e3f1", "e0f5", "e3f0"]
    assert index.vectors.tolist() == [[1, 2], [0, 0], [2, -1]] and index.vector_of.tolist() == [0, 1, 2]
    for column in (index.vectors, index.vector_of, index.frames, index.entities):
        assert not column.flags.writeable
    empty = EmbeddingIndex(make_columns([]))
    assert len(empty) == 0 and list(empty.records) == []


def test_index_gives_rows_that_share_a_vector_equal_records():
    vectors = np.array([[1.0, 2.0], [0.0, 0.0]])
    columns = EmbeddingColumns(
        vectors, np.array([1, 0, 1, 0], dtype=np.intp), np.array([0, 1, 2, 3]), np.array([5, 5, 6, 6]), ["b", "a"]
    )
    index = EmbeddingIndex(columns)
    assert index.vectors is vectors and index.records is columns
    assert record_rows(columns) == record_rows([
        rec(0, 5, [0, 0], "a"), rec(1, 5, [1, 2], "b"), rec(2, 6, [0, 0], "a"), rec(3, 6, [1, 2], "b")
    ])
    assert all(r.vector.base is vectors for r in columns)
    assert len(columns) == len(index) == 4


def test_columns_hold_one_description_per_vector():
    with pytest.raises(ValueError, match="^4 descriptions for 2 vectors$"):
        EmbeddingColumns(
            np.zeros((2, 2)), np.array([1, 0, 1, 0], dtype=np.intp), np.arange(4), np.arange(4), ["a", "b", "a", "b"]
        )


def columns_of(drawn_vectors, vector_of, dim):
    """Columns whose rows use ``drawn_vectors`` as ``vector_of`` says, with distinct keys."""
    n = len(vector_of)
    return EmbeddingColumns(
        np.array(drawn_vectors, dtype=np.float64).reshape(-1, dim),
        np.array(vector_of, dtype=np.intp),
        np.arange(n, dtype=np.int64) % 3,
        np.arange(n, dtype=np.int64) // 3,
        [f"vector{j}" for j in range(len(drawn_vectors))],
    )


@st.composite
def shared_columns(draw):
    """(columns, query): distinct vectors, zero vectors and repeats allowed, and each row's choice of one."""
    dim = draw(st.integers(1, 4))
    component = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-2, 2, allow_nan=False)
    drawn = draw(st.lists(st.lists(component, min_size=dim, max_size=dim), min_size=0, max_size=6))
    vector_of = draw(st.lists(st.integers(0, len(drawn) - 1), max_size=40)) if drawn else []
    q = draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=dim, max_size=dim))
    return columns_of(drawn, vector_of, dim), np.array(q)


SHAPES = [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [-1.0, 3.0, 0.5]]
QUERY = np.array([0.5, -1.0, 2.0])


@given(shared_columns())
@example((columns_of([], [], 3), QUERY))  # an empty index
@example((columns_of(SHAPES[:1], [0], 3), QUERY))  # a single row
@example((columns_of(SHAPES[:1], [0, 0, 0], 3), QUERY))  # every row shares one vector
@example((columns_of(SHAPES[1:2], [0, 0], 3), QUERY))  # zero rows
@example((columns_of(SHAPES, [0, 1, 2], 3), QUERY))  # all rows distinct
@example((columns_of(SHAPES, [2, 0, 2, 1, 0], 3), QUERY))
@settings(max_examples=300, deadline=None)
def test_scores_equal_the_full_matrix_scores_bit_for_bit(drawn):
    columns, q = drawn
    index = EmbeddingIndex(columns)
    full = columns.vectors[columns.vector_of]
    assert full.shape == (len(columns), len(q))
    scores = index.scores(q)
    assert len(scores) == len(columns.vectors)
    assert scores[columns.vector_of].tobytes() == accel.cosine_scores(full, q).tobytes()
    if len(columns):
        got = [(c.frame_index, c.entity_id, c.score, c.description) for c in index.top_k(q, len(columns))]
        assert got == sorted_top_k(list(columns), q, len(columns))


def test_rank_orders_a_subset_of_rows():
    records = [rec(5, 2, [1]), rec(1, 2, [1]), rec(9, 0, [1]), rec(0, 1, [1])]
    scores = [0.5, 0.5, 0.5, 0.9]
    index = EmbeddingIndex(make_columns(records))
    assert index.rank(scores, [0, 1, 2, 3], 4) == [3, 2, 1, 0]
    assert index.rank(scores, [0, 1], 1) == [1]
    assert index.rank(scores, [], 3) == []


# (score, frame) per row: NaN, signed zeros and exact ties included.
scored_frames = st.lists(
    st.tuples(st.just(math.nan) | st.sampled_from([0.5, -0.0, 0.0, 1.0]) | st.floats(-1, 1), st.integers(0, 4)),
    min_size=1, max_size=20,
)


@given(scored_frames, st.lists(st.integers(0, 19), max_size=30), st.integers(0, 25))
# Fewer rows score a number than ``k``, so the cut is NaN.
@example([(0.5, 4), (math.nan, 3), (0.9, 2), (math.nan, 1), (math.nan, 0)], [0, 1, 2, 3, 4], 4)
@settings(max_examples=200, deadline=None)
def test_rank_matches_the_nan_last_reference(drawn, picks, k):
    scores, frames = [s for s, _ in drawn], [f for _, f in drawn]
    rows = [p % len(drawn) for p in picks]
    index = EmbeddingIndex(make_columns([rec(0, f, [1.0]) for f in frames]))
    assert index.rank(scores, rows, k) == nan_last_rank(scores, rows, frames, k)


def test_a_nan_query_still_gives_k_candidates():
    index = EmbeddingIndex(make_columns([rec(e, 4 - e, [1, e, 2]) for e in range(5)]))
    # A NaN query scores every one of these vectors NaN.
    q = np.array([math.nan, 1.0, 0.0])
    out = index.top_k(q, 4)
    assert [(c.frame_index, c.entity_id) for c in out] == [(0, 4), (1, 3), (2, 2), (3, 1)]
    assert all(math.isnan(c.score) for c in out)

    class NanQuery(MockBackend):
        def embed(self, text):
            return q

    assert index.localize("anything", 4, mock_backend(NanQuery)).candidate.entity_id == 4


def test_rerank_protocol():
    class Reply(MockBackend):
        def __init__(self, text, **backend_args):
            super().__init__(**backend_args)
            self.text, self.calls = text, 0

        def generate(self, bundle):
            self.calls += 1
            return self.text

    assert rerank("x", ["a", "b", "c"], mock_backend(Reply, " 2\n")) == (2, False)
    assert rerank("x", ["a", "b", "c"], mock_backend(Reply, "3")) == (0, True)
    assert rerank("x", ["a", "b", "c"], mock_backend(Reply, "-1")) == (0, True)
    assert rerank("x", ["a", "b", "c"], mock_backend(Reply, "b")) == (0, True)
    single = mock_backend(Reply, "0")
    assert rerank("x", ["a"], single) == (0, False) and single.calls == 0


class Capture(MockBackend):
    """Replies ``reply``, keeping every bundle it is sent."""

    def __init__(self, reply, **backend_args):
        super().__init__(**backend_args)
        self.reply, self.bundles = reply, []

    def generate(self, bundle):
        self.bundles.append(bundle)
        return self.reply


def test_rerank_lists_each_distinct_text_once_in_first_seen_order():
    backend = mock_backend(Capture, "1")
    rerank("x", ["a", "b", "a", "c", "b"], backend)
    (bundle,) = backend.bundles
    assert bundle.user_payload == backends.rerank_payload("x", ["a", "b", "c"])


def test_rerank_maps_a_pick_back_to_the_first_candidate_with_that_text():
    texts = ["a", "b", "a", "c", "b"]
    assert [rerank("x", texts, mock_backend(Capture, str(i))) for i in range(4)] == [
        (0, False), (1, False), (3, False), (0, True)  # the distinct list has three texts
    ]


def test_rerank_of_one_distinct_text_makes_no_backend_call():
    backend = mock_backend(Capture, "2")
    assert rerank("x", ["same", "same", "same"], backend) == (0, False)
    assert backend.bundles == []


def full_list_rerank(grounding, descriptions, backend):
    """``rerank`` as it was before it listed each distinct text once: every candidate, repeats too."""
    if len(descriptions) == 1:
        return 0, False
    bundle = make_bundle("rerank", backends.rerank_payload(grounding, descriptions))
    try:
        chosen = int(backend.generate(bundle).strip())
    except (ValueError, MalformedResponse):
        return 0, True
    return (chosen, False) if 0 <= chosen < len(descriptions) else (0, True)


RERANK_WORDS = ["red", "fox", "digging", "gray", "cat", "running", "blue", "jay"]
# Few texts of few words, so candidate lists repeat texts and tie on word overlap.
rerank_text = st.lists(st.sampled_from(RERANK_WORDS), min_size=1, max_size=3).map(" ".join)


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9), st.sampled_from(range(5))), min_size=1, max_size=25),
    st.lists(rerank_text, min_size=1, max_size=5),
    rerank_text,
    st.integers(1, 12),
)
@settings(max_examples=150, deadline=None)
def test_localize_picks_what_the_full_list_rerank_picked(drawn, texts, grounding, k):
    backend = mock_backend()
    records = [EmbeddingRecord(e, f, texts[t % len(texts)], backend.embed(texts[t % len(texts)]))
               for e, f, t in drawn]
    index = EmbeddingIndex(make_columns(records))
    candidates = index.top_k(backend.embed(grounding), k)
    chosen, fallback = full_list_rerank(grounding, [c.description for c in candidates], backend)
    assert index.localize(grounding, k, backend) == LocalizeResult(candidates[chosen], fallback)


def test_localize_uses_rerank(backend):
    # Rank-1 by embedding is the generic description; rerank should pick the
    # candidate whose words match the grounding phrase best.
    descs = ["gray cat sleeping quietly", "gray cat"]
    records = [
        EmbeddingRecord(0, 0, descs[0], backend.embed(descs[0])),
        EmbeddingRecord(1, 1, descs[1], backend.embed(descs[1])),
    ]
    index = EmbeddingIndex(make_columns(records))
    out = index.localize("gray cat sleeping quietly", 2, backend)
    assert not out.fallback
    assert out.candidate.entity_id == 0


def test_localize_single_candidate_skips_rerank():
    class NoGenerate(MockBackend):
        def generate(self, bundle):
            raise AssertionError("generate must not be called")

    b = mock_backend(NoGenerate)
    index = EmbeddingIndex(make_columns([EmbeddingRecord(3, 4, "only one", b.embed("only one"))]))
    out = index.localize("anything", 5, b)
    assert out.candidate.entity_id == 3 and not out.fallback


def test_localize_falls_back_on_garbage(backend):
    class Garbage(MockBackend):
        def generate(self, bundle):
            return "not an index"

    b = mock_backend(Garbage)
    records = [
        EmbeddingRecord(0, 0, "alpha", b.embed("alpha")),
        EmbeddingRecord(1, 1, "beta", b.embed("beta")),
    ]
    out = EmbeddingIndex(make_columns(records)).localize("alpha", 2, b)
    assert out.fallback
    assert out.candidate.description == "alpha"


def test_localize_propagates_programming_errors():
    class Broken(MockBackend):
        def generate(self, bundle):
            raise TypeError("bug in the backend")

    b = mock_backend(Broken)
    records = [
        EmbeddingRecord(0, 0, "alpha", b.embed("alpha")),
        EmbeddingRecord(1, 1, "beta", b.embed("beta")),
    ]
    with pytest.raises(TypeError):
        EmbeddingIndex(make_columns(records)).localize("alpha", 2, b)


def test_localize_rejects_empty_phrase(backend):
    index = EmbeddingIndex(make_columns([EmbeddingRecord(0, 0, "x", backend.embed("x"))]))
    with pytest.raises(ValueError):
        index.localize("", 1, backend)
