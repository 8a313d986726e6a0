import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravu import accel
from ravu.backends import MockBackend
from ravu.errors import EmptyIndex
from ravu.graph_builder import EmbeddingRecord
from ravu.index import EmbeddingIndex, rank, rerank


def rec(entity, frame, vector, description=""):
    v = np.asarray(vector, dtype=np.float64)
    return EmbeddingRecord(entity, frame, description or f"e{entity}f{frame}", v)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_empty_index_raises():
    with pytest.raises(EmptyIndex):
        EmbeddingIndex([]).top_k(np.ones(4), 1)


def test_k_must_be_positive():
    index = EmbeddingIndex([rec(0, 0, [1, 0])])
    with pytest.raises(ValueError):
        index.top_k(np.ones(2), 0)


def test_top_k_orders_by_score():
    index = EmbeddingIndex(
        [rec(0, 0, unit([1, 0])), rec(1, 1, unit([0, 1])), rec(2, 2, unit([1, 1]))]
    )
    out = index.top_k(unit([1, 0.1]), 3)
    assert [c.entity_id for c in out] == [0, 2, 1]


def test_top_k_tie_breaks_by_frame_then_entity():
    same = unit([1, 1])
    index = EmbeddingIndex([rec(5, 2, same), rec(1, 2, same), rec(9, 0, same)])
    out = index.top_k(same, 3)
    assert [(c.frame_index, c.entity_id) for c in out] == [(0, 9), (2, 1), (2, 5)]


def test_top_k_clamps_to_size():
    index = EmbeddingIndex([rec(0, 0, unit([1, 0]))])
    assert len(index.top_k(unit([1, 0]), 10)) == 1


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_top_k_matches_full_sort(n, k, seed):
    rng = np.random.default_rng(seed)
    records = [rec(i % 7, i, rng.standard_normal(8)) for i in range(n)]
    index = EmbeddingIndex(records)
    q = rng.standard_normal(8)
    got = index.top_k(q, k)

    scores = accel.cosine_scores(index.matrix, q)
    oracle = sorted(
        range(n), key=lambda i: (-scores[i], records[i].frame_index, records[i].entity_id)
    )[: min(k, n)]
    assert [(c.frame_index, c.entity_id) for c in got] == [
        (records[i].frame_index, records[i].entity_id) for i in oracle
    ]


def test_rank_orders_a_subset_of_rows():
    records = [rec(5, 2, [1]), rec(1, 2, [1]), rec(9, 0, [1]), rec(0, 1, [1])]
    scores = [0.5, 0.5, 0.5, 0.9]
    assert rank(records, scores, [0, 1, 2, 3], 4) == [3, 2, 1, 0]
    assert rank(records, scores, [0, 1], 1) == [1]
    assert rank(records, scores, [], 3) == []


def test_rerank_protocol():
    class Reply(MockBackend):
        def __init__(self, text):
            super().__init__()
            self.text, self.calls = text, 0

        def generate(self, bundle):
            self.calls += 1
            return self.text

    assert rerank("x", ["a", "b", "c"], Reply(" 2\n")) == (2, False)
    assert rerank("x", ["a", "b", "c"], Reply("3")) == (0, True)
    assert rerank("x", ["a", "b", "c"], Reply("-1")) == (0, True)
    assert rerank("x", ["a", "b", "c"], Reply("b")) == (0, True)
    single = Reply("0")
    assert rerank("x", ["a"], single) == (0, False) and single.calls == 0


def test_localize_uses_rerank(backend):
    # Rank-1 by embedding is the generic description; rerank should pick the
    # candidate whose words match the grounding phrase best.
    descs = ["gray cat sleeping quietly", "gray cat"]
    records = [
        EmbeddingRecord(0, 0, descs[0], backend.embed(descs[0])),
        EmbeddingRecord(1, 1, descs[1], backend.embed(descs[1])),
    ]
    index = EmbeddingIndex(records)
    out = index.localize("gray cat sleeping quietly", 2, backend)
    assert not out.fallback
    assert out.candidate.entity_id == 0


def test_localize_single_candidate_skips_rerank():
    class NoGenerate(MockBackend):
        def generate(self, bundle):
            raise AssertionError("generate must not be called")

    b = NoGenerate()
    index = EmbeddingIndex([EmbeddingRecord(3, 4, "only one", b.embed("only one"))])
    out = index.localize("anything", 5, b)
    assert out.candidate.entity_id == 3 and not out.fallback


def test_localize_falls_back_on_garbage(backend):
    class Garbage(MockBackend):
        def generate(self, bundle):
            return "not an index"

    b = Garbage()
    records = [
        EmbeddingRecord(0, 0, "alpha", b.embed("alpha")),
        EmbeddingRecord(1, 1, "beta", b.embed("beta")),
    ]
    out = EmbeddingIndex(records).localize("alpha", 2, b)
    assert out.fallback
    assert out.candidate.description == "alpha"


def test_localize_propagates_programming_errors():
    class Broken(MockBackend):
        def generate(self, bundle):
            raise TypeError("bug in the backend")

    b = Broken()
    records = [
        EmbeddingRecord(0, 0, "alpha", b.embed("alpha")),
        EmbeddingRecord(1, 1, "beta", b.embed("beta")),
    ]
    with pytest.raises(TypeError):
        EmbeddingIndex(records).localize("alpha", 2, b)


def test_localize_rejects_empty_phrase(backend):
    index = EmbeddingIndex([EmbeddingRecord(0, 0, "x", backend.embed("x"))])
    with pytest.raises(ValueError):
        index.localize("", 1, backend)
