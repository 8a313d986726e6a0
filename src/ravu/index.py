"""Exact cosine retrieval over node embeddings, with two-stage localize.

The index is a linear scan: at 1 fps a video yields at most a few thousand
nodes, so exact search is cheap and keeps retrieval deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import accel, backends
from .backends import make_bundle
from .errors import EmptyIndex, MalformedResponse
from .graph_builder import EmbeddingRecord


@dataclass(frozen=True)
class Candidate:
    entity_id: int
    frame_index: int
    score: float
    description: str


@dataclass(frozen=True)
class LocalizeResult:
    candidate: Candidate
    fallback: bool = False


def rank(records: list[EmbeddingRecord], scores, rows, k: int) -> list[int]:
    """The ``k`` best of ``rows`` by descending score.

    Ties break by (frame_index, entity_id) ascending; this is the one tie
    order of every ranking over node embeddings.
    """
    return sorted(
        rows, key=lambda r: (-scores[r], records[r].frame_index, records[r].entity_id)
    )[:k]


def rerank(grounding: str, descriptions: list[str], backend) -> tuple[int, bool]:
    """Backend picks the description that best matches the grounding phrase.

    Returns (index, fallback). The backend must reply with a bare index in
    range; anything else falls back to index 0 with the fallback flag set.
    A single description makes no backend call.
    """
    if len(descriptions) == 1:
        return 0, False
    bundle = make_bundle("rerank", backends.rerank_payload(grounding, descriptions))
    try:
        chosen = int(backend.generate(bundle).strip())
    except (ValueError, MalformedResponse):
        return 0, True
    return (chosen, False) if 0 <= chosen < len(descriptions) else (0, True)


class EmbeddingIndex:
    """Immutable node-embedding index; safe for concurrent queries."""

    def __init__(self, records: list[EmbeddingRecord]):
        self.records = list(records)
        if records:
            self.matrix = np.stack([r.vector for r in records]).astype(np.float64)
        else:
            self.matrix = np.zeros((0, 0), dtype=np.float64)

    def __len__(self) -> int:
        return len(self.records)

    def top_k(self, query_vector: np.ndarray, k: int) -> list[Candidate]:
        """Exactly min(k, n) candidates by descending cosine similarity.

        Ties break by (frame_index, entity_id) ascending.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not self.records:
            raise EmptyIndex("no embeddings in index")
        scores = accel.cosine_scores(self.matrix, np.asarray(query_vector, dtype=np.float64))
        out = []
        for i in rank(self.records, scores, range(len(self.records)), k):
            rec = self.records[i]
            out.append(Candidate(rec.entity_id, rec.frame_index, float(scores[i]), rec.description))
        return out

    def localize(self, grounding_phrase: str, k: int, backend) -> LocalizeResult:
        """Two-stage retrieval: cosine top-k filter, then backend rerank.

        The backend reranks the candidate descriptions in score order (see
        ``rerank``); a bad reply falls back to the rank-1 candidate.
        """
        if not grounding_phrase:
            raise ValueError("grounding phrase must be non-empty")
        query = backend.embed(grounding_phrase)
        candidates = self.top_k(query, k)
        chosen, fallback = rerank(grounding_phrase, [c.description for c in candidates], backend)
        return LocalizeResult(candidate=candidates[chosen], fallback=fallback)
