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
        order = sorted(
            range(len(self.records)),
            key=lambda i: (-scores[i], self.records[i].frame_index, self.records[i].entity_id),
        )
        out = []
        for i in order[: min(k, len(order))]:
            rec = self.records[i]
            out.append(
                Candidate(
                    entity_id=rec.entity_id,
                    frame_index=rec.frame_index,
                    score=float(scores[i]),
                    description=rec.description,
                )
            )
        return out

    def localize(self, grounding_phrase: str, k: int, backend) -> LocalizeResult:
        """Two-stage retrieval: cosine top-k filter, then backend rerank.

        The backend sees the candidate descriptions in score order and must
        reply with a bare index; anything else falls back to the rank-1
        candidate with the fallback flag set.
        """
        if not grounding_phrase:
            raise ValueError("grounding phrase must be non-empty")
        query = backend.embed(grounding_phrase)
        candidates = self.top_k(query, k)
        if len(candidates) == 1:
            return LocalizeResult(candidate=candidates[0])

        payload = backends.rerank_payload(grounding_phrase, [c.description for c in candidates])
        bundle = make_bundle("rerank", payload)
        try:
            text = backend.generate(bundle).strip()
            chosen = int(text)
            if not 0 <= chosen < len(candidates):
                raise ValueError(f"rerank index {chosen} out of range")
        except (ValueError, MalformedResponse):
            return LocalizeResult(candidate=candidates[0], fallback=True)
        return LocalizeResult(candidate=candidates[chosen])
