"""Exact cosine retrieval over node embeddings, with two-stage localize.

The index is a linear scan: at 1 fps a video yields at most a few thousand
nodes, so exact search is cheap and keeps retrieval deterministic. It is
columnar: it keeps the ``EmbeddingColumns`` it is given, such as those
``embed_graph`` and ``read_embeddings`` return, without a copy. The
columns hold each distinct vector and its description once, as a float64
``vectors`` array and a ``descriptions`` list, and map each row to its
vector with ``vector_of``; nodes that share a description share a vector,
so a 600-frame video's ~4,800 rows have ~650 vectors. Beside them sit int
arrays of each row's frame and entity. The index also computes, once, the
norm of every distinct vector and the rows sorted by (entity, frame) with
each entity's slice of that order.

A query's ``scores`` are one matrix-vector product over the distinct
vectors (``accel.cosine_scores`` with the cached norms): one score per
vector, which every row of that vector reads through ``vector_of``, so
rows that share a vector are exact ties. Ranking rows is a partial
selection of those scoring at least the k-th best score and a sort of
that short list. An entity's frame range is two binary searches in the
entity's slice.

A whole-video question ranks the rows of every entity event at once
(``rank_ranges``): it gathers each event's rows, ranks the vectors'
scores (equal scores sharing a rank), and sorts the rows once, stably, by
one small integer key, range position times the number of vectors plus
the rank of the row's vector. On a 600-frame video that sorts ~650 vector
scores and then ~4,800 small integers instead of ~4,800 row scores.

The vectors are not stored unit-normalised: dividing each vector by its
norm before the dot product rounds differently from dividing the dot
product, which can move a score by one ulp across the 1e-9 quantisation
edge. Nothing keeps or builds a full (rows, dim) matrix.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import accel, backends
from .backends import make_bundle
from .errors import EmptyIndex, MalformedResponse
from .graph_builder import EmbeddingColumns


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


def rerank(grounding: str, descriptions: list[str], backend) -> tuple[int, bool]:
    """Backend picks the description that best matches the grounding phrase.

    The backend is shown each distinct description once, in first-seen
    order, and its pick maps back to the first description with that text,
    the best ranked when ``descriptions`` are in rank order. Returns (index,
    fallback). The backend must reply with a bare index into the distinct
    list; anything else falls back to index 0 with the fallback flag set.
    A list holding one distinct text makes no backend call.
    """
    distinct = list(dict.fromkeys(descriptions))
    if len(distinct) == 1:
        return 0, False
    bundle = make_bundle("rerank", backends.rerank_payload(grounding, distinct))
    try:
        chosen = int(backend.generate(bundle).strip())
    except (ValueError, MalformedResponse):
        return 0, True
    return (descriptions.index(distinct[chosen]), False) if 0 <= chosen < len(distinct) else (0, True)


class EmbeddingIndex:
    """Immutable node-embedding index; safe for concurrent queries.

    It keeps the columns it is given, without a copy: ``vectors`` (each
    distinct read-only float64 vector once), ``descriptions`` (their
    texts), and per row ``vector_of`` (its vector), ``frames`` and
    ``entities``.
    """

    def __init__(self, columns: EmbeddingColumns):
        self._columns = columns
        self.vectors, self.vector_of = columns.vectors, columns.vector_of
        self.frames, self.entities, self.descriptions = columns.frames, columns.entities, columns.descriptions
        n = len(columns)
        self._norms = np.linalg.norm(self.vectors, axis=1)
        # Rows by (entity, frame); lexsort is stable, so equal keys keep row order.
        self._by_entity = np.lexsort((self.frames, self.entities))
        # Frames in that order, as a list for ``bisect``, and each entity's slice of it.
        self._entity_frames = self.frames[self._by_entity].tolist()
        entities = self.entities[self._by_entity]
        cuts = (np.flatnonzero(np.diff(entities)) + 1).tolist()
        starts, stops = [0, *cuts], [*cuts, n]
        self._entity_slice = dict(zip(entities[starts].tolist(), zip(starts, stops))) if n else {}

    def __len__(self) -> int:
        return len(self.vector_of)

    @property
    def records(self) -> EmbeddingColumns:
        """The columns the index was built from; iterating them yields each row as a record."""
        return self._columns

    def scores(self, query_vector: np.ndarray) -> np.ndarray:
        """Cosine score of every vector against ``query_vector`` (see ``accel.cosine_scores``).

        Row ``i``'s score is ``scores[vector_of[i]]``.
        """
        return accel.cosine_scores(self.vectors, np.asarray(query_vector, dtype=np.float64), row_norms=self._norms)

    def rank(self, scores: np.ndarray, rows: Sequence[int], k: int) -> list[int]:
        """The ``k`` best of ``rows`` by descending score; ``scores`` has one per vector.

        NaN ranks after every number. Ties break by (frame_index,
        entity_id) ascending, then by position in ``rows``; this is the one
        tie order of every ranking over node embeddings. Only the rows
        scoring at least the k-th best score are sorted, so rows tied at the
        cut are ordered like the rest.
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        rows = np.asarray(rows, dtype=np.intp)
        descending = (-np.asarray(scores, dtype=np.float64))[self.vector_of[rows]]
        if 0 < k < len(rows):
            # A sort puts NaN last, so a NaN cut means fewer than k rows score a number: all stay.
            cut = np.partition(descending, k - 1)[k - 1]
            if not math.isnan(cut):
                keep = descending <= cut
                rows, descending = rows[keep], descending[keep]
        order = np.lexsort((self.entities[rows], self.frames[rows], descending))
        return rows[order[:k]].tolist()

    def rank_ranges(
        self, scores: np.ndarray, ranges: Sequence[tuple[int, int, int]], k: int
    ) -> list[int]:
        """The ``k`` best rows of each range, range after range, each in ``rank`` order.

        A range ``(entity_id, start_frame, end_frame)`` holds the entity's rows
        with ``start_frame <= frame_index <= end_frame``; a row in two ranges
        is listed for each. Ties on all of ``rank``'s keys keep row order.

        ``scores`` has one per vector, as ``scores()`` gives. The rows are
        sorted once, stably, by one integer key: the range's position times
        the number of vectors, plus the rank of the row's vector, the number
        of vectors scoring above it, so equal scores share a rank and NaN
        ranks last, as a float sort orders them (16-bit when that product
        fits, else ``intp``).
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if not len(self):
            return []
        descending = -np.asarray(scores, dtype=np.float64)
        rank_of, width = np.sort(descending).searchsorted(descending), len(descending)
        frames, entity_slice = self._entity_frames, self._entity_slice.get
        firsts, lasts = [], []
        for entity_id, start_frame, end_frame in ranges:
            lo, hi = entity_slice(entity_id, (0, 0))
            firsts.append(bisect_left(frames, start_frame, lo, hi))
            lasts.append(bisect_right(frames, end_frame, lo, hi))
        firsts = np.array(firsts, dtype=np.intp)
        sizes = np.maximum(np.array(lasts, dtype=np.intp) - firsts, 0)
        starts = np.cumsum(sizes) - sizes
        # Each gathered row's place in its range, and the row.
        place = np.arange(sizes.sum()) - starts.repeat(sizes)
        rows = self._by_entity[place + firsts.repeat(sizes)]
        # A range's rows are one entity's, gathered in (frame, row) order, so a
        # stable sort by (range, score rank) gives ``rank``'s order and keeps
        # each range's rows together and in place.
        dtype = np.uint16 if len(ranges) * width < 1 << 16 else np.intp
        key = rank_of.astype(dtype)[self.vector_of[rows]]
        key += np.arange(0, len(ranges) * width, width, dtype=dtype).repeat(sizes)
        order = key.argsort(kind="stable")
        return rows[order[place < k]].tolist()

    def top_k(self, query_vector: np.ndarray, k: int) -> list[Candidate]:
        """Exactly min(k, n) candidates by descending cosine similarity, NaN last.

        Ties break by (frame_index, entity_id) ascending.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not len(self):
            raise EmptyIndex("no embeddings in index")
        scores = self.scores(query_vector)
        candidates = []
        for i in self.rank(scores, np.arange(len(self)), k):
            j = self.vector_of[i]
            candidates.append(
                Candidate(int(self.entities[i]), int(self.frames[i]), float(scores[j]), self.descriptions[j])
            )
        return candidates

    def localize(self, grounding_phrase: str, k: int, backend) -> LocalizeResult:
        """Two-stage retrieval: cosine top-k filter, then backend rerank.

        The backend reranks the candidates' distinct descriptions in score
        order (see ``rerank``); a bad reply falls back to the rank-1 candidate.
        """
        if not grounding_phrase:
            raise ValueError("grounding phrase must be non-empty")
        query = backend.embed(grounding_phrase)
        candidates = self.top_k(query, k)
        chosen, fallback = rerank(grounding_phrase, [c.description for c in candidates], backend)
        return LocalizeResult(candidate=candidates[chosen], fallback=fallback)
