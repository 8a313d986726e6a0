"""In-memory span tracer that wraps the program's layer functions from outside.

Each wrapped function records one span: name, start, end and the index of
the enclosing span. Functions are wrapped where their callers look them up
(a module attribute such as ``ravu.graph_builder.node_edges`` or a class
attribute such as ``SpatioTemporalGraph.nodes_in_frame``), so the program
itself carries no instrumentation and the timed run pays nothing.

A layer's number is its self time: its spans' durations minus the part of
each interval covered by child spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

COUNTER_KEYS = (
    "accel.iou_matrix.pairs",
    "accel.cosine_scores.rows",
    "reasoning.breakdown.fallbacks",
    "index.localize.fallbacks",
    "graph_builder.dropped_edge_lines",
    "graph_builder.fallback_entities",
)


def _count_iou_pairs(counts, result) -> None:
    counts["accel.iou_matrix.pairs"] += result.size


def _count_cosine_rows(counts, result) -> None:
    counts["accel.cosine_scores.rows"] += len(result)


def _count_breakdown_fallback(counts, result) -> None:
    counts["reasoning.breakdown.fallbacks"] += int(result.fallback)


def _count_localize_fallback(counts, result) -> None:
    counts["index.localize.fallbacks"] += int(result.fallback)


def _count_build_report(counts, result) -> None:
    report = result[1]
    counts["graph_builder.dropped_edge_lines"] += report.dropped_edge_lines
    counts["graph_builder.fallback_entities"] += len(report.fallback_entities)


def layer_targets(backend_cls) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter) for every traced layer boundary.

    The owner is the namespace the caller resolves the name in, so a
    function imported into several modules is listed once per importer.
    """
    from ravu import accel, evaluate, graph_builder, graph_model, index, reasoning

    graph_cls = graph_model.SpatioTemporalGraph
    index_cls = index.EmbeddingIndex
    return [
        # Whole operations, called by the benchmark through these modules.
        (evaluate, "build_video", "evaluate.build_video", None),
        (evaluate, "answer_question", "evaluate.answer_question", None),
        (graph_model, "serialize", "graph_model.serialize", None),
        (graph_model, "deserialize", "graph_model.deserialize", None),
        (graph_builder, "write_embeddings", "graph_builder.write_embeddings", None),
        (graph_builder, "read_embeddings", "graph_builder.read_embeddings", None),
        (index_cls, "__init__", "index.init", None),
        # Build path.
        (evaluate, "parse_observations", "ingestion.parse", None),
        (evaluate, "parse_tracklets", "ingestion.parse", None),
        (evaluate, "associate", "ingestion.associate", None),
        (evaluate, "build_graph", "graph_builder.build_graph", _count_build_report),
        (evaluate, "embed_graph", "graph_builder.embed_graph", None),
        (graph_builder, "build_frame_graph", "graph_builder.build_frame_graph", None),
        (graph_builder, "describe_node", "graph_builder.describe_node", None),
        (graph_builder, "segment_events", "graph_builder.segment_events", None),
        (graph_builder, "node_edges", "graph_model.node_edges", None),
        (graph_builder, "entity_timeline", "graph_model.entity_timeline", None),
        (graph_cls, "nodes_in_frame", "graph_model.nodes_in_frame", None),
        (accel, "iou_matrix", "accel.iou_matrix", _count_iou_pairs),
        # Question path.
        (evaluate, "load_example_library", "reasoning.load_example_library", None),
        (evaluate, "breakdown", "reasoning.breakdown", _count_breakdown_fallback),
        (evaluate, "execute", "reasoning.execute", None),
        (evaluate, "hierarchical_retrieve", "reasoning.hierarchical_retrieve", None),
        (reasoning, "parse_plan", "plan.parse_plan", None),
        (reasoning, "fn_count_nodes", "reasoning.fn_count_nodes", None),
        (reasoning, "fn_identify_node", "reasoning.fn_identify_node", None),
        (reasoning, "fn_analyze_events", "reasoning.fn_analyze_events", None),
        (reasoning, "entity_timeline", "graph_model.entity_timeline", None),
        (index_cls, "localize", "index.localize", _count_localize_fallback),
        (index_cls, "top_k", "index.top_k", None),
        (accel, "cosine_scores", "accel.cosine_scores", _count_cosine_rows),
        # Backend boundary: prompt bundles and the provider calls.
        (graph_builder, "make_bundle", "backends.make_bundle", None),
        (index, "make_bundle", "backends.make_bundle", None),
        (reasoning, "make_bundle", "backends.make_bundle", None),
        (evaluate, "make_bundle", "backends.make_bundle", None),
        (backend_cls, "generate", "backends.generate", None),
        (backend_cls, "embed", "backends.embed", None),
        (backend_cls, "answer", "backends.answer", None),
    ]


class Tracer:
    """Records nested spans of the wrapped layers while installed."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, counter in self.targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def mark(self) -> int:
        """Position in the span list, for :meth:`self_total`."""
        return len(self.spans)

    def self_total(self, start: int) -> float:
        """Sum of the self times of every span recorded since ``start``.

        Each child's duration is subtracted once from its parent, so the
        sum is the total duration of the spans whose parent lies before
        ``start``: the operation's root spans.
        """
        return sum(s[2] - s[1] for s in self.spans[start:] if s[3] < start)

    def self_seconds(self) -> dict[str, float]:
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)
