"""End-to-end QA over built graphs, plus accuracy evaluations.

Provides the per-question pipeline (breakdown, execution or hierarchical
retrieval, final answer), multiple-choice accuracy reporting in the two
blocked-content modes, and the frame-localization metric.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import backends
from .backends import make_bundle
from .config import RavuConfig
from .datasets import CATEGORIES, LocalizationAnnotation, McqItem, one_line
from .errors import BackendError, BlockedContent, ParseError
from .graph_builder import BuildReport, build_graph, embed_graph
from .graph_model import SpatioTemporalGraph
from .index import EmbeddingIndex
from .ingestion import associate, parse_observations, parse_tracklets
from .plan import ReasoningPlan
from .reasoning import breakdown, examples_for, execute, hierarchical_retrieve, load_example_library


@dataclass
class VideoAssets:
    """Everything QA needs for one video."""

    graph: SpatioTemporalGraph
    index: EmbeddingIndex
    build_report: BuildReport


def build_video_graph(
    observations_text: str,
    tracklets_text: str,
    backend,
    config: RavuConfig,
) -> tuple[SpatioTemporalGraph, BuildReport]:
    """One video's graph and build report under ``config``: ingest, build, segment; nothing is embedded."""
    observations = parse_observations(observations_text)
    tracklets = parse_tracklets(tracklets_text)
    assoc = associate(observations, tracklets, config.min_iou, config.fps)
    return build_graph(assoc.frames, assoc.nodes, backend, config.fps, config.max_retries)


def build_video(
    observations_text: str,
    tracklets_text: str,
    backend,
    config: RavuConfig,
) -> VideoAssets:
    """Full pipeline for one video: ``build_video_graph`` with ``config``, then embed."""
    graph, report = build_video_graph(observations_text, tracklets_text, backend, config)
    return VideoAssets(graph=graph, index=EmbeddingIndex(embed_graph(graph, backend)), build_report=report)


class TokenCountingBackend:
    """Delegating wrapper that sums whitespace tokens of every prompt.

    This is a cost proxy, not a provider token count; it is only meaningful
    relative to other runs of the same proxy.
    """

    def __init__(self, inner):
        self.inner = inner
        self.tokens = 0

    def reset(self) -> int:
        count, self.tokens = self.tokens, 0
        return count

    def _count_bundle(self, bundle) -> None:
        self.tokens += len(bundle.system_prompt.split()) + len(bundle.user_payload.split())
        for _, _, desc in bundle.frame_refs or []:
            self.tokens += len(desc.split())

    def generate(self, bundle):
        self._count_bundle(bundle)
        return self.inner.generate(bundle)

    def answer(self, bundle, question, options):
        self._count_bundle(bundle)
        return self.inner.answer(bundle, question, options)

    def embed(self, text):
        self.tokens += len(text.split())
        return self.inner.embed(text)


@dataclass
class Retrieval:
    frames: list[int]
    plan: ReasoningPlan | None
    notes: str = ""
    flags: list[str] = field(default_factory=list)


@dataclass
class AnswerAudit:
    choice: int
    frames: list[int]
    plan: ReasoningPlan | None
    flags: list[str] = field(default_factory=list)


def retrieve(
    assets: VideoAssets,
    question: str,
    category: str,
    backend,
    budget: int,
    top_k: int,
    per_event: int,
    max_retries: int,
) -> Retrieval:
    """Frames, and the plan that found them, for one question, under the config's values.

    Global questions take the hierarchical-retrieval route; everything else,
    and a global question over a graph without events, is broken down into
    a plan and executed. The breakdown is shown the shipped examples of the
    question's category (``examples_for``), or every example for a category
    with none, such as ``global``. An empty hierarchical pick falls back to
    the first ``budget`` frames. Each plan step that failed adds a flag naming it.
    Blocked content propagates to the caller, which records the item as
    blocked. A question holding a line break raises ParseError before any
    backend call: every payload is line-oriented.
    """
    one_line([question], "question")
    graph = assets.graph
    if category == "global" and graph.events:
        frames, fell_back = hierarchical_retrieve(
            question, graph, assets.index, backend, per_event=per_event, top=budget
        )
        return Retrieval(
            frames=frames or list(range(min(budget, graph.num_frames))),
            plan=None,
            flags=["hierarchical selection fallback"] if fell_back else [],
        )
    bd = breakdown(question, examples_for(load_example_library(), category), backend, max_retries)
    result = execute(
        bd.plan, graph, assets.index, backend, budget=budget, top_k=top_k, max_retries=max_retries
    )
    flags = (["breakdown fallback"] if bd.fallback else []) + result.flags
    flags += [f"step {step}: failed: {message}" for step, message in result.errors]
    return Retrieval(frames=result.frames, plan=bd.plan, notes=result.notes, flags=flags)


def answer(
    assets: VideoAssets, question: str, options: list[str], retrieval: Retrieval, backend
) -> int:
    """The backend's choice among ``options``, over the retrieved frames; a
    question or option holding a line break raises ParseError before the
    backend is asked."""
    one_line([question], "question")
    one_line(options, "options")
    frames = assets.graph.frames
    frame_refs = [(f, frames[f].source_ref, frames[f].description) for f in retrieval.frames]
    bundle = make_bundle(
        "answer", backends.answer_payload(question, options, retrieval.notes), frame_refs
    )
    return backend.answer(bundle, question, options)


def answer_question(
    assets: VideoAssets,
    item: McqItem,
    backend,
    budget: int = 5,
    top_k: int = 10,
    per_event: int = 3,
    max_retries: int = 2,
) -> AnswerAudit:
    """``retrieve`` frames for the item's question, then ``answer`` it; a question or
    option holding a line break raises ParseError before any backend call."""
    one_line(item.options, "options")  # ``retrieve`` checks the question before its first call
    retrieval = retrieve(
        assets, item.question, item.category, backend, budget=budget, top_k=top_k,
        per_event=per_event, max_retries=max_retries,
    )
    choice = answer(assets, item.question, item.options, retrieval, backend)
    return AnswerAudit(choice, retrieval.frames, retrieval.plan, retrieval.flags)


def _accuracy(correct: int, total: int) -> float | None:
    return correct / total if total else None


def eval_qa(
    items: list[McqItem],
    assets_by_video: dict[str, VideoAssets],
    backend,
    config: RavuConfig = RavuConfig(),
) -> dict:
    """Accuracy by category and overall, in both blocked-content modes.

    ``non_blocked`` excludes blocked items; ``overall`` counts them as
    incorrect. Items whose video has no graph, items whose question or
    options hold a line break, and items whose backend call failed
    otherwise (timeout, malformed reply), are counted as ``errored`` and
    excluded from both accuracies. ``mean_prompt_tokens``
    averages the prompt tokens spent on every item whose video has a
    graph, up to the failing call for a blocked or errored one; items
    without a graph make no backend call and are left out of it.
    Retrieval follows ``config``, or ``RavuConfig()`` when none is given, exactly as ``ravu ask`` does.
    """
    counting = TokenCountingBackend(backend)

    rows = []
    for item in items:
        counting.reset()
        assets = assets_by_video.get(item.video_id)
        if assets is None:
            rows.append({"item": item, "status": "errored", "tokens": None, "frames": []})
            continue
        try:
            audit = answer_question(
                assets, item, counting, budget=config.budget, top_k=config.top_k,
                per_event=config.hier_per_event, max_retries=config.max_retries,
            )
        except (BackendError, ParseError) as exc:  # ParseError: refused before any backend call
            status = "blocked" if isinstance(exc, BlockedContent) else "errored"
            rows.append({"item": item, "status": status, "tokens": counting.tokens, "frames": []})
            continue
        rows.append(
            {
                "item": item,
                "status": "correct" if audit.choice == item.answer_index else "incorrect",
                "tokens": counting.tokens,
                "frames": audit.frames,
            }
        )

    report: dict = {"categories": {}, "errored": 0}
    answered = [r for r in rows if r["status"] in ("correct", "incorrect")]
    blocked = [r for r in rows if r["status"] == "blocked"]
    report["errored"] = sum(1 for r in rows if r["status"] == "errored")

    def bucket(rows_subset):
        correct = sum(1 for r in rows_subset if r["status"] == "correct")
        n_answered = sum(1 for r in rows_subset if r["status"] in ("correct", "incorrect"))
        n_blocked = sum(1 for r in rows_subset if r["status"] == "blocked")
        return {
            "items": n_answered + n_blocked,
            "blocked": n_blocked,
            "non_blocked_accuracy": _accuracy(correct, n_answered),
            "overall_accuracy": _accuracy(correct, n_answered + n_blocked),
        }

    for category in CATEGORIES:
        in_cat = [r for r in rows if r["item"].category == category and r["status"] != "errored"]
        if in_cat:
            report["categories"][category] = bucket(in_cat)
    report["overall"] = bucket(answered + blocked)
    frame_counts = [len(r["frames"]) for r in answered]
    report["mean_frames"] = float(np.mean(frame_counts)) if frame_counts else 0.0
    token_counts = [r["tokens"] for r in rows if r["tokens"] is not None]
    report["mean_prompt_tokens"] = float(np.mean(token_counts)) if token_counts else 0.0
    return report


def eval_localization(
    annotations: list[LocalizationAnnotation],
    assets_by_video: dict[str, VideoAssets],
    backend,
    config: RavuConfig,
    method: str = "rerank",
) -> dict:
    """Frame-localization accuracy: correct iff the predicted frame is in gt.

    Methods: ``rerank`` (two-stage localize of ``config.top_k`` candidates)
    and ``text_embedding`` (rank-1 of the cosine top-k). Items whose video
    has no assets are skipped, and items whose question holds a line break (refused before any backend
    call, as in ``eval_qa``) or whose backend call failed (timeout, refusal,
    malformed reply) are counted as ``errored``; neither counts toward the
    accuracies.
    """
    if method not in ("rerank", "text_embedding"):
        raise ValueError(f"unknown localization method {method!r}")

    per_category: dict[str, list[bool]] = {}
    skipped = errored = 0
    for ann in annotations:
        assets = assets_by_video.get(ann.video_id)
        if assets is None:
            skipped += 1
            continue
        try:
            one_line([ann.question], "question")
            if method == "rerank":
                predicted = assets.index.localize(ann.question, config.top_k, backend).candidate.frame_index
            else:
                predicted = assets.index.top_k(backend.embed(ann.question), 1)[0].frame_index
        except (BackendError, ParseError):
            errored += 1
            continue
        per_category.setdefault(ann.category, []).append(predicted in ann.gt_frames)

    report: dict = {"method": method, "categories": {}, "skipped": skipped, "errored": errored}
    all_hits: list[bool] = []
    for category in sorted(per_category):
        hits = per_category[category]
        all_hits.extend(hits)
        report["categories"][category] = {
            "items": len(hits),
            "accuracy": _accuracy(sum(hits), len(hits)),
        }
    report["overall"] = {"items": len(all_hits), "accuracy": _accuracy(sum(all_hits), len(all_hits))}
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _flatten(prefix: str, value, rows: list[tuple[str, str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    else:
        category, _, metric = prefix.partition(".")
        if not metric:
            category, metric = "overall", prefix
        rows.append((category, metric, "" if value is None else str(value)))


def report_to_csv(report: dict) -> str:
    """Rows of category,metric,value; nested keys joined with dots."""
    rows: list[tuple[str, str, str]] = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["category", "metric", "value"])
    writer.writerows(rows)
    return buf.getvalue()
