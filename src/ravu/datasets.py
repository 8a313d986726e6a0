"""Dataset item types and their jsonl document formats."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MALFORMED, ParseError, integer, json_objects, read_document

CATEGORIES = ("causal", "temporal", "descriptive", "global")


@dataclass
class McqItem:
    question: str
    options: list[str]
    answer_index: int
    category: str
    video_id: str
    subcategory: str = ""  # optional fine-grained tag (e.g. TP/TN/TC)

    def __post_init__(self):
        if not 0 <= self.answer_index < len(self.options):
            raise ValueError(f"answer_index {self.answer_index} out of range")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")


@dataclass
class LocalizationAnnotation:
    video_id: str
    question: str
    gt_frames: set[int] = field(default_factory=set)
    category: str = "temporal"

    def __post_init__(self):
        if not self.gt_frames:
            raise ValueError("gt_frames must be non-empty")


def load_mcq(path: str | Path) -> list[McqItem]:
    items = []
    for lineno, raw in json_objects(read_document(path), "mcq item"):
        try:
            items.append(
                McqItem(
                    question=str(raw["question"]),
                    options=[str(o) for o in raw["options"]],
                    answer_index=integer(raw["answer_index"], "answer_index", lineno),
                    category=str(raw["category"]),
                    video_id=str(raw["video_id"]),
                    subcategory=str(raw.get("subcategory", "")),
                )
            )
        except MALFORMED as exc:
            raise ParseError(f"malformed mcq item: {exc}", line=lineno) from exc
    return items


def dump_mcq(items: list[McqItem]) -> str:
    lines = []
    for it in items:
        lines.append(
            json.dumps(
                {
                    "question": it.question,
                    "options": it.options,
                    "answer_index": it.answer_index,
                    "category": it.category,
                    "video_id": it.video_id,
                    "subcategory": it.subcategory,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n" if lines else ""


def load_loc(path: str | Path) -> list[LocalizationAnnotation]:
    items = []
    for lineno, raw in json_objects(read_document(path), "localization item"):
        try:
            items.append(
                LocalizationAnnotation(
                    video_id=str(raw["video_id"]),
                    question=str(raw["question"]),
                    gt_frames={integer(f, "gt_frames", lineno) for f in raw["gt_frames"]},
                    category=str(raw.get("category", "temporal")),
                )
            )
        except MALFORMED as exc:
            raise ParseError(f"malformed localization item: {exc}", line=lineno) from exc
    return items


def dump_loc(items: list[LocalizationAnnotation]) -> str:
    lines = []
    for it in items:
        lines.append(
            json.dumps(
                {
                    "video_id": it.video_id,
                    "question": it.question,
                    "gt_frames": sorted(it.gt_frames),
                    "category": it.category,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n" if lines else ""
