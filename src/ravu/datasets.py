"""Dataset item types and their jsonl document formats."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import MALFORMED, ParseError, integer, json_objects, read_document
from .graph_model import LINE_BREAK

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


def one_line(texts: list[str], name: str, lineno: int | None = None) -> None:
    """Raise ParseError if any of ``texts`` holds a line break: every backend payload is line-oriented."""
    if any(map(LINE_BREAK.search, texts)):
        raise ParseError(f"line break in {name}", line=lineno, field=name)


def json_list(value, name: str, lineno: int) -> list:
    """``value`` if it is a JSON array, else ParseError: a loop would read a string item by item."""
    if not isinstance(value, list):
        raise ParseError(f"{name} must be a list, got {value!r}", line=lineno, field=name)
    return value


def load_mcq(path: str | Path) -> list[McqItem]:
    items = []
    for lineno, raw in json_objects(read_document(path), "mcq item"):
        try:
            item = McqItem(
                question=str(raw["question"]),
                options=[str(o) for o in json_list(raw["options"], "options", lineno)],
                answer_index=integer(raw["answer_index"], "answer_index", lineno),
                category=str(raw["category"]),
                video_id=str(raw["video_id"]),
                subcategory=str(raw.get("subcategory", "")),
            )
        except MALFORMED as exc:
            raise ParseError(f"malformed mcq item: {exc}", line=lineno) from exc
        one_line([item.question], "question", lineno)
        one_line(item.options, "options", lineno)
        items.append(item)
    return items


def dump_mcq(items: list[McqItem]) -> str:
    return "".join(json.dumps(asdict(it), sort_keys=True) + "\n" for it in items)


def load_loc(path: str | Path) -> list[LocalizationAnnotation]:
    items = []
    for lineno, raw in json_objects(read_document(path), "localization item"):
        try:
            item = LocalizationAnnotation(
                video_id=str(raw["video_id"]),
                question=str(raw["question"]),
                gt_frames={integer(f, "gt_frames", lineno) for f in json_list(raw["gt_frames"], "gt_frames", lineno)},
                category=str(raw.get("category", "temporal")),
            )
        except MALFORMED as exc:
            raise ParseError(f"malformed localization item: {exc}", line=lineno) from exc
        one_line([item.question], "question", lineno)
        items.append(item)
    return items


def dump_loc(items: list[LocalizationAnnotation]) -> str:
    return "".join(
        json.dumps({**asdict(it), "gt_frames": sorted(it.gt_frames)}, sort_keys=True) + "\n" for it in items
    )
