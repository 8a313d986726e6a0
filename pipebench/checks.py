"""Correctness checks made apart from the program.

Every check compares against something the program did not compute: the
synthetic world's script (slots, presence, relations, event segments and
multiple-choice answers), a numpy full-sort top-k oracle, or a round-trip
property of the persisted artifacts. Each function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

from ravu.backends import content_words
from ravu.graph_model import deserialize, serialize, validate


def graph_problems(world, graph, report) -> list[str]:
    """A built graph against the world that generated its inputs."""
    problems = [f"validate: {v.rule} {v.detail}" for v in validate(graph)[:3]]
    scripts = {e.slot: e for e in world.entities}
    if graph.entity_ids() != sorted(scripts):
        problems.append(f"entity ids {graph.entity_ids()} != slots {sorted(scripts)}")
        return problems

    frames_by_entity: dict[int, list[int]] = {}
    for node in graph.nodes:
        frames_by_entity.setdefault(node.entity_id, []).append(node.frame_index)
        script = scripts[node.entity_id]
        expected = {
            "appearance": script.appearance,
            "action": script.action_by_frame.get(node.frame_index),
            "body_pose": script.body_pose,
        }
        if node.attributes != expected:
            problems.append(f"entity {node.entity_id} frame {node.frame_index} attributes")
            break
    for slot, script in scripts.items():
        if sorted(frames_by_entity.get(slot, [])) != script.presence:
            problems.append(f"entity {slot} node frames differ from scripted presence")

    spans = {
        eid: [(ev.start_frame, ev.end_frame) for ev in events]
        for eid, events in graph.events.items()
    }
    expected_spans = {
        slot: [(s, e) for s, e, _ in segments] for slot, segments in world.expected_events.items()
    }
    if spans != expected_spans:
        problems.append("event spans differ from the scripted segments")
    if report.fallback_entities:
        problems.append(f"segmentation fallbacks for entities {report.fallback_entities}")

    edges = [(e.frame_index, e.subject_id, e.relation, e.object_id) for e in graph.edges]
    if len(edges) != len(set(edges)) or set(edges) != set(world.relations):
        problems.append(
            f"edge set differs from scripted relations ({len(edges)} vs {len(world.relations)})"
        )
    return problems


def roundtrip_problems(graph_text, reloaded_graph, records, reloaded_records) -> list[str]:
    """Persisted artifacts against the in-memory ones they were written from."""
    problems = []
    if serialize(deserialize(graph_text)) != graph_text:
        problems.append("deserialize(serialize(g)) does not serialize to the same bytes")
    if serialize(reloaded_graph) != graph_text:
        problems.append("reloaded graph serializes differently")

    keys = [(r.entity_id, r.frame_index, r.description) for r in records]
    reloaded_keys = [(r.entity_id, r.frame_index, r.description) for r in reloaded_records]
    if keys != reloaded_keys:
        problems.append("reloaded embedding rows are out of order or mislabelled")
        return problems
    if not records:
        return problems
    memory = np.stack([r.vector for r in records]).astype(np.float32).astype(np.float64)
    loaded = np.stack([r.vector for r in reloaded_records])
    if not np.array_equal(memory, loaded):
        problems.append("reloaded vectors differ from the float32-rounded in-memory vectors")
    norms = np.linalg.norm(loaded, axis=1)
    if not np.all(np.abs(norms - 1.0) < 1e-5):
        problems.append("reloaded vectors are not unit norm")
    return problems


def ill_posed(world, question_index: int, item) -> bool:
    """True when a temporal item breaks the generator's own distractor promise.

    The generator picks distractor actions whose words never occur in the
    protected frames (the target and answer segments). A distractor entity
    added for a later question can bring such words into those frames, so
    a distractor can tie the answer.
    """
    if item.category != "temporal":
        return False
    span_words: set[str] = set()
    for entity in world.entities:
        for frame in world.qa_gt_frames[question_index]:
            action = entity.action_by_frame.get(frame)
            if action is not None:
                span_words |= content_words(f"{entity.appearance} {action}")
    return any(
        content_words(option) & span_words
        for i, option in enumerate(item.options)
        if i != item.answer_index
    )


def answer_problems(item, choice: int, frames, n_frames: int, budget: int) -> list[str]:
    problems = []
    if choice != item.answer_index:
        problems.append(f"{item.video_id} {item.question!r}: chose {choice}, oracle {item.answer_index}")
    if list(frames) != sorted(set(frames)):
        problems.append(f"{item.video_id} {item.question!r}: frames not sorted and unique")
    if any(not 0 <= f < n_frames for f in frames) or len(frames) > budget:
        problems.append(f"{item.video_id} {item.question!r}: frames out of range or over budget")
    return problems


def top_k_problems(index, query: np.ndarray, k: int) -> list[str]:
    """``index.top_k`` against a full sort by (-score, frame, entity)."""
    matrix = np.stack([r.vector for r in index.records])
    norms = np.linalg.norm(matrix, axis=1) * np.linalg.norm(query)
    scores = (matrix @ query) / np.where(norms == 0, 1, norms)
    frames = np.array([r.frame_index for r in index.records])
    entities = np.array([r.entity_id for r in index.records])
    order = np.lexsort((entities, frames, -scores))[: min(k, len(scores))]
    expected = [(int(frames[i]), int(entities[i])) for i in order]
    got = [(c.frame_index, c.entity_id) for c in index.top_k(query, k)]
    return [] if got == expected else [f"top_k {got[:3]}... differs from the full-sort oracle"]
