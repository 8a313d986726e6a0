"""Deterministic synthetic worlds with full ground truth.

A world scripts a handful of entities acting out distinct action segments,
then derives every artifact the real pipeline consumes (observations.jsonl,
tracklets.json) plus the oracle answers tests need: the expected event
table, multiple-choice questions with known answers, and localization
annotations.

Worlds deliberately include near-duplicate distractor entities whose
descriptions are short subsets of a question's grounding phrase, so that
embedding-only localization has something to lose against reranking.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .backends import content_words
from .datasets import LocalizationAnnotation, McqItem

ADJECTIVES = ["brown", "black", "white", "golden", "spotted", "gray", "tan", "striped"]
NOUNS = ["dog", "cat", "man", "woman", "boy", "girl", "horse", "bird"]
BODY_POSES = ["upright", "crouching", "leaning", "stretched", "curled", "alert"]
RELATIONS = ["standing near", "walking beside", "looking toward", "sitting behind", "moving toward"]

ACTIONS = [
    "running up the stairs", "sitting by the door", "eating from a bowl",
    "jumping over the fence", "digging in the garden", "chasing a ball",
    "sleeping on the couch", "drinking from a fountain", "climbing a tree",
    "barking at the gate", "walking along the path", "rolling on the grass",
    "hiding under the table", "spinning in circles", "carrying a stick",
    "watching the street", "shaking off water", "stretching on the mat",
    "pushing a cart", "tugging a rope", "sniffing the flowers",
    "pawing at a box", "leaping across the stream", "balancing on a log",
    "crawling through a tunnel", "bouncing on the trampoline", "splashing in a puddle",
    "gnawing on a bone", "howling at the moon", "wagging its tail",
    "fetching the newspaper", "guarding the porch", "nibbling some grass",
    "trotting around the yard", "peeking through the window", "scratching the post",
    "swimming in the pond", "burying a treat", "dozing in the sun",
    "pacing near the shed",
]

FAKE_ADJECTIVES = ["purple", "turquoise", "crimson", "neon"]
FAKE_NOUNS = ["elephant", "penguin", "robot", "dragon"]
FAKE_ACTIONS = [
    "riding a bicycle", "painting a mural", "juggling oranges", "flying a kite",
    "strumming a guitar", "baking cookies", "typing on a laptop", "mopping the floor",
]


@dataclass
class EntityScript:
    slot: int  # also the track_id and expected entity_id
    appearance: str
    noun: str
    body_pose: str
    presence: list[int]  # frames where the entity appears, sorted
    action_by_frame: dict[int, str]

    @property
    def segments(self) -> list[tuple[int, int, str]]:
        """Maximal contiguous presence runs of one action: the event oracle."""
        out = []
        for f in self.presence:
            action = self.action_by_frame[f]
            if out and f == out[-1][1] + 1 and action == out[-1][2]:
                out[-1] = (out[-1][0], f, action)
            else:
                out.append((f, f, action))
        return out


@dataclass
class SyntheticWorld:
    seed: int
    video_id: str
    n_frames: int
    entities: list[EntityScript]
    relations: list[tuple[int, int, str, int]]  # (frame, subject_slot, relation, object_slot)
    questions: list[McqItem] = field(default_factory=list)
    loc_annotations: list[LocalizationAnnotation] = field(default_factory=list)
    qa_gt_frames: dict[int, list[int]] = field(default_factory=dict)  # question idx -> allowed frames
    observations_text: str = ""
    tracklets_text: str = ""

    @property
    def expected_events(self) -> dict[int, list[tuple[int, int, str]]]:
        return {e.slot: e.segments for e in self.entities}


def _lane_box(rng: random.Random, slot: int) -> list[float]:
    jx = rng.randint(-2, 2)
    jy = rng.randint(-2, 2)
    x0 = 5 + 30 * slot + jx
    y0 = 10 + jy
    return [float(x0), float(y0), float(x0 + 20), float(y0 + 15)]


def _frame_description(world_entities, relations, frame: int, local_ids: dict[int, int]) -> str:
    sentences = []
    for ent in world_entities:
        if frame in ent.action_by_frame and ent.slot in local_ids:
            sentences.append(
                f"[E{local_ids[ent.slot]}] the {ent.appearance} is {ent.action_by_frame[frame]}."
            )
    for f, subj, rel, obj in relations:
        if f == frame and subj in local_ids and obj in local_ids:
            sentences.append(f"[E{local_ids[subj]}] {rel} [E{local_ids[obj]}].")
    return " ".join(sentences)


def _segment_bounds(n_frames: int, n_segments: int) -> list[tuple[int, int]]:
    base = n_frames // n_segments
    bounds = []
    start = 0
    for i in range(n_segments):
        end = n_frames - 1 if i == n_segments - 1 else start + base - 1
        bounds.append((start, end))
        start = end + 1
    return bounds


def _span_text(world: SyntheticWorld, frames) -> str:
    parts = []
    for ent in world.entities:
        for f in frames:
            if f in ent.action_by_frame:
                parts.append(ent.appearance)
                parts.append(ent.action_by_frame[f])
    return " ".join(parts)


def _drop_last_content_word(phrase: str) -> str:
    tokens = phrase.split()
    for i in range(len(tokens) - 1, -1, -1):
        if content_words(tokens[i]):
            return " ".join(tokens[:i] + tokens[i + 1 :])
    return phrase


def synth_world(
    seed: int,
    n_frames: int = 24,
    n_entities: int = 3,
    n_questions: int = 4,
) -> SyntheticWorld:
    """Deterministic world: same seed, byte-identical artifacts."""
    if min(n_frames, n_entities, n_questions) < 1:
        raise ValueError("all parameters must be >= 1")
    rng = random.Random(seed)
    video_id = f"synth-{seed:08d}"

    adjectives = rng.sample(ADJECTIVES, min(n_entities, len(ADJECTIVES)))
    nouns = rng.sample(NOUNS, min(n_entities, len(NOUNS)))
    action_pool = list(ACTIONS)
    rng.shuffle(action_pool)

    n_segments = max(1, min(4, n_frames // 5)) if n_frames >= 2 else 1
    bounds = _segment_bounds(n_frames, n_segments)

    entities: list[EntityScript] = []
    for i in range(n_entities):
        appearance = f"{adjectives[i % len(adjectives)]} {nouns[i % len(nouns)]}"
        actions = [action_pool.pop() for _ in bounds]
        presence = set(range(n_frames))
        # One entity sits out the first two frames of a later segment so
        # absence-forced event boundaries get exercised.
        if i == 1 and n_segments >= 3 and bounds[2][1] - bounds[2][0] >= 3:
            presence -= {bounds[2][0], bounds[2][0] + 1}
        action_by_frame = {}
        for (start, end), action in zip(bounds, actions):
            for f in range(start, end + 1):
                if f in presence:
                    action_by_frame[f] = action
        entities.append(
            EntityScript(
                slot=i,
                appearance=appearance,
                noun=nouns[i % len(nouns)],
                body_pose=rng.choice(BODY_POSES),
                presence=sorted(presence),
                action_by_frame=action_by_frame,
            )
        )

    relations: list[tuple[int, int, str, int]] = []
    for f in range(n_frames):
        for i in range(len(entities) - 1):
            a, b = entities[i], entities[i + 1]
            if f in a.action_by_frame and f in b.action_by_frame:
                relations.append((f, a.slot, rng.choice(RELATIONS), b.slot))

    world = SyntheticWorld(
        seed=seed,
        video_id=video_id,
        n_frames=n_frames,
        entities=entities,
        relations=relations,
    )

    _build_questions(world, rng, n_questions, action_pool)
    _render_artifacts(world, rng)
    return world


def _add_distractor(world: SyntheticWorld, rng: random.Random, target: EntityScript,
                    target_span: tuple[int, int], action: str) -> None:
    """Near-duplicate entity: same appearance, truncated action, far frames."""
    short_action = _drop_last_content_word(action)
    mid = world.n_frames // 2
    far_segments = [s for s in target.segments if s[1] < target_span[0] or s[0] > target_span[1]]
    if far_segments:
        home = max(far_segments, key=lambda s: min(abs(s[0] - target_span[0]), abs(s[1] - target_span[1])))
        start = home[0]
    else:
        start = 0 if target_span[0] > mid else max(0, world.n_frames - 3)
    frames = [f for f in range(start, min(start + 3, world.n_frames))]
    world.entities.append(
        EntityScript(
            slot=len(world.entities),
            appearance=target.appearance,
            noun=target.noun,
            body_pose=rng.choice(BODY_POSES),
            presence=frames,
            action_by_frame={f: short_action for f in frames},
        )
    )


def _pick_mcq_distractors(world: SyntheticWorld, rng: random.Random, answer: str,
                          protected_frames: list[int]) -> list[str]:
    """Actions whose words never occur in the protected frames' text."""
    span_words = content_words(_span_text(world, protected_frames))
    used = {a for e in world.entities for a in e.action_by_frame.values()}
    candidates = [
        a
        for a in sorted(used) + FAKE_ACTIONS
        if a != answer and not (content_words(a) & span_words)
    ]
    return candidates[:4] if len(candidates) >= 4 else (candidates + FAKE_ACTIONS)[:4]


def _shuffle_options(rng: random.Random, answer: str, distractors: list[str]) -> tuple[list[str], int]:
    options = [answer] + list(distractors)
    rng.shuffle(options)
    return options, options.index(answer)


def _build_questions(world: SyntheticWorld, rng: random.Random, n_questions: int,
                     unused_actions: list[str]) -> None:
    templates = ["before", "after", "count", "global"]
    kinds = [templates[i % len(templates)] for i in range(n_questions)]
    # Temporal questions add distractor entities; handle them first so the
    # count answers below already see the final entity set.
    ordered = [(i, k) for i, k in enumerate(kinds) if k in ("before", "after")] + [
        (i, k) for i, k in enumerate(kinds) if k not in ("before", "after")
    ]
    slots: dict[int, McqItem] = {}
    for qi, kind in ordered:
        ent = world.entities[(0 if kind == "before" else 1) % len(world.entities)]
        if kind in ("before", "after") and len(ent.segments) < 2:
            kind = "global"  # too few events for a temporal question
        if kind in ("before", "after"):
            segments = ent.segments
            if kind == "before":
                j = rng.randrange(1, len(segments))
                answer_seg = segments[j - 1]
            else:
                j = rng.randrange(0, len(segments) - 1)
                answer_seg = segments[j + 1]
            target_seg = segments[j]
            question = f"What did the {ent.appearance} do {kind} {target_seg[2]}?"
            protected = list(range(answer_seg[0], answer_seg[1] + 1)) + list(
                range(target_seg[0], target_seg[1] + 1)
            )
            _add_distractor(world, rng, ent, (target_seg[0], target_seg[1]), target_seg[2])
            distractors = _pick_mcq_distractors(world, rng, answer_seg[2], protected)
            options, answer_index = _shuffle_options(rng, answer_seg[2], distractors)
            slots[qi] = McqItem(
                question=question,
                options=options,
                answer_index=answer_index,
                category="temporal",
                video_id=world.video_id,
                subcategory="TP" if kind == "before" else "TN",
            )
            world.qa_gt_frames[qi] = sorted(set(protected))
            world.loc_annotations.append(
                LocalizationAnnotation(
                    video_id=world.video_id,
                    question=f"{ent.appearance} {target_seg[2]}",
                    gt_frames=set(range(target_seg[0], target_seg[1] + 1)),
                    category="temporal",
                )
            )
        elif kind == "count":
            noun = world.entities[0].noun
            count = sum(1 for e in world.entities if noun in e.appearance.split())
            lo = max(1, count - 2)
            numbers = list(range(lo, lo + 5))
            slots[qi] = McqItem(
                question=f"How many {noun}s appear?",
                options=[str(x) for x in numbers],
                answer_index=numbers.index(count),
                category="descriptive",
                video_id=world.video_id,
                subcategory="DC",
            )
        else:  # global
            ent = rng.choice([e for e in world.entities if e.segments])
            seg = rng.choice(ent.segments)
            answer = f"a {ent.appearance} {seg[2]}"
            fakes = []
            picks = rng.sample(range(len(FAKE_ACTIONS)), 4)
            for p in picks:
                fakes.append(
                    f"a {FAKE_ADJECTIVES[p % len(FAKE_ADJECTIVES)]} "
                    f"{FAKE_NOUNS[p % len(FAKE_NOUNS)]} {FAKE_ACTIONS[p]}"
                )
            options, answer_index = _shuffle_options(rng, answer, fakes)
            slots[qi] = McqItem(
                question="Which of these happens in the video?",
                options=options,
                answer_index=answer_index,
                category="global",
                video_id=world.video_id,
                subcategory="",
            )
    world.questions = [slots[i] for i in sorted(slots)]


def _render_artifacts(world: SyntheticWorld, rng: random.Random) -> None:
    obs_lines = []
    track_boxes: dict[int, dict[str, list[float]]] = {e.slot: {} for e in world.entities}
    for f in range(world.n_frames):
        present = [e for e in world.entities if f in e.action_by_frame]
        order = list(range(len(present)))
        rng.shuffle(order)
        local_ids = {present[slot_pos].slot: local for local, slot_pos in enumerate(order)}
        ents = []
        for ent in present:
            box = _lane_box(rng, ent.slot)
            track_boxes[ent.slot][str(f)] = box
            ents.append(
                {
                    "local_id": local_ids[ent.slot],
                    "attributes": {
                        "appearance": ent.appearance,
                        "action": ent.action_by_frame[f],
                        "body_pose": ent.body_pose,
                    },
                    "box": box,
                }
            )
        ents.sort(key=lambda e: e["local_id"])
        obs_lines.append(
            json.dumps(
                {
                    "frame_index": f,
                    "description": _frame_description(world.entities, world.relations, f, local_ids),
                    "entities": ents,
                    "source_ref": f"{world.video_id}/frame_{f:04d}.jpg",
                },
                sort_keys=True,
            )
        )
    world.observations_text = "\n".join(obs_lines) + "\n"
    world.tracklets_text = (
        json.dumps(
            {
                "tracks": [
                    {"track_id": slot, "boxes": boxes}
                    for slot, boxes in sorted(track_boxes.items())
                    if boxes
                ]
            },
            sort_keys=True,
        )
        + "\n"
    )


def make_corpus(
    seed: int,
    n_videos: int = 50,
    n_frames: int = 24,
    n_entities: int = 3,
    questions_per_video: int = 4,
) -> list[SyntheticWorld]:
    """Family of worlds with per-video seeds derived from the corpus seed."""
    return [
        synth_world(seed * 1000 + i, n_frames=n_frames, n_entities=n_entities,
                    n_questions=questions_per_video)
        for i in range(n_videos)
    ]
