"""Acceptance suite: ten oracle- and property-based criteria.

Each test prints a single ``criterion N ...: PASS`` line on success so the
suite output doubles as a checklist. Oracles here are implemented
independently of the library code they verify.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from ravu import accel
from ravu.config import RavuConfig
from ravu.datasets import McqItem
from ravu.errors import ParseError
from ravu.evaluate import (
    answer_question,
    build_video,
    eval_localization,
    eval_qa,
    report_to_json,
)
from ravu.graph_builder import EmbeddingRecord, write_embeddings
from ravu.graph_model import serialize, validate
from ravu.index import EmbeddingIndex
from ravu.ingestion import associate, parse_observations, parse_tracklets
from ravu.plan import parse_plan
from ravu.synth import make_corpus, synth_world

from conftest import make_columns, mock_backend

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(name: str):
    print(f"criterion {name}: PASS")


# ---------------------------------------------------------------------------
# Criterion 1: IoU vs rasterization oracle


def _raster_iou(a, b, cell=0.125):
    """Exact IoU for boxes whose coordinates are multiples of ``cell``.

    Rasterizes both boxes onto the cell lattice and counts member cells,
    which is exact because box edges fall on cell boundaries.
    """
    scale = round(1 / cell)
    ai = [round(v * scale) for v in a]
    bi = [round(v * scale) for v in b]
    x0, y0 = min(ai[0], bi[0]), min(ai[1], bi[1])
    x1, y1 = max(ai[2], bi[2]), max(ai[3], bi[3])
    grid_a = np.zeros((x1 - x0, y1 - y0), dtype=bool)
    grid_b = np.zeros_like(grid_a)
    grid_a[ai[0] - x0 : ai[2] - x0, ai[1] - y0 : ai[3] - y0] = True
    grid_b[bi[0] - x0 : bi[2] - x0, bi[1] - y0 : bi[3] - y0] = True
    inter = int((grid_a & grid_b).sum())
    union = int((grid_a | grid_b).sum())
    return inter / union if union else 0.0


def _lattice_box(rng, span=40, cell=0.125):
    x0 = rng.randrange(0, span * 8) * cell
    y0 = rng.randrange(0, span * 8) * cell
    w = rng.randrange(1, 16 * 8) * cell
    h = rng.randrange(1, 16 * 8) * cell
    return [x0, y0, x0 + w, y0 + h]


def test_criterion_1_iou_oracle():
    rng = random.Random(1)
    start = time.perf_counter()
    for _ in range(1000):
        a, b = _lattice_box(rng), _lattice_box(rng)
        got = float(accel.iou_rows(a, b))
        assert abs(got - _raster_iou(a, b)) < 1e-3
        assert got == float(accel.iou_rows(b, a))  # symmetry exact
        assert float(accel.iou_rows(a, a)) == 1.0  # identity exact
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("1 (IoU vs rasterization oracle)")


# ---------------------------------------------------------------------------
# Criterion 2: association vs exhaustive greedy oracle


def _oracle_iou(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def _oracle_greedy(entities, tracks, min_iou=0.1):
    """Exhaustive greedy matching: repeatedly take the globally best pair."""
    mapping = {}
    remaining_e = {lid: box for lid, box in entities}
    remaining_t = dict(tracks)
    while remaining_e and remaining_t:
        best = None
        for lid, ebox in remaining_e.items():
            for tid, tbox in remaining_t.items():
                score = _oracle_iou(ebox, tbox)
                if score < min_iou or score <= 0.0:
                    continue
                key = (-score, tid, lid)
                if best is None or key < best[0]:
                    best = (key, lid, tid)
        if best is None:
            break
        _, lid, tid = best
        mapping[lid] = tid
        del remaining_e[lid]
        del remaining_t[tid]
    return mapping


def _random_frame(rng, pool=None):
    """(entity boxes, {track_id: box}) of one random frame, biased towards overlaps and ties.

    Track IDs are ``0..n-1``, or ``n`` drawn from ``pool`` when one is given.
    """
    n_ents = rng.randint(0, 4)
    n_trks = rng.randint(0, 4)
    ent_boxes = []
    for lid in range(n_ents):
        x0, y0 = rng.randint(0, 30), rng.randint(0, 30)
        ent_boxes.append((lid, [x0, y0, x0 + rng.randint(4, 12), y0 + rng.randint(4, 12)]))
    tracks = {}
    for tid in range(n_trks) if pool is None else rng.sample(pool, n_trks):
        if ent_boxes and rng.random() < 0.6:
            # Bias toward overlap (and exact ties via duplicated boxes).
            base = rng.choice(ent_boxes)[1]
            dx = rng.choice([0, 0, 1, 3, 8])
            box = [base[0] + dx, base[1], base[2] + dx, base[3]]
        else:
            x0, y0 = rng.randint(0, 30), rng.randint(0, 30)
            box = [x0, y0, x0 + rng.randint(4, 12), y0 + rng.randint(4, 12)]
        tracks[tid] = box
    return ent_boxes, tracks


_ATTRS = {"appearance": "x", "action": "y", "body_pose": "z"}


def _observation_line(frame, ent_boxes):
    entities = [{"local_id": lid, "attributes": _ATTRS, "box": box} for lid, box in ent_boxes]
    return json.dumps({"frame_index": frame, "description": "", "entities": entities})


def _tracklets(boxes_by_track):
    """The tracklets document of ``(track_id, {frame: box})`` pairs, tracks in that order."""
    tracks = [{"track_id": tid, "boxes": {str(f): box for f, box in boxes.items()}} for tid, boxes in boxes_by_track]
    return parse_tracklets(json.dumps({"tracks": tracks}))


def _oracle_ids(ent_boxes, tracks, fresh):
    """The oracle's mapping of one frame, and the next fresh ID after it."""
    expected = _oracle_greedy(ent_boxes, tracks)
    for lid, _ in sorted(ent_boxes):
        if lid not in expected:
            expected[lid] = fresh
            fresh += 1
    return expected, fresh


def test_criterion_2_association_oracle():
    rng = random.Random(2)
    start = time.perf_counter()
    for frame in range(200):
        ent_boxes, tracks = _random_frame(rng)
        tracklets = _tracklets((tid, {0: box}) for tid, box in tracks.items())
        got = associate(parse_observations(_observation_line(0, ent_boxes)), tracklets, min_iou=0.1, fps=1.0).id_map[0]

        expected, _ = _oracle_ids(ent_boxes, tracks, max(tracks, default=-1) + 1)
        assert got == expected, f"frame {frame}: {got} != {expected}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("2 (association vs greedy oracle)")


def test_criterion_2_association_oracle_across_frames():
    """All 200 random frames in one call: tracks span frames, frame lines and
    tracklets arrive shuffled, and fresh IDs carry over in frame order."""
    rng = random.Random(22)
    frames = [_random_frame(rng, pool=range(9)) for _ in range(200)]
    boxes_by_track: dict[int, dict[int, list[int]]] = {}
    for frame, (_, tracks) in enumerate(frames):
        for tid, box in tracks.items():
            boxes_by_track.setdefault(tid, {})[frame] = box
    shuffled = list(boxes_by_track.items())
    rng.shuffle(shuffled)
    order = list(range(len(frames)))
    rng.shuffle(order)
    observations = parse_observations("\n".join(_observation_line(f, frames[f][0]) for f in order))
    tracklets = _tracklets(shuffled)

    start = time.perf_counter()
    got = associate(observations, tracklets, min_iou=0.1, fps=1.0)
    elapsed = time.perf_counter() - start

    fresh = max(boxes_by_track, default=-1) + 1
    expected = {}
    for f in range(len(frames)):
        expected[f], fresh = _oracle_ids(*frames[f], fresh)
        assert got.id_map[f] == expected[f], f"frame {f}: {got.id_map[f]} != {expected[f]}"
    assert got.id_map == expected
    nodes = sorted((f, entity_id) for f, mapping in expected.items() for entity_id in mapping.values())
    assert [(n.frame_index, n.entity_id) for n in got.nodes] == nodes
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("2 (association vs greedy oracle, 200 frames in one call)")


# ---------------------------------------------------------------------------
# Criterion 3: index top-k vs full-sort oracle


def test_criterion_3_index_exactness():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(1, 1001))
        dim = int(rng.integers(4, 32))
        vectors = rng.standard_normal((n, dim))
        # Inject exact ties: duplicate a block of rows.
        if n >= 10:
            vectors[n // 2 : n // 2 + 5] = vectors[:5]
        records = [
            EmbeddingRecord(int(rng.integers(0, 8)), i, f"r{i}", vectors[i])
            for i in range(n)
        ]
        index = EmbeddingIndex(make_columns(records))
        k = int(rng.integers(1, n + 2))
        q = rng.standard_normal(dim)
        got = [(c.frame_index, c.entity_id) for c in index.top_k(q, k)]

        norms = np.linalg.norm(vectors, axis=1) * np.linalg.norm(q)
        scores = (vectors @ q) / np.where(norms == 0, 1, norms)
        oracle = sorted(
            range(n), key=lambda i: (-scores[i], records[i].frame_index, records[i].entity_id)
        )[: min(k, n)]
        assert got == [(records[i].frame_index, records[i].entity_id) for i in oracle]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report("3 (top-k vs full-sort oracle)")


# ---------------------------------------------------------------------------
# Criteria 4-9 share the synthetic corpus


@pytest.fixture(scope="module")
def corpus():
    start = time.perf_counter()
    worlds = make_corpus(42, n_videos=50)
    backend = mock_backend()
    cfg = RavuConfig()
    assets = {
        w.video_id: build_video(w.observations_text, w.tracklets_text, backend, cfg)
        for w in worlds
    }
    audits = {}
    for w in worlds:
        for qi, item in enumerate(w.questions):
            audits[(w.video_id, qi)] = answer_question(assets[w.video_id], item, backend)
    elapsed = time.perf_counter() - start
    return {
        "worlds": worlds,
        "assets": assets,
        "audits": audits,
        "backend": backend,
        "elapsed": elapsed,
    }


def test_criterion_4_event_invariants():
    backend = mock_backend()
    cfg = RavuConfig()
    for seed in range(20):
        w = synth_world(seed)
        assets = build_video(w.observations_text, w.tracklets_text, backend, cfg)
        violations = validate(assets.graph)
        assert violations == [], f"seed {seed}: {violations}"
        assert assets.build_report.fallback_entities == [], f"seed {seed}"
        assert set(assets.graph.events) == {e.slot for e in w.entities}
    _report("4 (event invariants, 20 seeds, 0 fallbacks)")


def test_criterion_5_end_to_end_qa(corpus):
    worlds, audits = corpus["worlds"], corpus["audits"]
    total = correct = 0
    temporal_total = temporal_within = 0
    for w in worlds:
        for qi, item in enumerate(w.questions):
            audit = audits[(w.video_id, qi)]
            total += 1
            correct += audit.choice == item.answer_index
            if item.category == "temporal":
                temporal_total += 1
                temporal_within += set(audit.frames) <= set(w.qa_gt_frames[qi])
    assert total == 200
    accuracy = correct / total
    within = temporal_within / temporal_total
    assert accuracy >= 0.95, f"accuracy {accuracy:.3f}"
    assert within >= 0.90, f"temporal frames within oracle spans: {within:.3f}"
    assert corpus["elapsed"] < 60.0, f"took {corpus['elapsed']:.1f}s"

    # Frozen golden report for the exact expected outputs.
    items = [item for w in worlds for item in w.questions]
    report = eval_qa(items, corpus["assets"], corpus["backend"])
    golden = (GOLDEN_DIR / "qa_report_seed42.json").read_text()
    assert report_to_json(report) == golden
    _report(f"5 (end-to-end QA: acc {accuracy:.3f}, temporal-within {within:.3f})")


def test_criterion_6_rerank_beats_text_embedding(corpus):
    annotations = [a for w in corpus["worlds"] for a in w.loc_annotations]
    backend = corpus["backend"]
    rerank = eval_localization(annotations, corpus["assets"], backend, RavuConfig(), method="rerank")
    text = eval_localization(annotations, corpus["assets"], backend, RavuConfig(), method="text_embedding")
    r, t = rerank["overall"]["accuracy"], text["overall"]["accuracy"]
    assert r > t, f"rerank {r:.3f} not above text_embedding {t:.3f}"
    golden = (GOLDEN_DIR / "loc_report_seed42.json").read_text()
    assert report_to_json({"rerank": rerank, "text_embedding": text}) == golden
    _report(f"6 (localization direction: rerank {r:.3f} > text {t:.3f})")


def test_criterion_7_dual_mode_blocking(corpus):
    worlds, backend = corpus["worlds"], corpus["backend"]
    items = [item for w in worlds[:3] for item in w.questions][:10]
    assert len(items) == 10
    blocked = items[4]
    items[4] = McqItem(
        question=blocked.question + " [BLOCK]",
        options=blocked.options,
        answer_index=blocked.answer_index,
        category=blocked.category,
        video_id=blocked.video_id,
    )
    report = eval_qa(items, corpus["assets"], backend)
    assert report["overall"]["blocked"] == 1
    assert report["overall"]["non_blocked_accuracy"] == 1.0
    assert report["overall"]["overall_accuracy"] == 0.9
    _report("7 (dual-mode blocked reporting: 1.0 / 0.9)")


def test_criterion_8_determinism(corpus):
    worlds = corpus["worlds"]
    runs = []
    for _ in range(2):
        backend = mock_backend()
        cfg = RavuConfig()
        rebuilt_worlds = make_corpus(42, n_videos=50)
        graphs = []
        embeddings = []
        assets = {}
        for w in rebuilt_worlds:
            a = build_video(w.observations_text, w.tracklets_text, backend, cfg)
            assets[w.video_id] = a
            graphs.append(serialize(a.graph))
            embeddings.append(_embedding_bytes(a.index.records))
        items = [item for w in rebuilt_worlds for item in w.questions]
        report = report_to_json(eval_qa(items, assets, backend))
        runs.append((graphs, embeddings, report))
    assert runs[0] == runs[1]
    # And the rebuilt corpus matches the fixture's artifacts bit-for-bit.
    assert [w.observations_text for w in worlds] == [
        w.observations_text for w in make_corpus(42, n_videos=50)
    ]
    _report("8 (two full runs byte-identical)")


def _embedding_bytes(columns):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        bin_path = Path(tmp) / "e.bin"
        idx_path = Path(tmp) / "e.idx"
        write_embeddings(columns, bin_path, idx_path)
        return bin_path.read_bytes() + idx_path.read_bytes()


def test_criterion_9_budget_conformance(corpus):
    counts = [len(a.frames) for a in corpus["audits"].values()]
    assert max(counts) <= 5
    mean = sum(counts) / len(counts)
    assert mean >= 4.5, f"mean retrieved frames {mean:.2f}"
    _report(f"9 (budget: max {max(counts)}, mean {mean:.2f})")


# ---------------------------------------------------------------------------
# Criterion 10: plan DSL


NEGATIVE_PLANS = [
    ("frobnicate()", 1),
    ('localize_node(query="x")\nteleport(query="y")', 2),
    ("localize_node()", 1),
    ('localize_node(q="x")', 1),
    ("localize_node(query=3)", 1),
    ('analyze_events(query="y", node=$1)', 1),
    ('localize_node(query="x")\nanalyze_events(query="y", node=$5)', 2),
    ('analyze_events(query="y", node=$0)', 1),
    ('localize_node(query="x")\nanalyze_events(query="y", node=7)', 2),
    ('analyze_events(query="y", node="thing")', 1),
    ('localize_node(query="x")\nlocalize_node(query=$1)', 2),
    ('extract_temporal_part(target_part="start")', 1),
    ("extract_temporal_part(target_part=1)", 1),
    ('localize_node(query="x")\n'
     'sample_entity_events(node=$1, sample_start_time=$1, events_to_sample="all")', 2),
    ('localize_node(query="x")\nanalyze_events(query="y", node=$1)\n'
     'sample_entity_events(node=$2, sample_start_time=$2, events_to_sample="all")', 3),
    ('localize_node(query="x")\n'
     'sample_entity_events(node=$1, sample_start_time=0, events_to_sample="previous:0")', 2),
    ('localize_node(query="x")\n'
     'sample_entity_events(node=$1, sample_start_time=0, events_to_sample="sideways:2")', 2),
    ('localize_node(query="x" query="y")', 1),
    ('localize_node(query="x", query="y")', 1),
    ("just some prose", 1),
]


def test_criterion_10_plan_dsl():
    plan = parse_plan(
        'localize_node(query="man on stage sitting")\n'
        'analyze_events(query="when did the man start sitting", node=$1)\n'
        'sample_entity_events(node=$1, sample_start_time=$2, events_to_sample="previous:1")'
    )
    assert len(plan.steps) == 3

    assert len(NEGATIVE_PLANS) == 20
    for text, line in NEGATIVE_PLANS:
        with pytest.raises(ParseError) as exc:
            parse_plan(text)
        assert exc.value.line == line, f"{text!r}: line {exc.value.line} != {line}"
    _report("10 (plan DSL: canonical accepted, 20 rejections line-accurate)")
