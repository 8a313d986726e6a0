import pytest

from ravu.ingestion import associate, parse_observations, parse_tracklets
from ravu.synth import make_corpus, synth_world


def test_same_seed_is_byte_identical():
    a = synth_world(11)
    b = synth_world(11)
    assert a.observations_text == b.observations_text
    assert a.tracklets_text == b.tracklets_text
    assert a.questions == b.questions
    assert a.loc_annotations == b.loc_annotations


def test_different_seeds_differ():
    assert synth_world(1).observations_text != synth_world(2).observations_text


def test_artifacts_parse_and_associate_to_scripted_ids(world):
    observations = parse_observations(world.observations_text)
    tracklets = parse_tracklets(world.tracklets_text)
    assert len(observations.counts) == world.n_frames
    result = associate(observations, tracklets, min_iou=0.1, fps=1.0)
    # Every node's entity id is a scripted slot with matching presence.
    by_slot = {e.slot: e for e in world.entities}
    for node in result.nodes:
        script = by_slot[node.entity_id]
        assert node.frame_index in script.presence
        assert node.attributes["appearance"] == script.appearance


def test_segments_oracle_is_contiguous_partition(world):
    for ent in world.entities:
        covered = []
        for start, end, action in ent.segments:
            assert start <= end
            assert action
            covered.extend(range(start, end + 1))
        assert covered == ent.presence


def test_questions_have_valid_answers(world):
    assert world.questions
    for item in world.questions:
        assert len(item.options) == 5
        assert item.options[item.answer_index]
        assert len(set(item.options)) == len(item.options)


def test_temporal_ground_truth_spans(world):
    temporal = [
        (qi, q) for qi, q in enumerate(world.questions) if q.category == "temporal"
    ]
    assert temporal
    for qi, q in temporal:
        frames = world.qa_gt_frames[qi]
        assert frames == sorted(set(frames))
        assert all(0 <= f < world.n_frames for f in frames)


def test_localization_annotations(world):
    assert world.loc_annotations
    for ann in world.loc_annotations:
        assert ann.video_id == world.video_id
        assert ann.gt_frames
        assert all(0 <= f < world.n_frames for f in ann.gt_frames)


def test_absence_gap_is_scripted(world):
    # Entity 1 sits out two frames, so its presence is not the full range.
    ent = world.entities[1]
    assert len(ent.presence) == world.n_frames - 2


def test_distractor_entities_share_appearance(world):
    # Temporal questions add near-duplicate entities beyond the base three.
    base = 3
    assert len(world.entities) > base
    appearances = {e.appearance for e in world.entities[:base]}
    for distractor in world.entities[base:]:
        assert distractor.appearance in appearances
        assert len(distractor.presence) <= 3


def test_make_corpus_distinct_videos():
    worlds = make_corpus(5, n_videos=3)
    ids = [w.video_id for w in worlds]
    assert len(set(ids)) == 3


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        synth_world(0, n_frames=0)


def test_single_entity_world():
    w = synth_world(3, n_entities=1, n_questions=2)
    assert w.questions
    observations = parse_observations(w.observations_text)
    assert len(observations.counts) == w.n_frames
