import json
import re
from collections import namedtuple
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ravu import accel
from ravu.errors import MALFORMED, ParseError
from ravu.graph_model import BoundingBox, EntityNode, FrameRecord, NodeTable, parse_box, parse_boxes
from ravu.ingestion import (
    AssociationResult,
    associate,
    parse_observations,
    parse_tracklets,
)
from ravu.synth import synth_world

# A drawn video's records, as the oracle reads them and as ``documents`` writes them out.
FrameObservation = namedtuple("FrameObservation", "frame_index description entities source_ref", defaults=[""])
Tracklet = namedtuple("Tracklet", "track_id boxes")

ATTRS = {"appearance": "a", "action": "b", "body_pose": "c"}


def bb(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


def obs_line(frame, entities, description="", source_ref=""):
    return json.dumps(
        {
            "frame_index": frame,
            "description": description,
            "source_ref": source_ref,
            "entities": [
                {"local_id": lid, "attributes": ATTRS, "box": box} for lid, box in entities
            ],
        }
    )


def tracks_doc(tracks):
    return json.dumps(
        {"tracks": [{"track_id": tid, "boxes": {str(f): b for f, b in boxes.items()}}
                    for tid, boxes in tracks]}
    )


def documents(observations, tracklets):
    """The observations and tracklets documents of a video's records, lines and tracks in list order."""
    lines = [
        obs_line(o.frame_index, [(lid, list(box)) for lid, _, box in o.entities], o.description, o.source_ref)
        for o in observations
    ]
    tracks = [(t.track_id, {f: list(box) for f, box in t.boxes.items()}) for t in tracklets]
    return "\n".join(lines), tracks_doc(tracks)


def associate_video(observations, tracklets, min_iou=0.1, fps=1.0):
    """``associate`` on a video's records, written out as its two documents and parsed back."""
    observations_text, tracklets_text = documents(observations, tracklets)
    return associate(parse_observations(observations_text), parse_tracklets(tracklets_text), min_iou, fps)


def test_parse_observations_round_trip():
    doc = "\n".join([obs_line(1, [(4, [0, 0, 5, 5.5]), (2, [1, 1, 2, 2])], "one", "b"), obs_line(0, [], "zero", "a")])
    parsed = parse_observations(doc)
    assert (parsed.descriptions, parsed.source_refs, parsed.counts) == (["zero", "one"], ["a", "b"], [0, 2])
    assert parsed.local_ids == [4, 2]
    assert [parsed.attributes[s] for s in parsed.state] == [ATTRS, ATTRS]
    assert parsed.boxes.dtype == np.float64
    assert parsed.boxes.tolist() == [[0.0, 0.0, 5.0, 5.5], [1.0, 1.0, 2.0, 2.0]]


def attributes_line(frame, attribute_sets):
    """An observations line of a frame whose entities carry ``attribute_sets``, one each, in order."""
    entities = [{"local_id": i, "attributes": a, "box": [0, 0, 1, 1]} for i, a in enumerate(attribute_sets)]
    return json.dumps({"frame_index": frame, "entities": entities})


def test_parse_observations_keeps_each_attribute_set_once_by_its_texts():
    # A JSON true reads as "True", so it and "true" are two sets; 1 and "1" read alike, and so are one.
    sets = [{"n": True}, {"n": "true"}, {"n": 1}, {"n": "1"}, {"n": 1.0}, {"n": [1]}, {"n": "[1]"}, {"n": True},
            {"a": "1", "b": "2"}, {"b": "2", "a": "1"}, {}]
    parsed = parse_observations("\n".join([attributes_line(0, sets[:6]), attributes_line(1, sets[6:])]))
    assert [parsed.attributes[s] for s in parsed.state] == [
        {"n": "True"}, {"n": "true"}, {"n": "1"}, {"n": "1"}, {"n": "1.0"}, {"n": "[1]"}, {"n": "[1]"},
        {"n": "True"}, {"a": "1", "b": "2"}, {"b": "2", "a": "1"}, {},
    ]
    # Entities of one set share its dict; sets are told apart in key order.
    assert parsed.state.tolist() == [0, 1, 2, 2, 3, 4, 4, 0, 5, 6, 7]
    assert len(parsed.attributes) == 8 and [list(a) for a in parsed.attributes[5:7]] == [["a", "b"], ["b", "a"]]


@pytest.mark.parametrize("lines, line", [
    # A set seen clean on line 1 comes again on line 3, after line 2's broken set: line 2 is named.
    ([[ATTRS], [ATTRS, {**ATTRS, "action": "a\nb"}], [ATTRS, {**ATTRS, "action": "a\nb"}]], 2),
    # Lines 1 and 2 share a clean set; line 3's broken set is named.
    ([[ATTRS], [ATTRS], [{**ATTRS, "action": "a\u2028b"}, ATTRS]], 3),
])
def test_parse_observations_names_the_first_line_with_a_broken_attribute_set(lines, line):
    # Lines in document order hold frames 1, 0 and 2: the error names a line, whatever its frame.
    document = "\n".join(attributes_line(f, sets) for f, sets in zip([1, 0, 2], lines))
    with pytest.raises(ParseError, match="line break in an attribute") as exc:
        parse_observations(document)
    assert (exc.value.line, exc.value.field) == (line, "attributes")


def test_an_ingested_video_has_a_state_per_distinct_attribute_set():
    world = synth_world(11, 600, 8)
    assoc = associate(parse_observations(world.observations_text), parse_tracklets(world.tracklets_text), 0.1, 1.0)
    nodes = assoc.nodes
    assert (len(nodes), len(nodes.attributes), len(nodes.descriptions)) == (4804, 34, 34)
    assert len({frozenset(a.items()) for a in nodes.attributes}) == 34
    # Each node's state holds the attributes its observation lists.
    listed = {(f["frame_index"], e["local_id"]): e["attributes"]
              for f in map(json.loads, world.observations_text.splitlines()) for e in f["entities"]}
    local_of = {(f, entity_id): local for f, mapping in assoc.id_map.items() for local, entity_id in mapping.items()}
    assert all(dict(nodes.attributes[s]) == listed[f, local_of[f, e]]
               for e, f, s in zip(nodes.entity.tolist(), nodes.frame.tolist(), nodes.state.tolist()))


def test_parse_observations_rejects_gaps_and_duplicates():
    with pytest.raises(ParseError, match="not dense"):
        parse_observations(obs_line(1, []))
    doc = "\n".join([obs_line(0, []), obs_line(0, [])])
    with pytest.raises(ParseError, match="duplicate frame") as exc:
        parse_observations(doc)
    assert exc.value.line == 2


def test_parse_observations_rejects_bad_box():
    with pytest.raises(ParseError, match="box"):
        parse_observations(obs_line(0, [(0, [5, 5, 1, 1])]))
    with pytest.raises(ParseError, match="box"):
        parse_observations(obs_line(0, [(0, [1, 2, 3])]))


def test_parse_observations_rejects_duplicate_local_id():
    with pytest.raises(ParseError, match="local_id"):
        parse_observations(obs_line(0, [(0, [0, 0, 1, 1]), (0, [2, 2, 3, 3])]))


# Every character ``str.splitlines`` splits at.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_line_breaks_are_what_splitlines_splits_at():
    assert all(len(f"a{b}b".splitlines()) == 2 for b in LINE_BREAKS)


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_parse_observations_rejects_a_line_break_in_a_description(brk):
    doc = "\n".join([obs_line(0, []), obs_line(1, [], description=f"the dog sits.{brk}[E1] looking toward [E2].")])
    with pytest.raises(ParseError, match="line break in description") as exc:
        parse_observations(doc)
    assert (exc.value.line, exc.value.field) == (2, "description")


@pytest.mark.parametrize("attributes", [
    {**ATTRS, "action": "run\nrelations:\n1|x|2"},
    {**ATTRS, "appearance": "red\u2028fox"},
    {**ATTRS, "body\rpose": "c"},
])
def test_parse_observations_rejects_a_line_break_in_an_attribute(attributes):
    doc = "\n".join([
        obs_line(0, []),
        json.dumps({"frame_index": 1, "entities": [{"local_id": 4, "attributes": attributes, "box": [0, 0, 1, 1]}]}),
    ])
    with pytest.raises(ParseError, match="entity 4 has a line break") as exc:
        parse_observations(doc)
    assert (exc.value.line, exc.value.field) == (2, "attributes")


def test_parse_observations_keeps_escapes_that_are_not_line_breaks():
    doc = obs_line(0, [(0, [0, 0, 1, 1])], description='a \\ "quoted"\tcaf\u00e9')
    assert "\\" in doc
    assert parse_observations(doc).descriptions == ['a \\ "quoted"\tcaf\u00e9']


def test_parse_tracklets():
    tracks = parse_tracklets(tracks_doc([(3, {0: [0, 0, 1, 1], 2: [1, 1, 4, 4]}), (2**63 - 1, {1: [5, 5, 6, 7]})]))
    assert tracks.ids == [3, 2**63 - 1]
    assert tracks.track.tolist() == [0, 0, 1]
    assert (tracks.frames.dtype, tracks.frames.tolist()) == (np.int64, [0, 2, 1])
    assert tracks.boxes.tolist() == [[0, 0, 1, 1], [1, 1, 4, 4], [5, 5, 6, 7]]
    with pytest.raises(ParseError, match="tracks"):
        parse_tracklets("{}")
    with pytest.raises(ParseError, match="duplicate track_id"):
        parse_tracklets(tracks_doc([(1, {0: [0, 0, 1, 1]}), (1, {0: [0, 0, 1, 1]})]))
    with pytest.raises(ParseError, match="no boxes"):
        parse_tracklets(tracks_doc([(1, {})]))


@pytest.mark.parametrize("track_id", [2**63, -(2**63) - 1, 2**70])
def test_parse_tracklets_rejects_a_track_id_outside_int64(track_id):
    with pytest.raises(ParseError, match=f"^track_id {track_id} does not fit in int64$") as exc:
        parse_tracklets(tracks_doc([(1, {0: [0, 0, 1, 1]}), (track_id, {0: [0, 0, 1, 1]})]))
    assert exc.value.field == "track_id"


def test_parse_tracklets_rejects_a_frame_listed_twice():
    doc = '{"tracks": [{"track_id": 7, "boxes": {"1": [0, 0, 1, 1], "01": [5, 5, 6, 6]}}]}'
    with pytest.raises(ParseError, match=r"^tracklet 7 lists frame 1 twice$") as exc:
        parse_tracklets(doc)
    assert exc.value.field == "boxes"


@pytest.mark.parametrize("field, value", [
    ("frame_index", 1.5), ("frame_index", True), ("local_id", 1.7), ("local_id", False), ("local_id", True),
])
def test_parse_observations_rejects_a_boolean_or_fractional_id(field, value):
    frame = json.loads(obs_line(1, [(1, [0, 0, 1, 1])]))
    if field == "frame_index":
        frame["frame_index"] = value
    else:
        frame["entities"][0]["local_id"] = value
    with pytest.raises(ParseError, match=f"{field} must be an integer, got {value!r}") as exc:
        parse_observations(obs_line(0, []) + "\n" + json.dumps(frame))
    assert (exc.value.line, exc.value.field) == (2, field)


@pytest.mark.parametrize("value", [2.5, True, False])
def test_parse_tracklets_rejects_a_boolean_or_fractional_track_id(value):
    with pytest.raises(ParseError, match=f"track_id must be an integer, got {value!r}") as exc:
        parse_tracklets(tracks_doc([(value, {0: [0, 0, 1, 1]})]))
    assert exc.value.field == "track_id"


def test_integral_numbers_still_read_as_ids():
    assert parse_tracklets(tracks_doc([(3.0, {0: [0, 0, 1, 1]})])).ids == [3]
    assert parse_observations(obs_line(0.0, [(2.0, [0, 0, 1, 1])])).local_ids == [2]


def test_readers_raise_the_first_error_in_document_order():
    # Boxes are checked after the document is read, yet a bad box still comes
    # before a later error of another kind, and after an earlier one.
    doc = "\n".join([obs_line(0, []), obs_line(1, [(3, [5, 5, 1, 1])]), obs_line(1, [])])
    with pytest.raises(ParseError, match="box of entity 3") as exc:
        parse_observations(doc)
    assert exc.value.line == 2
    doc = "\n".join([obs_line(0, []), obs_line(0, [(3, [5, 5, 1, 1])])])
    with pytest.raises(ParseError, match="duplicate frame 0"):
        parse_observations(doc)
    with pytest.raises(ParseError, match="box of track 4 frame 01"):
        parse_tracklets(tracks_doc([(4, {0: [0, 0, 1, 1], "01": [0, 0, 1]}), (4, {0: [0, 0, 1, 1]})]))
    with pytest.raises(ParseError, match="duplicate track_id 4"):
        parse_tracklets(tracks_doc([(4, {0: [0, 0, 1, 1]}), (4, {0: [0, 0, 1]})]))


# JSON values as ``json.loads`` gives them: integers of any size, floats with
# NaN and infinity (``1e400`` reads as infinity), booleans, strings, null,
# arrays and objects.
JSON_NUMBERS = st.one_of(
    st.integers(0, 60),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1025, 2**64 - 1, 2**64, -(2**63) - 1, 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e400, -1e400, -0.0, float("nan")]),
    st.booleans(),
)
JSON_OTHERS = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.sampled_from(["1.5", " 2 ", "nan", "Infinity", "1_0", "\u0661", "0x1"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)


@st.composite
def raw_boxes(draw):
    """A raw box: mostly one that parses, written with ints, floats or booleans; else anything."""
    if draw(st.integers(0, 2)):
        number = st.one_of(st.integers(0, 40), st.floats(0, 40), st.booleans())
        x0, y0, w, h = (draw(number) for _ in range(4))
        return [x0, y0, x0 + w + draw(st.sampled_from([0, 1, 0.5])), y0 + h + 1]
    return draw(st.one_of(
        st.lists(st.one_of(JSON_NUMBERS, JSON_OTHERS), min_size=4, max_size=4),
        st.lists(JSON_NUMBERS, max_size=6),
        JSON_NUMBERS,
        JSON_OTHERS,
    ))


def parse_box_error(raw, where, *args) -> str:
    try:
        parse_box(raw, where, *args)
    except MALFORMED as exc:
        return str(exc)
    raise AssertionError(f"parse_box accepts {raw!r}")


@settings(max_examples=300, deadline=None)
@given(st.lists(raw_boxes(), max_size=6))
@example([[0, 0, 1, 1], [2**63, 0, 2**64, 1], [True, False, 2, True]])
@example([[0, 0, 1, 1], [0, 0, 1, None], [0, 0, 1, 1]])
@example([[0, 0, 1, 1], [0, 0, 1, 10**400]])
@example([[0.5, 0, "2", 1]])
def test_parse_boxes_agrees_with_parse_box(raws):
    want = []
    for raw in raws:
        try:
            want.append(tuple(parse_box(raw, "box")))
        except MALFORMED:
            break
    boxes, n_ok = parse_boxes(raws)
    assert n_ok == len(want)
    assert boxes[:n_ok].tobytes() == np.array(want, dtype=np.float64).reshape(-1, 4).tobytes()

    # Through both readers: the same boxes, or ``parse_box``'s message for the first bad one.
    tracks = tracks_doc([(i, {0: raw}) for i, raw in enumerate(raws)])
    frame = obs_line(0, list(enumerate(raws)))
    if n_ok == len(raws):
        assert parse_tracklets(tracks).boxes.tobytes() == boxes.tobytes()
        assert parse_observations(frame).boxes.tobytes() == boxes.tobytes()
    else:
        bad = raws[n_ok]
        with pytest.raises(ParseError) as exc:
            parse_tracklets(tracks)
        assert str(exc.value) == f"malformed tracklet: {parse_box_error(bad, 'track %s frame %s', n_ok, '0')}"
        with pytest.raises(ParseError) as exc:
            parse_observations(frame)
        assert str(exc.value) == f"line 1: malformed frame: {parse_box_error(bad, 'entity %s', n_ok)}"


def frame_obs(frame, entities, description=""):
    return FrameObservation(frame, description, [(lid, dict(ATTRS), box) for lid, box in entities])


def test_associate_basic_match():
    observations = [frame_obs(0, [(0, bb(0, 0, 10, 10)), (1, bb(40, 0, 50, 10))])]
    tracklets = [
        Tracklet(0, {0: bb(1, 0, 11, 10)}),
        Tracklet(1, {0: bb(39, 0, 49, 10)}),
    ]
    result = associate_video(observations, tracklets)
    assert result.id_map[0] == {0: 0, 1: 1}


def test_associate_threshold():
    # Overlap of 1 unit area vs union 19: IoU ~ 0.053 < 0.1 -> fresh id.
    observations = [frame_obs(0, [(0, bb(0, 0, 10, 1))])]
    tracklets = [Tracklet(5, {0: bb(9, 0, 19, 1)})]
    result = associate_video(observations, tracklets, min_iou=0.1)
    assert result.id_map[0] == {0: 6}  # fresh id above max track id


def test_associate_tie_breaks_to_lowest_track_id():
    shared = bb(0, 0, 10, 10)
    observations = [frame_obs(0, [(0, shared)])]
    tracklets = [Tracklet(7, {0: shared}), Tracklet(2, {0: shared})]
    result = associate_video(observations, tracklets)
    assert result.id_map[0][0] == 2


def test_associate_tie_between_entities_breaks_to_lowest_local_id():
    shared = bb(0, 0, 10, 10)
    observations = [frame_obs(0, [(3, shared), (1, shared), (2, bb(0, 0, 10, 5))])]
    result = associate_video(observations, [Tracklet(0, {0: shared})])
    assert result.id_map[0] == {1: 0, 2: 1, 3: 2}


def test_associate_keeps_local_ids_of_any_size_and_track_ids_up_to_int64():
    # Local IDs of 2**63 and up do not fit an int64; numpy would hold them as equal floats.
    big, top = 2**63, 2**63 - 3
    shared = bb(0, 0, 10, 10)
    observations = [frame_obs(0, [(big + 1, shared), (big, shared), (2**70, bb(50, 50, 60, 60))])]
    tracklets = [Tracklet(top + 1, {0: shared}), Tracklet(top, {0: shared})]
    result = associate_video(observations, tracklets)
    assert result.id_map[0] == {big: top, big + 1: top + 1, 2**70: top + 2}
    assert all(type(v) is int for v in result.id_map[0].values())


def test_associate_rejects_fresh_ids_past_int64():
    # One unmatched entity above a track at 2**63 - 1 would take the ID 2**63.
    observations = [frame_obs(0, [(0, bb(0, 0, 10, 10)), (1, bb(50, 50, 60, 60))])]
    tracklets = [Tracklet(2**63 - 1, {0: bb(0, 0, 10, 10)})]
    with pytest.raises(ParseError, match="1 unmatched entities need fresh IDs above track 9223372036854775807") as exc:
        associate_video(observations, tracklets)
    assert exc.value.field == "track_id"
    # With every entity matched, no fresh ID is needed.
    matched = [frame_obs(0, [(0, bb(0, 0, 10, 10))])]
    assert associate_video(matched, tracklets).id_map == {0: {0: 2**63 - 1}}


def test_associate_one_to_one_with_fallthrough():
    # Both entities overlap track 0 best, but only one may take it; the
    # loser falls through to track 1.
    observations = [
        frame_obs(0, [(0, bb(0, 0, 10, 10)), (1, bb(2, 0, 12, 10))])
    ]
    tracklets = [
        Tracklet(0, {0: bb(0, 0, 10, 10)}),
        Tracklet(1, {0: bb(4, 0, 14, 10)}),
    ]
    result = associate_video(observations, tracklets)
    assert result.id_map[0] == {0: 0, 1: 1}


def test_associate_fresh_ids_in_local_order():
    observations = [frame_obs(0, [(2, bb(0, 0, 1, 1)), (1, bb(5, 5, 6, 6))])]
    result = associate_video(observations, [Tracklet(9, {0: bb(50, 50, 60, 60)})])
    assert result.id_map[0] == {1: 10, 2: 11}


def test_associate_rewrites_mentions():
    observations = [
        frame_obs(0, [(0, bb(0, 0, 10, 10))], description="[E0] waves at [E3].")
    ]
    tracklets = [Tracklet(4, {0: bb(0, 0, 10, 10)})]
    result = associate_video(observations, tracklets)
    # Mapped mention rewritten; unknown local mention left as-is.
    assert result.frames[0].description == "[E4] waves at [E3]."


def test_associate_rejects_out_of_range_tracklet_frame():
    observations = [frame_obs(0, [])]
    with pytest.raises(ParseError, match="unknown frame"):
        associate_video(observations, [Tracklet(0, {3: bb(0, 0, 1, 1)})])


def test_associate_timestamps_follow_fps():
    observations = [frame_obs(0, []), frame_obs(1, [])]
    result = associate_video(observations, [], fps=2.0)
    assert [f.timestamp_s for f in result.frames] == [0.0, 0.5]


@pytest.mark.parametrize("fps", [0.0, -1.0, float("nan"), float("inf")])
def test_associate_rejects_an_fps_that_is_not_finite_and_positive(fps):
    # The tracklet names an unknown frame: the fps is checked before that, before any work.
    with pytest.raises(ValueError, match="^fps must be a finite number > 0, got "):
        associate_video([frame_obs(0, [])], [Tracklet(0, {3: bb(0, 0, 1, 1)})], fps=fps)


@pytest.mark.parametrize("min_iou", [-0.1, 1.5, float("nan")])
def test_associate_rejects_a_min_iou_outside_0_to_1(min_iou):
    with pytest.raises(ValueError, match=f"^min_iou must be between 0 and 1, got {min_iou}$"):
        associate_video([frame_obs(0, [])], [Tracklet(0, {3: bb(0, 0, 1, 1)})], min_iou=min_iou)


def test_associate_matches_at_exactly_min_iou():
    # IoU is exactly 0.5: inter 2, union 4.
    observations = [frame_obs(0, [(0, bb(0, 0, 2, 2))])]
    tracklets = [Tracklet(3, {0: bb(0, 0, 2, 1)})]
    assert associate_video(observations, tracklets, min_iou=0.5).id_map[0] == {0: 3}
    assert associate_video(observations, tracklets, min_iou=0.5000001).id_map[0] == {0: 4}


def test_associate_min_iou_bounds():
    observations = [frame_obs(0, [(0, bb(0, 0, 2, 2)), (1, bb(10, 10, 12, 12)), (2, bb(20, 20, 22, 22))])]
    tracklets = [
        Tracklet(0, {0: bb(0, 0, 2, 2)}),
        Tracklet(1, {0: bb(11, 11, 13, 13)}),
        Tracklet(2, {0: bb(30, 30, 31, 31)}),
    ]
    # min_iou 1 takes only identical boxes; min_iou 0 takes any overlap but never a disjoint pair.
    assert associate_video(observations, tracklets, min_iou=1.0).id_map[0] == {0: 0, 1: 3, 2: 4}
    assert associate_video(observations, tracklets, min_iou=0.0).id_map[0] == {0: 0, 1: 1, 2: 3}


def test_associate_reads_frame_lines_in_any_order():
    observations = [
        frame_obs(2, [(0, bb(0, 0, 4, 4)), (1, bb(20, 20, 24, 24))], "[E1] sees [E0]"),
        frame_obs(0, [(5, bb(50, 50, 54, 54))]),
        frame_obs(1, [(0, bb(20, 20, 24, 24))]),
    ]
    tracklets = [Tracklet(1, {1: bb(20, 20, 24, 24), 2: bb(0, 0, 4, 4)}), Tracklet(0, {0: bb(0, 0, 4, 4)})]
    result = associate_video(observations, tracklets)
    # Frames come in index order, whatever the order of their lines, and take fresh IDs in that order.
    assert result.id_map == {0: {5: 2}, 1: {0: 1}, 2: {0: 1, 1: 3}}
    assert [f.frame_index for f in result.frames] == [0, 1, 2]
    assert result.frames[2].description == "[E3] sees [E1]"
    assert [(n.frame_index, n.entity_id) for n in result.nodes] == [(0, 2), (1, 1), (2, 1), (2, 3)]


# ---------------------------------------------------------------------------
# ``associate`` against the per-frame loop it replaced, kept here as the oracle.


def _oracle_rewrite(text, mapping):
    def repl(match):
        local = int(match.group(1))
        return f"[E{mapping[local]}]" if local in mapping else match.group(0)

    return re.sub(r"\[E(\d+)\]", repl, text)


def oracle_associate(observations, tracklets, min_iou=0.1, fps=1.0):
    next_fresh = max((tr.track_id for tr in tracklets), default=-1) + 1
    nodes, frames, id_map = [], [], {}
    for obs in observations:
        frame_tracks = [
            (tr.track_id, tr.boxes[obs.frame_index])
            for tr in sorted(tracklets, key=lambda t: t.track_id)
            if obs.frame_index in tr.boxes
        ]
        mapping = {}
        if obs.entities and frame_tracks:
            matrix = accel.iou_matrix(
                [tuple(e[2]) for e in obs.entities], [tuple(b) for _, b in frame_tracks]
            )
            pairs = [
                (matrix[ei, ti], frame_tracks[ti][0], obs.entities[ei][0])
                for ei in range(len(obs.entities))
                for ti in range(len(frame_tracks))
                if matrix[ei, ti] >= min_iou and matrix[ei, ti] > 0.0
            ]
            pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
            used_tracks = set()
            for _, track_id, local_id in pairs:
                if local_id in mapping or track_id in used_tracks:
                    continue
                mapping[local_id] = track_id
                used_tracks.add(track_id)
        for local_id, _, _ in sorted(obs.entities, key=lambda e: e[0]):
            if local_id not in mapping:
                mapping[local_id] = next_fresh
                next_fresh += 1
        id_map[obs.frame_index] = mapping
        for local_id, attributes, box in obs.entities:
            nodes.append(EntityNode(mapping[local_id], obs.frame_index, dict(attributes), box))
        description = _oracle_rewrite(obs.description, mapping)
        frames.append(FrameRecord(obs.frame_index, obs.frame_index / fps, description, obs.source_ref))
    nodes.sort(key=lambda n: (n.frame_index, n.entity_id))
    return AssociationResult(nodes=NodeTable.of(nodes), frames=frames, id_map=id_map)


# Boxes on a small integer lattice, so that equal boxes, tied IoUs and IoUs of
# exactly 1/2, 1/3 or 1/4 (the sampled thresholds) come up often.
@st.composite
def lattice_boxes(draw):
    x0, y0 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return bb(x0, y0, x0 + draw(st.integers(1, 3)), y0 + draw(st.integers(1, 3)))


# Text that is, or looks like, a mention: other spellings of a number, nested
# and unclosed brackets, and no digits at all.
MENTION_TRAPS = st.sampled_from(["[E007]", "[E\u0663]", "[E[E1]", "[E2]]", "[E1", "[E]", "[Ex]", "E3]", "[e3]", ""])


@st.composite
def videos(draw):
    n_frames = draw(st.integers(0, 5))
    # Most boxes repeat a few shared ones, so that exact ties are common.
    shared = draw(st.lists(lattice_boxes(), min_size=1, max_size=3))
    boxes = st.one_of(st.sampled_from(shared), lattice_boxes())
    observations = []
    for frame in range(n_frames):
        local_ids = draw(st.lists(st.integers(0, 6), unique=True, max_size=5))
        mentions = draw(st.lists(st.one_of(st.integers(0, 7).map("[E{}]".format), MENTION_TRAPS), max_size=4))
        observations.append(
            FrameObservation(
                frame,
                " and ".join(mentions),
                [(lid, dict(ATTRS), draw(boxes)) for lid in local_ids],
                f"f{frame}",
            )
        )
    # The order of the frame lines in the document.
    observations = draw(st.permutations(observations))
    # A track lists at least one frame, so a video without frames has no tracks.
    track_ids = draw(st.lists(st.integers(0, 12), unique=True, max_size=6 if n_frames else 0))
    frame_ids = st.sampled_from(range(n_frames)) if n_frames else st.nothing()
    tracklets = [
        Tracklet(tid, draw(st.dictionaries(frame_ids, boxes, min_size=1, max_size=n_frames)))
        for tid in track_ids
    ]
    min_iou = draw(st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1 / 3, 0.25, 0.1]), st.floats(0.0, 1.0)))
    return observations, tracklets, min_iou


@settings(max_examples=200, deadline=None)
@given(videos(), st.sampled_from([1.0, 2.0, 0.5]))
@example(([], [], 0.1), 1.0)
@example(([frame_obs(0, [(0, bb(0, 0, 2, 2)), (1, bb(0, 0, 2, 2))])],
          [Tracklet(4, {0: bb(0, 0, 2, 2)}), Tracklet(2, {0: bb(0, 0, 2, 2)})], 1.0), 1.0)
def test_associate_equals_the_per_frame_loop(video, fps):
    """Both sides read the same drawn video: ``associate`` as its two documents, the oracle
    as records, frames in index order as ``parse_observations`` gives them."""
    observations, tracklets, min_iou = video
    got = associate_video(observations, tracklets, min_iou=min_iou, fps=fps)
    in_order = sorted(observations, key=attrgetter("frame_index"))
    assert got == oracle_associate(in_order, tracklets, min_iou, fps)
