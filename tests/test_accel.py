import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravu import accel

def iou(a, b) -> float:
    """IoU of one pair of boxes, through the one kernel."""
    return float(accel.iou_rows(a, b))


coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    x0, y0 = draw(coord), draw(coord)
    w = draw(st.floats(min_value=0.1, max_value=60))
    h = draw(st.floats(min_value=0.1, max_value=60))
    return [x0, y0, x0 + w, y0 + h]


@given(boxes(), boxes())
def test_iou_symmetric(a, b):
    assert iou(a, b) == iou(b, a)


@given(boxes())
def test_iou_identity(a):
    assert iou(a, a) == 1.0


@given(boxes(), boxes())
def test_iou_range(a, b):
    value = iou(a, b)
    assert 0.0 <= value <= 1.0


def test_iou_disjoint():
    assert iou([0, 0, 1, 1], [5, 5, 6, 6]) == 0.0
    assert iou([0, 0, 1, 1], [3, 3, 4, 4]) == 0.0


def test_iou_pair_identity():
    assert iou([0, 0, 2, 2], [0, 0, 2, 2]) == 1.0


def test_iou_of_boxes_without_area_is_zero_not_nan():
    assert iou([1, 1, 1, 1], [1, 1, 1, 1]) == 0.0
    assert iou([0, 1, 3, 1], [0, 1, 3, 1]) == 0.0
    assert accel.iou_rows([[2, 2, 2, 2]], [[0, 0, 4, 4]]).tolist() == [0.0]


def test_iou_touching_edge():
    assert iou([0, 0, 1, 1], [1, 0, 2, 1]) == 0.0


def test_iou_known_value():
    # 1x1 overlap out of 2*2 + 2*2 - 1 = 7 total area
    assert iou([0, 0, 2, 2], [1, 1, 3, 3]) == pytest.approx(1 / 7)


def reference_iou_matrix(a, b):
    """The pairwise kernel as it was before it became a broadcast over ``iou_rows``."""
    ix0 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy0 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix1 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy1 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(ix1 - ix0, 0.0, None) * np.clip(iy1 - iy0, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inter > 0.0, inter / union, 0.0)


@settings(max_examples=60)
@given(st.lists(boxes(), max_size=6), st.lists(boxes(), max_size=6))
def test_iou_rows_matrix_and_pair_are_bit_identical(a, b):
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    matrix = accel.iou_matrix(a, b)
    assert np.array_equal(matrix, reference_iou_matrix(a, b))
    rows = accel.iou_rows(np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1)))
    assert np.array_equal(rows, matrix.reshape(-1))
    for i, j in np.ndindex(matrix.shape):
        assert iou(a[i], b[j]) == matrix[i, j]


def test_iou_rows_scores_row_against_row():
    a = np.array([[0.0, 0.0, 2.0, 2.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0]])
    b = np.array([[1.0, 1.0, 3.0, 3.0], [1.0, 0.0, 2.0, 1.0], [0.0, 0.0, 2.0, 2.0]])
    assert accel.iou_rows(a, b).tolist() == [1 / 7, 0.0, 1.0]
    assert accel.iou_rows(np.zeros((0, 4)), np.zeros((0, 4))).shape == (0,)


def test_iou_matrix_shape_and_empty():
    a = np.array([[0.0, 0.0, 1.0, 1.0]])
    b = np.zeros((0, 4))
    assert accel.iou_matrix(a, b).shape == (1, 0)
    assert accel.iou_matrix(b, a).shape == (0, 1)


def test_cosine_zero_query_and_zero_row():
    mat = np.vstack([np.zeros(4), np.ones(4)])
    assert accel.cosine_scores(mat, np.zeros(4)).tolist() == [0.0, 0.0]
    scores = accel.cosine_scores(mat, np.ones(4))
    assert scores[0] == 0.0 and scores[1] == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((40, 16))
    q = rng.standard_normal(16)
    expected = (mat @ q) / (np.linalg.norm(mat, axis=1) * np.linalg.norm(q))
    np.testing.assert_allclose(accel.cosine_scores(mat, q), expected, rtol=0, atol=1e-9)


@given(st.floats(min_value=0.1, max_value=100))
@settings(max_examples=25)
def test_cosine_scale_invariant_ranking(scale):
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((10, 8))
    q = rng.standard_normal(8)
    base = accel.cosine_scores(mat, q)
    scaled = accel.cosine_scores(mat * scale, q * scale)
    assert np.argsort(-base).tolist() == np.argsort(-scaled).tolist()
    np.testing.assert_allclose(base, scaled, atol=1e-9)


def test_cosine_with_given_norms_is_bit_identical():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((1200, 32))
    mat[7] = 0.0
    q = rng.standard_normal(32)
    with_norms = accel.cosine_scores(mat, q, row_norms=np.linalg.norm(mat, axis=1))
    assert np.array_equal(with_norms, accel.cosine_scores(mat, q))
    assert with_norms[7] == 0.0
