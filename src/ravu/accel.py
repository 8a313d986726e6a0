"""Numeric kernels: pairwise box IoU (association) and cosine scoring
(retrieval), vectorised with numpy.
"""

from __future__ import annotations

import numpy as np

# Always False: there is one numpy kernel path. Kept only because
# ``pipebench/run.py``'s ``environment()`` records it.
USE_NUMBA = False


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two box arrays in xyxy layout, shape (n,4) x (m,4)."""
    a = np.ascontiguousarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.ascontiguousarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)
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


def iou_pair(box_a, box_b) -> float:
    """IoU of two boxes given as (x0, y0, x1, y1) sequences."""
    return float(iou_matrix(np.asarray([box_a]), np.asarray([box_b]))[0, 0])


# Rows per block of ``norms``: 512 rows of 256 float64s is a 1 MB temporary.
NORM_BLOCK = 512


def norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(matrix, axis=1)``, bit for bit: the same squares, row
    sums and square roots, computed ``NORM_BLOCK`` rows at a time so that the
    squares never take a second full-size matrix.
    """
    mat = np.ascontiguousarray(matrix, dtype=np.float64)
    out = np.empty(len(mat), dtype=np.float64)
    for start in range(0, len(mat), NORM_BLOCK):
        block = mat[start:start + NORM_BLOCK]
        np.sqrt(np.add.reduce(block * block, axis=1), out=out[start:start + NORM_BLOCK])
    return out


def cosine_scores(
    matrix: np.ndarray, query: np.ndarray, row_norms: np.ndarray | None = None
) -> np.ndarray:
    """Cosine similarity of every row of ``matrix`` against ``query``.

    Zero rows and a zero query score 0 rather than NaN. Scores are
    quantized to 1e-9 so that duplicate rows stay exact ties whatever
    summation order BLAS picks for each row, which keeps the
    (frame, entity) tie order of rankings deterministic. ``row_norms``, when
    given, must equal ``norms(matrix)``; an index passes the norms it
    computed once instead of recomputing them per query.
    """
    mat = np.ascontiguousarray(matrix, dtype=np.float64)
    q = np.ascontiguousarray(query, dtype=np.float64)
    out = np.zeros(mat.shape[0], dtype=np.float64)
    qn = float(np.linalg.norm(q))
    if qn == 0.0 or mat.shape[0] == 0:
        return out
    rn = norms(mat) if row_norms is None else row_norms
    dots = mat @ q
    np.divide(dots, rn * qn, out=out, where=rn > 0.0)
    return np.round(out, 9)
