"""Dense-vector primitives used throughout the pipeline.

Everything runs in double precision. The analytic gradients of the package
are validated against a central finite-difference oracle in the tests, so
the helpers are deliberately strict about degenerate inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError


def check_finite(**values) -> None:
    """Reject non-finite configuration values or arrays, naming the first offender."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            shown = value if np.isscalar(value) else "NaN or infinity in the array"
            raise InvalidParameterError(f"{name} must be finite, got {shown}")


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidParameterError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return v


def softmax(scores, segment_of) -> np.ndarray:
    """Stable softmax of scores within each segment.

    Score i belongs to segment segment_of[i] (non-negative ints) and each
    segment is normalized on its own, as one softmax call per segment would
    do. Invariant under adding a constant to all scores of a segment; output
    entries are positive and sum to one per segment.
    """
    z = _as_vector(scores, "scores")
    if z.size < 1:
        raise InvalidParameterError("softmax requires at least one score")
    seg = np.asarray(segment_of)
    if seg.shape != z.shape:
        raise InvalidParameterError(f"segment_of has shape {seg.shape}, scores {z.shape}")
    seg_max = np.full(seg.max() + 1, -np.inf)
    np.maximum.at(seg_max, seg, z)
    e = np.exp(z - seg_max[seg])
    return e / np.bincount(seg, weights=e)[seg]


def segment_sum(rows, segment_of, n_segments: int) -> np.ndarray:
    """Per segment, the sum of its rows, as an (n_segments, d) array.

    Row i belongs to segment segment_of[i] in [0, n_segments); rows are added
    in row order and a segment without members sums to zero. Costs O(r*d).
    """
    mat = np.asarray(rows, dtype=np.float64)
    d = mat.shape[1]
    flat = (np.asarray(segment_of)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=mat.ravel(), minlength=n_segments * d).reshape(n_segments, d)


def segment_mean(rows, segment_of, n_segments: int, weights) -> tuple[np.ndarray, np.ndarray]:
    """Per segment, the sum of its weight-scaled rows over its row count.

    Row i belongs to segment segment_of[i] in [0, n_segments). Returns the
    (n_segments, d) means and the member counts. No renormalization is
    applied, so weights scale the means. Every segment needs a member.
    """
    counts = np.bincount(segment_of, minlength=n_segments)
    if np.any(counts == 0):
        raise InvalidParameterError(f"segments without members: {np.flatnonzero(counts == 0).tolist()}")
    mat = np.asarray(weights, dtype=np.float64)[:, None] * np.asarray(rows, dtype=np.float64)
    return segment_sum(mat, segment_of, n_segments) / counts[:, None], counts
