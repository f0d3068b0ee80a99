"""Dense-vector primitives used throughout the pipeline.

Everything runs in double precision. Analytic gradients elsewhere in the
package are validated against the central finite-difference oracle defined
here, so the helpers are deliberately strict about degenerate inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyClassError, InvalidParameterError, OracleFailure


def check_finite(**knobs: float) -> None:
    """Reject non-finite configuration values, naming the offending knob."""
    for name, value in knobs.items():
        if not math.isfinite(value):
            raise InvalidParameterError(f"{name} must be finite, got {value}")


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise InvalidParameterError(f"{name} must be a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return v


def softmax(scores, temperature: float = 1.0, segment_of=None) -> np.ndarray:
    """Stable softmax of scores/temperature, over all scores or within each segment.

    With segment_of, score i belongs to segment segment_of[i] (non-negative
    ints) and each segment is normalized on its own, as one softmax call per
    segment would do. Invariant under adding a constant to all scores of a
    segment; output entries are positive and sum to one per segment.
    """
    if temperature <= 0.0 or not np.isfinite(temperature):
        raise InvalidParameterError(f"temperature must be positive, got {temperature}")
    s = _as_vector(scores, "scores")
    if s.size < 1:
        raise InvalidParameterError("softmax requires at least one score")
    z = s / temperature
    seg = np.zeros(s.shape, dtype=np.intp) if segment_of is None else np.asarray(segment_of)
    if seg.shape != s.shape:
        raise InvalidParameterError(f"segment_of has shape {seg.shape}, scores {s.shape}")
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


def segment_mean(rows, segment_of, n_segments: int, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Per segment, the sum of its (optionally weight-scaled) rows over its row count.

    Row i belongs to segment segment_of[i] in [0, n_segments). Returns the
    (n_segments, d) means and the member counts. No renormalization is
    applied, so weights scale the means. Every segment needs a member.
    """
    counts = np.bincount(segment_of, minlength=n_segments)
    if np.any(counts == 0):
        raise EmptyClassError(f"segments without members: {np.flatnonzero(counts == 0).tolist()}")
    mat = np.asarray(rows, dtype=np.float64)
    if weights is not None:
        mat = np.asarray(weights, dtype=np.float64)[:, None] * mat
    return segment_sum(mat, segment_of, n_segments) / counts[:, None], counts


@dataclass(frozen=True)
class GradCheckConfig:
    """Step size and tolerances for central-difference gradient checks."""

    step: float = 1e-5
    rel_tol: float = 1e-4
    abs_tol: float = 1e-7

    def __post_init__(self):
        if self.step <= 0.0:
            raise InvalidParameterError("finite-difference step must be positive")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise InvalidParameterError("gradient-check tolerances must be positive")


def finite_difference_gradient(
    f: Callable[[np.ndarray], float],
    params,
    cfg: GradCheckConfig = GradCheckConfig(),
) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Evaluates (f(p + h*e_i) - f(p - h*e_i)) / (2h) per coordinate. This is
    the reference oracle for every analytic gradient in the package and must
    stay independent of the code paths it checks.
    """
    p = _as_vector(params, "params")
    h = cfg.step
    grad = np.empty_like(p)
    for i in range(p.size):
        probe = p.copy()
        probe[i] = p[i] + h
        hi = float(f(probe))
        probe[i] = p[i] - h
        lo = float(f(probe))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise OracleFailure(
                f"objective non-finite while probing coordinate {i}: f+={hi}, f-={lo}"
            )
        grad[i] = (hi - lo) / (2.0 * h)
    return grad
