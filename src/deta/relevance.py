"""Contrastive relevance aggregation: region weights and image weights.

Each support region is scored by how similar it is, on average, to regions
of other samples in its class versus regions of other classes. The two score
families are softmax-normalized inside each class and their ratio is the
region weight. The image weight of a sample is its mean region weight,
smoothed across adaptation iterations with momentum. The relevance scores are
parameter-free.

Regions are rows of one array. sample_of[r] is the support position of the
sample that region row r belongs to, and class_of[i] the class of the sample
at support position i, so the class of a region row is class_of[sample_of[r]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, InvalidParameterError
from .numerics import segment_sum, softmax


@dataclass(frozen=True, order=True)
class RegionIndex:
    """Names one region: which sample it belongs to, which slot, which class."""

    sample_id: int
    region_slot: int
    class_id: int


@dataclass
class RegionWeightTable:
    """Per-region weights with their class-normalized relevance scores.

    weights holds lambda = phi_norm / psi_norm per region row; phi_norm and
    psi_norm each sum to one within every class.
    """

    weights: np.ndarray  # (r,)
    per_class_phi: np.ndarray  # (r,)
    per_class_psi: np.ndarray  # (r,)
    sample_of: np.ndarray  # (r,) support position of each region row
    class_of: np.ndarray  # (n,) class of each support sample

    def sample_means(self) -> np.ndarray:
        """Mean region weight per support sample (the instantaneous image weight)."""
        n = len(self.class_of)
        sums = np.bincount(self.sample_of, weights=self.weights, minlength=n)
        return sums / np.bincount(self.sample_of, minlength=n)


def mean_relevance(features, sample_of, class_of) -> tuple[np.ndarray, np.ndarray]:
    """Mean cosine similarity of every region to its in-class and out-of-class pools.

    The in-class pool of a region holds the same-class regions of *other*
    samples (a sample's own regions cannot dominate the average); it scores
    zero when empty. The out-of-class pool holds every region of every other
    class, so at least two classes are required.

    No region-by-region similarity matrix is built: with unit rows u and the
    per-class, per-sample and total sums S of u, each cosine row sum over a
    pool is the dot product of u_r with the sum of that pool, so the cost is
    O(r*e). The cosines are not clipped to [-1, 1].
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise InvalidParameterError("no regions given")
    if not np.all(np.isfinite(feats)):
        raise InvalidParameterError("region features contain non-finite values")
    norms = np.linalg.norm(feats, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateVectorError(f"zero-norm region feature at row {int(np.argmin(norms))}")
    sample_ids = np.asarray(sample_of)
    class_ids = np.asarray(class_of)[sample_ids]
    if class_ids.min() == class_ids.max():
        raise InvalidParameterError("relevance weighting requires at least 2 classes")

    unit = feats / norms[:, None]

    def row_sums(segment):  # per row, the sum of its cosines to every row of its segment
        return np.einsum("ij,ij->i", unit, segment_sum(unit, segment, segment.max() + 1)[segment])

    class_row_sum = row_sums(class_ids)
    sample_row_sum = row_sums(sample_ids)
    total_row_sum = unit @ unit.sum(axis=0)
    n_class = np.bincount(class_ids)[class_ids]

    in_count = n_class - np.bincount(sample_ids)[sample_ids]
    phi = np.where(in_count > 0, (class_row_sum - sample_row_sum) / np.maximum(in_count, 1), 0.0)
    psi = (total_row_sum - class_row_sum) / (len(feats) - n_class)
    return phi, psi


def region_weights(features, sample_of, class_of) -> RegionWeightTable:
    """Compute contrastive relevance weights for every region row."""
    phi, psi = mean_relevance(features, sample_of, class_of)
    class_ids = np.asarray(class_of)[sample_of]
    phi_norm = softmax(phi, segment_of=class_ids)
    psi_norm = softmax(psi, segment_of=class_ids)
    return RegionWeightTable(phi_norm / psi_norm, phi_norm, psi_norm, sample_of, class_of)


def uniform_weight_table(sample_of, class_of) -> RegionWeightTable:
    """All-ones weight table (relevance weighting disabled)."""
    class_ids = np.asarray(class_of)[sample_of]
    uniform = 1.0 / np.bincount(class_ids)[class_ids]
    return RegionWeightTable(np.ones(len(class_ids)), uniform, uniform.copy(), sample_of, class_of)


def accumulate_image_weights(
    omega: np.ndarray | None, means: np.ndarray, momentum: float
) -> np.ndarray:
    """Momentum-smoothed image weight per support sample after one more iteration.

    means is RegionWeightTable.sample_means() of that iteration's table and
    omega the previous result, or None at the first iteration, which returns
    means itself.
    """
    if omega is None:
        return means
    if means.shape != omega.shape:
        raise InvalidParameterError(
            f"region weights cover {means.size} samples, accumulator holds {omega.size}"
        )
    return momentum * omega + (1.0 - momentum) * means
