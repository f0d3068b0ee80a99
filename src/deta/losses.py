"""Weighted contrastive objectives over unit embeddings, with analytic gradients.

Two losses share one embedding batch. The local compactness loss is a
weighted contrastive term over same-class region pairs whose denominator
ranges over all regions. The global dispersion loss is a weighted
cross-entropy of region-to-prototype posteriors, where prototypes are
image-weight-averaged image embeddings. Both return exact gradients with
respect to every embedding coordinate; weights are treated as constants.

All softmax-style reductions go through stable log-sum-exp, and cosine terms
are computed with the true input norms so the functions (and their
gradients) remain well-defined off the unit sphere, which is what the
finite-difference checks exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVectorError, InvalidParameterError
from .numerics import check_finite, segment_mean, segment_sum


@dataclass(frozen=True)
class LossHyperparams:
    """Temperatures for the two losses and their balance factor."""

    tau: float = 0.5
    pi: float = 0.07
    beta: float = 0.1

    def __post_init__(self):
        check_finite(tau=self.tau, pi=self.pi, beta=self.beta)
        if self.tau <= 0.0 or self.pi <= 0.0:
            raise InvalidParameterError("temperatures must be positive")
        if self.beta < 0.0:
            raise InvalidParameterError("beta must be non-negative")


@dataclass
class EmbeddingBatch:
    """Unit image and region embeddings of one episode's support set.

    Image row i is the support sample at position i; region row r belongs to
    the sample at position sample_of[r], whose class is class_of[i]. Class
    ids are 0..C-1 with every class present, as episode labels are; the
    global loss indexes its prototypes by them.
    """

    image_embeddings: np.ndarray  # (n, e)
    region_embeddings: np.ndarray  # (r, e)
    sample_of: np.ndarray  # (r,)
    class_of: np.ndarray  # (n,)

    @property
    def embed_dim(self) -> int:
        return self.region_embeddings.shape[1]


@dataclass
class LossValue:
    """Loss components with gradients shaped like the batch's embeddings."""

    l_local: float
    l_global: float
    combined: float
    region_grads: np.ndarray  # (r, e)
    image_grads: np.ndarray  # (n, e)


def _per_row(values, n: int, what: str) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.shape != (n,):
        raise InvalidParameterError(f"{what} has shape {v.shape}, expected ({n},)")
    return v


def local_compactness_loss(
    batch: EmbeddingBatch, weights, tau: float
) -> tuple[float, np.ndarray]:
    """Weighted contrastive loss over all ordered same-class region pairs.

    The sum of pair terms is divided by the number of unordered same-class
    pairs; classes with fewer than two regions contribute neither pairs nor
    normalizer mass. A region is never its own partner. Returns the value and
    its gradient per region embedding row.

    With weighted embeddings w_r and per-class sums W_c, the same-class pair
    similarities of row r add up to w_r . (W_c(r) - w_r) / tau, so no pair
    mask is built. One exp pass over the similarity matrix (diagonal masked)
    gives both the log-sum-exp and the row softmax P, and the gradient with
    respect to w is ((P + P^T) w - 2 (W_c(r) - w_r)) / (tau * normalizer),
    with P's rows scaled by the partner counts.

    Memory: one r x r matrix, exponentiated, scaled and symmetrized in place,
    plus O(r * e) arrays and one 64 x r band at a time.
    """
    if not 0.0 < tau < np.inf:
        raise InvalidParameterError(f"tau must be finite and positive, got {tau}")
    mat = np.asarray(batch.region_embeddings, dtype=np.float64)
    lam = _per_row(weights, len(mat), "region weights")
    class_ids = batch.class_of[batch.sample_of]
    counts = np.bincount(class_ids)
    normalizer = float(np.sum(counts * (counts - 1) / 2.0))
    if normalizer == 0.0:
        return 0.0, np.zeros_like(mat)

    partners = counts[class_ids] - 1

    w = lam[:, None] * mat
    s = w @ w.T
    s /= tau
    np.fill_diagonal(s, -np.inf)
    row_max = s.max(axis=1)
    s -= row_max[:, None]
    ex = np.exp(s, out=s)  # the one exp pass, in place
    row_sum = ex.sum(axis=1)
    lse = row_max + np.log(row_sum)

    ex *= (partners / row_sum)[:, None]  # P
    # P + P^T in 64-row bands; `ex += ex.T` would copy ex.T, which overlaps its output.
    for i in range(0, len(ex), 64):
        band = ex[i : i + 64, i:] + ex[i:, i : i + 64].T
        ex[i : i + 64, i:] = band
        ex[i:, i : i + 64] = band.T
    grad = ex @ w
    del s, ex  # the r x r matrix goes before the (r, e) same-class sums are made

    same_sum = segment_sum(w, class_ids, len(counts))[class_ids]
    same_sum -= w  # (W_c(r) - w_r)
    pair_sum = float(np.einsum("ij,ij->", w, same_sum)) / tau
    value = float((-pair_sum + (partners * lse).sum()) / normalizer)
    grad -= 2.0 * same_sum
    grad /= tau * normalizer
    grad *= lam[:, None]
    return value, grad


def global_dispersion_loss(
    batch: EmbeddingBatch, weights, omega, pi: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted cross-entropy of region posteriors against class prototypes.

    Every region is scored against the prototypes of all classes by cosine
    similarity; its negative log-posterior at its own (possibly corrupted)
    class is scaled by the region weight and averaged over all regions.
    Gradients flow both into the region embeddings and, through the
    prototypes, into the image embeddings.
    """
    if not 0.0 < pi < np.inf:
        raise InvalidParameterError(f"pi must be finite and positive, got {pi}")
    r = np.asarray(batch.region_embeddings, dtype=np.float64)
    e = np.asarray(batch.image_embeddings, dtype=np.float64)
    n_regions = len(r)
    lam = _per_row(weights, n_regions, "region weights")
    w_img = _per_row(omega, len(e), "image weights")
    bad_rows = np.any((batch.sample_of < 0) | (batch.sample_of >= len(e))) or np.any(batch.class_of < 0)
    if len(batch.class_of) != len(e) or bad_rows:
        raise InvalidParameterError("region rows or classes do not match the image rows")

    class_of = batch.class_of
    protos, counts = segment_mean(e, class_of, int(class_of.max()) + 1, weights=w_img)  # (C, dim)

    p_norm = np.linalg.norm(protos, axis=1)
    if np.any(p_norm == 0.0):
        raise DegenerateVectorError(f"class {int(np.argmin(p_norm))} prototype has zero norm")
    r_norm = np.linalg.norm(r, axis=1)
    if np.any(r_norm == 0.0):
        raise DegenerateVectorError("zero-norm region embedding")

    cosines = (r @ protos.T) / (r_norm[:, None] * p_norm[None, :])
    logits = cosines / pi
    row_max = logits.max(axis=1)
    lse = row_max + np.log(np.exp(logits - row_max[:, None]).sum(axis=1))
    q = np.exp(logits - lse[:, None])

    ycol = class_of[batch.sample_of]
    picked = logits[np.arange(n_regions), ycol]
    value = float(np.sum(lam * (lse - picked)) / n_regions)

    q[np.arange(n_regions), ycol] -= 1.0  # q minus the one-hot targets
    d = lam[:, None] * q / (pi * n_regions)  # d value / d cosines

    proto_unit = protos / p_norm[:, None]
    srow = (d * cosines).sum(axis=1)
    grad_r = d @ proto_unit
    grad_r /= r_norm[:, None]
    grad_r -= (srow / r_norm**2)[:, None] * r

    r_unit = r / r_norm[:, None]
    tcol = (d * cosines).sum(axis=0)
    grad_p = (d.T @ r_unit) / p_norm[:, None] - (tcol / p_norm**2)[:, None] * protos

    scale = w_img / counts[class_of]
    return value, grad_r, scale[:, None] * grad_p[class_of]


def combined_loss(
    batch: EmbeddingBatch,
    weights,
    omega,
    hp: LossHyperparams,
    include_local: bool = True,
    include_global: bool = True,
) -> LossValue:
    """beta-weighted sum of the two losses with summed gradients.

    The include flags exist for ablations; a disabled component contributes
    exactly zero to the value and the gradients.
    """
    # The local loss runs first, so its r x r matrix is never live next to the gradient sums.
    l_local, local_grads = local_compactness_loss(batch, weights, hp.tau) if include_local else (0.0, None)
    region_grads = np.zeros_like(batch.region_embeddings, dtype=np.float64)
    image_grads = np.zeros_like(batch.image_embeddings, dtype=np.float64)
    if include_local:
        local_grads *= hp.beta
        region_grads += local_grads

    l_global = 0.0
    if include_global:
        l_global, reg_g, img_g = global_dispersion_loss(batch, weights, omega, hp.pi)
        region_grads += reg_g
        image_grads += img_g

    return LossValue(
        l_local=l_local,
        l_global=l_global,
        combined=hp.beta * l_local + l_global,
        region_grads=region_grads,
        image_grads=image_grads,
    )
