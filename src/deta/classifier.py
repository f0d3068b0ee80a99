"""Weighted nearest-centroid inference on adapted features.

Centroids are image-weight-scaled class means of the adapted support
features (the projection head is discarded at inference). Queries go to the
centroid with the highest cosine similarity; exact ties break toward the
lowest class id.
"""

from __future__ import annotations

import numpy as np

from .adaptation import AdaptedState, forward_features
from .episodes import TaskEpisode
from .errors import DegenerateVectorError, DivergenceError, InvalidParameterError
from .numerics import segment_mean


def build_classifier(features, class_of, omega, way: int) -> np.ndarray:
    """Weighted class centroids, (way, d): sum of omega-scaled member rows over member count.

    Row i of features is a support sample of class class_of[i] with image
    weight omega[i]. Every class in [0, way) needs a member (EmptyClassError).
    """
    return segment_mean(features, class_of, way, weights=omega)[0]


def classify(queries, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predict the class of every query row; returns (classes, scores).

    Row c of centroids is the centroid of class c. scores[q, c] is the cosine
    similarity of query q to it; argmax with first-wins tie-breaking.
    """
    q = np.asarray(queries, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1)
    if np.any(qn == 0.0):
        raise DegenerateVectorError(f"zero-norm query at row {int(np.argmin(qn))}")
    mn = np.linalg.norm(centroids, axis=1)
    if np.any(mn == 0.0):
        raise DegenerateVectorError(f"zero-norm centroid for class {int(np.argmin(mn))}")
    scores = (q @ centroids.T) / (qn[:, None] * mn[None, :])
    return np.argmax(scores, axis=1), scores


def adapted_features(state: AdaptedState, *blocks) -> list[np.ndarray]:
    """The state's adapter applied to each block of raw feature rows.

    Outputs that are not finite, or whose squared norms overflow, raise
    DivergenceError at the state's last iteration: adapt_task checks its
    outputs before each update, so only the last update is unchecked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = [forward_features(state.adapter, x) for x in blocks]
        finite = all(np.isfinite(np.einsum("ij,ij->i", x, x)).all() for x in out)
    if not finite:
        raise DivergenceError(
            "adapted features are not finite or their norms overflow",
            iteration=len(state.trace),
        )
    return out


def predict(episode: TaskEpisode, state: AdaptedState | None = None) -> np.ndarray:
    """Predicted class of every query, in query order.

    With a state, centroids are class means of the adapted support features
    scaled by the state's final image weights, and queries are adapted too
    (see adapted_features). A state only scores the episode it was adapted
    on: support sample ids that differ in content or order raise
    InvalidParameterError. Without a state, this is the plain unweighted
    nearest-centroid on the raw features.
    """
    if not episode.query_labels.size:
        raise InvalidParameterError("episode has no query samples")
    support, queries = episode.support_features, episode.query_features
    omega = np.ones(episode.n_support)
    if state is not None:
        if not np.array_equal(state.sample_ids, episode.sample_ids):
            raise InvalidParameterError("the state was adapted on other support sample ids")
        support, queries = adapted_features(state, support, queries)
        omega = state.final_image_weights
    return classify(queries, build_classifier(support, episode.labels, omega, way=episode.way))[0]


def _accuracy(episode: TaskEpisode, predictions: np.ndarray) -> float:
    return int(np.count_nonzero(predictions == episode.query_labels)) / episode.query_labels.size


def evaluate(episode: TaskEpisode, state: AdaptedState) -> float:
    """Accuracy of the adapted model's weighted nearest-centroid over the queries."""
    return _accuracy(episode, predict(episode, state))


def plain_ncc_accuracy(episode: TaskEpisode) -> float:
    """Unweighted nearest-centroid accuracy on the raw features (no adaptation)."""
    return _accuracy(episode, predict(episode))
