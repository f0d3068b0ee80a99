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
from .errors import DegenerateVectorError, EmptyClassError, InvalidParameterError
from .numerics import segment_mean


def build_classifier(features, class_of, omega, way: int | None = None) -> np.ndarray:
    """Weighted class centroids, (way, d): sum of omega-scaled member rows over member count.

    Row i of features is a support sample of class class_of[i] with image
    weight omega[i]. Every class in [0, way) needs a member; way defaults to
    one more than the largest class id.
    """
    class_of = np.asarray(class_of)
    if class_of.size == 0:
        raise EmptyClassError("no support features")
    way = int(class_of.max()) + 1 if way is None else way
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


def predict(episode: TaskEpisode, state: AdaptedState | None = None) -> np.ndarray:
    """Predicted class of every query, in query order.

    With a state, centroids are omega-weighted class means of the adapted
    support features and queries are adapted too; without one, this is the
    plain unweighted nearest-centroid on the raw features.
    """
    if not episode.queries:
        raise InvalidParameterError("episode has no query samples")
    support = np.stack([s.image_feature for s in episode.support])
    queries = np.stack([q.image_feature for q in episode.queries])
    omega = np.ones(len(support))
    if state is not None:
        support = forward_features(state.adapter, support)
        queries = forward_features(state.adapter, queries)
        omega = np.array([state.final_image_weights[s.sample_id] for s in episode.support])
    class_of = [s.label for s in episode.support]
    return classify(queries, build_classifier(support, class_of, omega, way=episode.way))[0]


def _accuracy(episode: TaskEpisode, predictions: np.ndarray) -> float:
    hits = int(np.count_nonzero(predictions == [q.ground_truth_label for q in episode.queries]))
    return hits / len(episode.queries)


def evaluate(episode: TaskEpisode, state: AdaptedState) -> float:
    """Accuracy of the adapted model's weighted nearest-centroid over the queries."""
    return _accuracy(episode, predict(episode, state))


def plain_ncc_accuracy(episode: TaskEpisode) -> float:
    """Unweighted nearest-centroid accuracy on the raw features (no adaptation)."""
    return _accuracy(episode, predict(episode))
