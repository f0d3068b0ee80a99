import numpy as np
import pytest

from deta.adaptation import AblationFlags, AdaptationConfig, adapt_task
from deta.classifier import build_classifier, classify, evaluate, plain_ncc_accuracy
from deta.episodes import QuerySample, SyntheticNoiseConfig, TaskEpisode, generate_synthetic_episode
from deta.errors import DegenerateVectorError, EmptyClassError, InvalidParameterError


def toy_features():
    features = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 4.0, 0.0]])
    return features, np.array([0, 0, 1, 1])


class TestBuildClassifier:
    def test_uniform_weights_reduce_to_plain_means(self):
        features, labels = toy_features()
        protos = build_classifier(features, labels, np.ones(4), way=2)
        assert np.allclose(protos[0], [2.0, 0.0, 0.0], atol=0)
        assert np.allclose(protos[1], [0.0, 3.0, 0.0], atol=0)

    def test_zero_weight_sample_has_no_influence(self):
        features, labels = toy_features()
        omega = np.array([1.0, 0.0, 1.0, 1.0])
        protos_a = build_classifier(features, labels, omega, way=2)
        features[1] = [99.0, -99.0, 7.0]
        protos_b = build_classifier(features, labels, omega, way=2)
        assert np.array_equal(protos_a[0], protos_b[0])

    def test_matches_literal_weighted_mean(self):
        rng = np.random.default_rng(0)
        features = rng.standard_normal((6, 4))
        labels = np.arange(6) % 2
        omega = rng.uniform(0.1, 2.0, size=6)
        protos = build_classifier(features, labels, omega, way=2)
        for c in (0, 1):
            members = [sid for sid in range(6) if labels[sid] == c]
            expected = sum(omega[i] * features[i] for i in members) / len(members)
            assert np.allclose(protos[c], expected, atol=1e-15)

    def test_empty_class_detected(self):
        features, labels = toy_features()
        with pytest.raises(EmptyClassError):
            build_classifier(features, labels, np.ones(4), way=3)


class TestClassify:
    def _protos(self):
        features, labels = toy_features()
        return build_classifier(features, labels, np.ones(4), way=2)

    def test_query_on_centroid_wins(self):
        pred, scores = classify(np.array([[0.0, 1.0, 0.0]]), self._protos())
        assert pred.tolist() == [1]
        assert scores.shape == (1, 2)

    def test_exact_tie_breaks_to_lowest_class(self):
        pred, scores = classify(np.array([[1.0, 1.0, 0.0]]), self._protos())
        assert scores[0, 0] == scores[0, 1]
        assert pred.tolist() == [0]

    def test_orthogonal_query_all_zero_scores(self):
        pred, scores = classify(np.array([[0.0, 0.0, 5.0]]), self._protos())
        assert np.all(scores == 0.0)
        assert pred.tolist() == [0]

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(1)
        centroids = rng.standard_normal((5, 6))
        protos = build_classifier(centroids, np.arange(5), np.ones(5))
        queries = rng.standard_normal((50, 6))
        pred, _ = classify(queries, protos)
        for q, p in zip(queries, pred):
            best = max(
                range(5),
                key=lambda c: float(np.dot(q, centroids[c]))
                / (np.linalg.norm(q) * np.linalg.norm(centroids[c])),
            )
            assert p == best

    def test_argmax_invariant_to_query_rescaling(self):
        protos = self._protos()
        queries = np.random.default_rng(2).standard_normal((20, 3))
        pred, scores = classify(queries, protos)
        pred2, scores2 = classify(4.0 * queries, protos)  # power of two: exact
        assert np.array_equal(pred, pred2)
        assert np.array_equal(scores, scores2)
        pred3, _ = classify(3.7 * queries, protos)
        assert np.array_equal(pred, pred3)

    def test_class_relabeling_permutes_predictions(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((9, 5))
        labels = np.arange(9) % 3
        perm = np.array([2, 0, 1])
        protos = build_classifier(features, labels, np.ones(9), way=3)
        protos_perm = build_classifier(features, perm[labels], np.ones(9), way=3)
        queries = rng.standard_normal((25, 5))
        assert np.array_equal(perm[classify(queries, protos)[0]], classify(queries, protos_perm)[0])

    def test_zero_query_rejected(self):
        with pytest.raises(DegenerateVectorError):
            classify(np.zeros((1, 3)), self._protos())


class TestEvaluate:
    def test_consistent_queries_score_one(self):
        ep = generate_synthetic_episode(
            4, 8, 2, 32, SyntheticNoiseConfig(class_separation=6.0), seed=0
        )
        state = adapt_task(ep, AdaptationConfig(iterations=1, learning_rate=0.0, seed=0))
        assert evaluate(ep, state) == 1.0

    def test_adversarial_relabeling_scores_zero(self):
        ep = generate_synthetic_episode(
            4, 8, 2, 32, SyntheticNoiseConfig(class_separation=6.0), seed=0
        )
        state = adapt_task(ep, AdaptationConfig(iterations=1, learning_rate=0.0, seed=0))
        assert evaluate(ep, state) == 1.0
        wrong = tuple(
            QuerySample(q.sample_id, q.image_feature, (q.ground_truth_label + 1) % ep.way)
            for q in ep.queries
        )
        shifted = TaskEpisode(
            way=ep.way,
            shots=ep.shots,
            support=ep.support,
            queries=wrong,
            feature_dim=ep.feature_dim,
            seed=ep.seed,
            source=ep.source,
        )
        assert evaluate(shifted, state) == 0.0

    def test_no_queries_rejected(self):
        ep = generate_synthetic_episode(3, 3, 1, 8, SyntheticNoiseConfig(), seed=1, query_shot=0)
        state = adapt_task(ep, AdaptationConfig(iterations=1, learning_rate=0.0, seed=1))
        with pytest.raises(InvalidParameterError):
            evaluate(ep, state)
        with pytest.raises(InvalidParameterError):
            plain_ncc_accuracy(ep)

    def test_chance_level_for_random_prototypes(self):
        rng = np.random.default_rng(4)
        hits, total = 0, 0
        for _ in range(200):
            protos = build_classifier(rng.standard_normal((5, 16)), np.arange(5), np.ones(5))
            truth = np.repeat(np.arange(5), 10)
            hits += int(np.sum(classify(rng.standard_normal((50, 16)), protos)[0] == truth))
            total += truth.size
        assert abs(hits / total - 0.2) <= 0.02

    def test_uniform_weights_identity_adapter_equals_plain_ncc(self):
        for seed in range(3):
            ep = generate_synthetic_episode(
                5, 6, 2, 16, SyntheticNoiseConfig(label_noise_ratio=0.3), seed=seed, query_shot=8
            )
            state = adapt_task(
                ep,
                AdaptationConfig(
                    iterations=2,
                    learning_rate=0.0,
                    ablation=AblationFlags(cora=False, local_loss=False, global_loss=False),
                    seed=seed,
                ),
            )
            assert state.final_image_weights == {s.sample_id: 1.0 for s in ep.support}
            assert evaluate(ep, state) == plain_ncc_accuracy(ep)
