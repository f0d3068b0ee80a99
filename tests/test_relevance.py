import numpy as np
import pytest

from deta.adaptation import AdaptationConfig
from deta.episodes import SyntheticNoiseConfig, generate_synthetic_episode, resample_regions
from deta.errors import DegenerateVectorError, InvalidParameterError
from deta.relevance import (
    RegionIndex,
    RegionWeightTable,
    accumulate_image_weights,
    mean_relevance,
    region_weights,
    uniform_weight_table,
)
from oracles import brute_region_weights, region_rows, validate_weight_table


def grid_regions(n_classes, samples_per_class, k, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    regions = {}
    sid = 0
    for c in range(n_classes):
        for _ in range(samples_per_class):
            for slot in range(k):
                regions[RegionIndex(sid, slot, c)] = rng.standard_normal(dim)
            sid += 1
    return regions


def weights_by_key(regions, **kw):
    """region_weights on regions named by RegionIndex, with the table's rows named back."""
    keys, feats, sample_of, class_of = region_rows(regions)
    table = region_weights(feats, sample_of, class_of, **kw)
    return table, {key: row for row, key in enumerate(keys)}


def relevance(features, sample_ids, class_of):
    """mean_relevance on rows given as sample positions and per-sample classes."""
    return mean_relevance(np.asarray(features, dtype=float), np.asarray(sample_ids), np.asarray(class_of))


class TestBuildRegionSets:
    """In-class and out-of-class pools, seen through the mean relevance they produce."""

    def test_two_by_two_by_two_counts(self):
        # Every region points along u except one region of sample 1 (class 0) and one of
        # sample 2 (class 1), which are orthogonal: a mean over m pool members with one
        # orthogonal member is (m - 1) / m, which reveals the pool size.
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        feats = [u, u, u, v, v, u, u, u]
        phi, psi = relevance(feats, np.repeat(np.arange(4), 2), [0, 0, 1, 1])
        assert phi[0] == pytest.approx(1.0 / 2.0, abs=1e-15)  # in-set: both regions of sample 1
        assert psi[0] == pytest.approx(3.0 / 4.0, abs=1e-15)  # out-set: all 4 class-1 regions
        _, feats_arr, sample_of, class_of = region_rows(grid_regions(2, 2, 2))
        phi, psi = mean_relevance(feats_arr, sample_of, class_of)
        expected = brute_region_weights(feats_arr, sample_of, class_of)
        assert np.allclose(phi, expected["phi"], atol=1e-12)
        assert np.allclose(psi, expected["psi"], atol=1e-12)

    def test_single_sample_class_has_empty_in_set(self):
        _, feats, sample_of, class_of = region_rows(grid_regions(2, 1, 2))
        phi, psi = mean_relevance(feats, sample_of, class_of)
        assert np.all(phi == 0.0)
        assert np.allclose(psi, brute_region_weights(feats, sample_of, class_of)["psi"], atol=1e-12)

    def test_k_one_in_set_size(self):
        # one region per other same-class sample: 3 in-set members, one of them orthogonal
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        feats = [u, u, u, v] + [u] * 8
        phi, _ = relevance(feats, np.arange(12), np.repeat(np.arange(3), 4))
        assert phi[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


class TestRelevanceScores:
    """mean_relevance on hand-made pools; the region of interest is row 0."""

    def test_identical_single_member(self):
        region = np.array([3.0, 4.0])
        phi, _ = relevance([region, region.copy(), [0.5, -1.0]], [0, 1, 2], [0, 0, 1])
        assert phi[0] == 1.0

    def test_mean_of_similarities(self):
        feats = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        phi, _ = relevance(feats, [0, 1, 2, 3], [0, 0, 0, 1])
        assert phi[0] == 0.5

    def test_orthogonal_out_set(self):
        feats = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        _, psi = relevance(feats, [0, 1, 2], [0, 1, 1])
        assert psi[0] == 0.0

    def test_empty_in_set_scores_zero(self):
        phi, _ = relevance([[1.0, 0.0], [0.0, 1.0]], [0, 1], [0, 1])
        assert phi[0] == 0.0

    def test_empty_out_set_rejected(self):
        with pytest.raises(InvalidParameterError):
            relevance([[1.0, 0.0], [1.0, 0.0]], [0, 1], [0, 0])

    def test_zero_norm_member(self):
        with pytest.raises(DegenerateVectorError):
            relevance([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [0, 1, 2], [0, 0, 1])


class TestRegionWeights:
    def test_symmetric_instance_gives_unit_weights(self):
        # identical regions inside each class, orthogonal class directions
        feats = np.repeat(np.eye(4)[:2], 4, axis=0)
        table = region_weights(feats, np.repeat(np.arange(4), 2), np.array([0, 0, 1, 1]))
        assert np.all(np.abs(table.weights - 1.0) < 1e-12)
        validate_weight_table(table)

    def test_matches_brute_force(self):
        for seed in range(5):
            _, feats, sample_of, class_of = region_rows(grid_regions(3, 2, 2, dim=5, seed=seed))
            table = region_weights(feats, sample_of, class_of)
            expected = brute_region_weights(feats, sample_of, class_of)
            assert np.all(np.abs(table.weights - expected["lam"]) < 1e-9)
            assert np.all(np.abs(table.per_class_phi - expected["phi_norm"]) < 1e-9)
            assert np.all(np.abs(table.per_class_psi - expected["psi_norm"]) < 1e-9)

    def test_permutation_equivariance(self):
        regions = grid_regions(2, 3, 2, seed=3)
        table, row = weights_by_key(regions)
        remap = {0: 4, 1: 3, 2: 5, 3: 0, 4: 2, 5: 1}
        permuted = {
            RegionIndex(remap[k.sample_id], k.region_slot, k.class_id): v
            for k, v in regions.items()
        }
        permuted_table, permuted_row = weights_by_key(permuted)
        for key in regions:
            moved = RegionIndex(remap[key.sample_id], key.region_slot, key.class_id)
            assert permuted_table.weights[permuted_row[moved]] == pytest.approx(
                table.weights[row[key]], abs=1e-12
            )

    def test_positive_scale_invariance(self):
        _, feats, sample_of, class_of = region_rows(grid_regions(2, 2, 2, seed=4))
        scaled = feats.copy()
        scaled[sample_of == 1] *= 17.5
        base = region_weights(feats, sample_of, class_of)
        after = region_weights(scaled, sample_of, class_of)
        assert np.all(np.abs(base.weights - after.weights) < 1e-9)

    def test_single_sample_class_uniform_phi(self):
        _, feats, sample_of, class_of = region_rows(grid_regions(2, 1, 3, seed=5))
        table = region_weights(feats, sample_of, class_of)
        assert np.allclose(table.per_class_phi, 1.0 / 3.0, rtol=0, atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidParameterError):
            region_weights(np.ones((2, 3)), np.array([0, 1]), np.array([0, 0]))

    def test_zero_norm_region_rejected(self):
        _, feats, sample_of, class_of = region_rows(grid_regions(2, 2, 1, seed=6))
        feats[0] = 0.0
        with pytest.raises(DegenerateVectorError):
            region_weights(feats, sample_of, class_of)

    def test_table_invariants(self):
        _, feats, sample_of, class_of = region_rows(grid_regions(3, 3, 2, seed=8))
        table = region_weights(feats, sample_of, class_of)
        validate_weight_table(table)
        per_class = np.bincount(class_of[sample_of], weights=table.per_class_phi)
        assert np.all(np.abs(per_class - 1.0) < 1e-9)

    def test_pure_function_no_state(self):
        _, feats, sample_of, class_of = region_rows(grid_regions(2, 2, 2, seed=9))
        first = region_weights(feats, sample_of, class_of)
        second = region_weights(feats, sample_of, class_of)
        assert np.array_equal(first.weights, second.weights)

    def test_uniform_table(self):
        _, _, sample_of, class_of = region_rows(grid_regions(2, 2, 2))
        table = uniform_weight_table(sample_of, class_of)
        assert np.all(table.weights == 1.0)
        validate_weight_table(table)


class TestAccumulator:
    def _table(self, means: dict[int, tuple[float, ...]]) -> RegionWeightTable:
        lams = [lam for sid in sorted(means) for lam in means[sid]]
        sample_of = np.array([sid for sid in sorted(means) for _ in means[sid]])
        ones = np.ones(len(lams))
        return RegionWeightTable(np.array(lams), ones, ones, sample_of, np.zeros(len(means), dtype=int))

    def test_first_update_is_mean(self):
        omega = accumulate_image_weights(None, self._table({0: (0.4, 0.6)}).sample_means(), 0.7)
        assert omega[0] == pytest.approx(0.5, abs=1e-15)

    def test_second_update_blends(self):
        omega = accumulate_image_weights(
            np.array([0.5]), self._table({0: (1.0, 1.0)}).sample_means(), 0.7
        )
        assert omega[0] == pytest.approx(0.65, abs=1e-15)

    def test_constant_stream_converges_to_mean(self):
        omega = None
        table = self._table({0: (2.5, 2.5), 1: (0.3, 0.7)})
        for _ in range(200):
            omega = accumulate_image_weights(omega, table.sample_means(), 0.7)
        assert abs(omega[0] - 2.5) < 1e-6
        assert abs(omega[1] - 0.5) < 1e-6

    def test_geometric_convergence_rate(self):
        omega = accumulate_image_weights(None, self._table({0: (0.0,)}).sample_means(), 0.7)
        target = self._table({0: (1.0,)})
        for t in range(1, 6):
            omega = accumulate_image_weights(omega, target.sample_means(), 0.7)
            assert omega[0] == pytest.approx(1.0 - 0.7**t, abs=1e-12)

    def test_missing_sample_raises(self):
        omega = accumulate_image_weights(
            None, self._table({0: (1.0,), 1: (1.0,)}).sample_means(), 0.7
        )
        with pytest.raises(InvalidParameterError, match="region weights cover 1 samples, accumulator holds 2"):
            accumulate_image_weights(omega, self._table({0: (1.0,)}).sample_means(), 0.7)

    def test_unknown_sample_raises(self):
        omega = accumulate_image_weights(None, self._table({0: (1.0,)}).sample_means(), 0.7)
        with pytest.raises(InvalidParameterError, match="region weights cover 2 samples, accumulator holds 1"):
            accumulate_image_weights(omega, self._table({0: (1.0,), 1: (1.0,)}).sample_means(), 0.7)


class TestNoiseSeparation:
    def test_label_noisy_samples_get_lower_weights(self):
        # weighting alone (no training) must separate mislabeled samples
        hits = 0
        total = 100
        for i in range(total):
            ep = generate_synthetic_episode(
                5, 10, 2, 64, SyntheticNoiseConfig(label_noise_ratio=0.3), seed=5000 + i
            )
            class_of = ep.labels
            sample_of = np.repeat(np.arange(ep.n_support), 2)
            omega = None
            for t in range(10):
                drawn = resample_regions(ep, 2, jitter=AdaptationConfig.jitter, seed=97 * i + t)
                table = region_weights(drawn.reshape(-1, ep.feature_dim), sample_of, class_of)
                omega = accumulate_image_weights(omega, table.sample_means(), 0.7)
            tags = ep.noise
            clean = [w for w, tag in zip(omega, tags) if tag == "clean"]
            noisy = [w for w, tag in zip(omega, tags) if tag == "label_noisy"]
            hits += int(np.mean(clean) > np.mean(noisy))
        assert hits >= 95
