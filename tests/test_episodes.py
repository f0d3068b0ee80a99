import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from deta.episodes import (
    NOISE_CLEAN,
    NOISE_IMAGE,
    NOISE_LABEL,
    SyntheticNoiseConfig,
    TaskEpisode,
    corrupt_labels,
    episode_bytes,
    episode_from_dict,
    generate_synthetic_episode,
    load_episode_file,
    resample_regions,
    save_episode_file,
)
from deta.errors import InvalidParameterError, ParseError, SchemaError
from oracles import per_sample_synthetic_redraw


def make_episode(seed=0, **noise):
    return generate_synthetic_episode(5, 10, 2, 16, SyntheticNoiseConfig(**noise), seed=seed)


class TestGeneration:
    def test_counts(self):
        ep = make_episode()
        assert ep.n_support == 50
        assert sum(s.region_features.shape[0] for s in ep.support) == 100
        assert ep.shots == (10,) * 5
        assert len(ep.queries) == 75

    def test_zero_noise_all_clean(self):
        ep = make_episode()
        assert all(s.noise_tag == NOISE_CLEAN for s in ep.support)
        assert all(s.label == s.ground_truth_label for s in ep.support)

    def test_determinism(self):
        a = make_episode(seed=11, label_noise_ratio=0.3, image_noise_ratio=0.2)
        b = make_episode(seed=11, label_noise_ratio=0.3, image_noise_ratio=0.2)
        assert a == b
        assert episode_bytes(a) == episode_bytes(b)
        c = make_episode(seed=12, label_noise_ratio=0.3, image_noise_ratio=0.2)
        assert episode_bytes(a) != episode_bytes(c)

    def test_image_noise_tags_and_count(self):
        ep = make_episode(image_noise_ratio=0.2)
        tagged = [s for s in ep.support if s.noise_tag == NOISE_IMAGE]
        assert len(tagged) == 10

    @pytest.mark.parametrize(
        "way,shot,k,d", [(1, 10, 2, 16), (5, 0, 2, 16), (5, 10, 0, 16), (5, 10, 2, 1)]
    )
    def test_invalid_shapes(self, way, shot, k, d):
        with pytest.raises(InvalidParameterError):
            generate_synthetic_episode(way, shot, k, d, SyntheticNoiseConfig(), seed=0)

    def test_bad_noise_config(self):
        with pytest.raises(InvalidParameterError):
            SyntheticNoiseConfig(label_noise_ratio=1.5)
        with pytest.raises(InvalidParameterError):
            SyntheticNoiseConfig(class_separation=0.0)

    def test_same_class_regions_more_similar(self):
        # class structure must be visible in region space for the weighting
        # to have anything to work with
        ep = generate_synthetic_episode(5, 10, 4, 32, SyntheticNoiseConfig(), seed=3)
        feats, labels = [], []
        for s in ep.support:
            for row in s.region_features:
                feats.append(row / np.linalg.norm(row))
                labels.append(s.label)
        feats = np.stack(feats)
        labels = np.array(labels)
        cos = feats @ feats.T
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        off_diag = ~np.eye(len(labels), dtype=bool)
        n_pairs = int(same.sum())
        assert n_pairs >= 1000
        assert cos[same].mean() > cos[~same & off_diag].mean()


class TestCorruptLabels:
    def test_zero_ratio_identity(self):
        ep = make_episode()
        assert corrupt_labels(ep, 0.0, seed=5) == ep

    def test_full_ratio_all_wrong(self):
        ep = corrupt_labels(make_episode(), 1.0, seed=5)
        assert all(s.label != s.ground_truth_label for s in ep.support)
        assert all(s.noise_tag == NOISE_LABEL for s in ep.support)

    @pytest.mark.parametrize("ratio,expected", [(0.1, 5), (0.25, 13), (0.3, 15), (0.5, 25)])
    def test_exact_count_half_away_rounding(self, ratio, expected):
        ep = corrupt_labels(make_episode(), ratio, seed=9)
        corrupted = [s for s in ep.support if s.noise_tag == NOISE_LABEL]
        assert len(corrupted) == expected

    def test_features_and_queries_untouched(self):
        base = make_episode()
        ep = corrupt_labels(base, 0.4, seed=2)
        assert ep.n_support == base.n_support
        assert ep.queries == base.queries
        for before, after in zip(base.support, ep.support):
            assert np.array_equal(before.image_feature, after.image_feature)
            assert np.array_equal(before.region_features, after.region_features)
            assert before.ground_truth_label == after.ground_truth_label

    def test_bad_ratio(self):
        with pytest.raises(InvalidParameterError):
            corrupt_labels(make_episode(), 1.2, seed=0)

    def test_wrong_label_distribution_uniform(self):
        # offsets (new - true) mod C should be uniform over {1..C-1}
        ep = make_episode(seed=21)
        counts = np.zeros(5, dtype=int)
        for trial in range(10_000):
            corrupted = corrupt_labels(ep, 0.3, seed=trial)
            for s in corrupted.support:
                if s.noise_tag == NOISE_LABEL:
                    counts[(s.label - s.ground_truth_label) % 5] += 1
        assert counts[0] == 0
        result = stats.chisquare(counts[1:])
        assert result.pvalue > 0.01

    @given(ratio=st.floats(0.0, 1.0), seed=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_count_matches_rounding(self, ratio, seed):
        ep = make_episode(seed=1)
        out = corrupt_labels(ep, ratio, seed=seed)
        n_tagged = sum(s.noise_tag == NOISE_LABEL for s in out.support)
        assert n_tagged == int(np.floor(ratio * ep.n_support + 0.5))


class TestSerialization:
    def test_round_trip_clean_episode(self, tmp_path):
        ep = make_episode(seed=4)
        path = tmp_path / "ep.json"
        save_episode_file(ep, path)
        assert load_episode_file(path) == ep

    def test_round_trip_bytes_idempotent_with_noise(self, tmp_path):
        ep = make_episode(seed=4, label_noise_ratio=0.3, image_noise_ratio=0.1)
        path = tmp_path / "ep.json"
        save_episode_file(ep, path)
        first = path.read_bytes()
        save_episode_file(load_episode_file(path), path)
        assert path.read_bytes() == first

    def test_minimal_valid_file(self, tmp_path):
        doc = {
            "version": 1,
            "feature_dim": 2,
            "way": 2,
            "support": [
                {"id": 0, "label": 0, "image_feature": [1.0, 0.0], "regions": [[1.0, 0.0]]},
                {"id": 1, "label": 1, "image_feature": [0.0, 1.0], "regions": [[0.0, 1.0]]},
            ],
            "queries": [],
        }
        path = tmp_path / "min.json"
        path.write_text(json.dumps(doc))
        ep = load_episode_file(path)
        assert ep.n_support == 2
        assert ep.support[0].region_features.shape == (1, 2)

    def _write(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    def _valid_doc(self):
        return {
            "version": 1,
            "feature_dim": 2,
            "way": 2,
            "support": [
                {"id": 0, "label": 0, "image_feature": [1.0, 0.0], "regions": [[1.0, 0.0]]},
                {"id": 1, "label": 1, "image_feature": [0.0, 1.0], "regions": [[0.0, 1.0]]},
            ],
            "queries": [{"id": 2, "label": 0, "image_feature": [1.0, 0.0]}],
        }

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_episode_file(path)

    def test_unknown_top_level_key(self, tmp_path):
        doc = self._valid_doc()
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown"):
            load_episode_file(self._write(tmp_path, doc))

    def test_missing_top_level_key(self, tmp_path):
        doc = self._valid_doc()
        del doc["queries"]
        with pytest.raises(SchemaError, match="missing"):
            load_episode_file(self._write(tmp_path, doc))

    def test_bad_version(self, tmp_path):
        doc = self._valid_doc()
        doc["version"] = 2
        with pytest.raises(SchemaError, match="version"):
            load_episode_file(self._write(tmp_path, doc))

    def test_wrong_region_dimension_names_sample(self, tmp_path):
        doc = self._valid_doc()
        doc["support"][1]["regions"] = [[0.0, 1.0, 2.0]]
        with pytest.raises(SchemaError, match="sample 1"):
            load_episode_file(self._write(tmp_path, doc))

    def test_unknown_class_index(self, tmp_path):
        doc = self._valid_doc()
        doc["support"][0]["label"] = 7
        with pytest.raises(SchemaError, match="unknown class"):
            load_episode_file(self._write(tmp_path, doc))

    def test_duplicate_support_id(self, tmp_path):
        doc = self._valid_doc()
        doc["support"][1]["id"] = 0
        with pytest.raises(SchemaError, match="duplicate"):
            load_episode_file(self._write(tmp_path, doc))

    def test_class_without_support(self, tmp_path):
        doc = self._valid_doc()
        doc["support"][1]["label"] = 0
        with pytest.raises(SchemaError):
            load_episode_file(self._write(tmp_path, doc))

    @pytest.mark.parametrize("bad", [True, "1.0", None, [1.0]])
    def test_non_number_feature_value_rejected(self, tmp_path, bad):
        doc = self._valid_doc()
        doc["support"][1]["regions"] = [[0.0, bad]]
        with pytest.raises(SchemaError, match="sample 1, region 0: feature must be a list of numbers"):
            load_episode_file(self._write(tmp_path, doc))

    def test_number_subclasses_accepted_from_library_callers(self):
        doc = self._valid_doc()
        doc["support"][1]["regions"] = [[np.float64(0.0), np.float64(1.0)]]
        ep = episode_from_dict(doc)
        assert ep.support[1].region_features.tolist() == [[0.0, 1.0]]

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        doc = self._valid_doc()
        doc["support"][1]["image_feature"] = [0, 10**400]
        with pytest.raises(SchemaError, match="support sample 1: feature value out of float range"):
            load_episode_file(self._write(tmp_path, doc))

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(bytes(range(128, 228)))
        with pytest.raises(ParseError, match="binary.json: not UTF-8"):
            load_episode_file(path)

    def test_non_finite_constant_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        text = json.dumps(self._valid_doc()).replace("1.0", "NaN", 1)
        path.write_text(text)
        with pytest.raises(SchemaError):
            load_episode_file(path)


class TestResampleRegions:
    def _loaded(self, tmp_path, k_stored=2, seed=6):
        ep = generate_synthetic_episode(
            3, 2, k_stored, 8, SyntheticNoiseConfig(), seed=seed, query_shot=1
        )
        path = tmp_path / "ep.json"
        save_episode_file(ep, path)
        return load_episode_file(path)

    def test_loaded_exact_k_zero_jitter_returns_stored(self, tmp_path):
        ep = self._loaded(tmp_path, k_stored=2)
        drawn = resample_regions(ep, 2, jitter=0.0, seed=0)
        for pos, s in enumerate(ep.support):
            assert np.array_equal(drawn[pos], s.region_features)

    def test_k_one_gives_one_region_each(self, tmp_path):
        ep = self._loaded(tmp_path, k_stored=3)
        drawn = resample_regions(ep, 1, jitter=0.0, seed=0)
        assert drawn.shape == (ep.n_support, 1, 8)

    def test_loaded_too_few_regions(self, tmp_path):
        ep = self._loaded(tmp_path, k_stored=2)
        with pytest.raises(InvalidParameterError):
            resample_regions(ep, 3, jitter=0.0, seed=0)

    def test_different_seeds_pick_different_subsets(self, tmp_path):
        ep = self._loaded(tmp_path, k_stored=20)
        differing = 0
        for pair in range(100):
            a = resample_regions(ep, 2, jitter=0.0, seed=2 * pair)
            b = resample_regions(ep, 2, jitter=0.0, seed=2 * pair + 1)
            if any(not np.array_equal(ra, rb) for ra, rb in zip(a, b)):
                differing += 1
        assert differing >= 90

    def test_synthetic_fresh_draws_deterministic(self):
        ep = make_episode(seed=8, image_noise_ratio=0.2)
        a = resample_regions(ep, 2, jitter=0.0, seed=123)
        b = resample_regions(ep, 2, jitter=0.0, seed=123)
        c = resample_regions(ep, 2, jitter=0.0, seed=124)
        assert np.array_equal(a, b)
        assert any(not np.array_equal(ra, rc) for ra, rc in zip(a, c))

    @pytest.mark.parametrize("k,seed", [(2, 0), (2, 9), (1, 4), (4, 17)])
    def test_synthetic_stored_k_matches_per_sample_draws(self, k, seed):
        ep = generate_synthetic_episode(
            4, 3, k, 16, SyntheticNoiseConfig(image_noise_ratio=0.5), seed=seed, query_shot=1
        )
        for draw_seed in (0, 123, 2**63 + 5):
            expected = per_sample_synthetic_redraw(ep, k, draw_seed)
            assert np.array_equal(resample_regions(ep, k, jitter=0.0, seed=draw_seed), expected)

    def test_synthetic_supports_larger_k(self):
        ep = make_episode(seed=8)
        drawn = resample_regions(ep, 5, jitter=0.0, seed=1)
        assert drawn.shape == (ep.n_support, 5, 16)


class TestEpisodeInvariants:
    def test_way_below_two_rejected(self):
        ep = make_episode()
        with pytest.raises(InvalidParameterError):
            TaskEpisode(
                way=1,
                shots=(50,),
                support=ep.support,
                queries=ep.queries,
                feature_dim=16,
                seed=0,
            )

    def test_labels_and_tags_accessors(self):
        ep = make_episode(seed=13, label_noise_ratio=0.2)
        labels = ep.labels()
        tags = ep.noise_tags()
        assert set(labels) == {s.sample_id for s in ep.support}
        assert sum(tag == NOISE_LABEL for tag in tags.values()) == 10
