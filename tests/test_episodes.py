import itertools
import json
import os
import stat
import threading
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import deta.episodes as episodes_module
from deta.adaptation import AdaptationConfig
from deta.episodes import (
    NOISE_CLEAN,
    NOISE_IMAGE,
    NOISE_LABEL,
    SyntheticNoiseConfig,
    TaskEpisode,
    corrupt_labels,
    episode_from_dict,
    generate_synthetic_episode,
    load_episode_file,
    output_target,
    resample_regions,
    save_episode_file,
    write_output,
)
from deta.errors import DetaError, InvalidParameterError, ParseError, SchemaError
from oracles import (
    episode_bytes,
    episode_from_samples,
    per_sample_episode,
    per_sample_resample,
    same_episode,
    stdlib_episode_bytes,
    stdlib_load_episode_file,
)


def make_episode(seed=0, **noise):
    return generate_synthetic_episode(5, 10, 2, 16, SyntheticNoiseConfig(**noise), seed=seed)


def slot_tagged_episode(counts):
    """A loaded two-class episode whose stored region j of support position i is (i, j, 1)."""
    support = [
        {"id": 5 * i + 2, "label": i % 2, "image_feature": np.ones(3),
         "regions": np.array([[i, j, 1.0] for j in range(count)])}
        for i, count in enumerate(counts)
    ]
    return episode_from_samples(3, support)


class TestGeneration:
    def test_counts(self):
        ep = make_episode()
        assert ep.n_support == 50
        assert ep.regions.shape == (100, 16)
        assert ep.region_offsets.tolist() == list(range(0, 101, 2))
        assert np.bincount(ep.labels).tolist() == [10] * 5
        assert ep.query_features.shape == (75, 16)

    def test_zero_noise_all_clean(self):
        ep = make_episode()
        assert np.all(ep.noise == NOISE_CLEAN)
        assert np.array_equal(ep.labels, ep.true_labels)

    def test_determinism(self):
        a = make_episode(seed=11, label_noise_ratio=0.3, image_noise_ratio=0.2)
        b = make_episode(seed=11, label_noise_ratio=0.3, image_noise_ratio=0.2)
        assert same_episode(a, b)
        assert episode_bytes(a) == episode_bytes(b)
        c = make_episode(seed=12, label_noise_ratio=0.3, image_noise_ratio=0.2)
        assert episode_bytes(a) != episode_bytes(c)

    def test_image_noise_tags_and_count(self):
        ep = make_episode(image_noise_ratio=0.2)
        assert np.count_nonzero(ep.noise == NOISE_IMAGE) == 10

    @pytest.mark.parametrize(
        "way,shot,k,d", [(1, 10, 2, 16), (5, 0, 2, 16), (5, 10, 0, 16), (5, 10, 2, 1)]
    )
    def test_invalid_shapes(self, way, shot, k, d):
        with pytest.raises(InvalidParameterError):
            generate_synthetic_episode(way, shot, k, d, SyntheticNoiseConfig(), seed=0)

    def test_bad_noise_config(self):
        with pytest.raises(InvalidParameterError):
            SyntheticNoiseConfig(label_noise_ratio=1.5)

    def test_same_class_regions_more_similar(self):
        # class structure must be visible in region space for the weighting
        # to have anything to work with
        ep = generate_synthetic_episode(5, 10, 4, 32, SyntheticNoiseConfig(), seed=3)
        feats = ep.regions / np.linalg.norm(ep.regions, axis=1, keepdims=True)
        labels = np.repeat(ep.labels, 4)
        cos = feats @ feats.T
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        off_diag = ~np.eye(len(labels), dtype=bool)
        n_pairs = int(same.sum())
        assert n_pairs >= 1000
        assert cos[same].mean() > cos[~same & off_diag].mean()


    @pytest.mark.parametrize(
        "way,shot,k,d,query_shot,noise",
        [
            (5, 10, 2, 16, 15, {"image_noise_ratio": 0.2, "label_noise_ratio": 0.3}),
            (3, 4, 8, 16, 5, {"image_noise_ratio": 0.5}),
            (4, 3, 2, 12, 0, {"label_noise_ratio": 0.25}),
            (7, 2, 3, 4, 3, {"image_noise_ratio": 0.3, "label_noise_ratio": 0.5}),
        ],
    )
    def test_block_draws_match_per_sample_draws(self, way, shot, k, d, query_shot, noise):
        cfg = SyntheticNoiseConfig(**noise)
        for seed in (0, 5, 2**40 + 3):
            got = generate_synthetic_episode(way, shot, k, d, cfg, seed, query_shot=query_shot)
            expected = per_sample_episode(way, shot, k, d, cfg, seed, query_shot=query_shot)
            assert same_episode(got, expected)
            assert got.seed == expected.seed


class TestCorruptLabels:
    def test_zero_ratio_identity(self):
        ep = make_episode()
        assert same_episode(corrupt_labels(ep, 0.0, seed=5), ep)

    def test_full_ratio_all_wrong(self):
        ep = corrupt_labels(make_episode(), 1.0, seed=5)
        assert np.all(ep.labels != ep.true_labels)
        assert np.all(ep.noise == NOISE_LABEL)

    @pytest.mark.parametrize("ratio,expected", [(0.1, 5), (0.25, 13), (0.3, 15), (0.5, 25)])
    def test_exact_count_half_away_rounding(self, ratio, expected):
        ep = corrupt_labels(make_episode(), ratio, seed=9)
        assert np.count_nonzero(ep.noise == NOISE_LABEL) == expected

    def test_features_and_queries_untouched(self):
        base = make_episode()
        ep = corrupt_labels(base, 0.4, seed=2)
        for name in ("sample_ids", "true_labels", "support_features", "regions",
                     "region_offsets", "query_ids", "query_labels", "query_features"):
            assert np.array_equal(getattr(ep, name), getattr(base, name))

    def test_bad_ratio(self):
        with pytest.raises(InvalidParameterError):
            corrupt_labels(make_episode(), 1.2, seed=0)

    @staticmethod
    def _count_choice_calls(monkeypatch) -> list:
        """Make np.random.default_rng hand out generators that log each choice call."""
        calls, default_rng = [], np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def choice(self, *args, **kwargs):
                calls.append(args)
                return self._rng.choice(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        return calls

    def test_one_label_in_a_one_shot_episode_is_refused_undrawn(self, monkeypatch):
        ep = generate_synthetic_episode(5, 1, 2, 8, SyntheticNoiseConfig(), seed=0, query_shot=1)
        calls = self._count_choice_calls(monkeypatch)
        with pytest.raises(InvalidParameterError,
                           match=r"^could not corrupt 1/5 labels without emptying a class$"):
            corrupt_labels(ep, 0.1, seed=0)
        assert calls == []

    def test_two_labels_in_a_one_shot_episode_keep_their_draws(self, monkeypatch):
        ep = generate_synthetic_episode(4, 1, 2, 8, SyntheticNoiseConfig(), seed=0, query_shot=1)
        calls = self._count_choice_calls(monkeypatch)
        got = [corrupt_labels(ep, 0.5, seed=seed).labels.tolist() for seed in range(3)]
        assert got == [[2, 1, 0, 3], [0, 3, 2, 1], [0, 1, 3, 2]]
        assert len(calls) >= 3

    def test_one_label_of_a_mislabelled_one_shot_episode_can_move(self):
        # both labels of a 2-way 1-shot episode are swapped; moving one back keeps both classes
        swapped = corrupt_labels(
            generate_synthetic_episode(2, 1, 2, 8, SyntheticNoiseConfig(), seed=0, query_shot=1),
            1.0, seed=0,
        )
        assert swapped.labels.tolist() == [1, 0]
        assert corrupt_labels(swapped, 0.5, seed=3).labels.tolist() == [1, 0]

    def test_wrong_label_distribution_uniform(self):
        # offsets (new - true) mod C should be uniform over {1..C-1}
        ep = make_episode(seed=21)
        counts = np.zeros(5, dtype=int)
        for trial in range(10_000):
            corrupted = corrupt_labels(ep, 0.3, seed=trial)
            hit = corrupted.noise == NOISE_LABEL
            counts += np.bincount((corrupted.labels - corrupted.true_labels)[hit] % 5, minlength=5)
        assert counts[0] == 0
        result = stats.chisquare(counts[1:])
        assert result.pvalue > 0.01

    @given(ratio=st.floats(0.0, 1.0), seed=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_count_matches_rounding(self, ratio, seed):
        ep = make_episode(seed=1)
        out = corrupt_labels(ep, ratio, seed=seed)
        n_tagged = np.count_nonzero(out.noise == NOISE_LABEL)
        assert n_tagged == int(np.floor(ratio * ep.n_support + 0.5))


class TestSerialization:
    def test_round_trip_clean_episode(self, tmp_path):
        ep = make_episode(seed=4)
        path = tmp_path / "ep.json"
        save_episode_file(ep, path)
        assert same_episode(load_episode_file(path), ep)

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
        assert ep.regions.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert ep.region_offsets.tolist() == [0, 1, 2]

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
        with pytest.raises(InvalidParameterError, match="^repeated support id 0$"):
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

    @pytest.mark.parametrize(
        "path,value,match",
        [
            (("version",), True, "unsupported version True"),
            (("way",), True, "way must be an integer"),
            (("feature_dim",), True, "feature_dim must be a positive integer"),
            (("support", 0, "id"), False, "support id must be an integer"),
            (("support", 1, "label"), True, "support sample 1: label is an unknown class index"),
            (("queries", 0, "id"), True, "query id must be an integer"),
            (("queries", 0, "label"), False, "query 2: label is an unknown class index"),
        ],
    )
    def test_boolean_integer_field_rejected(self, tmp_path, path, value, match):
        # json.loads gives bool for true/false, and bool is an int subclass
        doc = self._valid_doc()
        *parents, key = path
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        with pytest.raises(SchemaError, match=match):
            load_episode_file(self._write(tmp_path, doc))

    def test_numpy_float64_feature_values_rejected(self):
        doc = self._valid_doc()
        doc["support"][1]["regions"] = [[np.float64(0.0), np.float64(1.0)]]
        with pytest.raises(SchemaError, match="feature must be a list of numbers"):
            episode_from_dict(doc)

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        doc = self._valid_doc()
        doc["support"][1]["image_feature"] = [0, 10**400]
        with pytest.raises(SchemaError, match="support sample 1: feature value out of float range"):
            load_episode_file(self._write(tmp_path, doc))

    @pytest.mark.parametrize("way", [3, 2_000_000, 10**12])
    def test_way_above_support_count_rejected(self, tmp_path, way):
        doc = self._valid_doc()
        doc["way"] = way
        with pytest.raises(SchemaError, match=f"way {way} exceeds the 2 support samples"):
            load_episode_file(self._write(tmp_path, doc))

    def test_empty_class_listing_is_capped(self, tmp_path):
        doc = self._valid_doc()
        doc["way"] = 30
        doc["support"] = [dict(doc["support"][0], id=i) for i in range(30)]
        with pytest.raises(SchemaError) as info:
            load_episode_file(self._write(tmp_path, doc))
        assert str(info.value) == (
            "classes without support samples: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 19 more"
        )

    def test_non_finite_feature_names_its_region(self, tmp_path):
        doc = self._valid_doc()
        doc["support"][1]["regions"] = [[0.0, 1.0], [0.0, 1.0], [1e308, 0.0]]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc).replace("1e+308", "1e999"))
        with pytest.raises(SchemaError, match="support sample 1, region 2: non-finite"):
            load_episode_file(path)

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(bytes(range(128, 228)))
        with pytest.raises(ParseError, match="binary.json: not UTF-8"):
            load_episode_file(path)

    def test_non_finite_constant_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        for constant in ("NaN", "Infinity", "-Infinity"):
            text = json.dumps(self._valid_doc()).replace("1.0", constant, 1)
            path.write_text(text)
            with pytest.raises(SchemaError, match=f"non-finite JSON constant '{constant}'"):
                load_episode_file(path)

    @pytest.mark.parametrize("case", ["deep-brackets", "deep-support", "long-integer"])
    def test_json_beyond_decoder_limits_is_parse_error(self, tmp_path, case):
        # json.loads raises RecursionError for deep nesting and a bare
        # ValueError for integers over 4300 digits, not JSONDecodeError.
        text = json.dumps(self._valid_doc())
        if case == "deep-brackets":
            text = "[" * 200_000
        elif case == "deep-support":
            text = text.replace('"support": [', '"support": ' + "[" * 5000 + "]" * 4999 + ", [", 1)
        else:
            text = text.replace("1.0", "9" * 5000, 1)
        path = tmp_path / f"{case}.json"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"{case}.json: "):
            load_episode_file(path)


class TestWriter:
    SUPPORT = [
        {"id": 7, "label": 1, "image_feature": [-0.0, 5e-324], "regions": [[1.0, -0.0]]},
        {"id": -3, "label": 0, "image_feature": [1e-310, -2.5],
         "regions": [[0.1, 0.2], [2.2250738585072014e-308, -1e300], [3.0, 4.0]]},
        {"id": 2**70, "label": 1, "image_feature": [0.3, 1 / 3],
         "regions": [[-5e-324, 7.0], [8.0, 9.0]]},
    ]
    QUERIES = [
        {"id": 40, "label": 0, "image_feature": [-0.0, 0.5]},
        {"id": 2, "label": 1, "image_feature": [1e16, -1e-16]},
        {"id": 11, "label": 0, "image_feature": [1.5e-05, 9.999999999999998e-05]},
        {"id": 12, "label": 1, "image_feature": [1e-07, -1e-05]},
    ]
    # The compact JSON of SUPPORT and QUERIES, as literals: exponents carry no
    # sign or padding, and the 1e-5 band is written positionally.
    SUPPORT_BYTES = (
        b'{"id":7,"label":1,"image_feature":[-0.0,5e-324],"regions":[[1.0,-0.0]]},'
        b'{"id":-3,"label":0,"image_feature":[1e-310,-2.5],'
        b'"regions":[[0.1,0.2],[2.2250738585072014e-308,-1e300],[3.0,4.0]]},'
        b'{"id":1180591620717411303424,"label":1,"image_feature":[0.3,0.3333333333333333],'
        b'"regions":[[-5e-324,7.0],[8.0,9.0]]}'
    )
    QUERY_BYTES = (
        b'{"id":40,"label":0,"image_feature":[-0.0,0.5]},'
        b'{"id":2,"label":1,"image_feature":[1e16,-1e-16]},'
        b'{"id":11,"label":0,"image_feature":[0.000015,0.00009999999999999998]},'
        b'{"id":12,"label":1,"image_feature":[1e-7,-0.00001]}'
    )

    @classmethod
    def golden(cls, queries) -> bytes:
        query_bytes = cls.QUERY_BYTES if queries else b""
        return (b'{"version":1,"feature_dim":2,"way":2,"support":[' + cls.SUPPORT_BYTES
                + b'],"queries":[' + query_bytes + b"]}\n")

    @pytest.mark.parametrize("queries", [QUERIES, []])
    def test_bytes_equal_json_dump_of_per_sample_dict(self, tmp_path, queries):
        ep = episode_from_samples(2, self.SUPPORT, queries)
        path = tmp_path / "ep.json"
        save_episode_file(ep, path)
        assert path.read_bytes() == self.golden(queries)
        assert same_episode(load_episode_file(path), ep)

    @pytest.mark.parametrize("load", [load_episode_file, stdlib_load_episode_file])
    @pytest.mark.parametrize("old_format", [False, True])
    def test_edge_values_reload_bit_for_bit(self, tmp_path, load, old_format):
        ep = episode_from_samples(2, self.SUPPORT, self.QUERIES)
        path = tmp_path / "ep.json"
        if old_format:
            path.write_bytes(stdlib_episode_bytes(ep))
        else:
            save_episode_file(ep, path)
        loaded = load(path)
        for name in ("support_features", "regions", "query_features"):
            got, want = getattr(loaded, name), getattr(ep, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        for name in ("sample_ids", "query_ids", "labels", "query_labels", "region_offsets"):
            got, want = getattr(loaded, name).tolist(), getattr(ep, name).tolist()
            assert [(type(x), x) for x in got] == [(type(x), x) for x in want], name
        assert same_episode(loaded, ep)

    def test_generated_episode_bytes_equal_json_dump(self, tmp_path):
        ep = make_episode(seed=4, label_noise_ratio=0.3, image_noise_ratio=0.2)
        path = tmp_path / "ep.json"
        save_episode_file(ep, path)
        assert path.read_bytes() == episode_bytes(ep)
        old = tmp_path / "old.json"
        old.write_bytes(stdlib_episode_bytes(ep))
        assert old.read_bytes() != path.read_bytes()
        assert same_episode(load_episode_file(old), load_episode_file(path))

    @pytest.mark.parametrize("name", ["support_features", "regions", "query_features"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_refused_before_the_file_opens(self, tmp_path, name, value):
        ep = make_episode(seed=4)
        getattr(ep, name)[-1, 1] = value
        path = tmp_path / "ep.json"
        path.write_bytes(b"old")
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite, got NaN or infinity"):
            save_episode_file(ep, path)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["ep.json"]


def _differential_corpus() -> dict[str, bytes]:
    """Episode files, valid and refused, named by what each one tests."""
    doc = TestSerialization()._valid_doc()
    text = json.dumps(doc)

    def edited(path, value):
        copy = json.loads(text)
        *parents, key = path
        target = copy
        for step in parents:
            target = target[step]
        target[key] = value
        return json.dumps(copy)

    cases = {
        "valid": text,
        "valid-indented-crlf": json.dumps(doc, indent=2).replace("\n", "\r\n"),
        "malformed": "{not json",
        "empty": "",
        "top-level-list": "[]",
        "trailing-content": text + " x",
        "unknown-key": text[:-1] + ', "extra": 1}',
        "missing-key": text.replace(', "queries": [{"id": 2, "label": 0, "image_feature": [1.0, 0.0]}]', ""),
        "bad-version": edited(("version",), 2),
        "wrong-dimension": edited(("support", 1, "regions"), [[0.0, 1.0, 2.0]]),
        "unknown-class": edited(("support", 0, "label"), 7),
        "duplicate-id": edited(("support", 1, "id"), 0),
        "class-without-support": edited(("support", 1, "label"), 0),
        "empty-class-listing": json.dumps(
            dict(doc, way=30, support=[dict(doc["support"][0], id=i) for i in range(30)])
        ),
        "control-character-in-key": text.replace('"way"', '"w\x01ay"'),
        "lone-surrogate-escape": text.replace('"way"', '"\\ud800"'),
        "escaped-id-key": text.replace('"id"', '"\\u0069d"'),
        "string-holding-brackets": edited(("support", 1, "label"), "]]]]"),
        "key-holding-brackets": text[:-1] + ', "[[[[[[[[": 1}',
        "duplicate-keys-last-valid": text.replace('"version": 1', '"version": 2, "version": 1'),
        "duplicate-keys-last-bad": text.replace('"version": 1', '"version": 1, "version": 2'),
        "nan": text.replace("1.0", "NaN", 1),
        "infinity": text.replace("1.0", "Infinity", 1),
        "minus-infinity": text.replace("1.0", "-Infinity", 1),
        "1e999": text.replace("1.0", "1e999", 1),
        "minus-1e999": text.replace("1.0", "-1e999", 1),
        "double-max-overflow": text.replace("1.0", "1.7976931348623159e308", 1),
        "double-max": text.replace("1.0", "1.7976931348623157e308", 1),
        "subnormals": text.replace("1.0", "4.9406564584124654e-324", 1).replace("0.0", "2.2250738585072011e-308", 1),
        "underflow-to-zero": text.replace("1.0", "1e-400", 1),
        "minus-zero": text.replace("1.0", "-0.0", 1).replace("0.0]", "-0]", 1),
        "long-mantissa": text.replace("1.0", "0." + "3" * 60, 1),
        "long-integer": text.replace("1.0", "9" * 5000, 1),
        "deep-brackets": "[" * 200_000,
        "deep-support": text.replace('"support": [', '"support": ' + "[" * 5000 + "]" * 4999 + ", [", 1),
        "nested-one-too-deep": edited(("support", 1, "regions"), [[[0.0, 1.0]]]),
        "feature-10e30": edited(("support", 1, "image_feature"), [0, 10**30]),
        "feature-minus-10e30": edited(("support", 1, "image_feature"), [0, -(10**30)]),
        "feature-10e400": edited(("support", 1, "image_feature"), [0, 10**400]),
        "way-3": edited(("way",), 3),
        "way-2e6": edited(("way",), 2_000_000),
        "way-1e12": edited(("way",), 10**12),
        "way-2e70": edited(("way",), 2**70),
    }
    for bad in (True, "1.0", None, [1.0]):
        cases[f"feature-{json.dumps(bad)}"] = edited(("support", 1, "regions"), [[0.0, bad]])
    for path, value in [
        (("version",), True), (("way",), True), (("feature_dim",), True),
        (("support", 0, "id"), False), (("support", 1, "label"), True),
        (("queries", 0, "id"), True), (("queries", 0, "label"), False),
    ]:
        cases["bool-" + "-".join(map(str, path))] = edited(path, value)
    for sid in (2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70, -(2**63), -(2**63) - 1):
        cases[f"support-id-{sid}"] = edited(("support", 1, "id"), sid)
        cases[f"query-id-{sid}"] = edited(("queries", 0, "id"), sid)
    corpus = {name: value.encode("utf-8") for name, value in cases.items()}
    corpus["bom"] = b"\xef\xbb\xbf" + text.encode()
    corpus["not-utf8"] = bytes(range(128, 228))
    corpus["random-bytes"] = np.random.default_rng(0).bytes(100)
    corpus["utf8-in-key"] = text.replace('"way"', '"wäy"').encode()
    for seed, noise in [(4, {}), (5, {"label_noise_ratio": 0.3, "image_noise_ratio": 0.2})]:
        corpus[f"generated-{seed}"] = episode_bytes(make_episode(seed=seed, **noise))
        corpus[f"old-format-{seed}"] = stdlib_episode_bytes(make_episode(seed=seed, **noise))
    corpus["generated-edge-floats"] = TestWriter.golden(TestWriter.QUERIES)
    written = episode_from_samples(2, TestWriter.SUPPORT, TestWriter.QUERIES)
    corpus["old-format-edge-floats"] = stdlib_episode_bytes(written)
    return corpus


def _outcome(load, path):
    try:
        return load(path)
    except (DetaError, OSError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    """Equal refusals, or equal episodes whose arrays match in dtype, shape and bits."""
    if not isinstance(want, TaskEpisode):
        assert got == want
        return
    assert isinstance(got, TaskEpisode)
    for f in fields(TaskEpisode):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if not isinstance(b, np.ndarray):
            assert a == b, f.name
        elif b.dtype == object:  # ids beyond 64 bits stay Python ints
            assert [(type(x), x) for x in a.tolist()] == [(type(x), x) for x in b.tolist()], f.name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


class TestLoaderMatchesStdlib:
    """load_episode_file against the json-only reference loader in oracles."""

    CORPUS = _differential_corpus()

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_same_episode_or_same_refusal(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_bytes(self.CORPUS[name])
        _assert_same_outcome(
            _outcome(load_episode_file, path), _outcome(stdlib_load_episode_file, path)
        )

    def test_corpus_holds_valid_and_refused_files(self, tmp_path):
        kinds = Counter()
        for name, data in self.CORPUS.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(data)
            kinds[type(_outcome(stdlib_load_episode_file, path)).__name__] += 1
        assert kinds["TaskEpisode"] >= 10 and kinds["tuple"] >= 40

    @pytest.mark.parametrize("missing", [True, False])
    def test_unreadable_path_same_error(self, tmp_path, missing):
        path = tmp_path / "nope.json" if missing else tmp_path
        _assert_same_outcome(
            _outcome(load_episode_file, path), _outcome(stdlib_load_episode_file, path)
        )

    @given(literal=st.from_regex(
        r"\A-?(0|[1-9][0-9]{0,39})(\.[0-9]{1,40})?([eE][-+]?[0-9]{1,3})?\Z"
    ))
    def test_decimal_literals_parse_to_the_same_bits(self, tmp_path_factory, literal):
        text = json.dumps(TestSerialization()._valid_doc()).replace("1.0", literal, 1)
        path = tmp_path_factory.mktemp("literal") / "ep.json"
        path.write_text(text)
        _assert_same_outcome(
            _outcome(load_episode_file, path), _outcome(stdlib_load_episode_file, path)
        )

class TestWriteOutput:
    def test_success_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        write_output(path, b"a\r\nb\n")
        assert path.read_bytes() == b"a\r\nb\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("old", [None, "old\n"])
    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failure_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch, old, error):
        path = tmp_path / "out.json"
        if old is not None:
            path.write_text(old)
        written = []

        def failing_replace(src, dst):
            with open(src, "rb") as fh:
                written.append(fh.read())
            raise error()

        monkeypatch.setattr(episodes_module.os, "replace", failing_replace)
        with pytest.raises(error):
            write_output(path, b"partial")
        assert written == [b"partial"]
        assert (path.read_text() if path.exists() else None) == old
        assert os.listdir(tmp_path) == ([] if old is None else ["out.json"])

    def test_a_symbolic_link_keeps_naming_the_written_file(self, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("old\n")
        link.symlink_to(real)
        write_output(link, b"new\n")
        assert link.is_symlink() and real.read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_output(fifo, b"a\r\nb\n")
        reader.join(timeout=30)
        assert received == [b"a\r\nb\n"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert os.listdir(tmp_path) == ["out.fifo"]

    def test_mode_bits_follow_the_umask(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = tmp_path / "out.json"
        write_output(path, b"{}")
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("kind", ["regular", "missing", "link", "dangling-link", "fifo", "null"])
    def test_output_target_names_the_file_replaced(self, tmp_path, kind):
        real = tmp_path / "real"
        path = {"regular": real, "null": os.devnull}.get(kind, tmp_path / "out")
        if kind in ("regular", "link"):
            real.write_bytes(b"old")
        if kind in ("link", "dangling-link"):
            path.symlink_to(real)
        if kind == "fifo":
            os.mkfifo(path)
        expected = {"missing": path, "fifo": None, "null": None}.get(kind, real)
        assert output_target(path) == (expected and expected.resolve())


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
        assert np.array_equal(drawn.reshape(-1, 8), ep.regions)

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
        a = resample_regions(ep, 2, jitter=AdaptationConfig.jitter, seed=123)
        b = resample_regions(ep, 2, jitter=AdaptationConfig.jitter, seed=123)
        c = resample_regions(ep, 2, jitter=AdaptationConfig.jitter, seed=124)
        assert np.array_equal(a, b)
        assert any(not np.array_equal(ra, rc) for ra, rc in zip(a, c))

    @pytest.mark.parametrize("k,seed", [(2, 0), (2, 9), (1, 4), (4, 17)])
    def test_synthetic_stored_k_matches_per_sample_draws(self, k, seed):
        ep = generate_synthetic_episode(
            4, 3, k, 16, SyntheticNoiseConfig(image_noise_ratio=0.5), seed=seed, query_shot=1
        )
        for draw_seed in (0, 123, 2**63 + 5):
            expected = per_sample_resample(ep, k, AdaptationConfig.jitter, draw_seed)
            drawn = resample_regions(ep, k, jitter=AdaptationConfig.jitter, seed=draw_seed)
            assert np.array_equal(drawn, expected)

    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_loaded_matches_per_sample_draws(self, jitter):
        rng = np.random.default_rng(1)
        support = [
            {"id": sid, "label": sid % 2, "image_feature": rng.standard_normal(3),
             "regions": rng.standard_normal((count, 3))}
            for sid, count in zip((4, 1, 9, 0), (2, 5, 3, 7))
        ]
        ep = episode_from_samples(3, support)
        for k, draw_seed in ((1, 0), (2, 5), (2, 2**63 + 1)):
            expected = per_sample_resample(ep, k, jitter, draw_seed)
            assert np.array_equal(resample_regions(ep, k, jitter=jitter, seed=draw_seed), expected)

    @given(data=st.data())
    def test_loaded_draw_takes_distinct_own_rows_in_slot_order(self, data):
        counts = data.draw(st.lists(st.integers(1, 9), min_size=2, max_size=8))
        k = data.draw(st.integers(1, min(counts)))
        ep = slot_tagged_episode(counts)
        drawn = resample_regions(ep, k, jitter=0.0, seed=data.draw(st.integers(0, 2**64 - 1)))
        assert drawn.shape == (len(counts), k, 3)
        owner, slots = drawn[..., 0].astype(int), drawn[..., 1].astype(int)
        assert np.array_equal(owner, np.repeat(np.arange(len(counts))[:, None], k, axis=1))
        assert np.all(slots < np.array(counts)[:, None])
        assert np.all(np.diff(slots, axis=1) > 0)  # no slot twice, ascending
        assert np.array_equal(drawn, ep.regions[ep.region_offsets[:-1, None] + slots])

    @given(count=st.integers(1, 6), n=st.integers(2, 6), seed=st.integers(0, 2**64 - 1))
    def test_loaded_k_equal_to_every_count_returns_stored_rows(self, count, n, seed):
        ep = slot_tagged_episode([count] * n)
        drawn = resample_regions(ep, count, jitter=0.0, seed=seed)
        assert np.array_equal(drawn.reshape(-1, 3), ep.regions)

    def test_loaded_subsets_are_uniform(self):
        counts, k, draws = (5, 3, 7), 2, 3000
        ep = slot_tagged_episode(counts)
        seen = [Counter() for _ in counts]
        for seed in range(draws):
            slots = resample_regions(ep, k, jitter=0.0, seed=seed)[..., 1].astype(int)
            for pos, row in enumerate(slots.tolist()):
                seen[pos][tuple(row)] += 1
        for pos, count in enumerate(counts):
            subsets = list(itertools.combinations(range(count), k))
            observed = np.array([seen[pos][subset] for subset in subsets])
            assert observed.sum() == draws
            expected = draws / len(subsets)
            statistic = float(((observed - expected) ** 2 / expected).sum())
            # the 99.9th percentile of chi-square with len(subsets) - 1 degrees of freedom
            assert statistic < stats.chi2.ppf(0.999, len(subsets) - 1)

    def test_synthetic_rejects_other_k(self):
        ep = make_episode(seed=8)
        with pytest.raises(InvalidParameterError, match="^sample 0 stores 2 regions, need 3$"):
            resample_regions(ep, 3, jitter=0.0, seed=1)
        drawn = resample_regions(ep, 1, jitter=0.0, seed=1)
        stored = ep.regions.reshape(ep.n_support, 2, -1)
        assert np.all((drawn == stored[:, :1]).all(axis=2) | (drawn == stored[:, 1:]).all(axis=2))


class TestEpisodeInvariants:
    def test_way_below_two_rejected(self):
        ep = make_episode()
        with pytest.raises(InvalidParameterError, match="at least 2 classes, got 1"):
            replace(ep, labels=np.zeros_like(ep.labels))

    def test_way_and_feature_dim_come_from_the_arrays(self):
        ep = make_episode()
        assert (ep.way, ep.feature_dim) == (5, 16)
        assert {f.name for f in fields(TaskEpisode)}.isdisjoint({"way", "feature_dim"})
        with pytest.raises(AttributeError):
            ep.way = 6

    @pytest.mark.parametrize("labels, message", [
        ([], "at least 2 classes, got 0"),
        ([-1, -2], "at least 2 classes, got 0"),
        ([0, -1, 1], r"labels outside \[0, 2\)"),
    ])
    def test_empty_or_negative_labels_refused_by_deta(self, labels, message):
        labels = np.array(labels, dtype=np.int64)
        n = len(labels)
        with pytest.raises(InvalidParameterError, match=message):
            TaskEpisode(
                sample_ids=np.arange(n), labels=labels, true_labels=labels,
                noise=np.full(n, NOISE_CLEAN), support_features=np.zeros((n, 2)),
                regions=np.zeros((n, 2)), region_offsets=np.arange(n + 1),
                query_ids=np.arange(0), query_labels=np.arange(0), query_features=np.zeros((0, 2)),
            )

    @pytest.mark.parametrize("kind, name", [("support", "sample_ids"), ("query", "query_ids")])
    def test_repeated_ids_refused(self, kind, name):
        ep = make_episode()
        ids = getattr(ep, name).copy()
        ids[[3, 7]] = ids[2]
        ids[9] = ids[8]
        with pytest.raises(InvalidParameterError, match=f"^repeated {kind} id {ids[2]}$"):
            replace(ep, **{name: ids})

    def test_arrays_that_do_not_fit_rejected(self):
        ep = make_episode()
        for bad in (
            {"region_offsets": ep.region_offsets[:-1]},
            {"region_offsets": np.zeros_like(ep.region_offsets)},
            {"support_features": ep.support_features[:, :3]},
            {"query_labels": ep.query_labels[1:]},
            {"true_labels": ep.true_labels + 5},
        ):
            with pytest.raises(InvalidParameterError):
                replace(ep, **bad)

    def test_noise_tags_accessor(self):
        ep = make_episode(seed=13, label_noise_ratio=0.2)
        tags = ep.noise_tags()
        assert set(tags) == set(range(50))
        assert sum(tag == NOISE_LABEL for tag in tags.values()) == 10
