import math
import tracemalloc

import numpy as np
import pytest

from deta.episodes import SyntheticNoiseConfig, generate_synthetic_episode, resample_regions
from deta.errors import DegenerateVectorError, InvalidParameterError
from deta.losses import (
    EmbeddingBatch,
    LossHyperparams,
    combined_loss,
    global_dispersion_loss,
    local_compactness_loss,
)
from deta.numerics import segment_mean
from oracles import (
    brute_global_loss,
    brute_local_loss,
    fd_matches,
    flatten_embeddings,
    flatten_grads,
    make_instance,
    rebuild_batch,
    reference_local_loss,
    validate_embedding_batch,
)


def unit(*coords):
    v = np.array(coords, dtype=float)
    return v / np.linalg.norm(v)


def region_batch(regions, region_class):
    """One region per sample, no image embeddings needed: for local-loss tests."""
    regions = np.array(regions, dtype=float)
    return EmbeddingBatch(
        image_embeddings=np.zeros((len(regions), regions.shape[1])),
        region_embeddings=regions,
        sample_of=np.arange(len(regions)),
        class_of=np.asarray(region_class),
    )


def region_class(batch):
    return batch.class_of[batch.sample_of]


def single_region_posterior_loss(region, prototypes, own_class, pi=0.07):
    """Global loss of one unit-weight region: minus the log of its class posterior.

    Each prototype is the image embedding of a one-sample class with omega 1.
    """
    prototypes = np.array(prototypes, dtype=float)
    batch = EmbeddingBatch(
        image_embeddings=prototypes,
        region_embeddings=np.array([region], dtype=float),
        sample_of=np.array([own_class]),
        class_of=np.arange(len(prototypes)),
    )
    value, _, _ = global_dispersion_loss(batch, np.ones(1), np.ones(len(prototypes)), pi)
    return value


class TestPairwiseLocalTerm:
    """Pair terms of the local loss, seen through the loss over all ordered pairs."""

    def test_two_region_universe_is_zero(self):
        batch = region_batch([unit(1, 0), unit(0.6, 0.8)], [0, 0])
        value, _ = local_compactness_loss(batch, np.ones(2), tau=0.5)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_duplicate_direction_with_orthogonal_negative(self):
        batch = region_batch([unit(1, 0), unit(1, 0), unit(0, 1)], [0, 0, 1])
        term = -math.log(math.e**2 / (math.e**2 + 1.0))
        value, _ = local_compactness_loss(batch, np.ones(3), tau=0.5)
        # both ordered pairs of the one same-class pair carry the same term
        assert value == pytest.approx(2.0 * term, abs=1e-12)

    def test_high_temperature_limit(self):
        rng = np.random.default_rng(0)
        batch = region_batch([unit(*rng.standard_normal(4)) for _ in range(6)], [0, 1] * 3)
        value, _ = local_compactness_loss(batch, np.ones(6), tau=1e9)
        # 12 ordered pairs, each -> log(5), over 6 unordered pairs
        assert value == pytest.approx(2.0 * math.log(5), abs=1e-6)

    def test_same_index_rejected(self):
        # a region is never its own partner: alone in the batch it forms no pair
        value, grads = local_compactness_loss(region_batch([unit(1, 0)], [0]), np.ones(1), tau=0.5)
        assert value == 0.0
        assert np.all(grads == 0.0)


class TestLocalCompactnessLoss:
    def test_single_class_two_regions_zero(self):
        batch = region_batch([unit(1, 0, 0), unit(0, 1, 0)], [0, 0])
        value, grads = local_compactness_loss(batch, np.array([1.3, 0.7]), tau=0.5)
        assert value == 0.0
        assert np.all(grads == 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(4):
            batch, weights, _ = make_instance(rng, n_classes=3, samples_per_class=2, k=2)
            value, _ = local_compactness_loss(batch, weights, tau=0.5)
            expected = brute_local_loss(batch.region_embeddings, weights, region_class(batch), 0.5)
            assert value == pytest.approx(expected, abs=1e-9)

    def test_unit_weights_single_region_supervised_contrastive(self):
        rng = np.random.default_rng(2)
        batch, _, _ = make_instance(rng, n_classes=3, samples_per_class=4, k=1)
        ones = np.ones(len(batch.region_embeddings))
        value, _ = local_compactness_loss(batch, ones, tau=0.5)
        expected = brute_local_loss(batch.region_embeddings, ones, region_class(batch), 0.5)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_doubling_weights_changes_value(self):
        rng = np.random.default_rng(3)
        batch, weights, _ = make_instance(rng, n_classes=2, samples_per_class=2, k=2)
        value, _ = local_compactness_loss(batch, weights, tau=0.5)
        doubled = 2.0 * weights
        value2, _ = local_compactness_loss(batch, doubled, tau=0.5)
        assert value != pytest.approx(value2, abs=1e-6)
        assert value2 == pytest.approx(
            brute_local_loss(batch.region_embeddings, doubled, region_class(batch), 0.5), abs=1e-9
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        batch, weights, _ = make_instance(rng, n_classes=2, samples_per_class=2, k=2)

        def f(vec):
            value, _ = local_compactness_loss(rebuild_batch(batch, vec), weights, tau=0.5)
            return value

        _, grads = local_compactness_loss(batch, weights, tau=0.5)
        analytic = flatten_grads(grads, np.zeros_like(batch.image_embeddings))
        ok, worst = fd_matches(f, flatten_embeddings(batch), analytic)
        assert ok, f"worst tolerance ratio {worst}"

    def test_class_label_permutation_invariance(self):
        rng = np.random.default_rng(5)
        batch, weights, _ = make_instance(rng, n_classes=3, samples_per_class=2, k=2)
        value, _ = local_compactness_loss(batch, weights, tau=0.5)
        relabel = np.array([2, 0, 1])
        batch.class_of = relabel[batch.class_of]
        value2, _ = local_compactness_loss(batch, weights, tau=0.5)
        assert value == pytest.approx(value2, abs=1e-12)

    def test_missing_weight(self):
        rng = np.random.default_rng(6)
        batch, weights, _ = make_instance(rng)
        with pytest.raises(InvalidParameterError, match=r"region weights has shape \(7,\), expected \(8,\)"):
            local_compactness_loss(batch, weights[1:], tau=0.5)

    def test_large_weight_logits_stay_finite(self):
        rng = np.random.default_rng(7)
        batch, _, _ = make_instance(rng, n_classes=2, samples_per_class=2, k=2)
        big = np.full(len(batch.region_embeddings), 50.0)
        value, grads = local_compactness_loss(batch, big, tau=0.07)
        assert np.isfinite(value)
        assert np.all(np.isfinite(grads))


def wide_local_instance(r: int, e: int):
    """r one-region samples of width e, several classes plus a one-region class; every 7th weight 0."""
    rng = np.random.default_rng(r * 1000 + e)
    rows = rng.standard_normal((r, e))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    class_of = rng.integers(0, max(1, r // 8), size=r)
    if r > 2:
        class_of[-1] = class_of.max() + 1
    weights = rng.uniform(0.4, 2.0, size=r)
    weights[::7] = 0.0
    return region_batch(rows, class_of), weights


class TestLocalLossAgainstReference:
    """The banded P + P^T equals the whole-matrix formula bit for bit, across band edges."""

    @pytest.mark.parametrize("e", [3, 128])
    @pytest.mark.parametrize("r", [2, 63, 64, 65, 129, 400])
    def test_bitwise_equal(self, r, e):
        batch, weights = wide_local_instance(r, e)
        value, grads = local_compactness_loss(batch, weights, tau=0.5)
        expected_value, expected_grads = reference_local_loss(batch, weights, 0.5)
        assert value == expected_value
        assert np.array_equal(grads, expected_grads)

    def test_peak_memory_is_one_matrix_and_a_band(self):
        """numpy reports its buffers to tracemalloc; `ex += ex.T` alone would add a second r x r copy."""
        r = 512
        batch, weights = wide_local_instance(r, 8)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            local_compactness_loss(batch, weights, tau=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1.75 * r * r * 8


class TestPrototypes:
    """Class prototypes: the segment mean shared by the global loss and the classifier."""

    def test_identical_members(self):
        e = unit(1, 2, 2)
        protos, _ = segment_mean([e, e.copy()], [0, 0], 1, weights=np.ones(2))
        assert np.allclose(protos[0], e, atol=1e-15)

    def test_arithmetic_mean(self):
        protos, counts = segment_mean([[1.0, 0.0], [0.0, 1.0]], [0, 0], 1, weights=np.ones(2))
        assert np.allclose(protos[0], [0.5, 0.5], atol=0)
        assert counts.tolist() == [2.0]

    def test_zero_weight_member_vanishes(self):
        protos, _ = segment_mean([[1.0, 0.0], [0.0, 1.0]], [0, 0], 1, weights=np.array([2.0, 0.0]))
        assert np.allclose(protos[0], [1.0, 0.0], atol=0)

    def test_no_renormalization(self):
        e = unit(1, 0)
        protos, _ = segment_mean([e, e.copy()], [0, 0], 1, weights=np.array([0.5, 0.5]))
        assert np.linalg.norm(protos[0]) == pytest.approx(0.5, abs=1e-15)

    def test_empty_input(self):
        with pytest.raises(InvalidParameterError, match=r"segments without members: \[0\]"):
            segment_mean(np.zeros((0, 2)), np.zeros(0, dtype=int), 1, weights=np.zeros(0))


class TestPosterior:
    """Region-to-prototype posteriors, seen through the global loss of one region."""

    def test_equal_similarity_gives_half(self):
        value = single_region_posterior_loss(unit(1, 1), [[1.0, 0.0], [0.0, 1.0]], own_class=0)
        assert math.exp(-value) == pytest.approx(0.5, abs=1e-12)

    def test_equidistant_uniform(self):
        value = single_region_posterior_loss(unit(1, 1, 1, 1, 1), np.eye(5), own_class=3)
        assert math.exp(-value) == pytest.approx(0.2, abs=1e-12)

    def test_collinear_vs_orthogonal_logistic(self):
        protos = [[2.0, 0.0], [0.0, 3.0]]
        sigma = 1.0 / (1.0 + math.exp(-1.0 / 0.07))
        own = math.exp(-single_region_posterior_loss([1.0, 0.0], protos, own_class=0))
        other = math.exp(-single_region_posterior_loss([1.0, 0.0], protos, own_class=1))
        assert own == pytest.approx(sigma, abs=1e-12)
        assert other == pytest.approx(1.0 - sigma, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        protos = rng.standard_normal((6, 4))
        region = unit(*rng.standard_normal(4))
        posterior = [math.exp(-single_region_posterior_loss(region, protos, c)) for c in range(6)]
        assert abs(sum(posterior) - 1.0) < 1e-12

    def test_zero_prototype(self):
        with pytest.raises(DegenerateVectorError):
            single_region_posterior_loss(unit(1, 0), [np.zeros(2), unit(0, 1)], own_class=0)


class TestGlobalDispersionLoss:
    def test_equidistant_single_region_ln2(self):
        batch = EmbeddingBatch(
            image_embeddings=np.array([[1.0, 0.0], [0.0, 1.0]]),
            region_embeddings=np.array([unit(1, 1)]),
            sample_of=np.array([0]),
            class_of=np.array([0, 1]),
        )
        value, _, _ = global_dispersion_loss(batch, np.ones(1), np.ones(2), pi=0.07)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_class_ids_with_a_gap_refused(self):
        batch = EmbeddingBatch(
            image_embeddings=np.array([[1.0, 0.0], [0.0, 1.0]]),
            region_embeddings=np.array([unit(1, 1)]),
            sample_of=np.array([0]),
            class_of=np.array([0, 2]),
        )
        with pytest.raises(InvalidParameterError, match=r"segments without members: \[1\]"):
            global_dispersion_loss(batch, np.ones(1), np.ones(2), pi=0.07)

    def test_negative_class_id_refused(self):
        batch = EmbeddingBatch(np.eye(2), np.array([[1.0, 1.0]]), np.array([0]), np.array([-1, 0]))
        with pytest.raises(InvalidParameterError, match="region rows or classes do not match the image rows"):
            global_dispersion_loss(batch, np.ones(1), np.ones(2), pi=0.07)

    def test_zero_weights_annihilate(self):
        rng = np.random.default_rng(9)
        batch, weights, omega = make_instance(rng)
        value, reg_g, img_g = global_dispersion_loss(batch, np.zeros_like(weights), omega, pi=0.07)
        assert value == 0.0
        assert np.all(reg_g == 0.0)
        assert np.all(img_g == 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for trial in range(4):
            batch, weights, omega = make_instance(rng, n_classes=3, samples_per_class=2)
            value, _, _ = global_dispersion_loss(batch, weights, omega, pi=0.07)
            expected = brute_global_loss(
                batch.region_embeddings,
                weights,
                batch.image_embeddings,
                omega,
                batch.sample_of,
                batch.class_of,
                pi=0.07,
            )
            assert value == pytest.approx(expected, abs=1e-9)

    def test_joint_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        batch, weights, omega = make_instance(rng, n_classes=2, samples_per_class=2, k=2)

        def f(vec):
            value, _, _ = global_dispersion_loss(rebuild_batch(batch, vec), weights, omega, pi=0.07)
            return value

        _, reg_g, img_g = global_dispersion_loss(batch, weights, omega, pi=0.07)
        ok, worst = fd_matches(f, flatten_embeddings(batch), flatten_grads(reg_g, img_g))
        assert ok, f"worst tolerance ratio {worst}"

    def test_region_with_unknown_class(self):
        # a region row pointing at a sample without an image embedding has no class
        rng = np.random.default_rng(12)
        batch, weights, omega = make_instance(rng)
        batch.region_embeddings = np.vstack([batch.region_embeddings, unit(*rng.standard_normal(6))])
        batch.sample_of = np.append(batch.sample_of, 99)
        with pytest.raises(InvalidParameterError):
            global_dispersion_loss(batch, np.append(weights, 1.0), omega, pi=0.07)


class TestCombinedLoss:
    def test_linear_combination(self):
        rng = np.random.default_rng(13)
        batch, weights, omega = make_instance(rng)
        hp = LossHyperparams(tau=0.5, pi=0.07, beta=0.1)
        out = combined_loss(batch, weights, omega, hp)
        assert out.combined == hp.beta * out.l_local + out.l_global
        assert out.l_local > 0.0
        assert out.l_global > 0.0

    def test_beta_zero_reduces_to_global(self):
        rng = np.random.default_rng(14)
        batch, weights, omega = make_instance(rng)
        out = combined_loss(batch, weights, omega, LossHyperparams(beta=0.0))
        assert out.combined == out.l_global

    def test_include_flags(self):
        rng = np.random.default_rng(15)
        batch, weights, omega = make_instance(rng)
        hp = LossHyperparams()
        only_global = combined_loss(batch, weights, omega, hp, include_local=False)
        assert only_global.l_local == 0.0
        assert only_global.combined == only_global.l_global
        only_local = combined_loss(batch, weights, omega, hp, include_global=False)
        assert only_local.l_global == 0.0
        assert only_local.combined == hp.beta * only_local.l_local
        neither = combined_loss(batch, weights, omega, hp, include_local=False, include_global=False)
        assert neither.combined == 0.0
        assert np.all(neither.region_grads == 0.0)

    def test_gradient_linearity_in_beta(self):
        rng = np.random.default_rng(16)
        batch, weights, omega = make_instance(rng)
        l_grads = local_compactness_loss(batch, weights, tau=0.5)[1]
        _, g_reg, g_img = global_dispersion_loss(batch, weights, omega, pi=0.07)
        out = combined_loss(batch, weights, omega, LossHyperparams(beta=0.2))
        assert np.allclose(out.region_grads, 0.2 * l_grads + g_reg, atol=1e-15)
        assert np.allclose(out.image_grads, g_img, atol=0)

    def test_combined_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        batch, weights, omega = make_instance(rng, n_classes=2, samples_per_class=2, k=2)
        hp = LossHyperparams()

        def f(vec):
            return combined_loss(rebuild_batch(batch, vec), weights, omega, hp).combined

        out = combined_loss(batch, weights, omega, hp)
        analytic = flatten_grads(out.region_grads, out.image_grads)
        ok, worst = fd_matches(f, flatten_embeddings(batch), analytic)
        assert ok, f"worst tolerance ratio {worst}"

    def test_gradient_descent_decreases_loss_every_step(self):
        rng = np.random.default_rng(18)
        batch, _, _ = make_instance(rng, n_classes=2, samples_per_class=2, k=2)
        ones_r = np.ones(len(batch.region_embeddings))
        ones_i = np.ones(len(batch.image_embeddings))
        hp = LossHyperparams()
        vec = flatten_embeddings(batch)
        previous = None
        for step in range(500):
            out = combined_loss(rebuild_batch(batch, vec), ones_r, ones_i, hp)
            if previous is not None:
                assert out.combined < previous, f"no decrease at step {step}"
            previous = out.combined
            vec = vec - 1e-3 * flatten_grads(out.region_grads, out.image_grads)

    def test_hyperparams_validation(self):
        with pytest.raises(InvalidParameterError):
            LossHyperparams(tau=0.0)
        with pytest.raises(InvalidParameterError):
            LossHyperparams(pi=-0.1)
        with pytest.raises(InvalidParameterError):
            LossHyperparams(beta=-0.5)
        for knob in ("tau", "pi", "beta"):
            with pytest.raises(InvalidParameterError, match=knob):
                LossHyperparams(**{knob: float("inf")})

    def test_batch_validate(self):
        rng = np.random.default_rng(19)
        batch, _, _ = make_instance(rng)
        validate_embedding_batch(batch)
        batch.image_embeddings[0] = batch.image_embeddings[0] * 2.0
        with pytest.raises(InvalidParameterError):
            validate_embedding_batch(batch)


def _knob_call(knob, value):
    """Call the one function that takes knob directly, bypassing the config dataclasses."""
    batch, weights, omega = make_instance(np.random.default_rng(23))
    if knob == "jitter":
        ep = generate_synthetic_episode(2, 2, 2, 4, SyntheticNoiseConfig(), seed=1, query_shot=0)
        return resample_regions(ep, 2, value, seed=0)
    if knob == "tau":
        return local_compactness_loss(batch, weights, value)
    return global_dispersion_loss(batch, weights, omega, value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("knob", ["jitter", "tau", "pi"])
def test_non_finite_knob_rejected_by_the_function_that_takes_it(knob, value):
    with pytest.raises(InvalidParameterError, match=knob):
        _knob_call(knob, value)
