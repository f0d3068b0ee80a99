"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight benchmark runs are shared through module-scoped fixtures;
the whole module is expected to finish in a few minutes on a laptop.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from deta.adaptation import (
    AdaptationConfig,
    AdapterParams,
    ProjectionHead,
    adapt_task,
    flat_gradient,
    forward_features,
    head_forward,
    init_adapter,
    init_head,
)
from deta.classifier import classify
from deta.cli import main as cli_main
from deta.episodes import SyntheticNoiseConfig, generate_synthetic_episode
from deta.harness import ABLATION_PRESETS, BenchmarkConfig, run_benchmark
from deta.losses import (
    EmbeddingBatch,
    LossHyperparams,
    combined_loss,
    global_dispersion_loss,
    local_compactness_loss,
)
from deta.numerics import segment_mean
from deta.relevance import (
    RegionIndex,
    RegionWeightTable,
    accumulate_image_weights,
    region_weights,
)
from oracles import (
    GradCheckConfig,
    brute_local_loss,
    brute_region_weights,
    flatten_embeddings,
    finite_difference_gradient,
    flatten_grads,
    make_instance,
    rebuild_batch,
    region_rows,
)

GRAD_CFG = GradCheckConfig(step=1e-5, rel_tol=1e-4, abs_tol=1e-7)
HP = LossHyperparams()


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num} {label}: PASS", flush=True)


def acceptance_benchmark(**kw) -> BenchmarkConfig:
    defaults = dict(
        way=5,
        shot=10,
        k_regions=2,
        feature_dim=64,
        query_shot=15,
        noise_type="label",
        noise_ratios=(0.3,),
        episodes_per_cell=100,
        adaptation=AdaptationConfig(),
        master_seed=7,
    )
    defaults.update(kw)
    return BenchmarkConfig(**defaults)


@pytest.fixture(scope="module")
def label_noise_sweep():
    return run_benchmark(acceptance_benchmark(noise_ratios=(0.1, 0.3, 0.5, 0.7)))


@pytest.fixture(scope="module")
def full_at_30():
    return run_benchmark(acceptance_benchmark())


@pytest.fixture(scope="module")
def ablations_at_30():
    return {
        name: run_benchmark(acceptance_benchmark(ablation=ABLATION_PRESETS[name]))
        for name in ("no-cora", "no-local", "no-global", "no-ma")
    }


def _fd_ok(f, params, analytic, cfg=GRAD_CFG) -> float:
    fd = finite_difference_gradient(f, params, cfg)
    err = np.abs(np.asarray(analytic) - fd)
    tol = cfg.abs_tol + cfg.rel_tol * np.abs(fd)
    assert np.all(err <= tol), f"gradient mismatch, worst ratio {np.max(err / tol):.3g}"
    return float(np.max(err / tol))


def _random_pipeline(rng):
    way = int(rng.integers(2, 4))
    shot = int(rng.integers(2, 4))
    k = int(rng.integers(1, 3))
    d = int(rng.integers(4, 11))
    hidden = int(rng.integers(3, 7))
    embed = int(rng.integers(3, 7))
    n = way * shot
    x = rng.standard_normal((n, d))
    labels = np.arange(n) // shot
    keys = np.repeat(np.arange(n), k)  # sample position of each region row
    r = rng.standard_normal((n * k, d))
    lam = np.array([rng.uniform(0.4, 2.0) for _ in keys])
    omega = np.array([rng.uniform(0.3, 1.8) for _ in range(n)])
    adapter = AdapterParams(w=0.1 * rng.standard_normal((d, d)), b=0.1 * rng.standard_normal(d))
    head = init_head(d, hidden, embed, rng)
    return x, r, keys, labels, lam, omega, adapter, head, (d, hidden, embed)


def _pipeline_loss(x, r, keys, labels, lam, omega, adapter, head):
    e_img, img_cache = head_forward(head, forward_features(adapter, x))
    e_reg, reg_cache = head_forward(head, forward_features(adapter, r))
    batch = EmbeddingBatch(e_img, e_reg, sample_of=keys, class_of=labels)
    loss = combined_loss(batch, lam, omega, HP)
    return loss, batch, img_cache, reg_cache


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite"):
        started = time.monotonic()
        rng = np.random.default_rng(101)
        instances = 0

        for trial in range(12):
            batch, weights, omega = make_instance(
                rng,
                n_classes=int(rng.integers(2, 4)),
                samples_per_class=int(rng.integers(2, 4)),
                k=int(rng.integers(1, 3)),
                dim=int(rng.integers(4, 9)),
            )
            zeros_img = np.zeros_like(batch.image_embeddings)

            def f_local(vec, batch=batch, weights=weights):
                return local_compactness_loss(rebuild_batch(batch, vec), weights, HP.tau)[0]

            _, grads = local_compactness_loss(batch, weights, HP.tau)
            _fd_ok(f_local, flatten_embeddings(batch), flatten_grads(grads, zeros_img))
            instances += 1

        for trial in range(12):
            batch, weights, omega = make_instance(
                rng,
                n_classes=int(rng.integers(2, 4)),
                samples_per_class=int(rng.integers(2, 4)),
                k=int(rng.integers(1, 3)),
                dim=int(rng.integers(4, 9)),
            )

            def f_global(vec, batch=batch, weights=weights, omega=omega):
                return global_dispersion_loss(rebuild_batch(batch, vec), weights, omega, HP.pi)[0]

            _, reg_g, img_g = global_dispersion_loss(batch, weights, omega, HP.pi)
            _fd_ok(f_global, flatten_embeddings(batch), flatten_grads(reg_g, img_g))
            instances += 1

        for trial in range(12):
            batch, weights, omega = make_instance(
                rng,
                n_classes=int(rng.integers(2, 4)),
                samples_per_class=int(rng.integers(2, 4)),
                k=int(rng.integers(1, 3)),
                dim=int(rng.integers(4, 9)),
            )

            def f_comb(vec, batch=batch, weights=weights, omega=omega):
                return combined_loss(rebuild_batch(batch, vec), weights, omega, HP).combined

            out = combined_loss(batch, weights, omega, HP)
            _fd_ok(
                f_comb,
                flatten_embeddings(batch),
                flatten_grads(out.region_grads, out.image_grads),
            )
            instances += 1

        for trial in range(12):
            x, r, keys, labels, lam, omega, adapter, head, (d, hidden, embed) = _random_pipeline(rng)
            loss, _, img_cache, reg_cache = _pipeline_loss(
                x, r, keys, labels, lam, omega, adapter, head
            )
            grad = flat_gradient(head, img_cache, reg_cache, loss, x, r)

            def f_adapter(vec, head=head):
                probe = AdapterParams(w=vec[: d * d].reshape(d, d), b=vec[d * d :])
                loss, _, _, _ = _pipeline_loss(x, r, keys, labels, lam, omega, probe, head)
                return loss.combined

            packed = np.concatenate([adapter.w.ravel(), adapter.b])
            _fd_ok(f_adapter, packed, grad[: packed.size])
            instances += 1

        for trial in range(12):
            x, r, keys, labels, lam, omega, adapter, head, (d, hidden, embed) = _random_pipeline(rng)
            loss, _, img_cache, reg_cache = _pipeline_loss(
                x, r, keys, labels, lam, omega, adapter, head
            )
            grad = flat_gradient(head, img_cache, reg_cache, loss, x, r)
            shapes = [(hidden, d), (hidden,), (embed, hidden), (embed,)]
            sizes = [int(np.prod(s)) for s in shapes]

            def f_head(vec, adapter=adapter):
                parts = np.split(vec, np.cumsum(sizes)[:-1])
                probe = ProjectionHead(*(p.reshape(s) for p, s in zip(parts, shapes)))
                loss, _, _, _ = _pipeline_loss(x, r, keys, labels, lam, omega, adapter, probe)
                return loss.combined

            packed = np.concatenate([head.w1.ravel(), head.b1, head.w2.ravel(), head.b2])
            _fd_ok(f_head, packed, grad[d * d + d :])
            instances += 1

        elapsed = time.monotonic() - started
        assert instances >= 50
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_formula_oracles():
    with criterion(2, "formula oracles"):
        started = time.monotonic()
        rng = np.random.default_rng(202)
        shapes = [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 1), (2, 1, 3)]
        for n_classes, samples, k in shapes:
            regions = {}
            sid = 0
            for c in range(n_classes):
                for _ in range(samples):
                    for slot in range(k):
                        regions[RegionIndex(sid, slot, c)] = rng.standard_normal(6)
                    sid += 1
            assert len(regions) <= 12
            _, feats, sample_of, class_of = region_rows(regions)
            table = region_weights(feats, sample_of, class_of)
            expected = brute_region_weights(feats, sample_of, class_of)
            for row in range(len(feats)):
                assert abs(table.weights[row] - expected["lam"][row]) < 1e-9

            unit_regions = feats / np.linalg.norm(feats, axis=1, keepdims=True)
            weights = np.array([rng.uniform(0.4, 2.0) for _ in unit_regions])
            images = np.zeros((len(class_of), 6))
            batch = EmbeddingBatch(images, unit_regions, sample_of, class_of)
            value, _ = local_compactness_loss(batch, weights, HP.tau)
            brute = brute_local_loss(unit_regions, weights, class_of[sample_of], HP.tau)
            assert abs(value - brute) < 1e-9
        elapsed = time.monotonic() - started
        assert elapsed < 30.0


def test_criterion_3_accumulator_law():
    with criterion(3, "accumulator law"):

        def table(mean_by_sample):
            lams = [lam for sid in sorted(mean_by_sample) for lam in mean_by_sample[sid]]
            sample_of = np.array([sid for sid in sorted(mean_by_sample) for _ in mean_by_sample[sid]])
            ones = np.ones(len(lams))
            return RegionWeightTable(
                np.array(lams), ones, ones, sample_of, np.zeros(len(mean_by_sample), dtype=int)
            )

        omega = accumulate_image_weights(None, table({0: (0.4, 0.6)}).sample_means(), 0.7)
        assert omega[0] == 0.5

        omega = accumulate_image_weights(omega, table({0: (1.0, 1.0)}).sample_means(), 0.7)
        assert abs(omega[0] - (0.7 * 0.5 + 0.3 * 1.0)) < 1e-15

        omega = None
        stream = table({0: (1.75, 3.25)})  # mean 2.5
        for _ in range(200):
            omega = accumulate_image_weights(omega, stream.sample_means(), 0.7)
        assert abs(omega[0] - 2.5) < 1e-6


def test_criterion_4_reduction_to_baseline():
    with criterion(4, "reduction to baseline"):
        off = ABLATION_PRESETS["off"]
        for i in range(20):
            episode = generate_synthetic_episode(
                5, 10, 2, 64, SyntheticNoiseConfig(label_noise_ratio=0.3), seed=400 + i
            )
            cfg = AdaptationConfig(seed=400 + i, ablation=off)
            state = adapt_task(episode, cfg)

            raw = episode.support_features
            labels = episode.labels
            ones = np.ones(len(raw))
            plain = segment_mean(raw, labels, episode.way, weights=ones)[0]

            adapted = forward_features(state.adapter, raw)
            piped = segment_mean(adapted, labels, episode.way, weights=state.final_image_weights)[0]

            manual_state_protos = segment_mean(
                forward_features(init_adapter(64), raw), labels, episode.way, weights=ones
            )[0]
            queries = episode.query_features
            expected, _ = classify(queries, plain)
            assert np.array_equal(classify(forward_features(state.adapter, queries), piped)[0], expected)
            assert np.array_equal(classify(queries, manual_state_protos)[0], expected)


def test_criterion_5_weight_separation_and_paired_gain(full_at_30):
    with criterion(5, "weight separation and paired gain"):
        episodes = [e for e in full_at_30.episodes if not e.failed]
        assert len(episodes) == 100
        separations = [e.omega_separation for e in episodes]
        assert all(s is not None for s in separations)
        assert sum(s > 0 for s in separations) >= 95

        deta = np.array([e.deta_accuracy for e in episodes])
        base = np.array([e.baseline_accuracy for e in episodes])
        assert float(np.mean(deta - base)) > 0.0
        result = stats.ttest_rel(deta, base, alternative="greater")
        assert result.pvalue < 0.01, f"paired p-value {result.pvalue}"


def test_criterion_6_noise_ratio_monotonicity(label_noise_sweep):
    with criterion(6, "noise ratio monotonicity"):
        cells = label_noise_sweep.cells
        assert [c.noise_ratio for c in cells] == [0.1, 0.3, 0.5, 0.7]
        assert all(c.n_episodes == 100 for c in cells)
        base = [c.baseline_mean for c in cells]
        deta = [c.deta_mean for c in cells]
        assert all(base[i] >= base[i + 1] for i in range(3)), f"baseline not monotone: {base}"
        assert all(deta[i] >= deta[i + 1] for i in range(3)), f"adapted not monotone: {deta}"


def test_criterion_7_ablation_ordering(full_at_30, ablations_at_30):
    with criterion(7, "ablation ordering"):
        full_cell = full_at_30.cells[0]
        full_mean = full_cell.deta_mean
        baseline_mean = full_cell.baseline_mean
        for name, report in ablations_at_30.items():
            cell = report.cells[0]
            assert cell.baseline_mean == baseline_mean, "episode suites differ across variants"
            assert full_mean >= cell.deta_mean - 0.005, (
                f"full ({full_mean:.4f}) fell more than half a point below {name} "
                f"({cell.deta_mean:.4f})"
            )
            assert cell.deta_mean >= baseline_mean, (
                f"{name} ({cell.deta_mean:.4f}) below baseline ({baseline_mean:.4f})"
            )


def test_criterion_8_benchmark_determinism(tmp_path):
    with criterion(8, "benchmark determinism"):
        args = [
            "bench",
            "--way", "5",
            "--shot", "10",
            "--dim", "32",
            "--noise-type", "label",
            "--noise-ratios", "0.1,0.3",
            "--episodes", "3",
            "--iterations", "5",
            "--seed", "7",
            "--format", "csv",
        ]
        first = tmp_path / "run1.csv"
        second = tmp_path / "run2.csv"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
