import dataclasses
import json
import os

import numpy as np
import orjson
import pytest

from deta.adaptation import (
    AblationFlags,
    AdaptationConfig,
    AdapterParams,
    adapt_task,
    adapter_backward,
    forward_features,
    head_backward,
    head_forward,
    init_adapter,
    init_head,
    param_layout,
    sgd_step,
)
from deta.classifier import classify, evaluate
from deta.episodes import (
    SyntheticNoiseConfig,
    generate_synthetic_episode,
    load_episode_file,
    save_episode_file,
)
from deta.errors import DegenerateVectorError, DivergenceError, InvalidParameterError
from deta.numerics import segment_mean
from oracles import fd_matches


def small_episode(seed=0, ratio=0.3, way=3, shot=4, d=8):
    return generate_synthetic_episode(
        way, shot, 2, d, SyntheticNoiseConfig(label_noise_ratio=ratio), seed=seed, query_shot=5
    )


def fast_cfg(**kw):
    defaults = dict(iterations=5, embed_dim=16, seed=1)
    defaults.update(kw)
    return AdaptationConfig(**defaults)


class TestForwardFeatures:
    def test_zero_adapter_is_identity(self):
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(forward_features(init_adapter(3), x), x)

    def test_identity_weight_doubles(self):
        adapter = AdapterParams(w=np.eye(3), b=np.zeros(3))
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(forward_features(adapter, x), 2.0 * x, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            forward_features(init_adapter(3), np.ones(4))

    def test_parameter_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 4))
        probe = rng.standard_normal((7, 4))
        d = 4

        def f(vec):
            adapter = AdapterParams(w=vec[: d * d].reshape(d, d), b=vec[d * d :])
            return float((probe * forward_features(adapter, x)).sum())

        dw, db = adapter_backward(x, probe)
        params = np.concatenate([rng.standard_normal(d * d) * 0.1, rng.standard_normal(d) * 0.1])
        ok, worst = fd_matches(f, params, np.concatenate([dw.ravel(), db]))
        assert ok, f"worst tolerance ratio {worst}"


class TestProjectionHead:
    def test_output_is_unit_norm(self):
        rng = np.random.default_rng(1)
        head = init_head(6, 5, 4, rng)
        out, _ = head_forward(head, rng.standard_normal((10, 6)))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_default_embedding_dimension_is_128(self):
        cfg = AdaptationConfig()
        assert cfg.embed_dim == 128
        rng = np.random.default_rng(3)
        head = init_head(6, 6, cfg.embed_dim, rng)
        assert head_forward(head, rng.standard_normal((1, 6)))[0].shape == (1, 128)

    def test_zero_preactivation_rejected(self):
        head = init_head(3, 3, 2, np.random.default_rng(4))
        head.w2 = np.zeros_like(head.w2)
        head.b2 = np.zeros_like(head.b2)
        with pytest.raises(DegenerateVectorError):
            head_forward(head, np.ones((1, 3)))

    def test_parameter_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        d, h, e = 5, 4, 3
        head = init_head(d, h, e, rng)
        x = rng.standard_normal((6, d))
        probe = rng.standard_normal((6, e))
        shapes = [(h, d), (h,), (e, h), (e,)]
        sizes = [np.prod(s, dtype=int) for s in shapes]

        def unpack(vec):
            parts = np.split(vec, np.cumsum(sizes)[:-1])
            return [p.reshape(s) for p, s in zip(parts, shapes)]

        def f(vec):
            w1, b1, w2, b2 = unpack(vec)
            from deta.adaptation import ProjectionHead

            out, _ = head_forward(ProjectionHead(w1, b1, w2, b2), x)
            return float((probe * out).sum())

        out, cache = head_forward(head, x)
        grads, _ = head_backward(head, cache, probe)
        analytic = np.concatenate([g.ravel() for g in grads])
        packed = np.concatenate([head.w1.ravel(), head.b1, head.w2.ravel(), head.b2])
        ok, worst = fd_matches(f, packed, analytic)
        assert ok, f"worst tolerance ratio {worst}"

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        head = init_head(4, 4, 3, rng)
        x0 = rng.standard_normal(4)
        probe = rng.standard_normal((1, 3))

        def f(vec):
            out, _ = head_forward(head, vec[None, :])
            return float((probe * out).sum())

        _, cache = head_forward(head, x0[None, :])
        _, dx = head_backward(head, cache, probe)
        ok, worst = fd_matches(f, x0, dx[0])
        assert ok, f"worst tolerance ratio {worst}"


class TestSgdStep:
    LAYOUT = {"p": (2,)}

    def test_zero_learning_rate_is_identity(self):
        theta = np.array([1.0, 2.0])
        sgd_step(theta, np.array([3.0, -4.0]), 0.0, self.LAYOUT)
        assert np.array_equal(theta, [1.0, 2.0])

    def test_arithmetic(self):
        theta = np.array([1.0])
        sgd_step(theta, np.array([2.0]), 0.1, {"p": (1,)})
        assert theta[0] == pytest.approx(0.8, abs=1e-15)

    def test_two_small_steps_equal_one_double_step_on_linear_loss(self):
        twice, once = np.array([1.0, -0.5]), np.array([1.0, -0.5])
        grad = np.array([0.5, 0.25])
        sgd_step(twice, grad, 0.25, self.LAYOUT)
        sgd_step(twice, grad, 0.25, self.LAYOUT)
        sgd_step(once, grad, 0.5, self.LAYOUT)
        assert np.array_equal(twice, once)

    def test_non_finite_gradient(self):
        with pytest.raises(DivergenceError) as exc:
            sgd_step(np.ones(2), np.array([1.0, np.inf]), 0.1, self.LAYOUT, iteration=7)
        assert exc.value.iteration == 7

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            sgd_step(np.ones(2), np.ones(3), 0.1, self.LAYOUT)

    @pytest.mark.parametrize("group", range(6))
    def test_non_finite_entry_names_its_group(self, group):
        layout = param_layout(3, 4, 2)
        sizes = [int(np.prod(shape)) for shape in layout.values()]
        theta = np.ones(sum(sizes))
        grad = np.zeros_like(theta)
        last = sum(sizes[: group + 1]) - 1  # the group's last entry; later groups are bad too
        grad[last:] = np.nan
        with pytest.raises(DivergenceError, match=f"for {list(layout)[group]}$") as exc:
            sgd_step(theta, grad, 0.1, layout, iteration=5)
        assert exc.value.iteration == 5
        assert np.array_equal(theta, np.ones_like(theta))


class TestAdaptTask:
    def test_zero_learning_rate_keeps_parameters(self):
        ep = small_episode()
        short = adapt_task(ep, fast_cfg(learning_rate=0.0, iterations=1))
        long = adapt_task(ep, fast_cfg(learning_rate=0.0, iterations=6))
        assert np.array_equal(short.head.w1, long.head.w1)
        assert np.array_equal(short.head.b2, long.head.b2)
        assert np.all(long.adapter.w == 0.0)
        assert np.all(long.adapter.b == 0.0)
        assert len(long.trace) == 6

    def test_single_iteration_first_branch(self):
        ep = small_episode()
        with_ma = adapt_task(ep, fast_cfg(iterations=1))
        without_ma = adapt_task(ep, fast_cfg(iterations=1, ablation=AblationFlags(accumulator=False)))
        assert len(with_ma.trace) == 1
        assert with_ma.final_image_weights == pytest.approx(without_ma.final_image_weights)

    def test_loss_trace_length_and_decrease(self):
        ep = generate_synthetic_episode(
            5, 10, 2, 64, SyntheticNoiseConfig(label_noise_ratio=0.3), seed=42
        )
        state = adapt_task(ep, AdaptationConfig(seed=42))
        assert len(state.trace) == 40
        assert state.trace[-1].combined < state.trace[0].combined

    def test_loss_trace_regression_goldens(self):
        ep = generate_synthetic_episode(
            5, 10, 2, 64, SyntheticNoiseConfig(label_noise_ratio=0.3), seed=42
        )
        state = adapt_task(ep, AdaptationConfig(seed=42))
        assert state.trace[0].combined == pytest.approx(2.417485563080197, rel=1e-9)
        assert state.trace[-1].combined == pytest.approx(0.8311171119283121, rel=1e-9)

    def test_wide_loss_trace_regression_goldens(self):
        # 400 regions per iteration, where relevance and the local loss do most of the work
        ep = generate_synthetic_episode(
            10, 10, 4, 128, SyntheticNoiseConfig(image_noise_ratio=0.3), seed=42
        )
        state = adapt_task(ep, AdaptationConfig(k_regions=4, seed=42))
        assert state.trace[0].combined == pytest.approx(3.276708615303429, rel=1e-9)
        assert state.trace[-1].combined == pytest.approx(1.158193098116305, rel=1e-9)

    def test_zero_norm_vector_is_divergence_at_its_iteration(self):
        # the first step overshoots and the next iteration meets a zero-norm prototype
        with pytest.raises(DivergenceError, match="zero norm") as exc:
            adapt_task(small_episode(), fast_cfg(learning_rate=1e100))
        assert exc.value.iteration == 2

    def test_non_finite_adapter_output_is_divergence_at_its_iteration(self, monkeypatch):
        import deta.adaptation as adaptation_module

        calls = []

        def overflowing(adapter, raw):
            calls.append(1)
            out = forward_features(adapter, raw)
            return out * np.inf if len(calls) > 2 else out

        monkeypatch.setattr(adaptation_module, "forward_features", overflowing)
        with pytest.raises(DivergenceError, match="adapter output") as exc:
            adapt_task(small_episode(), fast_cfg())
        assert exc.value.iteration == 2

    def test_deterministic_state(self):
        ep = small_episode(seed=5)
        cfg = fast_cfg(seed=11)
        a = adapt_task(ep, cfg)
        b = adapt_task(ep, cfg)
        assert np.array_equal(a.adapter.w, b.adapter.w)
        assert np.array_equal(a.head.w1, b.head.w1)
        assert np.array_equal(a.head.w2, b.head.w2)
        assert np.array_equal(a.final_image_weights, b.final_image_weights)
        assert [t.combined for t in a.trace] == [t.combined for t in b.trace]

    def test_saved_and_loaded_episode_adapts_bitwise_alike(self, tmp_path):
        ep = small_episode(seed=0)  # the seed a loaded episode has
        path = tmp_path / "ep.json"
        save_episode_file(ep, path)
        a, b = adapt_task(ep, fast_cfg()), adapt_task(load_episode_file(path), fast_cfg())
        assert np.array_equal(a.final_image_weights, b.final_image_weights)
        assert [(t.l_local, t.l_global, t.combined) for t in a.trace] == [
            (t.l_local, t.l_global, t.combined) for t in b.trace
        ]
        assert np.array_equal(a.adapter.w, b.adapter.w) and np.array_equal(a.adapter.b, b.adapter.b)

    def test_zero_lr_accuracy_equals_weighted_ncc_on_raw_features(self):
        ep = small_episode(seed=7)
        state = adapt_task(ep, fast_cfg(learning_rate=0.0))
        omega = state.final_image_weights
        protos = segment_mean(ep.support_features, ep.labels, ep.way, weights=omega)[0]
        pred, _ = classify(ep.query_features, protos)
        hits = sum(int(p == label) for p, label in zip(pred, ep.query_labels))
        assert evaluate(ep, state) == hits / len(ep.query_labels)

    def test_every_parameter_receives_gradient(self):
        # wide enough that no rectifier unit is dead across the whole batch
        ep = small_episode(seed=9, ratio=0.0, way=5, shot=6, d=12)
        before = adapt_task(ep, fast_cfg(iterations=1, learning_rate=0.0, embed_dim=8))
        after = adapt_task(ep, fast_cfg(iterations=1, learning_rate=0.1, embed_dim=8))
        for name in ("w1", "b1", "w2", "b2"):
            moved = getattr(after.head, name) - getattr(before.head, name)
            assert np.all(moved != 0.0), f"head.{name} has untouched entries"
        assert np.all(after.adapter.w != 0.0)
        assert np.all(after.adapter.b != 0.0)

    def test_loss_trace_mostly_non_increasing(self):
        downs, total = 0, 0
        for i in range(20):
            ep = generate_synthetic_episode(
                5, 10, 2, 64, SyntheticNoiseConfig(label_noise_ratio=0.3), seed=9000 + i
            )
            state = adapt_task(ep, AdaptationConfig(seed=9000 + i))
            trace = [t.combined for t in state.trace]
            downs += sum(trace[t + 1] <= trace[t] for t in range(len(trace) - 1))
            total += len(trace) - 1
        assert downs / total >= 0.9

    def test_divergence_error_carries_iteration(self, monkeypatch):
        import deta.adaptation as adaptation_module

        real = adaptation_module.combined_loss
        calls = {"n": 0}

        def wedge(*args, **kwargs):
            calls["n"] += 1
            out = real(*args, **kwargs)
            if calls["n"] == 3:
                out.combined = float("nan")
            return out

        monkeypatch.setattr(adaptation_module, "combined_loss", wedge)
        with pytest.raises(DivergenceError) as exc:
            adapt_task(small_episode(), fast_cfg())
        assert exc.value.iteration == 3

    def test_weight_trace_recording(self):
        ep = small_episode(seed=3)
        state = adapt_task(ep, fast_cfg(iterations=4))
        trace = state.trace
        assert trace is not None
        assert sum(t.table.weights.size for t in trace) == 4 * ep.n_support * 2
        assert len(trace) == 4
        for t in trace:
            assert t.table.per_class_phi.shape == t.table.per_class_psi.shape == (ep.n_support * 2,)
            assert t.image_weights.shape == (ep.n_support,)
        assert trace[-1].image_weights is state.final_image_weights

    def test_state_serialization(self, tmp_path):
        ep = small_episode(seed=3)
        state = adapt_task(ep, fast_cfg(iterations=2))
        path = tmp_path / "state.json"
        state.save_json(path)
        import json

        doc = json.loads(path.read_text())
        assert set(doc) == {
            "adapter",
            "head",
            "final_image_weights",
            "iterations",
            "loss_trace",
        }
        assert doc["iterations"] == 2
        assert len(doc["loss_trace"]) == 2

    def test_state_json_bytes_equal_json_dumps(self, tmp_path):
        state = adapt_task(small_episode(seed=3), fast_cfg(iterations=2))
        state.adapter.w[0, :7] = [-0.0, 5e-324, 1e308, 1e16, 1.5e-05, -1e-310, 1e-07]
        state.head.b2[:3] = [-1e300, 2.2250738585072014e-308, 9.999999999999998e-05]
        state.final_image_weights[0] = -5e-324
        path = tmp_path / "state.json"
        state.save_json(path)
        assert path.read_bytes() == orjson.dumps(state.to_dict()) + b"\n"

        for doc in (json.loads(path.read_text(encoding="utf-8")), orjson.loads(path.read_bytes())):
            pairs = [
                (doc[group][name], value)
                for group, params in (("adapter", state.adapter), ("head", state.head))
                for name, value in vars(params).items()
            ]
            pairs.append(
                ([doc["final_image_weights"][str(sid)] for sid in state.sample_ids], state.final_image_weights)
            )
            assert len(doc["loss_trace"]) == len(state.trace)
            pairs += [
                ([row["local"], row["global"], row["combined"]], [t.l_local, t.l_global, t.combined])
                for row, t in zip(doc["loss_trace"], state.trace)
            ]
            for stored, value in pairs:
                stored, value = np.array(stored, dtype=np.float64), np.asarray(value, dtype=np.float64)
                assert stored.tobytes() == value.tobytes()  # bit for bit, -0.0 included

    @pytest.mark.parametrize("field", ["adapter.w", "head.b2", "final_image_weights", "loss_trace"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_refused_before_the_file_opens(self, tmp_path, field, value):
        state = adapt_task(small_episode(seed=3), fast_cfg(iterations=2))
        if field == "loss_trace":
            state.trace[-1] = dataclasses.replace(state.trace[-1], combined=value)
        elif field == "final_image_weights":
            state.final_image_weights[0] = value
        else:
            group, name = field.split(".")
            getattr(getattr(state, group), name).flat[-1] = value
        path = tmp_path / "state.json"
        path.write_bytes(b"old")
        with pytest.raises(InvalidParameterError, match=f"^{field} must be finite, got NaN or infinity"):
            state.save_json(path)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["state.json"]

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            AdaptationConfig(iterations=0)
        with pytest.raises(InvalidParameterError):
            AdaptationConfig(learning_rate=-0.1)
        with pytest.raises(InvalidParameterError):
            AdaptationConfig(seed=-1)
        with pytest.raises(InvalidParameterError):
            AdaptationConfig(jitter=-0.1)
        with pytest.raises(InvalidParameterError):
            AdaptationConfig(momentum=1.0)
        for knob in ("learning_rate", "jitter"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(InvalidParameterError, match=knob):
                    AdaptationConfig(**{knob: bad})
