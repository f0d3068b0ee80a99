import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deta.errors import InvalidParameterError
from deta.numerics import segment_sum, softmax
from oracles import GradCheckConfig, OracleFailure, finite_difference_gradient


def one_segment(n):
    """Segment ids that put all n scores in one softmax."""
    return np.zeros(n, dtype=int)


class TestSoftmax:
    def test_constant_scores_uniform(self):
        for temp in (0.07, 1.0, 5.0):
            out = softmax(np.array([2.5, 2.5, 2.5]) / temp, one_segment(3))
            assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_single_element(self):
        assert softmax((0.0,), one_segment(1)).tolist() == [1.0]

    def test_exp_ratio(self):
        out = softmax((math.log(2.0), 0.0), one_segment(2))
        assert abs(out[0] - 2.0 / 3.0) < 1e-12
        assert abs(out[1] - 1.0 / 3.0) < 1e-12

    def test_sums_to_one_and_positive(self):
        out = softmax(np.linspace(-150, 150, 31) / 0.5, one_segment(31))
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0.0)

    def test_extreme_scores_stay_finite(self):
        out = softmax(np.array([-1e4, 0.0, 1e4]) / 0.07, one_segment(3))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        scores, seg = np.array([0.3, -1.2, 4.0]), one_segment(3)
        assert np.allclose(softmax(scores, seg), softmax(scores + 123.0, seg), atol=1e-12)

    @given(
        scores=st.lists(st.floats(-50, 50), min_size=2, max_size=8).map(np.array),
        seed=st.integers(0, 2**16),
    )
    def test_permutation_equivariance(self, scores, seed):
        perm = np.random.default_rng(seed).permutation(scores.size)
        seg = one_segment(scores.size)
        assert np.allclose(softmax(scores, seg)[perm], softmax(scores[perm], seg), atol=1e-12)

    def test_empty_scores(self):
        with pytest.raises(InvalidParameterError):
            softmax((), one_segment(0))


class TestSegmentedSoftmax:
    @given(
        scores=st.lists(st.floats(-50, 50), min_size=1, max_size=24).map(np.array),
        seed=st.integers(0, 2**16),
        temp=st.sampled_from([0.07, 1.0, 3.0]),
    )
    def test_equals_per_segment_softmax(self, scores, seed, temp):
        # segment ids with gaps and in no particular order; the per-segment sums
        # may add in another order, so results agree to a few ulps (absolutely
        # below the smallest normal double, where ulps are coarse)
        segment_of = np.random.default_rng(seed).integers(0, 5, size=scores.size) * 2
        out = softmax(scores / temp, segment_of=segment_of)
        for seg in np.unique(segment_of):
            members = segment_of == seg
            np.testing.assert_allclose(
                out[members],
                softmax(scores[members] / temp, one_segment(int(members.sum()))),
                rtol=1e-13,
                atol=np.finfo(np.float64).tiny,
            )

    def test_segment_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            softmax((1.0, 2.0), segment_of=[0])


class TestSegmentSum:
    def test_sums_rows_and_leaves_empty_segments_zero(self):
        rows = np.arange(12.0).reshape(4, 3)
        out = segment_sum(rows, [2, 0, 2, 0], 4)
        assert out.tolist() == [
            [3.0 + 9.0, 4.0 + 10.0, 5.0 + 11.0],
            [0.0, 0.0, 0.0],
            [0.0 + 6.0, 1.0 + 7.0, 2.0 + 8.0],
            [0.0, 0.0, 0.0],
        ]


class TestFiniteDifferenceGradient:
    def test_quadratic(self):
        grad = finite_difference_gradient(lambda p: float(p[0] ** 2), np.array([3.0]))
        assert abs(grad[0] - 6.0) < 1e-6

    def test_constant_function(self):
        grad = finite_difference_gradient(lambda p: 4.2, np.array([1.0, -2.0, 0.5]))
        assert np.max(np.abs(grad)) < 1e-9

    def test_non_finite_objective(self):
        with pytest.raises(OracleFailure):
            finite_difference_gradient(lambda p: float("nan"), np.array([1.0]))

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            GradCheckConfig(step=0.0)
        with pytest.raises(InvalidParameterError):
            GradCheckConfig(rel_tol=-1.0)

    def test_matches_analytic_on_loss_instance(self):
        # 2-class, 2-region toy instance exercised end to end in test_losses;
        # here the oracle itself is validated on a smooth multivariate target.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        q = a + a.T

        def f(p):
            return float(0.5 * p @ q @ p)

        x = rng.standard_normal(4)
        grad = finite_difference_gradient(f, x)
        assert np.allclose(grad, q @ x, rtol=1e-6, atol=1e-8)
