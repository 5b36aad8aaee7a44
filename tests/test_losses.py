import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikezero.core import RngStream
from spikezero.losses import (
    ConstantLoss,
    DataStream,
    LeastSquaresLoss,
    LinearModelLoss,
    LogReparamLoss,
    PowerLoss,
    SupervisedSample,
    finite_diff_gradient,
    generate_stream,
)


class TestLeastSquares:
    def test_minimum_is_zero(self):
        loss = LeastSquaresLoss([1.0, 2.0])
        assert loss.evaluate([1.0, 2.0]) == 0.0

    def test_value(self):
        assert LeastSquaresLoss([1.0, 2.0]).evaluate([0.0, 0.0]) == 5.0

    def test_gradient(self):
        g = LeastSquaresLoss([1.0, 2.0]).gradient([0.0, 0.0])
        np.testing.assert_array_equal(g, [-2.0, -4.0])

    def test_nonnegative_and_zero_only_at_target(self):
        rng = np.random.default_rng(0)
        loss = LeastSquaresLoss(rng.standard_normal(4))
        for _ in range(100):
            theta = rng.standard_normal(4)
            v = loss.evaluate(theta)
            assert v >= 0.0
            assert (v == 0.0) == bool(np.array_equal(theta, loss.target))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            LeastSquaresLoss([1.0, 2.0]).evaluate([1.0])

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        loss = LeastSquaresLoss(rng.standard_normal(3))
        pts = rng.standard_normal((50, 3))
        np.testing.assert_allclose(loss.evaluate_many(pts),
                                   [loss.evaluate(p) for p in pts], rtol=1e-14)
        np.testing.assert_allclose(loss.gradient_many(pts),
                                   [loss.gradient(p) for p in pts], rtol=1e-14)


class TestLinearModel:
    def test_exact_fit(self):
        s = SupervisedSample(x=np.array([1.0, 2.0]), y=5.0)
        assert LinearModelLoss().evaluate([1.0, 2.0], s) == 0.0

    def test_value(self):
        s = SupervisedSample(x=np.array([1.0, 2.0]), y=0.0)
        assert LinearModelLoss().evaluate([1.0, 1.0], s) == 9.0

    def test_requires_sample(self):
        with pytest.raises(ValueError, match="sample"):
            LinearModelLoss().evaluate([1.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        loss = LinearModelLoss()
        for _ in range(20):
            s = SupervisedSample(x=rng.standard_normal(4), y=float(rng.standard_normal()))
            theta = rng.standard_normal(4)
            analytic = loss.gradient(theta, s)
            numeric = finite_diff_gradient(loss, theta, step=1e-5, sample=s)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_power_loss_quartic():
    loss = PowerLoss(4, dim=1)
    assert loss.evaluate([2.0]) == 16.0
    np.testing.assert_allclose(loss.gradient([2.0]), [32.0])
    numeric = finite_diff_gradient(loss, [1.3], step=1e-5)
    np.testing.assert_allclose(loss.gradient([1.3]), numeric, rtol=1e-7)


def test_power_loss_rejects_odd_power():
    with pytest.raises(ValueError):
        PowerLoss(3)


def test_constant_loss():
    loss = ConstantLoss(2.5)
    assert loss.evaluate([1.0, 1.0]) == 2.5
    np.testing.assert_array_equal(finite_diff_gradient(loss, [0.3, -0.4]), [0.0, 0.0])


def test_log_reparam_matches_weight_space():
    rng = np.random.default_rng(3)
    inner = LeastSquaresLoss([1.0, 0.5, 2.0])
    loss = LogReparamLoss(inner)
    for _ in range(20):
        theta = rng.uniform(-1, 1, 3)
        assert loss.evaluate(theta) == pytest.approx(inner.evaluate(np.exp(theta)), rel=1e-14)
        numeric = finite_diff_gradient(loss, theta, step=1e-6)
        np.testing.assert_allclose(loss.gradient(theta), numeric, rtol=1e-5, atol=1e-7)


def test_finite_diff_exact_for_quadratics():
    loss = LeastSquaresLoss([1.0])
    g = finite_diff_gradient(loss, [0.0], step=1e-5)
    assert g[0] == pytest.approx(-2.0, abs=1e-8)


def test_finite_diff_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_gradient(LeastSquaresLoss([1.0]), [0.0], step=0.0)


class TestDataStream:
    def test_fixed_target_placeholders(self):
        stream = DataStream("fixed-target")
        samples = generate_stream(stream, 5, RngStream(1).generator())
        assert len(samples) == 5
        assert [s.index for s in samples] == list(range(5))

    def test_noiseless_linear_model_is_exact(self):
        stream = DataStream("linear-gaussian", theta_star=[1.0, -2.0], noise_sd=0.0)
        samples = generate_stream(stream, 50, RngStream(2).generator())
        for s in samples:
            assert s.y == pytest.approx(float(s.x @ [1.0, -2.0]), rel=1e-12)

    def test_same_seed_same_stream(self):
        stream = DataStream("linear-gaussian", theta_star=[0.5, 0.5], noise_sd=0.3)
        a = generate_stream(stream, 20, RngStream(3).generator())
        b = generate_stream(stream, 20, RngStream(3).generator())
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.x, sb.x)
            assert sa.y == sb.y

    def test_noise_variance(self):
        sd = 0.7
        stream = DataStream("linear-gaussian", theta_star=[1.0, 2.0, -1.0], noise_sd=sd)
        samples = generate_stream(stream, 100_000, RngStream(4).generator())
        residuals = np.array([s.y - s.x @ stream.theta_star for s in samples])
        assert residuals.var(ddof=1) == pytest.approx(sd ** 2, rel=0.03)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            DataStream("bootstrap")
        with pytest.raises(ValueError):
            DataStream("linear-gaussian")
        with pytest.raises(ValueError):
            DataStream("linear-gaussian", theta_star=[1.0], noise_sd=-1.0)


# ---------------------------------------------------------------------------
# batch forms reduce each row exactly as a one-row batch does


@st.composite
def points_and_vector(draw):
    # widths past 64 reach every unrolled tail of the BLAS dot kernel
    n, d = draw(st.integers(1, 9)), draw(st.integers(1, 80))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return (draw(arrays(np.float64, (n, d), elements=values)),
            draw(arrays(np.float64, d, elements=values)))


def stacked(loss, points, sample=None):
    return np.array([loss.evaluate(p, sample) for p in points])


@settings(max_examples=60, deadline=None)
@given(points_and_vector())
def test_least_squares_batch_is_bit_identical(case):
    points, target = case
    loss = LeastSquaresLoss(target)
    assert loss.evaluate_many(points).tobytes() == stacked(loss, points).tobytes()


@settings(max_examples=60, deadline=None)
@given(points_and_vector(), st.floats(-1e3, 1e3))
def test_linear_model_batch_is_bit_identical(case, y):
    points, x = case
    sample = SupervisedSample(x=x, y=y)
    loss = LinearModelLoss()
    assert loss.evaluate_many(points, sample).tobytes() == stacked(loss, points, sample).tobytes()


@settings(max_examples=60, deadline=None)
@given(points_and_vector(), st.sampled_from([2, 4, 6]))
def test_power_batch_is_bit_identical(case, power):
    points, target = case
    loss = PowerLoss(power, target=target)
    assert loss.evaluate_many(points).tobytes() == stacked(loss, points).tobytes()


def central_differences_one_point_at_a_time(loss, theta, step, sample=None):
    grad = np.empty_like(theta)
    for j in range(theta.shape[0]):
        bumped = theta.copy()
        bumped[j] = theta[j] + step
        up = loss.evaluate(bumped, sample)
        bumped[j] = theta[j] - step
        down = loss.evaluate(bumped, sample)
        grad[j] = (up - down) / (2.0 * step)
    return grad


@settings(max_examples=60, deadline=None)
@given(points_and_vector(), st.sampled_from([2, 4]), st.floats(1e-6, 1e-2))
def test_finite_diff_batch_is_bit_identical(case, power, step):
    points, target = case
    for loss, sample in ((PowerLoss(power, target=target), None),
                         (LinearModelLoss(), SupervisedSample(x=target, y=1.5))):
        got = finite_diff_gradient(loss, points[0], step, sample)
        expected = central_differences_one_point_at_a_time(loss, points[0], step, sample)
        assert got.tobytes() == expected.tobytes()
