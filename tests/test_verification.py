import json
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

import one_pass_reference as one_pass
from spikezero import verification
from spikezero.core import RngStream
from spikezero.losses import LeastSquaresLoss, LossFunction, PowerLoss
from spikezero.perturbation import PerturbationDensity, normalizer_c
from spikezero.verification import (
    DEFAULT_HALF_INTERVALS,
    Lanes,
    _chi2_quantile,
    _grad_form_mc,
    _integrate,
    _mean_se,
    _mean_step_quadrature,
    _raw_step_mc,
    _unnormalized_density,
    check_componentwise,
    check_density_mass,
    check_density_sampler,
    check_normalizer,
    check_stein,
    check_mean_step,
    check_variance_scaling,
    check_zero_mean_prev,
    divergence_demo,
    variance_scaling_sweep,
)

FOUR_OVER_E = 4.0 / math.e


def gauss_hermite_variance(delta: float, sigma2: float, d: int, nodes: int = 16) -> float:
    """Brute-force moment oracle for Var of coordinate 0 of L(theta+xi) xi / sigma2.

    Tensor-product Gauss-Hermite quadrature; the integrand is polynomial in
    each coordinate, so enough nodes make this exact to rounding.
    """
    t, w = np.polynomial.hermite.hermgauss(nodes)
    x = math.sqrt(2.0 * sigma2) * t
    pw = w / math.sqrt(math.pi)
    if d == 1:
        xi = x[:, None]
        weight = pw
    elif d == 2:
        g0, g1 = np.meshgrid(x, x, indexing="ij")
        xi = np.stack([g0.ravel(), g1.ravel()], axis=1)
        weight = np.outer(pw, pw).ravel()
    else:
        raise ValueError("oracle implemented for d <= 2")
    residual = delta - xi
    loss = np.sum(residual ** 2, axis=1)
    g = loss * xi[:, 0] / sigma2
    eg = float(weight @ g)
    eg2 = float(weight @ g ** 2)
    return eg2 - eg ** 2


class TestNormalizerAndDensityChecks:
    def test_normalizer_check_passes(self):
        report = check_normalizer()
        assert report.passed
        assert report.rel_err <= 1e-9
        assert report.estimate[2] == 4.0  # A = 1

    def test_density_mass_check_passes(self):
        report = check_density_mass()
        assert report.passed

    def test_density_sampler_check_passes(self):
        report = check_density_sampler(RngStream(11), n=50_000)
        assert report.passed


class TestNumpyOraclesAgainstScipy:
    # scipy is a test-only dependency: the package's Gauss-Legendre rule and
    # chi-square quantile are held to scipy's adaptive quadrature and ppf

    @pytest.mark.parametrize("a", DEFAULT_HALF_INTERVALS)
    def test_bin_masses_match_adaptive_quadrature(self, a):
        pd = PerturbationDensity(a)
        edges = np.linspace(-a, a, 21)  # the density-sampler check's 20 bins
        for lo, hi in zip(edges[:-1], edges[1:]):
            expected, _ = integrate.quad(pd.density, lo, hi, epsabs=0, epsrel=1e-13)
            assert _integrate(pd.density, lo, hi) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a", sorted({*DEFAULT_HALF_INTERVALS, *np.arange(1, 51) / 10}))
    def test_normalizer_and_mass_match_adaptive_quadrature(self, a):
        expected, _ = integrate.quad(_unnormalized_density, -a, a, args=(a,),
                                     epsabs=0, epsrel=1e-13)
        got = _integrate(lambda x: _unnormalized_density(x, a), -a, a)
        assert got == pytest.approx(expected, rel=1e-12, abs=0)
        pd = PerturbationDensity(a)
        mass, _ = integrate.quad(pd.density, -a, a, epsabs=0, epsrel=1e-13)
        assert _integrate(pd.density, -a, a) == pytest.approx(mass, rel=1e-12, abs=0)

    @pytest.mark.parametrize("q", [0.9, 0.99, 0.999, 1 - 1e-4])
    def test_chi2_quantile_matches_ppf(self, q):
        for dof in range(1, 41):
            assert _chi2_quantile(q, dof) == pytest.approx(stats.chi2.ppf(q, dof),
                                                           rel=1e-12, abs=0)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, math.nan])
    def test_chi2_quantile_rejects_levels_outside_the_open_unit_interval(self, q):
        with pytest.raises(ValueError, match="between 0 and 1"):
            _chi2_quantile(q, 3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_mean_step_quadrature_matches_closed_form(self, d, a):
        # for |theta - y|^2 the mean step is -2 alpha e^-A C(A)/(2A) (theta - y)
        theta = np.array([0.3, -0.7, 1.1])[:d]
        target = np.array([1.0, -0.5, 2.0])[:d]
        alpha = 0.3
        got = _mean_step_quadrature(LeastSquaresLoss(target), theta, a, alpha)
        closed = -2.0 * alpha * math.exp(-a) * normalizer_c(a) / (2.0 * a) * (theta - target)
        np.testing.assert_allclose(got, closed, rtol=1e-12, atol=0)

    def test_mean_step_quadrature_differentiates_a_loss_without_gradient(self):
        class ValueOnly(LossFunction):
            def evaluate_many(self, points, sample=None):
                return np.sum((points - 1.0) ** 2, axis=1)

        theta = np.array([0.2, -0.4])
        got = _mean_step_quadrature(ValueOnly(), theta, 1.0, 1.0)
        exact = _mean_step_quadrature(LeastSquaresLoss(np.ones(2)), theta, 1.0, 1.0)
        np.testing.assert_allclose(got, exact, rtol=1e-8)

    def test_mean_step_quadrature_rejects_an_oversized_grid(self):
        with pytest.raises(ValueError, match="too large"):
            _mean_step_quadrature(LeastSquaresLoss(np.ones(3)), np.zeros(3), 300.0, 1.0)


class TestStein:
    def test_nonzero_oracle(self):
        report = check_stein(np.zeros(5), np.ones(5), sigma2=1.0, n=300_000,
                             rng=RngStream(12))
        assert report.passed
        np.testing.assert_allclose(report.oracle, -2.0 * np.ones(5))
        assert report.rel_err <= 0.05

    def test_zero_oracle_uses_se_band(self):
        report = check_stein(np.ones(3), np.ones(3), sigma2=1.0, n=200_000,
                             rng=RngStream(13))
        assert report.passed
        assert report.rel_err is None
        assert np.all(np.abs(np.asarray(report.estimate)) <= 3 * np.asarray(report.se))

    def test_sigma2_scales_oracle(self):
        report = check_stein(np.zeros(2), np.ones(2), sigma2=2.0, n=200_000,
                             rng=RngStream(14))
        np.testing.assert_allclose(report.oracle, -4.0 * np.ones(2))
        assert report.passed

    def test_random_target_within_se_band(self):
        # small random gaps make a relative gate meaningless; the band
        # clause has to carry them
        rng = np.random.default_rng(40)
        target = rng.standard_normal(5)
        report = check_stein(np.zeros(5), target, sigma2=1.0, n=200_000,
                             rng=RngStream(41))
        assert report.passed
        gaps = np.abs(np.asarray(report.estimate) - np.asarray(report.oracle))
        assert np.all(gaps <= np.maximum(3 * np.asarray(report.se),
                                         0.05 * np.abs(np.asarray(report.oracle))))

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError, match="10000"):
            check_stein(np.zeros(2), np.ones(2), 1.0, 500, RngStream(42))

    def test_bitwise_reproducible(self):
        a = check_stein(np.zeros(2), np.ones(2), 1.0, 50_000, RngStream(15))
        b = check_stein(np.zeros(2), np.ones(2), 1.0, 50_000, RngStream(15))
        np.testing.assert_array_equal(a.estimate, b.estimate)
        np.testing.assert_array_equal(a.se, b.se)


class TestMeanStep:
    def test_quadratic_three_routes(self):
        loss = LeastSquaresLoss([1.0])
        report = check_mean_step(loss, [0.0], 1.0, 1.0, 400_000, RngStream(16))
        assert report.passed
        # quadrature oracle reproduces the analytic value e^-A C(A) / A
        assert report.extra["quadrature"][0] == pytest.approx(FOUR_OVER_E, rel=1e-9)
        for route in ("raw_mean", "grad_mean"):
            assert report.extra[route][0] == pytest.approx(FOUR_OVER_E, rel=0.02)

    def test_symmetric_case_is_zero(self):
        loss = LeastSquaresLoss([0.5])
        report = check_mean_step(loss, [0.5], 1.0, 1.0, 200_000, RngStream(17))
        assert report.passed
        assert abs(report.extra["quadrature"][0]) <= 1e-10
        assert abs(report.extra["raw_mean"][0]) <= 3 * report.extra["raw_se"][0]

    def test_quartic_routes_agree(self):
        loss = PowerLoss(4, dim=1)
        report = check_mean_step(loss, [1.0], 1.0, 1.0, 400_000, RngStream(18))
        assert report.passed
        gap = abs(report.extra["raw_mean"][0] - report.extra["quadrature"][0])
        assert gap <= 3 * report.extra["raw_se"][0]

    def test_quadrature_rejected_above_three_dims(self):
        loss = LeastSquaresLoss(np.ones(4))
        with pytest.raises(ValueError, match="d <= 3"):
            check_mean_step(loss, np.zeros(4), 1.0, 1.0, 1000, RngStream(19),
                           quadrature=True)

    def test_high_dim_runs_without_quadrature(self):
        loss = LeastSquaresLoss(np.ones(6))
        report = check_mean_step(loss, np.zeros(6), 1.0, 1.0, 200_000, RngStream(20))
        assert report.passed
        assert report.extra["quadrature"] is None


class TestComponentwise:
    def test_matches_analytic_value_d1(self):
        loss = LeastSquaresLoss([1.0])
        report = check_componentwise(loss, [0.0], 1.0, 1.0, 300_000, RngStream(21))
        assert report.passed
        assert report.estimate[0] == pytest.approx(FOUR_OVER_E, rel=0.02)

    def test_d3_agrees_with_raw_route(self):
        loss = LeastSquaresLoss([1.0, -0.5, 2.0])
        report = check_componentwise(loss, np.zeros(3), 1.0, 1.0, 300_000,
                                     RngStream(22))
        assert report.passed
        gaps = np.abs(np.asarray(report.estimate) - np.asarray(report.oracle))
        assert np.all(gaps <= 3 * np.asarray(report.se))

    def test_symmetric_case(self):
        loss = LeastSquaresLoss([0.3])
        report = check_componentwise(loss, [0.3], 1.0, 1.0, 100_000, RngStream(23))
        assert report.passed


class TestZeroMeanPrev:
    @pytest.mark.parametrize("loss,theta_prev", [
        (LeastSquaresLoss([1.0, 2.0]), [0.3, -0.2]),
        (PowerLoss(4, dim=2), [0.5, -1.0]),
    ])
    def test_zero_mean(self, loss, theta_prev):
        report = check_zero_mean_prev(loss, theta_prev, 1.0, 300_000, RngStream(24))
        assert report.passed
        np.testing.assert_array_equal(report.oracle, np.zeros(2))

    def test_se_shrinks_like_root_two(self):
        ratios = []
        for seed in range(4):
            small = check_zero_mean_prev(LeastSquaresLoss([1.0]), [0.0], 1.0,
                                         20_000, RngStream(100 + seed))
            large = check_zero_mean_prev(LeastSquaresLoss([1.0]), [0.0], 1.0,
                                         40_000, RngStream(200 + seed))
            ratios.append(large.se[0] / small.se[0])
        assert np.mean(ratios) == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)


class TestVarianceScaling:
    def test_d1_matches_moment_oracle(self):
        rows, _, _ = variance_scaling_sweep([1], 1.0, 200_000, RngStream(25))
        assert rows[0][1] == pytest.approx(gauss_hermite_variance(1.0, 1.0, 1), rel=0.05)

    def test_sigma2_scaling_at_d2(self):
        for sigma2 in (1.0, 2.0):
            rows, _, _ = variance_scaling_sweep([2], sigma2, 200_000, RngStream(26))
            oracle = gauss_hermite_variance(1.0, sigma2, 2)
            assert rows[0][1] == pytest.approx(oracle, rel=0.05)

    def test_slope_band(self):
        report = check_variance_scaling((10, 32, 100), 1.0, 30_000, RngStream(27))
        assert 1.5 <= report.estimate <= 2.5

    def test_single_dim_has_no_slope(self):
        rows, slope, slope_se = variance_scaling_sweep([10], 1.0, 10_000, RngStream(28))
        assert len(rows) == 1
        assert slope is None and slope_se is None

    def test_check_requires_a_decade_of_dims(self):
        with pytest.raises(ValueError, match="decade"):
            check_variance_scaling((10, 20), 1.0, 10_000, RngStream(29))


def test_componentwise_rejects_large_dim():
    with pytest.raises(ValueError, match="d <= 10"):
        check_componentwise(LeastSquaresLoss(np.ones(12)), np.zeros(12), 1.0, 1.0,
                            50_000, RngStream(43))


def test_analytic_gradients_match_finite_differences_for_check_losses():
    # every loss the checks differentiate, probed at random points
    from spikezero.losses import ConstantLoss, LinearModelLoss, LogReparamLoss, SupervisedSample
    from spikezero.losses import finite_diff_gradient
    rng = np.random.default_rng(44)
    sample = SupervisedSample(x=rng.standard_normal(3), y=0.7)
    cases = [
        (LeastSquaresLoss(rng.standard_normal(3)), None),
        (PowerLoss(4, dim=3), None),
        (ConstantLoss(1.7), None),
        (LinearModelLoss(), sample),
        (LogReparamLoss(LeastSquaresLoss(np.exp(rng.standard_normal(3)))), None),
    ]
    for loss, s in cases:
        for _ in range(5):
            theta = rng.uniform(-1, 1, 3)
            analytic = loss.gradient(theta, s)
            numeric = finite_diff_gradient(loss, theta, step=1e-5, sample=s)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


class TestDivergenceDemo:
    def test_shipped_fixture_passes(self):
        report, traces = divergence_demo()
        assert report.passed
        zo = traces["one-point"]
        gd = traces["gd"]
        assert zo.rows[-1].loss > 10.0 * zo.initial_loss
        assert gd.rows[-1].loss < 0.1 * gd.initial_loss
        # gradient descent contracts monotonically on this quadratic
        gd_losses = [gd.initial_loss] + [r.loss for r in gd.rows]
        assert all(a >= b for a, b in zip(gd_losses, gd_losses[1:]))

    def test_zero_rate_control_is_flat(self):
        report, traces = divergence_demo({"alpha": 0.0, "iterations": 20})
        zo = traces["one-point"]
        assert not report.passed
        assert {r.loss for r in zo.rows} == {zo.initial_loss}


class TestReportSerialization:
    def test_schema_keys(self):
        report = check_normalizer()
        doc = report.to_dict()
        assert set(doc) == {"name", "n", "seed", "estimate", "oracle", "se",
                            "rel_err", "pass"}
        json.dumps(doc)  # must be serializable as-is

    def test_non_finite_values_serialize(self):
        report, _ = divergence_demo()
        doc = report.to_dict()
        assert doc["estimate"][0] == "inf"
        text = json.dumps(doc)
        assert "Infinity" not in text


# ---------------------------------------------------------------------------
# chunked kernels, lanes and working set


# two full chunks of rows and a remainder
CHUNKED_N = 2 * verification._CHUNK_ROWS + 3


def assert_same_bits(actual, expected):
    np.testing.assert_array_equal(np.asarray(actual), np.asarray(expected), strict=True)


class TestChunkedKernelsMatchOnePass:
    def test_sampler(self):
        pd = PerturbationDensity(0.8)
        assert_same_bits(pd.sample(RngStream(60).generator(), size=CHUNKED_N),
                         one_pass.sample(pd, RngStream(60).generator(), CHUNKED_N))

    def test_density(self):
        pd = PerturbationDensity(0.8)
        x = np.linspace(-0.8, 0.8, 101)
        ea = math.exp(0.8)
        expected = (ea - np.exp(x)) * (ea - 1.0 / np.exp(x)) / pd.normalizer
        assert_same_bits(pd.density(x), expected)

    def test_stein(self):
        theta = np.array([0.0, 0.5, -1.0, 2.0, 0.1])
        report = check_stein(theta, np.ones(5), 0.7, CHUNKED_N, RngStream(61))
        values = one_pass.stein_values(LeastSquaresLoss(np.ones(5)), theta, 0.7, CHUNKED_N,
                                       RngStream(61).generator())
        mean, se = _mean_se(values)
        assert_same_bits(report.estimate, mean)
        assert_same_bits(report.se, se)

    @pytest.mark.parametrize("loss,theta", [(LeastSquaresLoss([1.0, -0.5, 2.0]), [0.2, 0.0, 1.0]),
                                            (PowerLoss(4, dim=2), [0.5, -1.0])])
    def test_step_routes(self, loss, theta):
        theta = np.asarray(theta)
        for route, reference in ((_raw_step_mc, one_pass.raw_step_values),
                                 (_grad_form_mc, one_pass.grad_form_values)):
            got = route(loss, theta, 0.9, 0.3, CHUNKED_N, RngStream(62).generator())
            want = _mean_se(reference(loss, theta, 0.9, 0.3, CHUNKED_N,
                                      RngStream(62).generator()))
            assert_same_bits(got[0], want[0])
            assert_same_bits(got[1], want[1])

    def test_zero_mean_prev(self):
        loss = PowerLoss(4, dim=2)
        report = check_zero_mean_prev(loss, [0.5, -1.0], 1.0, CHUNKED_N, RngStream(63))
        mean, se = _mean_se(one_pass.zero_mean_values(loss, np.array([0.5, -1.0]), 1.0,
                                                      CHUNKED_N, RngStream(63).generator()))
        assert_same_bits(report.estimate, mean)
        assert_same_bits(report.se, se)

    def test_componentwise(self):
        loss = LeastSquaresLoss([1.0, -0.5, 2.0])
        theta = np.zeros(3)
        rng = RngStream(64)
        report = check_componentwise(loss, theta, 1.0, 1.0, CHUNKED_N, rng)
        pd = PerturbationDensity(1.0)
        prefactor = -math.exp(-1.0) * pd.normalizer / 2.0
        partials = [one_pass.componentwise_partials(loss, theta, pd, j, CHUNKED_N,
                                                    rng.substream(0, j).generator())
                    for j in range(3)]
        assert_same_bits(report.estimate, [prefactor * p.mean() for p in partials])
        _, oracle_se = _mean_se(one_pass.raw_step_values(loss, theta, 1.0, 1.0, CHUNKED_N,
                                                         rng.substream(1).generator()))
        se = np.array([abs(prefactor) * p.std(ddof=1) / math.sqrt(CHUNKED_N) for p in partials])
        assert_same_bits(report.se, np.sqrt(se ** 2 + oracle_se ** 2))


class TestVarianceSweepRows:
    # 8193 is past einsum's 8192-value buffer, where a row alone in its
    # chunk sums differently; n = 489 left one alone in the one-pass chunks.
    # 700000 at n = 3 would split into 2 + 1 rows; 2100000 was always alone.
    @pytest.mark.parametrize("dims,n", [([10, 8193, 1, 300], 489),
                                        ([2_100_000, 700_000], 3)])
    def test_rows_equal_the_serial_one_pass_loop(self, cpus, dims, n):
        rng = RngStream(65)
        rows, slope, _ = variance_scaling_sweep(dims, 0.6, n, rng, delta=1.3)
        expected = [one_pass.variance_row(d, 0.6, n, rng.substream(idx).generator(), 1.3)
                    for idx, d in enumerate(dims)]
        assert rows == expected
        assert slope is not None

    def test_overflow_names_the_first_dim_in_order(self, cpus):
        # every row overflows; the first in dims order is reported, although
        # the largest runs first
        with pytest.raises(ValueError, match=r"at d=2 "):
            variance_scaling_sweep([2, 300, 4], 1e-300, 20, RngStream(66))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="n >= 2"):
            variance_scaling_sweep([2, 4], 1.0, 1, RngStream(67))

    def test_row_working_set_is_two_chunk_buffers(self):
        n = 20_000
        tracemalloc.start()
        try:
            variance_scaling_sweep([1000], 1.0, n, RngStream(68))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the one-pass row held 4M-value draw and residual arrays (92 MiB)
        assert peak <= 8 * (2 * verification._SWEEP_CHUNK + 4 * n) + 2 ** 20


def test_componentwise_working_set():
    n = 300_000
    tracemalloc.start()
    try:
        check_componentwise(LeastSquaresLoss([1.0, -0.5, 2.0]), np.zeros(3), 1.0, 1.0, n,
                            RngStream(69))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # per sample: 3 uniform draws, the sampler's output and its four
    # 1.6-sample proposal arrays, the accepted draws and the mask, and two
    # chunks of rows; the one-pass code peaked at about 17 values
    assert peak <= 8 * 13 * n


class TestLanes:
    def test_map_keeps_list_order_and_runs_on_two_threads(self, cpus):
        barrier = threading.Barrier(cpus, timeout=10)

        def work(x):
            barrier.wait()  # passes only when one task per lane is waiting
            return x * x, threading.get_ident()

        with Lanes() as lanes:
            results = lanes.map(work, range(2 * cpus), order=[3, 2, 1, 0][-2 * cpus:])
        assert [r[0] for r in results] == [x * x for x in range(2 * cpus)]
        assert len({r[1] for r in results}) == cpus

    def test_first_failure_in_list_order_is_raised(self, cpus):
        def work(x):
            if x == 1:
                time.sleep(0.1)  # fails after item 3 has failed
            if x in (1, 3):
                raise KeyError(x)
            return x

        with Lanes() as lanes:
            with pytest.raises(KeyError, match="1"):
                lanes.map(work, range(5), order=[4, 3, 2, 1, 0])

    def test_nested_map_finishes(self, cpus):
        with Lanes() as lanes:
            results = lanes.map(lambda k: sum(lanes.map(lambda x: k * x, range(4))), range(3))
        assert results == [0, 6, 12]

    def test_many_small_tasks_under_fast_thread_switching(self, cpus):
        # a lost update of a map's count of open tasks would leave it waiting forever
        done = []

        def run():
            with Lanes() as lanes:
                done.append(lanes.map(lambda k: sum(lanes.map(lambda x: x + k, range(20))),
                                      range(200)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert done == [[190 + 20 * k for k in range(200)]]

    def test_an_interrupt_ends_the_map_at_once(self, monkeypatch):
        # on one CPU every task runs on the calling thread, where interrupts arrive
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        ran = []

        def work(x):
            ran.append(x)
            if x == 0:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            with Lanes() as lanes:
                lanes.map(work, range(3))
        assert ran == [0]

    def test_tasks_run_under_the_callers_error_state(self, cpus):
        with Lanes() as lanes, np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                lanes.map(lambda x: np.exp(np.array([x])), [1.0, 1000.0])
