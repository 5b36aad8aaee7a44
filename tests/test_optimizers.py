import math
from collections import deque

import numpy as np
import pytest

from spikezero.core import LearningRateSchedule, RngStream
from spikezero.losses import (
    ConstantLoss,
    DataStream,
    LeastSquaresLoss,
    LinearModelLoss,
    LogReparamLoss,
    LossFunction,
)
from spikezero.optimizers import (
    AnticipatedLossStrategy,
    GaussianNoiseConfig,
    OptimizerStepError,
    PositivityError,
    RunConfig,
    anticipated_loss,
    gd_step,
    init_state,
    one_point_step,
    run_optimizer,
    stdp_multiplicative_step,
    stdp_zo_step,
)
from spikezero.perturbation import NoiseConfig
from spikezero.verification import check_mean_step

CONST = LearningRateSchedule.constant


def make_state(theta, memory=32, history=()):
    """A one-row (1, d) batch state at ``theta`` with the given past losses."""
    state = init_state([theta], memory)
    for value in history:
        state.loss_history.append(np.array([value]))
    return state


# ---------------------------------------------------------------------------
# anticipated loss


def baseline(values, strategy):
    """The baseline of one replicate's history, each entry a (1,) array."""
    return anticipated_loss([np.array([v]) for v in values], strategy)[0]


class TestAnticipatedLoss:
    def test_previous(self):
        strat = AnticipatedLossStrategy("previous")
        assert baseline([0.2, 0.5, 0.7], strat) == 0.7

    def test_zero(self):
        assert anticipated_loss([], AnticipatedLossStrategy("zero")) == 0.0

    @pytest.mark.parametrize("kind,decay", [
        ("previous", None), ("exponential", 1.0), ("polynomial", 2.0),
    ])
    def test_constant_history_returns_constant(self, kind, decay):
        strat = AnticipatedLossStrategy(kind, decay=decay)
        assert baseline([3.25] * 7, strat) == pytest.approx(3.25, rel=1e-14)

    def test_exponential_hand_value(self):
        # lags 1 and 2 weighted e^-1 and e^-2, renormalized: (e + 2) / (e + 1)
        strat = AnticipatedLossStrategy("exponential", decay=1.0, memory=2)
        got = baseline([2.0, 1.0], strat)
        assert got == pytest.approx(1.268941421369995, rel=1e-12)

    def test_memory_truncates_old_entries(self):
        strat = AnticipatedLossStrategy("exponential", decay=1.0, memory=2)
        # entries older than the memory window must not contribute
        assert baseline([99.0, -5.0, 2.0, 1.0], strat) == pytest.approx(
            1.268941421369995, rel=1e-12)

    def test_polynomial_weights(self):
        strat = AnticipatedLossStrategy("polynomial", decay=1.0, memory=3)
        got = baseline([3.0, 2.0, 1.0], strat)
        # weights 1, 1/2, 1/3 over lags 1..3, renormalized
        expected = (1.0 * 1 + 2.0 / 2 + 3.0 / 3) / (1 + 0.5 + 1 / 3)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_weights_nonincreasing_and_normalized(self):
        for strat in (AnticipatedLossStrategy("exponential", decay=0.3, memory=16),
                      AnticipatedLossStrategy("polynomial", decay=1.2, memory=16)):
            w = strat.discount_weights(16)
            assert w.sum() == pytest.approx(1.0, rel=1e-14)
            assert np.all(np.diff(w) <= 0)
            assert np.all(w >= 0)

    def test_empty_history_errors(self):
        with pytest.raises(ValueError, match="nonempty"):
            anticipated_loss([], AnticipatedLossStrategy("previous"))

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            AnticipatedLossStrategy("median")
        with pytest.raises(ValueError):
            AnticipatedLossStrategy("exponential")


# ---------------------------------------------------------------------------
# steps


@pytest.mark.parametrize("theta0,message", [
    # a lone iterate is a (1, d) batch; a bare (d,) vector must not broadcast
    (np.zeros(3), r"shape \(R, d\), got \(3,\)"),
    (np.zeros((1, 1, 3)), r"shape \(R, d\), got \(1, 1, 3\)"),
    ([[0.0, np.nan]], "non-finite"),
])
def test_init_state_rejects_invalid_starts(theta0, message):
    with pytest.raises(ValueError, match=message):
        init_state(theta0)


def test_multiplicative_step_rejects_nonpositive_start_weights():
    for weights in ([[1.0, 0.0]], [[1.0], [-2.0]]):
        state = init_state(weights)
        with pytest.raises(ValueError, match="strictly positive"):
            stdp_multiplicative_step(state, LeastSquaresLoss([1.0]), CONST(0.1),
                                     AnticipatedLossStrategy("zero"),
                                     noise=np.zeros_like(state.theta))
        assert state.iteration == 0


class TestGdStep:
    def test_hand_value(self):
        state = make_state([0.0])
        gd_step(state, LeastSquaresLoss([1.0]), CONST(0.25))
        assert state.theta[0, 0] == 0.5
        assert state.iteration == 1

    def test_stationary_at_minimum(self):
        state = make_state([1.0, 2.0])
        gd_step(state, LeastSquaresLoss([1.0, 2.0]), CONST(0.25))
        np.testing.assert_array_equal(state.theta, [[1.0, 2.0]])

    def test_contraction_factor(self):
        loss = LeastSquaresLoss([1.0])
        state = make_state([0.0])
        errors = [1.0]
        for _ in range(10):
            gd_step(state, loss, CONST(0.25))
            errors.append(abs(1.0 - state.theta[0, 0]))
        for before, after in zip(errors, errors[1:]):
            assert after == pytest.approx(0.5 * before, rel=1e-12)

    def test_finite_difference_fallback(self):
        class NoGrad(LeastSquaresLoss):
            def gradient_many(self, points, sample=None):
                raise NotImplementedError

        state = make_state([0.0])
        gd_step(state, NoGrad([1.0]), CONST(0.25))
        assert state.theta[0, 0] == pytest.approx(0.5, abs=1e-9)

    def test_finite_difference_fallback_on_a_batch(self):
        class ValueOnly(LossFunction):
            def evaluate_many(self, points, sample=None):
                return (1.0 - points[:, 0]) ** 2

        state = init_state(np.zeros((3, 1)))
        gd_step(state, ValueOnly(), CONST(0.25))
        np.testing.assert_allclose(state.theta, np.full((3, 1), 0.5), atol=1e-9)


class TestOnePointStep:
    def test_zero_noise_is_identity(self):
        state = make_state([3.0, -1.0])
        one_point_step(state, LeastSquaresLoss([0.0, 0.0]), CONST(0.5),
                       GaussianNoiseConfig(1.0), noise=np.zeros((1, 2)))
        np.testing.assert_array_equal(state.theta, [[3.0, -1.0]])

    def test_hand_value(self):
        state = make_state([1.0])
        one_point_step(state, LeastSquaresLoss([0.0]), CONST(0.1),
                       GaussianNoiseConfig(1.0, beta=1.0), noise=np.array([[0.5]]))
        assert state.theta[0, 0] == pytest.approx(0.8875, rel=1e-14)

    def test_mean_estimate_matches_stein(self):
        # E[beta L(theta + xi) xi] = -2 (y - theta) for the quadratic loss
        n = 200_000
        gen = RngStream(21).generator()
        xi = gen.normal(0.0, 1.0, size=(n, 1))
        loss = LeastSquaresLoss([1.0])
        values = loss.evaluate_many(np.zeros((n, 1)) + xi) * xi[:, 0]
        assert values.mean() == pytest.approx(-2.0, abs=0.05 * 2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaussianNoiseConfig(0.0)
        with pytest.raises(ValueError):
            GaussianNoiseConfig(1.0, beta=-1.0)
        assert GaussianNoiseConfig(4.0).beta == 0.25


class TestStdpZoStep:
    def test_zero_noise_is_identity(self):
        state = make_state([0.7, -0.3], history=[123.0])
        stdp_zo_step(state, LeastSquaresLoss([5.0, 5.0]), CONST(0.5),
                     AnticipatedLossStrategy("previous"), noise=np.zeros((1, 2)))
        np.testing.assert_array_equal(state.theta, [[0.7, -0.3]])

    def test_hand_value(self):
        state = make_state([0.0])
        stdp_zo_step(state, LeastSquaresLoss([0.0]), CONST(0.1),
                     AnticipatedLossStrategy("zero"), noise=np.array([[math.log(2.0)]]))
        assert state.theta[0, 0] == pytest.approx(-0.07206795208773022, rel=1e-12)

    def test_history_grows_and_is_bounded(self):
        state = make_state([0.0], memory=3, history=[1.0])
        gen = RngStream(5).generator()
        for k in range(10):
            stdp_zo_step(state, LeastSquaresLoss([1.0]), CONST(0.01),
                         AnticipatedLossStrategy("previous"), gen.uniform(-1.0, 1.0, size=(1, 1)))
            assert state.iteration == k + 1
            assert len(state.loss_history) <= 3

    def test_empty_history_with_previous_errors(self):
        state = make_state([0.0])
        with pytest.raises(ValueError, match="nonempty"):
            stdp_zo_step(state, LeastSquaresLoss([1.0]), CONST(0.1),
                         AnticipatedLossStrategy("previous"), noise=np.zeros((1, 1)))

    def test_mean_displacement_matches_smoothed_gradient(self):
        # one-step mean displacement at fixed theta vs the gradient-form
        # Monte Carlo estimate of the same quantity
        n = 100_000
        alpha, a = 0.1, 1.0
        loss = LeastSquaresLoss([1.0])
        gen = RngStream(22).generator()
        u = gen.uniform(-a, a, size=(n, 1))
        displacements = np.empty(n)
        state = make_state([0.0])
        for i in range(n):
            state.theta = np.zeros((1, 1))
            state.iteration = 0
            stdp_zo_step(state, loss, CONST(alpha), AnticipatedLossStrategy("zero"),
                         noise=u[i:i + 1])
            displacements[i] = state.theta[0, 0]
        report = check_mean_step(loss, [0.0], a, alpha, 200_000, RngStream(23),
                                quadrature=True)
        se = displacements.std(ddof=1) / math.sqrt(n)
        oracle = report.extra["quadrature"][0]
        assert abs(displacements.mean() - oracle) <= 3 * math.sqrt(
            se ** 2 + report.extra["raw_se"][0] ** 2)

    def test_baseline_term_is_mean_zero(self):
        # the anticipated-loss contribution Lbar * (e^-U - e^U) averages to
        # the zero vector over fresh noise
        n = 1_000_000
        gen = RngStream(24).generator()
        history = deque([np.array([0.83])], maxlen=4)
        lbar = anticipated_loss(history, AnticipatedLossStrategy("previous"))
        u = gen.uniform(-1.0, 1.0, size=(n, 2))
        contribution = lbar[:, None] * (np.exp(-u) - np.exp(u))
        mean = contribution.mean(axis=0)
        se = contribution.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean) <= 3 * se)


class TestStdpMultiplicativeStep:
    def test_zero_noise_is_identity(self):
        state = make_state([0.5, 2.0], history=[7.0])
        stdp_multiplicative_step(state, LeastSquaresLoss([1.0, 1.0]), CONST(0.1),
                                 AnticipatedLossStrategy("previous"), noise=np.zeros((1, 2)))
        np.testing.assert_array_equal(state.theta, [[0.5, 2.0]])

    def test_hand_value(self):
        # alpha * delta = 0.1 with U = ln 2 scales the weight by 0.85
        state = make_state([1.0])
        stdp_multiplicative_step(state, ConstantLoss(1.0), CONST(0.1),
                                 AnticipatedLossStrategy("zero"),
                                 noise=np.array([[math.log(2.0)]]))
        assert state.theta[0, 0] == pytest.approx(0.85, rel=1e-14)

    def test_positivity_violation_raises(self):
        state = make_state([1.0])
        with pytest.raises(PositivityError, match="index 0") as raised:
            stdp_multiplicative_step(state, ConstantLoss(1.0), CONST(1.0),
                                     AnticipatedLossStrategy("zero"), noise=np.array([[1.0]]))
        assert raised.value.row == 0

    def test_clamp_keeps_weights_positive(self):
        state = make_state([1.0])
        stdp_multiplicative_step(state, ConstantLoss(1.0), CONST(1.0),
                                 AnticipatedLossStrategy("zero"), noise=np.array([[1.0]]),
                                 clamp=True)
        assert state.theta[0, 0] > 0

    def test_positive_whenever_step_is_small(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            d = 3
            w = np.exp(rng.standard_normal(d))
            u = rng.uniform(-1.0, 1.0, d)
            scale = rng.uniform(0.001, 0.1) / (math.e - 1.0 / math.e)
            state = make_state(w)
            stdp_multiplicative_step(state, ConstantLoss(1.0), CONST(scale),
                                     AnticipatedLossStrategy("zero"), noise=u[None, :])
            assert np.all(state.theta > 0)

    def test_log_agrees_with_additive_step_to_second_order(self):
        rng = np.random.default_rng(26)
        a = 1.0
        spread = math.exp(a) - math.exp(-a)
        for _ in range(300):
            d = int(rng.integers(1, 5))
            theta = rng.uniform(-0.5, 0.5, d)
            w = np.exp(theta)
            u = rng.uniform(-a, a, d)
            inner = LeastSquaresLoss(np.exp(rng.uniform(-0.5, 0.5, d)))
            delta = inner.evaluate(w * np.exp(u))
            # keep the per-coordinate step x = alpha*delta*(e^-U - e^U) within 0.1
            alpha = rng.uniform(0.05, 1.0) * 0.1 / (abs(delta) * spread)

            mult = make_state(w)
            stdp_multiplicative_step(mult, inner, CONST(alpha), AnticipatedLossStrategy("zero"),
                                     noise=u[None, :])
            add = make_state(theta)
            stdp_zo_step(add, LogReparamLoss(inner), CONST(alpha),
                         AnticipatedLossStrategy("zero"), noise=u[None, :])

            x = alpha * delta * (np.exp(-u) - np.exp(u))
            gap = np.abs(np.log(mult.theta[0]) - add.theta[0])
            assert np.all(gap <= x ** 2 + 1e-15)


# ---------------------------------------------------------------------------
# runner


class TestRunOptimizer:
    def test_zero_rate_freezes_iterate(self):
        loss = LeastSquaresLoss([1.0, 1.0, 1.0])
        config = RunConfig(method="stdp-zo", dim=3, iterations=20,
                           schedule=CONST(0.0), noise=NoiseConfig(1.0, 3))
        trace = run_optimizer(loss, config, RngStream(31))[0]
        norms = {row.theta_norm for row in trace.rows}
        assert norms == {trace.initial_norm}
        losses = {row.loss for row in trace.rows}
        assert losses == {trace.initial_loss}

    def test_gd_converges_geometrically(self):
        loss = LeastSquaresLoss([1.0, -2.0, 0.5])
        config = RunConfig(method="gd", dim=3, iterations=50, schedule=CONST(0.25),
                           theta0=np.zeros(3))
        trace = run_optimizer(loss, config, RngStream(32))[0]
        assert trace.rows[-1].loss < 1e-10

    def test_same_seed_identical_traces(self):
        loss = LinearModelLoss()
        stream = DataStream("linear-gaussian", theta_star=[1.0, -1.0], noise_sd=0.2)
        config = RunConfig(method="stdp-zo", dim=2, iterations=30,
                           schedule=CONST(0.01), noise=NoiseConfig(1.0, 2))
        t1 = run_optimizer(loss, config, RngStream(33), replicates=2, stream=stream)
        t2 = run_optimizer(loss, config, RngStream(33), replicates=2, stream=stream)
        for a, b in zip(t1, t2):
            assert [r.loss for r in a.rows] == [r.loss for r in b.rows]
            assert [r.theta_norm for r in a.rows] == [r.theta_norm for r in b.rows]

    def test_methods_share_initialization_and_data(self):
        stream = DataStream("linear-gaussian", theta_star=[2.0, 0.5], noise_sd=0.1)
        base = RngStream(34)
        traces = {}
        for method in ("gd", "stdp-zo"):
            config = RunConfig(method=method, dim=2, iterations=1, schedule=CONST(0.001),
                               noise=NoiseConfig(1.0, 2))
            traces[method] = run_optimizer(LinearModelLoss(), config, base, stream=stream)[0]
        assert traces["gd"].initial_loss == traces["stdp-zo"].initial_loss
        assert traces["gd"].initial_norm == traces["stdp-zo"].initial_norm

    def test_iterations_zero_gives_empty_rows(self):
        config = RunConfig(method="gd", dim=1, iterations=0, schedule=CONST(0.1))
        trace = run_optimizer(LeastSquaresLoss([0.0]), config, RngStream(35))[0]
        assert trace.rows == []

    def test_divergence_pads_with_inf(self):
        loss = LeastSquaresLoss(np.zeros(50))
        config = RunConfig(method="one-point", dim=50, iterations=40,
                           schedule=CONST(0.5), gaussian=GaussianNoiseConfig(1.0),
                           theta0=np.full(50, 10.0))
        trace = run_optimizer(loss, config, RngStream(36))[0]
        assert trace.diverged_at is not None
        assert len(trace.rows) == 40
        assert trace.rows[-1].loss == math.inf
        assert all(r.loss == math.inf for r in trace.rows[trace.diverged_at - 1:])

    def test_positivity_error_carries_iteration(self):
        loss = LeastSquaresLoss(np.full(2, 50.0))
        config = RunConfig(method="stdp-mult", dim=2, iterations=50,
                           schedule=CONST(10.0), noise=NoiseConfig(1.0, 2))
        with pytest.raises(OptimizerStepError, match="iteration"):
            run_optimizer(loss, config, RngStream(37))

    def test_multiplicative_start_must_have_finite_positive_weights(self):
        for fill in (1e308, 800.0, -800.0):
            with pytest.raises(ValueError, match="exp\\(theta0\\)"):
                RunConfig(method="stdp-mult", dim=2, iterations=1, schedule=CONST(0.1),
                          noise=NoiseConfig(1.0, 2), theta0=np.full(2, fill))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="noise"):
            RunConfig(method="stdp-zo", dim=2, iterations=1, schedule=CONST(0.1))
        with pytest.raises(ValueError, match="gaussian"):
            RunConfig(method="one-point", dim=2, iterations=1, schedule=CONST(0.1))
        with pytest.raises(ValueError, match="unknown method"):
            RunConfig(method="adam", dim=2, iterations=1, schedule=CONST(0.1))
        with pytest.raises(ValueError, match="theta0"):
            RunConfig(method="gd", dim=2, iterations=1, schedule=CONST(0.1),
                      theta0=np.zeros(3))
