"""The replicate-batched engine against replicates stepped one at a time.

``serial_replicate`` is the reference: one replicate stepped alone as a
(1, d) batch, each step's noise row drawn from the replicate's own
generator just before the step. The engine advances all replicates of a
method as one (R, d) batch and must give the same traces bit for bit,
including divergence padding and the outcome of a failing step.

``methods_one_by_one`` is the reference for several methods: each runs to
the end before the next starts. run_methods shares each replicate's data
stream between the methods and must give the same traces and failure.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from spikezero import optimizers
from spikezero.core import LearningRateSchedule, RngStream
from spikezero.losses import (
    DataStream,
    LeastSquaresLoss,
    LinearModelLoss,
    PowerLoss,
    generate_stream,
)
from spikezero.optimizers import (
    _METHOD_IDS,
    _SUB_DATA,
    _SUB_INIT,
    _SUB_NOISE,
    METHODS,
    AnticipatedLossStrategy,
    GaussianNoiseConfig,
    OptimizerStepError,
    PositivityError,
    RunConfig,
    gd_step,
    init_state,
    one_point_step,
    run_methods,
    run_optimizer,
    stdp_multiplicative_step,
    stdp_zo_step,
)
from spikezero.perturbation import NoiseConfig


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def finite_or_inf(value) -> float:
    value = float(value)
    return value if math.isfinite(value) else math.inf


def serial_replicate(loss, config, base, replicate, stream=None):
    """(initial loss, initial norm, rows, diverged_at, failure message or None)."""
    n = config.iterations
    gen = base.substream(_SUB_NOISE, _METHOD_IDS[config.method], replicate).generator()
    if config.theta0 is not None:
        theta0 = config.theta0.copy()
    else:
        theta0 = base.substream(_SUB_INIT, replicate).generator().standard_normal(config.dim)
    if stream is not None:
        samples = generate_stream(stream, n + 1,
                                  base.substream(_SUB_DATA, replicate).generator())
    else:
        samples = [None] * (n + 1)
    multiplicative = config.method == "stdp-mult"
    seeded = config.method in ("stdp-zo", "stdp-mult")
    a = config.noise.half_interval if seeded else None

    def draw():
        if config.method == "one-point":
            return gen.normal(0.0, math.sqrt(config.gaussian.sigma2), size=(1, config.dim))
        return gen.uniform(-a, a, size=(1, config.dim))

    rows = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        start = np.exp(theta0) if multiplicative else theta0
        state = init_state([start], config.strategy.memory)
        if seeded:
            u = draw()
            state.loss_history.append(loss.evaluate_many(
                state.theta * np.exp(u) if multiplicative else state.theta + u, samples[0]))
        initial = (finite_or_inf(loss.evaluate(start, samples[0])),
                   finite_or_inf(np.linalg.norm(theta0)))
        for k in range(1, n + 1):
            sample = samples[k]
            try:
                if config.method == "gd":
                    gd_step(state, loss, config.schedule, sample)
                elif config.method == "one-point":
                    one_point_step(state, loss, config.schedule, config.gaussian, draw(), sample)
                elif config.method == "stdp-zo":
                    stdp_zo_step(state, loss, config.schedule, config.strategy, draw(), sample)
                else:
                    stdp_multiplicative_step(state, loss, config.schedule, config.strategy,
                                             draw(), sample, clamp=config.clamp)
            except PositivityError as exc:
                return initial, rows, None, f"iteration {k}: {exc}"
            point = state.theta[0]
            if not np.all(np.isfinite(point)):
                rows += [(math.inf, math.inf)] * (n - k + 1)
                return initial, rows, k, None
            log_point = np.log(point) if multiplicative else point
            rows.append((finite_or_inf(loss.evaluate(point, sample)),
                         finite_or_inf(np.linalg.norm(log_point))))
    return initial, rows, None, None


def assert_matches_serial(loss, config, base, replicates, stream=None):
    try:
        traces, message = run_optimizer(loss, config, base, replicates, stream), None
    except OptimizerStepError as exc:
        traces, message = exc.partial, str(exc)

    expected, expected_message = [], None
    for r in range(replicates):
        initial, rows, diverged_at, failure = serial_replicate(loss, config, base, r, stream)
        expected.append((r, initial, rows, diverged_at))
        if failure is not None:
            expected_message = failure
            break

    assert message == expected_message
    assert len(traces) == len(expected)
    for trace, (r, initial, rows, diverged_at) in zip(traces, expected):
        assert trace.replicate == r
        assert trace.diverged_at == diverged_at
        assert bits([trace.initial_loss, trace.initial_norm]) == bits(initial)
        assert bits(trace.loss) == bits([row[0] for row in rows])
        assert bits(trace.theta_norm) == bits([row[1] for row in rows])
        assert [row.iteration for row in trace.rows] == list(range(1, len(rows) + 1))
    return traces, message


STRATEGIES = (AnticipatedLossStrategy("previous"), AnticipatedLossStrategy("zero"),
              AnticipatedLossStrategy("exponential", memory=3, decay=0.7),
              AnticipatedLossStrategy("polynomial", memory=40, decay=1.5))


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_batch_equals_replicates_run_alone(method, data):
    dim = data.draw(st.integers(1, 6), label="dim")
    replicates = data.draw(st.integers(1, 5), label="replicates")
    fill = data.draw(st.sampled_from([None, 0.0, 1.5, -40.0, 1e155, 1e300]), label="theta0")
    if method == "stdp-mult":
        assume(fill is None or abs(fill) < 100)
    config = RunConfig(
        method=method, dim=dim, iterations=data.draw(st.integers(0, 30), label="iterations"),
        schedule=LearningRateSchedule.constant(
            data.draw(st.sampled_from([0.0, 0.01, 0.2, 3.0]), label="alpha")),
        strategy=data.draw(st.sampled_from(STRATEGIES), label="strategy"),
        noise=NoiseConfig(data.draw(st.sampled_from([0.1, 1.0]), label="A"), dim),
        gaussian=GaussianNoiseConfig(data.draw(st.sampled_from([0.01, 1.0, 25.0]), label="s2")),
        theta0=None if fill is None else np.full(dim, fill),
        clamp=data.draw(st.booleans(), label="clamp"),
    )
    loss = data.draw(st.sampled_from([
        LeastSquaresLoss(np.linspace(-1.0, 2.0, dim)),
        PowerLoss(4, target=np.full(dim, 0.5)),
    ]), label="loss")
    base = RngStream(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # small noise blocks put block boundaries between the steps
    block_values = data.draw(st.sampled_from([1 << 16, 1, 13]), label="block values")
    with mock.patch.object(optimizers, "_NOISE_BLOCK_VALUES", block_values):
        traces, message = assert_matches_serial(loss, config, base, replicates)
    event("step failed" if message else "ran to the end")
    event("diverged" if any(t.diverged_at for t in traces) else "stayed finite")


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 4), replicates=st.integers(2, 6), alpha=st.floats(0.01, 0.06),
       strategy=st.sampled_from(STRATEGIES), seed=st.integers(0, 2**32 - 1))
def test_failing_batch_equals_replicates_run_alone(dim, replicates, alpha, strategy, seed):
    # step sizes at which positivity fails mid-run for some replicates and
    # not for others
    config = RunConfig(method="stdp-mult", dim=dim, iterations=40,
                       schedule=LearningRateSchedule.constant(alpha), strategy=strategy,
                       noise=NoiseConfig(1.0, dim))
    traces, message = assert_matches_serial(LeastSquaresLoss(np.full(dim, 2.0)), config,
                                            RngStream(seed), replicates)
    event(f"replicate {len(traces) - 1} failed" if message else "no failure")


@pytest.mark.parametrize("method", METHODS)
def test_stream_replicates_equal_replicates_run_alone(method):
    stream = DataStream("linear-gaussian", theta_star=[1.0, -0.5, 0.25], noise_sd=0.3)
    config = RunConfig(method=method, dim=3, iterations=25,
                       schedule=LearningRateSchedule.constant(0.05),
                       strategy=AnticipatedLossStrategy("exponential", memory=4, decay=0.5),
                       noise=NoiseConfig(0.5, 3), gaussian=GaussianNoiseConfig(0.1))
    assert_matches_serial(LinearModelLoss(), config, RngStream(41), 3, stream)


def test_divergence_padding_matches_serial():
    # one-point from a far start runs away within a few steps
    loss = LeastSquaresLoss(np.zeros(20))
    config = RunConfig(method="one-point", dim=20, iterations=30,
                       schedule=LearningRateSchedule.constant(0.5),
                       gaussian=GaussianNoiseConfig(1.0), theta0=np.full(20, 1e100))
    traces, _ = assert_matches_serial(loss, config, RngStream(42), 4)
    assert all(t.diverged_at is not None for t in traces)
    assert all(t.loss[-1] == math.inf for t in traces)


def test_lowest_failing_replicate_decides():
    # replicate 3 fails at iteration 5 and replicate 2 at 34: one after
    # another, replicates 0 and 1 finish, 2 fails and 3 never runs
    loss = LeastSquaresLoss(np.full(3, 2.0))
    config = RunConfig(method="stdp-mult", dim=3, iterations=40,
                       schedule=LearningRateSchedule.constant(0.05),
                       noise=NoiseConfig(1.0, 3))
    traces, message = assert_matches_serial(loss, config, RngStream(11), 4)
    assert message.startswith("iteration 34:")
    assert [len(t.rows) for t in traces] == [40, 40, 33]


def test_step_on_batch_equals_steps_on_rows():
    rng = np.random.default_rng(43)
    theta = rng.standard_normal((6, 4))
    u = rng.uniform(-1.0, 1.0, size=(6, 4))
    history = [rng.uniform(0, 2, size=6) for _ in range(3)]
    loss = LeastSquaresLoss([0.5, -1.0, 2.0, 0.0])
    schedule = LearningRateSchedule.constant(0.1)
    strategy = AnticipatedLossStrategy("exponential", memory=2, decay=0.3)

    batch = init_state(theta)
    batch.loss_history.extend(history)
    stdp_zo_step(batch, loss, schedule, strategy, noise=u)
    for i in range(6):
        one = init_state(theta[i:i + 1])
        one.loss_history.extend(h[i:i + 1] for h in history)
        stdp_zo_step(one, loss, schedule, strategy, noise=u[i:i + 1])
        assert bits(one.theta) == bits(batch.theta[i])
        assert bits(one.loss_history[-1]) == bits(batch.loss_history[-1][i])


def test_batch_positivity_error_names_first_failing_row_and_keeps_state():
    state = init_state(np.ones((3, 1)))
    u = np.array([[-0.1], [1.0], [1.0]])
    with pytest.raises(PositivityError, match="index 0") as info:
        stdp_multiplicative_step(state, LeastSquaresLoss([0.0]),
                                 LearningRateSchedule.constant(1.0),
                                 AnticipatedLossStrategy("zero"), noise=u)
    assert info.value.row == 1
    assert state.iteration == 0
    np.testing.assert_array_equal(state.theta, np.ones((3, 1)))


def methods_one_by_one(loss, configs, base, replicates, stream):
    """(traces, failure message or None) of the methods run one after another."""
    traces = []
    for config in configs:
        try:
            traces += run_optimizer(loss, config, base, replicates, stream)
        except OptimizerStepError as exc:
            return traces + exc.partial, str(exc)
    return traces, None


def assert_same_traces(traces, expected):
    assert [(t.method, t.replicate, t.diverged_at) for t in traces] == [
        (t.method, t.replicate, t.diverged_at) for t in expected]
    for trace, other in zip(traces, expected):
        assert bits([trace.initial_loss, trace.initial_norm]) == bits(
            [other.initial_loss, other.initial_norm])
        assert bits(trace.loss) == bits(other.loss)
        assert bits(trace.theta_norm) == bits(other.theta_norm)


def run_counting_streams(loss, configs, base, replicates, stream):
    """(traces, failure message or None, generate_stream calls) of run_methods."""
    with mock.patch.object(optimizers, "generate_stream", wraps=generate_stream) as generate:
        try:
            traces, message = run_methods(loss, configs, base, replicates, stream), None
        except OptimizerStepError as exc:
            traces, message = exc.partial, str(exc)
    return traces, message, generate.call_count


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_shared_stream_equals_methods_run_one_by_one(data):
    dim = data.draw(st.integers(1, 3), label="dim")
    # a method may repeat with another step size, so a lower method can
    # fail at a later replicate than a higher one
    steps = data.draw(st.lists(st.tuples(st.sampled_from(METHODS),
                                         st.sampled_from([0.01, 0.05, 0.3, 2.0])),
                               min_size=1, max_size=4), label="methods")
    iterations = data.draw(st.integers(0, 30), label="iterations")
    strategy = data.draw(st.sampled_from(STRATEGIES), label="strategy")
    configs = [RunConfig(method=method, dim=dim, iterations=iterations,
                         schedule=LearningRateSchedule.constant(alpha), strategy=strategy,
                         noise=NoiseConfig(0.5, dim), gaussian=GaussianNoiseConfig(0.1))
               for method, alpha in steps]
    stream = data.draw(st.sampled_from([
        None, DataStream("linear-gaussian", theta_star=np.full(dim, 2.0), noise_sd=0.3)]),
        label="stream")
    replicates = data.draw(st.integers(1, 5), label="replicates")
    base = RngStream(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    loss = LinearModelLoss() if stream is not None else LeastSquaresLoss(np.full(dim, 2.0))

    traces, message, generated = run_counting_streams(loss, configs, base, replicates, stream)
    expected, expected_message = methods_one_by_one(loss, configs, base, replicates, stream)
    assert message == expected_message
    assert_same_traces(traces, expected)
    # one stream per replicate that ran, whatever the number of methods
    assert generated == (len({t.replicate for t in traces}) if stream is not None else 0)
    event("step failed" if message else "ran to the end")
    if message and traces[-1].method != configs[-1].method:
        event("a method before the last failed")


def test_middle_method_failing_at_middle_replicate_matches_one_by_one():
    # seed 13: stdp-mult fails at replicate 2, iteration 10; stdp-zo never runs
    stream = DataStream("linear-gaussian", theta_star=[1.0, -0.5, 2.0], noise_sd=0.3)
    configs = [RunConfig(method=method, dim=3, iterations=30,
                         schedule=LearningRateSchedule.constant(0.02),
                         noise=NoiseConfig(0.5, 3), gaussian=GaussianNoiseConfig(0.1))
               for method in ("gd", "stdp-mult", "stdp-zo")]
    loss, base = LinearModelLoss(), RngStream(13)
    traces, message, generated = run_counting_streams(loss, configs, base, 4, stream)
    expected, expected_message = methods_one_by_one(loss, configs, base, 4, stream)
    assert message == expected_message
    assert message.startswith("iteration 10:")
    assert_same_traces(traces, expected)
    assert [(t.method, t.replicate, len(t.loss)) for t in traces] == [
        ("gd", 0, 30), ("gd", 1, 30), ("gd", 2, 30), ("gd", 3, 30),
        ("stdp-mult", 0, 30), ("stdp-mult", 1, 30), ("stdp-mult", 2, 9)]
    # gd still needs replicate 3's stream after stdp-mult has failed
    assert generated == 4


def test_lower_method_failing_at_a_later_replicate_decides():
    # the second config fails at replicate 0 and the first only at
    # replicate 2; one after another, the first fails before the second runs
    stream = DataStream("linear-gaussian", theta_star=[1.0, -0.5, 2.0], noise_sd=0.3)
    configs = [RunConfig(method="stdp-mult", dim=3, iterations=30,
                         schedule=LearningRateSchedule.constant(alpha), noise=NoiseConfig(0.5, 3))
               for alpha in (0.02, 2.0)]
    loss, base = LinearModelLoss(), RngStream(13)
    traces, message, _ = run_counting_streams(loss, configs, base, 4, stream)
    expected, expected_message = methods_one_by_one(loss, configs, base, 4, stream)
    assert message == expected_message
    assert message.startswith("iteration 10:")
    assert_same_traces(traces, expected)
    assert [len(t.loss) for t in traces] == [30, 30, 9]


def test_stream_generated_once_per_replicate_for_all_methods():
    stream = DataStream("linear-gaussian", theta_star=[0.5, 0.5], noise_sd=0.1)
    configs = [RunConfig(method=method, dim=2, iterations=5,
                         schedule=LearningRateSchedule.constant(1e-3),
                         noise=NoiseConfig(0.2, 2), gaussian=GaussianNoiseConfig(0.01))
               for method in METHODS]
    traces, message, generated = run_counting_streams(LinearModelLoss(), configs,
                                                      RngStream(5), 3, stream)
    assert message is None
    assert [(t.method, t.replicate) for t in traces] == [
        (method, r) for method in METHODS for r in range(3)]
    assert generated == 3


def test_methods_sharing_a_stream_must_share_iterations():
    stream = DataStream("linear-gaussian", theta_star=[1.0], noise_sd=0.0)
    configs = [RunConfig(method="gd", dim=1, iterations=n,
                         schedule=LearningRateSchedule.constant(0.1)) for n in (3, 4)]
    with pytest.raises(ValueError, match="same iterations"):
        run_methods(LinearModelLoss(), configs, RngStream(1), 2, stream)
