"""Iterative schemes: gradient descent, the Gaussian one-point zero-order
baseline, and the spike-timing-plasticity update in both parametrizations.

The spike-timing (STDP-derived) rule needs only two loss evaluations' worth
of information per step and no gradient:

    theta_{k+1} = theta_k + alpha_{k+1} * (L_k - Lbar) * (e^{-U_k} - e^{U_k})

with U_k uniform on [-A, A]^d, L_k the loss at theta_k + U_k, and Lbar an
anticipated-loss baseline built from past realized losses. Averaged over
U_k this is a smoothed gradient-descent step; the verification module
checks that identity. The multiplicative form applies the same update to
strictly positive weights w = e^theta:

    w_{k+1} = w_k * (1 + alpha_{k+1} * (L_k - Lbar) * (e^{-U_k} - e^{U_k}))

with the loss evaluated at w_k * e^{U_k}. Its log agrees with the additive
form to second order in the step size.

One OptimizerState serves both parametrizations: its ``theta`` holds
log-weights for the additive steps and the weights themselves for the
multiplicative one. Its loss history keeps ``strategy.memory`` entries.

Every step function advances a batch of R independent replicate iterates
of shape (R, d) in one call, R = 1 for a lone iterate, and takes its noise
rows as an argument instead of drawing them. run_methods draws each
replicate's rows from its own substream and runs all replicates of a
method as one batch. Row i of a batch moves bit for bit as the one-row
batch with row i's noise would. A replicate's data stream is generated
once and serves every method.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import LearningRateSchedule, as_vector, row_dot
from .losses import DataStream, LossFunction, SupervisedSample, finite_diff_gradient, generate_stream
from .perturbation import NoiseConfig

__all__ = [
    "GaussianNoiseConfig",
    "AnticipatedLossStrategy",
    "anticipated_loss",
    "OptimizerState",
    "init_state",
    "gd_step",
    "one_point_step",
    "stdp_zo_step",
    "stdp_multiplicative_step",
    "PositivityError",
    "OptimizerStepError",
    "RunConfig",
    "TraceRow",
    "ReplicateTrace",
    "run_replicate",
    "run_methods",
    "run_optimizer",
    "METHODS",
]


class PositivityError(RuntimeError):
    """A multiplicative update would drive a weight to zero or below.

    ``row`` is the first failing row of the batched state.
    """

    row: int = 0


class OptimizerStepError(RuntimeError):
    """A step failed inside run_methods; carries the iteration index."""

    def __init__(self, message: str, iteration: int, partial=None):
        super().__init__(message)
        self.iteration = iteration
        self.partial = partial if partial is not None else []


@dataclass(frozen=True)
class GaussianNoiseConfig:
    """Isotropic N(0, sigma2 I) perturbations with estimator scale beta.

    beta defaults to 1/sigma2, the scale at which the perturbed-loss
    product beta * L(theta + xi) * xi estimates the smoothed gradient.
    """

    sigma2: float
    beta: float | None = None

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        beta = 1.0 / self.sigma2 if self.beta is None else float(self.beta)
        if not beta > 0:
            raise ValueError("beta must be positive")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class AnticipatedLossStrategy:
    """Baseline Lbar subtracted from the realized loss.

    previous     -- the most recent realized loss
    zero         -- no baseline
    exponential  -- discounted average, weight of the loss l steps back
                    proportional to exp(-decay * l)
    polynomial   -- weight proportional to l**(-decay)

    Discounted weights are truncated at ``memory`` entries and renormalized
    to sum to one over whatever history is available.
    """

    kind: str = "previous"
    memory: int = 32
    decay: float | None = None

    def __post_init__(self):
        if self.kind not in ("previous", "zero", "exponential", "polynomial"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.memory < 1:
            raise ValueError("memory must be at least 1")
        if self.kind in ("exponential", "polynomial"):
            if self.decay is None or not self.decay > 0:
                raise ValueError(f"{self.kind} strategy requires decay > 0")

    def discount_weights(self, available: int) -> np.ndarray:
        """Normalized weights for lags 1..min(available, memory), read-only."""
        return _discount_weights(self.kind, self.decay, min(available, self.memory))


# every step of a run asks for the same few weight vectors
@functools.lru_cache(maxsize=256)
def _discount_weights(kind: str, decay: float, m: int) -> np.ndarray:
    lags = np.arange(1, m + 1, dtype=np.float64)
    if kind == "exponential":
        raw = np.exp(-decay * lags)
    else:
        raw = lags ** (-decay)
    weights = raw / raw.sum()
    weights.flags.writeable = False
    return weights


def anticipated_loss(history, strategy: AnticipatedLossStrategy):
    """Baseline per replicate for the given realized-loss history (oldest first).

    Each history entry holds one realized loss per replicate, shape (R,).
    """
    if strategy.kind == "zero":
        return 0.0
    if len(history) == 0:
        raise ValueError(f"strategy {strategy.kind!r} requires a nonempty loss history")
    if strategy.kind == "previous":
        return history[-1]
    weights = strategy.discount_weights(len(history))
    recent_first = [history[-(l + 1)] for l in range(weights.shape[0])]
    # one contiguous row of past losses per replicate
    return row_dot(np.array(recent_first).T.copy(), weights)


@dataclass
class OptimizerState:
    """Mutable iterate state; step functions update it in place and return it.

    ``theta`` is a batch of R replicate iterates of shape (R, d):
    log-weights for the additive steps, and the strictly positive weights
    w = e^theta themselves for stdp_multiplicative_step. Each loss_history
    entry holds one realized loss per row.
    """

    theta: np.ndarray
    iteration: int = 0
    loss_history: deque = field(default_factory=lambda: deque(maxlen=32))


def init_state(theta0, memory: int = 32) -> OptimizerState:
    """A start state for a batch (R, d) that keeps ``memory`` past losses."""
    theta = np.array(theta0, dtype=np.float64)
    if theta.ndim != 2:
        raise ValueError(f"theta0 must have shape (R, d), got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta0 contains non-finite entries")
    return OptimizerState(theta, loss_history=deque(maxlen=memory))


def _gradient(loss: LossFunction, theta: np.ndarray, sample) -> np.ndarray:
    """Gradient per row, by central differences if the loss has none."""
    try:
        return loss.gradient_many(theta, sample)
    except NotImplementedError:
        return np.stack([finite_diff_gradient(loss, row, sample=sample) for row in theta])


def gd_step(state: OptimizerState, loss: LossFunction,
            schedule: LearningRateSchedule,
            sample: SupervisedSample | None = None) -> OptimizerState:
    """Plain gradient descent, falling back to central differences."""
    k = state.iteration + 1
    state.theta = state.theta - schedule.rate(k) * _gradient(loss, state.theta, sample)
    state.iteration = k
    return state


def one_point_step(state: OptimizerState, loss: LossFunction,
                   schedule: LearningRateSchedule, gauss: GaussianNoiseConfig,
                   noise: np.ndarray,
                   sample: SupervisedSample | None = None) -> OptimizerState:
    """Single-evaluation Gaussian zero-order step.

    Moves against beta * L(theta + xi) * xi for the perturbation xi =
    ``noise``, a draw of N(0, sigma2 I) shaped like theta. In expectation
    that product equals sigma2 * beta times the smoothed gradient, so
    subtracting it descends; the raw product is extremely noisy, with
    per-coordinate variance growing quadratically in the dimension for
    quadratic losses.
    """
    k = state.iteration + 1
    xi = np.asarray(noise, dtype=np.float64)
    perturbed = loss.evaluate_many(state.theta + xi, sample)
    state.theta = state.theta - (schedule.rate(k) * gauss.beta * perturbed)[:, None] * xi
    state.iteration = k
    return state


def _stdp_move(state: OptimizerState, loss: LossFunction, schedule: LearningRateSchedule,
               strategy: AnticipatedLossStrategy, u: np.ndarray, point: np.ndarray, sample):
    """The realized loss at ``point`` and the move alpha * (L - Lbar) * (e^{-U} - e^{U})."""
    baseline = anticipated_loss(state.loss_history, strategy)
    realized = loss.evaluate_many(point, sample)
    rate = schedule.rate(state.iteration + 1)
    return realized, (rate * (realized - baseline))[:, None] * (np.exp(-u) - np.exp(u))


def stdp_zo_step(state: OptimizerState, loss: LossFunction,
                 schedule: LearningRateSchedule, strategy: AnticipatedLossStrategy,
                 noise: np.ndarray,
                 sample: SupervisedSample | None = None) -> OptimizerState:
    """Spike-timing zero-order step in log-weight coordinates.

    For the timing offsets U = ``noise``, uniform on [-A, A] and shaped
    like theta, evaluates the loss at theta + U and moves along
    (loss - baseline) * (e^{-U} - e^{U}). The realized perturbed loss is
    appended to the history that feeds the baseline.
    """
    u = np.asarray(noise, dtype=np.float64)
    realized, move = _stdp_move(state, loss, schedule, strategy, u, state.theta + u, sample)
    state.theta = state.theta + move
    state.loss_history.append(realized)
    state.iteration += 1
    return state


# a clamped update multiplier never drops below this
_CLAMP_FLOOR = 1e-8


def stdp_multiplicative_step(state: OptimizerState, loss: LossFunction,
                             schedule: LearningRateSchedule,
                             strategy: AnticipatedLossStrategy,
                             noise: np.ndarray,
                             sample: SupervisedSample | None = None,
                             clamp: bool = False) -> OptimizerState:
    """Spike-timing step applied multiplicatively to the positive weights in theta.

    The loss is evaluated at w * e^U for U = ``noise`` and each weight is
    scaled by 1 + alpha * (loss - baseline) * (e^{-U_j} - e^{U_j}). A
    multiplier <= 0 would break positivity; by default that raises
    PositivityError so misconfigured step sizes are not silently masked,
    and with ``clamp=True`` the multiplier is floored at a tiny positive
    value instead (weights may still underflow to 0.0 over many steps).
    The error names the first failing row, and the state is left as it
    was. The start weights must be strictly positive; that is
    checked at iteration 0.
    """
    if state.iteration == 0 and np.any(state.theta <= 0):
        raise ValueError("weights must be strictly positive")
    u = np.asarray(noise, dtype=np.float64)
    realized, move = _stdp_move(state, loss, schedule, strategy, u,
                                state.theta * np.exp(u), sample)
    multiplier = 1.0 + move
    bad = multiplier <= 0.0
    if np.any(bad):
        if not clamp:
            raise _positivity_error(multiplier, bad)
        multiplier = np.maximum(multiplier, _CLAMP_FLOOR)
    state.theta = state.theta * multiplier
    state.loss_history.append(realized)
    state.iteration += 1
    return state


def _positivity_error(multiplier: np.ndarray, bad: np.ndarray) -> PositivityError:
    row = int(np.argmax(bad.any(axis=1)))
    idx = int(np.argmax(bad[row]))
    error = PositivityError(f"update multiplier {multiplier[row, idx]:g} at index {idx} "
                            "would violate weight positivity")
    error.row = row
    return error


# ---------------------------------------------------------------------------
# experiment runner


METHODS = ("gd", "one-point", "stdp-zo", "stdp-mult")
# fixed ids keep noise substreams stable when the method subset changes
_METHOD_IDS = {name: i for i, name in enumerate(METHODS)}
_SUB_INIT, _SUB_DATA, _SUB_NOISE = 0, 1, 2


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible optimizer run needs except the loss."""

    method: str
    dim: int
    iterations: int
    schedule: LearningRateSchedule
    strategy: AnticipatedLossStrategy = AnticipatedLossStrategy("previous")
    noise: NoiseConfig | None = None
    gaussian: GaussianNoiseConfig | None = None
    theta0: np.ndarray | None = None
    clamp: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.method in ("stdp-zo", "stdp-mult") and self.noise is None:
            raise ValueError(f"method {self.method!r} requires a noise config")
        if self.method == "one-point" and self.gaussian is None:
            raise ValueError("method 'one-point' requires a gaussian config")
        if self.theta0 is not None:
            theta0 = as_vector(self.theta0, "theta0")
            if theta0.shape[0] != self.dim:
                raise ValueError("theta0 length does not match dim")
            if self.method == "stdp-mult":
                with np.errstate(over="ignore"):
                    weights0 = np.exp(theta0)
                if not np.all(np.isfinite(weights0) & (weights0 > 0)):
                    raise ValueError("stdp-mult needs theta0 whose weights exp(theta0) "
                                     "are finite and positive")
            object.__setattr__(self, "theta0", theta0)


@dataclass(frozen=True)
class TraceRow:
    method: str
    replicate: int
    iteration: int
    loss: float
    theta_norm: float


@dataclass
class ReplicateTrace:
    """Per-replicate trajectory with its clean starting point.

    ``loss`` and ``theta_norm`` hold one value per recorded iteration
    1, 2, ...; ``rows`` spells them out as TraceRows.
    """

    method: str
    replicate: int
    initial_loss: float
    initial_norm: float
    loss: np.ndarray
    theta_norm: np.ndarray
    diverged_at: int | None = None

    @property
    def rows(self) -> list[TraceRow]:
        return [TraceRow(self.method, self.replicate, k, loss, norm)
                for k, (loss, norm) in enumerate(
                    zip(self.loss.tolist(), self.theta_norm.tolist()), start=1)]


def _finite_or_inf(values: np.ndarray) -> np.ndarray:
    # non-finite iterates have left the finite regime; report as +inf
    return np.where(np.isfinite(values), values, np.inf)


# noise drawn ahead for one batch, in float64 values
_NOISE_BLOCK_VALUES = 1 << 16


class _NoiseRows:
    """Per-replicate noise rows, each replicate from its own generator.

    Every generator draws a block of iterations at once. Draws are
    sequential, so row k of a block is what the replicate's k-th call of
    one row would have drawn.
    """

    def __init__(self, gens, draw, dim: int, iterations: int):
        self.gens, self.draw, self.dim = gens, draw, dim
        self.block = max(1, min(iterations, _NOISE_BLOCK_VALUES // (len(gens) * dim)))
        self.rows = np.empty((0, len(gens), dim))
        self.taken = 0

    def take(self) -> np.ndarray:
        """The next (R, d) noise rows."""
        if self.taken == self.rows.shape[0]:
            self.rows = np.stack([self.draw(g, (self.block, self.dim)) for g in self.gens],
                                 axis=1)
            self.taken = 0
        self.taken += 1
        return self.rows[self.taken - 1]

    def keep(self, rows: np.ndarray):
        self.gens = [self.gens[i] for i in rows]
        self.rows = self.rows[:, rows]


def _step(config: RunConfig, state, loss, sample, noise):
    if config.method == "gd":
        gd_step(state, loss, config.schedule, sample)
    elif config.method == "one-point":
        one_point_step(state, loss, config.schedule, config.gaussian, noise, sample)
    elif config.method == "stdp-zo":
        stdp_zo_step(state, loss, config.schedule, config.strategy, noise, sample)
    else:
        stdp_multiplicative_step(state, loss, config.schedule, config.strategy, noise, sample,
                                 clamp=config.clamp)


def _samples(stream: DataStream | None, n: int, base, replicate: int) -> list:
    """The n + 1 data samples of one replicate, or n + 1 Nones without a stream."""
    if stream is None:
        return [None] * (n + 1)
    return generate_stream(stream, n + 1, base.substream(_SUB_DATA, replicate).generator())


def _run_batch(loss, config: RunConfig, base, replicates: list,
               samples: list) -> list[ReplicateTrace]:
    """Advance the given replicates of one method together as one (R, d) batch.

    ``samples`` holds the n + 1 data samples the batch sees, the first for
    the starting point; run_methods generates them once per batch and hands
    the same list to every method. Each replicate keeps its own substreams,
    so its trace is the one it would have run alone. A data stream belongs
    to one replicate, so a batch with a stream holds one replicate. A
    replicate whose iterate turns non-finite leaves the batch with its rows
    padded. If a step fails, the lowest failing replicate decides the
    outcome, as if the replicates had run one after another: the ones
    before it run to the end and the ones after it are dropped.
    """
    n, dim, method = config.iterations, config.dim, config.method
    gens = [base.substream(_SUB_NOISE, _METHOD_IDS[method], r).generator() for r in replicates]
    if config.theta0 is not None:
        theta0 = np.tile(config.theta0, (len(replicates), 1))
    else:
        theta0 = np.stack([base.substream(_SUB_INIT, r).generator().standard_normal(dim)
                           for r in replicates])

    noise = None
    if method == "one-point":
        sd = math.sqrt(config.gaussian.sigma2)
        noise = _NoiseRows(gens, lambda g, shape: g.normal(0.0, sd, size=shape), dim, n)
    elif method != "gd":
        a = config.noise.half_interval
        # one more row: the first seeds the loss history
        noise = _NoiseRows(gens, lambda g, shape: g.uniform(-a, a, size=shape), dim, n + 1)

    multiplicative = method == "stdp-mult"
    losses = np.full((len(replicates), n), np.inf)
    norms = np.full((len(replicates), n), np.inf)
    recorded = [n] * len(replicates)
    diverged_at = [None] * len(replicates)
    failure = None          # (batch row, iteration, error) of the lowest failing replicate
    live = np.arange(len(replicates))

    def keep(rows):
        nonlocal live
        live = live[rows]
        state.theta = state.theta[rows]
        state.loss_history = deque((h[rows] for h in state.loss_history),
                                   maxlen=state.loss_history.maxlen)
        if noise is not None:
            noise.keep(rows)

    # divergence to inf and weights underflowing to 0.0 under clamping are
    # expected outcomes here, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        start = np.exp(theta0) if multiplicative else theta0
        state = init_state(start, config.strategy.memory)
        if method in ("stdp-zo", "stdp-mult"):
            # the loss at the first noise row seeds the history, so the
            # 'previous' baseline is defined from the first step
            u = noise.take()
            seed_point = start * np.exp(u) if multiplicative else start + u
            state.loss_history.append(loss.evaluate_many(seed_point, samples[0]))
        initial_loss = _finite_or_inf(loss.evaluate_many(start, samples[0]))
        initial_norm = _finite_or_inf(np.sqrt(row_dot(theta0, theta0)))

        for k in range(1, n + 1):
            if not live.size:
                break
            u = noise.take() if noise is not None else None
            while live.size:
                try:
                    _step(config, state, loss, samples[k], u)
                    break
                except PositivityError as exc:
                    failure = (live[exc.row], k, exc)
                    recorded[live[exc.row]] = k - 1
                    u = u[:exc.row]
                    keep(np.arange(exc.row))

            point = state.theta
            log_point = np.log(point) if multiplicative else point
            squares = row_dot(log_point, log_point)
            # a non-finite entry leaves its row's sum of squares non-finite
            if not np.isfinite(squares).all():
                finite = np.isfinite(point).all(axis=1)
                if not finite.all():
                    for i in live[~finite]:
                        diverged_at[i] = k
                    keep(np.flatnonzero(finite))
                    point, squares = point[finite], squares[finite]
            losses[live, k - 1] = loss.evaluate_many(point, samples[k])
            norms[live, k - 1] = np.sqrt(squares)

    losses, norms = _finite_or_inf(losses), _finite_or_inf(norms)
    traces = [ReplicateTrace(method, r, float(initial_loss[i]), float(initial_norm[i]),
                             losses[i, :recorded[i]], norms[i, :recorded[i]], diverged_at[i])
              for i, r in enumerate(replicates)]
    if failure is not None:
        i, k, exc = failure
        raise OptimizerStepError(f"iteration {k}: {exc}", iteration=k,
                                 partial=traces[:i + 1]) from exc
    return traces


def run_replicate(loss, config: RunConfig, base, replicate: int,
                  stream: DataStream | None = None) -> ReplicateTrace:
    """Run one replicate of one method; see run_methods for the contract."""
    samples = _samples(stream, config.iterations, base, replicate)
    return _run_batch(loss, config, base, [replicate], samples)[0]


def run_methods(loss: LossFunction, configs: list[RunConfig], base,
                replicates: int | range = 1,
                stream: DataStream | None = None) -> list[ReplicateTrace]:
    """Run ``replicates`` independent trajectories of each config's method.

    ``replicates`` is a count, or a range of replicate indices to run; a
    replicate's trace is the same whichever other replicates run with it.

    ``base`` is the RngStream whose substreams supply initialization, data,
    and method noise. The initialization and data substreams depend only on
    (seed, replicate), so different methods run from the same starting
    point and see the same sample sequence; method noise gets its own
    substream. Iterate divergence to non-finite values ends the trajectory
    and the remaining rows are recorded with infinite loss.

    The replicates of a method advance together as one batch. With a data
    stream they run one at a time instead, and every method runs on one
    replicate's samples before the next replicate's are generated, so each
    stream is generated once and only one is held at a time; the methods
    must then share ``iterations``. Either way every trace is bit for bit
    the one the replicate gives alone, and the traces come back method by
    method in the order of ``configs``, each method's replicates in order.

    A failing step raises OptimizerStepError with the outcome of running
    the methods one after another: the lowest failing method decides, and
    ``partial`` holds every trace of the methods before it, then the traces
    of its replicates before the failing one and the failing one's rows up
    to the failure.

    For 'stdp-mult' the trace's theta_norm column holds the norm of
    log(weights), the quantity comparable across parametrizations.
    """
    if not isinstance(replicates, range):
        replicates = range(replicates)
    if not replicates:
        raise ValueError("replicates must be at least 1")
    n = max((config.iterations for config in configs), default=0)
    if stream is not None and any(config.iterations != n for config in configs):
        raise ValueError("methods that share a data stream must run the same iterations")
    if stream is not None:
        batches = [[r] for r in replicates]
    else:
        batches = [list(replicates)]
    per_method = [[] for _ in configs]
    failure = None          # the error of the lowest failing method so far
    running = len(configs)  # methods after a failing one are never run again
    for batch in batches:
        if not running:
            break
        samples = _samples(stream, n, base, batch[0])
        for m in range(running):
            try:
                per_method[m] += _run_batch(loss, configs[m], base, batch, samples)
            except OptimizerStepError as exc:
                per_method[m] += exc.partial
                failure, running = exc, m
                break
        # release this stream before the next one is generated
        del samples
    kept = per_method if failure is None else per_method[:running + 1]
    traces = [trace for method_traces in kept for trace in method_traces]
    if failure is not None:
        failure.partial = traces
        raise failure
    return traces


def run_optimizer(loss: LossFunction, config: RunConfig, base,
                  replicates: int = 1,
                  stream: DataStream | None = None) -> list[ReplicateTrace]:
    """Run ``replicates`` independent trajectories of one method.

    This is run_methods with the one config; see there for the contract.
    """
    return run_methods(loss, [config], base, replicates, stream)
