"""Loss functions, synthetic data streams, and a finite-difference oracle.

Every loss defines ``evaluate_many`` / ``gradient_many`` over a batch of
parameter points of shape (n, d); these are what the Monte Carlo
verification routines and the replicate-batched optimizer call. The
single-point ``evaluate`` / ``gradient`` come from the base class as row 0
of a one-row batch. The optimizer is responsible for perturbing
parameters, so losses always see the final evaluation point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_vector, row_dot

__all__ = [
    "SupervisedSample",
    "LossFunction",
    "LeastSquaresLoss",
    "LinearModelLoss",
    "PowerLoss",
    "ConstantLoss",
    "LogReparamLoss",
    "DataStream",
    "generate_stream",
    "finite_diff_gradient",
]


@dataclass(frozen=True)
class SupervisedSample:
    """One (covariates, response) observation from a data stream."""

    x: np.ndarray
    y: float
    index: int = 0


class LossFunction:
    """Interface: loss per row of a batch of parameter vectors, optionally with gradient."""

    def evaluate_many(self, points: np.ndarray, sample: SupervisedSample | None = None) -> np.ndarray:
        """Loss per row of ``points`` (shape (n, d))."""
        raise NotImplementedError

    def gradient_many(self, points: np.ndarray, sample: SupervisedSample | None = None) -> np.ndarray:
        """Gradient per row of ``points``."""
        raise NotImplementedError

    def evaluate(self, params: np.ndarray, sample: SupervisedSample | None = None) -> float:
        """Loss at one point (d,)."""
        return float(self.evaluate_many(np.asarray(params, dtype=np.float64)[None, :], sample)[0])

    def gradient(self, params: np.ndarray, sample: SupervisedSample | None = None) -> np.ndarray:
        """Gradient at one point (d,)."""
        return self.gradient_many(np.asarray(params, dtype=np.float64)[None, :], sample)[0]


class LeastSquaresLoss(LossFunction):
    """Squared distance to a fixed target: sum_j (target_j - params_j)^2."""

    def __init__(self, target):
        self.target = as_vector(target, "target")

    def _check(self, params: np.ndarray):
        if params.shape[-1] != self.target.shape[0]:
            raise ValueError(
                f"dimension mismatch: params has {params.shape[-1]}, "
                f"target has {self.target.shape[0]}"
            )

    def evaluate_many(self, points, sample=None) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        self._check(points)
        r = self.target - points
        return row_dot(r, r)

    def gradient_many(self, points, sample=None) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        self._check(points)
        return -2.0 * (self.target - points)


class LinearModelLoss(LossFunction):
    """Squared prediction error (y - <x, params>)^2 on one sample."""

    @staticmethod
    def _residual(params, sample):
        if sample is None:
            raise ValueError("LinearModelLoss requires a sample")
        x = np.asarray(sample.x, dtype=np.float64)
        if params.shape[-1] != x.shape[0]:
            raise ValueError(
                f"dimension mismatch: params has {params.shape[-1]}, "
                f"covariates have {x.shape[0]}"
            )
        return sample.y - row_dot(params, x), x

    def evaluate_many(self, points, sample=None) -> np.ndarray:
        r, _ = self._residual(np.asarray(points, dtype=np.float64), sample)
        return r * r

    def gradient_many(self, points, sample=None) -> np.ndarray:
        r, x = self._residual(np.asarray(points, dtype=np.float64), sample)
        return -2.0 * r[:, None] * x[None, :]


class PowerLoss(LossFunction):
    """Even-power coordinate loss sum_j (params_j - target_j)^power."""

    def __init__(self, power: int = 4, target=None, dim: int = 1):
        if power < 2 or power % 2 != 0:
            raise ValueError("power must be an even integer >= 2")
        self.power = int(power)
        self.target = as_vector(target, "target") if target is not None else np.zeros(dim)

    def evaluate_many(self, points, sample=None) -> np.ndarray:
        d = np.asarray(points, dtype=np.float64) - self.target
        return np.sum(d ** self.power, axis=1)

    def gradient_many(self, points, sample=None) -> np.ndarray:
        d = np.asarray(points, dtype=np.float64) - self.target
        return self.power * d ** (self.power - 1)


class ConstantLoss(LossFunction):
    """Loss that ignores its arguments; gradient is identically zero."""

    def __init__(self, value: float):
        self.value = float(value)

    def evaluate_many(self, points, sample=None) -> np.ndarray:
        return np.full(np.asarray(points).shape[0], self.value)

    def gradient_many(self, points, sample=None) -> np.ndarray:
        return np.zeros_like(np.asarray(points, dtype=np.float64))


class LogReparamLoss(LossFunction):
    """A positive-weight loss seen through w = exp(theta).

    Wraps a loss defined on positive weight vectors so the additive
    log-parameter update and the multiplicative weight-space update can be
    run on the same objective: evaluate(theta) = inner(exp(theta)).
    """

    def __init__(self, inner: LossFunction):
        self.inner = inner

    def evaluate_many(self, points, sample=None) -> np.ndarray:
        return self.inner.evaluate_many(np.exp(np.asarray(points, dtype=np.float64)), sample)

    def gradient_many(self, points, sample=None) -> np.ndarray:
        w = np.exp(np.asarray(points, dtype=np.float64))
        return self.inner.gradient_many(w, sample) * w


@dataclass(frozen=True)
class DataStream:
    """I.i.d. synthetic sample generator.

    ``fixed-target`` produces placeholder samples for losses that carry
    their own data (e.g. LeastSquaresLoss); ``linear-gaussian`` draws
    standard-normal covariates and y = <x, theta_star> + noise_sd * eps.
    """

    kind: str
    theta_star: np.ndarray | None = None
    noise_sd: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed-target", "linear-gaussian"):
            raise ValueError(f"unknown stream kind {self.kind!r}")
        if self.kind == "linear-gaussian":
            if self.theta_star is None:
                raise ValueError("linear-gaussian stream requires theta_star")
            object.__setattr__(self, "theta_star", as_vector(self.theta_star, "theta_star"))
            if self.noise_sd < 0:
                raise ValueError("noise_sd must be nonnegative")


def generate_stream(stream: DataStream, n: int, gen: np.random.Generator) -> list[SupervisedSample]:
    """Materialize ``n`` i.i.d. samples from the stream."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if stream.kind == "fixed-target":
        empty = np.zeros(0)
        return [SupervisedSample(x=empty, y=0.0, index=k) for k in range(n)]
    d = stream.theta_star.shape[0]
    xs = gen.standard_normal((n, d))
    noise = stream.noise_sd * gen.standard_normal(n)
    ys = xs @ stream.theta_star + noise
    return [SupervisedSample(x=xs[k], y=float(ys[k]), index=k) for k in range(n)]


def finite_diff_gradient(loss: LossFunction, theta, step: float = 1e-5,
                         sample: SupervisedSample | None = None) -> np.ndarray:
    """Central-difference gradient, the oracle for analytic gradients.

    All 2d bumped points go through one ``evaluate_many`` call: row j moves
    coordinate j up by ``step`` and row d + j moves it down.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    theta = as_vector(theta, "theta")
    d = theta.shape[0]
    j = np.arange(d)
    bumped = np.tile(theta, (2 * d, 1))
    bumped[j, j] = theta + step
    bumped[d + j, j] = theta - step
    values = loss.evaluate_many(bumped, sample)
    return (values[:d] - values[d:]) / (2.0 * step)
