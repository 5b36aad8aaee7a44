"""Spike-timing noise.

The stochastic ingredient of the spike-timing update is a vector U of
per-edge timing offsets, uniform on [-A, A] where A is half the interspike
interval. Averaging the update against this uniform noise produces, after
integration by parts, an effective smoothing density

    f_A(x) = (e^A - e^x)(e^A - e^-x) / C(A)   on [-A, A],

which vanishes at the interval boundary, is even, and has the closed-form
normalizer C(A) = 2A(e^{2A} + 1) + 2 - 2e^{2A}. This module provides the
noise configuration, the density, its normalizer, and an exact rejection
sampler for f_A; the verification suite checks them against quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NoiseConfig",
    "normalizer_c",
    "PerturbationDensity",
]


def _check_half_interval(value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ValueError("half_interval must be positive")
    return value


@dataclass(frozen=True)
class NoiseConfig:
    """Uniform timing noise on [-half_interval, half_interval]^dim."""

    half_interval: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "half_interval", _check_half_interval(self.half_interval))
        if int(self.dim) < 1:
            raise ValueError("dim must be at least 1")
        object.__setattr__(self, "dim", int(self.dim))


def normalizer_c(half_interval: float) -> float:
    """Closed-form normalizer C(A) of the boundary-vanishing density.

    C(A) = 2A(e^{2A} + 1) + 2 - 2e^{2A}, equal to the integral of
    (e^A - e^x)(e^A - e^-x) over [-A, A]. Positive and strictly increasing
    for A > 0.
    """
    a = _check_half_interval(half_interval)
    e2a = math.exp(2.0 * a)
    return 2.0 * a * (e2a + 1.0) + 2.0 - 2.0 * e2a


def _unnormalized(x: np.ndarray, ea: float) -> np.ndarray:
    """(ea - e^x)(ea - 1 / e^x) for ea = e^A, computed in place on two temporaries."""
    ex = np.exp(x)
    inverse = np.divide(1.0, ex)
    np.subtract(ea, inverse, out=inverse)
    np.subtract(ea, ex, out=ex)
    return np.multiply(ex, inverse, out=ex)


@dataclass(frozen=True)
class PerturbationDensity:
    """The density f_A with cached normalizer and an exact sampler."""

    half_interval: float
    normalizer: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "half_interval", _check_half_interval(self.half_interval))
        object.__setattr__(self, "normalizer", normalizer_c(self.half_interval))

    def density(self, x):
        """f_A evaluated at ``x`` (scalar or array); zero outside [-A, A]."""
        a = self.half_interval
        ea = math.exp(a)
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        inside = np.abs(x) <= a
        out[inside] = _unnormalized(x[inside], ea) / self.normalizer
        return float(out) if out.ndim == 0 else out

    def peak(self) -> float:
        """Maximum of the density, attained at 0 by symmetry and unimodality."""
        return (math.exp(self.half_interval) - 1.0) ** 2 / self.normalizer

    def sample(self, gen: np.random.Generator, size: int | None = None,
               return_stats: bool = False):
        """Exact draws from f_A via rejection with a uniform proposal.

        The envelope is the density maximum f_A(0); candidate x is accepted
        when u * (e^A - 1)^2 <= (e^A - e^x)(e^A - e^-x) for u uniform on
        (0, 1), which avoids dividing by the normalizer. With
        ``return_stats`` the proposal and acceptance counts are returned
        alongside the samples.
        """
        a = self.half_interval
        ea = math.exp(a)
        peak_unnormalized = (ea - 1.0) ** 2
        n = 1 if size is None else int(size)
        out = np.empty(n)
        filled = 0
        proposed = 0
        accepted = 0
        while filled < n:
            batch = max(64, int(1.6 * (n - filled)))
            x = gen.uniform(-a, a, size=batch)
            u = gen.uniform(0.0, peak_unnormalized, size=batch)
            keep = x[u <= _unnormalized(x, ea)]
            proposed += batch
            accepted += keep.size
            take = min(keep.size, n - filled)
            out[filled:filled + take] = keep[:take]
            filled += take
        result = float(out[0]) if size is None else out
        if return_stats:
            return result, {"proposed": proposed, "accepted": accepted}
        return result
