"""Shared numeric primitives.

Dense real vectors are plain 1-D float64 numpy arrays throughout the
package; :func:`as_vector` is the single validation gate. The module also
provides the row-wise dot product of the batched update rules, learning-rate
schedules, and the seeded RNG streams that make every stochastic routine
replayable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_vector",
    "row_dot",
    "LearningRateSchedule",
    "RngStream",
]


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce ``values`` to a finite 1-D float64 array or raise ValueError."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def row_dot(a, b) -> np.ndarray:
    """Dot product of each row of ``a`` with the matching row of ``b``.

    Rows broadcast, so ``b`` may be one vector shared by every row. Each
    row goes through the same BLAS dot as the 1-D ``a[i] @ b[i]``, so a
    batch of rows reduces bit for bit like the rows taken one at a time
    (``einsum`` and matrix-vector products round differently).
    """
    return np.vecdot(a, b)


@dataclass(frozen=True)
class LearningRateSchedule:
    """Step-size sequence alpha_k, either constant or alpha0 / k**power.

    alpha0 = 0 is admitted as a degenerate schedule that freezes the
    iterate, useful as a control run.
    """

    kind: str
    alpha0: float
    power: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "power"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.alpha0 < 0:
            raise ValueError("alpha0 must be nonnegative")
        if self.power < 0:
            raise ValueError("power must be nonnegative")

    @classmethod
    def constant(cls, alpha0: float) -> "LearningRateSchedule":
        return cls("constant", alpha0)

    @classmethod
    def power_decay(cls, alpha0: float, power: float) -> "LearningRateSchedule":
        return cls("power", alpha0, power)

    def rate(self, k: int) -> float:
        """Learning rate for iteration ``k`` (1-based)."""
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        if self.kind == "constant":
            return self.alpha0
        return self.alpha0 / float(k) ** self.power


@dataclass(frozen=True)
class RngStream:
    """Deterministic, hierarchically splittable random stream.

    ``(seed, stream)`` fully determines the sample sequence. Streams are
    backed by the counter-based Philox generator keyed through numpy's
    SeedSequence, so identical ``(seed, stream)`` pairs produce bitwise
    identical draws across runs and platforms, and distinct stream paths
    are statistically independent.
    """

    seed: int
    stream: tuple = ()

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        stream = tuple(int(s) for s in (
            (self.stream,) if isinstance(self.stream, int) else self.stream
        ))
        if any(s < 0 for s in stream):
            raise ValueError("stream ids must be nonnegative")
        object.__setattr__(self, "stream", stream)

    def substream(self, *ids: int) -> "RngStream":
        """Derive a child stream by appending ``ids`` to the stream path."""
        return RngStream(self.seed, self.stream + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        """Fresh Generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(seq))
