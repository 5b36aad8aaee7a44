"""Oracle-backed checks of the expectation identities behind the update rules.

Each check pits a Monte Carlo estimate against an independent ground truth
(closed form, Gauss–Legendre quadrature, or a second estimator route) and
returns a CheckReport. The module needs numpy only. The identities covered:

* the Gaussian one-point product L(theta + xi) xi has mean
  sigma^2 E[grad L(theta + xi)]  (Stein's identity);
* the mean spike-timing step equals a smoothed gradient-descent step,
  E[step] = -alpha e^{-A} E[grad L(theta + U) (e^A - e^U)(e^A - e^{-U})],
  verified three ways: raw-step Monte Carlo, gradient-form Monte Carlo,
  and deterministic quadrature;
* the componentwise form of the same identity, where coordinate j of the
  mean step is -alpha e^{-A} C(A)/(2A) times the mean of the j-th partial
  derivative under the boundary-vanishing density f_A in coordinate j
  (the uniform density 1/(2A) of U_j is what contributes the 1/(2A));
* the anticipated-loss baseline is mean-zero against the fresh noise
  factor e^{-U} - e^{U};
* the per-coordinate variance of the one-point estimator grows roughly
  quadratically with dimension;
* the shipped divergence fixture, on which the one-point dynamics blows up
  while gradient descent from the same start converges.

Every check is a pure function of (seed, configuration), so reports are
bitwise reproducible. ``Lanes`` runs independent pieces of work, such as
the sweep's dimensions or the ``verify`` command's checks, on up to two
threads; each piece draws from its own substream, so the outputs are the
same bytes on one thread or two. The Monte Carlo checks build their sample
matrices in chunks of rows, so their working set stays a small multiple of
the sample matrix itself.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import LearningRateSchedule, RngStream
from .losses import LeastSquaresLoss, LossFunction, finite_diff_gradient
from .optimizers import GaussianNoiseConfig, RunConfig, run_optimizer
from .perturbation import PerturbationDensity, normalizer_c

__all__ = [
    "CheckReport",
    "Lanes",
    "check_normalizer",
    "check_density_mass",
    "check_density_sampler",
    "check_stein",
    "check_mean_step",
    "check_componentwise",
    "check_zero_mean_prev",
    "variance_scaling_sweep",
    "check_variance_scaling",
    "DIVERGENCE_FIXTURE",
    "divergence_demo",
    "DEFAULT_HALF_INTERVALS",
]

DEFAULT_HALF_INTERVALS = (0.1, 0.5, 1.0, 2.0)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else repr(f)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


@dataclass
class CheckReport:
    """Outcome of one verification check."""

    name: str
    n: int
    seed: int
    estimate: object
    oracle: object
    se: object
    rel_err: float | None
    passed: bool
    extra: dict = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": int(self.n),
            "seed": int(self.seed),
            "estimate": _jsonable(self.estimate),
            "oracle": _jsonable(self.oracle),
            "se": _jsonable(self.se),
            "rel_err": _jsonable(self.rel_err),
            "pass": bool(self.passed),
        }


def _mean_se(values: np.ndarray):
    """Columnwise mean and standard error of a (n, d) sample matrix."""
    n = values.shape[0]
    mean = values.mean(axis=0)
    se = values.std(axis=0, ddof=1) / math.sqrt(n)
    return mean, se


def _max_rel_err(estimate, oracle) -> float | None:
    estimate = np.atleast_1d(np.asarray(estimate, dtype=float))
    oracle = np.atleast_1d(np.asarray(oracle, dtype=float))
    nz = oracle != 0
    if not np.any(nz):
        return None
    return float(np.max(np.abs(estimate[nz] - oracle[nz]) / np.abs(oracle[nz])))


def _unnormalized_density(x, a):
    return (math.exp(a) - np.exp(x)) * (math.exp(a) - np.exp(-x))


# rows of a sample matrix the Monte Carlo checks turn into values at a time
_CHUNK_ROWS = 1 << 16


def _chunks(n: int):
    """Slices of at most _CHUNK_ROWS consecutive rows that cover range(n)."""
    return (slice(start, min(start + _CHUNK_ROWS, n)) for start in range(0, n, _CHUNK_ROWS))


# ---------------------------------------------------------------------------
# lanes


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class Lanes:
    """The calling thread plus, when two or more CPUs are available, one helper thread.

    Both lanes take tasks from one queue. A thread waiting in ``map`` for
    its own tasks runs queued tasks meanwhile, so a task may queue tasks of
    its own, and a lone lane still runs everything. Use it as a context
    manager: leaving the block stops the helper.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._queue = deque()
        self._closed = False
        self._helper = None
        if _cpu_count() > 1:
            self._helper = threading.Thread(target=self._work_until,
                                            args=(lambda: self._closed,), daemon=True)
            self._helper.start()

    def __enter__(self) -> "Lanes":
        return self

    def __exit__(self, exc_type, exc, tb):
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        # after an interrupt the daemon helper is left to end with the process
        if self._helper is not None and exc_type is None:
            self._helper.join()

    def _work_until(self, done):
        while True:
            with self._cond:
                while not (done() or self._queue):
                    self._cond.wait()
                if done():
                    return
                task = self._queue.popleft()
            task()

    def map(self, fn, items, order=None) -> list:
        """``[fn(x) for x in items]``, with the calls shared between the lanes.

        The calls start in ``order``, a permutation of the positions of
        ``items`` (default: list order), each under the caller's numpy error
        state. If calls raise, the exception of the first of them in list
        order is raised, as a loop would have.
        """
        items = list(items)
        results = [None] * len(items)
        errors = {}
        left = [len(items)]
        errstate = np.geterr()

        def call(i):
            try:
                with np.errstate(**errstate):
                    results[i] = fn(items[i])
            except BaseException as exc:
                errors[i] = exc  # raised again in the calling thread
                if not isinstance(exc, Exception):
                    raise  # an interrupt ends the wait at once
            finally:
                with self._cond:
                    left[0] -= 1
                    self._cond.notify_all()

        with self._cond:
            self._queue.extend(functools.partial(call, i)
                               for i in (range(len(items)) if order is None else order))
            self._cond.notify_all()
        self._work_until(lambda: left[0] == 0)
        if errors:
            raise errors[min(errors)]
        return results


# ---------------------------------------------------------------------------
# quadrature and the chi-square quantile


# Gauss–Legendre rule on [-1, 1]. On panels no wider than _PANEL_WIDTH it
# integrates the exponential-times-polynomial integrands of these checks to
# rounding: on one panel as wide as 40 its relative error on C(A) is below
# 1e-15.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_PANEL_WIDTH = 10.0
# largest tensor grid the mean-step quadrature evaluates in one batch
_MAX_GRID_POINTS = 2 ** 20


def _gauss_legendre(lo: float, hi: float):
    """Nodes and weights of the composite rule on [lo, hi], panels at most _PANEL_WIDTH wide."""
    panels = max(1, math.ceil((hi - lo) / _PANEL_WIDTH))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _integrate(f, lo: float, hi: float) -> float:
    """Integral of the vectorized ``f`` over [lo, hi]."""
    nodes, weights = _gauss_legendre(lo, hi)
    return float(weights @ f(nodes))


def _gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(s, x) for s, x > 0."""
    log_prefactor = s * math.log(x) - x - math.lgamma(s)
    if x <= s + 1.0:
        # lower series: P(s, x) = x^s e^-x / Gamma(s) * sum_n x^n / (s (s+1) ... (s+n))
        term = total = 1.0 / s
        n = s
        while term > total * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - total * math.exp(log_prefactor)
    # continued fraction for Q, evaluated by the modified Lentz method; the
    # factors delta converge to 1, so the loop ends within a few ulps of it
    b = x + 1.0 - s
    c = math.inf
    d = h = 1.0 / b
    i = 0
    delta = 0.0
    while abs(delta - 1.0) > 1e-15:
        i += 1
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
    return h * math.exp(log_prefactor)


def _chi2_quantile(q: float, dof: int) -> float:
    """The ``q`` quantile of the chi-square distribution with ``dof`` degrees of freedom.

    Bisection to the last bit on the upper tail, Q(dof/2, x/2) = 1 - q.
    Upper quantiles, the ones a goodness-of-fit threshold needs, come out
    to a few ulps; far lower ones (q near 1e-6) lose digits to 1 - q.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie strictly between 0 and 1")
    tail = 1.0 - q
    s = 0.5 * dof
    lo, hi = 0.0, float(dof)
    while _gamma_upper(s, 0.5 * hi) > tail:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _gamma_upper(s, 0.5 * mid) > tail:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# normalizer and density


def check_normalizer(half_intervals=DEFAULT_HALF_INTERVALS, rel_tol: float = 1e-9,
                     seed: int = 0) -> CheckReport:
    """Closed-form normalizer vs Gauss–Legendre quadrature on a grid of A."""
    closed = [normalizer_c(a) for a in half_intervals]
    quad = [_integrate(lambda x, a=a: _unnormalized_density(x, a), -a, a)
            for a in half_intervals]
    rel = _max_rel_err(closed, quad)
    return CheckReport(
        name="normalizer", n=len(half_intervals), seed=seed,
        estimate=closed, oracle=quad, se=[0.0] * len(closed),
        rel_err=rel, passed=rel is not None and rel <= rel_tol,
        extra={"half_intervals": list(half_intervals)},
    )


def check_density_mass(half_intervals=DEFAULT_HALF_INTERVALS, tol: float = 1e-9,
                       seed: int = 0) -> CheckReport:
    """The normalized density integrates to one on every A in the grid."""
    masses = [_integrate(PerturbationDensity(a).density, -a, a) for a in half_intervals]
    err = float(np.max(np.abs(np.asarray(masses) - 1.0)))
    return CheckReport(
        name="density-mass", n=len(half_intervals), seed=seed,
        estimate=masses, oracle=[1.0] * len(masses), se=[0.0] * len(masses),
        rel_err=err, passed=err <= tol,
        extra={"half_intervals": list(half_intervals)},
    )


def check_density_sampler(rng: RngStream, half_intervals=DEFAULT_HALF_INTERVALS,
                          n: int = 100_000, bins: int = 20,
                          significance: float = 1e-3) -> CheckReport:
    """Chi-square goodness of fit of the rejection sampler.

    Bin probabilities come from Gauss–Legendre quadrature of the density
    over equal-width bins, independent of the sampler. The chi-square
    approximation needs every bin to expect at least 5 draws, so an ``n``
    below ceil(5 / smallest bin mass) raises ValueError naming that minimum.
    """
    densities = [PerturbationDensity(a) for a in half_intervals]
    edges = [np.linspace(-a, a, bins + 1) for a in half_intervals]
    masses = [np.array([_integrate(pd.density, bounds[b], bounds[b + 1]) for b in range(bins)])
              for pd, bounds in zip(densities, edges)]
    minimum = math.ceil(5 / min(m.min() for m in masses))
    if n < minimum:
        raise ValueError(f"check_density_sampler needs n >= {minimum} so every bin "
                         f"expects at least 5 draws, not {n}")
    threshold = _chi2_quantile(1.0 - significance, bins - 1)
    statistics = []
    for idx, (pd, bounds, mass) in enumerate(zip(densities, edges, masses)):
        gen = rng.substream(idx).generator()
        draws = pd.sample(gen, size=n)
        observed, _ = np.histogram(draws, bins=bounds)
        expected = n * mass
        statistics.append(float(np.sum((observed - expected) ** 2 / expected)))
    return CheckReport(
        name="density-sampler", n=n, seed=rng.seed,
        estimate=statistics, oracle=[threshold] * len(statistics),
        se=[0.0] * len(statistics), rel_err=None,
        passed=bool(all(s <= threshold for s in statistics)),
        extra={"half_intervals": list(half_intervals), "bins": bins,
               "significance": significance},
    )


# ---------------------------------------------------------------------------
# Stein identity


def check_stein(theta, target, sigma2: float, n: int, rng: RngStream,
                rel_tol: float = 0.05) -> CheckReport:
    """Monte Carlo mean of L(theta + xi) xi vs the closed form -2 sigma2 (y - theta).

    A coordinate passes when it matches its oracle within ``rel_tol``
    relative or sits within three standard errors of it; the second clause
    is what carries coordinates whose oracle is zero or small against the
    estimator noise.
    """
    if n < 10_000:
        raise ValueError("check_stein needs n >= 10000")
    theta = np.asarray(theta, dtype=np.float64)
    loss = LeastSquaresLoss(target)
    d = theta.shape[0]
    gen = rng.generator()
    xi = gen.normal(0.0, math.sqrt(sigma2), size=(n, d))
    # each row of xi becomes its product L(theta + xi) xi in place
    for rows in _chunks(n):
        block = xi[rows]
        block *= loss.evaluate_many(theta[None, :] + block)[:, None]
    estimate, se = _mean_se(xi)
    oracle = -2.0 * sigma2 * (loss.target - theta)
    ok = True
    for j in range(d):
        gap = abs(estimate[j] - oracle[j])
        banded = gap <= 3.0 * se[j]
        relative = oracle[j] != 0.0 and gap <= rel_tol * abs(oracle[j])
        ok = ok and (banded or relative)
    return CheckReport(
        name="stein", n=n, seed=rng.seed,
        estimate=estimate, oracle=oracle, se=se,
        rel_err=_max_rel_err(estimate, oracle), passed=bool(ok),
        extra={"sigma2": sigma2},
    )


# ---------------------------------------------------------------------------
# mean-step identity


def _raw_step_mc(loss, theta, a, alpha, n, gen):
    """Monte Carlo mean of the zero-baseline step alpha L(theta+U)(e^-U - e^U)."""
    d = theta.shape[0]
    u = gen.uniform(-a, a, size=(n, d))
    # each row of u becomes its step value in place
    for rows in _chunks(n):
        block = u[rows]
        block[...] = (alpha * loss.evaluate_many(theta[None, :] + block)[:, None]
                      * (np.exp(-block) - np.exp(block)))
    return _mean_se(u)


def _grad_form_mc(loss, theta, a, alpha, n, gen):
    """Monte Carlo mean of -alpha e^-A grad L(theta+U) (e^A - e^U)(e^A - e^-U)."""
    d = theta.shape[0]
    ea = math.exp(a)
    u = gen.uniform(-a, a, size=(n, d))
    # each row of u becomes its value in place
    for rows in _chunks(n):
        block = u[rows]
        grads = loss.gradient_many(theta[None, :] + block)
        eu = np.exp(block)
        block[...] = -alpha * math.exp(-a) * grads * (ea - eu) * (ea - 1.0 / eu)
    return _mean_se(u)


def _mean_step_quadrature(loss, theta, a, alpha):
    """Tensor Gauss–Legendre quadrature of the gradient form on [-A, A]^d, d <= 3.

    The whole grid goes through one ``gradient_many`` call; a loss without
    a gradient is differentiated by central differences point by point.
    """
    d = theta.shape[0]
    if d > 3:
        raise ValueError("quadrature oracle is limited to d <= 3")
    nodes, weights = _gauss_legendre(-a, a)
    if nodes.size ** d > _MAX_GRID_POINTS:
        raise ValueError(f"quadrature grid of {nodes.size}^{d} points is too large "
                         f"at half_interval {a!r}")
    u = np.stack(np.meshgrid(*[nodes] * d, indexing="ij"), axis=-1).reshape(-1, d)
    w = np.prod(np.meshgrid(*[weights] * d, indexing="ij"), axis=0).ravel()
    points = theta[None, :] + u
    try:
        grads = loss.gradient_many(points)
    except NotImplementedError:
        grads = np.stack([finite_diff_gradient(loss, p) for p in points])
    ea = math.exp(a)
    # column j carries coordinate j's weight (e^A - e^{u_j})(e^A - e^{-u_j})
    integrals = w @ (grads * (ea - np.exp(u)) * (ea - np.exp(-u)))
    return -alpha * math.exp(-a) * integrals / (2.0 * a) ** d


def check_mean_step(loss: LossFunction, theta, half_interval: float, alpha: float,
                   n: int, rng: RngStream, quadrature: bool | None = None,
                   rel_tol: float = 0.02) -> CheckReport:
    """Three-way agreement of the mean spike-timing step.

    Routes: (a) raw-step Monte Carlo with a zero baseline, (b) Monte Carlo
    of the smoothed-gradient form, (c) tensor Gauss–Legendre quadrature of
    (b) for d <= 3. Every available pair must agree per coordinate
    within three combined standard errors, or within ``rel_tol`` relative
    where the reference value is nonzero.
    """
    if n < 2:
        # a standard error from fewer draws is undefined, and numpy warns about it
        raise ValueError(f"check_mean_step needs n >= 2, not {n}")
    theta = np.asarray(theta, dtype=np.float64)
    a = float(half_interval)
    d = theta.shape[0]
    if quadrature is None:
        quadrature = d <= 3
    raw_mean, raw_se = _raw_step_mc(loss, theta, a, alpha, n, rng.substream(0).generator())
    grad_mean, grad_se = _grad_form_mc(loss, theta, a, alpha, n, rng.substream(1).generator())
    quad = _mean_step_quadrature(loss, theta, a, alpha) if quadrature else None

    reference = quad if quad is not None else grad_mean
    routes = [(raw_mean, raw_se), (grad_mean, grad_se)]
    if quad is not None:
        routes.append((quad, np.zeros(d)))
    ok = True
    for i in range(len(routes)):
        for k in range(i + 1, len(routes)):
            xm, xs = routes[i]
            ym, ys = routes[k]
            for j in range(d):
                gap = abs(xm[j] - ym[j])
                banded = gap <= 3.0 * math.sqrt(xs[j] ** 2 + ys[j] ** 2)
                relative = reference[j] != 0 and gap <= rel_tol * abs(reference[j])
                ok = ok and (banded or relative)
    return CheckReport(
        name="mean-step", n=n, seed=rng.seed,
        estimate=raw_mean, oracle=reference, se=raw_se,
        rel_err=_max_rel_err(raw_mean, reference), passed=bool(ok),
        extra={"raw_mean": raw_mean, "raw_se": raw_se,
               "grad_mean": grad_mean, "grad_se": grad_se,
               "quadrature": quad, "half_interval": a, "alpha": alpha},
    )


def check_componentwise(loss: LossFunction, theta, half_interval: float,
                        alpha: float, n: int, rng: RngStream) -> CheckReport:
    """Componentwise form of the mean-step identity.

    Coordinate j of the mean step is estimated as
    -alpha e^{-A} C(A)/(2A) times the Monte Carlo mean of the j-th partial
    derivative at theta + U, where U_j follows the boundary-vanishing
    density f_A and the other coordinates stay uniform. The estimate must
    match the raw-step route per coordinate within three combined standard
    errors.
    """
    theta = np.asarray(theta, dtype=np.float64)
    a = float(half_interval)
    d = theta.shape[0]
    if d > 10:
        raise ValueError("check_componentwise is limited to d <= 10")
    if n < 2:
        raise ValueError(f"check_componentwise needs n >= 2, not {n}")
    pd = PerturbationDensity(a)
    prefactor = -alpha * math.exp(-a) * pd.normalizer / (2.0 * a)
    estimate = np.empty(d)
    se = np.empty(d)
    for j in range(d):
        gen = rng.substream(0, j).generator()
        u = gen.uniform(-a, a, size=(n, d))
        u[:, j] = pd.sample(gen, size=n)
        partials = np.empty(n)
        for rows in _chunks(n):
            partials[rows] = loss.gradient_many(theta[None, :] + u[rows])[:, j]
        estimate[j] = prefactor * partials.mean()
        se[j] = abs(prefactor) * partials.std(ddof=1) / math.sqrt(n)
    oracle, oracle_se = _raw_step_mc(loss, theta, a, alpha, n, rng.substream(1).generator())
    combined = np.sqrt(se ** 2 + oracle_se ** 2)
    ok = bool(np.all(np.abs(estimate - oracle) <= 3.0 * combined))
    return CheckReport(
        name="componentwise", n=n, seed=rng.seed,
        estimate=estimate, oracle=oracle, se=combined,
        rel_err=_max_rel_err(estimate, oracle), passed=ok,
        extra={"half_interval": a, "alpha": alpha, "oracle_se": oracle_se},
    )


def check_zero_mean_prev(loss: LossFunction, theta_prev, half_interval: float,
                         n: int, rng: RngStream) -> CheckReport:
    """The baseline term is mean-zero against fresh noise.

    E[L(theta_prev + U') (e^{-U} - e^{U})] = 0 for independent U', U: the
    loss factor is independent of U and e^{-U}, e^{U} share a distribution.
    """
    if n < 10_000:
        raise ValueError("check_zero_mean_prev needs n >= 10000")
    theta_prev = np.asarray(theta_prev, dtype=np.float64)
    a = float(half_interval)
    d = theta_prev.shape[0]
    gen = rng.generator()
    u_prev = gen.uniform(-a, a, size=(n, d))
    u = gen.uniform(-a, a, size=(n, d))
    # each row of u becomes its value in place
    for rows in _chunks(n):
        block = u[rows]
        block[...] = (loss.evaluate_many(theta_prev[None, :] + u_prev[rows])[:, None]
                      * (np.exp(-block) - np.exp(block)))
    estimate, se = _mean_se(u)
    ok = bool(np.all(np.abs(estimate) <= 3.0 * se))
    return CheckReport(
        name="zero-mean-prev", n=n, seed=rng.seed,
        estimate=estimate, oracle=np.zeros(d), se=se,
        rel_err=None, passed=ok, extra={"half_interval": a},
    )


# ---------------------------------------------------------------------------
# variance scaling


# var ** 2 below overflows above this
_SQRT_FLOAT_MAX = math.sqrt(np.finfo(np.float64).max)


# values per chunk of draws in one sweep row; a row holds two such buffers
_SWEEP_CHUNK = 1 << 20
# values per chunk of the one-pass sweep these chunks reproduce
_SWEEP_BLOCK = 4_000_000


def _sweep_chunks(n: int, d: int):
    """(start, rows) chunks of a sweep row's n draws of dimension d.

    The chunks split the blocks of _SWEEP_BLOCK values the sweep was first
    computed in. einsum sums a row of more than 8192 values (its buffer)
    one way when the row is alone in its array and another way when it is
    not, so a chunk leaves a row alone only where its block did: a chunk
    holds _SWEEP_CHUNK // d rows but at least two, and one more where the
    block would otherwise end with a lone row.
    """
    block = max(1, _SWEEP_BLOCK // d)
    step = max(2, _SWEEP_CHUNK // d)
    for start in range(0, n, block):
        end = min(start + block, n)
        while start < end:
            rows = min(step, end - start)
            if end - start - rows == 1:
                rows += 1
            yield start, rows
            start += rows


def _variance_row(d: int, sigma2: float, n: int, gen: np.random.Generator,
                  delta: float):
    """(d, variance, variance_se) of coordinate 0 of L(theta + xi) xi / sigma2 at dimension d."""
    sd = math.sqrt(sigma2)
    gap = np.full(d, delta)
    values = np.empty(n)
    size = max((rows for _, rows in _sweep_chunks(n, d)), default=0) * d
    xi_buffer = np.empty(size)
    residual_buffer = np.empty(size)
    # an extreme sigma2 or delta overflows; that is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        for start, m in _sweep_chunks(n, d):
            xi = xi_buffer[:m * d].reshape(m, d)
            # the draws of gen.normal(0.0, sd, size=(m, d)), without its temporaries
            gen.standard_normal(out=xi)
            xi *= sd
            residual = np.subtract(gap, xi, out=residual_buffer[:m * d].reshape(m, d))
            loss_vals = np.einsum("ij,ij->i", residual, residual)
            values[start:start + m] = loss_vals * xi[:, 0] / sigma2
        var = float(values.var(ddof=1))
        centered = values - values.mean()
        m4 = float(np.mean(centered ** 4))
    if not (math.isfinite(m4) and var < _SQRT_FLOAT_MAX):
        raise ValueError(f"the variance at d={d} leaves the floating-point range "
                         f"(sigma2={sigma2!r}, delta={delta!r})")
    return d, var, math.sqrt(max(m4 - var ** 2, 0.0) / n)


def variance_scaling_sweep(dims, sigma2: float, n: int, rng: RngStream,
                           delta: float = 1.0, lanes: Lanes | None = None):
    """Per-coordinate variance of the scaled one-point product across dims.

    For the squared-distance loss with a constant per-coordinate gap
    ``delta``, estimates Var of coordinate 0 of L(theta + xi) xi / sigma2
    at each dimension and fits a log-log slope. Returns
    (rows, slope, slope_se) with rows of (dim, variance, variance_se);
    slope is None when fewer than two dimensions are given. The rows run
    on ``lanes`` (by default, lanes of their own), largest dimension first.
    """
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError("dims must be positive")
    if n < 2:
        # a variance from fewer draws is undefined, and numpy warns about it
        raise ValueError(f"the variance sweep needs n >= 2, not {n}")

    def row(idx):
        return _variance_row(dims[idx], sigma2, n, rng.substream(idx).generator(), delta)

    largest_first = sorted(range(len(dims)), key=lambda idx: -dims[idx])
    with Lanes() if lanes is None else contextlib.nullcontext(lanes) as lanes:
        rows = lanes.map(row, range(len(dims)), largest_first)
    if len(dims) < 2:
        return rows, None, None
    logs_d = np.log([r[0] for r in rows])
    logs_v = np.log([r[1] for r in rows])
    slope, intercept = np.polyfit(logs_d, logs_v, 1)
    if len(dims) > 2:
        residuals = logs_v - (slope * logs_d + intercept)
        sxx = float(np.sum((logs_d - logs_d.mean()) ** 2))
        slope_se = math.sqrt(float(residuals @ residuals) / (len(dims) - 2) / sxx)
    else:
        slope_se = 0.0
    return rows, float(slope), slope_se


def check_variance_scaling(dims, sigma2: float, n: int, rng: RngStream,
                           delta: float = 1.0, band=(1.7, 2.3),
                           lanes: Lanes | None = None) -> CheckReport:
    """Fitted log-log slope of the variance sweep must land in ``band``.

    The sweep's rows run on ``lanes``, as in ``variance_scaling_sweep``.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2 or max(dims) < 10 * min(dims):
        raise ValueError("variance scaling check needs dims spanning at least a decade")
    rows, slope, slope_se = variance_scaling_sweep(dims, sigma2, n, rng, delta, lanes=lanes)
    ok = band[0] <= slope <= band[1]
    return CheckReport(
        name="variance-scaling", n=n, seed=rng.seed,
        estimate=slope, oracle=2.0, se=slope_se,
        rel_err=abs(slope - 2.0) / 2.0, passed=bool(ok),
        extra={"rows": rows, "band": tuple(band), "dims": list(dims)},
    )


# ---------------------------------------------------------------------------
# divergence fixture

# Pinned instance on which the one-point dynamics blows up while gradient
# descent from the same start converges: a far-initialized squared-distance
# problem in d=100 where the first perturbed-loss kick already overshoots.
DIVERGENCE_FIXTURE = {
    "dim": 100,
    "theta0_fill": 10.0,
    "alpha": 0.25,
    "sigma2": 1.0,
    "iterations": 200,
    "seed": 20240711,
    "ratio_up": 10.0,
    "ratio_down": 0.1,
}


def divergence_demo(fixture: dict | None = None):
    """Run the pinned divergence instance; returns (report, traces by method).

    Passes when the one-point loss at the final iteration exceeds
    ratio_up times its initial loss while gradient descent has dropped
    below ratio_down times the same initial loss.
    """
    fx = dict(DIVERGENCE_FIXTURE)
    if fixture:
        fx.update(fixture)
    d = fx["dim"]
    loss = LeastSquaresLoss(np.zeros(d))
    theta0 = np.full(d, float(fx["theta0_fill"]))
    schedule = LearningRateSchedule.constant(fx["alpha"])
    base = RngStream(fx["seed"])
    traces = {}
    for method in ("one-point", "gd"):
        config = RunConfig(
            method=method, dim=d, iterations=fx["iterations"], schedule=schedule,
            gaussian=GaussianNoiseConfig(fx["sigma2"]) if method == "one-point" else None,
            theta0=theta0,
        )
        traces[method] = run_optimizer(loss, config, base)[0]
    initial = traces["one-point"].initial_loss
    final_zo = traces["one-point"].rows[-1].loss
    final_gd = traces["gd"].rows[-1].loss
    ratio_zo = final_zo / initial
    ratio_gd = final_gd / initial
    ok = ratio_zo > fx["ratio_up"] and ratio_gd < fx["ratio_down"]
    report = CheckReport(
        name="divergence", n=fx["iterations"], seed=fx["seed"],
        estimate=[ratio_zo, ratio_gd],
        oracle=[fx["ratio_up"], fx["ratio_down"]],
        se=[0.0, 0.0], rel_err=None, passed=bool(ok),
        extra={"fixture": fx},
    )
    return report, traces
