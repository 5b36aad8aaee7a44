"""The Monte Carlo kernels of ``verification`` as they were before chunking.

Each function computes its whole sample matrix in one pass, with the
full-size temporaries of the original code, on the draws of the same
generator calls. The tests hold the chunked, in-place kernels and the
two-lane variance sweep to these bit for bit.
"""

import math

import numpy as np


def variance_row(d, sigma2, n, gen, delta=1.0):
    """(d, variance, variance_se) of the sweep at dimension d, in 4M-value chunks."""
    sd = math.sqrt(sigma2)
    gap = np.full(d, delta)
    values = np.empty(n)
    filled = 0
    chunk_rows = max(1, 4_000_000 // d)
    with np.errstate(over="ignore", invalid="ignore"):
        while filled < n:
            m = min(chunk_rows, n - filled)
            xi = gen.normal(0.0, sd, size=(m, d))
            residual = gap - xi
            loss_vals = np.einsum("ij,ij->i", residual, residual)
            values[filled:filled + m] = loss_vals * xi[:, 0] / sigma2
            filled += m
        var = float(values.var(ddof=1))
        centered = values - values.mean()
        m4 = float(np.mean(centered ** 4))
    return d, var, math.sqrt(max(m4 - var ** 2, 0.0) / n)


def sample(pd, gen, n):
    """``PerturbationDensity.sample(gen, size=n)`` with its one-pass acceptance test."""
    a = pd.half_interval
    ea = math.exp(a)
    out = np.empty(n)
    filled = 0
    while filled < n:
        batch = max(64, int(1.6 * (n - filled)))
        x = gen.uniform(-a, a, size=batch)
        u = gen.uniform(0.0, (ea - 1.0) ** 2, size=batch)
        ex = np.exp(x)
        keep = x[u <= (ea - ex) * (ea - 1.0 / ex)]
        take = min(keep.size, n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def stein_values(loss, theta, sigma2, n, gen):
    xi = gen.normal(0.0, math.sqrt(sigma2), size=(n, theta.shape[0]))
    return loss.evaluate_many(theta[None, :] + xi)[:, None] * xi


def raw_step_values(loss, theta, a, alpha, n, gen):
    u = gen.uniform(-a, a, size=(n, theta.shape[0]))
    return alpha * loss.evaluate_many(theta[None, :] + u)[:, None] * (np.exp(-u) - np.exp(u))


def grad_form_values(loss, theta, a, alpha, n, gen):
    ea = math.exp(a)
    u = gen.uniform(-a, a, size=(n, theta.shape[0]))
    grads = loss.gradient_many(theta[None, :] + u)
    eu = np.exp(u)
    return -alpha * math.exp(-a) * grads * (ea - eu) * (ea - 1.0 / eu)


def zero_mean_values(loss, theta_prev, a, n, gen):
    d = theta_prev.shape[0]
    u_prev = gen.uniform(-a, a, size=(n, d))
    u = gen.uniform(-a, a, size=(n, d))
    return loss.evaluate_many(theta_prev[None, :] + u_prev)[:, None] * (np.exp(-u) - np.exp(u))


def componentwise_partials(loss, theta, pd, j, n, gen):
    a = pd.half_interval
    u = gen.uniform(-a, a, size=(n, theta.shape[0]))
    u[:, j] = sample(pd, gen, n)
    return loss.gradient_many(theta[None, :] + u)[:, j]
