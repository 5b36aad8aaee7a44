import math

import numpy as np
import pytest
from scipy import integrate, stats

from spikezero.core import RngStream
from spikezero.perturbation import (
    NoiseConfig,
    PerturbationDensity,
    normalizer_c,
)

A_GRID = (0.1, 0.5, 1.0, 2.0)


def quad_normalizer(a: float) -> float:
    """Independent quadrature oracle for the normalizer."""
    val, _ = integrate.quad(
        lambda x: (math.exp(a) - math.exp(x)) * (math.exp(a) - math.exp(-x)),
        -a, a, epsabs=1e-13, epsrel=1e-13,
    )
    return val


def test_normalizer_at_one_is_four():
    # 2(e^2 + 1) + 2 - 2e^2 collapses to 4
    assert abs(normalizer_c(1.0) - 4.0) <= 1e-12


@pytest.mark.parametrize("a", A_GRID)
def test_normalizer_matches_quadrature(a):
    closed = normalizer_c(a)
    assert abs(closed - quad_normalizer(a)) <= 1e-9 * closed


def test_normalizer_small_a_taylor():
    # leading term of the expansion is (4/3) A^3; the next term is relative O(A)
    a = 0.01
    closed = normalizer_c(a)
    assert abs(closed - (4.0 / 3.0) * a ** 3) <= 0.01 * closed


@pytest.mark.parametrize("a", [0.0, -1.0])
def test_normalizer_rejects_nonpositive(a):
    with pytest.raises(ValueError, match="half_interval must be positive"):
        normalizer_c(a)


def test_normalizer_strictly_increasing():
    grid = np.linspace(0.01, 4.0, 200)
    values = [normalizer_c(a) for a in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_density_vanishes_at_boundary():
    pd = PerturbationDensity(1.0)
    assert pd.density(1.0) == 0.0
    assert pd.density(-1.0) == 0.0
    assert pd.density(1.5) == 0.0


def test_density_peak_value():
    # f_1(0) = (e - 1)^2 / 4, computed independently
    pd = PerturbationDensity(1.0)
    assert pd.density(0.0) == pytest.approx(0.7381231105031398, rel=1e-12)
    assert pd.peak() == pytest.approx(pd.density(0.0), rel=1e-12)


def test_density_even():
    pd = PerturbationDensity(0.7)
    x = np.linspace(0, 0.7, 50)
    np.testing.assert_allclose(pd.density(x), pd.density(-x), rtol=1e-13)


@pytest.mark.parametrize("a", A_GRID)
def test_density_integrates_to_one(a):
    pd = PerturbationDensity(a)
    mass, _ = integrate.quad(pd.density, -a, a, epsabs=1e-12, epsrel=1e-12)
    assert abs(mass - 1.0) <= 1e-9


def test_density_factor_nonnegative():
    rng = np.random.default_rng(5)
    for a in A_GRID:
        u = rng.uniform(-a, a, size=1000)
        factor = (math.exp(a) - np.exp(u)) * (math.exp(a) - np.exp(-u))
        assert np.all(factor >= 0)


def test_noise_config_validation():
    with pytest.raises(ValueError, match="half_interval must be positive"):
        NoiseConfig(0.0, 3)
    with pytest.raises(ValueError, match="dim"):
        NoiseConfig(1.0, 0)


def test_sample_fa_support_and_mean():
    pd = PerturbationDensity(1.0)
    draws = pd.sample(RngStream(7).generator(), size=1_000_000)
    assert np.all(np.abs(draws) <= 1.0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean()) <= 3 * se


def test_sample_fa_scalar_form():
    pd = PerturbationDensity(0.5)
    x = pd.sample(RngStream(8).generator())
    assert isinstance(x, float)
    assert abs(x) <= 0.5


def test_sample_fa_chi_square():
    a, n, bins = 1.0, 100_000, 20
    pd = PerturbationDensity(a)
    draws = pd.sample(RngStream(9).generator(), size=n)
    edges = np.linspace(-a, a, bins + 1)
    observed, _ = np.histogram(draws, bins=edges)
    expected = np.array([
        n * integrate.quad(pd.density, lo, hi, epsabs=1e-12)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    ])
    statistic = np.sum((observed - expected) ** 2 / expected)
    assert statistic <= stats.chi2.ppf(1 - 1e-3, bins - 1)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_sample_fa_rejection_rate(a):
    pd = PerturbationDensity(a)
    n = 200_000
    _, info = pd.sample(RngStream(10).generator(), size=n, return_stats=True)
    predicted_accept = pd.normalizer / (2 * a * (math.exp(a) - 1.0) ** 2)
    observed_accept = info["accepted"] / info["proposed"]
    se = math.sqrt(predicted_accept * (1 - predicted_accept) / info["proposed"])
    assert abs(observed_accept - predicted_accept) <= 4 * se
