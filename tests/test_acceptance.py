"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not calibrated at runtime. Every stochastic
check uses a fixed seed, so the whole suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from spikezero.cli import main
from spikezero.core import LearningRateSchedule, RngStream
from spikezero.losses import LeastSquaresLoss, LogReparamLoss, PowerLoss
from spikezero.optimizers import (
    AnticipatedLossStrategy,
    RunConfig,
    init_state,
    run_optimizer,
    stdp_multiplicative_step,
    stdp_zo_step,
)
from spikezero.perturbation import NoiseConfig, PerturbationDensity, normalizer_c
from spikezero.spiking import KernelParams, interarrival_time, stdp_update
from spikezero.verification import (
    check_componentwise,
    check_stein,
    check_mean_step,
    check_zero_mean_prev,
    divergence_demo,
    variance_scaling_sweep,
)

A_GRID = (0.1, 0.5, 1.0, 2.0)
FOUR_OVER_E = 4.0 / math.e


class Budget:
    """Times a criterion and prints its verdict."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} exceeded its {self.seconds}s budget: {elapsed:.2f}s")
        return False


def test_01_normalizer_exactness():
    with Budget("1 normalizer-exactness", 1.0):
        assert abs(normalizer_c(1.0) - 4.0) <= 1e-12
        for a in A_GRID:
            quad, _ = integrate.quad(
                lambda x, a=a: (math.exp(a) - math.exp(x)) * (math.exp(a) - math.exp(-x)),
                -a, a, epsabs=1e-13, epsrel=1e-13)
            assert abs(normalizer_c(a) - quad) <= 1e-9 * normalizer_c(a)


def test_02_density_validity():
    with Budget("2 density-validity", 10.0):
        for a in A_GRID:
            pd = PerturbationDensity(a)
            mass, _ = integrate.quad(pd.density, -a, a, epsabs=1e-12, epsrel=1e-12)
            assert abs(mass - 1.0) <= 1e-9
        # chi-square goodness of fit for the sampler
        a, n, bins = 1.0, 100_000, 20
        pd = PerturbationDensity(a)
        draws = pd.sample(RngStream(201).generator(), size=n)
        edges = np.linspace(-a, a, bins + 1)
        observed, _ = np.histogram(draws, bins=edges)
        expected = np.array([
            n * integrate.quad(pd.density, lo, hi, epsabs=1e-12)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        ])
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        assert statistic <= stats.chi2.ppf(1 - 1e-3, bins - 1)


def test_03_stein_identity():
    with Budget("3 stein-identity", 30.0):
        report = check_stein(np.zeros(5), np.ones(5), sigma2=1.0, n=1_000_000,
                             rng=RngStream(202))
        assert report.passed
        rel = np.abs(np.asarray(report.estimate) - np.asarray(report.oracle)) / 2.0
        assert np.all(rel <= 0.05)
        zero = check_stein(np.ones(5), np.ones(5), sigma2=1.0, n=1_000_000,
                           rng=RngStream(203))
        assert zero.passed
        assert np.all(np.abs(np.asarray(zero.estimate)) <= 3 * np.asarray(zero.se))


def test_04_mean_step_three_routes():
    with Budget("4 mean-step-three-routes", 60.0):
        report = check_mean_step(LeastSquaresLoss([1.0]), [0.0], 1.0, 1.0,
                                1_000_000, RngStream(204), quadrature=True)
        assert report.passed
        routes = [report.extra["raw_mean"][0], report.extra["grad_mean"][0],
                  report.extra["quadrature"][0]]
        assert routes[2] == pytest.approx(FOUR_OVER_E, rel=1e-9)
        for x in routes:
            for y in routes:
                assert abs(x - y) <= 0.02 * FOUR_OVER_E
        quartic = check_mean_step(PowerLoss(4, dim=1), [1.0], 1.0, 1.0,
                                 1_000_000, RngStream(205), quadrature=True)
        assert quartic.passed
        gap = abs(quartic.extra["raw_mean"][0] - quartic.extra["quadrature"][0])
        assert gap <= 3 * quartic.extra["raw_se"][0]


def test_05_componentwise_form():
    with Budget("5 componentwise-form", 60.0):
        report = check_componentwise(LeastSquaresLoss([1.0, -0.5, 2.0]), np.zeros(3),
                                     1.0, 1.0, 1_000_000, RngStream(206))
        assert report.passed
        gaps = np.abs(np.asarray(report.estimate) - np.asarray(report.oracle))
        assert np.all(gaps <= 3 * np.asarray(report.se))


def test_06_anticipated_loss_zero_mean():
    with Budget("6 baseline-zero-mean", 30.0):
        for loss, theta_prev, seed in (
            (LeastSquaresLoss([1.0, 2.0]), [0.3, -0.2], 207),
            (PowerLoss(4, dim=2), [0.5, -1.0], 208),
        ):
            report = check_zero_mean_prev(loss, theta_prev, 1.0, 1_000_000,
                                          RngStream(seed))
            assert report.passed


def test_07_variance_scaling():
    with Budget("7 variance-scaling", 300.0):
        rows, slope, _ = variance_scaling_sweep((10, 32, 100, 316, 1000), 1.0,
                                                100_000, RngStream(209))
        assert len(rows) == 5
        assert 1.7 <= slope <= 2.3


def test_08_spike_time_reduction(tmp_path, configs_dir):
    with Budget("8 spike-time-reduction", 60.0):
        rng = np.random.default_rng(210)
        for _ in range(10_000):
            m = int(rng.integers(1, 8))
            w = np.exp(rng.standard_normal(m))
            u = rng.uniform(-2.0, 2.0, m)
            threshold = float(np.sum(w * np.exp(u))) * float(rng.uniform(0.05, 1.0))
            lam = np.exp(rng.uniform(-1.5, 1.5, m))
            base = interarrival_time(w, u, threshold)
            moved = interarrival_time(lam * w, u - np.log(lam), threshold)
            assert abs(base - moved) <= 1e-12
        # shipped demo: readout column is identical under the transform
        flat, moved_csv = tmp_path / "flat.csv", tmp_path / "moved.csv"
        assert main(["spike-demo", "--config",
                     str(configs_dir / "spike_demo_flat.json"),
                     "--out", str(flat)]) == 0
        assert main(["spike-demo", "--config",
                     str(configs_dir / "spike_demo_flat_transformed.json"),
                     "--out", str(moved_csv)]) == 0

        def readouts(path):
            return [line.split(",")[3] for line in path.read_text().splitlines()
                    if ",readout," in line]

        assert readouts(flat) == readouts(moved_csv)


def test_09_stdp_positivity():
    with Budget("9 stdp-positivity", 30.0):
        rng = np.random.default_rng(211)
        for _ in range(10_000):
            w = float(np.exp(2.0 * rng.standard_normal()))
            params = KernelParams(decay=float(rng.uniform(0.1, 3.0)),
                                  amplitude=float(rng.uniform(0.01, 1.0)),
                                  threshold=1.0, half_interval=1.0)
            t_minus = float(rng.normal())
            width = float(rng.uniform(0.05, 5.0))
            tau = t_minus + width * float(rng.uniform(0.0, 1.0))
            updated = stdp_update(w, tau, t_minus, t_minus + width, params)
            assert updated > 0
        params = KernelParams(decay=1.7, amplitude=1.0, threshold=1.0, half_interval=1.0)
        assert stdp_update(2.0, 1.5, 1.0, 2.0, params) == 2.0


def test_10_optimizer_behavior(configs_dir):
    with Budget("10 optimizer-behavior", 300.0):
        # (i) gradient descent contraction
        config = RunConfig(method="gd", dim=3, iterations=50,
                           schedule=LearningRateSchedule.constant(0.25),
                           theta0=np.zeros(3))
        trace = run_optimizer(LeastSquaresLoss([1.0, -2.0, 0.5]), config,
                              RngStream(212))[0]
        assert trace.rows[-1].loss < 1e-10

        # (ii) mean one-step displacement through the actual step function,
        # one step of n replicates that all start at zero
        n, alpha = 1_000_000, 1.0
        loss = LeastSquaresLoss([1.0])
        u = RngStream(213).generator().uniform(-1.0, 1.0, size=(n, 1))
        state = init_state(np.zeros((n, 1)))
        stdp_zo_step(state, loss, LearningRateSchedule.constant(alpha),
                     AnticipatedLossStrategy("zero"), noise=u)
        displacement = math.fsum(state.theta[:, 0]) / n
        assert abs(displacement - alpha * FOUR_OVER_E) <= 0.02 * alpha * FOUR_OVER_E

        # (iii) averaged run on the pinned config
        doc = json.loads((configs_dir / "stdp_average.json").read_text())
        avg_config = RunConfig(
            method="stdp-zo", dim=doc["dim"], iterations=doc["iterations"],
            schedule=LearningRateSchedule.constant(doc["schedule"]["alpha0"]),
            strategy=AnticipatedLossStrategy(doc["strategy"]["kind"]),
            noise=NoiseConfig(doc["half_interval"], doc["dim"]))
        avg_loss = LeastSquaresLoss(np.full(doc["dim"], doc["loss"]["target"]["fill"]))
        traces = run_optimizer(avg_loss, avg_config, RngStream(doc["seed"]),
                               replicates=doc["replicates"])
        mean_initial = float(np.mean([t.initial_loss for t in traces]))
        mean_final = float(np.mean([t.rows[-1].loss for t in traces]))
        assert mean_final < 0.2 * mean_initial

        # (iv) pinned divergence fixture
        report, traces = divergence_demo()
        assert report.passed
        zo, gd = traces["one-point"], traces["gd"]
        assert zo.rows[-1].loss > 10.0 * zo.initial_loss
        assert gd.rows[-1].loss < 0.1 * gd.initial_loss


def test_11_multiplicative_additive_consistency():
    with Budget("11 multiplicative-consistency", 30.0):
        rng = np.random.default_rng(214)
        a = 1.0
        spread = math.exp(a) - math.exp(-a)
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            theta = rng.uniform(-0.5, 0.5, d)
            w = np.exp(theta)
            u = rng.uniform(-a, a, d)
            inner = LeastSquaresLoss(np.exp(rng.uniform(-0.5, 0.5, d)))
            delta = inner.evaluate(w * np.exp(u))
            alpha = float(rng.uniform(0.05, 1.0)) * 0.1 / (abs(delta) * spread)

            mult = init_state([w])
            stdp_multiplicative_step(mult, inner, LearningRateSchedule.constant(alpha),
                                     AnticipatedLossStrategy("zero"), noise=u[None, :])
            add = init_state([theta])
            stdp_zo_step(add, LogReparamLoss(inner), LearningRateSchedule.constant(alpha),
                         AnticipatedLossStrategy("zero"), noise=u[None, :])

            x = alpha * delta * (np.exp(-u) - np.exp(u))
            assert np.all(np.abs(np.log(mult.theta[0]) - add.theta[0]) <= x ** 2 + 1e-15)
        # positivity holds whenever the step-magnitude precondition holds
        assert np.all(mult.theta > 0)


def test_12_command_determinism(tmp_path, configs_dir):
    with Budget("12 command-determinism", 120.0):
        verify_cfg = tmp_path / "verify.json"
        verify_cfg.write_text(json.dumps({
            "checks": ["normalizer", "stein", "zero-mean-prev", "divergence"],
            "seed": 9, "half_interval": 1.0,
            "samples": {"stein": 200000, "zero-mean-prev": 100000},
            "out": "unused.json"}))
        optimize_cfg = tmp_path / "optimize.json"
        optimize_cfg.write_text(json.dumps({
            "methods": ["gd", "one-point", "stdp-zo"],
            "loss": {"kind": "least-squares", "target": {"fill": 2.0}},
            "dim": 5, "iterations": 50, "replicates": 2, "seed": 11,
            "schedule": {"kind": "constant", "alpha0": 0.01},
            "half_interval": 1.0, "sigma2": 1.0, "out": "unused.csv"}))
        sweep_cfg = tmp_path / "sweep.json"
        sweep_cfg.write_text(json.dumps({
            "dims": [10, 32], "sigma2": 1.0, "samples_per_dim": 20000,
            "seed": 13, "out": "unused.csv"}))

        runs = (
            ("verify", str(verify_cfg)),
            ("optimize", str(optimize_cfg)),
            ("sweep", str(sweep_cfg)),
            ("spike-demo", str(configs_dir / "spike_demo.json")),
        )
        for command, cfg in runs:
            first = tmp_path / f"{command}-a.out"
            second = tmp_path / f"{command}-b.out"
            assert main([command, "--config", cfg, "--out", str(first)]) == 0
            assert main([command, "--config", cfg, "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), command
            if command == "sweep":
                assert first.with_suffix(".json").read_bytes() == \
                    second.with_suffix(".json").read_bytes()
