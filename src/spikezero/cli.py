"""Command-line front end.

Four subcommands driven by JSON configs: ``verify`` runs the oracle checks
and writes a JSON report, ``optimize`` compares optimizers and writes a CSV
trace, ``sweep`` measures the dimension scaling of the one-point estimator
variance, and ``spike-demo`` runs the spiking simulator with plasticity.
All outputs are deterministic functions of (config, seed). Exit codes:
0 success, 1 runtime or check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import threading
from contextlib import contextmanager
from itertools import compress
from pathlib import Path

import numpy as np

from .core import LearningRateSchedule, RngStream
from .losses import DataStream, LeastSquaresLoss, LinearModelLoss, PowerLoss
from .optimizers import (
    METHODS,
    AnticipatedLossStrategy,
    GaussianNoiseConfig,
    OptimizerStepError,
    RunConfig,
    run_methods,
    run_replicate,  # noqa: F401 -- importable from here for perfbench/layertrace.py
)
from .perturbation import NoiseConfig
from .spiking import (
    KernelParams,
    load_topology,
    plasticity_update,
    run_trial,
    stdp_update,  # noqa: F401 -- importable from here for perfbench/layertrace.py
)
from .verification import (
    DEFAULT_HALF_INTERVALS,
    Lanes,
    check_componentwise,
    check_density_mass,
    check_density_sampler,
    check_normalizer,
    check_stein,
    check_mean_step,
    check_variance_scaling,
    check_zero_mean_prev,
    divergence_demo,
    variance_scaling_sweep,
    _cpu_count,
)

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class WorkerError(RuntimeError):
    """A forked worker raised, or ended without sending its result."""


def _load_config(path: str | None, default: dict | None = None) -> tuple[dict, Path | None]:
    if path is None:
        if default is None:
            raise ConfigError("a config file is required (--config)")
        return dict(default), None
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc, p.parent


def _check_keys(doc, allowed, where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown field {key!r} in {where}")


def _number(value, field: str, kind=float):
    """``kind(value)``; a value that does not convert is a ConfigError naming
    ``field``, and so for an int is a boolean or a number with a fraction."""
    try:
        number = kind(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"field {field!r} is not a valid number: {value!r}") from exc
    if kind is int and (isinstance(value, bool) or isinstance(value, float) and number != value):
        raise ConfigError(f"field {field!r} must be an integer, not {value!r}")
    return number


def _finite(value, field: str) -> float:
    """``_number(value, field)``; an infinite or NaN value is a ConfigError naming ``field``."""
    value = _number(value, field)
    if not math.isfinite(value):
        raise ConfigError(f"field {field!r} must be finite, not {value!r}")
    return value


def _flag(doc: dict, key: str, default: bool) -> bool:
    """The JSON boolean at ``key``; any other value, the string "false" too, is a ConfigError."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"field {key!r} must be true or false, not {value!r}")
    return value


def _seed(args, doc: dict, default: int) -> int:
    seed = _number(args.seed if args.seed is not None else doc.get("seed", default), "seed", int)
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    return seed


def _vector(spec, dim: int, what: str) -> np.ndarray:
    """A config vector: either an explicit list or {"fill": value}."""
    if isinstance(spec, dict):
        _check_keys(spec, {"fill"}, what)
        if "fill" not in spec:
            raise ConfigError(f"{what} needs 'fill' or an explicit list")
        return np.full(dim, _number(spec["fill"], f"{what}.fill"))
    arr = _number(spec, what, lambda v: np.asarray(v, dtype=np.float64))
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise ConfigError(f"{what} must be a list of length {dim}")
    return arr


def _positive(doc: dict, key: str, where: str, default=None) -> float:
    value = doc.get(key, default)
    if value is None:
        raise ConfigError(f"missing field {key!r} in {where}")
    value = _number(value, key)
    if not 0 < value < math.inf:
        raise ConfigError(f"{key} must be positive and finite")
    return value


def _build_schedule(doc) -> LearningRateSchedule:
    _check_keys(doc, {"kind", "alpha0", "power"}, "schedule")
    kind = doc.get("kind", "constant")
    if "alpha0" not in doc:
        raise ConfigError("missing field 'alpha0' in schedule")
    alpha0 = _number(doc["alpha0"], "schedule.alpha0")
    try:
        if kind == "constant":
            return LearningRateSchedule.constant(alpha0)
        if kind == "power":
            return LearningRateSchedule.power_decay(
                alpha0, _number(doc.get("power", 1.0), "schedule.power"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown schedule kind {kind!r}")


def _build_strategy(doc) -> AnticipatedLossStrategy:
    if doc is None:
        return AnticipatedLossStrategy("previous")
    _check_keys(doc, {"kind", "memory", "decay"}, "strategy")
    decay = doc.get("decay")
    try:
        return AnticipatedLossStrategy(
            kind=doc.get("kind", "previous"),
            memory=_number(doc.get("memory", 32), "strategy.memory", int),
            decay=None if decay is None else _number(decay, "strategy.decay"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_loss(doc, dim: int):
    if not isinstance(doc, dict):
        raise ConfigError("loss must be an object")
    kind = doc.get("kind")
    if kind == "least-squares":
        _check_keys(doc, {"kind", "target"}, "loss")
        target = _vector(doc.get("target", {"fill": 0.0}), dim, "loss.target")
        return LeastSquaresLoss(target), None
    if kind == "power":
        _check_keys(doc, {"kind", "power", "target"}, "loss")
        target = _vector(doc.get("target", {"fill": 0.0}), dim, "loss.target")
        power = _number(doc.get("power", 4), "loss.power", int)
        try:
            return PowerLoss(power, target=target), None
        except ValueError as exc:
            raise ConfigError(f"field 'loss.power': {exc}") from exc
    if kind == "linear-gaussian":
        _check_keys(doc, {"kind", "theta_star", "noise_sd"}, "loss")
        theta_star = _vector(doc.get("theta_star", {"fill": 1.0}), dim, "loss.theta_star")
        noise_sd = _number(doc.get("noise_sd", 0.0), "loss.noise_sd")
        if noise_sd < 0:
            raise ConfigError("noise_sd must be nonnegative")
        stream = DataStream("linear-gaussian", theta_star=theta_star, noise_sd=noise_sd)
        return LinearModelLoss(), stream
    raise ConfigError(f"unknown loss kind {kind!r}")


def _format_float(x: float) -> str:
    return repr(float(x))


def _out(args, doc: dict, default: str) -> Path:
    out = args.out if args.out is not None else doc.get("out", default)
    if not isinstance(out, str) or not out:
        raise ConfigError(f"field 'out' must be a nonempty path, not {out!r}")
    return Path(out)


@contextmanager
def _output(path: Path):
    """``path`` open for writing text; an OSError while opening, writing or
    closing it is a ConfigError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_text(path: Path, text: str):
    with _output(path) as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# verify


_CHECK_NAMES = (
    "normalizer",
    "density-mass",
    "density-sampler",
    "stein",
    "stein-zero",
    "mean-step",
    "mean-step-quartic",
    "componentwise",
    "zero-mean-prev",
    "zero-mean-prev-quartic",
    "variance-scaling",
    "divergence",
)

_DEFAULT_SAMPLES = {
    "density-sampler": 100_000,
    "stein": 1_000_000,
    "stein-zero": 1_000_000,
    "mean-step": 1_000_000,
    "mean-step-quartic": 1_000_000,
    "componentwise": 1_000_000,
    "zero-mean-prev": 1_000_000,
    "zero-mean-prev-quartic": 1_000_000,
    "variance-scaling": 100_000,
}

_VERIFY_DEFAULTS = {"checks": list(_CHECK_NAMES), "seed": 1, "half_interval": 1.0,
                    "out": "verify_report.json", "samples": {}}


def _run_check(name: str, seed: int, half_interval: float, n: int | None,
               lanes: Lanes | None = None):
    rng = RngStream(seed).substream(_CHECK_NAMES.index(name))
    n = n if n is not None else _DEFAULT_SAMPLES.get(name)
    if name == "normalizer":
        return check_normalizer(DEFAULT_HALF_INTERVALS, seed=seed)
    if name == "density-mass":
        return check_density_mass(DEFAULT_HALF_INTERVALS, seed=seed)
    if name == "density-sampler":
        return check_density_sampler(rng, DEFAULT_HALF_INTERVALS, n=n)
    if name == "stein":
        return check_stein(np.zeros(5), np.ones(5), sigma2=1.0, n=n, rng=rng)
    if name == "stein-zero":
        rep = check_stein(np.ones(5), np.ones(5), sigma2=1.0, n=n, rng=rng)
        rep.name = "stein-zero"
        return rep
    if name == "mean-step":
        loss = LeastSquaresLoss([1.0])
        rep = check_mean_step(loss, [0.0], half_interval, alpha=1.0, n=n, rng=rng)
        return rep
    if name == "mean-step-quartic":
        loss = PowerLoss(4, dim=1)
        rep = check_mean_step(loss, [1.0], half_interval, alpha=1.0, n=n, rng=rng)
        rep.name = "mean-step-quartic"
        return rep
    if name == "componentwise":
        loss = LeastSquaresLoss([1.0, -0.5, 2.0])
        return check_componentwise(loss, np.zeros(3), half_interval, alpha=1.0, n=n, rng=rng)
    if name == "zero-mean-prev":
        loss = LeastSquaresLoss([1.0, 2.0])
        return check_zero_mean_prev(loss, [0.3, -0.2], half_interval, n=n, rng=rng)
    if name == "zero-mean-prev-quartic":
        loss = PowerLoss(4, dim=2)
        rep = check_zero_mean_prev(loss, [0.5, -1.0], half_interval, n=n, rng=rng)
        rep.name = "zero-mean-prev-quartic"
        return rep
    if name == "variance-scaling":
        return check_variance_scaling((10, 32, 100, 316, 1000), sigma2=1.0, n=n, rng=rng,
                                      lanes=lanes)
    if name == "divergence":
        report, _ = divergence_demo()
        return report
    raise ConfigError(f"unknown check {name!r}")


def cmd_verify(args) -> int:
    doc, _ = _load_config(args.config, default=_VERIFY_DEFAULTS)
    _check_keys(doc, set(_VERIFY_DEFAULTS), "verify config")
    seed = _seed(args, doc, 1)
    out = _out(args, doc, "verify_report.json")
    half_interval = _positive(doc, "half_interval", "verify config", default=1.0)
    checks = doc.get("checks", list(_CHECK_NAMES))
    if not isinstance(checks, list):
        raise ConfigError("field 'checks' must be a list of check names")
    for name in checks:
        if name not in _CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r} in field 'checks'")
    samples = doc.get("samples", {})
    if not isinstance(samples, dict):
        raise ConfigError("field 'samples' must map check names to sample counts")
    for name in samples:
        if name not in _CHECK_NAMES:
            raise ConfigError(f"unknown check {name!r} in field 'samples'")
    samples = {name: _number(n, f"samples.{name}", int)
               for name, n in samples.items() if n is not None}

    # Two lanes: one runs the variance-scaling checks, whose sweep rows have
    # a small working set, the other runs the rest in config order, so at
    # most one full-size check runs at a time. The idle lane takes sweep
    # rows. Each lane stops at its first failure; the first failure in
    # config order is the one a serial run would have met.
    reports = [None] * len(checks)
    failures = {}

    def run_lane(indices):
        for i in indices:
            try:
                # a check that leaves the floating-point range fails instead of
                # warning; so does one given fewer samples than it needs
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    reports[i] = _run_check(checks[i], seed, half_interval,
                                            samples.get(checks[i]), lanes)
            except Exception as exc:
                failures[i] = exc
                return

    sweeps = [i for i, name in enumerate(checks) if name == "variance-scaling"]
    others = [i for i, name in enumerate(checks) if name != "variance-scaling"]
    with Lanes() as lanes:
        lanes.map(run_lane, [sweeps, others])
    if failures:
        i = min(failures)
        exc = failures[i]
        if isinstance(exc, (ValueError, ArithmeticError)):
            raise ConfigError(f"check {checks[i]!r}: {exc}") from exc
        raise exc
    payload = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    _write_text(out, payload)
    all_pass = all(r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# optimize


_OPTIMIZE_KEYS = {"methods", "loss", "dim", "iterations", "replicates", "seed",
                  "schedule", "strategy", "half_interval", "sigma2", "beta",
                  "theta0", "clamp", "out"}


def cmd_optimize(args) -> int:
    """Run every method's replicates and write their trace CSV.

    The replicates split into two contiguous halves, each run by
    run_methods on its own lane: the lower half here, the upper half in a
    forked worker when the process may use two CPUs (see ``_map_lanes``),
    else here after the lower. Every replicate draws from its own
    substreams, and the lanes' rows and failures are put together as one
    serial run writes them, so the CSV, the message and the exit code do
    not depend on the CPU count.
    """
    doc, _ = _load_config(args.config)
    _check_keys(doc, _OPTIMIZE_KEYS, "optimize config")
    seed = _seed(args, doc, 0)
    out = _out(args, doc, "trace.csv")
    dim = _number(doc.get("dim", 0), "dim", int)
    if dim < 1:
        raise ConfigError("dim must be at least 1")
    iterations = _number(doc.get("iterations", 0), "iterations", int)
    if iterations < 0:
        raise ConfigError("iterations must be nonnegative")
    replicates = _number(doc.get("replicates", 1), "replicates", int)
    if replicates < 1:
        raise ConfigError("replicates must be at least 1")
    methods = doc.get("methods")
    if not methods:
        raise ConfigError("missing field 'methods' in optimize config")
    if not isinstance(methods, list):
        raise ConfigError("field 'methods' must be a list of method names")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r} in field 'methods'")
    loss, stream = _build_loss(doc.get("loss", {"kind": "least-squares"}), dim)
    schedule = _build_schedule(doc.get("schedule", {"kind": "constant", "alpha0": 0.1}))
    strategy = _build_strategy(doc.get("strategy"))
    theta0 = None
    if doc.get("theta0") is not None:
        theta0 = _vector(doc["theta0"], dim, "theta0")

    noise = None
    if any(m in ("stdp-zo", "stdp-mult") for m in methods):
        noise = NoiseConfig(_positive(doc, "half_interval", "optimize config", default=1.0), dim)
    gaussian = None
    if "one-point" in methods:
        sigma2 = _positive(doc, "sigma2", "optimize config", default=1.0)
        beta = doc.get("beta")
        try:
            gaussian = GaussianNoiseConfig(sigma2, None if beta is None else _number(beta, "beta"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    clamp = _flag(doc, "clamp", False)
    configs = []
    for method in methods:
        try:
            configs.append(RunConfig(method=method, dim=dim, iterations=iterations,
                                     schedule=schedule, strategy=strategy, noise=noise,
                                     gaussian=gaussian, theta0=theta0, clamp=clamp))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    half = replicates // 2
    lanes = [lane for lane in (range(half), range(half, replicates)) if lane]
    results = _map_lanes(lambda lane: _optimize_lane(loss, configs, seed, lane, stream), lanes)
    blocks, failure = _stitch(results, len(configs))
    with _output(out) as fh:
        fh.write("method,replicate,iter,loss,theta_norm\n")
        fh.writelines(blocks)
    if failure is not None:
        print(f"optimize failed at {failure}", file=sys.stderr)
        return 1
    return 0


def _optimize_lane(loss, configs: list, seed: int, replicates: range, stream) -> tuple:
    """Run ``replicates`` of every config's method.

    Returns the CSV rows of each method that ran, one string per method,
    and the failure as (method index, replicate, iteration, message), or
    None. A failure keeps the rows up to it and ends the lane as
    run_methods ends it.
    """
    failure = None
    try:
        traces = run_methods(loss, configs, RngStream(seed), replicates, stream)
    except OptimizerStepError as exc:
        traces = exc.partial
        # every method before the failing one ran all of the lane's replicates
        failure = ((len(traces) - 1) // len(replicates), traces[-1].replicate,
                   exc.iteration, str(exc))
    blocks = []
    for first in range(0, len(traces), len(replicates)):
        rows = []
        for trace in traces[first:first + len(replicates)]:
            prefix = f"{trace.method},{trace.replicate},"
            rows += [f"{prefix}{k},{_format_float(value)},{_format_float(norm)}\n"
                     for k, (value, norm) in enumerate(
                         zip(trace.loss.tolist(), trace.theta_norm.tolist()), start=1)]
        blocks.append("".join(rows))
    return blocks, failure


def _stitch(results: list, methods: int) -> tuple:
    """The rows of the lanes' ``_optimize_lane`` results, in lane order, as
    one serial run over all replicates writes them, and its failure message.

    As in run_methods, the lowest failing method decides and within it the
    lowest failing replicate: every lane gives the methods before it, and
    the failing method's rows run up to the failure.
    """
    failures = [failure for _, failure in results if failure is not None]
    failure = min(failures, default=None)
    end = methods if failure is None else failure[0]
    blocks = [rows[m] for m in range(end) for rows, _ in results]
    if failure is None:
        return blocks, None
    for rows, lane_failure in results:
        blocks.append(rows[end])
        if lane_failure == failure:
            break
    return blocks, failure[3]


def _map_lanes(func, lanes: list) -> list:
    """``[func(lane) for lane in lanes]`` for one or two lanes.

    Two lanes run at once when the process may use two CPUs, ``os.fork``
    exists and no other thread is alive: a forked worker runs the second
    and pickles its result back through a pipe. Otherwise they run here one
    after the other. The worker always ends with ``os._exit`` and is reaped
    on every path; one that raises is a WorkerError here.
    """
    if not (len(lanes) == 2 and _cpu_count() >= 2 and hasattr(os, "fork")
            and threading.active_count() == 1):
        return [func(lane) for lane in lanes]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                data = pickle.dumps((func(lanes[1]), None), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                data = pickle.dumps((None, f"{type(exc).__name__}: {exc}"))
            with open(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    reaped = False
    try:
        with open(read_fd, "rb") as fh:
            first = func(lanes[0])
            data = fh.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
    finally:
        if not reaped:
            import signal  # only on this path, so not on the import path
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not data:
        raise WorkerError(f"optimize worker ended without a result, "
                          f"exit code {os.waitstatus_to_exitcode(status)}")
    second, error = pickle.loads(data)
    if error is not None:
        raise WorkerError(f"optimize worker failed: {error}")
    return [first, second]


# ---------------------------------------------------------------------------
# sweep


_SWEEP_KEYS = {"dims", "sigma2", "samples_per_dim", "delta", "seed", "out"}


def cmd_sweep(args) -> int:
    doc, _ = _load_config(args.config)
    _check_keys(doc, _SWEEP_KEYS, "sweep config")
    seed = _seed(args, doc, 0)
    out = _out(args, doc, "sweep.csv")
    dims = doc.get("dims")
    if (not dims or not isinstance(dims, list)
            or not all(_number(d, "dims", int) >= 1 for d in dims)):
        raise ConfigError("dims must be a nonempty list of positive integers")
    if len({int(d) for d in dims}) == 1 < len(dims):
        raise ConfigError("dims must hold two different dimensions to fit a slope")
    sigma2 = _positive(doc, "sigma2", "sweep config", default=1.0)
    n = _number(doc.get("samples_per_dim", 100_000), "samples_per_dim", int)
    if n < 2:
        raise ConfigError("samples_per_dim must be at least 2")
    delta = _number(doc.get("delta", 1.0), "delta")

    try:
        rows, slope, slope_se = variance_scaling_sweep(dims, sigma2, n, RngStream(seed), delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lines = ["d,quantity,value,se"]
    for d, var, var_se in rows:
        lines.append(f"{d},variance,{_format_float(var)},{_format_float(var_se)}")
    _write_text(out, "\n".join(lines) + "\n")

    sidecar = out.with_suffix(".json")
    if slope is None:
        summary = {"slope": None, "slope_se": None, "message": "insufficient points"}
    else:
        summary = {"slope": slope, "slope_se": slope_se,
                   "dims": [int(d) for d in dims], "samples_per_dim": n, "seed": seed}
    _write_text(sidecar, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# spike demo


_SPIKE_KEYS = {"topology", "trials", "seed", "params", "weights", "input_vector",
               "input_scale", "input_offset", "readout", "reward_delta", "alpha",
               "plasticity", "transform", "out"}


def cmd_spike_demo(args) -> int:
    doc, config_dir = _load_config(args.config)
    _check_keys(doc, _SPIKE_KEYS, "spike-demo config")
    seed = _seed(args, doc, 0)
    out = _out(args, doc, "spikes.csv")
    topology_path = doc.get("topology")
    if topology_path is None:
        raise ConfigError("missing field 'topology' in spike-demo config")
    if not isinstance(topology_path, str):
        raise ConfigError(f"field 'topology' must be a path, not {topology_path!r}")
    topo_file = Path(topology_path)
    if not topo_file.is_absolute() and config_dir is not None:
        topo_file = config_dir / topo_file
    if not topo_file.is_file():
        raise ConfigError(f"topology file not found: {topo_file}")
    try:
        topology = load_topology(topo_file)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    trials = _number(doc.get("trials", 1), "trials", int)
    if trials < 0:
        raise ConfigError("trials must be nonnegative")
    pdoc = doc.get("params", {})
    _check_keys(pdoc, {"decay", "amplitude", "threshold", "half_interval"}, "params")
    try:
        params = KernelParams(
            decay=_number(pdoc.get("decay", 1.0), "params.decay"),
            amplitude=_number(pdoc.get("amplitude", 1.0), "params.amplitude"),
            threshold=_number(pdoc.get("threshold", 1.0), "params.threshold"),
            half_interval=_number(pdoc.get("half_interval", 1.0), "params.half_interval"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    edges = topology.edges
    weight_vec = _vector(doc.get("weights", {"fill": 1.0}), len(edges), "weights")
    if not np.all((weight_vec > 0) & (weight_vec < math.inf)):
        raise ConfigError("weights must be positive and finite")
    weights = weight_vec.tolist()

    input_vec = _vector(doc.get("input_vector", {"fill": 0.0}), len(topology.inputs),
                        "input_vector")
    scale = _finite(doc.get("input_scale", 1.0), "input_scale")
    offset = _finite(doc.get("input_offset", 0.0), "input_offset")
    input_times = {nid: offset + scale * float(input_vec[i])
                   for i, nid in enumerate(topology.inputs)}

    rdoc = doc.get("readout", {})
    _check_keys(rdoc, {"scale", "offset", "sentinel"}, "readout")
    readout_scale = _finite(rdoc.get("scale", 1.0), "readout.scale")
    readout_offset = _finite(rdoc.get("offset", 0.0), "readout.offset")
    sentinel = _finite(rdoc.get("sentinel", 1e6), "readout.sentinel")

    reward_delta = doc.get("reward_delta")
    if reward_delta is not None:
        reward_delta = _finite(reward_delta, "reward_delta")
    alpha = _finite(doc.get("alpha", 1.0), "alpha")
    plasticity = _flag(doc, "plasticity", True)
    scaled = log_lam = None
    if doc.get("transform") is not None:
        tdoc = doc["transform"]
        _check_keys(tdoc, {"lam"}, "transform")
        lam_vec = _vector(tdoc.get("lam", {"fill": 1.0}), len(edges), "transform.lam")
        if not np.all((lam_vec > 0) & (lam_vec < math.inf)):
            raise ConfigError("transform.lam must be positive and finite")
        if plasticity:
            # shifted offsets leave the plasticity timing window and scaled
            # weights would evolve differently, defeating the comparison
            raise ConfigError("transform requires plasticity to be disabled")
        lam = lam_vec.tolist()
        # without plasticity the scaled weights hold for the whole run
        scaled = [x * w for x, w in zip(lam, weights)]
        zero = next((k for k, w in enumerate(scaled) if not w > 0), None)
        if zero is not None:
            i, j = edges[zero]
            raise ConfigError(f"transform.lam times the weight of edge {i}->{j} underflows to 0")
        log_lam = [math.log(x) for x in lam]

    # Weights, offsets, arrivals and firing times are lists in edge and
    # neuron order. Each trial's rows are one "%.12g" template per row,
    # which gives the bytes of f"{x:.12g}", and go to the file as one
    # string when the trial ends; joined by the trial number, the row
    # pieces below become the rows.
    labels = [f"{i}->{j}" for i, j in edges]
    arrival_rows = [f",{label},arrival,%.12g\n" for label in labels]
    firing_rows = [f",{nid},firing,%.12g\n" for nid in range(topology.n_neurons)]
    readout_row = f",{topology.outputs[0]},readout,%.12g\n"
    weight_rows = tuple(f",{label},weight,%.12g\n" for label in labels)
    a = params.half_interval
    gen = RngStream(seed).substream(0).generator()
    failed = None
    with _output(out) as fh:
        fh.write("trial,edge_or_neuron,kind,value\n")
        for t in range(trials):
            offsets = gen.uniform(-a, a, size=len(edges)).tolist()
            if scaled is not None:
                offsets = [u - x for u, x in zip(offsets, log_lam)]
            record = run_trial(topology, weights if scaled is None else scaled, input_times,
                               params, offsets=offsets, readout_scale=readout_scale,
                               readout_offset=readout_offset, sentinel=sentinel)
            if plasticity:
                weights = plasticity_update(topology, weights, record, params,
                                            reward_delta=reward_delta, alpha=alpha)
            arrived = [x is not None for x in record.arrival_times]
            spiked = [x is not None for x in record.firing_times]
            pieces = ["", *compress(arrival_rows, arrived), *compress(firing_rows, spiked),
                      readout_row, *weight_rows]
            values = (*compress(record.arrival_times, arrived),
                      *compress(record.firing_times, spiked), record.readout, *weights)
            fh.write(str(t).join(pieces) % values)
            # the next trial needs positive, finite weights; the rows so far are kept
            if plasticity:
                failed = next((k for k, w in enumerate(weights) if not 0 < w < math.inf),
                              None)
                if failed is not None:
                    break

    if failed is not None:
        i, j = edges[failed]
        print(f"spike-demo failed at trial {t}: plasticity left edge {i}->{j} "
              f"with weight {weights[failed]!r}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikezero",
        description="Spike-timing zero-order optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("verify", cmd_verify, "run oracle checks and write a JSON report"),
        ("optimize", cmd_optimize, "run optimizer comparisons and write a CSV trace"),
        ("sweep", cmd_sweep, "measure variance scaling across dimensions"),
        ("spike-demo", cmd_spike_demo, "run the spiking-network demo"),
    )
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=str, default=None, help="override the output path")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OptimizerStepError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
