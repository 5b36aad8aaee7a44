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
from collections.abc import Callable
from contextlib import contextmanager
from itertools import compress
from pathlib import Path
from typing import NamedTuple

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
    Topology,
    plasticity_update,
    run_trial,
    stdp_update,  # noqa: F401 -- importable from here for perfbench/layertrace.py
)
from .verification import (
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


# ---------------------------------------------------------------------------
# config


REQUIRED = object()
VECTOR = "vector"


class ByKind(dict):
    """Nested tables, one per value of the object's "kind" field."""


def resolve(doc: dict, table: dict, path: str = "") -> dict:
    """``doc`` checked against ``table``, every absent field at its default.

    ``table`` maps each field to (kind, default, bound); TABLES holds one
    per command and one for the topology file. A kind is int or float (a
    JSON number, neither a string nor a bool), bool, str (nonempty), VECTOR
    (a list of numbers, or {"fill": x}, which resolves to the float x), a
    tuple (one of its strings), [kind] (a list of that kind), a dict (a
    nested table) or a ByKind. Floats and vector entries must be finite.
    A REQUIRED field must be given; a field whose default is None takes
    null. A bound, "> x" or ">= x", holds for a number, each vector entry
    and the length of a list. Raises ConfigError naming the dotted path of
    the first field that is unknown, missing, or not of its kind and bound.
    """
    for key in doc:
        if key not in table:
            raise ConfigError(f"unknown field {path + key!r}")
    return {key: _resolve_value(doc.get(key, default), kind, default, bound, path + key)
            for key, (kind, default, bound) in table.items()}


def _resolve_value(value, kind, default, bound, field: str):
    if value is REQUIRED:
        raise ConfigError(f"missing field {field!r}")
    if value is None and default is None:
        return None
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"field {field!r} must be an object, not {value!r}")
        if not isinstance(kind, ByKind):
            return resolve(value, kind, field + ".")
        tag = value.get("kind")
        if not (isinstance(tag, str) and tag in kind):
            raise ConfigError(f"field '{field}.kind' must be one of "
                              f"{', '.join(kind)}, not {tag!r}")
        rest = {key: v for key, v in value.items() if key != "kind"}
        return {"kind": tag, **resolve(rest, kind[tag], field + ".")}
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"field {field!r} must be one of {', '.join(kind)}, not {value!r}")
        return value
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"field {field!r} must be a list, not {value!r}")
        if bound is not None and not _within(len(value), bound):
            raise ConfigError(f"field {field!r} must have {bound} entries, not {len(value)}")
        return [_resolve_value(v, kind[0], REQUIRED, None, f"{field}[{i}]")
                for i, v in enumerate(value)]
    if kind is bool or kind is str:
        if not isinstance(value, kind) or value == "":
            what = "true or false" if kind is bool else "a nonempty string"
            raise ConfigError(f"field {field!r} must be {what}, not {value!r}")
        return value
    if kind == VECTOR:
        if isinstance(value, dict):
            return resolve(value, {"fill": (float, REQUIRED, bound)}, field + ".")["fill"]
        try:
            if not (isinstance(value, list) and all(map(_is_number, value))):
                raise TypeError
            value = np.asarray(value, dtype=np.float64)
        except (TypeError, OverflowError) as exc:
            raise ConfigError(f"field {field!r} must be a list of numbers "
                              f'or {{"fill": x}}') from exc
        shown = " in every entry"
    else:
        try:
            if not _is_number(value):
                raise TypeError
            number = kind(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"field {field!r} is not a valid number: {value!r}") from exc
        if kind is int and isinstance(value, float) and number != value:
            raise ConfigError(f"field {field!r} must be an integer, not {value!r}")
        value, shown = number, f", not {number!r}"
    if kind is not int and not np.all(np.isfinite(value)):
        raise ConfigError(f"field {field!r} must be finite{shown}")
    if bound is not None and not _within(value, bound):
        raise ConfigError(f"field {field!r} must be {bound}{shown}")
    return value


def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number: not a string, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _within(value, bound: str) -> bool:
    op, limit = bound.split()
    return bool(np.all(value > float(limit) if op == ">" else value >= float(limit)))


def _sized(vector, n: int, field: str) -> np.ndarray:
    """A resolved vector field as an array of length ``n``."""
    if isinstance(vector, float):
        return np.full(n, vector)
    if len(vector) != n:
        raise ConfigError(f"field {field!r} must be a list of length {n}")
    return vector


@contextmanager
def _built(path: str = ""):
    """A library object's ValueError as a ConfigError naming the field.

    Each such message starts with the name of the object's field, so the
    object's dotted ``path`` before it names the config field.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}{exc}") from exc


def _read_json(path: Path, what: str) -> dict:
    """The JSON object in the ``what`` file at ``path``."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:
        # a decoding error, a number too long to convert, or nesting too deep
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return doc


def _config(args, command: str, required: bool = True) -> tuple[dict, Path | None]:
    """The resolved config of ``command`` after the --seed and --out
    overrides, and the directory of the config file."""
    doc, config_dir = {}, None
    if args.config is not None:
        config_dir = Path(args.config).parent
        doc = _read_json(Path(args.config), "config")
    elif required:
        raise ConfigError("a config file is required (--config)")
    overrides = {key: value for key, value in (("seed", args.seed), ("out", args.out))
                 if value is not None}
    return resolve({**doc, **overrides}, TABLES[command]), config_dir


def _format_float(x: float) -> str:
    return repr(float(x))


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


class Check(NamedTuple):
    """A verify check. ``run(rng, n, a, lanes)`` calls its check function,
    looked up in this module at the call, on its fixture at half-interval
    ``a``. ``n`` is its default sample count and ``min_n`` the least it
    takes, None if it draws none; a ``sweep`` check runs on a lane of its own."""

    run: Callable
    n: int | None = None
    min_n: int | None = None
    sweep: bool = False


# In the order of the checks' substreams; a new check goes last. The 690 is
# ceil(5 / lightest bin mass) over the default half-intervals, pinned so that
# import skips the quadrature; a test holds it to check_density_sampler's.
CHECKS = {
    "normalizer": Check(lambda rng, n, a, lanes: check_normalizer(seed=rng.seed)),
    "density-mass": Check(lambda rng, n, a, lanes: check_density_mass(seed=rng.seed)),
    "density-sampler": Check(lambda rng, n, a, lanes: check_density_sampler(rng, n=n),
                             100_000, 690),
    "stein": Check(lambda rng, n, a, lanes: check_stein(
        np.zeros(5), np.ones(5), sigma2=1.0, n=n, rng=rng), 1_000_000, 10_000),
    "stein-zero": Check(lambda rng, n, a, lanes: check_stein(
        np.ones(5), np.ones(5), sigma2=1.0, n=n, rng=rng), 1_000_000, 10_000),
    "mean-step": Check(lambda rng, n, a, lanes: check_mean_step(
        LeastSquaresLoss([1.0]), [0.0], a, alpha=1.0, n=n, rng=rng), 1_000_000, 2),
    "mean-step-quartic": Check(lambda rng, n, a, lanes: check_mean_step(
        PowerLoss(4, dim=1), [1.0], a, alpha=1.0, n=n, rng=rng), 1_000_000, 2),
    "componentwise": Check(lambda rng, n, a, lanes: check_componentwise(
        LeastSquaresLoss([1.0, -0.5, 2.0]), np.zeros(3), a, alpha=1.0, n=n, rng=rng),
        1_000_000, 2),
    "zero-mean-prev": Check(lambda rng, n, a, lanes: check_zero_mean_prev(
        LeastSquaresLoss([1.0, 2.0]), [0.3, -0.2], a, n=n, rng=rng), 1_000_000, 10_000),
    "zero-mean-prev-quartic": Check(lambda rng, n, a, lanes: check_zero_mean_prev(
        PowerLoss(4, dim=2), [0.5, -1.0], a, n=n, rng=rng), 1_000_000, 10_000),
    "variance-scaling": Check(lambda rng, n, a, lanes: check_variance_scaling(
        (10, 32, 100, 316, 1000), sigma2=1.0, n=n, rng=rng, lanes=lanes), 100_000, 2, sweep=True),
    "divergence": Check(lambda rng, n, a, lanes: divergence_demo()[0]),
}


def _run_check(name: str, seed: int, half_interval: float, n: int | None,
               lanes: Lanes | None = None):
    """The report of check ``name``, at its default sample count if ``n`` is None."""
    check = CHECKS[name]
    rng = RngStream(seed).substream(list(CHECKS).index(name))
    report = check.run(rng, check.n if n is None else n, half_interval, lanes)
    report.name = name  # in place: a wrapper of the check function may hold the report
    return report


def cmd_verify(args) -> int:
    c, _ = _config(args, "verify", required=False)
    checks, samples = c["checks"], c["samples"]

    # Two lanes: one runs the sweep checks, whose sweep rows have a small
    # working set, the other runs the rest in config order, so at most one
    # full-size check runs at a time. The idle lane takes sweep rows. Each
    # lane stops at its first failure; the first failure in config order is
    # the one a serial run would have met.
    reports = [None] * len(checks)
    failures = {}

    def run_lane(indices):
        for i in indices:
            try:
                # a check that leaves the floating-point range fails instead of
                # warning
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    reports[i] = _run_check(checks[i], c["seed"], c["half_interval"],
                                            samples.get(checks[i]), lanes)
            except Exception as exc:
                failures[i] = exc
                return

    sweeps = [i for i, name in enumerate(checks) if CHECKS[name].sweep]
    others = [i for i, name in enumerate(checks) if not CHECKS[name].sweep]
    with Lanes() as lanes:
        lanes.map(run_lane, [sweeps, others])
    if failures:
        i = min(failures)
        exc = failures[i]
        if isinstance(exc, (ValueError, ArithmeticError)):
            raise ConfigError(f"check {checks[i]!r}: {exc}") from exc
        raise exc
    payload = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
    _write_text(Path(c["out"]), payload)
    all_pass = all(r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# optimize


def _build_loss(spec: dict, dim: int) -> tuple:
    """The loss of a resolved ``loss`` field, and its data stream or None."""
    if spec["kind"] == "linear-gaussian":
        theta_star = _sized(spec["theta_star"], dim, "loss.theta_star")
        with _built("loss."):
            return LinearModelLoss(), DataStream("linear-gaussian", theta_star=theta_star,
                                                 noise_sd=spec["noise_sd"])
    target = _sized(spec["target"], dim, "loss.target")
    if spec["kind"] == "least-squares":
        return LeastSquaresLoss(target), None
    with _built("loss."):
        return PowerLoss(spec["power"], target=target), None


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
    c, _ = _config(args, "optimize")
    dim, methods, replicates, seed = c["dim"], c["methods"], c["replicates"], c["seed"]
    loss, stream = _build_loss(c["loss"], dim)
    with _built("schedule."):
        schedule = LearningRateSchedule(**c["schedule"])
    with _built("strategy."):
        strategy = AnticipatedLossStrategy(**(c["strategy"] or {}))
    theta0 = None if c["theta0"] is None else _sized(c["theta0"], dim, "theta0")
    noise = gaussian = None
    if any(m in ("stdp-zo", "stdp-mult") for m in methods):
        noise = NoiseConfig(c["half_interval"], dim)
    with _built():
        if "one-point" in methods:
            gaussian = GaussianNoiseConfig(c["sigma2"], c["beta"])
        configs = [RunConfig(method=method, dim=dim, iterations=c["iterations"],
                             schedule=schedule, strategy=strategy, noise=noise,
                             gaussian=gaussian, theta0=theta0, clamp=c["clamp"])
                   for method in methods]

    half = replicates // 2
    lanes = [lane for lane in (range(half), range(half, replicates)) if lane]
    results = _map_lanes(lambda lane: _optimize_lane(loss, configs, seed, lane, stream), lanes)
    blocks, failure = _stitch(results, len(configs))
    with _output(Path(c["out"])) as fh:
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


def cmd_sweep(args) -> int:
    c, _ = _config(args, "sweep")
    out, dims, n, seed = Path(c["out"]), c["dims"], c["samples_per_dim"], c["seed"]
    if len(set(dims)) == 1 < len(dims):
        raise ConfigError("field 'dims' must hold two different dimensions to fit a slope")
    if out.suffix == ".json":
        raise ConfigError(f"field 'out' must not end in .json, or the slope sidecar "
                          f"overwrites the CSV: {out}")

    try:
        rows, slope, slope_se = variance_scaling_sweep(dims, c["sigma2"], n, RngStream(seed),
                                                        c["delta"])
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
                   "dims": dims, "samples_per_dim": n, "seed": seed}
    _write_text(sidecar, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# spike demo


def cmd_spike_demo(args) -> int:
    c, config_dir = _config(args, "spike-demo")
    trials, seed, plasticity = c["trials"], c["seed"], c["plasticity"]
    reward_delta, alpha, readout = c["reward_delta"], c["alpha"], c["readout"]
    topo_file = Path(c["topology"])
    if not topo_file.is_absolute() and config_dir is not None:
        topo_file = config_dir / topo_file
    doc = _read_json(topo_file, "topology")
    # the topology's own rules (ranges, self-loops, duplicates, cycles) stay with Topology
    with _built(f"topology file {topo_file}: "):
        t = resolve(doc, TABLES["topology"])
        topology = Topology(t["neurons"], t["edges"], t["inputs"], t["outputs"])

    with _built("params."):
        params = KernelParams(**c["params"])

    edges = topology.edges
    weights = _sized(c["weights"], len(edges), "weights").tolist()
    input_vec = _sized(c["input_vector"], len(topology.inputs), "input_vector")
    scale, offset = c["input_scale"], c["input_offset"]
    input_times = {nid: offset + scale * float(input_vec[i])
                   for i, nid in enumerate(topology.inputs)}

    scaled = log_lam = None
    if c["transform"] is not None:
        lam = _sized(c["transform"]["lam"], len(edges), "transform.lam").tolist()
        if plasticity:
            # shifted offsets leave the plasticity timing window and scaled
            # weights would evolve differently, defeating the comparison
            raise ConfigError("transform requires plasticity to be disabled")
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
    with _output(Path(c["out"])) as fh:
        fh.write("trial,edge_or_neuron,kind,value\n")
        for t in range(trials):
            offsets = gen.uniform(-a, a, size=len(edges)).tolist()
            if scaled is not None:
                offsets = [u - x for u, x in zip(offsets, log_lam)]
            record = run_trial(topology, weights if scaled is None else scaled, input_times,
                               params, offsets=offsets, readout_scale=readout["scale"],
                               readout_offset=readout["offset"], sentinel=readout["sentinel"])
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
# config tables (see resolve)
#
# Bounds that the objects built from the fields check are left to them (see
# _built): LearningRateSchedule, AnticipatedLossStrategy, GaussianNoiseConfig,
# RunConfig (iterations), PowerLoss, DataStream, KernelParams, and
# variance_scaling_sweep for the entries of dims. Rules that span fields
# stay in the commands.


TABLES = {
    "verify": {
        "checks": ([tuple(CHECKS)], list(CHECKS), None),
        # null, or absent, is the check's own sample count
        "samples": ({name: (int, None, f">= {check.min_n}") for name, check in CHECKS.items()
                     if check.n is not None}, {}, None),
        "half_interval": (float, 1.0, "> 0"),
        "seed": (int, 1, ">= 0"),
        "out": (str, "verify_report.json", None),
    },
    "optimize": {
        "methods": ([METHODS], REQUIRED, ">= 1"),
        "loss": (ByKind({
            "least-squares": {"target": (VECTOR, {"fill": 0.0}, None)},
            "power": {"power": (int, 4, None), "target": (VECTOR, {"fill": 0.0}, None)},
            "linear-gaussian": {"theta_star": (VECTOR, {"fill": 1.0}, None),
                                "noise_sd": (float, 0.0, None)},
        }), {"kind": "least-squares"}, None),
        "dim": (int, REQUIRED, ">= 1"),  # sizes the vectors before RunConfig checks it
        "iterations": (int, 0, None),
        "replicates": (int, 1, ">= 1"),
        "seed": (int, 0, ">= 0"),
        "schedule": ({"kind": (("constant", "power"), "constant", None),
                      "alpha0": (float, REQUIRED, None),
                      "power": (float, 1.0, None)}, {"kind": "constant", "alpha0": 0.1}, None),
        "strategy": ({"kind": (("previous", "zero", "exponential", "polynomial"), "previous", None),
                      "memory": (int, 32, None),
                      "decay": (float, None, None)}, None, None),
        "half_interval": (float, 1.0, "> 0"),
        "sigma2": (float, 1.0, None),
        "beta": (float, None, None),
        "theta0": (VECTOR, None, None),
        "clamp": (bool, False, None),
        "out": (str, "trace.csv", None),
    },
    "sweep": {
        "dims": ([int], REQUIRED, ">= 1"),
        "sigma2": (float, 1.0, "> 0"),
        "samples_per_dim": (int, 100_000, ">= 2"),
        "delta": (float, 1.0, None),
        "seed": (int, 0, ">= 0"),
        "out": (str, "sweep.csv", None),
    },
    "spike-demo": {
        "topology": (str, REQUIRED, None),
        "trials": (int, 1, ">= 0"),
        "seed": (int, 0, ">= 0"),
        "params": ({name: (float, 1.0, None) for name in
                    ("decay", "amplitude", "threshold", "half_interval")}, {}, None),
        "weights": (VECTOR, {"fill": 1.0}, "> 0"),
        "input_vector": (VECTOR, {"fill": 0.0}, None),
        "input_scale": (float, 1.0, None),
        "input_offset": (float, 0.0, None),
        "readout": ({"scale": (float, 1.0, None), "offset": (float, 0.0, None),
                     "sentinel": (float, 1e6, None)}, {}, None),
        "reward_delta": (float, None, None),
        "alpha": (float, 1.0, None),
        "plasticity": (bool, True, None),
        "transform": ({"lam": (VECTOR, {"fill": 1.0}, "> 0")}, None, None),
        "out": (str, "spikes.csv", None),
    },
    # the file a spike-demo config's topology field names
    "topology": {
        "neurons": (int, REQUIRED, ">= 1"),
        "edges": ([[int]], REQUIRED, None),
        "inputs": ([int], REQUIRED, ">= 1"),
        "outputs": ([int], REQUIRED, ">= 1"),
    },
}


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
