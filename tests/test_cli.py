import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import one_pass_reference as one_pass
from spiking_reference import reference_spike_demo
from spikezero import cli, verification
from spikezero.cli import _run_check, main
from spikezero.core import LearningRateSchedule, RngStream
from spikezero.losses import DataStream, LeastSquaresLoss, LinearModelLoss, PowerLoss
from spikezero.optimizers import (
    AnticipatedLossStrategy,
    GaussianNoiseConfig,
    OptimizerStepError,
    RunConfig,
    run_methods,
)
from spikezero.perturbation import NoiseConfig
from spikezero.spiking import KernelParams, Topology

REPO_ROOT = Path(__file__).resolve().parent.parent

# shrunk sample counts that still leave comfortable statistical margin for
# each check's pass criterion
QUICK_SAMPLES = {"density-sampler": 10_000, "stein": 200_000, "stein-zero": 100_000,
                 "mean-step": 100_000, "mean-step-quartic": 100_000,
                 "componentwise": 50_000, "zero-mean-prev": 50_000,
                 "zero-mean-prev-quartic": 50_000, "variance-scaling": 20_000}


def write_config(tmp_path: Path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def quick_verify_config(tmp_path, checks, out="report.json", **extra):
    doc = {"checks": checks, "seed": 1, "half_interval": 1.0,
           "samples": {k: v for k, v in QUICK_SAMPLES.items() if k in checks},
           "out": out}
    doc.update(extra)
    return write_config(tmp_path, "verify.json", doc)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# verify


def test_verify_default_config_passes(tmp_path):
    # no --config: the built-in acceptance-grade defaults run end to end
    out = tmp_path / "default_report.json"
    assert main(["verify", "--out", str(out)]) == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 12
    assert all(r["pass"] for r in reports)
    names = [r["name"] for r in reports]
    assert len(set(names)) == len(names)


def test_verify_passes_and_writes_report(tmp_path, capsys):
    cfg = quick_verify_config(tmp_path, ["normalizer", "stein", "zero-mean-prev"],
                              out=str(tmp_path / "report.json"))
    assert main(["verify", "--config", cfg]) == 0
    reports = json.loads((tmp_path / "report.json").read_text())
    assert [r["name"] for r in reports] == ["normalizer", "stein", "zero-mean-prev"]
    for r in reports:
        assert set(r) == {"name", "n", "seed", "estimate", "oracle", "se",
                          "rel_err", "pass"}
        assert r["pass"] is True
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_verify_rejects_nonpositive_half_interval(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json",
                       {"checks": ["normalizer"], "half_interval": -1.0})
    assert main(["verify", "--config", cfg]) == 2
    assert "half_interval must be positive" in capsys.readouterr().err


def test_verify_rejects_unknown_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"checks": ["normalizer"], "mode": "fast"})
    assert main(["verify", "--config", cfg]) == 2
    assert "mode" in capsys.readouterr().err


def test_verify_rejects_unknown_check(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"checks": ["entropy"]})
    assert main(["verify", "--config", cfg]) == 2
    assert "entropy" in capsys.readouterr().err


def test_verify_seed_rerun_is_byte_identical(tmp_path):
    cfg = quick_verify_config(tmp_path, ["stein", "zero-mean-prev"])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--config", cfg, "--seed", "42", "--out", str(a)]) == 0
    assert main(["verify", "--config", cfg, "--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def serial_report(checks, seed, half_interval, samples) -> str:
    """The verify report of ``_run_check`` calls made one after another on one thread."""
    reports = []
    with pytest.MonkeyPatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        for name in checks:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                reports.append(_run_check(name, seed, half_interval, samples.get(name)))
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"


SMALL_VERIFY_WITH_SWEEP = {
    "checks": ["variance-scaling", "componentwise", "stein", "divergence", "mean-step-quartic",
               "zero-mean-prev"],
    "seed": 4, "half_interval": 0.8,
    "samples": {"variance-scaling": 3000, "componentwise": 20_000, "stein": 30_000,
                "mean-step-quartic": 20_000, "zero-mean-prev": 70_000}}


@pytest.mark.parametrize("config", ["verify_quick", "small-with-sweep"])
def test_verify_report_equals_serial_checks(tmp_path, configs_dir, cpus, config):
    if config == "verify_quick":
        doc = json.loads((configs_dir / "verify_quick.json").read_text())
    else:
        doc = SMALL_VERIFY_WITH_SWEEP
    out = tmp_path / "report.json"
    cfg = write_config(tmp_path, "verify.json", {**doc, "out": str(out)})
    assert main(["verify", "--config", cfg]) in (0, 1)
    assert out.read_text() == serial_report(doc["checks"], doc["seed"], doc["half_interval"],
                                            doc.get("samples", {}))


@pytest.mark.parametrize("checks,named", [(["variance-scaling", "stein"], "variance-scaling"),
                                          (["stein", "variance-scaling"], "stein")])
def test_first_failing_check_in_config_order_is_named(tmp_path, capsys, monkeypatch, cpus,
                                                      checks, named):
    def late_failure(*args, **kwargs):
        time.sleep(0.2)  # fails after stein has failed on the other lane
        raise ValueError("late failure")

    monkeypatch.setattr(cli, "check_variance_scaling", late_failure)
    cfg = write_config(tmp_path, "verify.json", {"checks": checks, "samples": {"stein": 5},
                                                 "out": str(tmp_path / "report.json")})
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: check {named!r}: ") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


def run_warnings_as_errors(tmp_path, command, doc):
    cfg = write_config(tmp_path, "config.json", {**doc, "out": str(tmp_path / "out")})
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error", "-m", "spikezero.cli", command,
                           "--config", cfg], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("command,doc,message", [
    # every row overflows, the largest first; the first in dims order is named
    ("sweep", {"dims": [2, 300, 4], "samples_per_dim": 20, "sigma2": 1e-300},
     "error: the variance at d=2 leaves the floating-point range"),
    ("verify", {"checks": ["normalizer", "variance-scaling"], "samples": {"variance-scaling": 1}},
     "error: check 'variance-scaling': the variance sweep needs n >= 2, not 1"),
    # a mean and standard error from fewer than two samples
    ("verify", {"checks": ["mean-step"], "samples": {"mean-step": 1}},
     "error: check 'mean-step': check_mean_step needs n >= 2, not 1"),
    ("verify", {"checks": ["mean-step"], "samples": {"mean-step": 0}},
     "error: check 'mean-step': check_mean_step needs n >= 2, not 0"),
    ("verify", {"checks": ["mean-step-quartic"], "samples": {"mean-step-quartic": 1}},
     "error: check 'mean-step-quartic': check_mean_step needs n >= 2, not 1"),
    ("verify", {"checks": ["componentwise"], "samples": {"componentwise": 0}},
     "error: check 'componentwise': check_componentwise needs n >= 2, not 0"),
    ("verify", {"checks": ["componentwise"], "samples": {"componentwise": 1}},
     "error: check 'componentwise': check_componentwise needs n >= 2, not 1"),
    # fewer draws than leave 5 expected in the default check's lightest bin
    ("verify", {"checks": ["density-sampler"], "samples": {"density-sampler": 0}},
     "error: check 'density-sampler': check_density_sampler needs n >= 690 "
     "so every bin expects at least 5 draws, not 0"),
    ("verify", {"checks": ["density-sampler"], "samples": {"density-sampler": 1}},
     "error: check 'density-sampler': check_density_sampler needs n >= 690 "
     "so every bin expects at least 5 draws, not 1"),
    ("verify", {"checks": ["density-sampler"], "samples": {"density-sampler": 689}},
     "error: check 'density-sampler': check_density_sampler needs n >= 690 "
     "so every bin expects at least 5 draws, not 689"),
])
def test_sweep_row_failure_exits_two_without_warnings(tmp_path, command, doc, message):
    result = run_warnings_as_errors(tmp_path, command, doc)
    assert result.returncode == 2
    assert result.stderr.startswith(message) and result.stderr.count("\n") == 1


def test_density_sampler_at_its_minimum_n_is_no_config_error(tmp_path):
    result = run_warnings_as_errors(tmp_path, "verify", {"checks": ["density-sampler"],
                                                         "samples": {"density-sampler": 690}})
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "PASS density-sampler\n"


# ---------------------------------------------------------------------------
# optimize


def optimize_config(tmp_path, **overrides):
    doc = {"methods": ["gd", "one-point", "stdp-zo"],
           "loss": {"kind": "least-squares", "target": {"fill": 2.0}},
           "dim": 10, "iterations": 40, "replicates": 2, "seed": 7,
           "schedule": {"kind": "constant", "alpha0": 0.01},
           "strategy": {"kind": "previous"},
           "half_interval": 1.0, "sigma2": 1.0,
           "out": str(tmp_path / "trace.csv")}
    doc.update(overrides)
    return write_config(tmp_path, "optimize.json", doc)


def test_optimize_header_only_when_no_iterations(tmp_path):
    cfg = optimize_config(tmp_path, iterations=0)
    assert main(["optimize", "--config", cfg]) == 0
    text = (tmp_path / "trace.csv").read_text()
    assert text == "method,replicate,iter,loss,theta_norm\n"


def test_optimize_method_blocks_and_ordering(tmp_path):
    cfg = optimize_config(tmp_path)
    assert main(["optimize", "--config", cfg]) == 0
    rows = read_rows(tmp_path / "trace.csv")
    assert len(rows) == 3 * 2 * 40
    # method blocks in config order, iterations ascending per (method, replicate)
    methods = [r["method"] for r in rows]
    assert methods == sorted(methods, key=["gd", "one-point", "stdp-zo"].index)
    by_key = {}
    for r in rows:
        by_key.setdefault((r["method"], r["replicate"]), []).append(int(r["iter"]))
    for iters in by_key.values():
        assert iters == list(range(1, 41))


def test_optimize_rerun_is_byte_identical(tmp_path):
    cfg = optimize_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["optimize", "--config", cfg, "--out", str(a)]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_optimize_step_error_exits_one_and_names_iteration(tmp_path, capsys):
    cfg = optimize_config(tmp_path, methods=["stdp-mult"],
                          loss={"kind": "least-squares", "target": {"fill": 50.0}},
                          dim=2, schedule={"kind": "constant", "alpha0": 10.0})
    assert main(["optimize", "--config", cfg]) == 1
    assert "iteration" in capsys.readouterr().err
    # the partial trace file still exists with the expected header
    assert (tmp_path / "trace.csv").read_text().startswith(
        "method,replicate,iter,loss,theta_norm")


def failing_config(tmp_path, alpha0):
    # stdp-mult hits PositivityError; gd after it never runs
    return optimize_config(tmp_path, methods=["stdp-mult", "gd"], dim=3, replicates=4,
                           seed=11, schedule={"kind": "constant", "alpha0": alpha0})


def test_optimize_step_error_output_is_pinned(tmp_path, capsys, cpus):
    # replicate 0 fails at its second step
    assert main(["optimize", "--config", failing_config(tmp_path, 5.0)]) == 1
    assert capsys.readouterr().err == (
        "optimize failed at iteration 2: update multiplier -192.6 at index 0 "
        "would violate weight positivity\n")
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"method,replicate,iter,loss,theta_norm\n"
        b"stdp-mult,0,1,125.62967246987924,3.1903894557160295\n")


def test_optimize_lowest_failing_replicate_is_pinned(tmp_path, capsys, cpus):
    # replicate 3 fails at iteration 5 and replicate 2 at 34; as if run one
    # after another, replicates 0 and 1 finish, 2 stops and 3 is dropped
    assert main(["optimize", "--config", failing_config(tmp_path, 0.05)]) == 1
    assert capsys.readouterr().err == (
        "optimize failed at iteration 34: update multiplier -0.0503483 at index 2 "
        "would violate weight positivity\n")
    text = (tmp_path / "trace.csv").read_bytes()
    assert len(text.splitlines()) == 1 + 40 + 40 + 33
    assert hashlib.sha256(text).hexdigest() == (
        "b94b9a53ef558d6e5e24de57adfc50acbfae7c2a4d4e1afaa61b404a42a42856")


def test_optimize_huge_start_records_inf_without_warnings(tmp_path):
    cfg = optimize_config(tmp_path, methods=["gd", "one-point", "stdp-zo"], dim=3,
                          iterations=5, theta0={"fill": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["optimize", "--config", cfg]) == 0
    rows = read_rows(tmp_path / "trace.csv")
    assert len(rows) == 3 * 2 * 5
    assert all(r["loss"] == "inf" for r in rows)


def test_optimize_clamped_underflow_records_inf_without_warnings(tmp_path, cpus):
    # clamped multipliers drive the weights to 0.0, whose log norm is inf
    cfg = write_config(tmp_path, "clamp.json", {
        "methods": ["stdp-mult"], "dim": 2, "iterations": 200, "replicates": 2, "seed": 1,
        "schedule": {"kind": "constant", "alpha0": 50}, "strategy": {"kind": "zero"},
        "loss": {"kind": "least-squares", "target": {"fill": 3}},
        "theta0": {"fill": 0}, "clamp": True, "out": str(tmp_path / "trace.csv")})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["optimize", "--config", cfg]) == 0
    text = (tmp_path / "trace.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest() == (
        "4707ab70ace31061fa5440efdc324786caafd7720dbde88247c5c184605ecb12")
    rows = read_rows(tmp_path / "trace.csv")
    assert [r["theta_norm"] for r in rows if r["iter"] == "200"] == ["inf", "inf"]


def test_optimize_multiplicative_start_out_of_range_is_config_error(tmp_path, capsys):
    cfg = optimize_config(tmp_path, methods=["stdp-mult"], theta0={"fill": 1e308})
    assert main(["optimize", "--config", cfg]) == 2
    assert "exp(theta0)" in capsys.readouterr().err


def test_optimize_rejects_unknown_method(tmp_path, capsys):
    cfg = optimize_config(tmp_path, methods=["newton"])
    assert main(["optimize", "--config", cfg]) == 2
    assert "newton" in capsys.readouterr().err


def test_optimize_rejects_unknown_field(tmp_path, capsys):
    cfg = optimize_config(tmp_path, momentum=0.9)
    assert main(["optimize", "--config", cfg]) == 2
    assert "momentum" in capsys.readouterr().err


def test_optimize_rejects_top_level_memory(tmp_path, capsys):
    # the history window is the strategy's memory
    cfg = optimize_config(tmp_path, memory=8)
    assert main(["optimize", "--config", cfg]) == 2
    assert "unknown field 'memory'" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc,field", [
    ("optimize", {"dim": "x"}, "dim"),
    ("optimize", {"dim": None}, "dim"),
    ("optimize", {"dim": [1]}, "dim"),
    ("optimize", {"dim": {}}, "dim"),
    ("optimize", {"dim": 1e400}, "dim"),
    ("optimize", {"theta0": {"fill": "abc"}}, "theta0.fill"),
    ("optimize", {"methods": 5}, "methods"),
    ("optimize", {"seed": -1}, "seed"),
    ("verify", {"checks": ["normalizer"], "samples": {"normalizer": "x"}}, "samples.normalizer"),
    ("sweep", {"dims": ["a"]}, "dims"),
    ("spike-demo", {"trials": "x"}, "trials"),
    ("optimize", {"clamp": "false"}, "clamp"),
    ("optimize", {"sigma2": 1e400}, "sigma2"),
    ("spike-demo", {"plasticity": "false"}, "plasticity"),
    ("spike-demo", {"params": 5}, "params"),
    ("spike-demo", {"readout": 5}, "readout"),
    ("spike-demo", {"transform": 5}, "transform"),
    ("spike-demo", {"topology": 10}, "topology"),
    ("verify", {"checks": 5}, "checks"),
    ("verify", {"checks": ["stein"], "samples": {"stein": 5}}, "stein"),
    ("verify", {"checks": ["mean-step"], "half_interval": 800}, "mean-step"),
    ("sweep", {"dims": [2, 2]}, "dims"),
    ("sweep", {"dims": [2, 4], "samples_per_dim": 20, "sigma2": 1e-300}, "sigma2"),
    ("spike-demo", {"weights": {"fill": math.inf}}, "weights"),
    ("spike-demo", {"weights": [1.0, math.nan, 1.0]}, "weights"),
    # the value the config fuzzer found for optimize, and its verify twin
    ("optimize", {"half_interval": math.inf}, "half_interval"),
    ("verify", {"checks": ["mean-step"], "half_interval": math.inf}, "half_interval"),
    ("spike-demo", {"params": {"half_interval": math.inf}}, "half_interval"),
    ("spike-demo", {"plasticity": False, "transform": {"lam": {"fill": math.inf}}},
     "transform.lam"),
    ("spike-demo", {"plasticity": False, "transform": {"lam": [1.0, math.nan, 1.0]}},
     "transform.lam"),
    # non-finite spike-demo scalars
    ("spike-demo", {"input_scale": math.inf}, "input_scale"),
    ("spike-demo", {"input_scale": math.inf, "plasticity": False}, "input_scale"),
    ("spike-demo", {"input_offset": math.nan}, "input_offset"),
    ("spike-demo", {"readout": {"scale": math.inf}}, "readout.scale"),
    ("spike-demo", {"readout": {"offset": -math.inf}}, "readout.offset"),
    ("spike-demo", {"readout": {"sentinel": math.nan}}, "readout.sentinel"),
    ("spike-demo", {"reward_delta": math.nan}, "reward_delta"),
    ("spike-demo", {"alpha": math.inf}, "alpha"),
    ("spike-demo", {"params": {"decay": math.inf}}, "decay"),
    ("spike-demo", {"params": {"threshold": math.inf}}, "threshold"),
    # powers PowerLoss refuses
    ("optimize", {"loss": {"kind": "power", "power": 3}}, "loss.power"),
    ("optimize", {"loss": {"kind": "power", "power": 0}}, "loss.power"),
    # integer fields that would truncate
    ("optimize", {"dim": 2.7}, "dim"),
    ("optimize", {"iterations": True}, "iterations"),
    ("optimize", {"replicates": True}, "replicates"),
    ("optimize", {"loss": {"kind": "power", "power": 4.5}}, "loss.power"),
    ("sweep", {"dims": [2, 4], "samples_per_dim": 1.5}, "samples_per_dim"),
    ("spike-demo", {"trials": False}, "trials"),
])
def test_non_numeric_config_value_exits_two(tmp_path, capsys, configs_dir, command, doc, field):
    base = {"optimize": json.loads(Path(optimize_config(tmp_path)).read_text()),
            "verify": {},
            "sweep": {},
            "spike-demo": {"topology": str(configs_dir / "topology_3in1out.json")}}[command]
    cfg = write_config(tmp_path, "bad.json", {**base, **doc, "out": str(tmp_path / "out")})
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("command", ["optimize", "verify", "sweep", "spike-demo"])
@pytest.mark.parametrize("out", [None, 5, ""])
def test_output_path_that_is_not_a_path_exits_two(tmp_path, capsys, command, out):
    cfg = write_config(tmp_path, "bad.json", {**FUZZ_BASES[command], "out": out})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: field 'out'")


def test_integral_float_config_values_count_as_integers(tmp_path):
    # JSON numbers such as 1e1 parse as floats
    cfg = optimize_config(tmp_path, iterations=1e1, replicates=2.0, dim=3.0)
    assert main(["optimize", "--config", cfg]) == 0
    assert len(read_rows(tmp_path / "trace.csv")) == 3 * 2 * 10


def test_optimize_requires_config(capsys):
    assert main(["optimize"]) == 2
    assert "config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# optimize on two lanes against one serial run_methods call


OPTIMIZE_LOSSES = {
    "least-squares": {"kind": "least-squares", "target": {"fill": 2.0}},
    # diverges to inf within a few steps at the larger step sizes
    "power": {"kind": "power", "power": 4},
    # a data stream: replicates run one at a time
    "linear-gaussian": {"kind": "linear-gaussian", "theta_star": {"fill": 1.0},
                        "noise_sd": 0.1},
}


@st.composite
def optimize_cases(draw):
    """An optimize config of a few small replicates, every field spelled out.
    Large steps make stdp-mult fail its positivity check and the power loss
    diverge, in any replicate."""
    theta0 = draw(st.none() | st.sampled_from([0.0, 0.5, 3.0]))
    return {"methods": draw(st.lists(st.sampled_from(["gd", "one-point", "stdp-zo", "stdp-mult"]),
                                     min_size=1, max_size=4)),
            "loss": OPTIMIZE_LOSSES[draw(st.sampled_from(sorted(OPTIMIZE_LOSSES)))],
            "dim": draw(st.integers(1, 4)), "iterations": draw(st.integers(0, 12)),
            "replicates": draw(st.integers(1, 5)), "seed": draw(st.integers(0, 2 ** 32 - 1)),
            "schedule": {"kind": "constant",
                         "alpha0": draw(st.sampled_from([0.01, 0.1, 0.5, 2.0, 20.0]))},
            "strategy": {"kind": "previous"}, "half_interval": draw(st.sampled_from([0.25, 1.0])),
            "sigma2": 1.0, "clamp": draw(st.booleans()),
            "theta0": None if theta0 is None else {"fill": theta0}}


def reference_optimize(doc: dict) -> tuple:
    """(CSV text, exit code, stderr) of one serial run_methods call over all replicates."""
    dim, spec = doc["dim"], doc["loss"]
    stream = None
    if spec["kind"] == "least-squares":
        loss = LeastSquaresLoss(np.full(dim, spec["target"]["fill"]))
    elif spec["kind"] == "power":
        loss = PowerLoss(spec["power"], target=np.zeros(dim))
    else:
        loss = LinearModelLoss()
        stream = DataStream("linear-gaussian", theta_star=np.full(dim, spec["theta_star"]["fill"]),
                            noise_sd=spec["noise_sd"])
    theta0 = None if doc["theta0"] is None else np.full(dim, doc["theta0"]["fill"])
    configs = [RunConfig(method=method, dim=dim, iterations=doc["iterations"],
                         schedule=LearningRateSchedule.constant(doc["schedule"]["alpha0"]),
                         strategy=AnticipatedLossStrategy(doc["strategy"]["kind"]),
                         noise=NoiseConfig(doc["half_interval"], dim),
                         gaussian=GaussianNoiseConfig(doc["sigma2"]), theta0=theta0,
                         clamp=doc["clamp"])
               for method in doc["methods"]]
    try:
        traces = run_methods(loss, configs, RngStream(doc["seed"]), doc["replicates"], stream)
        code, err = 0, ""
    except OptimizerStepError as exc:
        traces, code, err = exc.partial, 1, f"optimize failed at {exc}\n"
    rows = [f"{r.method},{r.replicate},{r.iteration},{r.loss!r},{r.theta_norm!r}\n"
            for trace in traces for r in trace.rows]
    return "method,replicate,iter,loss,theta_norm\n" + "".join(rows), code, err


def counting_forks(monkeypatch) -> list:
    """Patch os.fork to log each call's result; the list gets one entry per fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the two pinned failing configs: replicate 0 fails in the lower half, then
# replicates 3 and 2 in the upper half, whose lowest failing one decides
FAILING_CASE = {"methods": ["stdp-mult", "gd"], "loss": OPTIMIZE_LOSSES["least-squares"],
                "dim": 3, "iterations": 40, "replicates": 4, "seed": 11,
                "schedule": {"kind": "constant", "alpha0": 5.0}, "strategy": {"kind": "previous"},
                "half_interval": 1.0, "sigma2": 1.0, "clamp": False, "theta0": None}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=optimize_cases())
@example(doc=FAILING_CASE)
@example(doc={**FAILING_CASE, "schedule": {"kind": "constant", "alpha0": 0.05}})
# repeated methods, an odd replicate count and a data stream
@example(doc={**FAILING_CASE, "methods": ["gd", "stdp-mult", "gd", "stdp-mult"],
              "loss": OPTIMIZE_LOSSES["linear-gaussian"], "replicates": 5,
              "schedule": {"kind": "constant", "alpha0": 0.5}})
def test_optimize_equals_one_serial_run_on_any_cpu_count(tmp_path, monkeypatch, cpus, doc):
    out = tmp_path / "trace.csv"
    out.unlink(missing_ok=True)
    cfg = write_config(tmp_path, "optimize.json", {**doc, "out": str(out)})
    forks = counting_forks(monkeypatch)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["optimize", "--config", cfg])
    assert (out.read_text(), code, err.getvalue()) == reference_optimize(doc)
    assert len(forks) == (cpus == 2 and doc["replicates"] >= 2)
    assert_no_child_left()


def needs_two_cpus():
    if verification._cpu_count() < 2 or not hasattr(os, "fork"):
        pytest.skip("needs two CPUs and os.fork")


def patch_lanes(monkeypatch, upper, lower=cli._optimize_lane):
    """Run ``upper`` in place of optimize's upper lane, past replicate 0,
    and ``lower`` in place of its lower lane."""
    monkeypatch.setattr(cli, "_optimize_lane", lambda loss, configs, seed, lane, stream: (
        upper if lane.start > 0 else lower)(loss, configs, seed, lane, stream))


def raise_boom(*args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("upper,message", [
    (raise_boom, "optimize worker failed: RuntimeError: boom"),
    (lambda *args: os._exit(3), "optimize worker ended without a result, exit code 3"),
], ids=["raises", "exits"])
def test_optimize_worker_that_fails_exits_one_and_leaves_no_child(tmp_path, capsys,
                                                                  monkeypatch, upper, message):
    needs_two_cpus()
    patch_lanes(monkeypatch, upper)
    assert main(["optimize", "--config", optimize_config(tmp_path, replicates=3)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert_no_child_left()


def test_optimize_interrupted_kills_and_reaps_its_worker(tmp_path, monkeypatch):
    needs_two_cpus()

    def interrupted(*args):
        raise KeyboardInterrupt
    # the worker would sleep far past the test; the interrupt must end it
    patch_lanes(monkeypatch, lambda *args: time.sleep(600), interrupted)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["optimize", "--config", optimize_config(tmp_path)])
    assert time.monotonic() - started < 60
    assert_no_child_left()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_csv_and_sidecar(tmp_path):
    cfg = write_config(tmp_path, "sweep.json",
                       {"dims": [10, 32, 100], "sigma2": 1.0,
                        "samples_per_dim": 20_000, "seed": 3,
                        "out": str(tmp_path / "sweep.csv")})
    assert main(["sweep", "--config", cfg]) == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert [r["d"] for r in rows] == ["10", "32", "100"]
    assert all(r["quantity"] == "variance" for r in rows)
    sidecar = json.loads((tmp_path / "sweep.json").read_text())
    assert 1.5 <= sidecar["slope"] <= 2.5


def test_sweep_single_dim_has_no_slope(tmp_path):
    cfg = write_config(tmp_path, "one.json",
                       {"dims": [50], "samples_per_dim": 5_000, "seed": 3,
                        "out": str(tmp_path / "one.csv")})
    assert main(["sweep", "--config", cfg]) == 0
    sidecar = json.loads((tmp_path / "one.json").read_text())
    assert sidecar["slope"] is None
    assert sidecar["message"] == "insufficient points"


def test_sweep_csv_equals_the_serial_one_pass_loop(tmp_path, cpus):
    dims, sigma2, n, seed = [10, 300, 32, 1000], 0.7, 4001, 6
    cfg = write_config(tmp_path, "sweep.json",
                       {"dims": dims, "sigma2": sigma2, "samples_per_dim": n, "seed": seed,
                        "out": str(tmp_path / "s.csv")})
    assert main(["sweep", "--config", cfg]) == 0
    rng = RngStream(seed)
    rows = [one_pass.variance_row(d, sigma2, n, rng.substream(idx).generator())
            for idx, d in enumerate(dims)]
    assert (tmp_path / "s.csv").read_text() == "d,quantity,value,se\n" + "".join(
        f"{d},variance,{var!r},{se!r}\n" for d, var, se in rows)


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "sweep.json",
                       {"dims": [10, 32], "samples_per_dim": 10_000, "seed": 5,
                        "out": str(tmp_path / "s.csv")})
    assert main(["sweep", "--config", cfg]) == 0
    first = (tmp_path / "s.csv").read_bytes()
    assert main(["sweep", "--config", cfg]) == 0
    assert (tmp_path / "s.csv").read_bytes() == first


# ---------------------------------------------------------------------------
# spike demo


def test_spike_demo_shipped_config_runs(tmp_path, configs_dir):
    out = tmp_path / "demo.csv"
    assert main(["spike-demo", "--config", str(configs_dir / "spike_demo.json"),
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    kinds = {r["kind"] for r in rows}
    assert kinds == {"arrival", "firing", "readout", "weight"}
    readouts = [r for r in rows if r["kind"] == "readout"]
    assert len(readouts) == 20


def test_spike_demo_readout_invariant_under_transform(tmp_path, configs_dir):
    flat, moved = tmp_path / "flat.csv", tmp_path / "moved.csv"
    assert main(["spike-demo", "--config", str(configs_dir / "spike_demo_flat.json"),
                 "--out", str(flat)]) == 0
    assert main(["spike-demo",
                 "--config", str(configs_dir / "spike_demo_flat_transformed.json"),
                 "--out", str(moved)]) == 0
    readouts_flat = [r["value"] for r in read_rows(flat) if r["kind"] == "readout"]
    readouts_moved = [r["value"] for r in read_rows(moved) if r["kind"] == "readout"]
    assert readouts_flat == readouts_moved


def test_spike_demo_zero_reward_equals_unsupervised(tmp_path, configs_dir):
    base = json.loads((configs_dir / "spike_demo.json").read_text())
    base["topology"] = str(configs_dir / "topology_3in1out.json")
    null_cfg = write_config(tmp_path, "null.json", {**base, "reward_delta": None,
                                                    "out": str(tmp_path / "null.csv")})
    zero_cfg = write_config(tmp_path, "zero.json", {**base, "reward_delta": 0.0,
                                                    "out": str(tmp_path / "zero.csv")})
    assert main(["spike-demo", "--config", null_cfg]) == 0
    assert main(["spike-demo", "--config", zero_cfg]) == 0
    weights_null = [r for r in read_rows(tmp_path / "null.csv") if r["kind"] == "weight"]
    weights_zero = [r for r in read_rows(tmp_path / "zero.csv") if r["kind"] == "weight"]
    assert weights_null == weights_zero


def test_spike_demo_transform_with_plasticity_rejected(tmp_path, configs_dir, capsys):
    doc = json.loads((configs_dir / "spike_demo_flat_transformed.json").read_text())
    doc["topology"] = str(configs_dir / "topology_3in1out.json")
    doc["plasticity"] = True
    doc["out"] = str(tmp_path / "x.csv")
    cfg = write_config(tmp_path, "bad.json", doc)
    assert main(["spike-demo", "--config", cfg]) == 2
    assert "plasticity" in capsys.readouterr().err


def test_spike_demo_cyclic_topology_exits_two(tmp_path, capsys):
    topo = write_config(tmp_path, "cyclic.json",
                        {"neurons": 3, "edges": [[0, 1], [1, 2], [2, 0]],
                         "inputs": [0], "outputs": [2]})
    cfg = write_config(tmp_path, "demo.json",
                       {"topology": topo, "trials": 1, "seed": 1,
                        "out": str(tmp_path / "x.csv")})
    assert main(["spike-demo", "--config", cfg]) == 2
    assert "cycle" in capsys.readouterr().err


def test_spike_demo_nonpositive_weight_exits_one_with_rows_so_far(tmp_path, capsys):
    # a large reward drives a weight below zero in the first trial
    cfg = write_config(tmp_path, "demo.json", {
        **FUZZ_BASES["spike-demo"], "reward_delta": 100.0, "out": str(tmp_path / "x.csv")})
    assert main(["spike-demo", "--config", cfg]) == 1
    assert "trial 0: plasticity left edge 1->3 with weight -" in capsys.readouterr().err
    rows = read_rows(tmp_path / "x.csv")
    assert {r["trial"] for r in rows} == {"0"}
    assert float([r for r in rows if r["edge_or_neuron"] == "1->3"
                  and r["kind"] == "weight"][0]["value"]) < 0


def test_spike_demo_rerun_is_byte_identical(tmp_path, configs_dir):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = str(configs_dir / "spike_demo.json")
    assert main(["spike-demo", "--config", cfg, "--out", str(a)]) == 0
    assert main(["spike-demo", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def layered_spike_config(tmp_path, sizes=(8, 16, 16, 1), trials=20) -> str:
    """Fully connected layers, weights near 1.5 / fan-in, plastic trials with a reward."""
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    edges, fan_in = [], {}
    for k in range(len(sizes) - 1):
        for j in range(starts[k + 1], starts[k + 1] + sizes[k + 1]):
            fan_in[j] = sizes[k]
        edges += [[i, j] for i in range(starts[k], starts[k] + sizes[k])
                  for j in range(starts[k + 1], starts[k + 1] + sizes[k + 1])]
    topo = write_config(tmp_path, "layered.json", {
        "neurons": sum(sizes), "edges": edges, "inputs": list(range(sizes[0])),
        "outputs": [starts[-1]]})
    weights = [1.5 / fan_in[j] * (0.8 + 0.1 * (n % 5)) for n, (_, j) in enumerate(edges)]
    return write_config(tmp_path, "layered_demo.json", {
        "topology": topo, "trials": trials, "seed": 4,
        "params": {"decay": 1.0, "amplitude": 0.05, "threshold": 1.0, "half_interval": 0.25},
        "weights": weights, "reward_delta": 0.05, "out": str(tmp_path / "layered.csv")})


@pytest.mark.parametrize("config,digest", [
    ("spike_demo.json", "6d2daa816011c3d076e9532f51001378c80f753a3f1ed52431627f250ec8626d"),
    ("layered", "424d23e010299daf02fe67bf871e67dfc6add5a9434619d56ba09837c34b31a7"),
])
def test_spike_demo_output_is_pinned(tmp_path, configs_dir, config, digest):
    # sha256 of the CSVs the scalar engine wrote before parents were precomputed
    cfg = (layered_spike_config(tmp_path) if config == "layered"
           else str(configs_dir / config))
    out = tmp_path / "pinned.csv"
    assert main(["spike-demo", "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@given(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([1e6, 1e-320, -0.0]))
def test_row_template_formats_like_fstring(x):
    # spike-demo writes its rows with "%.12g" templates
    assert "%.12g" % x == f"{x:.12g}"


def run_spike_demo_warnings_as_errors(tmp_path, **overrides):
    cfg = write_config(tmp_path, "huge.json", {
        "topology": str(TOPOLOGY), "trials": 5, "weights": {"fill": 1e308},
        "out": str(tmp_path / "huge.csv"), **overrides})
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error", "-m", "spikezero.cli", "spike-demo",
                           "--config", cfg], env=env, capture_output=True, text=True)


def test_spike_demo_overflowing_readout_is_inf_without_warnings(tmp_path):
    result = run_spike_demo_warnings_as_errors(tmp_path, plasticity=False)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    readouts = [r["value"] for r in read_rows(tmp_path / "huge.csv") if r["kind"] == "readout"]
    assert readouts == ["inf"] * 5


def test_spike_demo_nonfinite_weight_exits_one_with_rows_so_far(tmp_path):
    # 1e308 weights grow past the float range in the second trial
    result = run_spike_demo_warnings_as_errors(tmp_path)
    assert result.returncode == 1
    assert result.stderr == ("spike-demo failed at trial 1: plasticity left edge 0->3 "
                             "with weight inf\n")
    rows = read_rows(tmp_path / "huge.csv")
    assert {r["trial"] for r in rows} == {"0", "1"}
    assert [r["value"] for r in rows if r["trial"] == "1" and r["edge_or_neuron"] == "0->3"
            and r["kind"] == "weight"] == ["inf"]


def test_spike_demo_unwritable_out_exits_two(tmp_path, capsys, configs_dir):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "spikes.csv"
    assert main(["spike-demo", "--config", str(configs_dir / "spike_demo.json"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: File exists\n"


@pytest.mark.parametrize("doc,field", [
    ({"weights": [1.0, -1.0, 1.0]}, "weights"),
    ({"plasticity": False, "transform": {"lam": [1.0, 0.0, 1.0]}}, "transform.lam"),
    # each product is positive in exact arithmetic but rounds to 0
    ({"plasticity": False, "weights": {"fill": 1e-200}, "transform": {"lam": {"fill": 1e-200}}},
     "transform.lam"),
], ids=["weights", "transform.lam", "transform.lam-underflow"])
def test_spike_demo_config_error_creates_no_output(tmp_path, capsys, doc, field):
    out = tmp_path / "spikes.csv"
    cfg = write_config(tmp_path, "bad.json", {**FUZZ_BASES["spike-demo"], **doc,
                                              "out": str(out)})
    assert main(["spike-demo", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert not out.exists()


def spike_demo_peak_bytes(tmp_path, trials: int) -> int:
    """tracemalloc's peak over one spike-demo run on the 8 -> 16 -> 16 -> 1 network."""
    cfg = layered_spike_config(tmp_path, trials=trials)
    # the cyclic collector frees argparse's parser at a varying point of the
    # run, which moves the peak by tens of kB between identical runs; with
    # it off that garbage stays for the whole run, and so would any cyclic
    # garbage a trial left behind
    gc.disable()
    tracemalloc.start()
    try:
        assert main(["spike-demo", "--config", cfg]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_spike_demo_memory_does_not_grow_with_trials(tmp_path):
    # rows go to the file as each trial ends, so ten times the trials need
    # less extra memory than one trial's rows. Traced allocation runs about
    # 25 times slower, hence 10 and 100 trials.
    assert main(["spike-demo", "--config", layered_spike_config(tmp_path, trials=100)]) == 0
    short = spike_demo_peak_bytes(tmp_path, 10)
    long = spike_demo_peak_bytes(tmp_path, 100)
    one_trial = len((tmp_path / "layered.csv").read_bytes()) // 100
    assert long - short < one_trial


# ---------------------------------------------------------------------------
# config fuzzer


TOPOLOGY = REPO_ROOT / "configs" / "topology_3in1out.json"

# small valid configs; one field of each is replaced or added per example
FUZZ_BASES = {
    "optimize": {
        "methods": ["gd", "one-point", "stdp-zo", "stdp-mult"],
        "loss": {"kind": "least-squares", "target": {"fill": 1.0}},
        "dim": 3, "iterations": 10, "replicates": 2, "seed": 3,
        "schedule": {"kind": "constant", "alpha0": 0.01}, "strategy": {"kind": "previous"},
        "half_interval": 0.5, "sigma2": 1.0, "theta0": {"fill": 0.0}, "clamp": False,
        "out": "trace.csv"},
    "verify": {"checks": ["normalizer", "mean-step", "divergence"], "seed": 1,
               "half_interval": 1.0, "samples": {"mean-step": 20_000}, "out": "report.json"},
    "sweep": {"dims": [2, 4], "sigma2": 1.0, "samples_per_dim": 20, "delta": 1.0, "seed": 1,
              "out": "sweep.csv"},
    "spike-demo": {
        "topology": str(TOPOLOGY), "trials": 3, "seed": 1,
        "params": {"decay": 1.0, "amplitude": 0.5, "threshold": 1.0, "half_interval": 0.25},
        "weights": {"fill": 0.6}, "input_vector": [0.0, 0.0, 0.0], "input_scale": 1.0,
        "input_offset": 0.0, "readout": {"scale": 1.0, "offset": 0.0, "sentinel": 1e6},
        "reward_delta": 0.1, "alpha": 0.1, "plasticity": True, "out": "spikes.csv"},
}
FUZZ_KEYS = {"optimize": ["memory"], "verify": [], "sweep": [],
             "spike-demo": ["transform"]}
# names the config parser knows; no check name with a costly default sample count
FUZZ_WORDS = ["kind", "fill", "target", "power", "alpha0", "memory", "decay", "theta_star",
              "noise_sd", "lam", "scale", "offset", "sentinel", "threshold", "amplitude",
              "half_interval", "least-squares", "linear-gaussian", "constant", "previous",
              "zero", "exponential", "polynomial", "gd", "one-point", "stdp-zo", "stdp-mult",
              "normalizer", "density-mass", "mean-step", "divergence", "false", "1e400", "nan",
              ""]
# no path separators: a fuzzed output path stays in the working directory
fuzz_text = st.text(alphabet="ab.-_ 0", max_size=4)
# magnitudes stay small, so no fuzzed size asks for much memory or time
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20)
    | st.floats(-50, 50) | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e-320])
    | st.sampled_from(FUZZ_WORDS) | fuzz_text,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(FUZZ_WORDS) | fuzz_text, inner,
                                     max_size=3)),
    max_leaves=6)


def run_fuzzed(command: str, key: str, value, workdir: Path):
    """Exit code and stderr of ``command`` on its base config with ``key`` set to ``value``."""
    cfg = write_config(workdir, "fuzz.json", {**FUZZ_BASES[command], key: value})
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", cfg])
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_config_field_exits_cleanly(tmp_path, monkeypatch, command, data):
    # relative output paths land in the test's directory
    monkeypatch.chdir(tmp_path)
    key = data.draw(st.sampled_from(sorted(FUZZ_BASES[command]) + FUZZ_KEYS[command])
                    | fuzz_text, label="key")
    value = data.draw(json_values, label="value")
    code, err = run_fuzzed(command, key, value, tmp_path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# spike-demo against the dict-based loop


@st.composite
def layered_topologies(draw):
    """Layers of 1-4 neurons numbered by layer; each edge between consecutive
    layers is kept or dropped. The first layer is the input, the first
    neuron of the last layer the output."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    pairs = [[i, j] for k in range(len(sizes) - 1)
             for i in range(starts[k], starts[k] + sizes[k])
             for j in range(starts[k + 1], starts[k + 1] + sizes[k + 1])]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept] or pairs[:1]
    return {"neurons": sum(sizes), "edges": edges, "inputs": list(range(sizes[0])),
            "outputs": [starts[-1]]}


@st.composite
def dag_topologies(draw):
    """A random DAG over neurons numbered in a shuffled topological order;
    an edge may feed an input neuron, and the output may be any neuron."""
    n = draw(st.integers(2, 9))
    rank = draw(st.permutations(range(n)))
    pairs = [[rank[a], rank[b]] for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique_by=tuple))
    inputs = draw(st.lists(st.sampled_from(range(n)), min_size=1, unique=True))
    return {"neurons": n, "edges": edges, "inputs": inputs,
            "outputs": [draw(st.sampled_from(range(n)))]}


def float_lists(elements, size):
    return st.lists(elements, min_size=size, max_size=size)


unit = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def spike_demo_cases(draw):
    """A topology and a spike-demo config for it, every field spelled out."""
    topology = draw(layered_topologies() | dag_topologies())
    n_edges = len(topology["edges"])
    plasticity = draw(st.booleans())
    doc = {"trials": draw(st.integers(0, 6)), "seed": draw(st.integers(0, 2 ** 32 - 1)),
           "params": {"decay": draw(st.floats(0.1, 3.0)),
                      "amplitude": draw(st.floats(0.01, 1.0)),
                      "threshold": draw(st.floats(0.2, 3.0)),
                      "half_interval": draw(st.floats(0.05, 1.0))},
           "weights": draw(float_lists(st.floats(0.05, 3.0), n_edges)),
           "input_vector": draw(float_lists(unit, len(topology["inputs"]))),
           "input_scale": draw(unit), "input_offset": draw(unit),
           "readout": {"scale": draw(unit), "offset": draw(unit),
                       "sentinel": draw(st.floats(-1e6, 1e6))},
           "alpha": draw(st.floats(0.01, 2.0)), "plasticity": plasticity}
    # a large reward drives weights through zero: the run exits 1
    reward_delta = draw(st.none() | st.floats(-200.0, 200.0))
    if reward_delta is not None:
        doc["reward_delta"] = reward_delta
    if not plasticity and draw(st.booleans()):
        doc["transform"] = {"lam": draw(float_lists(st.floats(0.1, 10.0), n_edges))}
    return topology, doc


THREE_IN_ONE_OUT = json.loads(TOPOLOGY.read_text())
SMALL_DEMO = {"trials": 3, "seed": 1,
              "params": {"decay": 1.0, "amplitude": 0.5, "threshold": 1.0, "half_interval": 0.25},
              "weights": [0.6, 0.6, 0.6], "input_vector": [0.0, 0.0, 0.0], "input_scale": 1.0,
              "input_offset": 0.0, "readout": {"scale": 1.0, "offset": 0.0, "sentinel": 1e6},
              "alpha": 0.1, "plasticity": True}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=spike_demo_cases())
# a weight goes below zero in trial 0
@example(case=(THREE_IN_ONE_OUT, {**SMALL_DEMO, "reward_delta": 100.0}))
@example(case=(THREE_IN_ONE_OUT, {**SMALL_DEMO, "plasticity": False,
                                  "transform": {"lam": [2.0, 3.0, 0.5]}}))
def test_spike_demo_equals_dict_based_loop(tmp_path, case):
    topology_doc, doc = case
    out = tmp_path / "spikes.csv"
    out.unlink(missing_ok=True)
    cfg = write_config(tmp_path, "demo.json", {
        **doc, "topology": write_config(tmp_path, "topology.json", topology_doc),
        "out": str(out)})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["spike-demo", "--config", cfg])

    topology = Topology(n_neurons=topology_doc["neurons"],
                        edges=tuple(map(tuple, topology_doc["edges"])),
                        inputs=tuple(topology_doc["inputs"]),
                        outputs=tuple(topology_doc["outputs"]))
    edges, readout = topology.edges, doc["readout"]
    transform = doc.get("transform")
    expected = reference_spike_demo(
        topology, dict(zip(edges, doc["weights"])),
        {nid: doc["input_offset"] + doc["input_scale"] * x
         for nid, x in zip(topology.inputs, doc["input_vector"])},
        KernelParams(**doc["params"]), doc["trials"], doc["seed"],
        readout_scale=readout["scale"], readout_offset=readout["offset"],
        sentinel=readout["sentinel"], reward_delta=doc.get("reward_delta"),
        alpha=doc["alpha"], plasticity=doc["plasticity"],
        lam=None if transform is None else dict(zip(edges, transform["lam"])))
    assert (out.read_text(), code, err.getvalue()) == expected


# ---------------------------------------------------------------------------
# benchmark tracer


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/layertrace.py patches functions by name; a rename in src
    # would otherwise only show up when the benchmark runs with --trace 1
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    code = ('import sys; sys.path.insert(0, "perfbench"); '
            'from layertrace import Tracer; Tracer().install()')
    result = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
