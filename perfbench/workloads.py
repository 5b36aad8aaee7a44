"""The four benchmark workloads: seeded inputs, output checks and digests.

Each workload is one ``spikezero`` CLI invocation. ``write_inputs`` turns the
workload seed into the config (and, for the spiking network, the topology)
that the program reads; ``check`` validates one output file and returns a
digest of it, which the runner compares against ``reference.json`` at the
default seed. README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

METHODS = ("gd", "one-point", "stdp-zo", "stdp-mult")
CHECKS = ("normalizer", "density-mass", "density-sampler", "stein", "stein-zero",
          "mean-step", "mean-step-quartic", "componentwise", "zero-mean-prev",
          "zero-mean-prev-quartic", "variance-scaling", "divergence")

SPIKE_LAYERS = (8, 16, 16, 1)
SPIKE_TRIALS = 1000
SPIKE_SENTINEL = 1e6
# a live network reads out on nearly every trial (about 996 in 1000 at seeds 1-10)
SPIKE_MIN_READOUT_RATIO = 0.9


class CheckFailed(Exception):
    """An output does not satisfy its workload's correctness gate."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    work: int          # units of work per invocation, the base of work_per_s
    work_unit: str     # what one unit is, for the printed summary
    # weight of the bulk speed-probe samples against the interpreted ones:
    # how closely the workload's speed follows bulk numpy work on a loaded
    # host. Chosen from 0, 0.25, 0.5, 0.75 and 1 as the value that left the
    # smallest spread of per-invocation compute_s on a shared host.
    bulk_share: float
    write_inputs: Callable[[Path, int], None]
    check: Callable[[Path], dict]
    output_name: str


def _dump(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# optimize-narrow / optimize-wide


def _optimize_check(replicates: int, iterations: int):
    def check(path: Path) -> dict:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != "method,replicate,iter,loss,theta_norm":
            raise CheckFailed("optimize trace has an unexpected header")
        rows = lines[1:]
        expected = len(METHODS) * replicates * iterations
        if len(rows) != expected:
            raise CheckFailed(f"optimize trace has {len(rows)} rows, expected {expected}")
        final = {m: [0.0, 0.0] for m in METHODS}
        for row in rows:
            method, _, it, loss, norm = row.split(",")
            loss, norm = float(loss), float(norm)
            if not (math.isfinite(loss) and math.isfinite(norm)):
                raise CheckFailed(f"non-finite value in optimize trace row {row!r}")
            if int(it) == iterations:
                final[method][0] += loss / replicates
                final[method][1] += norm / replicates
        return {f"{m}.final_loss": v[0] for m, v in final.items()} | {
            f"{m}.final_norm": v[1] for m, v in final.items()}
    return check


def _narrow_inputs(workdir: Path, seed: int) -> None:
    _dump(workdir / "config.json", {
        "methods": list(METHODS),
        "loss": {"kind": "least-squares", "target": {"fill": 1.0}},
        "dim": 10, "iterations": 500, "replicates": 64, "seed": seed,
        "schedule": {"kind": "constant", "alpha0": 0.002},
        "strategy": {"kind": "previous"},
        "half_interval": 0.25, "sigma2": 1.0,
        # a random theta0 hit PositivityError at iteration 1 for some seeds
        "theta0": {"fill": 0.0},
    })


def _wide_inputs(workdir: Path, seed: int) -> None:
    _dump(workdir / "config.json", {
        "methods": list(METHODS),
        "loss": {"kind": "linear-gaussian", "theta_star": {"fill": 0.5}, "noise_sd": 0.1},
        "dim": 2000, "iterations": 2000, "replicates": 4, "seed": seed,
        "schedule": {"kind": "constant", "alpha0": 1e-6},
        "strategy": {"kind": "exponential", "decay": 0.5, "memory": 8},
        "half_interval": 0.2, "sigma2": 0.01,
        "theta0": {"fill": 0.0},
    })


# ---------------------------------------------------------------------------
# verify-full


def _verify_inputs(workdir: Path, seed: int) -> None:
    # The checks are 3-standard-error gates, so some verify seeds fail one of
    # them by chance (8 and 11 among 1-40). The acceptance seed 1 is kept and
    # the workload seed only shuffles the order the twelve checks run in;
    # each check draws from its own substream, so the work is the same.
    order = list(CHECKS)
    random.Random(seed).shuffle(order)
    _dump(workdir / "config.json", {"checks": order, "seed": 1, "half_interval": 1.0})


def _verify_check(path: Path) -> dict:
    report = json.loads(path.read_text(encoding="utf-8"))
    if sorted(r["name"] for r in report) != sorted(CHECKS):
        raise CheckFailed(f"verify report lists {len(report)} checks, expected the 12")
    failed = [r["name"] for r in report if r["pass"] is not True]
    if failed:
        raise CheckFailed(f"verify checks failed: {', '.join(failed)}")
    digest = {}
    for r in report:
        estimate = r["estimate"]
        for k, v in enumerate(estimate if isinstance(estimate, list) else [estimate]):
            # the report spells non-finite values as strings such as "inf"
            digest[f"{r['name']}.{k}"] = v if isinstance(v, str) else float(v)
    return digest


# ---------------------------------------------------------------------------
# spike-network


def spike_topology() -> dict:
    """Fully connected layers 8 -> 16 -> 16 -> 1, neurons numbered by layer."""
    starts = [sum(SPIKE_LAYERS[:k]) for k in range(len(SPIKE_LAYERS))]
    edges = []
    for k in range(len(SPIKE_LAYERS) - 1):
        for i in range(starts[k], starts[k] + SPIKE_LAYERS[k]):
            for j in range(starts[k + 1], starts[k + 1] + SPIKE_LAYERS[k + 1]):
                edges.append([i, j])
    return {"neurons": sum(SPIKE_LAYERS), "edges": edges,
            "inputs": list(range(SPIKE_LAYERS[0])), "outputs": [starts[-1]]}


def _spike_inputs(workdir: Path, seed: int) -> None:
    topology = spike_topology()
    _dump(workdir / "topology.json", topology)
    fan_in = {}
    for _, j in topology["edges"]:
        fan_in[j] = fan_in.get(j, 0) + 1
    rng = random.Random(seed)
    weights = [1.5 / fan_in[j] * rng.uniform(0.8, 1.2) for _, j in topology["edges"]]
    _dump(workdir / "config.json", {
        "topology": "topology.json", "trials": SPIKE_TRIALS, "seed": seed,
        "params": {"decay": 1.0, "amplitude": 0.05, "threshold": 1.0, "half_interval": 0.25},
        "weights": weights, "input_vector": {"fill": 0.0},
        "readout": {"scale": 1.0, "offset": 0.0, "sentinel": SPIKE_SENTINEL},
        "reward_delta": 0.05, "alpha": 1.0, "plasticity": True,
    })


def _spike_check(path: Path) -> dict:
    topology = spike_topology()
    n_edges = len(topology["edges"])
    out_degree = {}
    for i, _ in topology["edges"]:
        out_degree[i] = out_degree.get(i, 0) + 1
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "trial,edge_or_neuron,kind,value":
        raise CheckFailed("spike output has an unexpected header")
    per_trial = [{"arrival": 0, "firing": 0, "readout": 0, "weight": 0, "reached": 0}
                 for _ in range(SPIKE_TRIALS)]
    readouts = []
    final_weight_sum = 0.0
    for row in lines[1:]:
        trial, where, kind, value = row.split(",")
        counts = per_trial[int(trial)]
        counts[kind] += 1
        value = float(value)
        if kind == "firing":
            counts["reached"] += out_degree.get(int(where), 0)
        elif kind == "readout":
            readouts.append(value)
        elif kind == "weight":
            if not (math.isfinite(value) and value > 0):
                raise CheckFailed(f"weight {value!r} in trial {trial} is not positive")
            if int(trial) == SPIKE_TRIALS - 1:
                final_weight_sum += value
    for t, counts in enumerate(per_trial):
        # one arrival per edge out of every neuron that fired, one readout,
        # and one weight per edge
        if (counts["readout"] != 1 or counts["weight"] != n_edges
                or counts["arrival"] != counts["reached"]):
            raise CheckFailed(f"spike trial {t} has wrong row counts {counts}")
    live = [r for r in readouts if r != SPIKE_SENTINEL]
    ratio = len(live) / SPIKE_TRIALS
    if ratio < SPIKE_MIN_READOUT_RATIO:
        raise CheckFailed(f"readout ratio {ratio:.3f} below {SPIKE_MIN_READOUT_RATIO}")
    return {"readout_mean": sum(live) / len(live), "readouts": float(len(live)),
            "firings": float(sum(c["firing"] for c in per_trial)),
            "final_weight_sum": final_weight_sum}


WORKLOADS = {w.name: w for w in (
    Workload("optimize-narrow", "optimize", len(METHODS) * 64 * 500, "steps", 0.0,
             _narrow_inputs, _optimize_check(64, 500), "trace.csv"),
    Workload("optimize-wide", "optimize", len(METHODS) * 4 * 2000, "steps", 0.75,
             _wide_inputs, _optimize_check(4, 2000), "trace.csv"),
    Workload("verify-full", "verify", len(CHECKS), "checks", 0.75,
             _verify_inputs, _verify_check, "report.json"),
    Workload("spike-network", "spike-demo", SPIKE_TRIALS, "trials", 0.0,
             _spike_inputs, _spike_check, "spikes.csv"),
)}
