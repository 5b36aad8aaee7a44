"""Benchmark of the spikezero command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a repository checkout; the program under test is
the checkout's ``src/spikezero``. The workload's inputs are generated from
the seed into a temporary directory under ``.perfbench/``. The CLI then
runs once per fresh interpreter, one child at a time and closed loop, until
S seconds have passed (at least three times). Every output is checked, and
every rerun must match the first output byte for byte; at the default seed
the first output is also compared with ``reference.json``.

With ``--trace 0`` each child runs ``child.SpeedProbe``, and the end-to-end
metrics are medians over the invocations of times in reference seconds (see
``scale_invocation``). With ``--trace 1`` untraced and traced invocations
alternate, the traced ones wrapped by ``layertrace.py`` and run with
``-X importtime``. Medians of the per-layer metrics are reported, plus the
tracing overhead, and the spans of the last traced invocation are written
to ``.perfbench/trace-<workload>-seed<N>.json``. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. The metric
names and units are those of ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "spikezero"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 1
MIN_INVOCATIONS = 3           # timed invocations per run, however short --seconds is
START_LIMIT_S = 100.0         # no invocation starts later, so a run ends within 180 s
INVOCATION_TIMEOUT_S = 45.0
# Reference time of each kind of child.SpeedProbe sample: about its mean in a
# child on a quiet 2-vCPU Xeon host. A time in reference seconds is a raw time
# multiplied by these over the mean sample times seen while it was measured
# (see scale_invocation).
PROBE_REFERENCE_S = {"interpreted": 0.5e-3, "bulk": 1.2e-3}
# a phase with fewer samples of a kind it is scaled by fails the invocation
MIN_PROBE_SAMPLES = 5
# loose enough for reduction-order drift (about 3e-14), tight enough to
# catch a changed algorithm
REFERENCE_REL_TOL = 1e-9
# counts that a deterministic program repeats exactly between invocations
EXACT_COUNTS = ("optimizers.steps", "losses.evaluate_calls", "spiking.parents_calls",
                "verification.sweep_gaussians", "cli.output_bytes")
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)\s*$")


class InvocationFailed(Exception):
    """One CLI invocation exited non-zero or ran a spikezero other than the checkout's."""


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return None


def environment() -> dict:
    """The machine and software a result was measured on."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.MULTILINE)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level and size and level.strip() in ("2", "3"):
            caches[f"l{level.strip()}"] = size.strip()
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model.group(1).strip() if model else platform.processor() or None,
        "l2_cache": caches.get("l2"), "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "commit": commit, "source_sha256": sources.hexdigest(),
        "child_env": PINNED_THREADS, "children_at_once": 1,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list, env: dict, stderr_path: Path, cwd: Path) -> tuple:
    """Run ``argv`` to completion; return (exit code, wall seconds, peak RSS MB, spawn instant)."""
    with open(stderr_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted or terminated: leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return proc.returncode, exited - spawned, usage.ru_maxrss / 1024.0, spawned


def probe_factor(samples: list, lo: float, hi: float, kinds: dict) -> tuple:
    """Probe seconds whose samples started in [lo, hi), and the speed factor there.

    ``kinds`` maps a probe kind to its weight in the factor. The factor of
    one kind is its reference time over the mean sample time in the interval.
    """
    inside = [(kind, seconds) for kind, start, seconds in samples if lo <= start < hi]
    factor = 0.0
    for kind, weight in kinds.items():
        if weight == 0:
            continue
        times = [seconds for k, seconds in inside if k == kind]
        if len(times) < MIN_PROBE_SAMPLES:
            raise InvocationFailed(f"the speed probe took {len(times)} {kind} samples "
                                   f"in a phase, fewer than {MIN_PROBE_SAMPLES}")
        factor += weight * PROBE_REFERENCE_S[kind] / statistics.fmean(times)
    return sum(seconds for _, seconds in inside), factor


def scale_invocation(result: dict, spawned: float, wall: float, bulk_share: float) -> tuple:
    """An untraced invocation's end-to-end times in reference seconds.

    Each phase loses the probe's own time and is multiplied by the speed
    factor of the samples taken in it: the interpreted kind alone for
    set-up, and the two kinds mixed by the workload's ``bulk_share`` for
    compute and the rest of the wall time. Returns (figures, compute factor).
    """
    samples, imported = result["probe"], result["imported"]
    start, end = result["start"], result["end"]
    setup_probe, setup_factor = probe_factor(samples, spawned, imported, {"interpreted": 1.0})
    compute_probe, factor = probe_factor(samples, start, end, {
        "interpreted": 1.0 - bulk_share, "bulk": bulk_share})
    setup = (imported - spawned - setup_probe) * setup_factor
    compute = (end - start - compute_probe) * factor
    rest = wall - (imported - spawned) - (end - start) - (
        sum(s for _, _, s in samples) - setup_probe - compute_probe)
    return {"setup_s": setup, "compute_s": compute,
            "wall_s": setup + compute + rest * factor}, factor


def scipy_import_seconds(stderr_text: str) -> float:
    total_us = 0
    for line in stderr_text.splitlines():
        match = IMPORTTIME.match(line)
        if match and (match.group(2) == "scipy" or match.group(2).startswith("scipy.")):
            total_us += int(match.group(1))
    return total_us / 1e6


class Run:
    """The invocations of one benchmark run and their checks."""

    def __init__(self, workload, seed: int, workdir: Path, env: dict, compare_reference: bool):
        self.workload = workload
        self.seed = seed
        self.compare_reference = compare_reference
        self.workdir = workdir
        self.env = env
        self.first_sha = None
        self.digest = None
        self.counts = None
        self.attempted = 0
        self.errors = []
        self.untraced = []            # per-invocation end-to-end figures, reference seconds
        self.raw = []                 # the same figures in raw seconds, probe time included
        self.factors = []             # per untraced invocation: its compute speed factor
        self.traced = []              # per-invocation per-layer figures, raw times
        self.spans = None

    def invoke(self, traced: bool):
        self.attempted += 1
        n = self.attempted
        out = self.workdir / f"{n}-{self.workload.output_name}"
        result_path = self.workdir / f"{n}-result.json"
        stderr_path = self.workdir / f"{n}-stderr.txt"
        argv = [sys.executable] + (["-X", "importtime"] if traced else []) + [
            str(HERE / "child.py"), str(result_path), "1" if traced else "0", "--",
            self.workload.command, "--config", str(self.workdir / "config.json"),
            "--out", str(out)]
        try:
            code, wall, rss, spawned = spawn(argv, self.env, stderr_path, self.workdir)
            stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
            if code != 0:
                tail = " | ".join(stderr.strip().splitlines()[-3:])
                raise InvocationFailed(f"exit code {code}: {tail}")
            result = json.loads(result_path.read_text(encoding="utf-8"))
            if Path(result["package"]).resolve().parent != PACKAGE.resolve():
                raise InvocationFailed(f"imported spikezero from {result['package']}, "
                                       f"not from {PACKAGE}")
            output_bytes = self.check_output(out)
            compute = result["end"] - result["start"]
            if traced:
                layers = result["layers"]
                layers["cli.import_scipy_s"] = scipy_import_seconds(stderr)
                layers["cli.output_bytes"] = output_bytes
                layers["compute_s"] = compute
                self.check_counts(layers)
                self.traced.append(layers)
                self.spans = result["spans"]
            else:
                times, factor = scale_invocation(result, spawned, wall, self.workload.bulk_share)
                self.untraced.append(times | {
                    "work_per_s": self.workload.work / times["compute_s"], "peak_rss_mb": rss})
                self.raw.append({"setup_s": result["imported"] - spawned, "compute_s": compute,
                                 "wall_s": wall, "work_per_s": self.workload.work / compute,
                                 "peak_rss_mb": rss})
                self.factors.append(factor)
            return wall
        except (InvocationFailed, CheckFailed, OSError, ValueError, KeyError) as exc:
            self.errors.append(f"invocation {n}: {type(exc).__name__}: {exc}")
            return None
        finally:
            for path in (out, result_path, stderr_path):
                path.unlink(missing_ok=True)

    def check_output(self, out: Path) -> int:
        """Gate one output; return its size in bytes."""
        data = out.read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        if self.first_sha is None:
            self.digest = self.workload.check(out)
            self.first_sha = sha
            if self.compare_reference:
                self.check_reference()
        elif sha != self.first_sha:
            raise CheckFailed("output differs from the first invocation with the same inputs")
        return len(data)

    def check_reference(self):
        stored = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        expected = stored.get(self.workload.name)
        if expected is None:
            raise CheckFailed(f"reference.json has no entry for {self.workload.name}")
        if set(expected) != set(self.digest):
            raise CheckFailed("output digest keys differ from reference.json")
        for key, want in expected.items():
            got = self.digest[key]
            if isinstance(want, str) or isinstance(got, str):
                matches = got == want
            else:
                matches = math.isclose(got, want, rel_tol=REFERENCE_REL_TOL, abs_tol=1e-300)
            if not matches:
                raise CheckFailed(f"{key} = {got!r}, reference {want!r}")

    def check_counts(self, layers: dict):
        counts = {k: layers[k] for k in EXACT_COUNTS}
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            raise CheckFailed(f"exact counts changed between invocations: "
                              f"{self.counts} then {counts}")


def median_of(rows: list, key: str) -> float:
    return statistics.median(row[key] for row in rows)


def summarize(run: Run, trace: bool, spec: dict) -> dict:
    """Metric name -> value for every metric the spec lists for this mode.

    Traced invocations run without the speed probe, so their times are
    scaled by the median compute factor of the run's untraced invocations.
    """
    if trace:
        factor = statistics.median(run.factors)
        values = {key: median_of(run.traced, key) * factor
                  if key.endswith(("_s", "_us")) else median_of(run.traced, key)
                  for key in run.traced[0]}
        listed = spec["per_layer"]
        values["trace.overhead_s"] = values.pop("compute_s") - median_of(run.untraced, "compute_s")
    else:
        values = {key: median_of(run.untraced, key) for key in run.untraced[0]}
        listed = spec["end_to_end"]
    names = [m["name"] for m in listed]
    if set(names) != set(values):
        raise SystemExit(f"error: measured metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def print_summary(run: Run, trace: bool):
    """Human-readable lines; the last line of output stays the JSON result."""
    w = run.workload
    failed = len(run.errors)
    print(f"{w.name} seed {run.seed}: {run.attempted} invocations, {failed} failed, "
          f"failed_frac {failed / run.attempted:.3f}")
    for error in run.errors:
        print(f"  FAILED {error}")
    if not run.untraced:
        return
    factors = sorted(run.factors)
    print(f"  compute speed factor median {statistics.median(factors):.4f}  min {factors[0]:.4f}"
          f"  max {factors[-1]:.4f} at bulk share {w.bulk_share}")
    for key in run.untraced[0]:
        values = sorted(row[key] for row in run.untraced)
        raw = sorted(row[key] for row in run.raw)
        label = f"{w.work_unit}_per_s" if key == "work_per_s" else key
        print(f"  {label:<14} {statistics.median(values):<10.6g} min {values[0]:<10.6g} "
              f"max {values[-1]:<10.6g} raw median {statistics.median(raw):.6g}  "
              f"min {raw[0]:.6g}  max {raw[-1]:.6g}  n={len(raw)}")
    if trace and run.traced:
        print(f"  traced invocations: {len(run.traced)}")
    print("samples " + json.dumps({"factors": run.factors, "untraced": run.untraced,
                                   "raw": run.raw}))


def record_reference(run: Run):
    path = HERE / "reference.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    stored[run.workload.name] = run.digest
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded reference for {run.workload.name} at seed {run.seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store the checked output digest as the reference "
                             f"(seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are recorded at seed {DEFAULT_SEED}")
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: {PACKAGE} holds no spikezero sources; run from a repository checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped and the
    # temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace = args.trace == 1
    workload = WORKLOADS[args.workload]
    env = child_env()
    print("env " + json.dumps(environment(), sort_keys=True))

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload.name}-") as tmp:
        workdir = Path(tmp)
        workload.write_inputs(workdir, args.seed)
        # compile the package's bytecode and warm the file cache, which a
        # user pays once, not on every invocation
        spawn([sys.executable, "-c", "import spikezero.cli"], env, workdir / "warmup.txt", workdir)
        run = Run(workload, args.seed, workdir, env,
                  compare_reference=args.seed == DEFAULT_SEED and not args.record_reference)
        started = time.monotonic()
        last_wall = 0.0
        while True:
            elapsed = time.monotonic() - started
            enough = (len(run.traced) >= 2 and len(run.untraced) >= 2 if trace
                      else len(run.untraced) >= MIN_INVOCATIONS)
            if elapsed > START_LIMIT_S or (enough and elapsed + last_wall > args.seconds):
                break
            if not run.untraced and not run.traced and len(run.errors) >= MIN_INVOCATIONS:
                break
            wall = run.invoke(traced=trace and run.attempted % 2 == 1)
            last_wall = wall if wall is not None else last_wall

    print_summary(run, trace)
    correct = not run.errors and bool(run.untraced) and (run.traced or not trace)
    if not correct:
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": max(len(run.errors), 1), "metrics": {}}))
        return 1
    if trace:
        WORK.joinpath(f"trace-{workload.name}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent"], "spans": run.spans}) + "\n",
            encoding="utf-8")
    if args.record_reference:
        record_reference(run)
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": 0,
                      "metrics": summarize(run, trace, spec)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
