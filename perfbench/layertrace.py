"""Per-layer tracing of one spikezero CLI invocation, from outside the package.

``Tracer.install`` replaces each public function at a module boundary under
the name its caller looks it up by (``spikezero.cli.run_replicate``,
``spikezero.optimizers.gd_step``, ``LeastSquaresLoss.evaluate``, ...) with
a timing wrapper. Every wrapped function keeps an aggregate of
(calls, total time, time in wrapped callees), so its self time is exact
without storing one record per call. Functions called fewer than about 10^4
times per invocation also record one span each (name, start, end, parent
span). ``metrics`` turns the aggregates into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "optimizers", "losses", "perturbation", "core", "spiking", "verification")
STEP_FUNCTIONS = {"gd": "gd_step", "one-point": "one_point_step",
                  "stdp-zo": "stdp_zo_step", "stdp-mult": "stdp_multiplicative_step"}
CHECK_FUNCTIONS = ("check_normalizer", "check_density_mass", "check_density_sampler",
                   "check_stein", "check_mean_step", "check_componentwise",
                   "check_zero_mean_prev", "check_variance_scaling", "divergence_demo")
LOSS_CLASSES = ("LeastSquaresLoss", "LinearModelLoss", "PowerLoss")


class Tracer:
    def __init__(self):
        self.stats = {}                    # key -> [calls, total_ns, callee_ns]
        self.layer_of = {}                 # key -> layer
        self.spans = []                    # [key, start_ns, end_ns, parent span or -1]
        self.counters = defaultdict(int)
        self.check_reports = []            # (report, seconds); the CLI renames some reports
        self._stack = [[0, -1]]            # per open call: [callee_ns, span index]

    def wrap(self, owner, attr, key, layer, span=False, observe=None):
        """Replace ``owner.attr`` with a wrapper accounted under ``key``.

        ``observe(bound_args, result, seconds)`` runs after each call that
        returns normally; ``bound_args`` binds the call to the signature.
        """
        fn = getattr(owner, attr)
        stat = self.stats.setdefault(key, [0, 0, 0])
        self.layer_of[key] = layer
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a frame carries the index of its own span, or else of the
            # nearest enclosing one, so spans link to their parent span
            parent = stack[-1][1]
            frame = [0, parent]
            if span:
                frame[1] = len(spans)
                spans.append([key, 0, 0, parent])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if span:
                    spans[frame[1]][1:3] = start, start + elapsed
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result, elapsed / 1e9)
            return result

        setattr(owner, attr, wrapper)

    def install(self):
        import spikezero.cli as cli
        import spikezero.core as core
        import spikezero.losses as losses
        import spikezero.optimizers as optimizers
        import spikezero.perturbation as perturbation
        import spikezero.spiking as spiking
        import spikezero.verification as verification

        count = self.counters
        self.wrap(cli, "main", "main", "cli", span=True)

        def replicate_done(_, trace, __):
            count["diverged"] += trace.diverged_at is not None
        self.wrap(cli, "run_replicate", "run_replicate", "optimizers", span=True,
                  observe=replicate_done)
        self.wrap(verification, "run_optimizer", "run_optimizer", "optimizers", span=True)
        for function in STEP_FUNCTIONS.values():
            self.wrap(optimizers, function, function, "optimizers")
        self.wrap(optimizers, "anticipated_loss", "anticipated_loss", "optimizers")

        def stream_done(_, samples, __):
            if samples:
                count["stream_bytes"] += len(samples) * (samples[0].x.nbytes + 8)
        self.wrap(optimizers, "generate_stream", "generate_stream", "losses", span=True,
                  observe=stream_done)

        def rows(arguments, _, __):
            count["evaluate_many_rows"] += len(arguments["points"])
        for name in LOSS_CLASSES:
            cls = getattr(losses, name)
            self.wrap(cls, "evaluate", "evaluate", "losses")
            self.wrap(cls, "gradient", "gradient", "losses")
            self.wrap(cls, "evaluate_many", "evaluate_many", "losses", span=True, observe=rows)
            self.wrap(cls, "gradient_many", "gradient_many", "losses", span=True)

        # the sampler's acceptance counts are only returned on request: always
        # ask, and hand the caller what it asked for
        density = perturbation.PerturbationDensity
        sample = density.sample

        @functools.wraps(sample)
        def sample_with_stats(pd, gen, size=None, return_stats=False):
            result, stats = sample(pd, gen, size, return_stats=True)
            count["proposed"] += stats["proposed"]
            count["accepted"] += stats["accepted"]
            return (result, stats) if return_stats else result
        density.sample = sample_with_stats
        self.wrap(density, "sample", "sample", "perturbation", span=True)

        self.wrap(core.RngStream, "generator", "generator", "core", span=True)

        def trial_done(_, record, __):
            count["trials"] += 1
            count["neurons"] += len(record.firing)
            count["fired"] += sum(t is not None for t in record.firing.values())
            count["readouts"] += record.output_fired
        self.wrap(cli, "run_trial", "run_trial", "spiking", span=True, observe=trial_done)
        self.wrap(cli, "stdp_update", "stdp_update", "spiking")
        self.wrap(spiking.Topology, "parents", "parents", "spiking")
        self.wrap(spiking, "next_spike_time", "next_spike_time", "spiking")

        def check_done(_, result, seconds):
            report = result[0] if isinstance(result, tuple) else result
            self.check_reports.append((report, seconds))
        for function in CHECK_FUNCTIONS:
            self.wrap(cli, function, function, "verification", span=True, observe=check_done)

        def sweep_done(arguments, _, __):
            count["sweep_gaussians"] += arguments["n"] * sum(int(d) for d in arguments["dims"])
        self.wrap(verification, "variance_scaling_sweep", "variance_scaling_sweep",
                  "verification", span=True, observe=sweep_done)

    def _calls(self, key):
        return self.stats[key][0]

    def _total(self, key):
        return self.stats[key][1] / 1e9

    def _self(self, key):
        _, total, callees = self.stats[key]
        return (total - callees) / 1e9

    def _per_call_us(self, key):
        calls, total, _ = self.stats[key]
        return total / calls / 1e3 if calls else 0.0

    def metrics(self, check_names) -> dict:
        """Per-layer metrics of the traced invocation.

        Ratios with no attempts read 0, and per-call times of functions
        never called read 0.
        """
        count = self.counters
        steps = sum(self._calls(f) for f in STEP_FUNCTIONS.values())
        out = {
            "optimizers.steps": steps,
            "optimizers.bookkeeping_s": self._self("run_replicate") + self._self("run_optimizer"),
            "optimizers.anticipated_loss_us": self._per_call_us("anticipated_loss"),
            "optimizers.loss_evals_per_step": self._calls("evaluate") / steps if steps else 0.0,
            "optimizers.diverged": count["diverged"],
            "losses.evaluate_calls": self._calls("evaluate"),
            "losses.evaluate_s": self._total("evaluate"),
            "losses.evaluate_many_rows": count["evaluate_many_rows"],
            "losses.evaluate_many_s": self._total("evaluate_many"),
            "losses.gradient_many_s": self._total("gradient_many"),
            "losses.generate_stream_s": self._total("generate_stream"),
            "losses.stream_bytes": count["stream_bytes"],
            "perturbation.sample_s": self._total("sample"),
            "perturbation.accept_ratio":
                count["accepted"] / count["proposed"] if count["proposed"] else 0.0,
            "core.generator_calls": self._calls("generator"),
            "core.generator_s": self._total("generator"),
            "spiking.trials": count["trials"],
            "spiking.run_trial_us": self._per_call_us("run_trial"),
            "spiking.parents_calls": self._calls("parents"),
            "spiking.parents_s": self._total("parents"),
            "spiking.next_spike_time_s": self._total("next_spike_time"),
            "spiking.stdp_update_calls": self._calls("stdp_update"),
            "spiking.stdp_update_s": self._total("stdp_update"),
            "spiking.fired_ratio": count["fired"] / count["neurons"] if count["neurons"] else 0.0,
            "spiking.readout_ratio": count["readouts"] / count["trials"] if count["trials"] else 0.0,
            "verification.sweep_gaussians": count["sweep_gaussians"],
        }
        for method, function in STEP_FUNCTIONS.items():
            out[f"optimizers.step_us.{method}"] = self._per_call_us(function)
        per_check = dict.fromkeys(check_names, 0.0)
        for report, seconds in self.check_reports:
            per_check[report.name] += seconds
        for name, seconds in per_check.items():
            out[f"verification.check_s.{name}"] = seconds
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self._self(key) for key, owner in self.layer_of.items() if owner == layer)
        return out
