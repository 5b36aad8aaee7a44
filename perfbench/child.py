"""One spikezero CLI invocation in a fresh interpreter, with its phase times.

    python3 child.py RESULT_JSON TRACE -- CLI_ARGS...

Writes to RESULT_JSON the CLOCK_MONOTONIC instants at which
``spikezero.cli`` finished importing and ``spikezero.cli.main`` started and
returned, main's return code and the imported package's location.

With TRACE 0 a ``SpeedProbe`` samples the host's speed on this process's
own CPU throughout, and its samples are written too (see ``SpeedProbe``).
With TRACE 1 there is no probe; the package is wrapped by
``layertrace.Tracer`` before main runs, and the per-layer metrics and spans
are written instead. The exit code is main's.
"""

import math
import signal
import sys
import time

PROBE_PERIOD_S = 0.02
PROBE_BULK_ELEMENTS = 1 << 19


class SpeedProbe:
    """Times a fixed piece of work every PROBE_PERIOD_S while the program runs.

    Other tenants of a shared host slow this process by up to 2x, for
    seconds to minutes at a time. The probe runs on the same CPU at the same
    moments as the program, so its sample times track that slowdown. A
    SIGALRM handler runs between the program's bytecodes and times one of two
    kinds of work in turn: an ``interpreted`` Python float/dict loop, and,
    once ``enable_bulk`` has run, a ``bulk`` numpy reduction of a 4 MB array.
    Each sample is (kind, start, seconds) on CLOCK_MONOTONIC. The runner
    subtracts the samples from the phase they fall in and scales the phase by
    the mean sample time.
    """

    def __init__(self):
        self.samples = []
        self._array = None
        self._tick = 0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def enable_bulk(self):
        # only once the program has imported numpy: a handler must not
        # import a module the program may be importing itself
        import numpy as np
        self._array = np.ones(PROBE_BULK_ELEMENTS)

    def _sample(self, signum, frame):
        self._tick += 1
        start = time.monotonic()
        if self._array is not None and self._tick % 2 == 0:
            self._array.sum()
            self._array.sum()
            kind = "bulk"
        else:
            acc, last = 0.0, {}
            for k in range(3000):
                acc += math.exp(-k * 1e-6)
                last[k & 63] = acc
            kind = "interpreted"
        self.samples.append((kind, start, time.monotonic() - start))


def run(result_path, trace, argv):
    probe = None if trace else SpeedProbe()
    if probe is not None:
        probe.start()
    import spikezero.cli as cli
    imported = time.monotonic()

    import json
    tracer = None
    if trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        probe.enable_bulk()
    start = time.monotonic()
    code = cli.main(argv)
    end = time.monotonic()
    if probe is not None:
        probe.stop()
    result = {"imported": imported, "start": start, "end": end, "code": code,
              "package": cli.__file__}
    if tracer is not None:
        from workloads import CHECKS
        result["layers"] = tracer.metrics(CHECKS)
        result["spans"] = tracer.spans
    else:
        result["probe"] = probe.samples
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--" or sys.argv[2] not in ("0", "1"):
        sys.exit("usage: child.py RESULT_JSON TRACE(0|1) -- CLI_ARGS...")
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[4:]))
