"""The benchmark's per-layer tracer still finds every name it wraps."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# install() looks each wrapped name up with getattr, so a name the package
# no longer has raises AttributeError here. The loss classes inherit their
# one-point evaluate from LossFunction; the wrapper must still see the call.
CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from layertrace import Tracer
from spikezero.losses import LeastSquaresLoss
tracer = Tracer()
tracer.install()
assert LeastSquaresLoss([1.0, 2.0]).evaluate([0.0, 0.0]) == 5.0
print(tracer.stats["evaluate"][0], tracer.counters["evaluate_many_rows"])
"""


def test_tracer_install_resolves_every_wrapped_name(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", CODE, str(REPO_ROOT / "perfbench")],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1 1\n"
