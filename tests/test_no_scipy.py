"""The package runs on numpy alone; scipy is only the tests' oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    code = ("import sys, spikezero, spikezero.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    result = run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_verify_quick_passes_with_scipy_unimportable(tmp_path):
    # a None entry in sys.modules makes every `import scipy` raise ImportError
    out = tmp_path / "report.json"
    code = ("import sys; sys.modules['scipy'] = None; "
            "from spikezero.cli import main; "
            f"sys.exit(main(['verify', '--config', {str(REPO_ROOT / 'configs' / 'verify_quick.json')!r}, "
            f"'--out', {str(out)!r}]))")
    result = run_python(code, tmp_path)
    assert result.returncode == 0, result.stderr
    reports = json.loads(out.read_text())
    assert len(reports) == 7
    assert all(r["pass"] for r in reports)
