"""numpy is the package's one runtime dependency: the CLI runs with scipy unimportable.

scipy stays a test dependency (the independent references of the tables, the
quadratures and the generalized eigensolve), so these tests block it in a
subprocess rather than uninstalling it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# sys.modules[name] = None makes every later `import name` raise ImportError.
WITHOUT_SCIPY = ("import sys; sys.modules['scipy'] = None; from kahlergg.cli import main; "
                 "sys.exit(main(sys.argv[1:]))")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("argv", [["verify", "--config", "configs/torus.json"], ["fubini-check"]],
                         ids=["verify-torus", "fubini-check"])
def test_cli_runs_without_scipy(argv, tmp_path):
    run = _python(WITHOUT_SCIPY, *argv, "--out", str(tmp_path))
    assert run.returncode == 0, run.stderr
    report = next(tmp_path.glob("*_report.json"))
    assert all(r["pass"] for r in json.loads(report.read_text())["reports"])


def test_importing_the_cli_loads_no_scipy():
    run = _python("import sys, kahlergg.cli; "
                  "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
