"""The runtime needs numpy and the standard library only, and loads all of it at import.

Each test runs in a fresh interpreter, since this one has loaded scipy and
more for the other tests' oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import uplab


def run_python(code: str, *args: str) -> str:
    src = str(Path(uplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return out.stdout.splitlines()[-1]


def test_the_cli_runs_with_scipy_blocked(tmp_path):
    code = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import uplab, uplab.cli
rc = uplab.cli.main(["run", "gaussian-basic", "--out", sys.argv[1]])
print(json.dumps([rc, sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)]))
"""
    out = tmp_path / "report.json"
    rc, loaded = json.loads(run_python(code, str(out)))
    assert rc == 0
    assert loaded == []
    assert json.loads(out.read_text())["summary"]["all_passed"]


def test_a_first_run_loads_no_module():
    # numpy loads numpy.fft, numpy.random and numpy.polynomial on first use,
    # and np.unique loads numpy.ma; none of that may land inside a run's time
    code = """
import json, sys
from uplab import Scenario, run_scenario
before = set(sys.modules)
for s in (Scenario(name="default"), Scenario(name="bandlimited", signal_kind="random_bandlimited"),
          Scenario(name="hermite", signal_kind="hermite")):
    run_scenario(s)
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    assert json.loads(run_python(code)) == []
