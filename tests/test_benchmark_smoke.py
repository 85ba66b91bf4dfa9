"""Smoke test of the benchmark worker against this checkout.

`benchmarks/worker.py` reaches the library through its public names, the
traced `CfSearch.alphas` method and the `harness.CHECKS` entries it wraps to
time each check.  Running one pass of the two cheapest workloads here makes
a change that breaks the benchmark fail the unit tests first.  The `phase-space` pass at variant 5 guards the frozen marginal
masses, which the `marginal-energy` rhs magnifies several hundredfold, so a
one-ulp drift in the spectrogram marginals fails it.  It runs traced and
counts the moment evaluations, so a check that recomputes `cf_bound`'s
factors fails it too.  The `refine` pass at variant 0 (about 2 s) checks the
n = 65536 `cf_bound` scan, and every other default check but
`marginal-energy` at n = 8192 to 65536, against the frozen values.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from uplab.harness import CHECKS

ROOT = Path(__file__).resolve().parents[1]


def run_worker(*args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "worker.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout)


def test_traced_suite_pass_matches_the_reference(tmp_path):
    result = run_worker("--workload", "suite", "--spans", str(tmp_path / "spans.npz"))
    assert result["failed"] == 0, result["failures"]
    assert "bounds.CfSearch.alphas" in result["spans"]
    # the worker times each check by wrapping its CHECKS entry in place
    for check_id in CHECKS:
        assert result["spans"][f"harness.check.{check_id}"]["calls"] > 0, check_id


def test_operators_pass_matches_the_reference():
    result = run_worker("--workload", "operators", "--variant", "0")
    assert result["failed"] == 0, result["failures"]


def test_conditioning_sensitive_phase_space_pass_matches_the_reference(tmp_path):
    result = run_worker("--workload", "phase-space", "--variant", "5", "--spans", str(tmp_path / "spans.npz"))
    assert result["failed"] == 0, result["failures"]
    # 5 per scenario: local-energy, the two support checks and spread-product's
    # two spreads; the signal-adapted checks take every moment from cf_bound's scan
    assert result["spans"]["concentration.weighted_moment_norm"]["calls"] == 15


def test_n65536_refine_pass_matches_the_reference():
    result = run_worker("--workload", "refine", "--variant", "0")
    assert result["failed"] == 0, result["failures"]
