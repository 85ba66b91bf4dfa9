"""The uplab benchmark.

    python3 benchmarks/run.py --workload suite --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 30 --trace 0

Each sample is one worker process (worker.py) that imports uplab, builds the
workload's inputs and runs one pass over its items, checking every output
against reference.json.  A fresh process per pass gives set-up time and the
pass's peak resident memory as they are for a user, with no tracing.

--trace 0 starts workers one after another until the next one would end
after --seconds (at least two), and reports the end-to-end metrics of
BENCHMARK.json as medians over them.  --trace 1 runs one plain and one
traced worker and reports the per-layer metrics from the traced one, plus
the tracing overhead.  Every metric is printed by name with its unit; a
result file with the environment and the raw samples goes to
benchmarks/results/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Exit codes: 0 all outputs correct, 1 a wrong output or failed worker,
2 the uplab sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
MIN_SAMPLES = 2
# a run must end within 180 s; no worker is started or kept past this
RUN_LIMIT_S = 170.0


def worker(workload: str, variant: int, deadline: float, spans: Path | None = None) -> dict:
    """Run one worker process; a crash or timeout becomes a failed sample."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: at most nproc, and the timings do not depend on the other CPU being idle
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--variant", str(variant)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "worker timed out", "child_s": time.monotonic() - started}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"ok": False, "error": f"worker exited {proc.returncode}: {tail}", "child_s": time.monotonic() - started}
    sample = json.loads(lines[-1])
    sample.update(ok=True, child_s=time.monotonic() - started)
    return sample


def layer_metric(name: str, totals: dict) -> float:
    """Resolve a per-layer metric name of BENCHMARK.json against span totals."""
    if name == "bounds.alphas_calls_per_cf_bound":
        cf = totals.get("bounds.cf_bound", {}).get("calls", 0)
        return totals.get("bounds.CfSearch.alphas", {}).get("calls", 0) / cf if cf else 0.0
    base, _, field = name.rpartition(".")
    if base in SPEC["layers"]:
        return sum(t[field] for label, t in totals.items() if label.startswith(base + "."))
    return totals.get(base, {}).get(field, 0)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, bench: dict) -> dict:
    variant = seed % SPEC["variants"]
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    samples = []
    if trace:
        samples.append(worker(workload, variant, deadline))
        samples.append(worker(workload, variant, deadline, HERE / "results" / f"spans-{workload}-seed{seed}.npz"))
    else:
        while True:
            samples.append(worker(workload, variant, deadline))
            elapsed = time.monotonic() - began
            if len(samples) >= MIN_SAMPLES and elapsed + samples[-1]["child_s"] > min(seconds, RUN_LIMIT_S):
                break
    good = [s for s in samples if s["ok"]]
    attempted = sum(s["attempted"] for s in good) + len(samples) - len(good)
    failed = sum(s["failed"] for s in good) + len(samples) - len(good)
    failures = [s["error"] for s in samples if not s["ok"]] + [f for s in good for f in s["failures"]]

    metrics = {}
    if trace and len(good) == 2:
        totals = good[1]["spans"]
        for m in bench["per_layer"]:
            if m["name"] == "trace.overhead_s":
                value = good[1]["wall_s"] - good[0]["wall_s"]
            else:
                value = layer_metric(m["name"], totals)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    elif not trace and good:
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(s[m["name"]] for s in good), "unit": m["unit"]}
    return {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "trace": int(trace),
        "seconds": seconds,
        "samples": len(good),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "metrics": metrics,
        "env": dict(good[0]["env"] if good else {}, cpu_affinity=len(os.sched_getaffinity(0))),
        "raw": [{k: v for k, v in s.items() if k not in ("env", "spans")} for s in samples],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="uplab benchmark: time to verdict end to end, per-module spans")
    parser.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "uplab" / "__init__.py").is_file():
        print(f"error: no uplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    compileall.compile_dir(ROOT / "src" / "uplab", quiet=1)
    (HERE / "results").mkdir(exist_ok=True)

    workloads = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace), bench)
        results.append(res)
        out = HERE / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
        for name, m in res["metrics"].items():
            print(f"{workload:12s} {name:45s} {m['value']:.6g} {m['unit']}")
        print(f"{workload:12s} {'fail_ratio':45s} {res['fail_ratio']:.6g} ({res['failed']}/{res['attempted']}, "
              f"{res['samples']} samples)")
        for f in res["failures"]:
            print(f"{workload:12s} FAILED {f}", file=sys.stderr)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    correct = failed == 0 and all(r["metrics"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
