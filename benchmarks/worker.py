"""One benchmark pass of one workload, in a fresh interpreter.

    python3 benchmarks/worker.py --workload suite --variant 3 [--spans out.npz]

imports uplab, builds the workload's inputs (timed together as set-up), runs
every item once (the pass), checks every output against reference.json and
prints one JSON object as its last line of standard output.  With --spans
the pass runs with every public uplab function wrapped (see spans.py); the
span totals go into the JSON and the raw spans into the named file.

    python3 benchmarks/worker.py --freeze LABEL

runs every item of every variant and rewrites reference.json.  run.py starts
the workers; the freeze is run by hand, against the commit the reference is
meant to describe.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
TOL = SPEC["tolerances"]
REFERENCE = HERE / "reference.json"
NOTE_VALUE = re.compile(r"([A-Za-z_]\w*)=([-+]?(?:inf|nan|\d[\d.]*(?:e[-+]?\d+)?))")

# numpy and uplab are imported inside the timed set-up, not here
np = None
U = None


def import_library() -> None:
    global np, U
    import numpy
    import uplab
    import uplab.cli

    if not Path(uplab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"uplab was imported from {uplab.__file__}, not from this checkout's src/")
    np, U = numpy, uplab


# ---------------------------------------------------------------------------
# outputs in a comparable form
# ---------------------------------------------------------------------------


def _finite(x):
    return float(x) if x is not None and math.isfinite(x) else None


def verdict_record(status, lhs, rhs, notes) -> dict:
    return {
        "status": status,
        "lhs": _finite(lhs),
        "rhs": _finite(rhs),
        "notes": dict(NOTE_VALUE.findall(notes or "")),
        "truncation_sensitive": "truncation-sensitive" in (notes or ""),
    }


def _close(a, b, rel: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def scenario_failures(got: dict, ref: dict) -> tuple[int, list]:
    """(operations, failures): one operation per check id in either record."""
    ids = sorted(set(got) | set(ref))
    out = []
    for cid in ids:
        g, r = got.get(cid), ref.get(cid)
        if g is None or r is None:
            out.append(f"{cid}: {'missing' if g is None else 'not in the reference'}")
        elif g["status"] == "fail":
            out.append(f"{cid}: status fail {g['notes']}")
        elif g["status"] != r["status"]:
            out.append(f"{cid}: status {g['status']}, reference {r['status']}")
        elif not (_close(g["lhs"], r["lhs"], TOL["scenario_rel"]) and _close(g["rhs"], r["rhs"], TOL["scenario_rel"])):
            out.append(f"{cid}: lhs/rhs {g['lhs']!r}/{g['rhs']!r}, reference {r['lhs']!r}/{r['rhs']!r}")
        elif g["notes"] != r["notes"] or g["truncation_sensitive"] != r["truncation_sensitive"]:
            out.append(f"{cid}: note values {g['notes']} (truncation-sensitive={g['truncation_sensitive']}), "
                       f"reference {r['notes']} ({r['truncation_sensitive']})")
    return len(ids), out


def operator_failures(got: dict, ref: dict) -> tuple[int, list]:
    """(operations, failures): route agreement, four norm bounds, norm, smoothed operators."""
    out = []
    if not (got["route_gap"] <= TOL["route_gap_max"] and ref["route_gap"] <= TOL["route_gap_max"]):
        out.append(f"route gap {got['route_gap']:.3e} (reference {ref['route_gap']:.3e}) exceeds {TOL['route_gap_max']}")
    for q, slack in zip(SPEC["workloads"]["operators"]["norm_bound_q"], got["norm_bound_slack"]):
        if not slack >= -TOL["norm_bound_slack"]:
            out.append(f"norm bound at q={q}: relative slack {slack:.3e}")
    if not _close(got["norm"], ref["norm"], TOL["operator_norm_rel"]):
        out.append(f"operator norm {got['norm']!r}, reference {ref['norm']!r}")
    if not all(_close(got[k], ref[k], TOL["operator_frobenius_rel"]) for k in ("l1_fro", "l2_fro")):
        out.append(f"smoothed operators {got['l1_fro']!r}/{got['l2_fro']!r}, reference {ref['l1_fro']!r}/{ref['l2_fro']!r}")
    return 7, out


# ---------------------------------------------------------------------------
# items: each returns (seconds spent in the library, output record)
# ---------------------------------------------------------------------------


def scenario_item(scenario):
    def run():
        t0 = time.perf_counter()
        report = U.run_scenario(scenario)
        elapsed = time.perf_counter() - t0
        return elapsed, {v.check_id: verdict_record(v.status, v.lhs, v.rhs, v.notes) for v in report.verdicts}

    return run, scenario_failures


def cli_item(name: str, scratch: Path):
    def run():
        out, table = scratch / f"{name}.json", scratch / f"{name}.csv"
        argv = [a.replace("<name>", name).replace("<json>", str(out)).replace("<csv>", str(table))
                for a in SPEC["workloads"]["suite"]["cli_argv"]]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = U.cli.main(argv)
            elapsed = time.perf_counter() - t0
        verdicts = json.loads(out.read_text())["verdicts"]
        with table.open(newline="") as fh:
            rows = {row["check"]: row["status"] for row in csv.DictReader(fh)}
        record = {}
        for v in verdicts:
            status = v["status"] if rows.get(v["check"]) == v["status"] else "csv row disagrees"
            if code not in (0, 1):
                status = f"exit code {code}"
            record[v["check"]] = verdict_record(status, v["lhs"], v["rhs"], v["notes"])
        return elapsed, record

    return run, scenario_failures


def operator_item(n: int, window: str, variant: int):
    spec = SPEC["workloads"]["operators"]
    grid = U.make_grid(n, _dx(spec, n))
    rng = np.random.default_rng([variant, n])
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dist = np.minimum(np.arange(n), n - np.arange(n)) ** 2
    symbol = U.tfmatrix_from_values(grid, np.fft.ifft2(np.fft.fft2(raw) * np.exp(-0.1 * np.add.outer(dist, dist))))
    t = grid.times
    if window == "gaussian":
        phi = psi = U.signal_from_samples(grid, 2.0**0.25 * np.exp(-np.pi * t**2))
    else:
        phi, psi = (_noise_window(grid, rng) for _ in range(2))
    mask_t = U.mask_from_flags(grid, U.TIME, np.abs(t) < 1.0)
    mask_w = U.mask_from_flags(grid, U.FREQUENCY, np.abs(grid.freqs) < 1.0)
    qs = [float(q) for q in spec["norm_bound_q"]]

    def run():
        t0 = time.perf_counter()
        direct = U.localization_operator(symbol, phi, psi)
        routed = U.weyl_from_localization(symbol, phi, psi)
        gap = float(np.max(np.abs(direct.matrix - routed.matrix)))
        norm = U.operator_norm(direct)
        slack = []
        for q in qs:
            rhs = U.locop_constant(q, 1) * U.tf_norm_lp(symbol, q)
            slack.append((rhs - norm) / max(rhs, 1.0))
        l1, l2 = U.smoothed_concentration_ops(mask_t, mask_w, spec["lam1"], spec["lam2"])
        fro = (float(np.linalg.norm(l1.matrix)), float(np.linalg.norm(l2.matrix)))
        elapsed = time.perf_counter() - t0
        return elapsed, {"norm": norm, "route_gap": gap, "norm_bound_slack": slack, "l1_fro": fro[0], "l2_fro": fro[1]}

    return run, operator_failures


def _noise_window(grid, rng):
    spec = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    spec[np.abs(np.fft.fftfreq(grid.n)) > 0.25] = 0.0
    v = np.fft.ifft(spec) * np.exp(-np.pi * grid.times**2 / 4.0)
    return U.signal_from_samples(grid, v / (np.linalg.norm(v) * math.sqrt(grid.dx)))


def _dx(spec: dict, n: int) -> float:
    return spec["dx"] if "dx" in spec else math.sqrt(spec["n_dx2"] / n)


def _signal_scenarios(spec: dict, variant: int):
    for n in spec["n"]:
        for sig in spec["signals"]:
            params = dict(sig["params"])
            label = sig["label"]
            if sig.get("seeded"):
                params["seed"] = variant
                label = f"{label}-v{variant}"
            name = f"{label}-n{n}"
            yield name, U.Scenario(
                name=name,
                grid_n=n,
                grid_dx=_dx(spec, n),
                signal_kind=sig["kind"],
                signal_params=params,
                sets=dict(spec["sets"]),
                checks=tuple(spec["checks"]) + tuple(sig.get("extra_checks", ())),
            )


def build_items(workload: str, variant: int, scratch: Path) -> list:
    """[(item id, run, failures)] for one pass; inputs depend only on the variant."""
    spec = SPEC["workloads"][workload]
    if workload == "suite":
        items = [(s.name, *scenario_item(s)) for s in U.standard_suite(grid_n=spec["n"][0], grid_dx=spec["dx"])]
        items += [(f"cli-{name}", *cli_item(name, scratch)) for name in spec["cli_scenarios"]]
        return items
    if workload == "operators":
        return [(f"n{n}-{w}-v{variant}", *operator_item(n, w, variant)) for n in spec["n"] for w in spec["windows"]]
    return [(name, *scenario_item(s)) for name, s in _signal_scenarios(spec, variant)]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_pass(workload: str, variant: int, spans_path: str | None) -> dict:
    t0 = time.perf_counter()
    import_library()
    scratch = HERE / "results" / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    items = build_items(workload, variant, scratch)
    setup_s = time.perf_counter() - t0

    reference = json.loads(REFERENCE.read_text())["items"]
    tracer = None
    if spans_path:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer, SPEC["layers"])
    attempted, failures, times = 0, [], []
    try:
        for index, (item_id, run, compare) in enumerate(items):
            ref = reference.get(f"{workload}/{item_id}")
            if tracer is not None:
                tracer.current_item = index
            try:
                elapsed, output = run()
            except Exception as exc:  # noqa: BLE001 - a raising item is a counted failure, not a crash
                ops = compare(ref, ref)[0] if ref is not None else 1
                attempted += ops
                failures += [f"{item_id}: raised {type(exc).__name__}: {exc}"] * ops
                continue
            times.append(elapsed)
            if ref is None:
                attempted += 1
                failures.append(f"{item_id}: no frozen reference")
                continue
            ops, bad = compare(output, ref)
            attempted += ops
            failures += [f"{item_id}: {b}" for b in bad]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "setup_s": setup_s,
        "wall_s": sum(times),
        "item_s": times,
        "items": len(items),
        "peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "env": environment(),
    }
    if tracer is not None:
        result["spans"] = tracer.totals()
        tracer.write(spans_path)
    return result


def freeze(label: str) -> None:
    import_library()
    scratch = HERE / "results" / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    frozen = {}
    try:
        for workload, spec in SPEC["workloads"].items():
            variants = range(SPEC["variants"]) if spec["seeded"] else (0,)
            for variant in variants:
                for item_id, run, _ in build_items(workload, variant, scratch):
                    key = f"{workload}/{item_id}"
                    if key not in frozen:
                        frozen[key] = run()[1]
                        print(key, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    payload = {"frozen_from": label, "items": frozen}
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--spans", help="trace the pass and write its spans to this .npz file")
    parser.add_argument("--freeze", metavar="LABEL", help="rewrite reference.json, recording LABEL as its origin")
    args = parser.parse_args()
    if args.freeze:
        freeze(args.freeze)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run_pass(args.workload, args.variant, args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
