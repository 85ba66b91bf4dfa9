"""Command line front end.

Subcommands:

* ``run <scenario>``  — run a scenario file (or bundled scenario name) and
  print one line per verdict; optional JSON/CSV report output.
* ``bounds``          — print the optimized product lower bound for a defect
  pair.
* ``constants``       — print any closed-form constant as JSON.
* ``selftest``        — run the built-in invariant suite.

Exit codes:

* 0 — success;
* 1 — a failed verdict or a failed selftest identity;
* 2 — any refusal: a malformed scenario or argument, a grid too large to
  allocate, or a report file that cannot be written.  Each refusal prints
  one ``error:`` line on stderr; ``main`` is the one place that makes it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from . import bounds as bounds_mod
from .core import TIME, _quadrature_energy, energy, fourier, make_grid, signal_from_samples
from .harness import (
    Scenario,
    ScenarioError,
    bundled_scenario,
    bundled_scenario_names,
    generate_signal,
    load_scenario,
    run_scenario,
)
from .report import write_report_json, write_verdicts_csv
from .transforms import gabor_transform, gaussian_window, marginals, tf_norm_lp, wigner


def _cmd_run(args) -> int:
    # os.path.isfile is False for a name the system rejects (one past the
    # length limit, say), where Path.is_file raises before Python 3.14
    if os.path.isfile(args.scenario):
        scenario = load_scenario(args.scenario)
    elif args.scenario in bundled_scenario_names():
        scenario = bundled_scenario(args.scenario)
    else:
        raise ScenarioError(
            f"no scenario file or bundled scenario named {args.scenario!r}; "
            f"bundled: {list(bundled_scenario_names())}"
        )
    # checks that raise become failed verdicts; only the setup (signal, sets) raises here
    report = run_scenario(scenario)
    for v in report.verdicts:
        if v.status == "skipped":
            print(f"SKIP {v.check_id}: {v.notes}")
        else:
            line = (
                f"{v.status.upper():4s} {v.check_id}: lhs={v.lhs:.6g} rhs={v.rhs:.6g} "
                f"margin={v.margin:.3g}"
            )
            if v.notes:
                line += f" ({v.notes})"
            print(line)
    summary = report.summary
    print(
        f"{report.scenario}: {summary['pass']} passed, {summary['fail']} failed, "
        f"{summary['skipped']} skipped"
    )
    if args.out:
        write_report_json(report, args.out)
        print(f"report written to {args.out}")
    if args.csv:
        write_verdicts_csv(report, args.csv)
        print(f"verdict table written to {args.csv}")
    return 1 if report.failed else 0


def _cmd_bounds(args) -> int:
    value = bounds_mod.improved_bound(args.eps_t, args.eps_omega, args.dim)
    print(f"{value.value:.7f}")
    return 0


# each constant's command-line parameters and its evaluator, which takes them by name
_CONSTANTS = {
    "k1": (("d", "alpha"), partial(bounds_mod.price_k, q=2.0)),
    "ktilde": (("d", "alpha", "q"), bounds_mod.price_ktilde),
    "lieb": (("d", "p"), bounds_mod.lieb_constant),
    "locop": (("d", "q"), bounds_mod.locop_constant),
}


def _cmd_constants(args) -> int:
    names, evaluate = _CONSTANTS[args.which]
    params = {name: getattr(args, name) for name in names}
    missing = [f"--{name}" for name, v in params.items() if v is None]
    if missing:
        raise ValueError(f"constant {args.which} needs {' and '.join(missing)}")
    value = evaluate(**params)
    clean = {k: "inf" if v == math.inf else v for k, v in params.items()}
    print(json.dumps({"name": args.which, "params": clean, "value": value}, sort_keys=True, allow_nan=False))
    return 0


def _selftest_checks(n: int, seed: int):
    grid = make_grid(n, 1.0 / 16.0)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    f = signal_from_samples(grid, noise, TIME)

    def fourier_round_trip():
        back = fourier(fourier(f))
        err = math.sqrt(_quadrature_energy(f.samples - back.samples, grid.dx))
        assert err <= 1e-10 * math.sqrt(energy(f)), f"round-trip error {err:.3e}"

    def parseval():
        lhs, rhs = energy(f), energy(fourier(f))
        assert abs(lhs - rhs) <= 1e-10 * lhs, f"energy mismatch {lhs} vs {rhs}"

    def gabor_energy():
        w = gaussian_window(1.0, grid)
        v = gabor_transform(f, w)
        lhs = tf_norm_lp(v, 2.0)
        rhs = math.sqrt(energy(f)) * math.sqrt(energy(w))
        assert abs(lhs - rhs) <= 1e-8 * rhs, f"transform energy {lhs} vs {rhs}"

    def wigner_marginal():
        g = generate_signal("gaussian", {"lam": 1.0}, grid)
        marg = marginals(wigner(g))[0]
        target = np.abs(g.samples) ** 2
        err = float(np.max(np.abs(marg - target)))
        assert err <= 1e-6, f"marginal error {err:.3e}"

    def bound_dominance():
        for eps_t in (0.0, 0.1, 0.3):
            for eps_w in (0.0, 0.2, 0.4):
                got = bounds_mod.improved_bound(eps_t, eps_w).value
                ref = bounds_mod.ds_bound(eps_t, eps_w)
                assert got >= ref - 1e-12, f"dominance failed at ({eps_t}, {eps_w})"

    def price_consistency():
        for d, alpha, exact in ((1, 1.0, 2.0 * math.pi), (2, 2.0, math.pi**2)):
            got = bounds_mod.price_k(d, alpha, 2.0)
            assert abs(got - exact) <= 1e-12 * exact, f"K({d}, {alpha}, 2) = {got!r}, closed form {exact!r}"

    def scenario_run():
        s = Scenario(name="selftest-gaussian", grid_n=n, grid_dx=1.0 / 16.0)
        report = run_scenario(s)
        assert report.failed == 0, f"{report.failed} failed verdicts"

    return [
        ("fourier-round-trip", fourier_round_trip),
        ("parseval", parseval),
        ("gabor-energy", gabor_energy),
        ("wigner-marginal", wigner_marginal),
        ("bound-dominance", bound_dominance),
        ("price-consistency", price_consistency),
        ("scenario-run", scenario_run),
    ]


def _cmd_selftest(args) -> int:
    if args.n < 64 or args.n % 2:
        raise ValueError("selftest needs an even grid size of at least 64")
    if args.seed < 0:
        raise ValueError(f"selftest needs a nonnegative seed, got {args.seed}")
    checks = _selftest_checks(args.n, args.seed)  # allocates the n-sample probe signal
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - selftest reports, never crashes
            failures += 1
            print(f"FAIL {name}: error: {exc}")
        else:
            print(f"ok   {name}")
    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or bundled scenario name")
    p_run.add_argument("scenario", help="path to a scenario JSON file, or a bundled name")
    p_run.add_argument("--out", help="write the full JSON report here")
    p_run.add_argument("--csv", help="write the verdict table as CSV here")
    p_run.set_defaults(func=_cmd_run)

    p_bounds = sub.add_parser("bounds", help="optimized product lower bound for a defect pair")
    p_bounds.add_argument("--eps-t", type=float, required=True)
    p_bounds.add_argument("--eps-omega", type=float, required=True)
    p_bounds.add_argument("--dim", type=int, default=1)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_const = sub.add_parser("constants", help="print a closed-form constant as JSON")
    p_const.add_argument("--which", choices=tuple(_CONSTANTS), required=True)
    p_const.add_argument("--d", type=int, default=1)
    p_const.add_argument("--alpha", type=float, default=None)
    p_const.add_argument("--q", type=float, default=None)
    p_const.add_argument("--p", type=float, default=None)
    p_const.set_defaults(func=_cmd_constants)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suite")
    p_self.add_argument("--n", type=int, default=256)
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # ScenarioError and HypothesisError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
