"""Scenario-driven verification: signals, concentration sets, inequality checks.

A scenario names a grid, a signal, a pair of concentration sets (given
explicitly or grown automatically for requested defects), bound parameters,
and a list of checks.  Running it produces one verdict per check:

======================  ======================================================
check id                inequality verified
======================  ======================================================
ds-product              |T||Omega| >= (1 - eps_T - eps_Omega)^2
optimized-product       |T||Omega| >= sup_r (1-eps)^r (r/(r-1))^(2d(r-1)),
                        with eps certified by the energies of the smoothed
                        concentration operators L1, L2
marginal-energy         same optimized bound, with eps certified by
                        spectrogram-marginal masses on T and Omega (witness
                        g = f), streamed in row blocks with one Gabor pass
                        per distinct window
local-energy            spectral energy in Omega <= K(d,alpha,q) |Omega|
                        ||f||_q^(2-e) |||t|^alpha f||_q^e, e = 2d/(alpha q')
signal-product          |T||Omega| >= C_f (1 - eps_T - eps_Omega)^2 at the
                        best searched witness for the signal-adapted C_f
separate-time           |T| >= its signal-adapted lower bound
separate-freq           |Omega| >= its signal-adapted lower bound
spread-product          Delta f * Delta fhat >= (1-eps_T^2)(1-eps_Omega^2)
                        ||f||_2^2 / (4 pi^2 |T||Omega|)
support-time            |supp f| * moment(fhat)^(1/alpha) >= ||f||_2^(1/a)/K
support-freq            the mirror form on supp fhat
smoothing-time          ||L1 f - P f||_2 strictly decreases along the
                        lam1 sweep (P = sharp time projection)
smoothing-freq          ||L2 f - Q f||_2 strictly decreases along the
                        lam2 sweep (Q = sharp frequency projection)
======================  ======================================================

Hypothesis violations produce skipped verdicts; internal errors produce
failed verdicts carrying the error text — a run never raises mid-report.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import bounds
from .concentration import (
    MaskSet,
    concentration_defect,
    mask_from_flags,
    minimal_concentration_set,
    std_dev,
)
from .core import (
    FREQUENCY,
    TIME,
    Grid,
    Signal,
    boundary_energy_fraction,
    energy,
    fourier,
    make_grid,
    norm_lq,
    read_signal_csv,
    signal_from_samples,
)
from .operators import apply_freq_symbol, apply_time_symbol, gaussian_smoothed_indicator
from .report import (
    Report,
    Verdict,
    build_summary,
    failed_verdict,
    make_verdict,
    skipped_verdict,
)
from .transforms import gaussian_window, spectrogram_marginals


class ScenarioError(ValueError):
    """A scenario file or description that cannot be run."""


# ---------------------------------------------------------------------------
# signal generation
# ---------------------------------------------------------------------------

SIGNAL_KINDS = (
    "gaussian",
    "hermite",
    "chirp",
    "indicator",
    "modulated_gaussian",
    "random_bandlimited",
    "csv",
)


def _unit(grid: Grid, values: np.ndarray) -> Signal:
    values = np.asarray(values, dtype=np.complex128)
    scale = math.sqrt(float(grid.dx) * float(np.sum(np.abs(values) ** 2)))
    if scale == 0.0 or not np.isfinite(scale):
        raise ScenarioError("generated signal has zero or non-finite energy")
    return signal_from_samples(grid, values / scale, TIME)


def _require_params(kind: str, params: dict, allowed: dict) -> dict:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown parameters for kind {kind!r}: {sorted(unknown)}")
    merged = dict(allowed)
    merged.update(params)
    return merged


def generate_signal(kind: str, params: dict, grid: Grid) -> Signal:
    """Deterministic unit-energy time signal of the named kind.

    A parameter that does not convert to the number the kind needs raises
    ScenarioError like any other bad value.
    """
    try:
        return _generate_signal(kind, dict(params or {}), grid)
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"bad parameters for signal kind {kind!r}: {exc}") from exc


def _generate_signal(kind: str, params: dict, grid: Grid) -> Signal:
    t = grid.times
    if kind == "gaussian":
        p = _require_params(kind, params, {"lam": 1.0})
        lam = float(p["lam"])
        if lam <= 0:
            raise ScenarioError(f"gaussian width parameter must be positive, got {lam}")
        return _unit(grid, (2.0 * lam) ** 0.25 * np.exp(-math.pi * lam * t**2))
    if kind == "hermite":
        p = _require_params(kind, params, {"k": 0})
        k = int(p["k"])
        if k < 0 or k != p["k"]:
            raise ScenarioError(f"hermite index must be a nonnegative integer, got {p['k']!r}")
        if k > 170:
            raise ScenarioError(f"hermite index {k} is above 170, where 2^k k! overflows a double")
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        poly = np.polynomial.hermite.hermval(math.sqrt(2.0 * math.pi) * t, coeffs)
        scale = 2.0**0.25 / math.sqrt(2.0**k * math.factorial(k))
        return _unit(grid, scale * poly * np.exp(-math.pi * t**2))
    if kind == "chirp":
        p = _require_params(kind, params, {"rate": 2.0})
        rate = float(p["rate"])
        return _unit(grid, 2.0**0.25 * np.exp(-math.pi * t**2) * np.exp(1j * math.pi * rate * t**2))
    if kind == "indicator":
        p = _require_params(kind, params, {"lo": -1.0, "hi": 1.0})
        lo, hi = float(p["lo"]), float(p["hi"])
        flags = (t >= lo) & (t < hi)
        if not flags.any():
            raise ScenarioError(f"indicator window [{lo}, {hi}) contains no grid point")
        return _unit(grid, flags.astype(np.complex128))
    if kind == "modulated_gaussian":
        p = _require_params(kind, params, {"lam": 1.0, "omega0": 1.0})
        lam, omega0 = float(p["lam"]), float(p["omega0"])
        if lam <= 0:
            raise ScenarioError(f"gaussian width parameter must be positive, got {lam}")
        base = (2.0 * lam) ** 0.25 * np.exp(-math.pi * lam * t**2)
        return _unit(grid, base * np.exp(2j * math.pi * omega0 * t))
    if kind == "random_bandlimited":
        p = _require_params(kind, params, {"seed": 0, "band": 2.0})
        band = float(p["band"])
        if band <= 0:
            raise ScenarioError(f"band half-width must be positive, got {band}")
        rng = np.random.default_rng(int(p["seed"]))
        spectrum = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        flags = np.abs(grid.freqs) <= band
        if not flags.any():
            raise ScenarioError(f"band half-width {band} selects no frequency bin")
        shaped = signal_from_samples(grid, spectrum * flags, FREQUENCY)
        return _unit(grid, fourier(shaped, "inverse").samples)
    if kind == "csv":
        p = _require_params(kind, params, {"path": None})
        if not p["path"]:
            raise ScenarioError("csv signal kind requires a 'path' parameter")
        try:
            sig = read_signal_csv(p["path"])
        except OSError as exc:
            raise ScenarioError(f"cannot read signal file {p['path']}: {exc}") from exc
        if sig.domain != TIME:
            raise ScenarioError("csv signal must be sampled in the time domain")
        if sig.grid.n != grid.n or not math.isclose(sig.grid.dx, grid.dx, rel_tol=1e-12):
            raise ScenarioError(
                f"csv grid (n={sig.grid.n}, dx={sig.grid.dx}) does not match "
                f"the scenario grid (n={grid.n}, dx={grid.dx})"
            )
        return _unit(grid, sig.samples)
    raise ScenarioError(f"unknown signal kind {kind!r}; expected one of {SIGNAL_KINDS}")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

DEFAULT_CHECKS = (
    "ds-product",
    "optimized-product",
    "marginal-energy",
    "local-energy",
    "signal-product",
    "separate-time",
    "separate-freq",
    "spread-product",
    "support-time",
    "support-freq",
)
SMOOTHING_CHECKS = ("smoothing-time", "smoothing-freq")

BOUND_DEFAULTS = {
    "alpha": 1.0,
    "q": 2.0,
    "alpha_support": 1.0,
    "lam1": 1.0,
    "lam2": 1.0,
    "lam1_sweep": (1.0, 4.0, 16.0, 64.0),
    "lam2_sweep": (1.0, 0.25, 0.0625, 0.015625),
}

DEFAULT_TOLERANCE = 1e-6
DEFAULT_TOLERANCES = {"smoothing-time": 1e-10, "smoothing-freq": 1e-10}

# checks whose right side involves grid-truncated weighted moments
_MOMENT_CHECKS = frozenset(
    {"local-energy", "signal-product", "separate-time", "separate-freq",
     "spread-product", "support-time", "support-freq"}
)


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    return _is_number(x) and math.isfinite(x)


def _is_window(w) -> bool:
    return isinstance(w, (list, tuple)) and len(w) == 2 and all(map(_is_number, w)) and w[0] < w[1]


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible verification run."""

    name: str
    grid_n: int = 256
    grid_dx: float = 1.0 / 16.0
    signal_kind: str = "gaussian"
    signal_params: dict = field(default_factory=dict)
    sets: dict = field(default_factory=lambda: {"mode": "auto", "eps_t": 0.1, "eps_omega": 0.1})
    bound_params: dict = field(default_factory=dict)
    checks: tuple = DEFAULT_CHECKS
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ScenarioError("scenario needs a nonempty name")
        try:
            make_grid(self.grid_n, self.grid_dx)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad grid: {exc}") from exc
        if not isinstance(self.checks, (list, tuple)):
            raise ScenarioError(f"checks must be a list of check ids, got {self.checks!r}")
        object.__setattr__(self, "checks", tuple(self.checks))
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ScenarioError(f"unknown checks {unknown}; known: {sorted(CHECKS)}")
        if self.signal_kind not in SIGNAL_KINDS:
            raise ScenarioError(f"unknown signal kind {self.signal_kind!r}")
        mode = self.sets.get("mode")
        if mode == "auto":
            for key in ("eps_t", "eps_omega"):
                e = self.sets.get(key)
                if not (_is_number(e) and 0.0 <= e <= 1.0):
                    raise ScenarioError(f"auto sets need {key} in [0, 1], got {e!r}")
        elif mode == "explicit":
            for key in ("time", "frequency"):
                windows = self.sets.get(key)
                if not (isinstance(windows, (list, tuple)) and windows and all(map(_is_window, windows))):
                    raise ScenarioError(
                        f"explicit sets need a nonempty list of {key} windows [lo, hi), got {windows!r}"
                    )
        else:
            raise ScenarioError(f"sets mode must be 'auto' or 'explicit', got {mode!r}")
        for key, value in self.bound_params.items():
            if key not in BOUND_DEFAULTS:
                raise ScenarioError(f"unknown bound parameter {key!r}; known: {sorted(BOUND_DEFAULTS)}")
            if isinstance(BOUND_DEFAULTS[key], tuple):
                ok = isinstance(value, (list, tuple)) and all(map(_is_finite, value))
                kind = "a list of finite numbers"
            else:
                ok, kind = _is_finite(value), "a finite number"
            if not ok:
                raise ScenarioError(f"bound parameter {key!r} must be {kind}, got {value!r}")
        for check_id, tol in self.tolerances.items():
            if check_id not in CHECKS:
                raise ScenarioError(f"tolerance for unknown check {check_id!r}")
            if not (_is_finite(tol) and tol > 0):
                raise ScenarioError(f"tolerance for {check_id!r} must be a finite positive number, got {tol!r}")

    def tolerance(self, check_id: str) -> float:
        if check_id in self.tolerances:
            return float(self.tolerances[check_id])
        return DEFAULT_TOLERANCES.get(check_id, DEFAULT_TOLERANCE)

    def bound_param(self, key: str):
        if key in self.bound_params:
            return self.bound_params[key]
        return BOUND_DEFAULTS[key]


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "name": s.name,
        "grid": {"n": s.grid_n, "dx": s.grid_dx},
        "signal": {"kind": s.signal_kind, "params": dict(s.signal_params)},
        "sets": dict(s.sets),
        "bound_params": dict(s.bound_params),
        "checks": list(s.checks),
        "tolerances": dict(s.tolerances),
    }


def _json_object(value, where: str) -> dict:
    # a JSON list of pairs would pass dict(...), so the type is checked first
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a JSON object, got {type(value).__name__}")
    return dict(value)


def scenario_from_dict(data: dict) -> Scenario:
    data = _json_object(data, "scenario")
    known = {"name", "grid", "signal", "sets", "bound_params", "checks", "tolerances"}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown scenario fields {sorted(unknown)}")
    if "name" not in data:
        raise ScenarioError("scenario needs a 'name' field")
    grid = _json_object(data.get("grid", {}), "grid")
    signal = _json_object(data.get("signal", {}), "signal")
    try:
        n = grid.get("n", 256)
        if int(n) != n:
            raise ScenarioError(f"grid.n must be an integer, got {n!r}")
        dx = grid.get("dx", 1.0 / 16.0)
        if not (_is_finite(dx) and dx > 0):
            raise ScenarioError(f"grid.dx must be a finite positive number, got {dx!r}")
        return Scenario(
            name=data["name"],
            grid_n=int(n),
            grid_dx=float(dx),
            signal_kind=signal.get("kind", "gaussian"),
            signal_params=_json_object(signal.get("params", {}), "signal.params"),
            sets=_json_object(data.get("sets", {"mode": "auto", "eps_t": 0.1, "eps_omega": 0.1}), "sets"),
            bound_params=_json_object(data.get("bound_params", {}), "bound_params"),
            checks=data.get("checks", DEFAULT_CHECKS),
            tolerances=_json_object(data.get("tolerances", {}), "tolerances"),
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def save_scenario(s: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def bundled_scenario_names() -> tuple:
    root = resources.files("uplab").joinpath("scenarios")
    return tuple(sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json")))


def bundled_scenario(name: str) -> Scenario:
    root = resources.files("uplab").joinpath("scenarios")
    candidate = root.joinpath(f"{name}.json")
    if not candidate.is_file():
        raise ScenarioError(f"no bundled scenario {name!r}; available: {list(bundled_scenario_names())}")
    return scenario_from_dict(json.loads(candidate.read_text(encoding="utf-8")))


def standard_suite(eps_values=(0.05, 0.1, 0.25), grid_n: int = 256, grid_dx: float = 1.0 / 16.0) -> tuple:
    """The bundled verification corpus: seven signals crossed with defect levels."""
    kinds = (
        ("gaussian", "gaussian", {"lam": 1.0}),
        ("hermite1", "hermite", {"k": 1}),
        ("chirp", "chirp", {"rate": 2.0}),
        ("indicator", "indicator", {"lo": -1.0, "hi": 1.0}),
        ("bandlimited3", "random_bandlimited", {"seed": 3, "band": 2.0}),
        ("bandlimited5", "random_bandlimited", {"seed": 5, "band": 2.0}),
        ("bandlimited7", "random_bandlimited", {"seed": 7, "band": 2.0}),
    )
    out = []
    for label, kind, params in kinds:
        for eps in eps_values:
            checks = DEFAULT_CHECKS + (SMOOTHING_CHECKS if kind == "gaussian" else ())
            out.append(
                Scenario(
                    name=f"{label}-eps{int(round(eps * 100)):03d}",
                    grid_n=grid_n,
                    grid_dx=grid_dx,
                    signal_kind=kind,
                    signal_params=dict(params),
                    sets={"mode": "auto", "eps_t": eps, "eps_omega": eps},
                    checks=checks,
                )
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass
class _RunContext:
    scenario: Scenario
    grid: Grid
    f: Signal
    fhat: Signal
    mask_t: MaskSet
    mask_w: MaskSet
    eps_t: float
    eps_omega: float
    _cf: bounds.BoundValue | None = None

    def cf(self) -> bounds.BoundValue:
        if self._cf is None:
            self._cf = bounds.cf_bound(self.f, self.fhat)
        return self._cf

    def measures(self) -> tuple[float, float]:
        return self.mask_t.measure, self.mask_w.measure

    def tol(self, check_id: str) -> float:
        return self.scenario.tolerance(check_id)

    def param(self, key: str):
        return self.scenario.bound_param(key)


def _windows_to_mask(grid: Grid, axis: str, windows) -> MaskSet:
    ax = grid.axis(axis)
    flags = np.zeros(grid.n, dtype=bool)
    for lo, hi in windows:
        flags |= (ax >= float(lo)) & (ax < float(hi))
    if not flags.any():
        raise ScenarioError(f"explicit {axis} set covers no grid cell")
    return mask_from_flags(grid, axis, flags)


def _resolve_sets(s: Scenario, f: Signal, fhat: Signal):
    if s.sets["mode"] == "auto":
        eps_t, eps_omega = float(s.sets["eps_t"]), float(s.sets["eps_omega"])
        mask_t = minimal_concentration_set(f, eps_t).mask
        mask_w = minimal_concentration_set(fhat, eps_omega).mask
        return mask_t, mask_w, eps_t, eps_omega
    mask_t = _windows_to_mask(f.grid, TIME, s.sets["time"])
    mask_w = _windows_to_mask(f.grid, FREQUENCY, s.sets["frequency"])
    return mask_t, mask_w, concentration_defect(f, mask_t), concentration_defect(fhat, mask_w)


def _masked_energy(sig: Signal, mask: MaskSet) -> float:
    return float(mask.grid.spacing(mask.axis) * np.sum(np.abs(sig.samples[mask.flags]) ** 2))


def _diff_norm(a: Signal, b: Signal) -> float:
    return math.sqrt(float(a.spacing * np.sum(np.abs(a.samples - b.samples) ** 2)))


def _certified_eps(value: float) -> float:
    return math.sqrt(1.0 - min(max(value, 0.0), 1.0))


def _check_ds_product(ctx: _RunContext) -> Verdict:
    s = ctx.eps_t + ctx.eps_omega
    if s >= 1.0:
        return skipped_verdict("ds-product", f"hypothesis violated: eps_t + eps_omega = {s:.6g} >= 1")
    mt, mw = ctx.measures()
    return make_verdict(
        "ds-product",
        mt * mw,
        bounds.ds_bound(ctx.eps_t, ctx.eps_omega),
        ctx.tol("ds-product"),
        notes=f"eps_t={ctx.eps_t:.6g} eps_omega={ctx.eps_omega:.6g}",
    )


def _check_optimized_product(ctx: _RunContext) -> Verdict:
    lam1, lam2 = float(ctx.param("lam1")), float(ctx.param("lam2"))
    l1 = gaussian_smoothed_indicator(ctx.mask_t, lam1)
    l2 = gaussian_smoothed_indicator(ctx.mask_w, lam2)
    total = energy(ctx.f)
    eps_t = _certified_eps(energy(apply_time_symbol(l1, ctx.f)) / total)
    eps_w = _certified_eps(energy(apply_freq_symbol(l2, ctx.f)) / total)
    s = eps_t + eps_w
    if s >= 1.0:
        return skipped_verdict(
            "optimized-product",
            f"hypothesis violated: smoothed-operator energies certify eps_t + eps_omega = {s:.6g} >= 1",
        )
    bv = bounds.improved_bound(eps_t, eps_w)
    mt, mw = ctx.measures()
    return make_verdict(
        "optimized-product",
        mt * mw,
        bv.value,
        ctx.tol("optimized-product"),
        notes=f"certified eps_t={eps_t:.6f} eps_omega={eps_w:.6f} r={bv.witness['r']:.4f}",
    )


def _check_marginal_energy(ctx: _RunContext) -> Verdict:
    lam1, lam2 = float(ctx.param("lam1")), float(ctx.param("lam2"))
    time_profile, freq_profile = spectrogram_marginals(ctx.f, gaussian_window(lam1, ctx.grid))
    if lam2 != lam1:
        _, freq_profile = spectrogram_marginals(ctx.f, gaussian_window(lam2, ctx.grid))
    m_t = min(abs(complex(ctx.grid.dx * np.sum(time_profile[ctx.mask_t.flags]))), 1.0)
    m_w = min(abs(complex(ctx.grid.dw * np.sum(freq_profile[ctx.mask_w.flags]))), 1.0)
    eps_t = math.sqrt(1.0 - m_t**2)
    eps_w = math.sqrt(1.0 - m_w**2)
    s = eps_t + eps_w
    if s >= 1.0:
        return skipped_verdict(
            "marginal-energy",
            f"hypothesis violated: marginal masses certify eps_t + eps_omega = {s:.6g} >= 1",
        )
    mt, mw = ctx.measures()
    return make_verdict(
        "marginal-energy",
        mt * mw,
        bounds.improved_bound(eps_t, eps_w).value,
        ctx.tol("marginal-energy"),
        notes=f"witness g=f; marginal masses m_t={m_t:.6f} m_omega={m_w:.6f}",
    )


def _check_local_energy(ctx: _RunContext) -> Verdict:
    alpha, q = float(ctx.param("alpha")), float(ctx.param("q"))
    if q <= 1.0 or not alpha > 1.0 / bounds.conjugate_exponent(q):
        return skipped_verdict("local-energy", f"infeasible parameters: need q > 1 and alpha > d/q' (alpha={alpha:g}, q={q:g})")
    rhs_bound = bounds.price_rhs(
        norm_lq(ctx.f, q),
        bounds.weighted_moment_norm(ctx.f, 0.0, alpha, q),
        ctx.mask_w.measure,
        1,
        alpha,
        q,
    )
    return make_verdict(
        "local-energy",
        rhs_bound,
        _masked_energy(ctx.fhat, ctx.mask_w),
        ctx.tol("local-energy"),
        notes=f"upper bound on spectral energy in the frequency set (alpha={alpha:g}, q={q:g})",
    )


def _check_signal_product(ctx: _RunContext) -> Verdict:
    s = ctx.eps_t + ctx.eps_omega
    if s > 1.0:
        return skipped_verdict("signal-product", f"hypothesis violated: eps_t + eps_omega = {s:.6g} > 1")
    cf = ctx.cf()
    w = cf.witness
    mt, mw = ctx.measures()
    return make_verdict(
        "signal-product",
        mt * mw,
        cf.value * (1.0 - s) ** 2,
        ctx.tol("signal-product"),
        notes=(
            f"witness q1={w['q1']:g} alpha1={w['alpha1']:.4g} "
            f"q2={w['q2']:g} alpha2={w['alpha2']:.4g}"
        ),
    )


def _check_separate(ctx: _RunContext, which: str) -> Verdict:
    lb_t, lb_w = bounds.separate_measure_bounds(ctx.f, ctx.fhat, ctx.eps_t, ctx.eps_omega, ctx.cf().witness)
    mt, mw = ctx.measures()
    if which == "separate-time":
        return make_verdict(which, mt, lb_t, ctx.tol(which))
    return make_verdict(which, mw, lb_w, ctx.tol(which))


def _check_spread_product(ctx: _RunContext) -> Verdict:
    mt, mw = ctx.measures()
    if mt <= 0 or mw <= 0:
        return skipped_verdict("spread-product", "hypothesis violated: a concentration set has zero measure")
    rhs = bounds.delta_bound(ctx.f, ctx.fhat, mt, mw, ctx.eps_t, ctx.eps_omega)
    floor = bounds.heisenberg_floor(ctx.f)
    interesting = mt * mw <= (1.0 - ctx.eps_t**2) * (1.0 - ctx.eps_omega**2) / math.pi
    notes = (
        f"dimensional floor {floor:.6g} "
        + ("below" if floor <= rhs else "exceeds")
        + " the concentration bound; small-measure condition "
        + ("met" if interesting else "not met")
    )
    lhs = std_dev(ctx.f, 0.0) * std_dev(ctx.fhat, 0.0)
    return make_verdict("spread-product", lhs, rhs, ctx.tol("spread-product"), notes=notes)


def _check_support(ctx: _RunContext, axis: str) -> Verdict:
    check_id = "support-time" if axis == TIME else "support-freq"
    return bounds.mixed_bound_check(
        ctx.f, ctx.fhat, float(ctx.param("alpha_support")), axis=axis, rel_tol=ctx.tol(check_id)
    )


def _sharp_time_projection(ctx: _RunContext) -> Signal:
    return signal_from_samples(ctx.grid, ctx.f.samples * ctx.mask_t.flags, TIME)


def _sharp_freq_projection(ctx: _RunContext) -> Signal:
    masked = signal_from_samples(ctx.grid, ctx.fhat.samples * ctx.mask_w.flags, FREQUENCY)
    return fourier(masked, "inverse")


def _check_smoothing(ctx: _RunContext, check_id: str) -> Verdict:
    if check_id == "smoothing-time":
        sweep = tuple(float(x) for x in ctx.param("lam1_sweep"))
        sharp = _sharp_time_projection(ctx)
        smoothed = [
            apply_time_symbol(gaussian_smoothed_indicator(ctx.mask_t, lam), ctx.f) for lam in sweep
        ]
    else:
        sweep = tuple(float(x) for x in ctx.param("lam2_sweep"))
        sharp = _sharp_freq_projection(ctx)
        smoothed = [
            apply_freq_symbol(gaussian_smoothed_indicator(ctx.mask_w, lam), ctx.f) for lam in sweep
        ]
    if len(sweep) < 2:
        return skipped_verdict(check_id, "sweep needs at least two kernel widths")
    errors = [_diff_norm(lf, sharp) for lf in smoothed]
    drops = [errors[i] - errors[i + 1] for i in range(len(errors) - 1)]
    trail = " -> ".join(f"{e:.3e}" for e in errors)
    return make_verdict(
        check_id,
        min(drops),
        0.0,
        ctx.tol(check_id),
        notes=f"projection errors along the sweep: {trail}",
    )


CHECKS = {
    "ds-product": _check_ds_product,
    "optimized-product": _check_optimized_product,
    "marginal-energy": _check_marginal_energy,
    "local-energy": _check_local_energy,
    "signal-product": _check_signal_product,
    "separate-time": lambda ctx: _check_separate(ctx, "separate-time"),
    "separate-freq": lambda ctx: _check_separate(ctx, "separate-freq"),
    "spread-product": _check_spread_product,
    "support-time": lambda ctx: _check_support(ctx, TIME),
    "support-freq": lambda ctx: _check_support(ctx, FREQUENCY),
    "smoothing-time": lambda ctx: _check_smoothing(ctx, "smoothing-time"),
    "smoothing-freq": lambda ctx: _check_smoothing(ctx, "smoothing-freq"),
}


def run_scenario(s: Scenario) -> Report:
    """Evaluate every requested check once; errors become failed verdicts."""
    grid = make_grid(s.grid_n, s.grid_dx)
    f = generate_signal(s.signal_kind, s.signal_params, grid)
    fhat = fourier(f, "forward")
    mask_t, mask_w, eps_t, eps_omega = _resolve_sets(s, f, fhat)
    heavy = boundary_energy_fraction(f) > 1e-6 or boundary_energy_fraction(fhat) > 1e-6
    ctx = _RunContext(
        scenario=s,
        grid=grid,
        f=f,
        fhat=fhat,
        mask_t=mask_t,
        mask_w=mask_w,
        eps_t=eps_t,
        eps_omega=eps_omega,
    )
    verdicts = []
    for check_id in dict.fromkeys(s.checks):
        try:
            v = CHECKS[check_id](ctx)
        except Exception as exc:  # noqa: BLE001 - every failure must land in the report
            v = failed_verdict(check_id, f"error: {exc}")
        if heavy and check_id in _MOMENT_CHECKS:
            note = "truncation-sensitive" if not v.notes else v.notes + "; truncation-sensitive"
            v = replace(v, notes=note)
        verdicts.append(v)
    verdicts.sort(key=lambda v: v.check_id)
    return Report(
        scenario=s.name,
        grid={"n": grid.n, "dx": grid.dx},
        verdicts=tuple(verdicts),
        summary=build_summary(verdicts),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
