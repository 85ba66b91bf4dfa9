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
                        g = f), streamed in row blocks with at most one
                        Gabor pass per distinct window, over the window
                        shifts that meet f; |V_w f|^2 is formed as
                        conj(v) * v on the rows of T and the columns of
                        Omega only, so its rounding does not depend on the
                        array size
local-energy            spectral energy in Omega <= K(d,alpha,q) |Omega|
                        ||f||_q^(2-e) |||t|^alpha f||_q^e, e = 2d/(alpha q')
signal-product          |T||Omega| >= C_f (1 - eps_T - eps_Omega)^2 at the
                        best searched witness for the signal-adapted C_f
separate-time           |T| >= its signal-adapted lower bound, from the
                        factors of signal-product's C_f search
separate-freq           |Omega| >= its signal-adapted lower bound, likewise
spread-product          Delta f * Delta fhat >= (1-eps_T^2)(1-eps_Omega^2)
                        ||f||_2^2 / (4 pi^2 |T||Omega|)
support-time            |supp f| * moment(fhat)^(1/alpha) >= ||f||_2^(1/a)/K,
                        both sides from bounds.support_moment_sides
support-freq            the mirror form on supp fhat
smoothing-time          ||L1 f - P f||_2 strictly decreases along the
                        lam1 sweep (P = sharp time projection)
smoothing-freq          ||L2 f - Q f||_2 strictly decreases along the
                        lam2 sweep (Q = sharp frequency projection)
======================  ======================================================

Each check's facts sit in one CheckRecord of CHECK_TABLE, and CHECKS maps its
id to the record's evaluator: a run context to (lhs, rhs, notes) for lhs >= rhs;
`bounds` computes the sides, each once per run, and is the one place that
decides a theorem's hypothesis: a bound whose hypothesis fails raises
`bounds.HypothesisError`, and the checks test none of them themselves.  Two
rules belong to the harness alone, signal-product's eps_T + eps_Omega <= 1
and a smoothing sweep of at least two widths; they raise the same error.
`run_scenario` is the one place that judges: it makes the verdict at the
scenario's tolerance for that check, turns a HypothesisError into a skipped
verdict noted "hypothesis violated: <its message>", and any other error (a
non-finite side among them) into a failed verdict carrying the error text —
a run never raises mid-report.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property, partial
from importlib import resources
from pathlib import Path

import numpy as np
import numpy.random  # numpy loads submodules on first use; load this one with the library

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
    _quadrature_energy,
    boundary_energy_fraction,
    energy,
    fourier,
    make_grid,
    read_signal_csv,
    signal_from_samples,
)
from .operators import SmoothedSymbol, apply_freq_symbol, gaussian_smoothed_indicator
from .report import Report, make_verdict, unjudged_verdict
from .transforms import gaussian_window, spectrogram_masses


class ScenarioError(ValueError):
    """A scenario file or description that cannot be run."""


_FLOAT_MAX = sys.float_info.max
_TYPE_NAMES = {float: "a finite number", int: "an integer", str: "a string", tuple: "a JSON list"}


def _typed(where: str, value, default):
    """value cast to the JSON type of default; anything else raises ScenarioError.

    A float default takes a finite number that is not a boolean, an int
    default an integer-valued one, a string default a string, a tuple
    default a list of items typed by default[0], and a dict default a JSON
    object of keys of default, each typed by its entry.  None takes anything.
    """
    if default is None:
        return value
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ScenarioError(f"{where} must be a JSON object, got {value!r}")
        unknown = [key for key in value if key not in default]
        if unknown:
            raise ScenarioError(f"unknown keys {unknown} in {where}; known: {sorted(default)}")
        return {key: _typed(f"{where}.{key}", item, default[key]) for key, item in value.items()}
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)):
            return tuple(_typed(f"{where}[{i}]", item, default[0]) for i, item in enumerate(value))
    elif isinstance(default, str):
        if isinstance(value, str):
            return value
    # abs(value) <= _FLOAT_MAX is false for nan and the infinities, and exact for ints past the float range
    elif isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX:
        if isinstance(default, float):
            return float(value)
        if value == int(value):
            return int(value)
    raise ScenarioError(f"{where} must be {_TYPE_NAMES[type(default)]}, got {value!r}")


# ---------------------------------------------------------------------------
# signal generation
# ---------------------------------------------------------------------------

# each kind's parameters; a default also fixes the type of its parameter
SIGNAL_DEFAULTS = {
    "gaussian": {"lam": 1.0},
    "hermite": {"k": 0},
    "chirp": {"rate": 2.0},
    "indicator": {"lo": -1.0, "hi": 1.0},
    "modulated_gaussian": {"lam": 1.0, "omega0": 1.0},
    "random_bandlimited": {"seed": 0, "band": 2.0},
    "csv": {"path": ""},
}
SIGNAL_KINDS = tuple(SIGNAL_DEFAULTS)


def _signal_params(kind, params) -> dict:
    """The given params of a known signal kind, typed by that kind's defaults."""
    if _typed("signal.kind", kind, "") not in SIGNAL_DEFAULTS:
        raise ScenarioError(f"unknown signal kind {kind!r}; expected one of {SIGNAL_KINDS}")
    return _typed("signal.params", params, SIGNAL_DEFAULTS[kind])


def _unit(grid: Grid, values: np.ndarray) -> Signal:
    values = np.asarray(values, dtype=np.complex128)
    scale = math.sqrt(_quadrature_energy(values, grid.dx))
    if scale == 0.0 or not np.isfinite(scale):
        raise ScenarioError("generated signal has zero or non-finite energy")
    return signal_from_samples(grid, values / scale, TIME)


def generate_signal(kind: str, params: dict, grid: Grid) -> Signal:
    """Deterministic unit-energy time signal of the named kind.

    params sets any of the kind's keys in SIGNAL_DEFAULTS to a value of its
    default's type; any other key or value raises ScenarioError.
    """
    given = _signal_params(kind, params)
    p = SIGNAL_DEFAULTS[kind] | given
    try:
        t = grid.times
    except (ValueError, MemoryError) as exc:
        raise ScenarioError(f"a grid of {grid.n} samples is too large: {exc}") from exc
    if kind in ("gaussian", "modulated_gaussian"):
        lam = p["lam"]
        if lam <= 0:
            raise ScenarioError(f"gaussian width parameter must be positive, got {lam}")
        values = (2.0 * lam) ** 0.25 * np.exp(-math.pi * lam * t**2)
        if kind == "modulated_gaussian":
            values = values * np.exp(2j * math.pi * p["omega0"] * t)
        return _unit(grid, values)
    if kind == "hermite":
        k = p["k"]
        if not 0 <= k <= 170:
            raise ScenarioError(f"hermite index must be in [0, 170], where k! stays a double, got {k}")
        scale = 2.0**0.25 / math.sqrt(2.0**k) / math.sqrt(math.factorial(k))
        x2 = 2.0 * math.sqrt(2.0 * math.pi) * t
        with np.errstate(over="ignore", invalid="ignore"):  # H_k past the double range: _unit refuses it
            h_prev, h = 0.0, np.ones_like(x2)
            for m in range(k):  # H_{m+1}(x) = 2x H_m(x) - 2m H_{m-1}(x)
                h_prev, h = h, x2 * h - (2.0 * m) * h_prev
            return _unit(grid, scale * h * np.exp(-math.pi * t**2))
    if kind == "chirp":
        return _unit(grid, 2.0**0.25 * np.exp(-math.pi * t**2) * np.exp(1j * math.pi * p["rate"] * t**2))
    if kind == "indicator":
        lo, hi = p["lo"], p["hi"]
        flags = (t >= lo) & (t < hi)
        if not flags.any():
            raise ScenarioError(f"indicator window [{lo}, {hi}) contains no grid point")
        return _unit(grid, flags.astype(np.complex128))
    if kind == "random_bandlimited":
        seed, band = p["seed"], p["band"]
        if band <= 0:
            raise ScenarioError(f"band half-width must be positive, got {band}")
        if seed < 0:
            raise ScenarioError(f"random_bandlimited seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        spectrum = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        flags = np.abs(grid.freqs) <= band
        if not flags.any():
            raise ScenarioError(f"band half-width {band} selects no frequency bin")
        shaped = signal_from_samples(grid, spectrum * flags, FREQUENCY)
        return _unit(grid, fourier(shaped).samples)
    # kind == "csv"
    path = p["path"]
    if not path:
        raise ScenarioError("csv signal kind requires a 'path' parameter")
    try:
        sig = read_signal_csv(path)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read signal file {path}: {exc}") from exc
    if sig.domain != TIME:
        raise ScenarioError("csv signal must be sampled in the time domain")
    if sig.grid.n != grid.n or not math.isclose(sig.grid.dx, grid.dx, rel_tol=1e-12):
        raise ScenarioError(
            f"csv grid (n={sig.grid.n}, dx={sig.grid.dx}) does not match "
            f"the scenario grid (n={grid.n}, dx={grid.dx})"
        )
    return _unit(grid, sig.samples)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

BOUND_DEFAULTS = {
    "alpha": 1.0,
    "q": 2.0,
    "alpha_support": 1.0,
    "lam1": 1.0,
    "lam2": 1.0,
    "lam1_sweep": (1.0, 4.0, 16.0, 64.0),
    "lam2_sweep": (1.0, 0.25, 0.0625, 0.015625),
}

_GRID_DEFAULTS = {"n": 256, "dx": 1.0 / 16.0}
# the keys of both sets modes; the explicit windows have no default, their entries give the type
_SET_TYPES = {"mode": "auto", "eps_t": 0.1, "eps_omega": 0.1, "time": ((-1.0, 1.0),), "frequency": ((-1.0, 1.0),)}
_SET_KEYS = {"auto": {"mode", "eps_t", "eps_omega"}, "explicit": {"mode", "time", "frequency"}}


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible verification run.

    Construction stores each value cast to the JSON type of its default, or
    raises ScenarioError: a scenario built in Python meets the file's rule.
    """

    name: str
    grid_n: int = _GRID_DEFAULTS["n"]
    grid_dx: float = _GRID_DEFAULTS["dx"]
    signal_kind: str = "gaussian"
    signal_params: dict = field(default_factory=dict)
    sets: dict = field(default_factory=lambda: {"mode": "auto", "eps_t": 0.1, "eps_omega": 0.1})
    bound_params: dict = field(default_factory=dict)
    checks: tuple = field(default_factory=lambda: DEFAULT_CHECKS)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        store = partial(object.__setattr__, self)
        store("name", _typed("name", self.name, ""))
        if not self.name:
            raise ScenarioError("scenario needs a nonempty name")
        store("grid_n", _typed("grid.n", self.grid_n, _GRID_DEFAULTS["n"]))
        store("grid_dx", _typed("grid.dx", self.grid_dx, _GRID_DEFAULTS["dx"]))
        try:
            make_grid(self.grid_n, self.grid_dx)
        except ValueError as exc:
            raise ScenarioError(f"bad grid: {exc}") from exc
        store("signal_params", _signal_params(self.signal_kind, self.signal_params))
        store("checks", _typed("checks", self.checks, DEFAULT_CHECKS))
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ScenarioError(f"unknown checks {unknown}; known: {sorted(CHECKS)}")
        store("sets", _typed("sets", self.sets, _SET_TYPES))
        mode = self.sets.get("mode")
        if mode not in _SET_KEYS:
            raise ScenarioError(f"sets mode must be 'auto' or 'explicit', got {mode!r}")
        if set(self.sets) != _SET_KEYS[mode]:
            raise ScenarioError(f"{mode} sets need exactly the keys {sorted(_SET_KEYS[mode])}, got {sorted(self.sets)}")
        if mode == "auto":
            for key in ("eps_t", "eps_omega"):
                if not 0.0 <= self.sets[key] <= 1.0:
                    raise ScenarioError(f"auto sets need {key} in [0, 1], got {self.sets[key]!r}")
        else:
            for key in ("time", "frequency"):
                windows = self.sets[key]
                if not (windows and all(len(w) == 2 and w[0] < w[1] for w in windows)):
                    raise ScenarioError(
                        f"explicit sets need a nonempty list of {key} windows [lo, hi), got {windows!r}"
                    )
        store("bound_params", _typed("bound_params", self.bound_params, BOUND_DEFAULTS))
        for key in ("lam1", "lam2", "lam1_sweep", "lam2_sweep"):
            widths = self.bound_param(key)
            if not np.all(np.asarray(widths) > 0):
                raise ScenarioError(f"bound_params.{key} takes positive smoothing widths only, got {widths!r}")
        store("tolerances", _typed("tolerances", self.tolerances, TOLERANCE_DEFAULTS))
        for check_id, tol in self.tolerances.items():
            default = TOLERANCE_DEFAULTS[check_id]
            if not 0 < tol <= default:
                raise ScenarioError(f"tolerance for {check_id!r} must lie in (0, {default!r}], got {tol!r}")

    def tolerance(self, check_id: str) -> float:
        return self.tolerances.get(check_id, TOLERANCE_DEFAULTS[check_id])

    def bound_param(self, key: str):
        return self.bound_params.get(key, BOUND_DEFAULTS[key])


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


# the layout scenario_to_dict writes; a None entry goes to Scenario as it stands
_FILE_LAYOUT = {
    "name": None,
    "grid": {"n": None, "dx": None},
    "signal": {"kind": None, "params": None},
    "sets": None,
    "bound_params": None,
    "checks": None,
    "tolerances": None,
}


def scenario_from_dict(data: dict) -> Scenario:
    data = _typed("scenario", data, _FILE_LAYOUT)
    if "name" not in data:
        raise ScenarioError("scenario needs a 'name' field")
    # grid.n is the field grid_n, signal.params is signal_params; an absent key keeps its default
    nested = {f"{outer}_{key}": value for outer in ("grid", "signal") for key, value in data.pop(outer, {}).items()}
    return Scenario(**data, **nested)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key raises ScenarioError, where json alone keeps the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioError(f"repeats the JSON key {key!r}")
        data[key] = value
    return data


def _read_scenario(source, where: str) -> Scenario:
    """The scenario in the UTF-8 JSON file source (a Path or a package resource); where names it in errors."""
    try:
        data = json.loads(source.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ScenarioError(f"cannot read {where}: {exc}") from exc
    except ScenarioError as exc:  # a repeated key
        raise ScenarioError(f"{where} {exc}") from None
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise ScenarioError(f"{where} is not UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{where} nests too deeply to parse: {exc}") from exc
    return scenario_from_dict(data)


def load_scenario(path) -> Scenario:
    return _read_scenario(Path(path), f"scenario file {path}")


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
    return _read_scenario(candidate, f"bundled scenario {name}")


def standard_suite(grid_n: int = 256, grid_dx: float = 1.0 / 16.0) -> tuple:
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
        for eps in (0.05, 0.1, 0.25):
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

    @cached_property
    def cf(self) -> bounds.BoundValue:
        return bounds.cf_bound(self.f, self.fhat)

    def measures(self) -> tuple[float, float]:
        return self.mask_t.measure, self.mask_w.measure

    def param(self, key: str):
        return self.scenario.bound_param(key)


def _windows_to_mask(grid: Grid, axis: str, windows) -> MaskSet:
    ax = grid.axis(axis)
    flags = np.zeros(grid.n, dtype=bool)
    for lo, hi in windows:
        flags |= (ax >= lo) & (ax < hi)
    if not flags.any():
        raise ScenarioError(f"explicit {axis} set covers no grid cell")
    return mask_from_flags(grid, axis, flags)


def _resolve_sets(s: Scenario, f: Signal, fhat: Signal):
    if s.sets["mode"] == "auto":
        eps_t, eps_omega = s.sets["eps_t"], s.sets["eps_omega"]
        mask_t = minimal_concentration_set(f, eps_t)
        mask_w = minimal_concentration_set(fhat, eps_omega)
        return mask_t, mask_w, eps_t, eps_omega
    mask_t = _windows_to_mask(f.grid, TIME, s.sets["time"])
    mask_w = _windows_to_mask(f.grid, FREQUENCY, s.sets["frequency"])
    return mask_t, mask_w, concentration_defect(f, mask_t), concentration_defect(fhat, mask_w)


def _certified_eps(value: float) -> float:
    return math.sqrt(1.0 - min(max(value, 0.0), 1.0))


def _check_ds_product(ctx: _RunContext) -> tuple[float, float, str]:
    mt, mw = ctx.measures()
    return mt * mw, bounds.ds_bound(ctx.eps_t, ctx.eps_omega), f"eps_t={ctx.eps_t:.6g} eps_omega={ctx.eps_omega:.6g}"


def _certified_product(ctx: _RunContext, eps_t: float, eps_w: float) -> tuple[float, float, float]:
    """|T||Omega|, improved_bound at a certified defect pair, and the bound's witness r."""
    bv = bounds.improved_bound(eps_t, eps_w)
    mt, mw = ctx.measures()
    return mt * mw, bv.value, bv.witness["r"]


def _projection(ctx: _RunContext, axis: str, lam: float | None) -> np.ndarray:
    """The time samples of L f for the axis's mask smoothed at lam (L1 on TIME, L2 on
    FREQUENCY); at lam=None the sharp projection, through the same symbol route."""
    mask = ctx.mask_t if axis == TIME else ctx.mask_w
    sym = SmoothedSymbol(ctx.grid, axis, mask.flags) if lam is None else gaussian_smoothed_indicator(mask, lam)
    return sym.values * ctx.f.samples if axis == TIME else apply_freq_symbol(sym, ctx.fhat).samples


def _check_optimized_product(ctx: _RunContext) -> tuple[float, float, str]:
    total, dx = energy(ctx.f), ctx.grid.dx
    eps_t = _certified_eps(_quadrature_energy(_projection(ctx, TIME, ctx.param("lam1")), dx) / total)
    eps_w = _certified_eps(_quadrature_energy(_projection(ctx, FREQUENCY, ctx.param("lam2")), dx) / total)
    lhs, rhs, r = _certified_product(ctx, eps_t, eps_w)
    return lhs, rhs, f"certified eps_t={eps_t:.6f} eps_omega={eps_w:.6f} r={r:.4f}"


def _check_marginal_energy(ctx: _RunContext) -> tuple[float, float, str]:
    lam1, lam2 = ctx.param("lam1"), ctx.param("lam2")
    in_t, in_w = ctx.mask_t.flags, ctx.mask_w.flags
    # one pass per distinct window, over both sets: T's mass reads only T's rows, Omega's only Omega's columns
    distinct = dict.fromkeys((lam1, lam2))
    masses = {lam: spectrogram_masses(ctx.f, gaussian_window(lam, ctx.grid), in_t, in_w) for lam in distinct}
    mass_t, mass_w = masses[lam1][0], masses[lam2][1]
    m_t, m_w = min(abs(complex(mass_t)), 1.0), min(abs(complex(mass_w)), 1.0)
    lhs, rhs, _ = _certified_product(ctx, _certified_eps(m_t**2), _certified_eps(m_w**2))
    return lhs, rhs, f"witness g=f; marginal masses m_t={m_t:.6f} m_omega={m_w:.6f}"


def _check_local_energy(ctx: _RunContext) -> tuple[float, float, str]:
    alpha, q = ctx.param("alpha"), ctx.param("q")
    upper = bounds.price_rhs(ctx.f, 0.0, ctx.mask_w.measure, alpha, q)
    notes = f"upper bound on spectral energy in the frequency set (alpha={alpha:g}, q={q:g})"
    return upper, _quadrature_energy(ctx.fhat.samples[ctx.mask_w.flags], ctx.grid.dw), notes


def _check_signal_product(ctx: _RunContext) -> tuple[float, float, str]:
    s = ctx.eps_t + ctx.eps_omega
    if s > 1.0:
        raise bounds.HypothesisError(f"eps_t + eps_omega = {s:.6g} > 1")
    w = ctx.cf.witness
    mt, mw = ctx.measures()
    notes = f"witness q1={w['q1']:g} alpha1={w['alpha1']:.4g} q2={w['q2']:g} alpha2={w['alpha2']:.4g}"
    return mt * mw, ctx.cf.value * (1.0 - s) ** 2, notes


def _check_separate(ctx: _RunContext, axis: str) -> tuple[float, float, str]:
    lb_t, lb_w = bounds.separate_measure_bounds(ctx.eps_t, ctx.eps_omega, ctx.cf.factors)
    mt, mw = ctx.measures()
    return (mt, lb_t, "") if axis == TIME else (mw, lb_w, "")


def _check_spread_product(ctx: _RunContext) -> tuple[float, float, str]:
    mt, mw = ctx.measures()
    rhs = bounds.delta_bound(ctx.f, mt, mw, ctx.eps_t, ctx.eps_omega)
    floor = bounds.heisenberg_floor(ctx.f)
    interesting = mt * mw <= (1.0 - ctx.eps_t**2) * (1.0 - ctx.eps_omega**2) / math.pi
    notes = (
        f"dimensional floor {floor:.6g} "
        + ("below" if floor <= rhs else "exceeds")
        + " the concentration bound; small-measure condition "
        + ("met" if interesting else "not met")
    )
    return std_dev(ctx.f, 0.0) * std_dev(ctx.fhat, 0.0), rhs, notes


def _check_support(ctx: _RunContext, axis: str) -> tuple[float, float, str]:
    return (*bounds.support_moment_sides(ctx.f, ctx.fhat, ctx.param("alpha_support"), axis), "")


def _check_smoothing(ctx: _RunContext, axis: str, sweep_key: str) -> tuple[float, float, str]:
    """Each width's projection error is taken as its L f is built, so one L f is held at a time."""
    sweep = ctx.param(sweep_key)
    if len(sweep) < 2:
        raise bounds.HypothesisError("sweep needs at least two kernel widths")
    sharp = _projection(ctx, axis, None)
    errors = [math.sqrt(_quadrature_energy(_projection(ctx, axis, lam) - sharp, ctx.grid.dx)) for lam in sweep]
    drops = [errors[i] - errors[i + 1] for i in range(len(errors) - 1)]
    trail = " -> ".join(f"{e:.3e}" for e in errors)
    return min(drops), 0.0, f"projection errors along the sweep: {trail}"


@dataclass(frozen=True)
class CheckRecord:
    """A check's facts, written nowhere else: its evaluator, whether it runs by
    default (if not, it is a smoothing check), the relative tolerance it is judged
    at, and whether its right side takes moments the grid truncates, so that a
    signal with energy at the grid's edges flags its verdict truncation-sensitive."""

    evaluate: Callable
    default: bool
    rel_tol: float
    truncation_sensitive: bool


CHECK_TABLE = {
    "ds-product": CheckRecord(_check_ds_product, True, 1e-6, False),
    "optimized-product": CheckRecord(_check_optimized_product, True, 1e-6, False),
    "marginal-energy": CheckRecord(_check_marginal_energy, True, 1e-6, False),
    "local-energy": CheckRecord(_check_local_energy, True, 1e-6, True),
    "signal-product": CheckRecord(_check_signal_product, True, 1e-6, True),
    "separate-time": CheckRecord(lambda ctx: _check_separate(ctx, TIME), True, 1e-6, True),
    "separate-freq": CheckRecord(lambda ctx: _check_separate(ctx, FREQUENCY), True, 1e-6, True),
    "spread-product": CheckRecord(_check_spread_product, True, 1e-6, True),
    "support-time": CheckRecord(lambda ctx: _check_support(ctx, TIME), True, 1e-6, True),
    "support-freq": CheckRecord(lambda ctx: _check_support(ctx, FREQUENCY), True, 1e-6, True),
    "smoothing-time": CheckRecord(lambda ctx: _check_smoothing(ctx, TIME, "lam1_sweep"), False, 1e-10, False),
    "smoothing-freq": CheckRecord(lambda ctx: _check_smoothing(ctx, FREQUENCY, "lam2_sweep"), False, 1e-10, False),
}
# run_scenario calls each evaluator through CHECKS, so a caller may wrap its entries in place
CHECKS = {check_id: record.evaluate for check_id, record in CHECK_TABLE.items()}
DEFAULT_CHECKS = tuple(check_id for check_id, record in CHECK_TABLE.items() if record.default)
SMOOTHING_CHECKS = tuple(check_id for check_id, record in CHECK_TABLE.items() if not record.default)
TOLERANCE_DEFAULTS = {check_id: record.rel_tol for check_id, record in CHECK_TABLE.items()}


def run_scenario(s: Scenario) -> Report:
    """Evaluate every requested check once and judge its sides; skips and errors become verdicts too.

    The verdicts are sorted by check id here, the one place that orders them: the JSON
    and CSV writers and the command line keep the report's order.
    """
    grid = make_grid(s.grid_n, s.grid_dx)
    f = generate_signal(s.signal_kind, s.signal_params, grid)
    fhat = fourier(f)
    ctx = _RunContext(s, grid, f, fhat, *_resolve_sets(s, f, fhat))
    heavy = any(CHECK_TABLE[check_id].truncation_sensitive for check_id in s.checks) and (
        boundary_energy_fraction(f) > 1e-6 or boundary_energy_fraction(fhat) > 1e-6
    )
    verdicts = []
    for check_id in dict.fromkeys(s.checks):
        rel_tol = s.tolerance(check_id)
        try:
            lhs, rhs, notes = CHECKS[check_id](ctx)
            v = make_verdict(check_id, lhs, rhs, rel_tol, notes)
        except bounds.HypothesisError as exc:
            v = unjudged_verdict(check_id, "skipped", f"hypothesis violated: {exc}", rel_tol)
        except Exception as exc:  # noqa: BLE001 - every failure must land in the report
            v = unjudged_verdict(check_id, "fail", f"error: {exc}", rel_tol)
        if heavy and CHECK_TABLE[check_id].truncation_sensitive:
            note = "truncation-sensitive" if not v.notes else v.notes + "; truncation-sensitive"
            v = replace(v, notes=note)
        verdicts.append(v)
    verdicts.sort(key=lambda v: v.check_id)
    return Report(
        scenario=s.name,
        grid={"n": grid.n, "dx": grid.dx},
        verdicts=tuple(verdicts),
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
