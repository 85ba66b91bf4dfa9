"""Scenario schema, signal generation, and check-runner tests."""

import contextlib
import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from uplab import (
    DEFAULT_CHECKS,
    SMOOTHING_CHECKS,
    FREQUENCY,
    TIME,
    Scenario,
    ScenarioError,
    boundary_energy_fraction,
    bundled_scenario,
    bundled_scenario_names,
    energy,
    fourier,
    generate_signal,
    inner,
    load_scenario,
    make_grid,
    make_verdict,
    minimal_concentration_set,
    report_to_json,
    run_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    signal_from_samples,
    standard_suite,
    write_signal_csv,
    write_verdicts_csv,
)
from uplab import bounds, concentration, harness, operators
from uplab.cli import main
from uplab.harness import (
    BOUND_DEFAULTS,
    CHECK_TABLE,
    CHECKS,
    SIGNAL_DEFAULTS,
    SIGNAL_KINDS,
    TOLERANCE_DEFAULTS,
    _windows_to_mask,
)


GRID = make_grid(256, 1 / 16)
WIDE_SETS = {"mode": "auto", "eps_t": 0.6, "eps_omega": 0.5}
SWEEP = "hypothesis violated: sweep needs at least two kernel widths"
INFEASIBLE = "hypothesis violated: price_ktilde requires q > 1, got 1.0"


class TestSignalGeneration:
    @pytest.mark.parametrize(
        "kind,params",
        [
            ("gaussian", {"lam": 1.0}),
            ("gaussian", {}),
            ("hermite", {"k": 1}),
            ("hermite", {"k": 3}),
            ("hermite", {"k": 170}),  # 2^k k! overflows from k = 151 on; k! alone does not
            ("chirp", {"rate": 2.0}),
            ("indicator", {"lo": -1.0, "hi": 1.0}),
            ("modulated_gaussian", {"lam": 2.0, "omega0": 1.5}),
            ("random_bandlimited", {"seed": 7, "band": 2.0}),
        ],
    )
    def test_every_kind_is_unit_energy(self, kind, params):
        f = generate_signal(kind, params, GRID)
        assert energy(f) == pytest.approx(1.0, rel=1e-12)

    def test_same_seed_same_samples(self):
        a = generate_signal("random_bandlimited", {"seed": 3, "band": 2.0}, GRID)
        b = generate_signal("random_bandlimited", {"seed": 3, "band": 2.0}, GRID)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = generate_signal("random_bandlimited", {"seed": 4, "band": 2.0}, GRID)
        assert np.max(np.abs(a.samples - c.samples)) > 1e-3

    def test_bandlimited_spectrum_is_confined(self):
        f = generate_signal("random_bandlimited", {"seed": 3, "band": 2.0}, GRID)
        spec = fourier(f)
        outside = np.abs(GRID.freqs) > 2.0
        assert np.max(np.abs(spec.samples[outside])) < 1e-12

    def test_first_hermite_is_odd_and_orthogonal_to_the_gaussian(self):
        h1 = generate_signal("hermite", {"k": 1}, GRID)
        g0 = generate_signal("gaussian", {}, GRID)
        idx = np.arange(GRID.n)
        np.testing.assert_allclose(
            h1.samples[(GRID.n - idx) % GRID.n], -h1.samples, atol=1e-12
        )
        assert abs(inner(h1, g0)) < 1e-10

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 20, 100, 170])
    def test_hermite_recurrence_matches_hermval(self, k):
        # oracle: numpy's Clenshaw sum of the Hermite series with the single coefficient c_k = 1
        t = GRID.times
        scale = 2.0**0.25 / math.sqrt(2.0**k) / math.sqrt(math.factorial(k))
        values = scale * np.polynomial.hermite.hermval(math.sqrt(2.0 * math.pi) * t, [0.0] * k + [1.0])
        values = (values * np.exp(-math.pi * t**2)).astype(complex)
        oracle = values / math.sqrt(GRID.dx * float(np.sum(np.abs(values) ** 2)))
        got = generate_signal("hermite", {"k": k}, GRID).samples
        if k <= 2:
            # H_0 = 1, H_1 = 2x and H_2 = 2x * 2x - 2 round alike on both routes
            np.testing.assert_array_equal(got, oracle)
        else:
            # each route rounds about twice per degree, a product and a difference,
            # so they part by about 4k ulps of the peak
            peak = np.max(np.abs(oracle))
            assert np.max(np.abs(got - oracle)) <= 4 * k * np.finfo(float).eps * peak

    def test_hermite_values_past_the_double_range_are_refused_without_a_warning(self):
        # the grid reaches |t| = 45, where H_150(sqrt(2 pi) t) ~ (2 sqrt(2 pi) 45)^150 ~ 1e353
        grid = make_grid(8192, 1 / math.sqrt(8192))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match="zero or non-finite energy"):
                generate_signal("hermite", {"k": 150}, grid)

    def test_indicator_matches_its_window(self):
        f = generate_signal("indicator", {"lo": -1.0, "hi": 1.0}, GRID)
        inside = (GRID.times >= -1.0) & (GRID.times < 1.0)
        assert np.all(f.samples[~inside] == 0)
        assert np.all(np.abs(f.samples[inside]) > 0)

    def test_csv_kind_reads_back_a_saved_signal(self, tmp_path):
        f = generate_signal("gaussian", {"lam": 2.0}, GRID)
        path = tmp_path / "sig.csv"
        write_signal_csv(f, path)
        back = generate_signal("csv", {"path": str(path)}, GRID)
        np.testing.assert_allclose(back.samples, f.samples, atol=1e-12)

    def test_csv_kind_rejects_grid_mismatch(self, tmp_path):
        f = generate_signal("gaussian", {}, GRID)
        path = tmp_path / "sig.csv"
        write_signal_csv(f, path)
        with pytest.raises(ScenarioError):
            generate_signal("csv", {"path": str(path)}, make_grid(64, 1 / 8))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError):
            generate_signal("wavelet", {}, GRID)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScenarioError):
            generate_signal("gaussian", {"width": 2.0}, GRID)


class TestScenarioSchema:
    def test_dict_round_trip(self):
        s = Scenario(
            name="round-trip",
            grid_n=128,
            grid_dx=0.125,
            signal_kind="chirp",
            signal_params={"rate": 3.0},
            sets={"mode": "auto", "eps_t": 0.2, "eps_omega": 0.05},
            bound_params={"alpha": 2.0},
            checks=("ds-product", "local-energy"),
            tolerances={"ds-product": 1e-8},
        )
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_dict_round_trip_of_every_shipped_scenario(self):
        shipped = standard_suite() + tuple(bundled_scenario(name) for name in bundled_scenario_names())
        for s in shipped:
            assert scenario_from_dict(scenario_to_dict(s)) == s

    @pytest.mark.parametrize(
        "fields",
        [
            {"grid_dx": True},
            {"grid_dx": "0.125"},
            {"name": 5},
            {"signal_kind": "random_bandlimited", "signal_params": {"seed": 2.5}},
            {"bound_params": {"lam1": -1.0}},
            {"bound_params": {"lam2": 0.0}},
            {"bound_params": {"lam1_sweep": [1.0, -4.0]}},
            {"bound_params": {"lam2_sweep": [0.0, 1.0]}},
        ],
        ids=[
            "boolean-grid-spacing", "string-grid-spacing", "numeric-name", "fractional-seed",
            "negative-lam1", "zero-lam2", "negative-sweep-width", "zero-sweep-width",
        ],
    )
    def test_scenario_built_in_python_is_checked_like_a_file(self, fields):
        with pytest.raises(ScenarioError):
            Scenario(**{"name": "python", **fields})

    def test_file_round_trip(self, tmp_path):
        s = Scenario(name="disk")
        path = tmp_path / "scenario.json"
        save_scenario(s, path)
        assert load_scenario(path) == s

    @pytest.mark.parametrize("field", ["extra", "seed"])
    def test_unknown_field_rejected(self, field):
        data = scenario_to_dict(Scenario(name="x"))
        data[field] = 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)

    def test_unknown_check_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(name="x", checks=("ds-product", "mystery-check"))

    def test_auto_mode_needs_defects_in_range(self):
        with pytest.raises(ScenarioError):
            Scenario(name="x", sets={"mode": "auto", "eps_t": 1.5, "eps_omega": 0.1})

    def test_explicit_mode_needs_windows(self):
        with pytest.raises(ScenarioError):
            Scenario(name="x", sets={"mode": "explicit", "time": [], "frequency": [[0.0, 1.0]]})

    def test_missing_scenario_file_raises(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.json")

    def test_the_check_table_derives_the_default_lists_and_tolerances_in_order(self):
        # scenario_to_dict writes the default order into every saved scenario
        defaults = (
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
        assert DEFAULT_CHECKS == defaults
        assert SMOOTHING_CHECKS == ("smoothing-time", "smoothing-freq")
        assert list(TOLERANCE_DEFAULTS.items()) == [
            *((check_id, 1e-6) for check_id in defaults),
            ("smoothing-time", 1e-10),
            ("smoothing-freq", 1e-10),
        ]
        assert list(CHECKS) == [*defaults, "smoothing-time", "smoothing-freq"]
        assert all(CHECKS[check_id] is record.evaluate for check_id, record in CHECK_TABLE.items())
        assert [c for c, record in CHECK_TABLE.items() if record.truncation_sensitive] == [
            "local-energy",
            "signal-product",
            "separate-time",
            "separate-freq",
            "spread-product",
            "support-time",
            "support-freq",
        ]
        assert scenario_to_dict(Scenario(name="defaults"))["checks"] == list(defaults)

    def test_tolerance_accessor(self):
        s = Scenario(name="x", tolerances={"ds-product": 1e-8})
        assert s.tolerance("ds-product") == 1e-8
        assert s.tolerance("local-energy") == 1e-6
        assert s.tolerance("smoothing-time") == 1e-10

    def test_a_tolerance_may_equal_its_default_but_not_exceed_it(self):
        assert Scenario(name="x", tolerances={"smoothing-time": 1e-10}).tolerance("smoothing-time") == 1e-10
        with pytest.raises(ScenarioError, match=r"must lie in \(0, 1e-06\], got 2e-06"):
            Scenario(name="x", tolerances={"ds-product": 2e-6})

    def test_bundled_names_and_loading(self):
        names = bundled_scenario_names()
        assert "gaussian-basic" in names
        for name in names:
            s = bundled_scenario(name)
            assert s.name == name
        with pytest.raises(ScenarioError):
            bundled_scenario("missing-scenario")


@pytest.fixture(scope="module")
def edge_heavy_report():
    """Every check on a Gaussian so wide that the grid cuts off its tails."""
    return run_scenario(Scenario(name="wide", signal_params={"lam": 0.002}, checks=tuple(CHECKS)))


class TestRunScenario:
    def test_gaussian_reference_scenario_passes_everything(self):
        report = run_scenario(bundled_scenario("gaussian-basic"))
        assert report.summary["fail"] == 0
        assert report.summary["skipped"] == 0
        assert report.summary["pass"] == len(DEFAULT_CHECKS) + len(SMOOTHING_CHECKS)
        assert report.summary["all_passed"]
        assert not report.failed
        assert [v.check_id for v in report.verdicts] == sorted(v.check_id for v in report.verdicts)

    def test_diffuse_signal_skips_rather_than_fails(self):
        report = run_scenario(bundled_scenario("bandlimited-demo"))
        assert report.summary["fail"] == 0
        skipped = {v.check_id for v in report.verdicts if v.status == "skipped"}
        assert skipped == {"marginal-energy", "optimized-product"}
        for v in report.verdicts:
            if v.status == "skipped":
                assert "hypothesis violated" in v.notes

    def test_large_defect_sum_skips_the_product_checks(self):
        s = Scenario(
            name="wide-defects",
            sets={"mode": "auto", "eps_t": 0.6, "eps_omega": 0.6},
            checks=("ds-product", "optimized-product"),
        )
        report = run_scenario(s)
        assert {v.status for v in report.verdicts} == {"skipped"}
        for v in report.verdicts:
            assert "hypothesis violated" in v.notes

    def test_explicit_sets_run_end_to_end(self):
        s = Scenario(
            name="explicit",
            sets={"mode": "explicit", "time": [[-1.0, 1.0]], "frequency": [[-1.5, 1.5]]},
            checks=("ds-product", "local-energy"),
        )
        report = run_scenario(s)
        assert report.summary["fail"] == 0
        assert report.summary["pass"] == 2

    def test_explicit_windows_are_half_open(self):
        # [-1, 1) on a half-unit grid keeps -1.0 and drops 1.0, where a
        # closed window would take both
        grid = make_grid(16, 0.5)
        mask = _windows_to_mask(grid, TIME, [[-1.0, 1.0]])
        np.testing.assert_array_equal(grid.times[mask.flags], [-1.0, -0.5, 0.0, 0.5])

    def test_check_errors_become_failed_verdicts(self):
        # a smoothing kernel too wide for the grid: the check raises
        # internally and the runner must record it, not crash.
        s = Scenario(name="wide-kernel", bound_params={"lam1": 1e-6}, checks=("optimized-product",))
        report = run_scenario(s)
        assert report.summary["fail"] == 1
        assert report.verdicts[0].notes.startswith("error: smoothing kernel (mu=2e-06) is not contained")

    def test_non_finite_side_becomes_an_error(self):
        # alpha = 1e300 sends |t|^alpha f past the double range, so the
        # local-energy bound is inf: no verdict can be made from it
        s = Scenario(name="huge-alpha", bound_params={"alpha": 1e300, "q": 1.5}, checks=("local-energy",))
        (v,) = run_scenario(s).verdicts
        assert v.status == "fail"
        assert v.notes.startswith("error: local-energy: cannot judge a non-finite side")

    @pytest.mark.parametrize(
        "fields, check_id, note",
        [
            (
                {"sets": WIDE_SETS},
                "ds-product",
                "hypothesis violated: ds_bound requires eps_t + eps_omega < 1, got 1.1",
            ),
            ({"sets": WIDE_SETS}, "signal-product", "hypothesis violated: eps_t + eps_omega = 1.1 > 1"),
            (
                {"sets": WIDE_SETS},
                "optimized-product",
                "hypothesis violated: improved_bound requires eps_t + eps_omega <= 1, got 1.6088407145000734",
            ),
            (
                {"sets": WIDE_SETS},
                "marginal-energy",
                "hypothesis violated: improved_bound requires eps_t + eps_omega <= 1, got 1.6455511356824553",
            ),
            (
                {"sets": {"mode": "auto", "eps_t": 1.0, "eps_omega": 0.1}},
                "spread-product",
                "hypothesis violated: delta_bound requires positive measures, got 0.0 and 1.5",
            ),
            ({"bound_params": {"q": 1.0}}, "local-energy", INFEASIBLE),
            (
                {"signal_params": {"lam": 0.002}, "bound_params": {"q": 1.0}},
                "local-energy",
                INFEASIBLE + "; truncation-sensitive",
            ),
            # a width too narrow for the grid raises if its L f is built
            ({"bound_params": {"lam1_sweep": [1e-6]}}, "smoothing-time", SWEEP),
            ({"bound_params": {"lam2_sweep": []}}, "smoothing-freq", SWEEP),
            (
                {"bound_params": {"alpha_support": 0.4}},
                "support-time",
                "hypothesis violated: price_ktilde requires alpha > d/q', got alpha=0.4, q'=2.0, d=1",
            ),
            (
                {"bound_params": {"alpha_support": 0.5}},
                "support-freq",
                "hypothesis violated: price_ktilde requires alpha > d/q', got alpha=0.5, q'=2.0, d=1",
            ),
        ],
        ids=[
            "ds-product", "signal-product", "optimized-product", "marginal-energy", "spread-product",
            "local-energy", "local-energy-truncation-sensitive", "smoothing-time-narrow-width",
            "smoothing-freq-no-width", "support-time", "support-freq",
        ],
    )
    def test_every_skip_path_gives_its_note_and_no_sides(self, fields, check_id, note):
        report = run_scenario(Scenario(name="skip", checks=(check_id,), **fields))
        (v,) = json.loads(report_to_json(report))["verdicts"]
        sides = {"lhs": None, "rhs": None, "rel_tol": TOLERANCE_DEFAULTS[check_id], "margin": None}
        assert v == {"check": check_id, **sides, "status": "skipped", "notes": note}

    @pytest.mark.parametrize(
        "alpha, q",
        [((1 + k * 1e-13) / bounds.conjugate_exponent(q), q)
         for q in (1.5, 2.0, 4.0, 1e13, 1e300) for k in (-1, 0, 1, 5, 20)]
        + [(0.0, 2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 0.5), (1.0, 1.0)],
    )
    def test_a_skip_at_the_hypothesis_boundary_is_exactly_where_bounds_refuses(self, alpha, q):
        # alpha = (d/q')(1 + k 1e-13) straddles K's margin; the harness adds no rule of its own
        s = Scenario(
            name="boundary",
            bound_params={"alpha": alpha, "q": q, "alpha_support": alpha},
            checks=("local-energy", "support-time", "support-freq"),
        )
        for v in run_scenario(s).verdicts:
            k_q = q if v.check_id == "local-energy" else 2.0
            try:
                bounds.price_k(1, alpha, k_q)
                refused = False
            except bounds.HypothesisError:
                refused = True
            assert v.status == ("skipped" if refused else "pass"), v

    @pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
    def test_make_verdict_refuses_a_non_finite_side(self, lhs, rhs):
        with pytest.raises(ValueError, match="non-finite side"):
            make_verdict("ds-product", lhs, rhs, 1e-6)

    def test_each_mask_is_transformed_once(self, monkeypatch):
        # optimized-product and both smoothing sweeps (five widths per mask)
        # smooth each mask through the one transform its MaskSet keeps
        inputs = []
        fft = np.fft.fft

        def recorded(a, *args, **kwargs):
            inputs.append(np.array(a, copy=True))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recorded)
        s = Scenario(name="masks-once", checks=("optimized-product", *SMOOTHING_CHECKS))
        report = run_scenario(s)
        monkeypatch.undo()
        assert report.summary["pass"] == 3
        f = generate_signal("gaussian", {}, GRID)
        for mask in (minimal_concentration_set(f, 0.1), minimal_concentration_set(fourier(f), 0.1)):
            flags = mask.flags.astype(float)
            assert sum(np.array_equal(a, flags) for a in inputs) == 1

    def test_time_axis_projections_build_no_signal(self, monkeypatch):
        # L1 f and P f are time-sample arrays that are only summed; only the
        # frequency arm's spectrum may go through signal_from_samples
        s = Scenario(name="no-time-signal", checks=("optimized-product", "smoothing-time"))
        f = generate_signal(s.signal_kind, s.signal_params, GRID)

        def frequency_only(grid, values, domain=TIME):
            if domain == TIME:
                raise AssertionError("a time-axis Signal was built")
            return signal_from_samples(grid, values, domain)

        monkeypatch.setattr(harness, "generate_signal", lambda *args: f)
        for module in (operators, harness):
            monkeypatch.setattr(module, "signal_from_samples", frequency_only)
        report = run_scenario(s)
        assert [(v.check_id, v.status) for v in report.verdicts] == [
            ("optimized-product", "pass"),
            ("smoothing-time", "pass"),
        ], [v.notes for v in report.verdicts]

    def test_one_width_sweep_is_skipped(self):
        s = Scenario(name="one-width", bound_params={"lam1_sweep": [4.0], "lam2_sweep": [0.25]}, checks=SMOOTHING_CHECKS)
        for v in run_scenario(s).verdicts:
            assert v.status == "skipped"
            assert v.notes == SWEEP

    @pytest.mark.parametrize("check_id", list(CHECKS))
    def test_heavy_tails_are_flagged_on_moment_checks(self, edge_heavy_report, check_id):
        (notes,) = [v.notes for v in edge_heavy_report.verdicts if v.check_id == check_id]
        assert ("truncation-sensitive" in notes) == CHECK_TABLE[check_id].truncation_sensitive, notes

    @pytest.mark.parametrize("checks, calls", [(("ds-product",), 0), (SMOOTHING_CHECKS, 0), (DEFAULT_CHECKS, 2)])
    def test_edge_energy_is_measured_only_for_a_truncation_sensitive_check(self, monkeypatch, checks, calls):
        measured = []

        def counted(f):
            measured.append(f.domain)
            return boundary_energy_fraction(f)

        monkeypatch.setattr(harness, "boundary_energy_fraction", counted)
        run_scenario(Scenario(name="edges", checks=checks))
        assert len(measured) == calls

    def test_empty_check_list_gives_an_empty_report(self):
        report = run_scenario(Scenario(name="empty", checks=()))
        assert report.verdicts == ()
        assert report.summary["total"] == 0
        assert report.summary["all_passed"]

    def test_duplicate_checks_run_once(self):
        s = Scenario(name="dup", checks=("ds-product", "ds-product"))
        report = run_scenario(s)
        assert len(report.verdicts) == 1

    def test_signal_adapted_factors_are_evaluated_once(self, monkeypatch):
        # signal-product, separate-time and separate-freq share one cf_bound
        # search, and the separate bounds read its factors: no moment is
        # evaluated outside that search
        calls, inside = [], []
        search = bounds.cf_bound

        def traced_search(*args):
            inside.append(True)
            try:
                return search(*args)
            finally:
                inside.pop()

        def counted(label, fn):
            def wrapper(*args):
                calls.append((label, bool(inside)))
                return fn(*args)

            return wrapper

        monkeypatch.setattr(bounds, "cf_bound", counted("cf_bound", traced_search))
        for module, name in (
            (bounds, "weighted_moment_norm"),
            (bounds, "_moment_lq"),
            (concentration, "weighted_moment_norm"),
            (concentration, "_moment_lq"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        s = Scenario(name="factors-once", checks=("signal-product", "separate-time", "separate-freq"))
        assert run_scenario(s).summary["pass"] == 3
        assert [label for label, _ in calls].count("cf_bound") == 1
        assert ("_moment_lq", True) in calls
        assert [label for label, within in calls if not within and label != "cf_bound"] == []

    def test_reports_are_deterministic(self):
        s = bundled_scenario("indicator-tight")
        a = report_to_json(run_scenario(s), include_timestamp=False)
        b = report_to_json(run_scenario(s), include_timestamp=False)
        assert a == b

    def test_json_and_csv_outputs(self, tmp_path):
        report = run_scenario(Scenario(name="io", checks=("ds-product", "spread-product")))
        payload = json.loads(report_to_json(report))
        assert payload["scenario"] == "io"
        assert len(payload["verdicts"]) == 2
        path = tmp_path / "verdicts.csv"
        write_verdicts_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "check,lhs,rhs,rel_tol,margin,status,notes"
        assert len(lines) == 3

    def test_each_verdict_records_the_tolerance_it_was_judged_at(self, tmp_path):
        checks = ("ds-product", "spread-product", "signal-product")
        s = Scenario(name="tight", checks=checks, tolerances={"ds-product": 1e-12})
        expected = {"ds-product": 1e-12, "spread-product": 1e-6, "signal-product": 1e-6}
        assert {c: TOLERANCE_DEFAULTS[c] for c in checks[1:]} == {c: expected[c] for c in checks[1:]}
        report = run_scenario(s)
        assert {v.status for v in report.verdicts} == {"pass"}
        assert {v.check_id: v.rel_tol for v in report.verdicts} == expected
        payload = json.loads(report_to_json(report))
        assert {row["check"]: row["rel_tol"] for row in payload["verdicts"]} == expected
        path = tmp_path / "verdicts.csv"
        write_verdicts_csv(report, path)
        with path.open(newline="") as fh:
            assert {row["check"]: float(row["rel_tol"]) for row in csv.DictReader(fh)} == expected
        # skipped and failed verdicts carry it too
        skipped = Scenario(name="wide", sets=WIDE_SETS, checks=("ds-product",), tolerances={"ds-product": 1e-9})
        failed = Scenario(
            name="wide-kernel",
            bound_params={"lam1": 1e-6},
            checks=("optimized-product",),
            tolerances={"optimized-product": 1e-8},
        )
        for scenario, status, rel_tol in ((skipped, "skipped", 1e-9), (failed, "fail", 1e-8)):
            (row,) = json.loads(report_to_json(run_scenario(scenario)))["verdicts"]
            assert (row["status"], row["rel_tol"]) == (status, rel_tol)

    def test_every_standard_suite_status_recomputes_from_its_report_fields(self):
        # make_verdict's rule: pass when lhs - rhs >= -rel_tol * max(|lhs|, |rhs|, 1)
        judged = 0
        for s in standard_suite():
            for row in json.loads(report_to_json(run_scenario(s)))["verdicts"]:
                assert row["rel_tol"] == s.tolerance(row["check"])
                if row["status"] == "skipped":
                    continue
                lhs, rhs, rel_tol = row["lhs"], row["rhs"], row["rel_tol"]
                holds = lhs - rhs >= -rel_tol * max(abs(lhs), abs(rhs), 1.0)
                assert row["status"] == ("pass" if holds else "fail")
                judged += 1
        assert judged > 100


class TestStandardSuite:
    def test_shape_and_naming(self):
        suite = standard_suite()
        assert len(suite) == 21
        names = [s.name for s in suite]
        assert len(set(names)) == 21
        assert "gaussian-eps010" in names
        assert "bandlimited5-eps025" in names

    def test_gaussian_rows_carry_the_smoothing_checks(self):
        suite = standard_suite()
        for s in suite:
            if s.signal_kind == "gaussian":
                assert set(SMOOTHING_CHECKS) <= set(s.checks)
            else:
                assert not set(SMOOTHING_CHECKS) & set(s.checks)


class TestSignalValidation:
    def test_indicator_window_must_be_nonempty(self):
        with pytest.raises(ScenarioError):
            generate_signal("indicator", {"lo": 1.0, "hi": 1.0}, GRID)

    def test_zero_band_rejected(self):
        with pytest.raises(ScenarioError):
            generate_signal("random_bandlimited", {"seed": 0, "band": -1.0}, GRID)


# Values a scenario file may carry where a number belongs.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.sampled_from([float("nan"), float("inf"), -1.0, 0.0, 1.5, 7, 10**400]),
)
_VALID_PARAMS = {
    "gaussian": {"lam": st.floats(0.1, 10.0)},
    "hermite": {"k": st.integers(0, 6)},
    "chirp": {"rate": st.floats(-5.0, 5.0)},
    "indicator": {"lo": st.floats(-3.0, 0.0), "hi": st.floats(0.0, 3.0)},
    "modulated_gaussian": {"lam": st.floats(0.1, 10.0), "omega0": st.floats(-3.0, 3.0)},
    "random_bandlimited": {"seed": st.integers(0, 2**32), "band": st.floats(0.05, 4.0)},
    # names of files in the data_dir fixture, resolved in _resolve_csv_path
    "csv": {"path": st.sampled_from(["signal-64.csv", "garbage.csv", "missing.csv", ""])},
}
_VALID_BOUND_PARAMS = {
    "alpha": st.floats(0.6, 4.0),
    "q": st.sampled_from([1.5, 2.0, 4.0]),
    "alpha_support": st.floats(0.6, 4.0),
    "lam1": st.floats(0.25, 4.0),
    "lam2": st.floats(0.25, 4.0),
    "lam1_sweep": st.lists(st.floats(0.25, 64.0), max_size=4),
    "lam2_sweep": st.lists(st.floats(0.01, 4.0), max_size=4),
}
_STATUSES = {"pass", "fail", "skipped"}
# keys no scenario object knows, mixed in by scenario_dicts
_MISSPELT = ("width", "alhpa", "stray")
_ONE_IN_EIGHT = st.sampled_from((False,) * 7 + (True,))


@st.composite
def scenario_dicts(draw):
    """Scenario dicts with n <= 64 over every signal kind, malformed values mixed in."""

    def value(valid):
        # one value in eight is malformed, so most dicts still reach the checks
        return draw(_JUNK) if draw(_ONE_IN_EIGHT) else draw(valid)

    def obj(mapping):
        # one object in eight is written as the JSON list of its pairs
        return [list(pair) for pair in mapping.items()] if draw(_ONE_IN_EIGHT) else mapping

    kind = value(st.sampled_from(SIGNAL_KINDS))
    known = _VALID_PARAMS.get(kind, {}) if isinstance(kind, str) else {}
    params = {key: value(valid) for key, valid in known.items() if draw(st.booleans())}
    if draw(_ONE_IN_EIGHT):
        params["width"] = 1.0
    window = st.tuples(st.floats(-4.0, 0.0), st.floats(0.0, 4.0)).map(list)
    mode = value(st.sampled_from(["auto", "explicit"]))
    if mode == "explicit":
        sets = {
            "mode": mode,
            "time": [value(window) for _ in range(draw(st.integers(1, 2)))],
            "frequency": [value(window) for _ in range(draw(st.integers(1, 2)))],
        }
    else:
        sets = {"mode": mode, "eps_t": value(st.floats(0.0, 1.0)), "eps_omega": value(st.floats(0.0, 1.0))}
    grid = {"n": value(st.sampled_from([4, 8, 16, 32, 64])), "dx": value(st.floats(1 / 16, 1 / 2))}
    signal = {"kind": kind, "params": obj(params)}
    if draw(_ONE_IN_EIGHT):
        draw(st.sampled_from([grid, signal, sets]))["stray"] = 1.0
    data = {"name": value(st.just("generated")), "grid": grid, "signal": signal, "sets": obj(sets)}
    if draw(st.booleans()):
        bound_params = {key: value(valid) for key, valid in _VALID_BOUND_PARAMS.items() if draw(st.booleans())}
        if draw(_ONE_IN_EIGHT):
            bound_params["alhpa"] = 1.0
        data["bound_params"] = obj(bound_params)
    if draw(st.booleans()):
        data["checks"] = draw(st.lists(st.sampled_from(sorted(CHECKS)), max_size=len(CHECKS), unique=True))
    if draw(_ONE_IN_EIGHT):
        check_id = draw(st.sampled_from(sorted(CHECKS)))
        default = TOLERANCE_DEFAULTS[check_id]
        data["tolerances"] = obj({check_id: value(st.floats(default / 1e3, default))})
    return data


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenario-data")
    write_signal_csv(generate_signal("gaussian", {}, make_grid(64, 1 / 8)), root / "signal-64.csv")
    (root / "garbage.csv").write_text("not a signal\n")
    return root


def _resolve_csv_path(data, root):
    params = data["signal"]["params"]
    if data["signal"]["kind"] == "csv" and isinstance(params, dict) and isinstance(params.get("path"), str) and params["path"]:
        params["path"] = str(root / params["path"])
    return data


class TestScenarioProperties:
    @given(data=scenario_dicts())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_run_rejects_the_scenario_or_reports_valid_statuses(self, data_dir, data):
        data = _resolve_csv_path(data, data_dir)
        objects = (
            data["grid"],
            data["signal"],
            data["signal"]["params"],
            data["sets"],
            data.get("bound_params"),
            data.get("tolerances"),
        )
        pair_listed = any(isinstance(field, list) for field in objects)
        misspelt = any(isinstance(field, dict) and key in field for field in objects for key in _MISSPELT)
        try:
            scenario = scenario_from_dict(data)
            report = run_scenario(scenario)
        except ScenarioError:
            return
        assert not pair_listed, "a JSON list of pairs was read as an object"
        assert not misspelt, "an unknown key was ignored"
        assert [v.check_id for v in report.verdicts] == sorted(dict.fromkeys(scenario.checks))
        assert {v.status for v in report.verdicts} <= _STATUSES

    @given(data=scenario_dicts())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_cli_exit_code_is_0_1_or_2(self, data_dir, data):
        path = data_dir / "scenario.json"
        path.write_text(json.dumps(_resolve_csv_path(data, data_dir)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["run", str(path)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.getvalue().startswith("error: ")


# Grids that resolve and contain the lambda = 1 window, the default lam1 and
# lam2 of the optimized and marginal checks.  `gaussian_window` asks for four
# samples above half maximum, where exp(-pi t^2) >= 1/2 for |t| <= 0.47, so
# dx <= 1/8; and for at most 1e-6 of its energy within three cells of an
# edge, which n dx >= 8 meets (exp(-2 pi 16) lies beyond |t| = 4).  The window
# is its own transform, and the frequency axis has spacing 1/(n dx) and
# half-width 1/(2 dx), so the same grids do both there.
_CONTAINED_GRIDS = [(n, dx) for n in (128, 256, 512, 1024) for dx in (1 / 8, 1 / 16, 1 / 32) if n * dx >= 8]


@st.composite
def contained_signals(draw):
    """Sums of 1-3 modulated Gaussians centred in the middle half of both axes, a grid and auto set defects."""
    n, dx = draw(st.sampled_from(_CONTAINED_GRIDS))
    t = make_grid(n, dx).times
    samples = np.zeros(n, dtype=complex)
    for _ in range(draw(st.integers(1, 3))):
        center = draw(st.floats(-1.0, 1.0)) * n * dx / 4
        width = draw(st.floats(0.5, 1.5))
        omega = draw(st.floats(-1.0, 1.0)) / (4 * dx)
        amplitude = draw(st.floats(0.2, 1.0)) * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))
        samples += amplitude * np.exp(-np.pi * ((t - center) / width) ** 2 + 2j * np.pi * omega * t)
    eps = st.sampled_from([0.05, 0.1, 0.25, 0.4])
    return n, dx, samples, draw(eps), draw(eps)


class TestTheoremChecksOnContainedSignals:
    """Every default check holds on a signal the grid contains, or names the hypothesis it lacks.

    The rules, stated before any run:
    (a) the signal is not truncation-sensitive: by the harness's own rule, at
        most 1e-6 of the energy of f and of fhat lies within three cells of an
        edge (`boundary_energy_fraction`); a drawn signal that breaks it is
        discarded with `assume`;
    (b) the grid resolves and contains the lambda = 1 window, by the limits
        `gaussian_window` documents (`_CONTAINED_GRIDS`).
    A check may then be skipped only with a `hypothesis violated:` reason: the
    certified defects of the optimized and marginal checks may sum to 1 or more.
    """

    @given(drawn=contained_signals())
    @settings(max_examples=90, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    def test_every_default_check_passes_or_names_its_violated_hypothesis(self, data_dir, drawn):
        n, dx, samples, eps_t, eps_omega = drawn
        f = signal_from_samples(make_grid(n, dx), samples)
        assume(boundary_energy_fraction(f) <= 1e-6 and boundary_energy_fraction(fourier(f)) <= 1e-6)
        path = data_dir / "contained.csv"
        write_signal_csv(f, path)
        s = Scenario(
            name="contained",
            grid_n=n,
            grid_dx=dx,
            signal_kind="csv",
            signal_params={"path": str(path)},
            sets={"mode": "auto", "eps_t": eps_t, "eps_omega": eps_omega},
        )
        report = run_scenario(s)
        assert [v.check_id for v in report.verdicts] == sorted(DEFAULT_CHECKS)
        for v in report.verdicts:
            assert "truncation-sensitive" not in v.notes  # rule (a) is the harness's own
            assert v.status == "pass" or (v.status == "skipped" and v.notes.startswith("hypothesis violated:")), v


_README = Path(__file__).resolve().parents[1] / "README.md"
_README_TYPES = {"finite number": float, "integer": int, "string": str, "list of finite numbers": tuple}


def _readme_table(header: str) -> list:
    """Rows of the README table under header, each cell stripped of code quotes."""
    lines = _README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def _readme_entry(type_name: str, default: str) -> tuple:
    value = json.loads(default)
    return _README_TYPES[type_name], tuple(value) if isinstance(value, list) else value


_BOUND_TABLE_HEADER = (
    "| scenario | \\|T\\|·\\|Ω\\| | ds-product | angle bound | optimized-product | ÷ DS | marginal-energy | ÷ DS "
    "| signal-product | ÷ DS | separate-time | separate-freq |"
)


def _angle_bound(eps_t: float, eps_omega: float) -> float:
    """cos^2(min(arcsin eps_T + arcsin eps_Omega, pi/2)): the Landau-Pollak lower bound on |T||Omega|."""
    return math.cos(min(math.asin(eps_t) + math.asin(eps_omega), math.pi / 2)) ** 2


def _bound_table_row(report, angle: float) -> list:
    """One README row: |T||Omega|, the ds-product rhs and the angle bound at the same
    defects, each product check's rhs and its ratio to the ds-product rhs, and the
    separate bounds, at 4 significant digits."""
    by_id = {v.check_id: v for v in report.verdicts}
    ds = by_id["ds-product"].rhs
    row = [report.scenario, f"{by_id['ds-product'].lhs:.4g}", f"{ds:.4g}", f"{angle:.4g}"]
    for check_id in ("optimized-product", "marginal-energy", "signal-product"):
        v = by_id[check_id]
        row += ["skipped"] * 2 if v.status == "skipped" else [f"{v.rhs:.4g}", f"{v.rhs / ds:.4g}"]
    return row + [f"{by_id[c].rhs:.4g}" for c in ("separate-time", "separate-freq")]


class TestReadmeTables:
    def test_bound_comparison_table_matches_the_standard_suite(self):
        # the angle bound takes ds-product's defects, the requested ones of the auto sets
        rows, beats_angle = [], set()
        for s in standard_suite():
            report, angle = run_scenario(s), _angle_bound(s.sets["eps_t"], s.sets["eps_omega"])
            rows.append(_bound_table_row(report, angle))
            certified = [v for v in report.verdicts if v.check_id in ("optimized-product", "marginal-energy")]
            beats_angle.update(s.name for v in certified if v.status != "skipped" and v.rhs > angle)
        assert _readme_table(_BOUND_TABLE_HEADER) == rows
        # the scenarios that the README's sentence on the angle bound names
        assert beats_angle == {"gaussian-eps005", "chirp-eps005", "chirp-eps010"}

    def test_library_example_prints_what_its_comments_say(self):
        lines = _README.read_text(encoding="utf-8").splitlines()
        start = lines.index("## Library example") + 2
        assert lines[start] == "```python"
        code = lines[start + 1 : lines.index("```", start + 1)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile("\n".join(code), "README.md", "exec"), {})
        product_line, improved_line = out.getvalue().splitlines()
        product_note, improved_note = [line.split("# ")[1] for line in code if line.startswith("print(")]
        assert product_line == product_note == "2.25 >= 0.6400000000000001"
        assert improved_note.startswith("2.650...") and improved_line.startswith("2.650")
        assert float(improved_line) == pytest.approx(2.650168425311579, rel=1e-15)


    def test_hypothesis_table_names_each_check_once_and_its_deciding_function(self):
        rows = _readme_table("| check | hypothesis decided by | rule | on the grid | why |")
        assert [row[0] for row in rows] == list(CHECK_TABLE)
        # the "why" of exactly the truncation-sensitive records names the grid's truncation
        truncating = [row[0] for row in rows if "the grid truncates" in row[4]]
        assert truncating == [c for c, record in CHECK_TABLE.items() if record.truncation_sensitive]
        for check_id, decider, _, on_grid, why in rows:
            assert decider == "harness" or callable(getattr(bounds, decider, None)), (check_id, decider)
            assert on_grid in ("exact on the grid", "discretises a continuum theorem") and why, check_id
        # the one check that is a theorem on the grid itself, by TestGridExactChain
        assert [row[0] for row in rows if row[3] == "exact on the grid"] == ["ds-product"]

    def test_signal_parameter_table_matches_the_defaults(self):
        documented = {}
        for kind, key, type_name, default in _readme_table("| kind | key | type | default |"):
            documented.setdefault(kind, {})[key] = _readme_entry(type_name, default)
        expected = {kind: {key: (type(v), v) for key, v in params.items()} for kind, params in SIGNAL_DEFAULTS.items()}
        assert documented == expected

    def test_bound_parameter_table_matches_the_defaults(self):
        documented = {
            key: _readme_entry(type_name, default)
            for key, type_name, default, _ in _readme_table("| key | type | default | used by |")
        }
        assert documented == {key: (type(v), v) for key, v in BOUND_DEFAULTS.items()}
