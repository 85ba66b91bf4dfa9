"""Scenario schema, signal generation, and check-runner tests."""

import json
import math

import numpy as np
import pytest

from uplab import (
    DEFAULT_CHECKS,
    SMOOTHING_CHECKS,
    FREQUENCY,
    Scenario,
    ScenarioError,
    bundled_scenario,
    bundled_scenario_names,
    energy,
    fourier,
    generate_signal,
    inner,
    load_scenario,
    make_grid,
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


GRID = make_grid(256, 1 / 16)


class TestSignalGeneration:
    @pytest.mark.parametrize(
        "kind,params",
        [
            ("gaussian", {"lam": 1.0}),
            ("gaussian", {}),
            ("hermite", {"k": 1}),
            ("hermite", {"k": 3}),
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

    def test_tolerance_accessor(self):
        s = Scenario(name="x", tolerances={"ds-product": 1e-3})
        assert s.tolerance("ds-product") == 1e-3
        assert s.tolerance("local-energy") == 1e-6
        assert s.tolerance("smoothing-time") == 1e-10

    def test_bundled_names_and_loading(self):
        names = bundled_scenario_names()
        assert "gaussian-basic" in names
        for name in names:
            s = bundled_scenario(name)
            assert s.name == name
        with pytest.raises(ScenarioError):
            bundled_scenario("missing-scenario")


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

    def test_check_errors_become_failed_verdicts(self):
        # alpha below the admissible range for the support bound: the check
        # raises internally and the runner must record it, not crash.
        s = Scenario(name="bad-alpha", bound_params={"alpha_support": 0.4}, checks=("support-time",))
        report = run_scenario(s)
        assert report.summary["fail"] == 1
        assert report.verdicts[0].notes.startswith("error:")

    def test_heavy_tails_are_flagged_on_moment_checks(self):
        s = Scenario(name="wide", signal_params={"lam": 0.002}, checks=("support-time", "ds-product"))
        report = run_scenario(s)
        by_id = {v.check_id: v for v in report.verdicts}
        assert "truncation-sensitive" in by_id["support-time"].notes
        assert "truncation-sensitive" not in by_id["ds-product"].notes

    def test_empty_check_list_gives_an_empty_report(self):
        report = run_scenario(Scenario(name="empty", checks=()))
        assert report.verdicts == ()
        assert report.summary["total"] == 0
        assert report.summary["all_passed"]

    def test_duplicate_checks_run_once(self):
        s = Scenario(name="dup", checks=("ds-product", "ds-product"))
        report = run_scenario(s)
        assert len(report.verdicts) == 1

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
        assert lines[0] == "check,lhs,rhs,margin,status,notes"
        assert len(lines) == 3


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

    def test_custom_defect_grid(self):
        suite = standard_suite(eps_values=(0.1,))
        assert len(suite) == 7
        for s in suite:
            assert s.sets["eps_t"] == 0.1


class TestSignalValidation:
    def test_indicator_window_must_be_nonempty(self):
        with pytest.raises(ScenarioError):
            generate_signal("indicator", {"lo": 1.0, "hi": 1.0}, GRID)

    def test_zero_band_rejected(self):
        with pytest.raises(ScenarioError):
            generate_signal("random_bandlimited", {"seed": 0, "band": -1.0}, GRID)
