"""Scenario schema, signal generation, and check-runner tests."""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uplab import (
    DEFAULT_CHECKS,
    SMOOTHING_CHECKS,
    FREQUENCY,
    TIME,
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
from uplab import bounds, concentration
from uplab.cli import main
from uplab.harness import BOUND_DEFAULTS, CHECKS, SIGNAL_DEFAULTS, SIGNAL_KINDS, _windows_to_mask


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
        ],
        ids=["boolean-grid-spacing", "string-grid-spacing", "numeric-name", "fractional-seed"],
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

    def test_explicit_windows_are_half_open(self):
        # [-1, 1) on a half-unit grid keeps -1.0 and drops 1.0, where the
        # closed mask_from_axis_window would take both
        grid = make_grid(16, 0.5)
        mask = _windows_to_mask(grid, TIME, [[-1.0, 1.0]])
        np.testing.assert_array_equal(grid.times[mask.flags], [-1.0, -0.5, 0.0, 0.5])

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
            (bounds, "_signal_factor"),
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
        data["tolerances"] = obj({draw(st.sampled_from(sorted(CHECKS))): value(st.floats(1e-9, 1e-3))})
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


class TestReadmeTables:
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
