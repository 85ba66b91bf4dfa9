"""Command-line interface tests, driven through main() with argv lists."""

import json
import math

import pytest

from uplab import Scenario, price_k, save_scenario
from uplab.cli import main


class TestBoundsCommand:
    def test_zero_defects_print_the_supremum(self, capsys):
        assert main(["bounds", "--eps-t", "0", "--eps-omega", "0", "--dim", "1"]) == 0
        assert capsys.readouterr().out.strip() == "7.3890561"

    def test_value_matches_library_precision(self, capsys):
        assert main(["bounds", "--eps-t", "0.1", "--eps-omega", "0.1"]) == 0
        printed = float(capsys.readouterr().out.strip())
        from uplab import improved_bound

        assert printed == pytest.approx(improved_bound(0.1, 0.1).value, abs=1e-7)

    @pytest.mark.parametrize(
        "args",
        [
            ["--eps-t", "0.7", "--eps-omega", "0.5"],
            ["--eps-t", "-0.1", "--eps-omega", "0.2"],
            ["--eps-t", "nan", "--eps-omega", "0.2"],
            ["--eps-t", "0.1", "--eps-omega", "0.2", "--dim", "0"],
        ],
        ids=["defect-sum-above-one", "negative-defect", "nan-defect", "zero-dimension"],
    )
    def test_invalid_arguments_are_usage_errors(self, capsys, args):
        assert main(["bounds", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_an_integer_dimension_past_the_double_range_is_a_usage_error(self, capsys):
        assert main(["bounds", "--eps-t", "0.1", "--eps-omega", "0.1", "--dim", "1" + "0" * 400]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: dimension d must be a positive integer within the double range, got a larger one\n"

    @pytest.mark.parametrize("eps_t", ["0", "0.1"])
    def test_dimension_past_the_double_range_is_a_usage_error(self, capsys, eps_t):
        assert main(["bounds", "--eps-t", eps_t, "--eps-omega", "0", "--dim", "400"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "d=400" in captured.err
        assert captured.out == ""


class TestConstantsCommand:
    def test_simple_constant_as_json(self, capsys):
        assert main(["constants", "--which", "k1", "--d", "1", "--alpha", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"name": "k1", "params": {"alpha": 1.0, "d": 1}, "value": price_k(1, 1.0, 2.0)}
        assert payload["value"] == pytest.approx(2 * math.pi, rel=1e-15)

    @pytest.mark.parametrize(
        ("args", "flags"),
        [
            (["--which", "k1"], "--alpha"),
            (["--which", "lieb", "--d", "2"], "--p"),
            (["--which", "ktilde", "--alpha", "2"], "--q"),
            (["--which", "ktilde"], "--alpha and --q"),
            (["--which", "locop"], "--q"),
        ],
        ids=["k1-alpha", "lieb-p", "ktilde-q", "ktilde-alpha-and-q", "locop-q"],
    )
    def test_a_missing_parameter_is_named(self, capsys, args, flags):
        assert main(["constants", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: constant {args[1]} needs {flags}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["--which", "lieb", "--p", "4"],
            ["--which", "k1", "--alpha", "1e300"],
            ["--which", "ktilde", "--alpha", "1e300", "--q", "2"],
            ["--which", "locop", "--q", "2"],
        ],
        ids=["lieb", "k1", "ktilde", "locop"],
    )
    def test_an_integer_dimension_past_the_double_range_is_a_usage_error(self, capsys, args):
        assert main(["constants", *args, "--d", "1" + "0" * 400]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: dimension d must be a positive integer within the double range, got a larger one\n"

    def test_general_constant_prints_the_single_power(self, capsys):
        assert main(["constants", "--which", "ktilde", "--d", "1", "--alpha", "2", "--q", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from uplab import price_ktilde

        assert payload["value"] == pytest.approx(price_ktilde(1, 2.0, 4.0))

    def test_general_constant_at_a_huge_q(self, capsys):
        # alpha = 2 exceeds d/q' = 1 - 1e-13 by the factor 2, so the constant exists
        assert main(["constants", "--which", "ktilde", "--d", "1", "--alpha", "2", "--q", "1e13"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(3.9999999999993228, rel=1e-14)

    def test_general_constant_where_alpha_q_overflows(self, capsys):
        # alpha q = 2e308 is past the double range, but Ktilde(1, alpha, 2) tends to sqrt(2) as alpha grows
        assert main(["constants", "--which", "ktilde", "--alpha", "1e308", "--q", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_transform_constant(self, capsys):
        assert main(["constants", "--which", "lieb", "--d", "1", "--p", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.5**0.25)

    @pytest.mark.parametrize(
        ("args", "key"),
        [
            (["--which", "lieb", "--p", "inf"], "p"),
            (["--which", "ktilde", "--alpha", "2", "--q", "inf"], "q"),
            (["--which", "locop", "--q", "inf"], "q"),
        ],
        ids=["lieb-infinite-p", "ktilde-infinite-q", "locop-infinite-q"],
    )
    def test_infinite_exponent_is_written_as_standard_json(self, capsys, args, key):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(["constants", *args]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert payload["params"][key] == "inf"
        assert math.isfinite(payload["value"])

    @pytest.mark.parametrize(
        "args",
        [
            ["--which", "k1", "--d", "1", "--alpha", "0.4"],
            ["--which", "lieb", "--d", "-3", "--p", "4"],
            ["--which", "locop", "--d", "0", "--q", "2"],
            ["--which", "locop", "--q", "nan"],
            ["--which", "lieb", "--p", "nan"],
            ["--which", "lieb", "--p=-inf"],
            ["--which", "ktilde", "--alpha", "nan", "--q", "2"],
        ],
        ids=[
            "k1-alpha-below-half",
            "lieb-negative-d",
            "locop-zero-d",
            "locop-nan-q",
            "lieb-nan-p",
            "lieb-minus-inf-p",
            "ktilde-nan-alpha",
        ],
    )
    def test_out_of_domain_parameters_fail_cleanly(self, args, capsys):
        assert main(["constants", *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestRunCommand:
    def test_bundled_scenario_by_name(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "verdicts.csv"
        rc = main(["run", "gaussian-basic", "--out", str(out), "--csv", str(csv)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "PASS ds-product" in text
        assert "12 passed, 0 failed, 0 skipped" in text
        payload = json.loads(out.read_text())
        assert payload["summary"]["all_passed"]
        assert len(csv.read_text().splitlines()) == 13

    def test_scenario_file_path(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        save_scenario(Scenario(name="tiny", checks=("ds-product",)), path)
        assert main(["run", str(path)]) == 0
        assert "PASS ds-product" in capsys.readouterr().out

    def test_missing_scenario_is_a_usage_error(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert "no scenario file or bundled scenario" in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"grid": {"n": 255}},
            {"grid": {"n": "many"}},
            {"grid": {"n": math.inf}},
            {"grid": {"n": 64.5}},
            {"grid": {"n": 64, "dx": True}},
            {"grid": {"n": 64, "dx": "0.0625"}},
            {"signal": {"kind": "gaussian", "params": {"lam": "nan"}}},
            {"signal": {"kind": "gaussian", "params": {"lam": "wide"}}},
            {"signal": {"kind": "hermite", "params": {"k": "two"}}},
            {"signal": {"kind": "random_bandlimited", "params": {"seed": "abc"}}},
            {"signal": {"kind": "hermite", "params": {"k": 171}}},
            {"signal": {"kind": "csv", "params": {"path": "no-such-signal.csv"}}},
            {"sets": {"mode": "explicit", "time": [[-1.0, 0.0]], "frequency": ["0:"]}},
            {"sets": {"mode": "explicit", "time": ["01"], "frequency": [[-1.0, 1.0]]}},
            {"checks": "ds-product"},
            {"sets": {"mode": "auto", "eps_t": True, "eps_omega": 0.1}},
            {"bound_params": {"alhpa": 7}},
            {"bound_params": {"alpha": "wide"}},
            {"bound_params": {"q": math.nan}},
            {"bound_params": {"lam1_sweep": 4}},
            {"tolerances": {"ds-product": True}},
            {"tolerances": {"ds-product": math.inf}},
            {"tolerances": {"ds-product": 2e-6}},
            {"signal": {"kind": "gaussian", "params": [["lam", 2]]}},
            {"sets": [["mode", "auto"], ["eps_t", 0.1], ["eps_omega", 0.1]]},
            {"bound_params": [["alpha", 2]]},
            {"tolerances": [["ds-product", 1e-6]]},
            {"signal": {"kind": "gaussian", "params": {"lam": True}}},
            {"signal": {"kind": "gaussian", "params": {"lam": "2"}}},
            {"signal": {"kind": "indicator", "params": {"lo": "-1"}}},
            {"signal": {"kind": "random_bandlimited", "params": {"seed": 2.5}}},
            {"signal": {"kind": "random_bandlimited", "params": {"seed": True}}},
            {"signal": {"kind": "random_bandlimited", "params": {"seed": "7"}}},
            {"signal": {"kind": "random_bandlimited", "params": {"seed": -1}}},
            {"signal": {"kind": "hermite", "params": {"k": True}}},
            {"signal": {"kind": "gaussian", "parameters": {"lam": 4}}},
            {"grid": {"n": 64, "size": 64}},
            {"sets": {"mode": "auto", "eps_t": 0.1, "eps_omega": 0.1, "time": [[-1.0, 1.0]]}},
            {"sets": {"mode": "auto", "eps_t": 0.1, "eps_omgea": 0.1}},
            {"name": 5},
            {"grid": {"n": 1e20}},
            {"bound_params": {"lam1": -1.0}},
            {"bound_params": {"lam2_sweep": [1.0, 0.0]}},
        ],
        ids=[
            "odd-grid",
            "non-numeric-grid",
            "infinite-grid",
            "fractional-grid",
            "boolean-grid-spacing",
            "string-grid-spacing",
            "non-finite-signal",
            "non-numeric-width",
            "non-numeric-hermite-index",
            "non-numeric-seed",
            "hermite-index-past-the-normalisation",
            "missing-csv-file",
            "non-numeric-window",
            "string-window",
            "string-checks",
            "boolean-defect",
            "unknown-bound-parameter",
            "non-numeric-bound-parameter",
            "non-finite-bound-parameter",
            "scalar-sweep",
            "boolean-tolerance",
            "infinite-tolerance",
            "tolerance-looser-than-its-default",
            "pair-list-params",
            "pair-list-sets",
            "pair-list-bound-params",
            "pair-list-tolerances",
            "boolean-width",
            "string-width",
            "string-window-edge",
            "fractional-seed",
            "boolean-seed",
            "string-seed",
            "negative-seed",
            "boolean-hermite-index",
            "misspelt-signal-params",
            "unknown-grid-key",
            "key-of-the-other-sets-mode",
            "misspelt-defect",
            "numeric-name",
            "grid-past-the-array-limit",
            "negative-smoothing-width",
            "zero-sweep-width",
        ],
    )
    def test_malformed_scenario_is_a_usage_error(self, tmp_path, capsys, fields):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", **fields}))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("text", "key"),
        [
            ('{"name": "dup", "name": "dup2"}', "name"),
            ('{"name": "dup", "bound_params": {"lam1": 1.0, "lam1": 4.0}}', "lam1"),
            # objects are built innermost first, so the nested repeat is met first
            ('{"name": "dup", "name": "dup2", "bound_params": {"lam1": 1.0, "lam1": 4.0}}', "lam1"),
        ],
        ids=["top-level", "nested", "both"],
    )
    def test_a_repeated_json_key_is_a_usage_error_that_names_it(self, tmp_path, capsys, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: scenario file {path} repeats the JSON key {key!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("name", "contents"),
        [("latin1.json", b'{"name": "\xff"}'), ("deep.json", b"[" * 100_000), ("x" * 5000, None)],
        ids=["not-utf8", "nested-past-the-parser-depth", "name-past-the-file-name-limit"],
    )
    def test_unreadable_scenario_file_is_a_usage_error(self, tmp_path, capsys, name, contents):
        path = tmp_path / name
        if contents is not None:
            path.write_bytes(contents)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    def test_signal_file_with_an_impossible_sample_count_is_a_usage_error(self, tmp_path, capsys):
        # the header's n = 2^50 is refused for want of rows, before n samples are allocated
        signal = tmp_path / "huge.csv"
        signal.write_text("# n=1125899906842624 dx=0.0625 domain=time\nindex,t,re,im\n0,0.0,1.0,0.0\n")
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", "signal": {"kind": "csv", "params": {"path": str(signal)}}}))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, flag):
        target = tmp_path / "no-such-dir" / "report"
        assert main(["run", "gaussian-basic", flag, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "PASS ds-product" in captured.out

    def test_a_signal_that_cannot_be_allocated_is_a_usage_error(self, capsys, monkeypatch):
        # a grid whose times fit but whose signal does not fails inside run_scenario
        def refuse(scenario):
            raise MemoryError("Unable to allocate 8.00 PiB for an array with shape (562949953421312,)")

        monkeypatch.setattr("uplab.cli.run_scenario", refuse)
        assert main(["run", "gaussian-basic"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 8.00 PiB for an array with shape (562949953421312,)\n"
        assert captured.out == ""

    def test_integral_float_grid_size_runs(self, tmp_path, capsys):
        path = tmp_path / "float-grid.json"
        path.write_text(json.dumps({"name": "float-grid", "grid": {"n": 64.0, "dx": 0.125}, "checks": ["ds-product"]}))
        assert main(["run", str(path)]) == 0
        assert "PASS ds-product" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_moment_past_the_double_range_fails_without_a_warning(self, tmp_path, capsys):
        # |t|^alpha at alpha = 1e300 overflows: the moment reads inf, which no
        # verdict judges, and no numpy warning reaches stderr
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", "bound_params": {"alpha": 1e300, "q": 1.5}, "checks": ["local-energy"]}))
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL local-energy: lhs=nan rhs=nan margin=nan (error: local-energy: cannot judge a non-finite side (lhs=inf," in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        "bound_params, checks, lines",
        [
            ({"alpha_support": 0.5000000000001}, ["support-time", "support-freq"], ["SKIP support-freq", "SKIP support-time"]),
            ({"alpha": 0.5000000000001}, ["local-energy"], ["SKIP local-energy"]),
            ({"alpha": 2.0, "q": 1e13}, ["local-energy"], ["PASS local-energy"]),
        ],
        ids=["alpha-support-on-the-margin", "alpha-on-the-margin", "huge-q"],
    )
    def test_a_run_at_the_hypothesis_boundary_exits_zero(self, tmp_path, capsys, bound_params, checks, lines):
        # each alpha lies within K's margin of d/q' (skipped) or past it (passes); none fails
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps({"name": "boundary", "bound_params": bound_params, "checks": checks}))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out[:-1]] == lines
        for line in out[:-1]:
            assert line.startswith("PASS") or ": hypothesis violated: price_ktilde requires alpha > d/q'" in line

    def test_skips_are_reported_but_not_failures(self, capsys):
        rc = main(["run", "bandlimited-demo"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "SKIP marginal-energy" in text
        assert "SKIP optimized-product" in text


class TestSelftestCommand:
    def test_default_selftest_passes(self, capsys):
        assert main(["selftest", "--n", "128"]) == 0
        text = capsys.readouterr().out
        for name in (
            "fourier-round-trip",
            "parseval",
            "gabor-energy",
            "wigner-marginal",
            "bound-dominance",
            "price-consistency",
            "scenario-run",
        ):
            assert f"ok   {name}" in text

    def test_odd_grid_rejected(self, capsys):
        assert main(["selftest", "--n", "129"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        assert main(["selftest", "--n", "64", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_grid_that_cannot_be_allocated_is_a_usage_error(self, capsys):
        # 2^50 samples: far past any memory, so the allocation is refused at once
        assert main(["selftest", "--n", str(2**50)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert captured.out == ""
