"""CLI driver: validation diagnostics, dispatch, exit codes, reproducible reports."""

import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import resource
import stat
import subprocess
import sys

import numpy as np
import pytest

from imhyp.driver import main, render_report, run, validate
from imhyp.errors import ConfigError, NumericalFailure
from imhyp.lattice_spectrum import JumpQuery
from imhyp.stationary_spectrum import Witness
import imhyp.reaction_field as reaction_field
import imhyp.stationary_spectrum as stationary_spectrum
import imhyp.driver as driver_mod
from test_golden_reports import CONFIGS, GOLDEN, INPUTS
from test_lazy_sympy import fresh_python


def cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def plain(report):
    """A run() report in plain JSON types, as its rendered text reads back."""
    return json.loads(render_report(report))


# the Prop. 3.5 field with its parameters as exact strings
PROP35_STRINGS = {"kind": "cubic_uncoupled", "a": "2", "b": "sqrt(3)",
                  "c": "sqrt(6)", "d": "sqrt(2)"}


def field_arg(field, tmp_path):
    """The --field value: a builtin name as given, a field dict as a file."""
    if isinstance(field, str):
        return field
    path = tmp_path / "field.json"
    path.write_text(json.dumps(field))
    return str(path)


class TestValidate:
    def test_negative_cutoff(self):
        diags = validate({"command": "spectrum", "cutoff": -3})
        assert any("cutoff must be positive" in d for d in diags)

    def test_unknown_key_suggestion(self):
        diags = validate({"command": "spectrum", "cutoff": 10, "bcc": "neumann"})
        assert diags == ["unknown key 'bcc' (did you mean 'bc'?)"]

    def test_valid_config_is_clean(self):
        assert validate({"command": "spectrum", "cutoff": 10}) == []

    @pytest.mark.parametrize("config", [["gaps"], None])
    def test_non_object_config(self, config):
        assert validate(config) == ["config must be a JSON object"]

    def test_unknown_command_suggestion(self):
        diags = validate({"command": "spectrun"})
        assert "did you mean 'spectrum'" in diags[0]

    def test_missing_required_key(self):
        diags = validate({"command": "anhim", "nu": 0.5})
        assert any("missing required key 'cutoff'" in d for d in diags)

    def test_bad_choice(self):
        diags = validate({"command": "spectrum", "cutoff": 1, "bc": "mixed"})
        assert any("bc must be one of" in d for d in diags)

    def test_unparseable_value(self):
        diags = validate({"command": "spectrum", "cutoff": "ten"})
        assert any(d.startswith("cutoff:") for d in diags)

    @pytest.mark.parametrize("config, diag", [
        ({"command": "delta", "field": "prop35", "at": "1,2,3"},
         "at: needs exactly 2 coordinates"),
        ({"command": "fixed-points", "field": "prop35", "region": "0,1,2"},
         "region: needs 4 numbers: x_lo,x_hi,y_lo,y_hi"),
        ({"command": "index", "nu": 1, "cutoff": 10, "jac": "1,2,3"},
         "jac: a Jacobian needs 1 or 4 comma-separated entries, got 3"),
        ({"command": "parity", "nu": 1, "cutoff": 10, "jacs": "1;1,2"},
         "jacs: a Jacobian needs 1 or 4 comma-separated entries, got 2"),
        ({"command": "nhim-dims", "nu": 1, "cutoff": 10, "jacs": [[1], []]},
         "jacs: a Jacobian needs 1 or 4 comma-separated entries, got 0"),
    ], ids=["delta-at", "fixed-points-region", "index-jac", "parity-jacs",
            "nhim-dims-jacs-list"])
    def test_entry_counts_checked_where_parsed(self, config, diag):
        # an empty list promises that run() takes the config
        assert validate(config) == [diag]
        with pytest.raises(ConfigError, match=f"^{diag}$"):
            run(config)


class TestIntegerKeys:
    @pytest.mark.parametrize("raw", ["1e3", "1000", "1000.0", " 1e3 ", 1e3, 1000])
    def test_integral_values_accepted(self, raw):
        report = run({"command": "gauss-audit", "limit": raw})
        assert report["config"]["limit"] == 1000
        assert type(report["config"]["limit"]) is int

    def test_exponent_flag_on_the_command_line(self, capsys):
        code, out, err = cli(capsys, "gauss-audit", "--limit", "1e3")
        assert code == 0 and err == ""
        assert json.loads(out)["config"]["limit"] == 1000

    @pytest.mark.parametrize("raw", [
        "1.5", 1.5, "inf", "-inf", "nan", float("inf"), float("nan"),
        "1e300", 2.0**53 + 2, "ten", True, [1000],
    ])
    def test_non_integers_refused(self, raw):
        diags = validate({"command": "gauss-audit", "limit": raw})
        assert diags == [f"limit: expected an integer, got {raw!r}"]

    @pytest.mark.parametrize("flag", ["1.5", "inf", "nan", "1e300"])
    def test_non_integer_flag_exits_1(self, capsys, flag):
        code, out, err = cli(capsys, "gauss-audit", "--limit", flag)
        assert code == 1 and out == ""
        assert err == (
            f"imhyp: config error: limit: expected an integer, got {flag!r}\n"
        )

    def test_exact_integers_beyond_2_53_still_accepted(self):
        report = run({"command": "dissipativity", "field": "prop34",
                      "samples": 2**60 + 1})
        assert report["config"]["samples"] == 2**60 + 1


class TestFloatKeys:
    @pytest.mark.parametrize("config, key, raw", [
        ({"command": "gaps", "cutoff": True}, "cutoff", True),
        ({"command": "jump", "cutoff": 30, "theta": False}, "theta", False),
        ({"command": "delta", "field": "prop35", "at": [True, 0]}, "at", True),
        ({"command": "anhim", "jacs": [[-1], [False]], "nu": 1, "cutoff": 10},
         "jacs", False),
    ], ids=["float", "float-false", "floats", "jacs"])
    def test_booleans_refused(self, config, key, raw):
        # float() would read the JSON booleans as 1.0 and 0.0
        assert validate(config) == [f"{key}: expected a number, got {raw!r}"]

    @pytest.mark.parametrize("flag", ["inf", "-inf", "nan"])
    def test_non_finite_flag_exits_1(self, capsys, flag):
        code, out, err = cli(capsys, "gaps", "--cutoff", flag)
        assert code == 1 and out == ""
        assert err == "imhyp: config error: cutoff: expected a finite number\n"


class TestBoolKeys:
    @pytest.mark.parametrize("raw", ["false", "0", "no", " No "])
    def test_false_spellings(self, capsys, raw):
        code, out, err = cli(capsys, "prop35-verify", "--exact", raw)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["config"]["exact"] is False
        assert report["result"]["exact"] is False
        assert report["verdict"].endswith("(float mode)")


class TestStringKeys:
    @pytest.mark.parametrize("config, key, raw", [
        ({"command": "gaps", "cutoff": 30, "out": True}, "out", True),
        ({"command": "fixed-points", "field": 7}, "field", 7),
        ({"command": "parity", "jacs": "1;-2", "labels": [True, 3], "nu": 1,
          "cutoff": 10}, "labels", True),
    ], ids=["path", "str", "strs"])
    def test_non_strings_refused(self, config, key, raw):
        # str() would name a report file "True" and an equilibrium "3"
        assert validate(config) == [f"{key}: expected a string, got {raw!r}"]

    def test_non_string_out_exits_1_and_writes_nothing(self, capsys, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"cutoff": 30, "out": True}))
        code, out, err = cli(capsys, "gaps", "--config", "cfg.json")
        assert code == 1 and out == ""
        assert err == "imhyp: config error: out: expected a string, got True\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestCommandKeys:
    """A key a command accepts is a key its runner uses.  One exception:
    dissipativity parses samples and ignores it, since its radius comes from
    an inequality, not from sampling; the benchmark's cli job still passes
    --samples, so the key stays until a declared benchmark change drops it."""

    def test_keys_belong_to_the_commands_that_use_them(self):
        schemas = driver_mod.SCHEMAS
        owners = {key: sorted(c for c, s in schemas.items() if key in s)
                  for key in ("csv", "cert", "periodic-scaling")}
        assert owners == {
            "csv": ["fixed-points", "sap-scan", "spectrum"],
            "cert": ["anhim", "nhim-dims"],
            "periodic-scaling": ["gaps", "jump", "spectrum", "weyl"],
        }
        assert all({"out", "timing"} <= set(s) for s in schemas.values())

    @pytest.mark.parametrize("argv, key", [
        # the index of the standard-scaled periodic box would be 3, not the 5
        # of the paper scaling that an echoed key would have reported
        ("index --dim 1 --bc periodic --periodic-scaling standard --nu 1 "
         "--jac 5 --cutoff 50", "periodic-scaling"),
        ("gaps --cutoff 30 --csv g.csv", "csv"),
        ("delta --field prop35-float --at 0,0 --csv d.csv", "csv"),
        ("gauss-audit --limit 100 --cert c.json", "cert"),
        ("gaps --cutoff 30 --seed 3", "seed"),
        ("dissipativity --field prop34 --seed 3", "seed"),
    ])
    def test_unused_key_refused(self, capsys, tmp_path, monkeypatch, argv, key):
        monkeypatch.chdir(tmp_path)
        code, out, err = cli(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err.startswith(f"imhyp: config error: unknown key '{key}'")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field", ["prop34", "prop35-float", "prop35"])
    def test_samples_changes_nothing(self, field):
        reports = [plain(run({"command": "dissipativity", "field": field,
                              "samples": n})) for n in (1, 2000)]
        assert reports[0]["result"] == reports[1]["result"]
        assert reports[0]["verdict"] == reports[1]["verdict"]

    @pytest.mark.parametrize("argv, key", [
        ("lemma33 --field f.json --tol 1", "tol"),
        ("nhim-dims --field cubic-scalar --nu 0.5 --cutoff 60 --gap-min 1e9",
         "gap-min"),
        ("prop34 --tol 1", "tol"),
        ("fixed-points --field prop34 --tol 5", "tol"),
        ("index --nu 1 --jac 1 --cutoff 500 --zero-tol 1.5", "zero-tol"),
    ])
    def test_no_key_loosens_a_tolerance(self, capsys, tmp_path, monkeypatch,
                                        argv, key):
        # each of these keys once turned a failed check into a pass, exit 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f.json").write_text(json.dumps(
            {"kind": "cubic_coupled", "k": 1, "a": 3, "b": 2}))
        code, out, err = cli(capsys, *argv.split())
        assert code == 1 and out == ""
        assert err.startswith(f"imhyp: config error: unknown key '{key}'")
        assert err.count("\n") == 1

    def test_nhim_dims_cert_needs_two_equilibria(self, capsys, tmp_path):
        cert = tmp_path / "one.json"
        code, out, err = cli(capsys, "nhim-dims", "--jacs", "-1", "--nu", "1",
                             "--cutoff", "60", "--cert", str(cert))
        assert code == 1 and out == ""
        assert err == "imhyp: config error: cert needs two or more equilibria\n"
        assert not cert.exists()

    @pytest.mark.parametrize("cmd", ["parity", "nhim-dims", "anhim"])
    def test_labels_need_jacs(self, capsys, cmd):
        code, out, err = cli(capsys, cmd, "--field", "cubic-scalar",
                             "--labels", "a,b,c", "--nu", "2", "--cutoff", "60")
        assert code == 1 and out == ""
        assert err == (
            "imhyp: config error: labels name the jacs: pass them with 'jacs'\n"
        )

    def test_empty_labels_mean_none(self, capsys):
        # --labels= names no equilibrium, so each is named by its index
        code, out, err = cli(capsys, "parity", "--jacs", "1;-2", "--labels=",
                             "--nu", "1", "--cutoff", "20")
        assert (code, err) == (0, "")
        entries = json.loads(out)["result"]["entries"]
        assert [e["label"] for e in entries] == ["eq0", "eq1"]


class TestRun:
    def test_report_shape(self):
        report = plain(run({"command": "gaps", "cutoff": 30}))
        assert set(report) == {
            "tool", "version", "command", "config", "result", "verdict",
        }
        assert report["tool"] == "imhyp"
        assert report["command"] == "gaps"
        assert report["config"]["bc"] == "neumann"
        assert report["config"]["dim"] == 3
        assert report["result"]["max_gap"] == 2.0

    def test_reports_are_byte_deterministic(self):
        config = {"command": "anhim", "field": "cubic-scalar",
                  "nu": 0.5, "cutoff": 200}
        text1 = render_report(run(config))
        text2 = render_report(run(dict(config)))
        assert text1 == text2

    def test_timing_is_opt_in(self):
        base = run({"command": "gaps", "cutoff": 30})
        timed = run({"command": "gaps", "cutoff": 30, "timing": "true"})
        assert "timing_seconds" not in base
        assert timed["timing_seconds"] >= 0.0

    def test_invalid_config_raises(self):
        with pytest.raises(ConfigError):
            run({"command": "gaps", "cutoff": -1})

    def test_weyl_exponent_of_the_cube(self):
        # the weyl golden pins every byte; this states what the numbers mean
        report = run({"command": "weyl", "cutoff": 500})
        fit = report["result"]
        assert fit.exponent == pytest.approx(0.6910, abs=1e-4)
        assert fit.expected == 2 / 3
        assert fit.n_used == 3236
        assert report["verdict"].endswith("(expected 0.6667 in dim 3)")

    def test_float_rendering_17_digits(self):
        assert '"x": 0.10000000000000001' in render_report({"x": 0.1})
        assert '"y": 0.5' in render_report({"y": 0.5})

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_is_a_numerical_failure(self, x):
        # JSON has no inf or nan: a report holding one is never rendered
        with pytest.raises(NumericalFailure, match="JSON cannot hold"):
            render_report({"result": {"values": [1.0, x]}})

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_float_in_a_table_or_csv_is_refused(self, x):
        # tables and CSV columns are formatted a column at a time
        with pytest.raises(NumericalFailure, match=f"is {x}, which JSON"):
            render_report({"histogram": [[0.5, 1], [x, 2]]})
        with pytest.raises(NumericalFailure, match=f"is {x}, which JSON"):
            driver_mod._csv("lambda,multiplicity", ([0.5, x], [1, 2]))

    def test_library_values_render_as_plain_json(self):
        # render_report converts each node as it writes it; the int key
        # sorts among the others once it is a string
        report = {
            "witness": Witness(-2.0, -1.0, 3),
            "array": np.array([[0.5, 1.0], [2.0, -0.25]]),
            "scalars": [np.float64(0.5), np.int64(7), np.bool_(True)],
            "tuple": ("a", 1),
            3: None,
        }
        back = json.loads(render_report(report))
        assert list(back) == ["3", "array", "scalars", "tuple", "witness"]
        assert back == {
            "witness": {"gamma_lo": -2.0, "gamma_hi": -1.0, "n": 3},
            "array": [[0.5, 1.0], [2.0, -0.25]],
            "scalars": [0.5, 7, True],
            "tuple": ["a", 1],
            "3": None,
        }
        with pytest.raises(TypeError, match="cannot put object in a report"):
            render_report({"x": object()})

    def test_lists_render_as_indented_json(self):
        # one value or row per line, indented one space a level; each row of
        # a table (equal-length lists of scalars) on one line
        report = {
            "table": [[0.5, 1], [-1.25, 2], [3.5, None]],
            "ragged": [[0.5], [1, 2], []],
            "empty_rows": [[], []],
            "rows_of_lists": [[[1], [2]], [[3], [4]]],
            "mixed": [True, False, None, "a\"b", 7, -0.75],
            "records": [{"b": 1, "a": [0.5, 0.25]}, {}],
            "labels": [["ab", "c"], ["d", "e"]],
            "not_rows": [{"ab": 1}, [1]],
            "empty": [],
        }
        text = render_report(report)
        assert json.loads(text) == report
        assert text == """{
 "empty": [],
 "empty_rows": [
  [],
  []
 ],
 "labels": [
  ["ab", "c"],
  ["d", "e"]
 ],
 "mixed": [
  true,
  false,
  null,
  "a\\"b",
  7,
  -0.75
 ],
 "not_rows": [
  {
   "ab": 1
  },
  [
   1
  ]
 ],
 "ragged": [
  [
   0.5
  ],
  [
   1,
   2
  ],
  []
 ],
 "records": [
  {
   "a": [
    0.5,
    0.25
   ],
   "b": 1
  },
  {}
 ],
 "rows_of_lists": [
  [
   [1],
   [2]
  ],
  [
   [3],
   [4]
  ]
 ],
 "table": [
  [0.5, 1],
  [-1.25, 2],
  [3.5, null]
 ]
}
"""


class TestCertificates:
    def test_anhim_empty_certificate_schema(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        report = plain(run({
            "command": "anhim", "field": "cubic-scalar", "nu": 0.5,
            "cutoff": 200, "cert": str(cert_path),
        }))
        cert = report["result"]
        assert set(cert) == {"mode", "cutoff", "result", "equilibria", "caveat"}
        assert cert["mode"] == "ANHIM"
        assert cert["result"] == "empty"
        assert cert["equilibria"] == ["0", "+1", "-1"]
        assert cert["caveat"] == "valid up to cutoff"
        on_disk = json.loads(cert_path.read_text())
        assert on_disk == cert

    def test_anhim_witness_certificate(self):
        report = plain(run({
            "command": "anhim", "field": "cubic-scalar", "nu": 2.0,
            "cutoff": 1000,
        }))
        cert = report["result"]
        assert cert["result"] == {"gamma_lo": -225.0, "gamma_hi": -222.0, "n": 757}
        assert "n=757" in report["verdict"]

    def test_nhim_dims_with_certificate(self):
        report = plain(run({
            "command": "nhim-dims", "field": "cubic-scalar", "nu": 0.5,
            "cutoff": 60,
        }))
        result = report["result"]
        assert len(result["equilibria"]) == 3
        assert result["certificate"]["mode"] == "NHIM"
        assert result["certificate"]["result"]["n"] == 7

    def test_parity_without_hyperbolic_pairs(self):
        # jac 0 puts a zero real part on the constant mode: eq0 is not
        # hyperbolic, and eq1 alone makes no pair
        report = plain(run({"command": "parity", "jacs": "0;-1", "nu": 1,
                            "cutoff": 10}))
        assert report["result"]["pairs"] == []
        assert report["result"]["excluded"] == ["eq0"]
        assert report["verdict"] == "no hyperbolic pairs to compare"

    def test_nhim_dims_single_jacobian(self):
        report = run({
            "command": "nhim-dims", "jacs": "-2", "nu": 0.5, "cutoff": 60,
        })
        eq = report["result"]["equilibria"][0]
        assert eq["dims"] == sorted(eq["dims"])
        assert "certificate" not in report["result"]

    @pytest.mark.parametrize("config", [
        {"command": "parity", "field": "prop35", "nu": 1, "cutoff": 200},
        {"command": "anhim", "field": "cubic-scalar", "nu": 2, "cutoff": 2000},
        {"command": "nhim-dims", "jacs": "-1;-2;-0.5,1,-1,-0.5", "nu": 1,
         "cutoff": 300},
        {"command": "nhim-dims", "field": "prop35", "nu": 1, "cutoff": 200},
    ], ids=["parity-prop35", "anhim-cubic", "nhim-dims-jacs", "nhim-dims-prop35"])
    def test_one_box_enumeration_per_command(self, monkeypatch, config):
        calls = []
        enumerate_spectrum = stationary_spectrum.enumerate_spectrum

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_spectrum(*args, **kwargs)

        monkeypatch.setattr(stationary_spectrum, "enumerate_spectrum", counting)
        run(config)
        assert len(calls) == 1

    def test_nhim_dims_builds_each_gap_row_once(self, monkeypatch):
        # the certificate hands the runner the gap rows it built
        built = []
        gaps_below_zero = stationary_spectrum.ModeCountProfile.gaps_below_zero

        def counting(profile):
            rows = gaps_below_zero(profile)
            built.extend(rows)
            return rows

        monkeypatch.setattr(stationary_spectrum.ModeCountProfile,
                            "gaps_below_zero", counting)
        report = plain(run({"command": "nhim-dims", "jacs": "-1;-2;-0.5,1,-1,-0.5",
                            "nu": 1, "cutoff": 300}))
        dims = sum(eq["dim_count"] for eq in report["result"]["equilibria"])
        assert dims > 0 and len(built) == dims

    def test_prop34_verdict_follows_checklist(self, monkeypatch):
        solve = reaction_field.solve_prop34

        def one_failing_check(**kwargs):
            consts = solve(**kwargs)
            checklist = dataclasses.replace(consts.checklist, ordering=False)
            return dataclasses.replace(consts, checklist=checklist)

        monkeypatch.setattr(reaction_field, "solve_prop34", one_failing_check)
        report = run({"command": "prop34"})
        assert report["result"].checklist.ordering is False
        assert report["verdict"].startswith("FAIL")

    def test_lemma33_without_ladder(self, capsys, tmp_path):
        # x' = x - x^3, y' = -y: delta 2 at the origin, delta 1 at (+-1, 0)
        field = tmp_path / "field.json"
        field.write_text(json.dumps({
            "kind": "poly", "f1": [[1, 0, 1.0], [3, 0, -1.0]],
            "f2": [[0, 1, -1.0]],
        }))
        code, out, err = cli(capsys, "lemma33", "--field", str(field))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["result"]["ladder_found"] is False
        matches = report["result"]["matches"]
        assert sorted(matches) == ["1", "2"]
        assert matches["1"]["point"] == [-1.0, 0.0]
        assert matches["2"]["point"] == [0.0, 0.0]
        assert report["verdict"] == "no delta ladder: missing targets [0, 3]"

    @pytest.mark.parametrize("cmd", ["anhim", "nhim-dims"])
    def test_cutoff_below_certified_range_refused(self, capsys, cmd):
        # xi_max = 1 and nu = 2: cutoff 0.1 certifies nothing below zero,
        # so an "empty" certificate would be vacuous
        code, out, err = cli(
            capsys, cmd, "--field", "cubic-scalar", "--nu", "2",
            "--cutoff", "0.1",
        )
        assert code == 1 and out == ""
        assert err == (
            "imhyp: config error: cutoff 0.1 too small to certify any gap "
            "below zero: need cutoff > 0.5\n"
        )

    @pytest.mark.parametrize("theta, code", [("0", 0), ("1", 1)])
    def test_jump_theta_range(self, capsys, theta, code):
        got, out, err = cli(capsys, "jump", "--cutoff", "30", "--theta", theta)
        assert got == code
        if code == 0:
            assert json.loads(out)["config"]["theta"] == float(theta)
        else:
            assert "theta must lie in [0, 1)" in err

    def test_jump_theta_default_is_the_library_default(self):
        report = run({"command": "jump", "cutoff": 30})
        assert report["config"]["theta"] == JumpQuery().theta == 0.5


class TestMainExitCodes:
    def test_success(self, capsys):
        code, out, err = cli(capsys, "gaps", "--cutoff", "30")
        assert code == 0
        assert '"verdict"' in out and err == ""

    def test_config_error(self, capsys):
        code, out, err = cli(capsys, "gaps", "--cutoff", "-1")
        assert code == 1
        assert "config error" in err and "cutoff must be positive" in err

    def test_unknown_command(self, capsys):
        code, _, err = cli(capsys, "spectrun")
        assert code == 1
        assert "did you mean 'spectrum'" in err
        code, out, err = cli(capsys, "gapz", "--cutoff", "30")
        assert code == 1 and out == ""
        assert err == (
            "imhyp: config error: unknown command 'gapz' (did you mean 'gaps'?)\n"
        )

    def test_hypothesis_not_met(self, capsys):
        code, _, err = cli(
            capsys, "delta", "--field", "prop35-float", "--at", "0.5,0.5"
        )
        assert code == 2
        assert "hypothesis not met" in err

    @pytest.mark.parametrize("field, at, shown", [
        ("prop35-float", "1e200,0", "|f(p)| = inf"),
        ("prop35", "1e200,0", "|f(p)| = inf"),
        ("prop34", "1e200,0", "|f(p)| = inf"),
        ("prop35-float", "nan,0", "|f(p)| = nan"),
        ("prop35", "nan,0", "|f(p)| = nan"),
        (PROP35_STRINGS, "nan,0", "|f(p)| = nan"),
        ("prop35", "inf,0", "|f(p)| = inf"),
        (PROP35_STRINGS, "inf,0", "|f(p)| = inf"),
        ("prop35", "1e300,0", "|f(p)| = inf"),
        (PROP35_STRINGS, "1e300,0", "|f(p)| = inf"),
        ("prop35", "0.5,0.5", "|f(p)| = 1.284e+00"),
    ])
    def test_far_or_nan_point_is_not_a_fixed_point(self, capsys, tmp_path,
                                                   field, at, shown):
        code, out, err = cli(capsys, "delta", "--field", field_arg(field, tmp_path),
                             "--at", at)
        assert code == 2 and out == ""
        assert err.startswith("imhyp: hypothesis not met: point (")
        assert f"is not a fixed point: {shown} exceeds 1e-08" in err
        assert err.count("\n") == 1

    def test_exact_field_at_the_float_of_a_fixed_point(self, capsys):
        # the doubles nearest (sqrt 3, sqrt 2) leave |f(p)| of about 1.5e-16
        code, out, err = cli(capsys, "delta", "--field", "prop35",
                             "--at", "1.7320508075688772,1.4142135623730951")
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert 0.0 < result["residual"] <= 1e-15
        assert abs(result["delta"] - 1.0) <= 1e-14

    def test_string_field_at_the_float_of_a_fixed_point(self, capsys, tmp_path):
        # a float point leaves round-off in the exact components of f(p); the
        # residual must still be a real float and delta the builtin field's
        deltas = []
        for field in ("prop35", field_arg(PROP35_STRINGS, tmp_path)):
            code, out, err = cli(capsys, "delta", "--field", field,
                                 "--at", "1.7320508075688772,1.4142135623730951")
            assert (code, err) == (0, "")
            deltas.append(json.loads(out)["result"]["delta"])
        assert abs(deltas[0] - deltas[1]) <= 1e-14

    def test_field_strings_never_run(self, capsys, tmp_path):
        # a call is outside the grammar of field strings: refused, not run
        marker = tmp_path / "PWNED"
        field = {"kind": "cubic_coupled", "a": "3", "b": "1",
                 "k": f'__import__("os").system("touch {marker}") or 1'}
        code, out, err = cli(capsys, "delta", "--field", field_arg(field, tmp_path),
                             "--at", "0,0")
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("imhyp: config error: k is not an exact number: ")
        assert not marker.exists()

    def test_exact_ladder_needs_exact_gaps(self, capsys, tmp_path):
        # a = 2 + 1e-8 moves each gap by about 1e-8, inside LADDER_TOL; on an
        # exact field only delta == i matches
        field = dict(PROP35_STRINGS, a="2 + 1/100000000")
        code, out, err = cli(capsys, "lemma33", "--field", field_arg(field, tmp_path))
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["ladder_found"] is False

    def test_lemma41_nonpositive_difference(self, capsys):
        code, _, err = cli(
            capsys, "lemma41", "--jac0", "-2", "--jac1", "1", "--gap-bound", "3"
        )
        assert code == 2

    def test_numerical_failure_maps_to_3(self, capsys, monkeypatch):
        def boom(_params):
            raise NumericalFailure("forced")

        monkeypatch.setitem(driver_mod.RUNNERS, "gaps", boom)
        code, _, err = cli(capsys, "gaps", "--cutoff", "30")
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize("witness, shown", [
        (17, " (witness: 17)"),
        ((1.5, -2.0), " (witness: (1.5, -2.0))"),
        (None, ""),
    ])
    def test_numerical_failure_shows_its_witness(
        self, capsys, monkeypatch, witness, shown
    ):
        def boom(_params):
            raise NumericalFailure("tables\ndisagree", witness=witness)

        monkeypatch.setitem(driver_mod.RUNNERS, "gaps", boom)
        code, out, err = cli(capsys, "gaps", "--cutoff", "30")
        assert code == 3 and out == ""
        assert err == f"imhyp: numerical failure: tables disagree{shown}\n"

    def test_help_and_version(self, capsys):
        assert cli(capsys, "--help")[0] == 0
        code, out, _ = cli(capsys, "--version")
        assert code == 0 and out.startswith("imhyp ")

    def test_help_names_every_subcommand(self, capsys):
        code, out, _ = cli(capsys, "--help")
        listed = out.split("subcommands:\n", 1)[1].split("\n\n", 1)[0].split()
        assert code == 0 and sorted(listed) == sorted(driver_mod.RUNNERS)

    def test_key_equals_value_flags(self, capsys):
        code, out, err = cli(capsys, "gaps", "--cutoff=30", "--bc=dirichlet")
        assert code == 0 and err == ""
        config = json.loads(out)["config"]
        assert (config["cutoff"], config["bc"]) == (30.0, "dirichlet")

    def test_bare_token_refused(self, capsys):
        code, out, err = cli(capsys, "gaps", "--cutoff", "30", "40")
        assert code == 1 and out == ""
        assert err == "imhyp: config error: expected --key, got '40'\n"

    def test_flag_without_value(self, capsys):
        code, _, err = cli(capsys, "gaps", "--cutoff")
        assert code == 1
        assert "needs a value" in err

    def test_internal_error_maps_to_4(self, capsys, monkeypatch):
        def boom(_params):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setitem(driver_mod.RUNNERS, "gaps", boom)
        code, out, err = cli(capsys, "gaps", "--cutoff", "30")
        assert code == 4 and out == ""
        assert err == (
            "imhyp: internal error: RuntimeError: first line second line\n"
        )

    @pytest.mark.parametrize("argv, text", [
        ("fixed-points --field", '{"kind": "poly", "f1": [[1]], "f2": []}'),
        ("fixed-points --field", '{"kind": "cubic_coupled", "k": 1, "b": 1}'),
        ("fixed-points --field", "{kind: poly"),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h",
         '{"domain": {"bc": "neumann"}, "coeffs": []}'),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h",
         '{"domain": {"dim": 3}, "coeffs": [["x", 0, 0, 1]]}'),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h", "not json"),
        # numbers read as config keys read them: no truncation, no true as 1,
        # and an infinite exponent or frequency is no integer
        ("fixed-points --field",
         '{"kind": "poly", "f1": [[1.5, 0, 1.0], [0, 0, -1.0]], "f2": [[0, 1, 1.0]]}'),
        ("fixed-points --field",
         '{"kind": "poly", "f1": [[Infinity, 0, 1.0]], "f2": [[0, 1, 1.0]]}'),
        ("fixed-points --field",
         '{"kind": "poly", "f1": [[1, 0, true]], "f2": [[0, 1, 1.0]]}'),
        ("fixed-points --field", '{"kind": "cubic_coupled", "k": true, "a": 3, "b": 1}'),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h",
         '{"domain": {"dim": 2.7}, "coeffs": [[1, 0, 1.0]]}'),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h",
         '{"domain": {"dim": true}, "coeffs": [[1, 1.0]]}'),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h",
         '{"domain": {"dim": 1, "sides": [true]}, "coeffs": [[1, 1.0]]}'),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h",
         '{"domain": {"dim": 3}, "coeffs": [[true, 0, 0, 1.0]]}'),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h",
         '{"domain": {"dim": 3}, "coeffs": [[1, 0, 0, true]]}'),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h",
         '{"domain": {"dim": 3}, "coeffs": [[Infinity, 0, 0, 1.0]]}'),
    ])
    def test_malformed_input_file(self, capsys, tmp_path, argv, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = cli(capsys, *argv.split(), str(path))
        assert code == 1 and out == ""
        assert err.startswith("imhyp: config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fixed-points", "dissipativity"])
    @pytest.mark.parametrize("k", ["NaN", "Infinity", "-1"])
    def test_non_finite_field_parameter_refused(self, capsys, tmp_path, command, k):
        # NaN fails every comparison, so `value <= 0` alone lets it through
        path = tmp_path / "field.json"
        path.write_text(f'{{"kind": "cubic_coupled", "k": {k}, "a": 3, "b": 1}}')
        code, out, err = cli(capsys, command, "--field", str(path))
        assert code == 1 and out == ""
        assert err.startswith("imhyp: config error: k must be positive and finite")

    @pytest.mark.parametrize("command", ["fixed-points", "lemma33"])
    @pytest.mark.parametrize("coef", ['"nan"', "NaN", "-Infinity", "1e400"])
    def test_non_finite_poly_coefficient_refused(self, capsys, tmp_path,
                                                 command, coef):
        # a NaN term makes every residual NaN, so no candidate is ever kept
        path = tmp_path / "field.json"
        path.write_text(f'{{"kind": "poly", "f1": [[1, 0, 1.0], [2, 0, {coef}]], '
                        f'"f2": [[0, 1, -1.0]]}}')
        code, out, err = cli(capsys, command, "--field", str(path))
        assert code == 1 and out == ""
        assert err == ("imhyp: config error: f1 coefficient of v1^2*v2^0 "
                       "is not finite\n")

    def test_mixed_exact_and_float_field_is_a_float_field(self, capsys, tmp_path):
        import sympy

        mixed = {"kind": "cubic_coupled", "k": 3.4641016151377544,
                 "a": "sqrt(5)/3 + 3/2", "b": 0.5590169943749475}
        floats = dict(mixed, a=float(sympy.sympify(mixed["a"])))
        results = []
        for name, field in (("mixed", mixed), ("floats", floats)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(field))
            code, _, err = cli(capsys, "fixed-points", "--field", str(path))
            assert (code, err) == (0, "")
            results.append(run({"command": "fixed-points", "field": str(path)})["result"])
        assert results[0] == results[1]
        assert results[0]["count"] == 9

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_path(self, capsys, tmp_path, flag):
        target = tmp_path / "missing" / "file"
        code, out, err = cli(
            capsys, "spectrum", "--cutoff", "30", flag, str(target)
        )
        assert code == 1 and out == ""
        assert err == (
            f"imhyp: config error: cannot write {target}: "
            "No such file or directory\n"
        )

    @pytest.mark.parametrize("argv", [
        "spectrum --cutoff 30 --out",
        "spectrum --cutoff 30 --csv",
        "anhim --field cubic-scalar --nu 2 --cutoff 200 --cert",
    ], ids=["out", "csv", "cert"])
    def test_output_path_that_is_not_a_regular_file(self, capsys, tmp_path, argv):
        # the rename would replace the FIFO with a file; nothing opens it
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        code, out, err = cli(capsys, *argv.split(), str(fifo))
        assert code == 1 and out == ""
        assert err == (f"imhyp: config error: cannot write {fifo}: "
                       "not a regular file\n")
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]

    @pytest.mark.parametrize("jac", ["-0", "-0,0,0,-0"])
    def test_zero_jacobian_renders_no_negative_zero(self, capsys, jac):
        code, out, _ = cli(capsys, "profile", f"--jac={jac}", "--nu", "1",
                           "--cutoff", "3", "--dim", "1")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["breakpoints"][0] == 0 and result["gaps_below_zero"][0]["n"] > 0
        # the config echoes --jac as typed; no result value reads -0
        assert re.findall(r"-0\b(?!\.)", out.split('"result"')[1]) == []


NO_FIXED_POINTS = {"kind": "poly", "f1": [[0, 0, 1.0]], "f2": [[0, 0, 1.0]]}

EDGE_ARGV = [
    "spectrum --bc dirichlet --cutoff 1",
    "spectrum --dim 1 --cutoff 1e-9",
    "spectrum --sides , --cutoff 10",
    "gaps --cutoff 1e12",
    "gaps --dim 4 --cutoff 10",
    "jump --cutoff 0.5",
    "gauss-audit --limit 7",
    "weyl --cutoff 1",
    "fixed-points --field nofp.json",
    "fixed-points --field prop34 --region 1,0,0,1",
    "fixed-points --field .",
    "delta --field prop35 --at 0",
    "lemma33 --field nofp.json",
    "prop34 --bracket-lo 0.5 --bracket-hi 2",
    "prop34 --bracket-lo 9 --bracket-hi 8",
    "prop35-verify --exact maybe",
    "dissipativity --field nofp.json",
    "dissipativity --field prop34 --seed -1",
    "region --field prop35 --c 1",
    "index --nu 1 --jac , --cutoff 10",
    "parity --field nofp.json --nu 1 --cutoff 10",
    "parity --jacs 1;2 --labels a --nu 1 --cutoff 10",
    "profile --nu 1 --jac 1 --cutoff 1e-9",
    "nhim-dims --jacs 1;-2 --nu 1 --cutoff 0.5",
    "anhim --jacs -1 --nu 1 --cutoff 10",
    "lemma41 --jac0 0 --jac1 0 --gap-bound 1",
    "sap-scan --h cos-x1 --k 1 --rho 100 --lambda-max 1",
    "gaps --config nofp.json",
]


@pytest.mark.parametrize("argv", EDGE_ARGV)
def test_edge_configs_end_in_a_documented_exit(
    capsys, tmp_path, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nofp.json").write_text(json.dumps(NO_FIXED_POINTS))
    code, _, err = cli(capsys, *argv.split())
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("imhyp: ") and err.count("\n") == 1


# each golden config's keys, one at a time, set to each of these values
EDGE_VALUES = [0, -1, math.nan, math.inf, -math.inf, 1e308, 1e-308, 5e-324,
               1e20, "abc", "", 1e9, 2**53]
UNSWEPT_KEYS = {"command", "out", "csv", "cert"}

# stdin: a JSON list of [working directory, argv]; runs each argv through
# main() in its directory and prints, per run, [exit code, stderr, and on
# exit 0 the sha256 of the report's result and verdict]
SWEEP_SCRIPT = """
import contextlib, hashlib, io, json, os, sys
from imhyp.driver import main
seen = []
for cwd, argv in json.load(sys.stdin):
    os.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    answer = None
    if code == 0:
        report = json.loads(out.getvalue())
        answer = json.dumps([report["result"], report["verdict"]], sort_keys=True)
        answer = hashlib.sha256(answer.encode()).hexdigest()
    seen.append([code, err.getvalue(), answer])
print(json.dumps(seen))
"""


def _one_gib_address_space():
    # runs in the child between fork and exec, so only the child is limited
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))


def _limited_python(*args, **kwargs):
    """A fresh interpreter, with fresh_python's timeout, whose address space
    is capped at 1 GiB: an unbounded allocation shows as an exit, not as the
    machine's OOM kill."""
    return fresh_python(*args, preexec_fn=_one_gib_address_space, **kwargs)


def _with_edge(text: str, value) -> str:
    # a comma- or semicolon-separated value takes the edge as its first entry
    return re.sub(r"^[^,;]*", lambda _: str(value), text)


def test_edge_sweep_of_every_golden_config(tmp_path):
    runs = []
    for name, config in sorted(CONFIGS.items()):
        cwd = tmp_path / name
        cwd.mkdir()
        for file, text in INPUTS.get(name, {}).items():
            (cwd / file).write_text(text)
        flags = {key: str(value) for key, value in config.items()
                 if key != "command"}
        for key in sorted(set(flags) - UNSWEPT_KEYS):
            for value in EDGE_VALUES:
                edged = {**flags, key: _with_edge(flags[key], value)}
                argv = [config["command"]] + [f"--{k}={v}" for k, v in edged.items()]
                runs.append([str(cwd), argv])
    proc = _limited_python("-c", SWEEP_SCRIPT, input=json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert len(seen) == len(runs) == 754
    bad = [(" ".join(argv), code, err) for (_, argv), (code, err, _) in zip(runs, seen)
           if code not in (0, 1, 2, 3) or "Traceback" in err
           or code and not (err.startswith("imhyp: ") and err.count("\n") == 1)]
    assert bad == []
    # a huge sample count is accepted and ignored: the golden's answer
    golden = json.loads((GOLDEN / "dissipativity-prop35-float.json").read_text())
    want = hashlib.sha256(json.dumps([golden["result"], golden["verdict"]],
                                     sort_keys=True).encode()).hexdigest()
    accepted = {argv[2]: answer for (_, argv), (code, _, answer) in zip(runs, seen)
                if code == 0 and argv[:2] == ["dissipativity", "--field=prop35-float"]}
    assert accepted == {"--samples=1000000000.0": want,
                        "--samples=9007199254740992": want}


def test_weyl_fit_over_the_budget_exits_1():
    # the pi cube at 1e6 folds 1e6 cells, inside the budget, but its fit
    # would repeat 524776511 eigenvalues by multiplicity: 3.9 GiB
    proc = _limited_python("-m", "imhyp.driver", "weyl", "--cutoff", "1e6")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "imhyp: config error: growth fit expands 524776511 lattice points, "
        "over the budget of 100000000 lattice cells\n"
    )


def test_empty_float_path_spectrum(capsys):
    # no Dirichlet mode of the (2, 2.7) box lies below 0.5
    box = ["--dim", "2", "--sides", "2,2.7", "--bc", "dirichlet", "--cutoff", "0.5"]
    code, out, err = cli(capsys, "spectrum", *box)
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert (result["count"], result["distinct"], result["lowest"]) == (0, 0, None)
    code, out, err = cli(capsys, "gaps", *box)
    assert code == 2 and out == ""
    assert err == ("imhyp: hypothesis not met: only 0 distinct eigenvalues "
                   "below 0.5; no gaps to report\n")


def test_tiny_multiplier_side_exits_3_and_writes_nothing(capsys, tmp_path,
                                                         monkeypatch):
    # h2_norm overflows to inf on a 1e-300 side, which the report refuses
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.json").write_text(json.dumps({
        "domain": {"dim": 2, "bc": "periodic", "sides": [1e-300, 1]},
        "coeffs": [[1, 0, 1.0]],
    }))
    code, out, err = cli(capsys, "sap-scan", "--h", "tiny.json", "--k", "1",
                         "--rho", "1", "--lambda-max", "10", "--out", "r.json")
    assert code == 3 and out == ""
    assert err == ("imhyp: numerical failure: a report value is inf, "
                   "which JSON cannot hold\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["tiny.json"]


def _and_list(names):
    return ", ".join(names[:-1]) + " and " + names[-1]


def test_usage_and_readme_repeat_the_command_table():
    # @_command declares each command and its keys once; --help and the
    # README list them again by hand
    takers = {key: [cmd for cmd, schema in driver_mod.SCHEMAS.items()
                    if key in schema] for key in ("csv", "cert")}
    usage = driver_mod._USAGE
    block = usage.split("subcommands:\n", 1)[1].split("\n\n", 1)[0]
    assert block.split() == list(driver_mod.SCHEMAS)
    flat = " ".join(usage.split())
    m = re.search(r"--timing true; (.+?) take --csv FILE\.csv, "
                  r"(.+?) take --cert FILE\.json\.", flat)
    assert m and m.groups() == (_and_list(takers["csv"]),
                                _and_list(takers["cert"]))
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    listed = readme.split("every computation as a subcommand:\n\n```\n", 1)[1]
    listed = listed.split("```", 1)[0]
    assert ([line.split() for line in listed.splitlines()]
            == [line.split() for line in block.splitlines()])
    m = re.search(r"`--csv` belongs to (.+?), `--cert`", " ".join(readme.split()))
    assert m and m.group(1) == _and_list([f"`{c}`" for c in takers["csv"]])


def test_audit_over_the_budget_exits_1(capsys):
    # refused before the table is allocated: no MemoryError, no OOM kill;
    # a 401-digit limit prints no 401-digit count
    for limit, count in (("1e12", "1e+12"), ("1" + "0" * 400, "more than 1e308")):
        code, out, err = cli(capsys, "gauss-audit", "--limit", limit)
        assert code == 1 and out == ""
        assert err == (
            f"imhyp: config error: audit needs a table of {count} cells, "
            "over the budget of 100000000 lattice cells\n"
        )


def test_wide_rho_sap_scan_is_not_refused(capsys):
    # the gaps need the spectrum only one eigenvalue past lambda-max
    code, out, err = cli(capsys, "sap-scan", "--h", "cos-x1", "--k", "1",
                         "--rho", "1e9", "--lambda-max", "10")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["result"]["windows"] == 0
    assert report["verdict"] == "no spectral gap wide enough for the requested rho"


def test_sap_scan_windows_over_512_modes(capsys, tmp_path):
    # h = cos x on the Neumann interval couples each mode l to l +- 1 with
    # entries 1/2 (1/sqrt 2 from l = 0): each 548-mode window is the
    # Gauss-Chebyshev Jacobi matrix, whose norm is cos(pi/1096) exactly
    path = tmp_path / "h1.json"
    path.write_text('{"domain": {"dim": 1}, "coeffs": [[1, 1.0]]}')
    code, out, err = cli(capsys, "sap-scan", "--h", str(path), "--k", "300000",
                         "--rho", "1", "--lambda-max", "2")
    assert code == 0 and err == ""
    rows = json.loads(out)["result"]["reports"]
    want = math.cos(math.pi / 1096)
    assert len(rows) == 2
    for row in rows:
        assert row["window_modes"] == 548
        assert abs(row["op_norm"] - want) <= 4 * np.spacing(want)


@pytest.mark.parametrize("argv", [
    "profile --nu 1 --jac 1e308,1e308,1e308,1e308 --cutoff 10",
    "jump --nu 1e308 --cutoff 300",
])
def test_overflow_prints_one_stderr_line(argv):
    # in a fresh interpreter, where numpy's RuntimeWarnings reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "imhyp.driver", *argv.split()],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("imhyp: numerical failure: a report value is inf, "
                           "which JSON cannot hold\n")


def test_non_finite_report_value_exits_3_and_writes_nothing(capsys, tmp_path):
    # the lemma41 threshold overflows to inf for a gap bound of 1e-320
    argv = ["lemma41", "--jac0", "1", "--jac1", "-2", "--gap-bound", "1e-320"]
    out_path = tmp_path / "r.json"
    for extra in ([], ["--out", str(out_path)]):
        code, out, err = cli(capsys, *argv, *extra)
        assert code == 3 and out == ""
        assert err == ("imhyp: numerical failure: a report value is inf, "
                       "which JSON cannot hold\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "fixed-points --field prop34 --region 0,inf,0,1 --csv fixed.csv",
    "lemma33 --field prop34 --region 0,inf,0,1",
    "fixed-points --field poly.json --region -inf,1,0,1 --csv fixed.csv",
])
def test_infinite_region_exits_1_and_writes_nothing(capsys, tmp_path,
                                                    monkeypatch, argv):
    # refused by the region check before any search, not as an inf report value
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poly.json").write_text(json.dumps(
        {"kind": "poly", "f1": [[1, 0, 1.0], [3, 0, -1.0]], "f2": [[0, 1, -1.0]]}
    ))
    code, out, err = cli(capsys, *argv.split(), "--out", "r.json")
    assert code == 1 and out == ""
    assert err == ("imhyp: config error: region must be a nondegenerate finite "
                   "box ((x0,x1),(y0,y1))\n")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["poly.json"]


@pytest.mark.parametrize("argv, message", [
    ("gaps --sides inf,3,3 --cutoff 10",
     "side lengths must be positive and finite, got (inf, 3.0, 3.0)"),
    ("index --dim 1 --sides inf --nu 1 --jac 1 --cutoff 10",
     "side lengths must be positive and finite, got (inf,)"),
    # refused before one axis's frequencies are allocated
    ("spectrum --dim 1 --sides 1e300 --cutoff 10",
     "enumeration visits 1.00658424e+300 frequencies on axis 1, over the "
     "budget of 100000000 lattice cells"),
    # counts print to 9 significant digits, not as 301-digit integers
    ("gaps --cutoff 1e300",
     "enumeration needs a table of 1e+300 cells, over the budget of "
     "100000000 lattice cells"),
    ("sap-scan --h cos-x1 --k 1 --rho 1 --lambda-max 1e300",
     "enumeration needs a table of 1e+300 cells, over the budget of "
     "100000000 lattice cells"),
])
def test_unusable_box_exits_1(capsys, argv, message):
    code, out, err = cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err == f"imhyp: config error: {message}\n"


class TestFilesAndConfig:
    def test_out_writes_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = cli(
            capsys, "gaps", "--cutoff", "30", "--out", str(out_path)
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["command"] == "gaps"
        # verdict echoed to stdout when the report goes to a file
        assert report["verdict"] in out

    def test_failed_rename_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        # the temp file beside the target is removed when the rename fails
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(driver_mod.os, "replace", refuse)
        out_path = tmp_path / "report.json"
        code, out, err = cli(capsys, "gaps", "--cutoff", "30",
                             "--out", str(out_path))
        assert code == 1 and out == ""
        assert err == (f"imhyp: config error: cannot write {out_path}: "
                       "Permission denied\n")
        assert list(tmp_path.iterdir()) == []

    def test_spectrum_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "spec.csv"
        code, _, _ = cli(
            capsys, "spectrum", "--cutoff", "30", "--csv", str(csv_path)
        )
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "lambda,multiplicity"
        assert len(lines) > 10

    def test_config_file_with_cli_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "gaps", "cutoff": 30}))
        code, out, _ = cli(
            capsys, "gaps", "--config", str(cfg), "--cutoff", "50"
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["cutoff"] == 50.0

    def test_config_file_command_mismatch(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "gaps", "cutoff": 30}))
        code, _, err = cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 1
        assert "is for command" in err

    def test_sap_scan_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code, out, _ = cli(
            capsys, "sap-scan", "--h", "cos-x1", "--k", "1", "--rho", "1",
            "--lambda-max", "40", "--csv", str(csv_path),
        )
        assert code == 0
        header = csv_path.read_text().split("\n", 1)[0]
        assert header == "lambda,k,window_modes,op_norm,h2_norm,eps_eff,gap,rho_ok"
        report = json.loads(out)
        assert report["result"]["windows"] > 0
        assert report["result"]["headline"]["eps_eff"] >= 0.0

    @pytest.mark.parametrize("argv, what", [
        ("gaps --cutoff 30 --config", "config"),
        ("fixed-points --field", "field"),
        ("sap-scan --k 1 --rho 1 --lambda-max 10 --h", "multiplier"),
    ])
    @pytest.mark.parametrize("text, problem", [
        ("[1, 2]", "not a JSON object"),
        ("{kind", "not valid JSON: Expecting property name enclosed in "
                  "double quotes: line 1 column 2 (char 1)"),
        (None, "Is a directory"),
    ])
    def test_json_input_file_errors(self, capsys, tmp_path, argv, what,
                                    text, problem):
        # one reader for every JSON input file, so one message shape
        path = tmp_path / "input.json"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        code, out, err = cli(capsys, *argv.split(), str(path))
        assert code == 1 and out == ""
        assert err == (
            f"imhyp: config error: cannot read {what} file {path}: {problem}\n"
        )

    def test_missing_config_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = cli(capsys, "gaps", "--config", str(path))
        assert code == 1 and out == ""
        assert err == (
            f"imhyp: config error: cannot read config file {path}: "
            "No such file or directory\n"
        )

    def test_field_and_jacs_conflict(self, capsys):
        code, _, err = cli(
            capsys, "anhim", "--field", "cubic-scalar", "--jacs", "1",
            "--nu", "0.5", "--cutoff", "60",
        )
        assert code == 1
        assert "exactly one" in err

    @pytest.mark.parametrize("cmd", ["nhim-dims", "parity", "anhim"])
    def test_empty_jacs(self, capsys, cmd):
        code, out, err = cli(
            capsys, cmd, "--jacs", "", "--nu", "0.5", "--cutoff", "60"
        )
        assert code == 1 and out == ""
        assert "no equilibria" in err

    def test_unknown_builtin_field(self, capsys):
        code, _, err = cli(
            capsys, "fixed-points", "--field", "missing.json"
        )
        assert code == 1
        assert "neither" in err

    def test_unknown_builtin_multiplier(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = cli(capsys, "sap-scan", "--h", "cos-x2", "--k", "1",
                             "--rho", "1", "--lambda-max", "10")
        assert code == 1 and out == ""
        assert err == (
            "imhyp: config error: multiplier 'cos-x2' is neither a readable "
            "JSON file nor a builtin (cos-x1)\n"
        )

    def test_scalar_field_rejected_for_planar_command(self, capsys):
        code, _, err = cli(capsys, "fixed-points", "--field", "cubic-scalar")
        assert code == 1
        assert "planar" in err


class TestSubprocessEntry:
    def test_module_invocation_round_trip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "imhyp.driver", "gaps", "--cutoff", "30"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["witness"] == [6.0, 8.0]

    def test_stdout_bytes_reproducible(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "imhyp.driver", "prop34"],
                capture_output=True, text=True, timeout=120,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        "--version",
        "gaps --cutoff 100",
        # a 247 kB report, past the pipe's buffer and stdout's
        "spectrum --sides 2.96,3.14,3.34 --cutoff 1000",
    ])
    def test_closed_stdout_exits_1_with_one_line(self, argv, unbuffered):
        # stdout is a pipe whose read end is closed; the interpreter's own
        # flush at exit must not add a line or turn the exit into 120
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "imhyp.driver", *argv.split()],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                env=env,
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == "imhyp: config error: cannot write stdout: Broken pipe\n"
