"""Golden report bytes: the rendered report of each config below must match
tests/golden/<name>.json byte for byte.

The configs cover every subcommand family, the exact pi-box and the float
enumeration paths, a --cert certificate and an anhim witness.  Configs whose
numbers come from LAPACK or BLAS (weyl's polyfit, sap-scan windows with a
block over 512 modes) are left out so the bytes do not depend on the
platform.

A change that alters report bytes on purpose regenerates the files with
``python tests/test_golden_reports.py`` and names each changed byte: the
script rewrites only the files whose bytes change and prints a unified diff
of each to stdout.
"""

import os
import pathlib
import sys

import pytest

from imhyp.driver import render_report, run

GOLDEN = pathlib.Path(__file__).parent / "golden"

CONFIGS = {
    "spectrum-pi-square-csv": {"command": "spectrum", "dim": 2, "cutoff": 50,
                               "csv": "spectrum.csv"},
    "spectrum-float-dirichlet": {"command": "spectrum", "dim": 2,
                                 "sides": "2,2.7", "bc": "dirichlet",
                                 "cutoff": 60},
    "gaps-pi-cube": {"command": "gaps", "cutoff": 200},
    "gaps-float-box": {"command": "gaps", "sides": "3,3.1,3.3", "cutoff": 100},
    "gaps-periodic-standard": {"command": "gaps", "dim": 2, "bc": "periodic",
                               "periodic-scaling": "standard", "cutoff": 100},
    "jump": {"command": "jump", "cutoff": 300},
    "gauss-audit": {"command": "gauss-audit", "limit": 10000},
    "fixed-points-prop34": {"command": "fixed-points", "field": "prop34"},
    "delta-prop35-exact": {"command": "delta", "field": "prop35", "at": "0,0"},
    "lemma33-prop35": {"command": "lemma33", "field": "prop35"},
    "prop34": {"command": "prop34"},
    "prop35-verify-exact": {"command": "prop35-verify", "exact": True},
    "prop35-verify-float": {"command": "prop35-verify", "exact": False},
    "dissipativity-prop35-float": {"command": "dissipativity",
                                   "field": "prop35-float", "samples": 2000},
    "region": {"command": "region", "field": "prop34", "c": 2},
    "index": {"command": "index", "nu": 1, "jac": "1", "cutoff": 50},
    "parity-jacs": {"command": "parity", "jacs": "1;-2;-0.5,1,-1,-0.5;0",
                    "nu": 1, "cutoff": 50},
    "profile": {"command": "profile", "nu": 1, "jac": "-1,2,-2,-1",
                "cutoff": 20},
    "nhim-dims-cert": {"command": "nhim-dims", "field": "cubic-scalar",
                       "nu": 0.5, "cutoff": 60, "cert": "nhim.json"},
    "anhim-witness-cert": {"command": "anhim", "field": "cubic-scalar",
                           "nu": 2, "cutoff": 500, "cert": "anhim.json"},
    "anhim-empty": {"command": "anhim", "field": "cubic-scalar", "nu": 0.5,
                    "cutoff": 200},
    "lemma41": {"command": "lemma41", "jac0": 1, "jac1": -2, "gap-bound": 3},
    "sap-scan-cos-x1": {"command": "sap-scan", "h": "cos-x1", "k": 3,
                        "rho": 1, "lambda-max": 20},
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --csv/--cert paths are relative
    text = render_report(run(dict(CONFIGS[name])))
    assert text == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    import difflib
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, config in sorted(CONFIGS.items()):
            path = GOLDEN / f"{name}.json"
            old = path.read_text() if path.exists() else ""
            new = render_report(run(dict(config)))
            if new == old:
                continue
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(keepends=True), new.splitlines(keepends=True),
                f"a/tests/golden/{name}.json", f"b/tests/golden/{name}.json"))
            path.write_text(new)
            print(f"wrote {name}", file=sys.stderr)
