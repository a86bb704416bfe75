"""Golden bytes: the rendered report of each config below must match
tests/golden/<name>.json byte for byte, and every file the config writes
(--csv, --cert) must match tests/golden/files/<name>/<file>.

The configs cover every subcommand family, the exact pi-box and the float
enumeration paths, both certificates, an anhim witness, the spectrum,
fixed-points and sap-scan CSVs, every exact fixed point of the Prop. 3.5
field and of an exact coupled field (four of its points off the axes),
field files and a multiplier file read from disk, and the weyl growth fit
(closed-form least squares in numpy reductions).  No config's numbers come
from BLAS or LAPACK, so the bytes do not depend on the platform.

A change that alters golden bytes on purpose regenerates the files with
``python tests/test_golden_reports.py`` and names each changed byte: the
script rewrites only the files whose bytes change and prints a unified diff
of each to stdout.
"""

import json
import os
import pathlib
import sys

import pytest

from imhyp.driver import render_report, run

GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_FILES = GOLDEN / "files"

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
    "weyl": {"command": "weyl", "cutoff": 500},
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
    "fixed-points-poly-file-csv": {"command": "fixed-points",
                                   "field": "field.json", "csv": "fixed.csv"},
    "fixed-points-prop35-exact-csv": {"command": "fixed-points",
                                      "field": "prop35", "csv": "fixed.csv"},
    "fixed-points-coupled-exact-file": {"command": "fixed-points",
                                        "field": "field.json"},
    "sap-scan-file-csv": {"command": "sap-scan", "h": "h.json", "k": 3,
                          "rho": 1, "lambda-max": 30, "csv": "sap.csv"},
}

# input files a config reads, written into its working directory first
INPUTS = {
    # x' = x - x^3, y' = y (2 - x^2 - y^2): nine fixed points
    "fixed-points-poly-file-csv": {"field.json": json.dumps({
        "kind": "poly", "f1": [[1, 0, 1.0], [3, 0, -1.0]],
        "f2": [[0, 1, 2.0], [0, 3, -1.0], [2, 1, -1.0]],
    })},
    # exact coupled cubic: nine fixed points, four off the axes
    "fixed-points-coupled-exact-file": {"field.json": json.dumps({
        "kind": "cubic_coupled", "k": "1/2", "a": "3", "b": "sqrt(2)/2",
    })},
    "sap-scan-file-csv": {"h.json": json.dumps({
        "domain": {"dim": 2, "bc": "periodic"},
        "coeffs": [[1, 0, 0.5], [1, 1, -0.25], [0, 2, 0.75]],
    })},
}


def _run_in(directory, name):
    """(report text, {file name: text} of every file the config wrote), with
    the config run in `directory`, where its --csv/--cert paths resolve."""
    inputs = INPUTS.get(name, {})
    for file, text in inputs.items():
        (directory / file).write_text(text)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        report = render_report(run(dict(CONFIGS[name])))
    finally:
        os.chdir(cwd)
    written = {p.name: p.read_text() for p in sorted(directory.iterdir())
               if p.name not in inputs}
    return report, written


def _golden_files(name) -> dict:
    directory = GOLDEN_FILES / name
    if not directory.is_dir():
        return {}
    return {p.name: p.read_text() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes(name, tmp_path):
    report, written = _run_in(tmp_path, name)
    assert report == (GOLDEN / f"{name}.json").read_text()
    assert written == _golden_files(name)


if __name__ == "__main__":
    import difflib
    import tempfile

    def update(path, new):
        old = path.read_text() if path.exists() else ""
        if new == old:
            return
        rel = path.relative_to(GOLDEN.parent.parent)
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(keepends=True), new.splitlines(keepends=True),
            f"a/{rel}", f"b/{rel}"))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(new)
        print(f"wrote {rel}", file=sys.stderr)

    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            report, written = _run_in(pathlib.Path(tmp), name)
        update(GOLDEN / f"{name}.json", report)
        for file, text in written.items():
            update(GOLDEN_FILES / name / file, text)
        for stale in set(_golden_files(name)) - set(written):
            (GOLDEN_FILES / name / stale).unlink()
            print(f"removed {GOLDEN_FILES / name / stale}", file=sys.stderr)
