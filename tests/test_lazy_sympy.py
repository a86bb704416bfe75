"""Import graph: sympy is loaded by the exact paths only.

The test modules import sympy themselves, so each check runs in a fresh
interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import imhyp

GOLDEN = pathlib.Path(__file__).parent / "golden"

# one float-path config per subcommand family
FLOAT_ARGV = [
    ["gaps", "--cutoff", "100"],
    ["anhim", "--field", "cubic-scalar", "--nu", "2", "--cutoff", "500"],
    ["sap-scan", "--h", "cos-x1", "--k", "3", "--rho", "1", "--lambda-max", "20"],
    ["prop34"],
    ["fixed-points", "--field", "prop34"],
    ["prop35-verify", "--exact", "false"],
]

# exact golden configs, each run cold so that sympy's cache cannot decide the
# bytes: (golden name: argv)
EXACT_ARGV = {
    "delta-prop35-exact": ["delta", "--field", "prop35", "--at", "0,0"],
    "lemma33-prop35": ["lemma33", "--field", "prop35"],
    "fixed-points-prop35-exact-csv": ["fixed-points", "--field", "prop35",
                                      "--csv", "fixed.csv"],
}

# the benchmark tracer wraps the public functions of these modules once the
# driver is imported, whatever command runs
LAYERS = ["lattice_spectrum", "reaction_field", "stationary_spectrum",
          "spatial_averaging", "dense_eig"]

FLOAT_SCRIPT = """
import contextlib, io, json, sys
from imhyp.driver import main
layers = [m for m in json.loads(sys.argv[2]) if "imhyp." + m in sys.modules]
seen = [["from imhyp.driver import main", 0, "sympy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([" ".join(argv), code, "sympy" in sys.modules])
print(json.dumps({"layers": layers, "seen": seen}))
"""

EXACT_SCRIPT = """
import json, sys
from imhyp.reaction_field import field_from_json_dict, verify_prop35
cold = "sympy" not in sys.modules
field = field_from_json_dict(
    {"kind": "cubic_uncoupled", "a": "2", "b": "sqrt(3)", "c": "sqrt(6)",
     "d": "sqrt(2)"}
)
report = verify_prop35(exact=True)
import sympy
print(json.dumps({
    "cold": cold,
    "field": [isinstance(getattr(field, k), sympy.Basic) for k in "abcd"],
    "deltas": [isinstance(d, sympy.Basic) for d in report.deltas],
    "ladder": [d == i for i, d in enumerate(report.deltas)],
}))
"""


def fresh_python(*args, **kwargs):
    """Run a new interpreter on the imhyp package these tests import."""
    src = str(pathlib.Path(imhyp.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300,
        env=env, **kwargs,
    )


def test_float_paths_never_import_sympy():
    proc = fresh_python("-c", FLOAT_SCRIPT, json.dumps(FLOAT_ARGV),
                        json.dumps(LAYERS))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["layers"] == LAYERS
    seen = out["seen"]
    assert [step for step, code, loaded in seen if code != 0 or loaded] == []
    assert len(seen) == len(FLOAT_ARGV) + 1


@pytest.mark.parametrize("name", sorted(EXACT_ARGV))
def test_exact_report_bytes_in_a_fresh_interpreter(name, tmp_path):
    proc = fresh_python("-m", "imhyp.driver", *EXACT_ARGV[name], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text()
    files = GOLDEN / "files" / name
    want = {f.name: f.read_text() for f in files.iterdir()} if files.is_dir() else {}
    assert {f.name: f.read_text() for f in tmp_path.iterdir()} == want


def test_exact_values_stay_symbolic_in_a_fresh_interpreter():
    proc = fresh_python("-c", EXACT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "cold": True, "field": [True] * 4, "deltas": [True] * 4,
        "ladder": [True] * 4,
    }
