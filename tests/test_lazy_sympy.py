"""Import graph: no command loads sympy, whatever its field: float paths,
the builtin exact prop35 field, field JSON with string values and every
golden config.  numpy is loaded only by the commands that call an array
layer: the driver binds the five layers without running them, and
--version, --help, config errors and the planar-field commands on builtin
fields and lemma41 start without numpy.

The test modules import sympy and numpy themselves, so each check runs in a
fresh interpreter.
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

# the builtin exact prop35 field, one config per command that takes it
PROP35_ARGV = [
    ["delta", "--field", "prop35", "--at", "0,0"],
    ["lemma33", "--field", "prop35"],
    ["fixed-points", "--field", "prop35"],
    ["prop35-verify", "--exact", "true"],
    ["parity", "--field", "prop35", "--nu", "1", "--cutoff", "200"],
]
# commands that never touch an array: each must leave numpy unloaded
NUMPY_FREE_ARGV = [
    ["--version"],
    ["--help"],
    ["gaps", "--cutof", "100"],  # a misspelt key, refused before any layer
    ["delta", "--field", "prop35", "--at", "0,0"],
    ["delta", "--field", "prop34", "--at", "0,0"],
    ["lemma33", "--field", "prop35"],
    ["lemma33", "--field", "prop34"],
    ["fixed-points", "--field", "prop35-float"],
    ["fixed-points", "--field", "prop34"],
    ["prop34"],
    ["prop35-verify", "--exact", "true"],
    ["prop35-verify", "--exact", "false"],
    ["region", "--field", "prop34", "--c", "2"],
    ["lemma41", "--jac0", "1", "--jac1", "-2", "--gap-bound", "3"],
]
# commands that call an array layer, each loading numpy when it runs
NUMPY_ARGV = [
    ["gaps", "--cutoff", "100"],
    ["sap-scan", "--h", "cos-x1", "--k", "3", "--rho", "1", "--lambda-max", "20"],
    ["dissipativity", "--field", "prop34", "--samples", "100"],
]
STRING_FIELD = {"kind": "cubic_uncoupled", "a": "2", "b": "sqrt(3)",
                "c": "sqrt(6)", "d": "sqrt(2)"}

# exact golden configs, each run cold so that no cache of an earlier run can
# decide the bytes: (golden name: argv)
EXACT_ARGV = {
    "delta-prop35-exact": ["delta", "--field", "prop35", "--at", "0,0"],
    "lemma33-prop35": ["lemma33", "--field", "prop35"],
    "fixed-points-prop35-exact-csv": ["fixed-points", "--field", "prop35",
                                      "--csv", "fixed.csv"],
    "prop35-verify-exact": ["prop35-verify"],
}

# the benchmark tracer wraps the public functions of these modules once the
# driver is imported, whatever command runs
LAYERS = ["lattice_spectrum", "reaction_field", "stationary_spectrum",
          "spatial_averaging", "dense_eig"]

# argv: the commands, the layers and the module to watch, as JSON; prints
# the layers bound by the import and, after the import and each command,
# its exit code and whether the watched module is loaded
WATCH_SCRIPT = """
import contextlib, io, json, sys
from imhyp.driver import main
argvs, layers, watched = map(json.loads, sys.argv[1:4])
layers = [m for m in layers if "imhyp." + m in sys.modules]
seen = [["from imhyp.driver import main", 0, watched in sys.modules]]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen.append([" ".join(argv), code, watched in sys.modules])
print(json.dumps({"layers": layers, "seen": seen}))
"""

EXACT_SCRIPT = """
import json, sys
from imhyp.reaction_field import field_from_json_dict, lemma33_check, verify_prop35
report = verify_prop35(exact=True)
field = field_from_json_dict(json.loads(sys.argv[1]))
print(json.dumps({
    "deltas": [float(d) for d in report.deltas],
    "ladder": [d == i for i, d in enumerate(report.deltas)],
    "string field ladder": lemma33_check(field).verdict,
    "cold": "sympy" not in sys.modules,
}))
"""

# runs every golden config in one interpreter: {name: sympy loaded after it}
GOLDEN_SCRIPT = """
import json, pathlib, sys, tempfile
sys.path.insert(0, sys.argv[1])
from test_golden_reports import CONFIGS, _run_in
seen = {}
for name in sorted(CONFIGS):
    with tempfile.TemporaryDirectory() as tmp:
        _run_in(pathlib.Path(tmp), name)
    seen[name] = "sympy" in sys.modules
print(json.dumps(seen))
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


def watch(argvs, module, **kwargs):
    """The layers bound by importing the driver, and the (step, exit code,
    module loaded) of the import and then of each command, all run in one
    fresh interpreter."""
    proc = fresh_python("-c", WATCH_SCRIPT, json.dumps(argvs),
                        json.dumps(LAYERS), json.dumps(module), **kwargs)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out["seen"]) == len(argvs) + 1
    return out["layers"], out["seen"]


def test_float_paths_never_import_sympy():
    layers, seen = watch(FLOAT_ARGV, "sympy")
    assert layers == LAYERS
    assert [step for step, code, loaded in seen if code != 0 or loaded] == []


def test_driver_binds_every_layer_without_numpy():
    # the benchmark tracer finds each layer in sys.modules; none has run
    layers, seen = watch([], "numpy")
    assert layers == LAYERS
    assert seen == [["from imhyp.driver import main", 0, False]]


def test_commands_without_arrays_never_import_numpy():
    _, seen = watch(NUMPY_FREE_ARGV, "numpy")
    assert [step for step, _, loaded in seen if loaded] == []
    assert {step: code for step, code, _ in seen if code} == {"gaps --cutof 100": 1}


@pytest.mark.parametrize("argv", NUMPY_ARGV, ids=[a[0] for a in NUMPY_ARGV])
def test_array_commands_import_numpy_when_they_run(argv):
    _, seen = watch([argv], "numpy")
    assert seen == [["from imhyp.driver import main", 0, False],
                    [" ".join(argv), 0, True]]


@pytest.mark.parametrize("name", sorted(EXACT_ARGV))
def test_exact_report_bytes_in_a_fresh_interpreter(name, tmp_path):
    proc = fresh_python("-m", "imhyp.driver", *EXACT_ARGV[name], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.json").read_text()
    files = GOLDEN / "files" / name
    want = {f.name: f.read_text() for f in files.iterdir()} if files.is_dir() else {}
    assert {f.name: f.read_text() for f in tmp_path.iterdir()} == want


def test_builtin_prop35_never_imports_sympy(tmp_path):
    # nor does a field JSON with string values, run last
    (tmp_path / "field.json").write_text(json.dumps(STRING_FIELD))
    argv = PROP35_ARGV + [["fixed-points", "--field", "field.json"]]
    _, seen = watch(argv, "sympy", cwd=tmp_path)
    assert [code for _, code, _ in seen] == [0] * (len(argv) + 1)
    assert [loaded for _, _, loaded in seen] == [False] * (len(argv) + 1)


def test_exact_values_stay_symbolic_in_a_fresh_interpreter():
    # the exact prop35 ladder is exactly 0, 1, 2, 3, and the same field
    # from strings realizes it, all without sympy
    proc = fresh_python("-c", EXACT_SCRIPT, json.dumps(STRING_FIELD))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "deltas": [0.0, 1.0, 2.0, 3.0], "ladder": [True] * 4,
        "string field ladder": True, "cold": True,
    }


def test_no_golden_config_imports_sympy():
    proc = fresh_python("-c", GOLDEN_SCRIPT, str(pathlib.Path(__file__).parent))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert "fixed-points-coupled-exact-file" in seen and len(seen) == 28
    assert [name for name, loaded in seen.items() if loaded] == []
