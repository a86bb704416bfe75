"""Import graph: no command loads sympy, whatever its field: float paths,
the builtin exact prop35 field, field JSON with string values and every
golden config.  numpy is loaded only by the commands that call an array
layer: the package binds its layers without running them, and --version,
--help, config errors, lemma41 and the planar-field commands on builtin
fields, dissipativity among them (its radius is an inequality, not a
sample), start without numpy.  No certificate or window command loads
numpy.ma.  A certificate over 1x1 Jacobians runs neither reaction_field
nor exact_real, nor does a window scan, and one over 2x2 --jac/--jacs runs
exact_real's 2x2 eigen routine but never reaction_field.

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
    ["dissipativity", "--field", "prop34", "--samples", "100"],
    ["lemma41", "--jac0", "1", "--jac1", "-2", "--gap-bound", "3"],
]
# commands that call an array layer, each loading numpy when it runs
NUMPY_ARGV = [
    ["gaps", "--cutoff", "100"],
    ["sap-scan", "--h", "cos-x1", "--k", "3", "--rho", "1", "--lambda-max", "20"],
]
# 1x1 certificates: the scalar field's equilibria and one --jac
SCALAR_ARGV = [
    ["anhim", "--field", "cubic-scalar", "--nu", "2", "--cutoff", "200"],
    ["index", "--nu", "1", "--jac", "1", "--cutoff", "5"],
]
# 2x2 certificates: each command that takes --jac or --jacs
TWO_BY_TWO_ARGV = [
    ["index", "--jac", "0.5,0.1,0.1,-1", "--nu", "1", "--cutoff", "50"],
    ["parity", "--jacs", "1,0,0,-2;0.5,0.1,0.1,-1", "--nu", "1", "--cutoff", "50"],
    ["profile", "--jac", "0.5,0.1,0.1,-1", "--nu", "1", "--cutoff", "50"],
    ["nhim-dims", "--jacs", "1,0,0,-2;0.5,0.1,0.1,-1", "--nu", "1", "--cutoff", "50"],
    ["anhim", "--jacs", "1,0,0,-2;0.5,0.1,0.1,-1", "--nu", "1", "--cutoff", "50"],
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
# its exit code and whether the watched module has run: a lazily bound
# module is in sys.modules, as a subclass of ModuleType, before it runs
WATCH_SCRIPT = """
import contextlib, io, json, sys, types
from imhyp.driver import main
argvs, layers, watched = map(json.loads, sys.argv[1:4])
layers = [m for m in layers if "imhyp." + m in sys.modules]
ran = lambda: type(sys.modules.get(watched)) is types.ModuleType
seen = [["from imhyp.driver import main", 0, ran()]]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen.append([" ".join(argv), code, ran()])
print(json.dumps({"layers": layers, "seen": seen}))
"""

# importing a layer or reading it from the package binds it; reading one of
# its names runs it; prints whether numpy is loaded after each step
BINDING_SCRIPT = """
import json, sys
import imhyp.dense_eig
seen = [["import imhyp.dense_eig", "numpy" in sys.modules]]
imhyp.lattice_spectrum
seen.append(["imhyp.lattice_spectrum", "numpy" in sys.modules])
imhyp.lattice_spectrum.BoxDomain
seen.append(["imhyp.lattice_spectrum.BoxDomain", "numpy" in sys.modules])
print(json.dumps(seen))
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


def test_package_binds_each_layer_without_running_it():
    proc = fresh_python("-c", BINDING_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["import imhyp.dense_eig", False],
                                       ["imhyp.lattice_spectrum", False],
                                       ["imhyp.lattice_spectrum.BoxDomain", True]]


def test_commands_without_arrays_never_import_numpy():
    _, seen = watch(NUMPY_FREE_ARGV, "numpy")
    assert [step for step, _, loaded in seen if loaded] == []
    assert {step: code for step, code, _ in seen if code} == {"gaps --cutof 100": 1}


@pytest.mark.parametrize("argv", NUMPY_ARGV, ids=[a[0] for a in NUMPY_ARGV])
def test_array_commands_import_numpy_when_they_run(argv):
    _, seen = watch([argv], "numpy")
    assert seen == [["from imhyp.driver import main", 0, False],
                    [" ".join(argv), 0, True]]


def test_certificates_and_windows_never_import_numpy_ma():
    # np.unique without a return_* flag imports numpy.ma
    argv = SCALAR_ARGV + [NUMPY_ARGV[1]]
    _, seen = watch(argv, "numpy.ma")
    assert [code for _, code, _ in seen] == [0] * (len(argv) + 1)
    assert [step for step, _, loaded in seen if loaded] == []


def test_one_by_one_certificates_never_run_reaction_field():
    # nor exact_real: only a 2x2 Jacobian's eigenvalues read it
    for module in ("imhyp.reaction_field", "imhyp.exact_real"):
        _, seen = watch(SCALAR_ARGV, module)
        assert [code for _, code, _ in seen] == [0] * (len(SCALAR_ARGV) + 1)
        assert [step for step, _, loaded in seen if loaded] == [], module


def test_window_scans_never_run_reaction_field():
    # nor exact_real: dense_eig writes out the closed form of its 2x2 routine
    argv = NUMPY_ARGV[1]
    for module in ("imhyp.reaction_field", "imhyp.exact_real"):
        _, seen = watch([argv], module)
        assert seen == [["from imhyp.driver import main", 0, False],
                        [" ".join(argv), 0, False]], module


def test_two_by_two_certificates_never_run_reaction_field():
    # their eigenvalues come from exact_real, which the first one runs
    _, seen = watch(TWO_BY_TWO_ARGV, "imhyp.reaction_field")
    assert [code for _, code, _ in seen] == [0] * (len(TWO_BY_TWO_ARGV) + 1)
    assert [step for step, _, loaded in seen if loaded] == []
    _, seen = watch(TWO_BY_TWO_ARGV[:1], "imhyp.exact_real")
    assert [loaded for _, _, loaded in seen] == [False, True]


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
