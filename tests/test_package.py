"""The package namespace: __all__ lists every public name exactly once, and
only the driver touches files."""

import ast
import pathlib
import types

import pytest

import imhyp


def test_all_is_the_public_namespace():
    # the names resolve on first access, so vars(imhyp) cannot list them
    names = imhyp.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert name == "__version__" or not name.startswith("_")
        assert not isinstance(getattr(imhyp, name), types.ModuleType)
    assert set(names) <= set(dir(imhyp))
    with pytest.raises(AttributeError, match="no_such_name"):
        imhyp.no_such_name


def test_all_holds_a_name_from_each_submodule():
    for name in ("ConfigError", "enumerate_spectrum", "fixed_points",
                 "anhim_common_gamma", "edge_norms", "sap_scan"):
        assert name in imhyp.__all__


def test_only_the_driver_opens_files_or_imports_json():
    # library writers return text and readers take dicts; driver.py reads
    # and writes every file
    found = []
    for path in sorted(pathlib.Path(imhyp.__file__).parent.glob("*.py")):
        if path.name == "driver.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name == "open":
                    found.append(f"{path.name}:{node.lineno} calls open")
            elif isinstance(node, ast.Import):
                if any(a.name.split(".")[0] == "json" for a in node.names):
                    found.append(f"{path.name}:{node.lineno} imports json")
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "json":
                    found.append(f"{path.name}:{node.lineno} imports json")
    assert found == []


def test_oracles_import_nothing_from_imhyp():
    # a reference that shares code with the library cannot catch its faults
    path = pathlib.Path(__file__).parent / "oracles.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported and not [m for m in imported if m.split(".")[0] == "imhyp"]
