"""The package namespace: __all__ lists every public name exactly once."""

import types

import imhyp


def test_all_is_the_public_namespace():
    names = imhyp.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert name == "__version__" or not name.startswith("_")
        assert not isinstance(getattr(imhyp, name), types.ModuleType)
    public = {
        name for name, obj in vars(imhyp).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(names) == public | {"__version__"}


def test_all_holds_a_name_from_each_submodule():
    for name in ("ConfigError", "enumerate_spectrum", "fixed_points",
                 "anhim_common_gamma", "spectral_norms", "sap_scan"):
        assert name in imhyp.__all__
