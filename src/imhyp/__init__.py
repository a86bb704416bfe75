"""imhyp: spectral obstruction toolkit for reaction-diffusion inertial manifolds.

Five analysis areas plus a reporting driver:

- lattice_spectrum: box Laplacian eigenvalues, gap statistics, jump-ratio
  scans, the sums-of-three-squares audit, growth-exponent fits
- reaction_field: planar cubic reaction fields, fixed points, eigenvalue
  real-gap tables, the tuned-parameter and exact four-point constructions
- stationary_spectrum: linearization spectra over a box, unstable indices,
  mode-count profiles, common-gap obstruction certificates
- spatial_averaging: band-limited multipliers, windowed compressions as
  entry lists and their norms, gap scans
- dense_eig: spectral norms of symmetric entry lists: an exact block split,
  closed forms to 2x2, Householder reduction and Sturm bisection above
- driver: validated run configs, CLI, all file I/O and all report and CSV
  text (the other modules return results and read field and multiplier JSON)

Importing the package loads none of them: each public name below, and each
submodule, is imported on first access (PEP 562), so a caller pays for numpy
only once it touches an array layer.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines, each resolved on first access
_PUBLIC = {
    "errors": """ConfigError HypothesisNotMet ImhypError NumericalFailure
        PreconditionError ResourceBudgetError""",
    "lattice_params": "JumpQuery",
    "lattice_spectrum": """BoxDomain GapReport JumpScanResult Spectrum
        ThreeSquareAudit WeylFit enumerate_spectrum gap_stats
        jump_condition_scan three_square_gap_audit weyl_fit""",
    "reaction_field": """CubicCoupled CubicUncoupled DissipativityReport
        FixedPointAnalysis GeneralPoly Lemma33Result Prop34Checklist
        Prop34Constants Prop35Report coupled_ladder_params delta_of
        dissipativity_radius field_from_json_dict fixed_points
        invariant_region_check lemma33_check lemma41_threshold middle_gap
        prop35_field solve_prop34 verify_prop35""",
    "stationary_spectrum": """IndexEntry Linearization ModeCountProfile
        ObstructionCertificate PairEntry ParityReport Witness
        anhim_common_gamma count_profile nhim_certificate operator_spectrum
        parity_report unstable_index""",
    "dense_eig": "edge_norms",
    "spatial_averaging": """Multiplier SAPWindowReport h2_norm mean
        multiplier_from_json_dict sap_scan window_entries window_modes
        windowed_norm""",
}
_HOME = {name: module for module, names in _PUBLIC.items()
         for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _PUBLIC or name == "driver":
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
