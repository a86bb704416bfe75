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
- dense_eig: symmetric eigenvalues by batched Jacobi, spectral norms with an
  exact block split, LAPACK eigvalsh for blocks over 512 modes
- driver: validated run configs, CLI, all file I/O and all report and CSV
  text (the other modules return results and read field and multiplier JSON)
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    HypothesisNotMet,
    ImhypError,
    NumericalFailure,
    PreconditionError,
    ResourceBudgetError,
)
from .lattice_spectrum import (
    BoxDomain,
    GapReport,
    JumpQuery,
    JumpScanResult,
    Spectrum,
    ThreeSquareAudit,
    WeylFit,
    enumerate_spectrum,
    gap_stats,
    jump_condition_scan,
    three_square_gap_audit,
    weyl_fit,
)
from .reaction_field import (
    CubicCoupled,
    CubicUncoupled,
    DissipativityReport,
    FixedPointAnalysis,
    GeneralPoly,
    Lemma33Result,
    Prop34Checklist,
    Prop34Constants,
    Prop35Report,
    coupled_ladder_params,
    delta_of,
    dissipativity_radius,
    field_from_json_dict,
    fixed_points,
    invariant_region_check,
    lemma33_check,
    middle_gap,
    prop35_field,
    solve_prop34,
    verify_prop35,
)
from .stationary_spectrum import (
    IndexEntry,
    Linearization,
    ModeCountProfile,
    ObstructionCertificate,
    PairEntry,
    ParityReport,
    Witness,
    anhim_common_gamma,
    count_profile,
    lemma41_threshold,
    nhim_certificate,
    operator_spectrum,
    parity_report,
    unstable_index,
)
from .dense_eig import edge_norms, jacobi_eigenvalues
from .spatial_averaging import (
    Multiplier,
    SAPWindowReport,
    h2_norm,
    mean,
    multiplier_from_json_dict,
    sap_scan,
    window_entries,
    window_modes,
    windowed_norm,
)

# every public name imported above (the submodules themselves are not)
__all__ = ["__version__"] + [
    name for name, obj in list(globals().items())
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
]
