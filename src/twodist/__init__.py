"""Exact two-distance embeddings of quasi-symmetric designs.

An exact-arithmetic toolkit around one classification: among the Euclidean
embeddings of two-fiber coherent configurations built from quasi-symmetric
designs, the 45-point configuration in R^8 is the only two-distance one.
Everything is verified with rationals and quadratic-extension numbers; no
floating point appears on any verification path.
"""

from .exactnum import (
    QuadExt,
    Rational,
    UnsupportedExtensionError,
    format_scalar,
    parse_scalar,
    quadext_sign,
    quadext_sqrt,
    sqrt_adjoin,
)
from .designs import (
    DesignError,
    DesignParameters,
    IncidenceDesign,
    complement_design,
    derive_parameters,
    design_from_json,
    integrality_gate,
    intersection_numbers,
    lisonek_design,
    load_design,
    parameters_from_design,
    save_design,
    verify_t_design,
)
from .coherent import (
    CoherentConfig,
    GramTable,
    IdempotentCoefficients,
    from_design,
    idempotent_basis,
    projector_and_gram,
    verify_axioms,
)
from .geometry import (
    DistanceSpectrum,
    PointConfiguration,
    f_ratio,
    geometric_residuals,
    lisonek_coordinates,
    p_residuals,
    remark_checks,
    spectrum_from_gram,
    theoretical_spectrum,
    two_distance_classify,
)
from .dioph import (
    SolutionCertificate,
    aux_g,
    brute_solver,
    classify,
    eval_p,
    family_points,
    quadratic_exclusions,
    region_scan,
    verify_identities,
    y2_curve_search,
    z_of,
    z_parametrization,
)

__version__ = "0.1.0"
