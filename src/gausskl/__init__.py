"""KL divergence between zero-mean Gaussians: closed forms, diagonal bounds,
Monte Carlo oracles, and randomized verification campaigns."""

from .divergence import (
    GapReport,
    diagonal_lower_bound,
    gaussian_entropy,
    kl_diagonal,
    kl_gap_diagonal,
    kl_gaussian,
    kl_scalar,
)
from .errors import (
    AsymmetryExceedsTolerance,
    BuildError,
    DimensionMismatch,
    GaussKlError,
    MatrixParseError,
    NonPositiveVariance,
    NotPositiveDefinite,
    NotSquare,
    SpreadTooLarge,
)
from .estimators import (
    GaussianModel,
    McEstimate,
    MixtureModel,
    build_matched_mixture,
    mc_kl,
)
from .harness import (
    PropertyReport,
    check_c1,
    check_prop1,
    check_prop2,
    check_prop3,
    derive_seed,
    random_diag_spectrum,
)
from .linalg import (
    DiagSpectrum,
    SpdMatrix,
    random_spd,
    read_matrix_csv,
    validate_spd,
    write_matrix_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetryExceedsTolerance",
    "BuildError",
    "DiagSpectrum",
    "DimensionMismatch",
    "GapReport",
    "GaussKlError",
    "GaussianModel",
    "MatrixParseError",
    "McEstimate",
    "MixtureModel",
    "NonPositiveVariance",
    "NotPositiveDefinite",
    "NotSquare",
    "PropertyReport",
    "SpdMatrix",
    "SpreadTooLarge",
    "build_matched_mixture",
    "check_c1",
    "check_prop1",
    "check_prop2",
    "check_prop3",
    "derive_seed",
    "diagonal_lower_bound",
    "gaussian_entropy",
    "kl_diagonal",
    "kl_gap_diagonal",
    "kl_gaussian",
    "kl_scalar",
    "mc_kl",
    "random_diag_spectrum",
    "random_spd",
    "read_matrix_csv",
    "validate_spd",
    "write_matrix_csv",
]
