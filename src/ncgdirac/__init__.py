"""ncgdirac: exact symbolic engine for quasi-commutative Riemannian spin geometry.

Builds R-matrix quasi-commutative algebras with normal-form rewriting, the
Riemannian and spinorial layers on their free form modules, the level-set
hypersurface induction producing quotient Dirac operators, and the certified
spectrum of the induced torus operator.
"""

from .scalars import GaussianRational, Scalar
from .algebra import (
    AlgebraElement,
    Presentation,
    PresentationError,
    RewriteBudgetExceeded,
    RewriteRule,
    brute_force_normal_form,
    critical_pairs,
    extend_presentation,
    is_central,
    normal_form,
)
from .tensors import (
    BasisWord,
    LeftLinearMap,
    ShapeError,
    TensorElement,
    differential,
    right_linearity_residuals,
    right_mul,
    tensor,
)
from .geometry import Calculus, Connection, Metric, tensor_connection_apply, verify_metric
from .spin import SpinStructure, StructureSet, dirac, gamma_apply, verify_spinorial
from .hypersurface import (
    AssumptionCertificate,
    HypersurfaceError,
    HypersurfaceSpec,
    build_hypersurface,
    check_assumptions,
    induced_dirac,
    induced_structures,
)
from .catalog import SpaceBundle, build_r4, build_s3, build_t2, dtilde_apply
from .spectrum import SectorMatrix, sector_matrix, spectrum_scan

__all__ = [
    "GaussianRational",
    "Scalar",
    "AlgebraElement",
    "Presentation",
    "PresentationError",
    "RewriteBudgetExceeded",
    "RewriteRule",
    "brute_force_normal_form",
    "critical_pairs",
    "extend_presentation",
    "is_central",
    "normal_form",
    "BasisWord",
    "LeftLinearMap",
    "ShapeError",
    "TensorElement",
    "differential",
    "right_linearity_residuals",
    "right_mul",
    "tensor",
    "Calculus",
    "Connection",
    "Metric",
    "tensor_connection_apply",
    "verify_metric",
    "SpinStructure",
    "StructureSet",
    "dirac",
    "gamma_apply",
    "verify_spinorial",
    "AssumptionCertificate",
    "HypersurfaceError",
    "HypersurfaceSpec",
    "build_hypersurface",
    "check_assumptions",
    "induced_dirac",
    "induced_structures",
    "SpaceBundle",
    "build_r4",
    "build_s3",
    "build_t2",
    "dtilde_apply",
    "SectorMatrix",
    "sector_matrix",
    "spectrum_scan",
]
