"""Coset-chart parameterization of 2- and 3-level density matrices and the
Bures metric over their state spaces, computed by independent routes and
cross-validated numerically."""

from .bures import (
    bures_distance,
    check_tangent,
    dittmann2_form,
    dittmann3_form,
    fidelity,
    hubner_form,
)
from .coset import (
    CosetBlockSpec,
    CosetChart2,
    CosetChart3,
    DensityMatrix,
    as_density,
    diag2,
    diag3,
    omega2,
    omega3,
    omega_block,
    permutation_table,
    rho2,
    rho3,
)
from .matcore import (
    SpectralDecomposition,
    det,
    eig_hermitian,
    hermitize,
    trace,
)
from .metric import (
    Coeffs3,
    MetricTensor,
    SCoeff2,
    ValidationReport,
    aux_coeffs,
    closed_metric2,
    closed_metric3,
    pullback_metric,
    pullback_metric2,
    pullback_metric3,
    s_coeff,
    t_coeffs,
    validate,
    volume_element,
)
from .recover import find_chart, find_chart2, find_chart3
from .sampling import make_rng, random_chart2, random_chart3, random_density, random_tangent, random_unitary

__version__ = "0.1.0"

__all__ = [
    "CosetBlockSpec", "CosetChart2", "CosetChart3", "Coeffs3", "DensityMatrix",
    "MetricTensor", "SCoeff2", "SpectralDecomposition", "ValidationReport",
    "as_density", "aux_coeffs", "bures_distance", "check_tangent",
    "closed_metric2", "closed_metric3", "det", "diag2", "diag3",
    "dittmann2_form", "dittmann3_form", "eig_hermitian", "fidelity",
    "find_chart", "find_chart2", "find_chart3", "hermitize", "hubner_form",
    "make_rng", "omega2",
    "omega3", "omega_block", "permutation_table", "pullback_metric",
    "pullback_metric2", "pullback_metric3", "random_chart2", "random_chart3",
    "random_density", "random_tangent", "random_unitary", "rho2", "rho3",
    "s_coeff", "t_coeffs", "trace", "validate", "volume_element",
]
