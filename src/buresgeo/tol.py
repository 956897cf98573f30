"""Every numerical tolerance of the package, each defined once.

A name guards one decision, and the comment says which. Modules import the
names they use (``from .tol import GAP``). This module imports nothing, so
any module can import it.
"""

# inputs that must satisfy an exact invariant
INVARIANT = 1e-10        # max deviation of a state from Hermitian, unit trace and PSD (eigenvalues
                         # in [-INVARIANT, 0) count as 0 in the fidelity), of s_coeff's D from
                         # diagonal, of a metric tensor from symmetric
RANGE_EPS = 1e-9         # slack of the chart ranges, so decimal renderings of pi/4 pass: the chart
                         # constructors, diag2/diag3 and the theta box of a recovered ordering

# spectra
GAP = 1e-6               # smallest eigenvalue gap still nondegenerate; a gap of exactly GAP passes
EPS_SPEC = 1e-12         # lambda_i + lambda_j at or below this drops the pair from the Hubner sum
SUPPORT_LEAK = 1e-8      # a dropped pair whose term exceeds SUPPORT_LEAK**2 is divergent
PURE = 1e-12             # Tr rho^3 within this of 1 is pure in dittmann3_form
SAMPLE_GAP = 1e-4        # sampled 3-level spectra keep every gap and eigenvalue at least this

# series and exact identities
SERIES_CUTOFF = 1e-4     # below this, sinc-type factors switch to Taylor series (through x^4).
                         # Against 50-digit mpmath, the four series err <= 2.3e-16 relative, and
                         # sinc and sin_half_over <= 1.8e-16 everywhere; above it, cancellation in
                         # cos(x) - 1 and 1 - sin(x)/x costs cosm1_over_sq 1.05e-8, 1.1e-10, 1e-12
                         # and one_minus_sinc 6.8e-8, 8.5e-10, 6.9e-12 relative on [1e-4, 1e-3),
                         # [1e-3, 1e-2), [1e-2, 1)
PERM_VERIFY = 1e-12      # max residual of a permutation identity, literal and modulo the torus

# metric routes and their cross-validation
DEFAULT_STEP = 1e-5      # central-difference step of the pullback
DEFAULT_TOL = 1e-6       # `validate` passes when its maxima are at most this (default of --tol)
DET_FLOOR = 100 * 2.2e-16 / DEFAULT_TOL  # = 2.2e-8; a state is singular at or below this:
                         # |rho| or |D| at n = 2 (dittmann2_form, s_coeff), e3/e2 =
                         # 2|rho|/(1 - Tr rho^2) at n = 3 (dittmann3_form). Both are at most
                         # lambda_min, and the trace forms err up to ~2.2e-16/lambda_min relative
                         # to Hubner, so above the floor they stay 100x inside DEFAULT_TOL
                         # (6.5e-9 worst at 1.05x the floor, 1.3e-6 at 1.05x the old 1e-10)
REL_DEV_FLOOR = 1e-8     # entries below this in both tensors are left out of the relative deviation
TANGENT_FLOOR = 1e-12    # a coordinate tangent with smaller norm is skipped by the Dittmann check
TINY = 1e-300            # floor of a denominator in a relative deviation

# chart recovery
FAIL_RESIDUAL = 1e-6     # Frobenius residual above which the recovery fails
