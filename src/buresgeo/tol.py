"""Every numerical tolerance of the package, each defined once.

A name guards one decision, and the comment says which. Modules import the
names they use (``from .tol import GAP``). This module imports nothing, so
any module can import it. The sinc-type factors of the coset blocks need no
threshold: each has one formula that cannot cancel at any finite argument
(coset.sinc, sin_half_over, one_minus_sinc).
"""

# inputs that must satisfy an exact invariant
INVARIANT = 1e-10        # max deviation of a state from Hermitian, unit trace and PSD (eigenvalues
                         # in [-INVARIANT, 0) count as 0 in the fidelity), of s_coeff's D from
                         # diagonal, of a metric tensor from symmetric. Built states measure
                         # lambda_min >= -1.39e-17 (916 seeded and edge charts): a PSD margin of 7e6
RANGE_EPS = 1e-9         # slack of the chart ranges, so decimal renderings of pi/4 pass: the chart
                         # constructors, diag2/diag3 and the theta box of a recovered ordering

# spectra
GAP = 1e-6               # smallest eigenvalue gap still nondegenerate; a gap of exactly GAP passes
EPS_SPEC = 1e-12         # lambda_i + lambda_j at or below this drops the pair from the Hubner sum
SUPPORT_LEAK = 1e-8      # a dropped pair whose term exceeds SUPPORT_LEAK**2 is divergent
PURE = 1e-12             # Tr rho^3 within this of 1 is pure in dittmann3_form
SAMPLE_GAP = 1e-4        # sampled 3-level spectra keep every gap and eigenvalue at least this

# exact identities
PERM_VERIFY = 1e-12      # max residual of a permutation identity, literal and modulo the torus; over
                         # the six identities, its whole domain, 1.22e-16 and 1.11e-16 at worst

# metric routes and their cross-validation
DEFAULT_STEP = 1e-5      # central-difference step of the pullback
DEFAULT_TOL = 1e-6       # `validate` passes when its maxima are at most this (default of --tol)
DET_FLOOR = 100 * 2.2e-16 / DEFAULT_TOL  # = 2.2e-8; a state is singular at or below this:
                         # |rho| or |D| at n = 2 (dittmann2_form, s_coeff), e3/e2 =
                         # 2|rho|/(1 - Tr rho^2) at n = 3 (dittmann3_form). Both are at most
                         # lambda_min, and the trace forms err up to ~2.2e-16/lambda_min relative
                         # to Hubner, so above the floor they stay 100x inside DEFAULT_TOL
                         # (6.5e-9 worst at 1.05x the floor, 1.3e-6 at 1.05x the old 1e-10)
TANGENT_MAX = (1e308 * PURE * DET_FLOOR / 54) ** 0.5  # = 2.0e143; a tangent part (real or
                         # imaginary) beyond this or nan is refused (matcore.as_tangent). With
                         # parts <= M at n <= 3, ||D||_F <= 3 sqrt(2) M, and the largest term of
                         # the forms, dittmann3's coef |rho| Tr (D - rho^-1 D)^2, is below
                         # (3/PURE) (lambda_min/4) (2 ||D||_F/lambda_min)^2 < 54 M^2/(PURE DET_FLOOR)
                         # <= 1e308, as lambda_min > DET_FLOOR; Hubner's sum is <= 18 M^2/EPS_SPEC
REL_DEV_FLOOR = 1e-8     # entries below this in both tensors are left out of the relative deviation
TANGENT_FLOOR = 1e-12    # a coordinate tangent with smaller norm is skipped by the Dittmann check
TINY = 1e-300            # floor of a denominator in a relative deviation

# chart recovery
FAIL_RESIDUAL = 1e-6     # Frobenius residual above which the recovery fails. The closed-form
                         # inverse leaves rounding error alone: at most 1.44e-15 (6.5 ulps of 1)
                         # over the 3,434 recovered states of the 6,000-state seeded round-trip
                         # corpus, 7e8 below this; a tier-1 test holds a 1e8 margin
