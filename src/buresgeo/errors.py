"""Exception types raised across the package, each with its CLI exit code."""


class BuresGeoError(Exception):
    """Base class for all errors raised by this package. A subclass must name
    its exit code as a class keyword: ``class X(BuresGeoError, exit_code=4)``."""

    exit_code = 1

    def __init_subclass__(cls, *, exit_code: int, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.exit_code = exit_code


class DimensionMismatch(BuresGeoError, exit_code=4):
    """Operands have incompatible shapes or sizes."""


class ConvergenceFailure(BuresGeoError, exit_code=5):
    """Eigensolver did not converge."""


class OutOfChartRange(BuresGeoError, exit_code=2):
    """A chart coordinate lies outside its admissible range."""

    def __init__(self, coordinate: str, value: float, reason: str):
        self.coordinate = coordinate
        self.value = value
        super().__init__(f"coordinate {coordinate}={value!r} out of range: {reason}")


class ParseError(BuresGeoError, exit_code=3):
    """Input file or inline specification could not be parsed."""


class InvalidDensityMatrix(BuresGeoError, exit_code=4):
    """Matrix violates a density-matrix invariant (names which one)."""


class InvalidTangent(BuresGeoError, exit_code=4):
    """Tangent has a NaN or infinite entry."""


class VerificationFailure(BuresGeoError, exit_code=6):
    """A construction-time self-check failed (implementation bug)."""


class DegenerateSupport(BuresGeoError, exit_code=5):
    """Tangent leaves the support of a rank-deficient state; the form diverges."""


class SingularState(BuresGeoError, exit_code=5):
    """State determinant below the nonsingularity tolerance."""


class PureState(BuresGeoError, exit_code=5):
    """State is (numerically) pure where a strictly mixed one is required."""


class DegenerateSpectrum(BuresGeoError, exit_code=5):
    """Eigenvalue gap below the tolerance required by the operation."""


class BoundaryTooClose(BuresGeoError, exit_code=5):
    """Chart point too close to a range boundary for finite differencing."""


class FitFailure(BuresGeoError, exit_code=6):
    """The closed-form chart inverse left a residual above FAIL_RESIDUAL."""
