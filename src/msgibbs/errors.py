"""Exception types raised across the library."""


class MsgibbsError(Exception):
    """Base class for library-specific errors."""


class SpaceMismatch(MsgibbsError):
    """Operands live on different product spaces / incompatible chains."""


class AbsoluteContinuityViolation(MsgibbsError):
    """KL divergence requested where p puts mass outside supp(q)."""


class InvalidOrder(MsgibbsError):
    """Renyi order outside the admissible range."""


class EmptyGeometricMean(MsgibbsError):
    """Tilted distribution undefined: the two supports do not intersect."""


class VanishingPartitionFunction(MsgibbsError):
    """Gibbs reweighting left no probability mass."""


class UndefinedConditionalRow(MsgibbsError):
    """Refinement hit an undefined conditional row with positive mass."""


class EmptyKeepSet(MsgibbsError):
    """Marginalization must keep at least one block."""


class SingularConditioningBlock(MsgibbsError):
    """Conditioning block of the covariance is not invertible."""


class DimensionMismatch(MsgibbsError):
    """Vector/matrix/block dimensions are inconsistent."""


class NonpositiveTheta(MsgibbsError):
    """Scaling exponent must be strictly positive."""


class IndefinitePosterior(MsgibbsError):
    """Gibbs update produced a non positive-definite precision matrix."""


class NonConvergence(MsgibbsError):
    """Brute-force solver hit its iteration cap before converging."""


class MassLeakage(MsgibbsError):
    """Quadrature grid does not contain the density (boundary mass too high)."""


class NegativeDivergenceInput(MsgibbsError):
    """A relative-entropy term is negative (a computed one beyond rounding)."""


class NonIntegerTeacherDepth(MsgibbsError):
    """d / M must be a positive integer."""


class SpectralNormViolated(MsgibbsError):
    """A layer exceeds the per-layer spectral-norm budget."""


class ConfigError(MsgibbsError):
    """A CLI configuration file failed validation."""
