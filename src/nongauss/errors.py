"""Exception hierarchy shared by all nongauss modules."""


class NonGaussError(Exception):
    """Base class for every error raised by this package."""


class DomainError(NonGaussError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class DegenerateLeadingCoefficient(DomainError):
    """A zero leading coefficient where the degree is fixed: a = 0 in a cubic
    operation (route to the quadratic path instead), or in the n + 1
    coefficients of a degree n >= 4 integral."""


class DegreeTooLow(DomainError):
    """Polynomial degree is below what the operation supports."""


class NotARoot(NonGaussError, ValueError):
    """Claimed root fails the residual test for the given polynomial."""


class DivergentIntegral(DomainError):
    """The renormalized integral does not converge for these coefficients."""


class RepeatedRootDivergence(DivergentIntegral):
    """A real root's multiplicity makes the integrand non-integrable."""


class SingularPoint(DomainError):
    """Integrand evaluated exactly at a zero of the polynomial."""


class StencilCrossesSingularity(NonGaussError):
    """A finite-difference stencil point hits or crosses the D = 0 surface."""


class NoConvergence(NonGaussError, RuntimeError):
    """Quadrature refinement levels were exhausted before the tolerance."""


class IllConditionedWarning(UserWarning):
    """Result was computed but conditioning makes accuracy claims unreliable."""
