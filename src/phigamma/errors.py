"""Exception hierarchy shared by all phigamma modules."""


class PhigammaError(Exception):
    """Base class for all library errors."""


class NotPrime(PhigammaError):
    pass


class NotAUnit(PhigammaError):
    pass


class EmptyWindow(PhigammaError):
    """An operation produced a precision window containing no exponent."""


class InsufficientWindow(PhigammaError):
    """The tracked window is too small to decide the question exactly."""


class Divergent(PhigammaError):
    """Substitution target does not contract; the sum cannot be truncated."""


class NotPrincipalForm(PhigammaError):
    """Root extraction input is not 1 + (positive-exponent or nilpotent terms)."""


class BadIndex(PhigammaError):
    """Root index shares a factor with the residue characteristic."""


class NoRootOfUnity(PhigammaError):
    pass


class NotInvertible(PhigammaError):
    pass


class PreconditionViolated(PhigammaError):
    pass


class NoConvergence(PhigammaError):
    pass


class CommutationFails(PhigammaError):
    """Raised with the residual matrix when Phi.phi(Gam) != Gam.gamma(Phi)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class CocycleFails(PhigammaError):
    pass


class DescentEqFails(PhigammaError):
    pass


class NotACocycle(PhigammaError):
    pass


class NotALift(PhigammaError):
    pass


class BadComposition(PhigammaError):
    pass


class NotCentralValued(PhigammaError):
    pass


class LeviNotCommuting(PhigammaError):
    pass


class BadWitness(PhigammaError):
    pass


class NotGaloisCompatible(PhigammaError):
    pass


class AveragingUnavailable(PhigammaError):
    pass


class ConfigError(PhigammaError):
    """CLI configuration is malformed."""
