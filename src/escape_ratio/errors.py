"""Exception types shared across the package."""


class EscapeRatioError(Exception):
    """Base class for all errors raised by this package."""


# -- polygon validation -------------------------------------------------------

class TooFewVertices(EscapeRatioError):
    pass


class DegenerateEdge(EscapeRatioError):
    pass


class SelfIntersecting(EscapeRatioError):
    pass


class ZeroArea(EscapeRatioError):
    pass


class InvalidCoordinates(EscapeRatioError, ValueError):
    """Vertex coordinates that are not finite numbers; still a ValueError."""


# -- metric queries -----------------------------------------------------------

class OutsideDomain(EscapeRatioError):
    pass


class DegeneratePair(EscapeRatioError):
    pass


# -- sampling / discretization ------------------------------------------------

class SpacingTooCoarse(EscapeRatioError):
    pass


class GammaTooCoarse(EscapeRatioError):
    pass


class BudgetExceeded(EscapeRatioError):
    """Raised when a requested discrete game exceeds the configured state cap."""

    def __init__(self, message, n_escaper=None, n_pursuer=None, state_count=None):
        super().__init__(message)
        self.n_escaper = n_escaper
        self.n_pursuer = n_pursuer
        self.state_count = state_count


class InconsistentTables(EscapeRatioError):
    pass


# -- simulation ---------------------------------------------------------------

class SpeedViolation(EscapeRatioError):
    pass


class DomainViolation(EscapeRatioError):
    pass


class StrategyFailure(EscapeRatioError):
    """A built-in strategy could not make progress (e.g. misuse above its speed regime)."""


class InvalidAngle(EscapeRatioError):
    pass
