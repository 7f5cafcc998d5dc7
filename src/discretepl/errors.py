"""Exception types shared across the package."""


class DiscretePLError(Exception):
    """Base class for all library errors."""


class NegativeMass(DiscretePLError):
    pass


class NotNormalized(DiscretePLError):
    """Masses do not sum to 1; carries the exact rational deficit 1 - sum."""

    def __init__(self, deficit):
        super().__init__(f"masses sum to 1 - ({deficit}); deficit {deficit}")
        self.deficit = deficit


class SupportNotBinary(DiscretePLError):
    pass


class LengthMismatch(DiscretePLError):
    pass


class DimensionMismatch(DiscretePLError):
    pass


class NotMonotone(DiscretePLError):
    pass


class PreconditionViolated(DiscretePLError):
    pass


class OutsidePositiveWindow(DiscretePLError):
    pass


class InfeasibleCost(DiscretePLError):
    pass


class HypothesisFailedOnGrid(DiscretePLError):
    pass


class ConvexityWitnessFailed(DiscretePLError):
    pass


class SupportExceedsWindow(DiscretePLError):
    pass


class QuadratureFailed(DiscretePLError):
    """A continuous target's quadrature warned, overflowed, was not finite, or (clt) left (0, inf)."""


class ParseError(DiscretePLError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ConfigError(DiscretePLError):
    pass
