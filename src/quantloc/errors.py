"""Exception and warning types shared across the package."""

from __future__ import annotations

__all__ = [
    "QuantLocError",
    "DomainError",
    "InvalidScenario",
    "NoIntersection",
    "ParseError",
    "VariantMismatch",
    "MissingSensorData",
    "TangentDegenerate",
    "AssumptionWarning",
    "AdvisoryWarning",
]


class QuantLocError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QuantLocError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidScenario(QuantLocError, ValueError):
    """The world description violates a structural requirement."""


class VariantMismatch(QuantLocError, TypeError):
    """An attack specification was passed to an operation of the wrong stage."""


class NoIntersection(QuantLocError, ValueError):
    """Two circles do not intersect (triangle feasibility fails)."""


class MissingSensorData(QuantLocError, KeyError):
    """A dataset lacks bits for a sensor the detector needs."""


class ParseError(QuantLocError, ValueError):
    """A scenario or dataset file could not be parsed; message carries location."""


class TangentDegenerate(UserWarning):
    """Circle pair is tangent: the two intersection points coincide."""


class AssumptionWarning(UserWarning):
    """A standing scenario assumption is violated; results may lose guarantees."""


class AdvisoryWarning(UserWarning):
    """A configured value exceeds an advisory limit (detection still runs)."""
