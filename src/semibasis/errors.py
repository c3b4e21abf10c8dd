"""Exception hierarchy shared across the package.

Every failure mode that a caller may want to distinguish gets its own
class; the command line maps them to stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "SemibasisError",
    "ParseError",
    "ConsensusError",
    "InterpolationError",
    "CertificationError",
    "RouteDisagreementError",
    "DeltaCheckError",
    "InternalCheckError",
]


class SemibasisError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SemibasisError, ValueError):
    """Malformed textual input (multisegment, word, or CLI argument)."""


class ConsensusError(SemibasisError):
    """Sampled values failed to agree across primes within the retry budget."""


class InterpolationError(SemibasisError):
    """A count series did not fit a polynomial of the promised degree."""


class CertificationError(SemibasisError):
    """A cross-check that certifies a final result failed."""


class RouteDisagreementError(CertificationError):
    """The two independent transition-matrix routes disagree."""


class DeltaCheckError(CertificationError):
    """The evaluation of a basis element on components is not the identity."""


class InternalCheckError(SemibasisError, AssertionError):
    """An internal invariant that should be unreachable was violated."""
