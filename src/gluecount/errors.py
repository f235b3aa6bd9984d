"""Exception types shared across the package."""

__all__ = [
    "GluecountError",
    "DomainError",
    "SignatureError",
    "AllPuncturesError",
    "ParityError",
    "CapExceededError",
    "CacheError",
    "CacheVersionError",
    "ConsistencyError",
]


class GluecountError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GluecountError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class SignatureError(DomainError):
    """A surface signature is structurally invalid."""


class AllPuncturesError(SignatureError):
    """Every boundary size is zero; the counting formulas do not cover this case."""


class ParityError(DomainError):
    """Free-slot count and polygon size disagree modulo 2, so no pairing exists."""


class CapExceededError(DomainError):
    """A brute-force enumeration, or a `table` grid, would exceed its work budget."""


class CacheError(GluecountError, ValueError):
    """A persisted count table could not be parsed."""


class CacheVersionError(CacheError):
    """A persisted count table declares an unsupported format version."""


class ConsistencyError(GluecountError):
    """An internal invariant failed (non-exact division, bad walk, stale cache)."""
