"""Exception hierarchy.

Everything raised on purpose derives from ReflectSpecError so the CLI can
map failures to a single nonzero exit code.
"""


class ReflectSpecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfigError(ReflectSpecError):
    """A configuration value violates its documented range or combination."""


class InvalidLogitsError(ReflectSpecError):
    """Logits are not a finite real vector or ``(n, V)`` block of them."""


class InvalidDistributionError(ReflectSpecError):
    """A probability vector has negative mass or does not sum to 1."""


class InvalidTokenError(ReflectSpecError):
    """A token id falls outside [0, vocab_size)."""


class SessionRangeError(ReflectSpecError):
    """A session truncation target exceeds the current length."""


class DegenerateResidualError(ReflectSpecError):
    """The residual distribution has no mass; signals a caller logic bug."""


class InternalConsistencyError(ReflectSpecError):
    """Pipeline bookkeeping broke an internal invariant."""
