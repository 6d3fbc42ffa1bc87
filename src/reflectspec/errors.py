"""Exception hierarchy.

A ``ReflectSpecError`` is caused by the caller (a setting, token, file or
input) and names the argument: ``CellRunner.run``, ``selftest.run_all`` and
``cli.main`` record or print it. An ``InternalConsistencyError`` means an
invariant broke; it is no ``ReflectSpecError``, and no handler catches it.
No package check raises it, since every condition a call checks is its
caller's input; it is kept for code that must let a fault through by name.
"""


class ReflectSpecError(Exception):
    """Base class for the errors a caller causes."""


class InvalidConfigError(ReflectSpecError):
    """A configuration value violates its documented range or combination."""


class InvalidLogitsError(ReflectSpecError):
    """Logits are not a finite real vector or ``(n, V)`` block of them."""


class InvalidDistributionError(ReflectSpecError):
    """A probability vector has negative mass or does not sum to 1."""


class InvalidTokenError(ReflectSpecError):
    """A token id falls outside [0, vocab_size)."""


class SessionRangeError(ReflectSpecError):
    """A position a session does not hold: past its end, or an empty one's row."""


class DegenerateResidualError(ReflectSpecError):
    """The residual distribution has no mass; signals a caller logic bug."""


class InternalConsistencyError(Exception):
    """Pipeline bookkeeping broke an internal invariant."""
