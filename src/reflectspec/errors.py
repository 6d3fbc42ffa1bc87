"""Exception hierarchy.

A ``ReflectSpecError`` is caused by the caller (a setting, token, file or
input) and names the argument: ``CellRunner.run``, ``selftest.run_all`` and
``cli.main`` record or print it. Every export but three kernels that trust
validated rows (``entropy``, ``residual_distribution``, ``typical_threshold``)
returns a correct result or raises one, coercing no input silently: 1.5 is
no integer setting, "0.3" no real one. An ``InternalConsistencyError`` (no
``ReflectSpecError``) means an invariant broke: no package check raises it,
no handler catches it, and it is kept for code that must let a fault through.
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
