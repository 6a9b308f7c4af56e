"""Exception hierarchy, mapped onto CLI exit codes by :mod:`polarphi.cli`.

DomainError       -> exit 2 (invalid input)
ConvergenceError  -> exit 3 (the rejection sampler's envelope collapsed)
VerificationError -> exit 1 (a mathematical invariant that must hold failed)
"""


class DomainError(ValueError):
    """Argument outside the documented domain, or malformed input."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its stated tolerance."""


class EnvelopeError(ConvergenceError):
    """Rejection-sampling acceptance rate collapsed below the safety floor."""


class VerificationError(RuntimeError):
    """A checked mathematical invariant was violated."""
