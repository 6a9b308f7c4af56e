"""Exception hierarchy, mapped onto CLI exit codes by :mod:`polarphi.cli`.

DomainError       -> exit 2 (invalid input)
VerificationError -> exit 1 (a mathematical invariant that must hold failed)
"""


class DomainError(ValueError):
    """Argument outside the documented domain, or malformed input."""


class VerificationError(RuntimeError):
    """A checked mathematical invariant was violated."""
