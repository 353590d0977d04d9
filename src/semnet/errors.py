"""Exception types shared across the package."""

from __future__ import annotations


class SemnetError(Exception):
    """Base class for all errors raised by this package."""


class ScopeMismatchError(SemnetError):
    """An instance was used with a scope it does not cover exactly."""


class KeyOverflowError(SemnetError):
    """A relation scope's value space is too large for brute force's
    62-bit row keys."""


class LimitExceededError(SemnetError):
    """A search or enumeration would exceed the configured work budget;
    ``unit`` names what was counted. ``required`` and ``allowed`` stay
    exact; the message writes a count past 2^62 as its power of two."""

    def __init__(self, required: int, allowed: int,
                 unit: str = "candidate instances") -> None:
        super().__init__(f"walking {_magnitude(required)} {unit} exceeds the budget "
                         f"of {_magnitude(allowed)}")
        self.required = required
        self.allowed = allowed


class InvalidNetworkError(SemnetError):
    """An operation that requires a valid network was given an invalid one."""

    def __init__(self, errors) -> None:
        lines = "; ".join(f"{e.code} at {e.location}: {e.message}" for e in errors)
        super().__init__(f"network failed validation: {lines}")
        self.errors = list(errors)


def _magnitude(count: int) -> str:
    """``count`` in digits up to 2^62, else as the power of two it reaches:
    the digits of a huge int say no more and, past 4,300 of them, cannot
    even be written."""
    if count <= 2**62:
        return str(count)
    return f"at least 2^{count.bit_length() - 1}"
