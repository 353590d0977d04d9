"""Exception types shared across the package."""

from __future__ import annotations


class SemnetError(Exception):
    """Base class for all errors raised by this package."""


class ScopeMismatchError(SemnetError):
    """An instance was used with a scope it does not cover exactly."""


class KeyOverflowError(SemnetError):
    """A scope's value space is too large for the engine's 62-bit keys."""


class LimitExceededError(SemnetError):
    """An enumeration would exceed the configured instance budget."""

    def __init__(self, required: int, allowed: int) -> None:
        super().__init__(
            f"enumeration of {required} candidate instances exceeds the "
            f"budget of {allowed}"
        )
        self.required = required
        self.allowed = allowed


class InvalidNetworkError(SemnetError):
    """An operation that requires a valid network was given an invalid one."""

    def __init__(self, errors) -> None:
        lines = "; ".join(f"{e.code} at {e.location}: {e.message}" for e in errors)
        super().__init__(f"network failed validation: {lines}")
        self.errors = list(errors)
