"""Exception types shared across the package, plus the enumeration budget guard.

Subset enumerations (achievement sets, image scans) grow exponentially in the
number of terms, so every enumerating operation takes an explicit budget and
refuses to start work that would exceed it.
"""

from __future__ import annotations

DEFAULT_BUDGET = 1 << 20


class SpectreKitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SpectreKitError):
    """Malformed rational literal or input document."""


class GroupMismatchError(SpectreKitError):
    """Points or sets from incompatible ambient groups were combined."""


class DomainError(SpectreKitError):
    """An operation was invoked outside its domain, for instance a wrong
    group kind, a nonpositive radius, or an unsorted series where a sorted
    one is required."""


class BudgetExceededError(SpectreKitError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, size: int | str, budget: int):
        self.size = size
        self.budget = budget
        super().__init__(f"enumeration of size {size} exceeds budget {budget}")


def check_budget(size: int, budget: int | None = None) -> None:
    """Raise BudgetExceededError when ``size`` items would not fit in ``budget``."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if size > limit:
        raise BudgetExceededError(size, limit)


def check_budget_power(base: int, exponent: int, budget: int | None = None) -> None:
    """Raise BudgetExceededError when ``base**exponent`` items would not fit
    in ``budget`` (base >= 1).  The power is only built while it stays within
    the budget, so a huge exponent costs a few steps, not a huge integer."""
    limit = DEFAULT_BUDGET if budget is None else budget
    size = 1
    for _ in range(exponent):
        if size > limit:
            break
        size *= base
    if size > limit:
        raise BudgetExceededError(f"{base}^{exponent}", limit)
