"""Exception types shared across the package, and the one type check of
a number argument.

Exit-code mapping used by the CLI: ConfigError -> 2, BudgetExceeded -> 3,
InvariantViolation -> 4.  Everything else is an ordinary bug.
"""

import numbers


def as_number(kind: type, value, what: str):
    """``kind(value)`` for ``kind`` int or float; a boolean, a value that
    is not integral (int) or real (float), or an integer too large for a
    float raises ``ValueError``."""
    abc = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, abc):
        raise ValueError(f"{what} must be {abc.__name__.lower()}, "
                         f"got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{what} does not fit a float: {value!r}") from None


class PinkeyError(Exception):
    """Base class for package errors."""


class ConfigError(PinkeyError):
    """Invalid or malformed configuration input."""


class BudgetExceeded(PinkeyError):
    """An exact enumeration would exceed its desk-scale budget: 2^24
    codewords for a codebook, 10^7 compositions for a slot allocation."""


class InvariantViolation(PinkeyError):
    """A numerical result violated a hard invariant (e.g. MI < -1e-9)."""


class ReconciliationFailure(PinkeyError):
    """Pairwise key agreement failed for one relay pair."""

    def __init__(self, pair_index: int, reason: str = ""):
        self.pair_index = pair_index
        msg = f"reconciliation failed for pair {pair_index}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
