"""Exception types shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, BudgetExceeded -> 3,
InvariantViolation -> 4.  Everything else is an ordinary bug.
"""


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
