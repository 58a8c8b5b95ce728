"""Exception types shared across the package, and the one type check of
a number argument (:func:`as_number`) and of an array of them
(:func:`as_numbers`).

Exit-code mapping used by the CLI: ConfigError -> 2, BudgetExceeded -> 3,
InvariantViolation -> 4.  Everything else is an ordinary bug.
"""

import numbers

import numpy as np


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


def as_numbers(kind: type, values, what: str) -> np.ndarray:
    """``values`` as an int64 (``kind`` int) or float64 (``kind`` float)
    array: an array of integer dtype (or, for float, float dtype), or a
    sequence whose entries pass :func:`as_number`; anything else, or an
    entry too large for the dtype, raises ``ValueError``."""
    if isinstance(values, np.ndarray):
        ok = values.dtype.kind in ("iu" if kind is int else "iuf")
    else:
        abc = numbers.Integral if kind is int else numbers.Real
        values = np.array(values, dtype=object)
        ok = not any(isinstance(v, bool) or not isinstance(v, abc)
                     for v in values.flat)
    if not ok:
        raise ValueError(f"{what} must be "
                         f"{'integers' if kind is int else 'ints and floats'}")
    try:
        return values.astype(np.int64 if kind is int else np.float64,
                             copy=False)
    except OverflowError:
        raise ValueError(f"{what} do not fit {kind.__name__}64") from None


class PinkeyError(Exception):
    """Base class for package errors."""


class ConfigError(PinkeyError):
    """Invalid or malformed configuration input."""


class BudgetExceeded(PinkeyError):
    """An exact enumeration or array would exceed its desk-scale budget:
    2^24 codewords for a codebook, 10^7 compositions for a slot
    allocation, 2^24 cells for the tightness sweep's padded array."""


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
