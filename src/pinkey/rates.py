"""Closed-form key rates: capacity, cut-set upper bound, XOR baseline.

All rates are in bits.  ``capacity`` drops the largest per-relay value
(equivalently, sums the M-1 smallest); ``converse_bound`` takes the
minimum over the M enhanced source models, one per candidate relay m, of
the cut sum_i I_i - I_m.  Both evaluate one instance or a whole array of
instances at once and add the relay columns left to right, so they share
one total and agree exactly.  ``xor_baseline_rate`` pairs relays in
listed order and sums pairwise minima.

Inputs are M values or M (Alice-side, Bob-side) MI pairs, as a sequence
of ints and floats or an integer or float array, read by
:func:`errors.as_numbers`; anything else raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import List, Sequence, Tuple, Union

import numpy as np

from .errors import as_numbers

PairMis = Sequence[Tuple[float, float]]


def _check_finite(vals: np.ndarray) -> None:
    """Raise ``ValueError`` unless every entry is finite and >= 0."""
    bad = ~np.isfinite(vals) | (vals < 0.0)
    if bad.any():
        raise ValueError(f"rate inputs must be finite and >= 0: "
                         f"{float(vals[bad][0])}")


def _validated(i_values) -> np.ndarray:
    """Per-relay values as a float array of shape (..., M), M >= 2."""
    vals = as_numbers(float, i_values, "rate inputs")
    if vals.ndim == 0 or vals.shape[-1] < 2:
        raise ValueError("at least two relays are required")
    _check_finite(vals)
    return vals


def _total(vals: np.ndarray) -> np.ndarray:
    """Relay columns added one after another, left to right, so every row
    gets exactly the float a plain left-to-right loop would."""
    total = vals[..., 0]
    for j in range(1, vals.shape[-1]):
        total = total + vals[..., j]
    return total


def _finite_total(vals: np.ndarray) -> np.ndarray:
    """:func:`_total` of validated values; a total past the float range
    raises ``ValueError``."""
    with np.errstate(over="ignore"):
        total = _total(vals)
    if not np.isfinite(total).all():
        raise ValueError("the sum of the rate inputs overflows a float")
    return total


def _capacity(vals: np.ndarray) -> np.ndarray:
    """:func:`capacity` of validated values of shape (..., M), with no
    overflow check: the slot search calls it once per chunk."""
    return _total(vals) - vals.max(axis=-1)


def capacity(i_values) -> Union[float, np.ndarray]:
    """Private-key capacity: sum of all per-relay values minus the largest.

    Takes one instance (a sequence of M values) or an array of shape
    (..., M) and returns a float or an array of shape (...).  Values
    whose sum overflows a float raise ``ValueError``.
    """
    vals = _validated(i_values)
    cap = _finite_total(vals) - vals.max(axis=-1)
    return float(cap) if cap.ndim == 0 else cap


# Only the tests call this; it stays because perfbench's TRACED looks it up.
def capacity_order_stat(i_values: Sequence[float]) -> float:
    """Same quantity via order statistics: sum of the M-1 smallest values."""
    vals = _validated(i_values).tolist()
    return sum(sorted(vals)[:-1])


def xor_baseline_rate(i_values: Sequence[float]) -> float:
    """Baseline rate from pairing relays (1,2),(3,4),... in listed order.

    Each pair contributes the minimum of its two members; with an odd relay
    count the unpaired relay contributes zero.  Order-sensitive by design.
    A sum that overflows a float raises ``ValueError``.
    """
    total = _xor_pairs(_validated(i_values).tolist())
    if not np.isfinite(total):
        raise ValueError("the sum of the rate inputs overflows a float")
    return total


def _xor_pairs(vals: List[float]) -> float:
    """:func:`xor_baseline_rate` of a validated list of values."""
    total = 0.0
    for j in range(0, len(vals) - 1, 2):
        total += min(vals[j], vals[j + 1])
    return total


@dataclass
class ConverseResult:
    bound: Union[float, np.ndarray]
    per_m_cuts: Union[List[float], np.ndarray]


def converse_bound(source) -> ConverseResult:
    """Upper bound from the M enhanced source models, one per relay.

    Takes one instance as M (Alice-side, Bob-side) MI pairs, or an array
    of shape (..., M, 2).  Model m gives the cut sum_i I_i - I_m with
    I_i = min of relay i's pair; the bound is the minimum cut over m.
    The total is the left-to-right column sum :func:`capacity` uses, so
    ``bound`` equals the capacity exactly, and a total that overflows a
    float raises ``ValueError``.  One instance gives a float bound and a
    list of M cuts; an array gives arrays of shape (...) and (..., M).
    """
    pairs = as_numbers(float, source, "rate inputs")
    if pairs.ndim < 2 or pairs.shape[-1] != 2:
        raise ValueError("pair MIs must have shape (..., M, 2)")
    i_vals = _validated(np.minimum(pairs[..., 0], pairs[..., 1]))
    cuts = _finite_total(i_vals)[..., None] - i_vals
    bound = cuts.min(axis=-1)
    if bound.ndim == 0:
        return ConverseResult(bound=float(bound), per_m_cuts=cuts.tolist())
    return ConverseResult(bound=bound, per_m_cuts=cuts)


@dataclass
class RateReport:
    """All closed-form rates for one instance, JSON-serializable."""

    i_per_relay: List[float]
    i_sorted: List[float]
    capacity: float
    xor_rate: float
    converse: float
    per_m_cuts: List[float]
    argmax_relay: int

    def to_dict(self) -> dict:
        return asdict(self)


def rate_report(pair_mis: PairMis) -> RateReport:
    """Every closed-form rate of one instance, given as M (Alice-side,
    Bob-side) MI pairs."""
    pairs = as_numbers(float, pair_mis, "rate inputs")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pair MIs must have shape (M, 2)")
    i_vals = [min(a, b) for a, b in pairs.tolist()]
    conv = converse_bound(pairs)
    return RateReport(
        i_per_relay=i_vals,
        i_sorted=sorted(i_vals),
        capacity=capacity(i_vals),
        xor_rate=xor_baseline_rate(i_vals),
        converse=conv.bound,
        per_m_cuts=conv.per_m_cuts,
        argmax_relay=max(range(len(i_vals)), key=lambda i: i_vals[i]),
    )
