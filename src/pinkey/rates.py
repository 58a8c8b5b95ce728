"""Closed-form key rates: capacity, cut-set upper bound, XOR baseline.

All rates are in bits.  ``capacity`` drops the largest per-relay value
(equivalently, sums the M-1 smallest) and evaluates a whole ``(..., M)``
array of instances at once; ``converse_bound`` evaluates the
cut obtained by partitioning the other relays around each candidate relay
and is numerically identical to the capacity; ``xor_baseline_rate`` pairs
relays in listed order and sums pairwise minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import List, Sequence, Tuple, Union

import numpy as np

from . import model
from .model import PinInstance

PairMis = Sequence[Tuple[float, float]]


def _validate_i_values(i_values: Sequence[float]) -> List[float]:
    vals = [float(v) for v in i_values]
    if len(vals) < 2:
        raise ValueError("at least two relays are required")
    for v in vals:
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"rate inputs must be finite and >= 0: {v}")
    return vals


def capacity(i_values) -> Union[float, np.ndarray]:
    """Private-key capacity: sum of all per-relay values minus the largest.

    Takes one instance (a sequence of M values) or an array of shape
    (..., M) and returns a float or an array of shape (...).  The relay
    columns are added one after another, left to right, so every row
    gets exactly the float a plain left-to-right loop would.
    """
    if isinstance(i_values, np.ndarray):
        vals = np.asarray(i_values, dtype=float)
    else:
        vals = np.array([float(v) for v in i_values])
    if vals.ndim == 0 or vals.shape[-1] < 2:
        raise ValueError("at least two relays are required")
    bad = ~np.isfinite(vals) | (vals < 0.0)
    if bad.any():
        raise ValueError(f"rate inputs must be finite and >= 0: "
                         f"{float(vals[bad][0])}")
    total = vals[..., 0]
    for j in range(1, vals.shape[-1]):
        total = total + vals[..., j]
    cap = total - vals.max(axis=-1)
    return float(cap) if cap.ndim == 0 else cap


def capacity_order_stat(i_values: Sequence[float]) -> float:
    """Same quantity via order statistics: sum of the M-1 smallest values."""
    vals = _validate_i_values(i_values)
    return sum(sorted(vals)[:-1])


def xor_baseline_rate(i_values: Sequence[float]) -> float:
    """Baseline rate from pairing relays (1,2),(3,4),... in listed order.

    Each pair contributes the minimum of its two members; with an odd relay
    count the unpaired relay contributes zero.  Order-sensitive by design.
    """
    vals = _validate_i_values(i_values)
    total = 0.0
    for j in range(0, len(vals) - 1, 2):
        total += min(vals[j], vals[j + 1])
    return total


@dataclass
class ConverseResult:
    bound: float
    per_m_cuts: List[float]
    # Per candidate relay m: (indices allocated to the Alice set,
    # indices allocated to the Bob set), relays only, 0-based.
    partitions: List[Tuple[List[int], List[int]]]


def _pair_mis(source: Union[PinInstance, PairMis]) -> List[Tuple[float, float]]:
    if isinstance(source, PinInstance):
        return model.pair_mutual_informations(source)
    return [(float(a), float(b)) for a, b in source]


def converse_bound(source: Union[PinInstance, PairMis]) -> ConverseResult:
    """Cut-set upper bound over M relaxed models, one per candidate relay.

    For candidate m, every other relay joins the Alice set when its
    Alice-side MI strictly exceeds its Bob-side MI (ties go to the Bob
    set); the resulting cut equals sum_i I_i - I_m.  The bound is the
    minimum cut over m.
    """
    pair_mis = _pair_mis(source)
    if len(pair_mis) < 2:
        raise ValueError("at least two relays are required")
    i_vals = [min(a, b) for a, b in pair_mis]
    total = sum(i_vals)
    cuts, partitions = [], []
    for m in range(len(pair_mis)):
        alice_set, bob_set = [], []
        for i, (ia, ib) in enumerate(pair_mis):
            if i == m:
                continue
            (alice_set if ia > ib else bob_set).append(i)
        cuts.append(total - i_vals[m])
        partitions.append((alice_set, bob_set))
    return ConverseResult(bound=min(cuts), per_m_cuts=cuts,
                          partitions=partitions)


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


def rate_report(source: Union[PinInstance, PairMis]) -> RateReport:
    pair_mis = _pair_mis(source)
    i_vals = [min(a, b) for a, b in pair_mis]
    conv = converse_bound(pair_mis)
    return RateReport(
        i_per_relay=i_vals,
        i_sorted=sorted(i_vals),
        capacity=capacity(i_vals),
        xor_rate=xor_baseline_rate(i_vals),
        converse=conv.bound,
        per_m_cuts=conv.per_m_cuts,
        argmax_relay=max(range(len(i_vals)), key=lambda i: i_vals[i]),
    )
