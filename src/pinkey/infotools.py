"""Exact and empirical information measures.

This module is the verification oracle for every secrecy and uniformity
claim in the package.  Wherever the joint law is known it is enumerated as
a dense table and entropies are computed to machine precision; sampling
based estimates are used only where exact enumeration is intractable
(noisy sources, wireless Monte Carlo).

All quantities are in bits (log base 2).  Tiny negative mutual
informations (> -1e-9) are clamped to zero; anything more negative aborts
with :class:`InvariantViolation`, since it signals a logic error rather
than numerical dust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distillation import RbCodebook
from .errors import (BUDGET_BITS, BudgetExceeded, InvariantViolation,
                     as_number, as_numbers)

_NEG_CLAMP = 1e-9
_BOOTSTRAP_CELLS = 1 << 18  # joint counts drawn per bootstrap chunk
_AUDIT_BLOCK = 1 << 15  # codewords counted per block of the leakage audit


class JointPmf:
    """Dense joint pmf over a small number of finite-alphabet variables.

    The table's k-th axis is the k-th variable; entries must be
    nonnegative and sum to one within 1e-12.
    """

    def __init__(self, table):
        t = np.asarray(table, dtype=float)
        if t.size > 1 << BUDGET_BITS:
            raise BudgetExceeded(f"pmf table of {t.size} entries exceeds "
                                 f"the 2^{BUDGET_BITS} budget")
        if t.size == 0 or np.any(t < 0.0):
            raise ValueError("pmf entries must be nonnegative and nonempty")
        if abs(float(t.sum()) - 1.0) > 1e-12:
            raise ValueError(f"pmf does not sum to 1: {t.sum()!r}")
        self.table = t

    @property
    def arity(self) -> int:
        return self.table.ndim

    def marginal(self, subset: Sequence[int]) -> np.ndarray:
        """Marginal table over the given variable indices, in that order."""
        subset = tuple(subset)
        if not subset:
            raise ValueError("variable subset must be nonempty")
        if len(set(subset)) != len(subset):
            raise ValueError("variable subset has duplicates")
        drop = tuple(i for i in range(self.arity) if i not in subset)
        marg = self.table.sum(axis=drop) if drop else self.table
        kept = [i for i in range(self.arity) if i in subset]
        order = [kept.index(i) for i in subset]
        return np.transpose(marg, order)


def exact_entropy(pmf: JointPmf, subset: Sequence[int] | None = None) -> float:
    """Marginal entropy in bits of the given variable subset, with
    0*log 0 := 0."""
    if subset is None:
        subset = range(pmf.arity)
    p = pmf.marginal(subset).ravel()
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


# Only the tests call this; it stays because perfbench's TRACED looks it up.
def exact_mi(pmf: JointPmf, set_a: Sequence[int], set_b: Sequence[int]) -> float:
    """Mutual information I(A;B) = H(A) + H(B) - H(A,B), in bits."""
    a, b = tuple(set_a), tuple(set_b)
    if not a or not b:
        raise ValueError("variable sets must be nonempty")
    if set(a) & set(b):
        raise ValueError("variable sets must be disjoint")
    return _clamped_mi(exact_entropy(pmf, a) + exact_entropy(pmf, b)
                       - exact_entropy(pmf, a + b))


def _clamped_mi(mi: float) -> float:
    """``max(mi, 0)``; below -1e-9 raises :class:`InvariantViolation`."""
    if mi < -_NEG_CLAMP:
        raise InvariantViolation(f"mutual information {mi} below -1e-9")
    return max(mi, 0.0)


@dataclass
class LeakageAudit:
    """Exact per-relay leakage of one codebook, with its decomposition.

    ``mi_bits`` is I(K; W_m, F) where F is the XOR-broadcast transcript.
    In ideal-common mode every XOR payload is the shorter pairwise key
    masked by an independent uniform string, so the transcript is exactly
    independent of (K, W_m) and the quantity reduces to I(K; W_m); the
    reduction is verified by enumeration in the test suite.
    """

    relay: int
    mi_bits: float
    h_wm: float
    h_all_given_key: float
    h_all_given_wm_key: float
    # |direct MI - (h_wm - h_all_given_key + h_all_given_wm_key)|
    decomposition_residual: float


def codebook_key_of_all(codebook: RbCodebook) -> np.ndarray:
    """Bin index ``position >> bin_bits`` of every message tuple, in flat
    (row-major) order and the narrowest unsigned dtype that holds a key."""
    key = np.empty(codebook.position.size,
                   dtype=np.min_scalar_type(codebook.num_bins - 1))
    np.right_shift(codebook.position, codebook.bin_bits, out=key,
                   casting="unsafe")
    return key


def _bin_major_counts(inverse: np.ndarray, key_bits: int, b_m: int,
                      shift: int) -> np.ndarray:
    """(K, W_m) joint counts of a codebook from its ``inverse``, with
    w_m = (w >> shift) & (2^b_m - 1) for flat codeword index w.

    ``inverse`` viewed as (2^key_bits, bin_size) holds bin k's codewords
    in row k.  A few bins at a time, about ``_AUDIT_BLOCK`` codewords, get
    the codes ``(k << b_m) | w_m`` (k relative to the block) in one reused
    int32 buffer, and their bincount fills exactly that block's rows of
    the table, so the counting stays in cache.  A bin wider than the block
    is counted a block at a time into its row.  All sizes are powers of
    two, so the blocks tile the bins exactly.
    """
    by_bin = inverse.reshape(1 << key_bits, -1)
    n_bins, width = by_bin.shape
    rows = max(1, min(n_bins, _AUDIT_BLOCK // width))
    cols = min(width, _AUDIT_BLOCK)
    offsets = (np.arange(rows, dtype=np.int32) << b_m)[:, None]
    codes = np.empty((rows, cols), dtype=np.int32)
    table = np.empty((n_bins, 1 << b_m), dtype=np.int64)
    for lo in range(0, n_bins, rows):
        for col in range(0, width, cols):
            np.right_shift(by_bin[lo:lo + rows, col:col + cols], shift,
                           out=codes)
            np.bitwise_and(codes, (1 << b_m) - 1, out=codes)
            np.bitwise_or(codes, offsets, out=codes)
            counts = np.bincount(codes.ravel(), minlength=rows << b_m)
            if col:     # rows == 1: the rest of one wide bin
                table[lo] += counts
            else:
                table[lo:lo + rows] = counts.reshape(rows, -1)
    return table


def _entropy_terms(nz: np.ndarray, total: int) -> tuple[float, float]:
    """``(-sum p log2 p, sum p log2 c)`` over the positive counts ``nz``,
    with p = c / total, summed in the order of ``nz``.

    Each term is the numpy expression of the float-pmf audit, applied
    once per count value 1..max in a lookup table and gathered in order,
    so every sum sees the same array and returns the same bits.  A lookup
    table is built only when it is no longer than ``nz``; otherwise the
    terms are evaluated per count.
    """
    top = int(nz.max())
    if top + 1 <= nz.size:
        values = np.arange(top + 1)
        values[0] = 1  # never gathered; keeps log2 finite
        p = values / total
        plogp, plogc = p * np.log2(p), p * np.log2(values)
        return (float(-np.sum(np.take(plogp, nz))),
                float(np.sum(np.take(plogc, nz))))
    p = nz / total
    return float(-np.sum(p * np.log2(p))), float(np.sum(p * np.log2(nz)))


def leakage_audit(codebook: RbCodebook, relay: int) -> LeakageAudit:
    """Exact leakage of the private key toward one relay's common message.

    Assumes the message tuple is uniform over the product space, which is
    exact in ideal-common mode; noisy-pair instances must use
    :func:`empirical_mi` instead.

    The joint (K, W_m) counts come from the codebook's inverse, counted
    bin by bin (:func:`_bin_major_counts`) into a C-contiguous (K, W_m)
    table, whose entropy comes from the integer counts
    (:func:`_entropy_terms`) with the bits of :func:`exact_mi` on the
    float pmf ``counts / total``.  The codebook permutes the message
    space, so each bin holds 2^bin_bits codewords and each W_m value
    2^(total_bits - b_m): H(K) = key_bits and H(W_m) = b_m exactly.  The
    table is checked against the 2^24 budget first.
    """
    relay = as_number(int, relay, "relay index")
    if not 0 <= relay < len(codebook.message_bits):
        raise ValueError(f"relay index out of range: {relay}")
    total = 1 << codebook.total_bits
    cells = codebook.shape[relay] << codebook.key_bits
    if cells > 1 << BUDGET_BITS:
        raise BudgetExceeded(f"(K, W_m) table of {cells} entries exceeds "
                             f"the 2^{BUDGET_BITS} budget")
    counts = _bin_major_counts(codebook.inverse, codebook.key_bits,
                               codebook.message_bits[relay],
                               sum(codebook.message_bits[relay + 1:]))
    # The nonzero counts in (K, W_m) C order, the order the float pmf
    # sums them in; the table is freed as soon as it is read.
    nz = counts[counts > 0]
    del counts
    h_joint, h_all_given_wm_key = _entropy_terms(nz, total)
    h_wm = float(codebook.message_bits[relay])
    mi = _clamped_mi(float(codebook.key_bits) + h_wm - h_joint)
    h_all_given_key = float(codebook.bin_bits)
    residual = abs(mi - (h_wm - h_all_given_key + h_all_given_wm_key))
    return LeakageAudit(relay=relay, mi_bits=mi, h_wm=h_wm,
                        h_all_given_key=h_all_given_key,
                        h_all_given_wm_key=h_all_given_wm_key,
                        decomposition_residual=residual)


@dataclass
class MiEstimate:
    """Plug-in MI estimate with bias correction and a bootstrap CI."""

    mi_bits: float
    ci_low: float
    ci_high: float
    samples: int
    unreliable: bool


def _plugin_mi_rows(joint: np.ndarray, k_x: int, k_y: int) -> np.ndarray:
    """Miller-Madow MI estimate of every row of a (rows, k_x*k_y) array of
    joint counts, each row over the same number n of samples."""
    n = joint[0].sum()
    joint_p = (joint / n).reshape(-1, k_x, k_y)

    def h_mm(p):
        # Miller-Madow: plug-in entropy plus (support - 1) / (2 n ln 2).
        logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
        support = np.count_nonzero(p, axis=-1)
        return -(p * logs).sum(axis=-1) + (support - 1) / (2.0 * n
                                                           * math.log(2))

    return (h_mm(joint_p.sum(axis=2)) + h_mm(joint_p.sum(axis=1))
            - h_mm(joint_p.reshape(len(joint), -1)))


# Only the tests call this; it stays because perfbench's TRACED looks it up.
def empirical_mi(x: Sequence[int], y: Sequence[int],
                 bootstrap: int = 1000, confidence: float = 0.95,
                 seed: int = 0) -> MiEstimate:
    """Estimate I(X;Y) in bits from paired discrete samples.

    Plug-in estimator on empirical joint counts with Miller-Madow bias
    correction; percentile bootstrap CI.  The result is flagged unreliable
    when the joint alphabet exceeds a tenth of the sample count.  Samples
    must be integers (an integer array or a sequence of ints): float, bool
    or string samples raise ``ValueError``, and so do a ``bootstrap`` that
    is not an integer >= 1 and a ``confidence`` outside (0, 1).
    """
    x = as_numbers(int, x, "samples").ravel()
    y = as_numbers(int, y, "samples").ravel()
    if x.size != y.size:
        raise ValueError("paired sample arrays must have equal length")
    if x.size < 1000:
        raise ValueError("need at least 1000 samples")
    bootstrap = as_number(int, bootstrap, "bootstrap")
    confidence = as_number(float, confidence, "confidence")
    if bootstrap < 1:
        raise ValueError("need at least one bootstrap resample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    k_x = int(x.max()) + 1
    k_y = int(y.max()) + 1
    counts = np.bincount(x * k_y + y, minlength=k_x * k_y)
    point = _plugin_mi_rows(counts[None], k_x, k_y)[0]

    # A resample of the n pairs is a multinomial draw of the joint counts.
    rng = np.random.Generator(np.random.PCG64(seed))
    joint_p = counts / x.size
    rows = max(1, _BOOTSTRAP_CELLS // joint_p.size)
    boots = np.concatenate([
        _plugin_mi_rows(rng.multinomial(x.size, joint_p,
                                        size=min(rows, bootstrap - b)),
                        k_x, k_y)
        for b in range(0, bootstrap, rows)])
    tail = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(boots, [tail, 1.0 - tail])
    return MiEstimate(mi_bits=float(point), ci_low=float(lo),
                      ci_high=float(hi), samples=int(x.size),
                      unreliable=(k_x * k_y) / x.size > 0.1)
