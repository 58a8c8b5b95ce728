"""Private-key distillation: random-binning codebook and XOR baseline.

The codebook uniformly partitions the product space of all common
messages into equal-size bins via a seeded shuffle; the bin index of the
realized message tuple is the private key.  The bijection is stored
explicitly (forward and inverse arrays) so downstream information
measures are exact: the inverse lists the codewords bin by bin, and the
leakage audit counts it directly.  The scatter that builds the inverse
also checks, in linear time, that the forward array is a permutation.
Enumeration is capped at 2^24 codewords (:data:`errors.BUDGET_BITS`).

Widths and the key length are checked once, by the rule both
:func:`build_codebook` and :class:`RbCodebook` apply: integers, widths
>= 0 and ``key_bits`` in [0, sum of widths].  The message space is laid
out row-major over ``RbCodebook.shape``, the first message most
significant; messages and key indices must be integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .bitops import as_bits
from .errors import BUDGET_BITS, BudgetExceeded, as_number, as_numbers

_SCATTER_BLOCK = 1 << 16


@dataclass(frozen=True)
class KeyIndex:
    """(bin, within-bin) position of one message tuple; k is the key."""

    k: int
    k_tilde: int


def _widths(message_bits: Sequence[int],
            key_bits: int) -> Tuple[List[int], int]:
    """Message widths and key length as ints; a width below 0 or a key
    length outside [0, sum of widths] raises ``ValueError``."""
    bits = [as_number(int, b, "message width") for b in message_bits]
    key_bits = as_number(int, key_bits, "key_bits")
    if any(b < 0 for b in bits):
        raise ValueError("per-message bit widths must be >= 0")
    if not 0 <= key_bits <= sum(bits):
        raise ValueError(f"key_bits={key_bits} outside [0, {sum(bits)}], "
                         f"the bits of the message space")
    return bits, key_bits


class RbCodebook:
    """Equal-size random partition of the message product space.

    ``message_bits[i]`` is the bit width of relay i's common message, and
    ``shape`` the message space, ``2**message_bits[i]`` values per axis,
    in row-major order.  ``position[w]`` is the shuffled position of flat
    codeword index w; bin index = position >> bin_bits, within-bin index
    = the low bits.  ``inverse`` is the inverse permutation.  Both are
    int32, which holds any index under the 2^24 budget: 8 MiB for a
    2^20-codeword codebook.  An int32 ``position`` array is kept as it is;
    any other is narrowed to int32 once its range is checked.

    ``position`` is validated in linear time: every entry must lie in
    [0, 2^total_bits), and the scatter ``inverse[position] = arange`` into
    an array filled with -1 must hit every slot.  That many in-range
    values hitting every slot are a permutation, by pigeonhole; anything
    else raises ``ValueError``.  The ``position`` entries must be
    integers (:func:`errors.as_numbers`).  The scatter runs in blocks of
    ``_SCATTER_BLOCK`` entries, so it makes no full-size temporary.

    ``inverse`` viewed as (num_bins, bin_size) lists each bin's codewords
    in one row, which is what :func:`infotools.leakage_audit` counts.
    """

    def __init__(self, message_bits: Sequence[int], key_bits: int,
                 position: np.ndarray):
        self.message_bits, self.key_bits = _widths(message_bits, key_bits)
        self.shape = tuple(1 << b for b in self.message_bits)
        self.total_bits = sum(self.message_bits)
        self.bin_bits = self.total_bits - self.key_bits
        total = 1 << self.total_bits
        pos = position
        if not (isinstance(pos, np.ndarray) and pos.dtype == np.int32):
            pos = as_numbers(int, pos, "position entries")
        # total in-range values that hit every slot are a permutation.  A
        # negative entry reads as a huge unsigned value, so one max checks
        # both ends of the range, before any narrowing could wrap a value.
        inverse = np.full(total, -1, dtype=np.int32)
        if (pos.shape == (total,)
                and pos.view(f"u{pos.itemsize}").max() < total):
            pos = pos.astype(np.int32, copy=False)
            # Block by block through one intp index buffer: a fancy index
            # of any other dtype would be cast to a full-size intp copy.
            block = min(total, _SCATTER_BLOCK)
            index = np.empty(block, dtype=np.intp)
            code = np.arange(block, dtype=np.int32)
            for start in range(0, total, block):
                np.copyto(index, pos[start:start + block])
                inverse[index] = code
                code += block
        if inverse.min() < 0:
            raise ValueError("position array is not a permutation of the "
                             "message space")
        self.position = pos
        self.inverse = inverse

    @property
    def num_bins(self) -> int:
        return 1 << self.key_bits

    @property
    def bin_size(self) -> int:
        return 1 << self.bin_bits

    def flat_index(self, messages: Sequence[int]) -> int:
        """Row-major flat index of one tuple of integer messages; a tuple
        outside ``shape`` raises ``ValueError``."""
        return int(np.ravel_multi_index(
            tuple(as_numbers(int, messages, "messages")), self.shape))

    def messages_from_flat(self, flat: int) -> Tuple[int, ...]:
        return tuple(int(w) for w in np.unravel_index(flat, self.shape))


def build_codebook(rates_bits: Sequence[int], key_bits: int,
                   seed: int) -> RbCodebook:
    """Seeded uniform equal-size partition of the message product space.

    The shuffle is numpy's int64 one (its fastest), narrowed to int32 at
    once so that array is freed before the inverse is allocated; a
    2^20-codeword build peaks at 12.7 MiB under ``tracemalloc`` (the
    8 MiB shuffle and its 4 MiB narrowed copy), and the codebook then
    holds 8 MiB.
    """
    rates_bits, key_bits = _widths(rates_bits, key_bits)
    total_bits = sum(rates_bits)
    if total_bits > BUDGET_BITS:
        raise BudgetExceeded(f"message space of 2^{total_bits} codewords "
                             f"exceeds the 2^{BUDGET_BITS} budget")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    position = rng.permutation(1 << total_bits).astype(np.int32)
    return RbCodebook(rates_bits, key_bits, position)


def distill(codebook: RbCodebook, common_messages: Sequence[int]) -> KeyIndex:
    """Map a message tuple to its (bin, within-bin) index pair."""
    pos = int(codebook.position[codebook.flat_index(common_messages)])
    return KeyIndex(k=pos >> codebook.bin_bits,
                    k_tilde=pos & (codebook.bin_size - 1))


# Only the tests call this; it stays because perfbench's TRACED looks it up.
def invert(codebook: RbCodebook, index: KeyIndex) -> Tuple[int, ...]:
    """Inverse of :func:`distill`: index pair back to the message tuple."""
    k = as_number(int, index.k, "bin index")
    k_tilde = as_number(int, index.k_tilde, "within-bin index")
    if not 0 <= k < codebook.num_bins:
        raise ValueError(f"bin index out of range: {k}")
    if not 0 <= k_tilde < codebook.bin_size:
        raise ValueError(f"within-bin index out of range: {k_tilde}")
    pos = (k << codebook.bin_bits) | k_tilde
    return codebook.messages_from_flat(int(codebook.inverse[pos]))


# Only the tests call this; it stays because perfbench's TRACED looks it up.
def xor_distill(common_messages: Sequence[np.ndarray]) -> np.ndarray:
    """Baseline key: concatenated XORs of message pairs (1,2),(3,4),...

    Each XOR is truncated to the shorter member; with an odd message
    count the last message is excluded.  Pairs are taken in listed
    order, unlike :func:`rates.xor_baseline_rate`, which scores the best
    pairing: this is a test oracle, and its zero-leak check holds for
    any pairing.
    """
    if len(common_messages) < 2:
        raise ValueError("at least two messages are required")
    chunks = []
    for j in range(0, len(common_messages) - 1, 2):
        a = as_bits(common_messages[j])
        b = as_bits(common_messages[j + 1])
        length = min(a.size, b.size)
        chunks.append(a[:length] ^ b[:length])
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
