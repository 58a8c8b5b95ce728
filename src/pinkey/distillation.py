"""Private-key distillation: random-binning codebook and XOR baseline.

The codebook uniformly partitions the product space of all common
messages into equal-size bins via a seeded shuffle; the bin index of the
realized message tuple is the private key.  The bijection is stored
explicitly (forward and inverse arrays) so downstream information
measures are exact.  The scatter that builds the inverse also checks, in
linear time, that the forward array is a permutation.  Enumeration is
capped at 2^24 codewords.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .bitops import as_bits
from .errors import BudgetExceeded, as_number

ENUM_BUDGET_BITS = 24


@dataclass(frozen=True)
class KeyIndex:
    """(bin, within-bin) position of one message tuple; k is the key."""

    k: int
    k_tilde: int


class RbCodebook:
    """Equal-size random partition of the message product space.

    ``message_bits[i]`` is the bit width of relay i's common message.
    ``position[w]`` is the shuffled position of flat codeword index w;
    bin index = position >> bin_bits, within-bin index = the low bits.
    ``inverse`` is the inverse permutation; ``position`` is int64 and
    ``inverse`` int32, which holds any index under the 2^24 budget.

    ``position`` is validated in linear time: every entry must lie in
    [0, 2^total_bits), and the scatter ``inverse[position] = arange`` into
    an array filled with -1 must hit every slot.  That many in-range
    values hitting every slot are a permutation, by pigeonhole; anything
    else raises ``ValueError``.  The widths, ``key_bits`` and the
    ``position`` entries must be integers: a boolean or a float (entry or
    array dtype) raises ``ValueError``.

    ``key_of_all`` (the bin index of every codeword) is built on first
    use, so codebooks that are never audited never pay for it.
    """

    def __init__(self, message_bits: Sequence[int], key_bits: int,
                 position: np.ndarray, seed: int | None = None):
        self.message_bits = [as_number(int, b, "message width")
                             for b in message_bits]
        self.key_bits = as_number(int, key_bits, "key_bits")
        self.seed = seed
        self.total_bits = sum(self.message_bits)
        self.bin_bits = self.total_bits - self.key_bits
        if self.key_bits < 0 or self.bin_bits < 0:
            raise ValueError("key_bits must lie in [0, sum(message_bits)]")
        total = 1 << self.total_bits
        if isinstance(position, np.ndarray):
            ok = position.dtype.kind in "iu"  # O(1) for an int64 array
        else:
            ok = all(isinstance(w, numbers.Integral)
                     and not isinstance(w, bool) for w in position)
        if not ok:
            raise ValueError("position entries must be integers")
        pos = np.asarray(position, dtype=np.int64)
        # total in-range values that hit every slot are a permutation.  A
        # negative entry reads as a huge unsigned value, so one max checks
        # both ends of the range.
        inverse = np.full(total, -1, dtype=np.int32)
        if pos.shape == (total,) and pos.view(np.uint64).max() < total:
            inverse[pos] = np.arange(total, dtype=np.int32)
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

    @cached_property
    def key_of_all(self) -> np.ndarray:
        """Read-only bin index ``position >> bin_bits`` of every codeword
        in flat order, in the narrowest unsigned dtype that holds a key."""
        key = np.empty(self.position.size,
                       dtype=np.min_scalar_type(self.num_bins - 1))
        np.right_shift(self.position, self.bin_bits, out=key,
                       casting="unsafe")
        key.flags.writeable = False
        return key

    def flat_index(self, messages: Sequence[int]) -> int:
        """Row-major flat index of one message tuple."""
        if len(messages) != len(self.message_bits):
            raise ValueError("wrong number of messages")
        flat = 0
        for w, b in zip(messages, self.message_bits):
            w = int(w)
            if not 0 <= w < (1 << b):
                raise ValueError(f"message {w} outside its {b}-bit space")
            flat = (flat << b) | w
        return flat

    def messages_from_flat(self, flat: int) -> Tuple[int, ...]:
        out = []
        for b in reversed(self.message_bits):
            out.append(flat & ((1 << b) - 1))
            flat >>= b
        return tuple(reversed(out))

    def to_dict(self) -> dict:
        """JSON-ready dump of the full assignment, for golden tests."""
        return {
            "message_bits": self.message_bits,
            "key_bits": self.key_bits,
            "seed": self.seed,
            "position": self.position.tolist(),
        }


def build_codebook(rates_bits: Sequence[int], key_bits: int,
                   seed: int) -> RbCodebook:
    """Seeded uniform equal-size partition of the message product space."""
    rates_bits = [as_number(int, b, "message width") for b in rates_bits]
    key_bits = as_number(int, key_bits, "key_bits")
    if any(b < 0 for b in rates_bits):
        raise ValueError("per-message bit widths must be >= 0")
    total_bits = sum(rates_bits)
    if key_bits > total_bits:
        raise ValueError(f"key_bits={key_bits} exceeds the "
                         f"{total_bits}-bit message space")
    if total_bits > ENUM_BUDGET_BITS:
        raise BudgetExceeded(f"message space of 2^{total_bits} codewords "
                             f"exceeds the 2^{ENUM_BUDGET_BITS} budget")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    position = rng.permutation(1 << total_bits).astype(np.int64, copy=False)
    return RbCodebook(rates_bits, key_bits, position, seed=seed)


def distill(codebook: RbCodebook, common_messages: Sequence[int]) -> KeyIndex:
    """Map a message tuple to its (bin, within-bin) index pair."""
    pos = int(codebook.position[codebook.flat_index(common_messages)])
    return KeyIndex(k=pos >> codebook.bin_bits,
                    k_tilde=pos & (codebook.bin_size - 1))


def invert(codebook: RbCodebook, index: KeyIndex) -> Tuple[int, ...]:
    """Inverse of :func:`distill`: index pair back to the message tuple."""
    if not 0 <= index.k < codebook.num_bins:
        raise ValueError(f"bin index out of range: {index.k}")
    if not 0 <= index.k_tilde < codebook.bin_size:
        raise ValueError(f"within-bin index out of range: {index.k_tilde}")
    pos = (index.k << codebook.bin_bits) | index.k_tilde
    return codebook.messages_from_flat(int(codebook.inverse[pos]))


def xor_distill(common_messages: Sequence[np.ndarray]) -> np.ndarray:
    """Baseline key: concatenated XORs of message pairs (1,2),(3,4),...

    Each XOR is truncated to the shorter member; with an odd message
    count the last message is excluded.
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
