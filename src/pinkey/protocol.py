"""Key agreement over the round-robin public channel.

Step one of the key-generation pipeline: every relay establishes one
pairwise key with Alice and one with Bob, then broadcasts the XOR of the
two so that both terminals learn the smaller key of each pair (the
"common message").  Every public bit is logged in a :class:`Transcript`,
which is exactly the eavesdropper's view.

Noisy (doubly-symmetric) pairs are reconciled with a syndrome scheme
built on the Hamming(7,4) code: the relay publishes per-block syndromes
plus a per-block parity checksum; the terminal corrects single errors,
and blocks whose checksum fails after correction are discarded (the
terminal publishes the kept-block mask).  Retained information bits are
then compressed through a fixed public binary Toeplitz hash T, dropping
ceil(7 * h2(p) / 4) bits per retained block, and at least 1: a block's
syndrome and parity leak one linear bit of its four kept bits even at
p = 0.  The achieved rate is sub-capacity and is reported as such.

The hash is evaluated as an exact FFT convolution in float64, so its time
is O(n log n) and its memory linear in n; every convolution entry is an
integer count that must round cleanly, and an entry more than 0.25 from
an integer raises :class:`InvariantViolation` instead of a wrong key.

Each pairwise key is hashed once.  The terminal's corrected bits are the
relay's XOR the residual flips e left after correction, and T is linear
over GF(2), so the terminal's key is T @ x_relay XOR T @ e.  T @ e is the
XOR of the columns of T at the ones of e, or, when e is too dense for
that to beat one more FFT row, a second row of the same FFT call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .bitops import as_bits, bits_to_hex
from .errors import InvariantViolation, ReconciliationFailure, as_number
from .model import MODE_IDEAL, PinInstance, SourceRealization, binary_entropy

SENDER_ALICE = "alice"
SENDER_BOB = "bob"

# Fixed public seed of the compression hash; part of the protocol, never
# secret.
_COMPRESSION_SEED = 0x70B1_1C4A5
_BLOCK = 7
_INFO_POSITIONS = np.array([2, 4, 5, 6])  # non-power-of-two columns
# Parity-check matrix with column j equal to the binary expansion of j+1,
# so a nonzero syndrome names the flipped position directly.
_H = np.array([[(j + 1) >> k & 1 for j in range(_BLOCK)] for k in range(3)],
              dtype=np.uint8)
# The relay's public bits per block: the three syndrome bits, then the
# block parity (an all-ones row), in one product.  Float32, because
# numpy multiplies integer matrices without BLAS; every sum is at most 7,
# so the float product is exact.
_PUBLIC = np.vstack([_H, np.ones(_BLOCK, dtype=np.uint8)]).T.astype(
    np.float32)


def relay_sender(i: int) -> str:
    """Public name of relay i (0-based index, 1-based on the wire)."""
    return f"relay-{i + 1}"


@dataclass
class Round:
    index: int
    sender: str
    payload: np.ndarray


class Transcript:
    """Ordered public-channel messages with the round-robin schedule.

    With M relays the schedule has period M+2: relay m (sender
    ``relay_sender(m - 1)``, m = 1..M) owns rounds l = m (mod M+2),
    Alice owns l = M+1 and Bob owns l = 0 (mod M+2).  Any other sender
    raises ``ValueError``.  Every appended round is recorded, a 0-bit
    payload included; indices are strictly increasing.
    """

    def __init__(self, num_relays: int):
        num_relays = as_number(int, num_relays, "relay count")
        if num_relays < 2:
            raise ValueError("at least two relays are required")
        self.num_relays = num_relays
        self.rounds: List[Round] = []
        self._last = 0
        self._residues = {relay_sender(i): i + 1 for i in range(num_relays)}
        self._residues.update({SENDER_ALICE: num_relays + 1, SENDER_BOB: 0})

    def append(self, sender: str, payload) -> Round:
        """Log a payload at the sender's next scheduled round."""
        if sender not in self._residues:
            raise ValueError(f"unknown sender: {sender!r}")
        period = self.num_relays + 2
        index = self._last + 1
        index += (self._residues[sender] - index) % period
        rnd = Round(index=index, sender=sender, payload=as_bits(payload))
        self.rounds.append(rnd)
        self._last = index
        return rnd

    def to_jsonl(self) -> str:
        lines = []
        for r in self.rounds:
            lines.append(json.dumps({"l": r.index, "sender": r.sender,
                                     "bits": int(r.payload.size),
                                     "payload": bits_to_hex(r.payload)}))
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()


@dataclass
class ReconcileResult:
    key_terminal: np.ndarray
    key_relay: np.ndarray
    syndrome_bits: np.ndarray   # relay's public message: 3+1 bits per block
    kept_mask: np.ndarray       # terminal's public reply: 1 bit per block
    corrected_blocks: int
    raw_bits: int               # info bits retained before compression
    dropped_bits: int


def _toeplitz_diag(k: int, out_len: int) -> np.ndarray:
    """The ``out_len + k - 1`` diagonals of the public Toeplitz matrix
    for ``k`` input bits, drawn from the compression seed and ``(k,
    out_len)``."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=_COMPRESSION_SEED,
                               spawn_key=(k, out_len))))
    return rng.integers(0, 2, size=out_len + k - 1, dtype=np.uint8)


# Cost model of the terminal key, from timing numpy on x86: XOR-ing one
# Toeplitz column into the key costs about as much as XOR-ing
# _XOR_CALL_BYTES more bytes, and one more FFT row about as much as
# XOR-ing _FFT_POINT_BYTES bytes per point and per bit of the FFT length.
_XOR_CALL_BYTES = 1 << 14
_FFT_POINT_BYTES = 1 << 5


def _toeplitz_hash_pair(raw: np.ndarray, flips: np.ndarray,
                        out_len: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(T @ (raw ^ flips), T @ raw)`` as uint8 keys of ``out_len`` bits,
    under the fixed public universal hash of the compression step.

    T is the ``out_len x k`` Toeplitz matrix ``T[i, j] = diag[i - j + k -
    1]`` for ``k = raw.size``, with ``diag`` from :func:`_toeplitz_diag`;
    an empty key (``out_len <= 0`` or ``k == 0``) draws nothing.  ``T @
    x`` is entries ``[k - 1, k - 1 + out_len)`` of the linear convolution
    ``diag * x``, which a circular convolution of length at least
    ``out_len + k - 1`` (the FFT length, a power of two) reproduces there
    without wrap-around; it is computed with one real FFT of ``diag`` and
    one per hashed row, rounded to the nearest integer and reduced mod 2.
    An entry more than 0.25 from an integer raises
    :class:`InvariantViolation`.

    The hash is linear over GF(2), so the first key is the second XOR the
    columns ``T[:, j] = diag[k - 1 - j : k - 1 - j + out_len]`` at the ones
    j of ``flips``.  While those XORs cost less than one more FFT row (a
    rule on the flip count, ``out_len`` and the FFT length), ``raw`` is the
    only FFT row; otherwise ``flips`` is hashed as a second row.
    """
    k = raw.size
    if out_len <= 0 or k == 0:
        empty = np.zeros(max(out_len, 0), dtype=np.uint8)
        return empty, empty.copy()
    cols = k - 1 - np.flatnonzero(flips)
    size = 1 << (out_len + k - 2).bit_length()
    two_rows = (cols.size * (out_len + _XOR_CALL_BYTES)
                > _FFT_POINT_BYTES * size * size.bit_length())
    rows = np.stack([raw, flips]) if two_rows else raw[None]
    diag = _toeplitz_diag(k, out_len)
    spectrum = np.fft.rfft(rows, size)
    spectrum *= np.fft.rfft(diag, size)
    conv = np.fft.irfft(spectrum, size)[:, k - 1:k - 1 + out_len]
    del spectrum
    counts = np.rint(conv)
    conv -= counts
    residual = float(np.abs(conv, out=conv).max())
    if residual > 0.25:
        raise InvariantViolation(f"Toeplitz hash entry {residual:.3g} away "
                                 f"from an integer (k={k}, "
                                 f"out_len={out_len})")
    keys = (counts.astype(np.int64) & 1).astype(np.uint8)
    if two_rows:
        return keys[0] ^ keys[1], keys[0]
    key_terminal = keys[0].copy()
    for start in cols:
        key_terminal ^= diag[start:start + out_len]
    return key_terminal, keys[0]


def compression_drop_per_block(crossover: float) -> int:
    """Key bits dropped per kept block: ceil(7*h2(p)/4), and at least 1,
    since a block's syndrome and parity leak one linear bit of its four
    kept bits (rank 4 + 4 - 7) even at crossover 0."""
    return max(math.ceil(_BLOCK * binary_entropy(crossover) / 4.0), 1)


def _public_bits(blocks: np.ndarray) -> np.ndarray:
    """Syndrome and parity bits (uint8) of each row of 7-bit blocks."""
    return (blocks.astype(np.float32) @ _PUBLIC).astype(np.uint8) & 1


def reconcile_pair(seq_terminal, seq_relay,
                   crossover: float) -> ReconcileResult:
    """Syndrome-based one-way reconciliation of two correlated sequences.

    The relay publishes, per 7-bit block, the Hamming(7,4) syndrome and
    the block parity.  The terminal corrects at most one flip per block;
    a parity mismatch after correction discards the block, and
    ``kept_mask`` says which blocks survive.  Both sides keep the 4
    information positions of each surviving block and compress them
    through the fixed public hash.  ``crossover`` must lie in [0, 0.5],
    the range :class:`model.PairSource` allows.

    The syndrome and parity differences are the same product of the flip
    pattern ``term ^ relay``, so correction runs on that pattern; what is
    left of it afterwards is exactly where the corrected terminal block
    still differs from the relay's.  Only the relay's bits are hashed;
    the terminal's key follows from them and the residual flips
    (:func:`_toeplitz_hash_pair`).
    """
    crossover = as_number(float, crossover, "crossover")
    if not 0.0 <= crossover <= 0.5:
        raise ValueError(f"crossover must lie in [0, 0.5]: {crossover}")
    term = as_bits(seq_terminal)
    relay = as_bits(seq_relay)
    if term.size != relay.size:
        raise ValueError("sequences must have equal length")
    if term.size == 0 or term.size % _BLOCK:
        raise ValueError(f"sequence length must be a positive multiple "
                         f"of {_BLOCK}")

    flips = (term ^ relay).reshape(-1, _BLOCK)
    relay_blocks = relay.reshape(-1, _BLOCK)

    relay_public = _public_bits(relay_blocks)
    diff = _public_bits(flips)

    # A nonzero syndrome difference names one position to flip (1-based).
    err_pos = diff[:, :3] @ np.array([1, 2, 4])
    corrected = np.flatnonzero(err_pos)
    flips[corrected, err_pos[corrected] - 1] ^= 1

    # A correction flips the block parity, so the corrected block passes
    # the parity check exactly when the parity bits differ iff a bit was
    # flipped.
    kept = diff[:, 3] == (err_pos != 0)

    raw = relay_blocks[:, _INFO_POSITIONS][kept].ravel()
    n_kept = int(kept.sum())
    drop = compression_drop_per_block(crossover) * n_kept
    raw_bits = raw.size
    key_terminal, key_relay = _toeplitz_hash_pair(
        raw, flips[:, _INFO_POSITIONS][kept].ravel(),
        max(raw_bits - drop, 0))
    return ReconcileResult(
        key_terminal=key_terminal,
        key_relay=key_relay,
        syndrome_bits=relay_public.ravel(),
        kept_mask=kept.astype(np.uint8),
        corrected_blocks=int(np.count_nonzero(kept[corrected])),
        raw_bits=raw_bits,
        dropped_bits=min(drop, raw_bits),
    )


def _bob_side_common(len_a: int, len_b: int) -> bool:
    """The side rule of the XOR broadcast: the shorter key of a relay's
    pair is its common message, and the Bob-side key wins a tie."""
    return len_b <= len_a


@dataclass
class PairwiseKeys:
    """Pairwise keys held after the agreement step.

    Terminal copies and relay copies are tracked separately: they are
    identical by construction in ideal-common mode and identical up to
    undetected reconciliation errors in noisy mode.
    """

    w_a: List[np.ndarray]          # Alice's copy of each W_{A,i}
    w_b: List[np.ndarray]          # Bob's copy of each W_{B,i}
    relay_w_a: List[np.ndarray]    # relay i's copy of W_{A,i}
    relay_w_b: List[np.ndarray]    # relay i's copy of W_{B,i}
    n: int

    @property
    def common(self) -> List[np.ndarray]:
        """Ground-truth common messages: the relay copy of the side
        :func:`_bob_side_common` picks for each pair."""
        return [wb if _bob_side_common(wa.size, wb.size) else wa
                for wa, wb in zip(self.relay_w_a, self.relay_w_b)]

    @property
    def rates(self) -> List[float]:
        """Achieved common-message rates in bits per repetition."""
        return [w.size / self.n for w in self.common]


def agree_keys(realization: SourceRealization,
               instance: PinInstance) -> Tuple[PairwiseKeys, Transcript]:
    """Algorithm step one: establish both pairwise keys at every relay.

    Each pair's Alice side and Bob side take one path, in that order.
    Ideal-common pairs keep the arrays :func:`model.sample` gave each
    holder, with no copy and no public transmission.  Noisy pairs run
    :func:`reconcile_pair` on each side; the relay's syndrome message and
    the terminal's kept-block mask are logged at their owners' rounds.
    Raises :class:`ReconciliationFailure` when a noisy pair ends with an
    empty key on either side, once both sides are logged.
    """
    transcript = Transcript(instance.m)
    held = [], [], [], []  # PairwiseKeys' w_a, w_b, relay_w_a, relay_w_b
    for i, pair in enumerate(instance.pairs):
        sides = [(realization.x_a[i], realization.x_relays[i][0]),
                 (realization.x_b[i], realization.x_relays[i][1])]
        if pair.mode != MODE_IDEAL:
            usable = (realization.n // _BLOCK) * _BLOCK
            if usable == 0:
                raise ReconciliationFailure(i, f"blocklength {realization.n} "
                                               f"shorter than one code block")
            for s, owner, crossover in ((0, SENDER_ALICE, pair.crossover_a),
                                        (1, SENDER_BOB, pair.crossover_b)):
                res = reconcile_pair(sides[s][0][:usable],
                                     sides[s][1][:usable], crossover)
                transcript.append(relay_sender(i), res.syndrome_bits)
                transcript.append(owner, res.kept_mask)
                sides[s] = res.key_terminal, res.key_relay
            if min(term.size for term, _ in sides) == 0:
                raise ReconciliationFailure(i, "no key bits survived")
        for s, (term, relay) in enumerate(sides):
            held[s].append(term)
            held[2 + s].append(relay)
    keys = PairwiseKeys(*held, n=realization.n)
    return keys, transcript


def xor_payloads(keys: PairwiseKeys) -> List[np.ndarray]:
    """Per-relay broadcast payload: XOR of the two keys, truncated to the
    shorter one (computed from the relay's copies)."""
    return [wa[:wb.size] ^ wb[:wa.size]
            for wa, wb in zip(keys.relay_w_a, keys.relay_w_b)]


def xor_broadcast(keys: PairwiseKeys,
                  transcript: Transcript) -> List[np.ndarray]:
    """Log every relay's XOR payload at its scheduled round and return
    the payloads, as :func:`xor_payloads` computes them."""
    payloads = xor_payloads(keys)
    for i, payload in enumerate(payloads):
        transcript.append(relay_sender(i), payload)
    return payloads


def alice_common(keys: PairwiseKeys,
                 payloads: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Alice's reconstruction of every common message from the broadcast:
    her own key, or the payload XOR that many leading bits of it.

    Key lengths are public metadata, so Alice knows which side is the
    shorter."""
    return [x ^ wa[:x.size] if _bob_side_common(wa.size, wb.size) else wa
            for wa, wb, x in zip(keys.w_a, keys.relay_w_b, payloads,
                                 strict=True)]


def bob_common(keys: PairwiseKeys,
               payloads: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Bob's reconstruction of every common message from the broadcast."""
    return [wb if _bob_side_common(wa.size, wb.size) else x ^ wb[:x.size]
            for wa, wb, x in zip(keys.relay_w_a, keys.w_b, payloads,
                                 strict=True)]
