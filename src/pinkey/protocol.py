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
then compressed through a fixed public binary Toeplitz hash, dropping
ceil(7 * h2(p) / 4) bits per retained block.  The achieved rate is
sub-capacity and is reported as such.

The hash is evaluated as an exact FFT convolution in float64, so its time
is O(n log n) and its memory linear in n; every convolution entry is an
integer count that must round cleanly, and an entry more than 0.25 from
an integer raises :class:`InvariantViolation` instead of a wrong key.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .bitops import as_bits, bits_to_hex
from .errors import InvariantViolation, ReconciliationFailure
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
# block parity (an all-ones row), in one product.
_PUBLIC = np.vstack([_H, np.ones(_BLOCK, dtype=np.uint8)]).T


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
    raises ``ValueError``.  Only rounds that actually carry a payload are
    recorded; indices are strictly increasing.
    """

    def __init__(self, num_relays: int):
        if num_relays < 2:
            raise ValueError("at least two relays are required")
        self.num_relays = num_relays
        self.rounds: List[Round] = []
        self._last = 0
        self._residues = {relay_sender(i): i + 1 for i in range(num_relays)}
        self._residues.update({SENDER_ALICE: num_relays + 1, SENDER_BOB: 0})

    def _residue(self, sender: str) -> int:
        if sender not in self._residues:
            raise ValueError(f"unknown sender: {sender!r}")
        return self._residues[sender]

    def append(self, sender: str, payload) -> Round:
        """Log a payload at the sender's next scheduled round."""
        period = self.num_relays + 2
        residue = self._residue(sender)
        index = self._last + 1
        index += (residue - index) % period
        rnd = Round(index=index, sender=sender, payload=as_bits(payload))
        self.rounds.append(rnd)
        self._last = index
        return rnd

    def schedule_ok(self) -> bool:
        period = self.num_relays + 2
        last = 0
        for rnd in self.rounds:
            if rnd.index <= last or rnd.index % period != self._residue(rnd.sender):
                return False
            last = rnd.index
        return True

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


def _toeplitz_hash(bits: np.ndarray, out_len: int) -> np.ndarray:
    """Fixed public universal-hash compression of each row to out_len bits.

    ``bits`` is a ``(rows, k)`` 0/1 array and the result is ``(rows,
    out_len)`` uint8.  Every row goes through the same ``out_len x k``
    Toeplitz matrix ``T[i, j] = diag[i - j + k - 1]``, with ``diag`` drawn
    from the public compression seed and ``(k, out_len)``.  ``T @ x`` is
    entries ``[k - 1, k - 1 + out_len)`` of the linear convolution
    ``diag * x``, which a circular convolution of length at least
    ``out_len + k - 1`` reproduces there without wrap-around; it is
    computed with one real FFT of ``diag`` and one per row, rounded to the
    nearest integer and reduced mod 2.  An entry more than 0.25 from an
    integer raises :class:`InvariantViolation`.
    """
    rows, k = bits.shape
    if out_len <= 0 or k == 0:
        return np.zeros((rows, max(out_len, 0)), dtype=np.uint8)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=_COMPRESSION_SEED,
                               spawn_key=(k, out_len))))
    diag = rng.integers(0, 2, size=out_len + k - 1, dtype=np.uint8)
    size = 1 << (diag.size - 1).bit_length()
    spectrum = np.fft.rfft(bits, size)
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
    return (counts % 2).astype(np.uint8)


def compression_drop_per_block(crossover: float) -> int:
    return math.ceil(_BLOCK * binary_entropy(crossover) / 4.0)


def reconcile_pair(seq_terminal, seq_relay,
                   crossover: float) -> ReconcileResult:
    """Syndrome-based one-way reconciliation of two correlated sequences.

    The relay publishes, per 7-bit block, the Hamming(7,4) syndrome and
    the block parity.  The terminal corrects at most one flip per block;
    a parity mismatch after correction discards the block, and
    ``kept_mask`` says which blocks survive.  Both sides keep the 4
    information positions of each surviving block and compress them
    through the fixed public hash.
    """
    term = as_bits(seq_terminal)
    relay = as_bits(seq_relay)
    if term.size != relay.size:
        raise ValueError("sequences must have equal length")
    if term.size == 0 or term.size % _BLOCK:
        raise ValueError(f"sequence length must be a positive multiple "
                         f"of {_BLOCK}")

    term_blocks = term.reshape(-1, _BLOCK).copy()
    relay_blocks = relay.reshape(-1, _BLOCK)

    relay_public = relay_blocks @ _PUBLIC % 2
    diff = (term_blocks @ _PUBLIC + relay_public) % 2

    # A nonzero syndrome difference names one position to flip (1-based).
    err_pos = diff[:, :3] @ np.array([1, 2, 4])
    corrected = np.flatnonzero(err_pos)
    term_blocks[corrected, err_pos[corrected] - 1] ^= 1

    # A correction flips the block parity, so the corrected block passes
    # the parity check exactly when the parity bits differ iff a bit was
    # flipped.
    kept = diff[:, 3] == (err_pos != 0)

    raw = np.stack([term_blocks[kept][:, _INFO_POSITIONS].ravel(),
                    relay_blocks[kept][:, _INFO_POSITIONS].ravel()])
    n_kept = int(kept.sum())
    drop = compression_drop_per_block(crossover) * n_kept
    raw_bits = raw.shape[1]
    keys = _toeplitz_hash(raw, max(raw_bits - drop, 0))
    return ReconcileResult(
        key_terminal=keys[0],
        key_relay=keys[1],
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

    Ideal-common pairs read their shared bits off directly with no public
    transmission.  Noisy pairs run :func:`reconcile_pair` on each side;
    the relay's syndrome message and the terminal's kept-block mask are
    logged at their owners' rounds.  Raises
    :class:`ReconciliationFailure` when a noisy pair ends with an empty
    key on either side.
    """
    transcript = Transcript(instance.m)
    w_a, w_b, relay_w_a, relay_w_b = [], [], [], []
    for i, pair in enumerate(instance.pairs):
        if pair.mode == MODE_IDEAL:
            w_a.append(realization.x_a[i].copy())
            relay_w_a.append(realization.x_relays[i][0].copy())
            w_b.append(realization.x_b[i].copy())
            relay_w_b.append(realization.x_relays[i][1].copy())
            continue
        usable = (realization.n // _BLOCK) * _BLOCK
        if usable == 0:
            raise ReconciliationFailure(i, f"blocklength {realization.n} "
                                           f"shorter than one code block")
        res_a = reconcile_pair(realization.x_a[i][:usable],
                               realization.x_relays[i][0][:usable],
                               pair.crossover_a)
        transcript.append(relay_sender(i), res_a.syndrome_bits)
        transcript.append(SENDER_ALICE, res_a.kept_mask)
        res_b = reconcile_pair(realization.x_b[i][:usable],
                               realization.x_relays[i][1][:usable],
                               pair.crossover_b)
        transcript.append(relay_sender(i), res_b.syndrome_bits)
        transcript.append(SENDER_BOB, res_b.kept_mask)
        if res_a.key_terminal.size == 0 or res_b.key_terminal.size == 0:
            raise ReconciliationFailure(i, "no key bits survived")
        w_a.append(res_a.key_terminal)
        relay_w_a.append(res_a.key_relay)
        w_b.append(res_b.key_terminal)
        relay_w_b.append(res_b.key_relay)
    keys = PairwiseKeys(w_a=w_a, w_b=w_b, relay_w_a=relay_w_a,
                        relay_w_b=relay_w_b, n=realization.n)
    return keys, transcript


def xor_payloads(keys: PairwiseKeys) -> List[np.ndarray]:
    """Per-relay broadcast payload: XOR of the two keys, truncated to the
    shorter one (computed from the relay's copies)."""
    out = []
    for wa, wb in zip(keys.relay_w_a, keys.relay_w_b):
        length = min(wa.size, wb.size)
        out.append(wa[:length] ^ wb[:length])
    return out


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
