"""End-to-end run: sample, agree, broadcast, distill, audit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from . import distillation, infotools, model, protocol
from .bitops import bits_to_int
from .errors import as_number
from .model import MODE_IDEAL, PinInstance
from .protocol import PairwiseKeys, Transcript

# Enumeration budget of the explicit codebook, in total message bits.
_MAX_TOTAL_BITS = 20


@dataclass
class PipelineResult:
    key_alice: int
    key_bob: int
    key_bits: int
    message_bits: List[int]
    truncated: bool
    transcript: Transcript
    keys: PairwiseKeys
    leakage: Optional[List[infotools.LeakageAudit]]

    @property
    def agreed(self) -> bool:
        return self.key_alice == self.key_bob


def key_bits_for(message_bits: List[int], epsilon_bits: int) -> int:
    """Key length: sum of the M-1 smallest message widths minus the
    withheld slack bits (>= 0), floored at zero.  Widths follow the
    codebook's rule (:func:`distillation._widths`: integers >= 0) and the
    slack must be an integer; anything else raises ``ValueError``."""
    message_bits, _ = distillation._widths(message_bits, 0)
    epsilon_bits = as_number(int, epsilon_bits, "epsilon_bits")
    if epsilon_bits < 0:
        raise ValueError(f"epsilon_bits must be >= 0: {epsilon_bits}")
    return max(sum(sorted(message_bits)[:-1]) - epsilon_bits, 0)


def _truncation(message_bits: List[int], budget: int) -> List[int]:
    """Proportional prefix lengths fitting the enumeration budget."""
    total = sum(message_bits)
    if total <= budget:
        return list(message_bits)
    return [b * budget // total for b in message_bits]


def run_once(instance: PinInstance, sample_seed: int,
             codebook_seed: int) -> PipelineResult:
    """One full protocol execution for one sampled realization.

    When the agreed common messages jointly exceed 20 bits (possible for
    long noisy-pair runs), each is truncated to a proportional prefix so
    the explicit codebook stays at desk scale; the result is flagged.
    The exact per-relay leakage audit runs when every pair is ideal,
    the only mode in which it is valid; otherwise ``leakage`` is None.
    The codebook is not returned, so it is freed with the run.
    """
    realization = model.sample(instance, sample_seed)
    keys, transcript = protocol.agree_keys(realization, instance)
    payloads = protocol.xor_broadcast(keys, transcript)

    full_bits = [w.size for w in keys.common]
    message_bits = _truncation(full_bits, _MAX_TOTAL_BITS)
    key_bits = key_bits_for(message_bits, instance.params.epsilon_bits)
    codebook = distillation.build_codebook(message_bits, key_bits,
                                           codebook_seed)
    key_alice, key_bob = (
        distillation.distill(codebook, [bits_to_int(w[:b]) for w, b
                                        in zip(common, message_bits)]).k
        for common in (protocol.alice_common(keys, payloads),
                       protocol.bob_common(keys, payloads)))

    leakage = None
    if all(p.mode == MODE_IDEAL for p in instance.pairs):
        leakage = [infotools.leakage_audit(codebook, m)
                   for m in range(instance.m)]
    return PipelineResult(
        key_alice=key_alice,
        key_bob=key_bob,
        key_bits=key_bits,
        message_bits=message_bits,
        truncated=message_bits != full_bits,
        transcript=transcript,
        keys=keys,
        leakage=leakage,
    )
