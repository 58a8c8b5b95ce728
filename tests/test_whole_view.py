"""Whole-view secrecy oracle for ideal pairs.

Every source realization of a toy ideal instance is built by hand and run
through the real protocol: ``agree_keys``, ``xor_broadcast``,
``alice_common`` and ``distill`` under one fixed codebook. Relay m sees
its two raw pairwise sources and the whole public transcript; Eve sees
the transcript alone. The mutual information of each view with the key is
counted over the equally likely realizations, with no call into
``infotools``, and compared with ``leakage_audit``, which assumes that
relay m learns about the key only through its common message W_m.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from pinkey import distillation, infotools, pipeline, protocol
from pinkey.bitops import bits_to_int
from pinkey.model import SourceRealization

from helpers import ideal_instance

_CODEBOOK_SEED = 5


def _entropy(counts, total):
    return math.log2(total) - math.fsum(
        c * math.log2(c) for c in counts.values()) / total


def _mi(outcomes):
    """I(X; Y) in bits over equally likely realizations, from the list of
    their (x, y) outcomes."""
    total = len(outcomes)
    return (_entropy(Counter(x for x, _ in outcomes), total)
            + _entropy(Counter(y for _, y in outcomes), total)
            - _entropy(Counter(outcomes), total))


@pytest.mark.parametrize("bit_pairs, epsilon_bits", [
    ([(1, 2), (2, 1)], 0),
    ([(1, 1), (1, 2), (2, 1)], 0),
    ([(2, 3), (2, 2), (3, 2)], 1)], ids=["6_bits", "8_bits", "14_bits"])
def test_whole_view_leak_equals_the_codebook_audit(bit_pairs, epsilon_bits):
    inst = ideal_instance(bit_pairs, n=1, epsilon_bits=epsilon_bits)
    message_bits = [min(pair) for pair in bit_pairs]
    codebook = distillation.build_codebook(
        message_bits, pipeline.key_bits_for(message_bits, epsilon_bits),
        _CODEBOOK_SEED)
    # Source bits in pair order, Alice's side of each pair before Bob's.
    edges = np.cumsum([0] + [b for pair in bit_pairs for b in pair])
    relay_views = [[] for _ in bit_pairs]
    eve_view = []
    for source in itertools.product((0, 1), repeat=int(edges[-1])):
        source = np.array(source, dtype=np.uint8)
        sides = [source[lo:hi] for lo, hi in zip(edges, edges[1:])]
        x_relays = list(zip(sides[::2], sides[1::2]))
        real = SourceRealization(n=1, x_a=sides[::2], x_b=sides[1::2],
                                 x_relays=x_relays)
        keys, transcript = protocol.agree_keys(real, inst)
        payloads = protocol.xor_broadcast(keys, transcript)
        key = distillation.distill(codebook, [
            bits_to_int(w) for w in protocol.alice_common(keys, payloads)]).k
        public = transcript.to_jsonl()
        eve_view.append((key, public))
        for view, (x_a, x_b) in zip(relay_views, x_relays):
            view.append((key, (x_a.tobytes(), x_b.tobytes(), public)))
    assert abs(_mi(eve_view)) <= 1e-12
    for m, view in enumerate(relay_views):
        assert _mi(view) == pytest.approx(
            infotools.leakage_audit(codebook, m).mi_bits, abs=1e-12)
