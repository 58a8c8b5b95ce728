import tracemalloc

import numpy as np
import pytest

from pinkey import pipeline
from pinkey.protocol import relay_sender, xor_payloads

from helpers import dsbs_instance, ideal_instance


def test_ideal_run_audits_every_relay():
    inst = ideal_instance([(2, 1), (1, 2), (2, 3)], n=2)
    res = pipeline.run_once(inst, sample_seed=1, codebook_seed=2)
    assert res.agreed
    assert not res.truncated
    assert res.message_bits == [2, 2, 4]
    assert res.key_bits == pipeline.key_bits_for([2, 2, 4], 1)
    assert [a.relay for a in res.leakage] == [0, 1, 2]
    assert all(a.mi_bits >= 0.0 for a in res.leakage)


def test_key_bits_for_rejects_negative_slack():
    # -2 slack bits would give 5 key bits from the 3 bits of the M-1
    # smallest widths.
    assert pipeline.key_bits_for([3, 3], 0) == 3
    # More slack than key bits floors at zero, not at one.
    assert pipeline.key_bits_for([1, 1], 3) == 0
    with pytest.raises(ValueError):
        pipeline.key_bits_for([3, 3], -2)


@pytest.mark.parametrize("widths, slack", [
    ([3, 3], 1.5), ([3.0, 3], 0), ([3, True], 0), ([3, 3], True),
    ([3, "3"], 0), ([3, 3], "1")])
def test_key_bits_for_rejects_non_integers(widths, slack):
    with pytest.raises(ValueError):
        pipeline.key_bits_for(widths, slack)


def test_truncation_keeps_proportional_prefixes():
    # Common messages of 12, 20 and 8 bits: 40 bits, twice the budget.
    inst = ideal_instance([(3, 4), (5, 5), (2, 9)], n=4)
    res = pipeline.run_once(inst, sample_seed=3, codebook_seed=4)
    full = [w.size for w in res.keys.common]
    assert full == [12, 20, 8]
    assert res.truncated
    assert res.message_bits == [b * 20 // 40 for b in full]
    assert sum(res.message_bits) <= 20
    assert res.agreed
    assert len(res.leakage) == 3


@pytest.mark.parametrize("bit_pairs, truncated, kept", [
    ([(7, 7)] * 3, True, [6, 6, 6]),
    ([(7, 7), (7, 7), (6, 7)], False, [7, 7, 6])],
    ids=["21_bits", "20_bits"])
def test_twenty_bit_budget(bit_pairs, truncated, kept):
    # Common messages of 7 + 7 + 7 = 21 bits are one over the budget and
    # are cut to 7 * 20 // 21 = 6 bits each; 7 + 7 + 6 = 20 fit whole.
    res = pipeline.run_once(ideal_instance(bit_pairs), sample_seed=9,
                            codebook_seed=10)
    assert [w.size for w in res.keys.common] == [min(p) for p in bit_pairs]
    assert res.truncated is truncated
    assert res.message_bits == kept
    assert res.agreed


def test_noisy_run_skips_the_audit():
    res = pipeline.run_once(dsbs_instance([0.0] * 2, 70), sample_seed=5,
                            codebook_seed=6)
    assert res.leakage is None
    assert res.agreed


@pytest.mark.parametrize("inst", [ideal_instance([(2, 1), (1, 2)], n=3),
                                  dsbs_instance([0.0] * 3, 70)],
                         ids=["ideal", "dsbs"])
def test_relay_rounds_carry_the_xor_payloads(inst):
    res = pipeline.run_once(inst, sample_seed=7, codebook_seed=8)
    broadcast = res.transcript.rounds[-inst.m:]
    assert [r.sender for r in broadcast] == [relay_sender(i)
                                            for i in range(inst.m)]
    for rnd, payload in zip(broadcast, xor_payloads(res.keys)):
        np.testing.assert_array_equal(rnd.payload, payload)


def test_result_does_not_keep_the_codebook():
    # A 2^20-codeword trial: its codebook holds 16 MiB of int64 arrays.
    inst = ideal_instance([(5, 6)] * 4, epsilon_bits=2)
    # A small run first, so modules imported lazily on a first call are
    # not counted as kept.
    pipeline.run_once(ideal_instance([(1, 1)] * 2), 0, 0)
    tracemalloc.start()
    try:
        res = pipeline.run_once(inst, sample_seed=0, codebook_seed=1)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(res.message_bits) == 20
    assert kept < 1 << 20
