import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pinkey import model, protocol
from pinkey.bitops import as_bits, int_to_bits
from pinkey.errors import InvariantViolation, ReconciliationFailure
from pinkey.model import PairSource, PinInstance, ProtocolParams
from pinkey.protocol import (PairwiseKeys, Transcript, agree_keys,
                             alice_common, bob_common, reconcile_pair,
                             relay_sender, xor_broadcast, xor_payloads)


def ideal_instance(bit_pairs, n=1, epsilon_bits=1):
    pairs = [PairSource.ideal_common(a, b) for a, b in bit_pairs]
    return PinInstance(m=len(pairs), pairs=pairs,
                       params=ProtocolParams(n=n, epsilon_bits=epsilon_bits))


def dsbs_instance(crossovers, n):
    pairs = [PairSource.dsbs(p, p) for p in crossovers]
    return PinInstance(m=len(pairs), pairs=pairs,
                       params=ProtocolParams(n=n))


def _toeplitz_diag(k, out_len):
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=protocol._COMPRESSION_SEED,
                               spawn_key=(k, out_len))))
    return rng.integers(0, 2, size=out_len + k - 1, dtype=np.uint8)


def _toeplitz_oracle(bits, out_len):
    """The compression hash as a dense out_len x k matrix product."""
    bits = as_bits(bits)
    if out_len <= 0:
        return np.zeros(0, dtype=np.uint8)
    diag = _toeplitz_diag(bits.size, out_len)
    rows = np.arange(out_len)[:, None]
    cols = np.arange(bits.size)[None, :]
    matrix = diag[rows - cols + bits.size - 1]
    return (matrix @ bits % 2).astype(np.uint8)


class TestTranscript:
    def test_round_residues(self):
        t = Transcript(3)
        t.append(relay_sender(0), [1])      # relay-1 -> l = 1 (mod 5)
        t.append(relay_sender(2), [0, 1])   # relay-3 -> l = 3 (mod 5)
        t.append("alice", [1])              # l = 4 (mod 5)
        t.append("bob", [0])                # l = 0 (mod 5)
        t.append(relay_sender(0), [1])
        indices = [r.index for r in t.rounds]
        assert indices == [1, 3, 4, 5, 6]
        assert t.schedule_ok()

    def test_indices_strictly_increase(self):
        t = Transcript(2)
        for _ in range(5):
            t.append("bob", [1])
        indices = [r.index for r in t.rounds]
        assert indices == sorted(set(indices))
        assert all(i % 4 == 0 for i in indices)

    def test_unknown_sender(self):
        t = Transcript(2)
        with pytest.raises(ValueError):
            t.append("relay-5", [1])
        with pytest.raises(ValueError):
            t.append("eve", [1])

    @pytest.mark.parametrize("m", range(2, 7))
    def test_documented_schedule(self, m):
        t = Transcript(m)
        senders = ([relay_sender(i) for i in range(m)] + ["alice", "bob"])
        for sender in senders * 2:
            t.append(sender, [1])
        want = [i + 1 for i in range(m)] + [m + 1, 0]
        assert [r.index % (m + 2) for r in t.rounds] == want * 2
        assert [r.index for r in t.rounds[:m + 2]] == list(range(1, m + 3))
        assert t.schedule_ok()
        for bad in ("relay-0", f"relay-{m + 1}", "relay-x", "relay-01",
                    "Alice"):
            with pytest.raises(ValueError):
                t.append(bad, [1])

    def test_jsonl_and_digest_deterministic(self):
        def build():
            t = Transcript(2)
            t.append(relay_sender(0), [1, 0, 1])
            t.append("alice", [0])
            return t
        assert build().to_jsonl() == build().to_jsonl()
        assert build().digest() == build().digest()
        assert '"sender": "relay-1"' in build().to_jsonl()


class TestAgreeKeysIdeal:
    def test_key_sizes_and_common_choice(self):
        inst = ideal_instance([(2, 1), (2, 1)], n=3)
        real = model.sample(inst, 1)
        keys, transcript = agree_keys(real, inst)
        assert keys.w_a[0].size == 6
        assert keys.w_b[0].size == 3
        np.testing.assert_array_equal(keys.common[0], keys.w_b[0])
        # No public transmission is needed for ideal agreement.
        assert transcript.rounds == []

    def test_terminal_and_relay_copies_identical(self):
        inst = ideal_instance([(2, 2), (1, 3)], n=4)
        keys, _ = agree_keys(model.sample(inst, 9), inst)
        for i in range(2):
            np.testing.assert_array_equal(keys.w_a[i], keys.relay_w_a[i])
            np.testing.assert_array_equal(keys.w_b[i], keys.relay_w_b[i])

    def test_rates(self):
        inst = ideal_instance([(3, 1), (2, 2)], n=2)
        keys, _ = agree_keys(model.sample(inst, 0), inst)
        assert keys.rates == [1.0, 2.0]

    def test_pairwise_keys_uniform_and_independent(self):
        # All four 1-bit keys over many seeds: the 16 joint outcomes must
        # be uniform (chi-squared at the 0.01 level).
        inst = ideal_instance([(1, 1), (1, 1)], n=1)
        counts = np.zeros(16, dtype=int)
        for seed in range(4000):
            keys, _ = agree_keys(model.sample(inst, seed), inst)
            word = (keys.w_a[0][0] << 3 | keys.w_b[0][0] << 2
                    | keys.w_a[1][0] << 1 | keys.w_b[1][0])
            counts[word] += 1
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.01


class TestXorBroadcast:
    def test_prefix_xor_example(self):
        keys = PairwiseKeys(
            w_a=[int_to_bits(0b1011, 4), np.zeros(2, np.uint8)],
            w_b=[int_to_bits(0b01, 2), np.zeros(2, np.uint8)],
            relay_w_a=[int_to_bits(0b1011, 4), np.zeros(2, np.uint8)],
            relay_w_b=[int_to_bits(0b01, 2), np.zeros(2, np.uint8)],
            n=1)
        payloads = xor_payloads(keys)
        np.testing.assert_array_equal(payloads[0], int_to_bits(0b11, 2))
        # Alice unmasks the smaller Bob-side key from the payload.
        np.testing.assert_array_equal(alice_common(keys, payloads)[0],
                                      int_to_bits(0b01, 2))
        np.testing.assert_array_equal(bob_common(keys, payloads)[0],
                                      int_to_bits(0b01, 2))

    def test_identical_keys_zero_payload(self):
        w = int_to_bits(0b101, 3)
        keys = PairwiseKeys(w_a=[w, w], w_b=[w, w], relay_w_a=[w, w],
                            relay_w_b=[w, w], n=1)
        for payload in xor_payloads(keys):
            assert not payload.any()

    def test_exhaustive_equal_length_reconstruction(self):
        # All 256 combinations of two 4-bit keys for one relay.
        for a_val, b_val in itertools.product(range(16), repeat=2):
            wa, wb = int_to_bits(a_val, 4), int_to_bits(b_val, 4)
            pad = np.zeros(4, np.uint8)
            keys = PairwiseKeys(w_a=[wa, pad], w_b=[wb, pad],
                                relay_w_a=[wa, pad], relay_w_b=[wb, pad],
                                n=1)
            payloads = xor_payloads(keys)
            np.testing.assert_array_equal(alice_common(keys, payloads)[0], wb)
            np.testing.assert_array_equal(bob_common(keys, payloads)[0], wb)

    @pytest.mark.parametrize("len_a,len_b",
                             itertools.product(range(1, 5), repeat=2))
    def test_side_rule_one_relay(self, len_a, len_b):
        # The shorter key is the common message; Bob's side wins a tie.
        rng = np.random.Generator(np.random.PCG64(len_a * 5 + len_b))
        wa = rng.integers(0, 2, len_a, dtype=np.uint8)
        wb = rng.integers(0, 2, len_b, dtype=np.uint8)
        keys = PairwiseKeys(w_a=[wa], w_b=[wb], relay_w_a=[wa.copy()],
                            relay_w_b=[wb.copy()], n=1)
        payloads = xor_payloads(keys)
        assert payloads[0].size == min(len_a, len_b)
        np.testing.assert_array_equal(keys.common[0],
                                      wb if len_b <= len_a else wa)
        np.testing.assert_array_equal(alice_common(keys, payloads)[0],
                                      keys.common[0])
        np.testing.assert_array_equal(bob_common(keys, payloads)[0],
                                      keys.common[0])
        with pytest.raises(ValueError):
            alice_common(keys, [])

    def test_broadcast_appends_relay_rounds(self):
        inst = ideal_instance([(1, 1), (1, 1)], n=2)
        keys, transcript = agree_keys(model.sample(inst, 3), inst)
        xor_broadcast(keys, transcript)
        assert [r.sender for r in transcript.rounds] == ["relay-1", "relay-2"]
        assert transcript.schedule_ok()


class TestReconcilePair:
    def test_identical_sequences(self):
        rng = np.random.Generator(np.random.PCG64(0))
        seq = rng.integers(0, 2, 7 * 10, dtype=np.uint8)
        res = reconcile_pair(seq, seq, 0.0)
        assert res.corrected_blocks == 0
        assert res.kept_mask.all()
        assert res.dropped_bits == 0
        assert res.key_terminal.size == 40
        np.testing.assert_array_equal(res.key_terminal, res.key_relay)

    def test_single_flip_corrected_every_position(self):
        rng = np.random.Generator(np.random.PCG64(1))
        relay = rng.integers(0, 2, 7, dtype=np.uint8)
        for pos in range(7):
            term = relay.copy()
            term[pos] ^= 1
            res = reconcile_pair(term, relay, 0.1)
            assert res.kept_mask.all()
            np.testing.assert_array_equal(res.key_terminal, res.key_relay)

    def test_double_flip_detected_every_pair(self):
        rng = np.random.Generator(np.random.PCG64(2))
        relay = rng.integers(0, 2, 7, dtype=np.uint8)
        for p1, p2 in itertools.combinations(range(7), 2):
            term = relay.copy()
            term[p1] ^= 1
            term[p2] ^= 1
            res = reconcile_pair(term, relay, 0.1)
            assert not res.kept_mask.any()

    def test_compression_drop(self):
        # crossover 0.11: ceil(7 * h2 / 4) = 1 dropped bit per block.
        seq = np.zeros(7 * 4, dtype=np.uint8)
        res = reconcile_pair(seq, seq, 0.11)
        assert res.dropped_bits == 4
        assert res.key_terminal.size == 12

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            reconcile_pair([0] * 7, [0] * 14, 0.1)
        with pytest.raises(ValueError):
            reconcile_pair([0] * 6, [0] * 6, 0.1)


# (k, out_len): empty input, one bit, more output than input, and
# convolution lengths out_len + k - 1 and inputs k one below, at and one
# above a power of two.
TOEPLITZ_GRID = [(0, 5), (1, 1), (3, 10), (9, 40), (8, 3)] + [
    case for p in (64, 1024) for d in (-1, 0, 1)
    for case in ((p + d, p // 2), (p // 2, p + d - p // 2 + 1),
                 (p + d, p + d))]


class TestToeplitzHash:
    @pytest.mark.parametrize("k,out_len", TOEPLITZ_GRID)
    def test_equals_dense_oracle(self, k, out_len):
        rng = np.random.Generator(np.random.PCG64(k * 7919 + out_len))
        bits = rng.integers(0, 2, (3, k), dtype=np.uint8)
        bits[0] = 1   # the largest counts the rounding must reproduce
        got = protocol._toeplitz_hash(bits, out_len)
        assert got.dtype == np.uint8 and got.shape == (3, out_len)
        for row, key in zip(bits, got):
            assert (key == _toeplitz_oracle(row, out_len)).all()

    def test_batched_rows_equal_single_rows(self):
        rng = np.random.Generator(np.random.PCG64(5))
        bits = rng.integers(0, 2, (2, 1000), dtype=np.uint8)
        batched = protocol._toeplitz_hash(bits, 700)
        for row, key in zip(bits, batched):
            assert (protocol._toeplitz_hash(row[None], 700)[0] == key).all()

    def test_memory_linear_in_k(self):
        # A dense hash matrix would take about 10^6 * k bytes here.
        k = 200_000
        bits = np.random.Generator(np.random.PCG64(6)).integers(
            0, 2, (2, k), dtype=np.uint8)
        tracemalloc.start()
        try:
            protocol._toeplitz_hash(bits, 3 * k // 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * k

    def test_rounding_guard(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft",
                            lambda *a, **kw: irfft(*a, **kw) + 0.3)
        with pytest.raises(InvariantViolation):
            protocol._toeplitz_hash(np.ones((1, 8), dtype=np.uint8), 4)

    def test_million_bit_pair_matches_oracle_rows(self):
        # n = 1,000,006: k = 571,432 raw bits hashed to 428,574; a dense
        # matrix is out of reach, so sampled rows are checked one by one.
        rng = np.random.Generator(np.random.PCG64(7))
        seq = rng.integers(0, 2, 1_000_006, dtype=np.uint8)
        res = reconcile_pair(seq, seq, 0.05)
        raw = seq.reshape(-1, 7)[:, [2, 4, 5, 6]].ravel().astype(np.int64)
        k, out_len = raw.size, res.key_terminal.size
        assert (k, out_len) == (571_432, 428_574)
        assert (res.key_terminal == res.key_relay).all()
        diag = _toeplitz_diag(k, out_len)
        for i in [0, 1, out_len - 1, *rng.integers(0, out_len, 12)]:
            row = diag[i - np.arange(k) + k - 1]
            assert res.key_terminal[i] == row @ raw % 2


class TestAgreeKeysNoisy:
    def test_zero_crossover_noiseless(self):
        inst = dsbs_instance([0.0, 0.0], n=7)
        keys, transcript = agree_keys(model.sample(inst, 2), inst)
        for i in range(2):
            np.testing.assert_array_equal(keys.w_a[i], keys.relay_w_a[i])
            np.testing.assert_array_equal(keys.w_b[i], keys.relay_w_b[i])
        # Syndrome rounds from relays, kept-mask replies from terminals.
        senders = [r.sender for r in transcript.rounds]
        assert senders == ["relay-1", "alice", "relay-1", "bob",
                           "relay-2", "alice", "relay-2", "bob"]
        assert transcript.schedule_ok()

    def test_short_block_fails(self):
        inst = dsbs_instance([0.1, 0.1], n=5)
        with pytest.raises(ReconciliationFailure):
            agree_keys(model.sample(inst, 0), inst)

    def test_monte_carlo_agreement_rate_golden(self):
        # 1000 seeded trials, two pairs at crossover 0.05, 64 blocks per
        # side: a trial succeeds when all four pairwise keys agree.
        # Frozen from a seeded run; undetected miscorrections (weight-3
        # error patterns adjacent to a codeword) set the failure floor.
        inst = dsbs_instance([0.05, 0.05], n=7 * 64)
        successes = 0
        for seed in range(1000):
            real = model.sample(inst, seed)
            try:
                keys, _ = agree_keys(real, inst)
            except ReconciliationFailure:
                continue
            successes += all(
                np.array_equal(keys.w_a[i], keys.relay_w_a[i])
                and np.array_equal(keys.w_b[i], keys.relay_w_b[i])
                for i in range(2))
        assert successes == 461
