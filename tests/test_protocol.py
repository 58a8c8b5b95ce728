import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pinkey import model, protocol
from pinkey.bitops import as_bits
from pinkey.errors import InvariantViolation, ReconciliationFailure
from pinkey.protocol import (PairwiseKeys, Transcript, agree_keys,
                             alice_common, bob_common, reconcile_pair,
                             relay_sender, xor_broadcast, xor_payloads)

from helpers import (assert_round_robin, dsbs_instance, ideal_instance,
                     int_to_bits_oracle)


def _toeplitz_diag(k, out_len):
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=protocol._COMPRESSION_SEED,
                               spawn_key=(k, out_len))))
    return rng.integers(0, 2, size=out_len + k - 1, dtype=np.uint8)


def _toeplitz_oracle(bits, out_len):
    """The compression hash as a dense out_len x k matrix product.

    Row i of ``T[i, j] = diag[i - j + k - 1]`` is the window
    ``diag[i : i + k]`` reversed, so the matrix is a strided view of
    ``diag`` and costs no memory of its own."""
    bits = as_bits(bits)
    if out_len <= 0:
        return np.zeros(0, dtype=np.uint8)
    diag = _toeplitz_diag(bits.size, out_len)
    matrix = np.lib.stride_tricks.sliding_window_view(diag, bits.size)
    return (matrix[:, ::-1] @ bits % 2).astype(np.uint8)


def _syndrome(block):
    """Hamming(7,4) syndrome of a 7-bit list: the XOR of j+1 over the
    set positions j."""
    value = 0
    for j, bit in enumerate(block):
        if bit:
            value ^= j + 1
    return value


def _h2(p):
    return 0.0 if p in (0.0, 1.0) else (
        -p * math.log2(p) - (1 - p) * math.log2(1 - p))


def _reconcile_oracle(term, relay, crossover):
    """Terminal and relay keys of :func:`reconcile_pair`, block by block in
    plain Python: flip the position the syndrome difference names, keep
    the block if the parities then agree, and hash each side's kept bits
    at positions 2, 4, 5 and 6 with :func:`_toeplitz_oracle`."""
    kept_term, kept_relay = [], []
    for start in range(0, len(term), 7):
        t, r = list(term[start:start + 7]), list(relay[start:start + 7])
        pos = _syndrome(t) ^ _syndrome(r)
        if pos:
            t[pos - 1] ^= 1
        if sum(t) % 2 == sum(r) % 2:
            kept_term += [t[j] for j in (2, 4, 5, 6)]
            kept_relay += [r[j] for j in (2, 4, 5, 6)]
    blocks = len(kept_relay) // 4
    drop = max(math.ceil(7 * _h2(crossover) / 4), 1)
    out_len = max(4 * blocks - drop * blocks, 0)
    return (_toeplitz_oracle(kept_term, out_len),
            _toeplitz_oracle(kept_relay, out_len))


def _count_fft_rows(monkeypatch):
    """Patch ``np.fft.rfft`` to count the 2-D rows it transforms (the
    hashed rows; the diagonal is a 1-D call).  Returns the count list."""
    rows = []
    rfft = np.fft.rfft

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 2:
            rows.append(np.shape(a)[0])
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return rows


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
        assert_round_robin(t.rounds, 3)

    @pytest.mark.parametrize("m", [2.0, True, "3"])
    def test_rejects_non_integer_relay_count(self, m):
        with pytest.raises(ValueError):
            Transcript(m)

    def test_rejects_non_bit_payload(self):
        # A uint8 cast would log [0.7, 1.2] as the payload bits 01.
        t = Transcript(2)
        with pytest.raises(ValueError):
            t.append(relay_sender(0), [0.7, 1.2])
        assert t.rounds == []

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
        assert_round_robin(t.rounds, m)
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

    def test_zero_bit_round_is_logged(self):
        # Relay 1's Alice-side key is empty, so its XOR payload has no
        # bits; the round is logged all the same.
        inst = ideal_instance([(0, 3), (2, 2)])
        keys, transcript = agree_keys(model.sample(inst, 0), inst)
        xor_broadcast(keys, transcript)
        first = transcript.to_jsonl().splitlines()[0]
        assert json.loads(first) == {"l": 1, "sender": "relay-1", "bits": 0,
                                     "payload": ""}
        assert [r.payload.size for r in transcript.rounds] == [0, 2]


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
            w_a=[int_to_bits_oracle(0b1011, 4), np.zeros(2, np.uint8)],
            w_b=[int_to_bits_oracle(0b01, 2), np.zeros(2, np.uint8)],
            relay_w_a=[int_to_bits_oracle(0b1011, 4), np.zeros(2, np.uint8)],
            relay_w_b=[int_to_bits_oracle(0b01, 2), np.zeros(2, np.uint8)],
            n=1)
        payloads = xor_payloads(keys)
        np.testing.assert_array_equal(payloads[0], int_to_bits_oracle(0b11, 2))
        # Alice unmasks the smaller Bob-side key from the payload.
        np.testing.assert_array_equal(alice_common(keys, payloads)[0],
                                      int_to_bits_oracle(0b01, 2))
        np.testing.assert_array_equal(bob_common(keys, payloads)[0],
                                      int_to_bits_oracle(0b01, 2))

    def test_identical_keys_zero_payload(self):
        w = int_to_bits_oracle(0b101, 3)
        keys = PairwiseKeys(w_a=[w, w], w_b=[w, w], relay_w_a=[w, w],
                            relay_w_b=[w, w], n=1)
        for payload in xor_payloads(keys):
            assert not payload.any()

    def test_exhaustive_equal_length_reconstruction(self):
        # All 256 combinations of two 4-bit keys for one relay.
        for a_val, b_val in itertools.product(range(16), repeat=2):
            wa, wb = int_to_bits_oracle(a_val, 4), int_to_bits_oracle(b_val, 4)
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
        assert_round_robin(transcript.rounds, inst.m)


class TestReconcilePair:
    def test_identical_sequences(self):
        rng = np.random.Generator(np.random.PCG64(0))
        seq = rng.integers(0, 2, 7 * 10, dtype=np.uint8)
        res = reconcile_pair(seq, seq, 0.0)
        assert res.corrected_blocks == 0
        assert res.kept_mask.all()
        # each kept block's public bits leak one of its four kept bits
        assert res.dropped_bits == 10
        assert res.key_terminal.size == 30
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
        # the floor: at crossover 0 no flip is corrected, but the
        # syndrome and parity still leak one linear bit per kept block
        assert protocol.compression_drop_per_block(0) == 1

    @pytest.mark.parametrize("crossover", [0.7, 0.5000001, -0.1,
                                           float("nan"), "0.1", True])
    def test_rejects_crossover_outside_pair_source_range(self, crossover):
        with pytest.raises(ValueError):
            reconcile_pair([0] * 7, [0] * 7, crossover)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            reconcile_pair([0] * 7, [0] * 14, 0.1)
        with pytest.raises(ValueError):
            reconcile_pair([0] * 6, [0] * 6, 0.1)

    # Flips at positions 0, 2 and 4 have syndrome 1 ^ 3 ^ 5 = 7: the
    # terminal flips position 6 as well and keeps a block that still
    # differs from the relay's at positions 0, 2, 4 and 6, a codeword.
    WEIGHT_THREE = [1, 0, 1, 0, 1, 0, 0]
    # Few residuals against a long key: the relay's row is the only FFT
    # row.  Half the kept bits wrong: the residual is a second row of the
    # same call.
    FFT_ROWS = {(7000, 0.01): 1, (7000, 0.05): 1, (700, 0.5): 2,
                (7000, 0.5): 2}

    @pytest.mark.parametrize("n", [7, 700, 7000])
    @pytest.mark.parametrize("crossover", [0.01, 0.05, 0.1, 0.2, 0.5])
    def test_keys_equal_plain_block_oracle(self, n, crossover, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(int(n + 1000 * crossover)))
        relay = rng.integers(0, 2, n, dtype=np.uint8)
        flips = (rng.random(n) < crossover).astype(np.uint8)
        # Residuals on the first and the last raw bit: positions 2 of the
        # first block and 6 of the last.
        flips[:7] = flips[-7:] = self.WEIGHT_THREE
        term = relay ^ flips
        rows = _count_fft_rows(monkeypatch)
        res = reconcile_pair(term, relay, crossover)
        want_term, want_relay = _reconcile_oracle(term, relay, crossover)
        assert res.kept_mask[0] and res.kept_mask[-1]
        assert res.key_terminal.dtype == res.key_relay.dtype == np.uint8
        assert (res.key_terminal == want_term).all()
        assert (res.key_relay == want_relay).all()
        assert want_term.size == want_relay.size == res.key_relay.size > 0
        assert (want_term != want_relay).any()
        assert rows in ([1], [2])
        if (n, crossover) in self.FFT_ROWS:
            assert rows == [self.FFT_ROWS[n, crossover]]

    @pytest.mark.parametrize("k,out_len,flip_count,fft_rows", [
        (4000, 3000, 0, 1), (4000, 3000, 1, 1), (4000, 3000, 40, 1),
        (4000, 3000, 2000, 2), (4000, 1, 4000, 2), (8, 5, 3, 2),
        (1, 1, 1, 2), (1, 1, 0, 1), (3, 0, 2, 0)])
    def test_hash_pair_equals_oracle(self, k, out_len, flip_count, fft_rows,
                                     monkeypatch):
        rng = np.random.Generator(np.random.PCG64(k + out_len + flip_count))
        raw = rng.integers(0, 2, k, dtype=np.uint8)
        flips = np.zeros(k, dtype=np.uint8)
        inner = rng.permutation(np.arange(1, k - 1))
        flips[inner[:max(flip_count - 2, 0)]] = 1
        flips[[0, -1][:flip_count]] = 1   # the first and the last column
        assert flips.sum() == flip_count
        rows = _count_fft_rows(monkeypatch)
        key_term, key_relay = protocol._toeplitz_hash_pair(raw, flips,
                                                           out_len)
        assert sum(rows) == fft_rows
        assert key_term.shape == key_relay.shape == (out_len,)
        assert (key_term == _toeplitz_oracle(raw ^ flips, out_len)).all()
        assert (key_relay == _toeplitz_oracle(raw, out_len)).all()


# (k, out_len): empty input, one bit, more output than input, and
# convolution lengths out_len + k - 1 and inputs k one below, at and one
# above a power of two.
TOEPLITZ_GRID = [(0, 5), (1, 1), (3, 10), (9, 40), (8, 3)] + [
    case for p in (64, 1024) for d in (-1, 0, 1)
    for case in ((p + d, p // 2), (p // 2, p + d - p // 2 + 1),
                 (p + d, p + d))]


class TestToeplitzHash:
    @pytest.mark.parametrize("k,out_len", TOEPLITZ_GRID)
    def test_equals_dense_oracle(self, k, out_len, monkeypatch):
        # All-ones rows give the largest counts the rounding must
        # reproduce.  No flips hash one FFT row; all flips set hash the
        # flips as a second row.
        rng = np.random.Generator(np.random.PCG64(k * 7919 + out_len))
        raw = rng.integers(0, 2, k, dtype=np.uint8)
        ones, zeros = np.ones(k, np.uint8), np.zeros(k, np.uint8)
        rows = _count_fft_rows(monkeypatch)
        lengths = []
        irfft = np.fft.irfft

        def recording(spectrum, n):
            lengths.append(n)
            return irfft(spectrum, n)

        monkeypatch.setattr(np.fft, "irfft", recording)
        for bits, flips, fft_rows in ((ones, zeros, 1), (raw, ones, 2)):
            rows.clear()
            keys = protocol._toeplitz_hash_pair(bits, flips, out_len)
            assert rows == ([fft_rows] if k else [])
            for key, row in zip(keys, (bits ^ flips, bits)):
                assert key.dtype == np.uint8 and key.shape == (out_len,)
                assert (key == _toeplitz_oracle(row, out_len)).all()
        # each FFT length is the smallest power of two that holds the
        # out_len + k - 1 entries of the linear convolution
        span = out_len + k - 1
        assert len(lengths) == (2 if k else 0)
        assert all(n & (n - 1) == 0 and n >= span > n // 2 for n in lengths)

    def test_memory_linear_in_k(self):
        # A dense hash matrix would take about 10^6 * k bytes here.  Dense
        # flips make the two-row FFT, the larger of the two.
        k = 200_000
        raw, flips = np.random.Generator(np.random.PCG64(6)).integers(
            0, 2, (2, k), dtype=np.uint8)
        tracemalloc.start()
        try:
            protocol._toeplitz_hash_pair(raw, flips, 3 * k // 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * k

    def test_rounding_guard(self, monkeypatch):
        # One entry 0.3 away from an integer is enough: entry k - 1 of
        # the convolution is the first key bit.
        irfft = np.fft.irfft

        def nudged(*args, **kwargs):
            conv = irfft(*args, **kwargs)
            conv[..., 7] += 0.3
            return conv

        monkeypatch.setattr(np.fft, "irfft", nudged)
        with pytest.raises(InvariantViolation):
            protocol._toeplitz_hash_pair(np.ones(8, dtype=np.uint8),
                                         np.zeros(8, dtype=np.uint8), 4)

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
        assert_round_robin(transcript.rounds, inst.m)

    def test_short_block_fails(self):
        inst = dsbs_instance([0.1, 0.1], n=5)
        with pytest.raises(ReconciliationFailure):
            agree_keys(model.sample(inst, 0), inst)

    def test_every_block_discarded_fails(self):
        # Two flips in each of Alice's two blocks of pair 2: both fail
        # the parity check, no raw bit survives and the key is empty.
        inst = dsbs_instance([0.1, 0.1], n=14)
        real = model.sample(inst, 0)
        relay = real.x_relays[1][0]
        real.x_a[1] = relay ^ np.array([1, 1, 0, 0, 0, 0, 0,
                                        0, 0, 0, 1, 0, 0, 1], dtype=np.uint8)
        real.x_a[0][:] = real.x_relays[0][0]
        for i in range(2):
            real.x_b[i][:] = real.x_relays[i][1]
        with pytest.raises(ReconciliationFailure) as info:
            agree_keys(real, inst)
        assert info.value.pair_index == 1
        assert "no key bits survived" in str(info.value)

    def test_every_bob_block_discarded_fails(self):
        # Two flips in each of Bob's two blocks of pair 2, every other
        # side noiseless: Alice's side of pair 2 keeps its key, and the
        # empty Bob side alone fails the pair.
        inst = dsbs_instance([0.1, 0.1], n=14)
        real = model.sample(inst, 0)
        for i in range(2):
            real.x_a[i][:] = real.x_relays[i][0]
        real.x_b[0][:] = real.x_relays[0][1]
        real.x_b[1] = real.x_relays[1][1] ^ np.array(
            [0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0], dtype=np.uint8)
        with pytest.raises(ReconciliationFailure) as info:
            agree_keys(real, inst)
        assert info.value.pair_index == 1
        assert "no key bits survived" in str(info.value)

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


class TestAgreeKeysMixed:
    def test_ideal_and_noisy_pair(self):
        # Pair 1 ideal, pair 2 noisy with a different drop on each side
        # (1 bit per kept block at crossover 0.02, 2 at 0.15).
        inst = model.PinInstance(m=2, pairs=[
            model.PairSource.ideal_common(2, 3),
            model.PairSource.dsbs(0.02, 0.15)],
            params=model.ProtocolParams(n=70))
        real = model.sample(inst, 4)
        keys, transcript = agree_keys(real, inst)
        assert keys.w_a[0] is real.x_a[0]
        assert keys.w_b[0] is real.x_b[0]
        assert keys.relay_w_a[0] is real.x_relays[0][0]
        assert keys.relay_w_b[0] is real.x_relays[0][1]
        # Every round is pair 2's: relay syndrome, Alice's mask, relay
        # syndrome, Bob's mask.
        assert [r.sender for r in transcript.rounds] == [
            "relay-2", "alice", "relay-2", "bob"]
        assert_round_robin(transcript.rounds, inst.m)
        sides = [(real.x_a[1], real.x_relays[1][0], 0.02, keys.w_a[1],
                  keys.relay_w_a[1]),
                 (real.x_b[1], real.x_relays[1][1], 0.15, keys.w_b[1],
                  keys.relay_w_b[1])]
        for s, (term, relay, crossover, w, relay_w) in enumerate(sides):
            res = reconcile_pair(term, relay, crossover)
            syndrome, mask = transcript.rounds[2 * s:2 * s + 2]
            np.testing.assert_array_equal(syndrome.payload, res.syndrome_bits)
            np.testing.assert_array_equal(mask.payload, res.kept_mask)
            np.testing.assert_array_equal(w, res.key_terminal)
            np.testing.assert_array_equal(relay_w, res.key_relay)
