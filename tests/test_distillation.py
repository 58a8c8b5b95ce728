import itertools

import numpy as np
import pytest

from pinkey.distillation import (KeyIndex, RbCodebook, build_codebook,
                                 distill, invert, xor_distill)
from pinkey.errors import BudgetExceeded

from helpers import int_to_bits_oracle


class TestBuildCodebook:
    def test_sizes(self):
        cb = build_codebook([2, 2, 2], 4, seed=0)
        assert cb.num_bins == 16
        assert cb.bin_size == 4
        assert cb.total_bits == 6

    def test_partition_is_valid(self):
        cb = build_codebook([2, 3], 3, seed=5)
        bins = [set() for _ in range(cb.num_bins)]
        for flat in range(1 << cb.total_bits):
            idx = distill(cb, cb.messages_from_flat(flat))
            bins[idx.k].add(flat)
        assert all(len(b) == cb.bin_size for b in bins)
        union = set().union(*bins)
        assert len(union) == 1 << cb.total_bits

    def test_two_bins_of_two_has_three_partitions(self):
        # 1-bit messages, 1-bit key: only 3 distinct unordered partitions
        # of the 4-element space exist, and all appear across seeds.
        seen = set()
        for seed in range(60):
            cb = build_codebook([1, 1], 1, seed=seed)
            bin0 = frozenset(int(w) for w in range(4)
                             if distill(cb, cb.messages_from_flat(w)).k == 0)
            seen.add(frozenset((bin0, frozenset(range(4)) - bin0)))
        assert len(seen) == 3

    def test_zero_key_bits_degenerate(self):
        cb = build_codebook([2, 2], 0, seed=1)
        keys = {distill(cb, (a, b)).k for a in range(4) for b in range(4)}
        assert keys == {0}

    def test_seed_reproducibility(self):
        a = build_codebook([3, 3], 2, seed=77)
        b = build_codebook([3, 3], 2, seed=77)
        np.testing.assert_array_equal(a.position, b.position)
        c = build_codebook([3, 3], 2, seed=78)
        assert not np.array_equal(a.position, c.position)

    def test_rejects_oversized_key(self):
        with pytest.raises(ValueError):
            build_codebook([1, 1], 3, seed=0)

    def test_rejects_over_budget(self):
        with pytest.raises(BudgetExceeded):
            build_codebook([13, 13], 4, seed=0)

    def test_one_bit_over_budget_draws_nothing(self, monkeypatch):
        # 2^25 codewords, one bit past the budget: the check must come
        # before the permutation, which would take 256 MiB.
        def forbidden(*args, **kwargs):
            raise AssertionError("an over-budget codebook drew a permutation")

        monkeypatch.setattr(np.random, "Generator", forbidden)
        with pytest.raises(BudgetExceeded):
            build_codebook([13, 12], 0, 0)

    @pytest.mark.parametrize("widths,key_bits", [
        ([2.5, 1], 1), ([2.0, 1], 1), ([True, 1], 1), (["2", 1], 1),
        ([2, 1], 1.5), ([2, 1], 1.0), ([2, 1], True), ([2, 1], None)])
    def test_rejects_non_integer_widths(self, widths, key_bits):
        with pytest.raises(ValueError):
            build_codebook(widths, key_bits, seed=0)
        with pytest.raises(ValueError):
            RbCodebook(widths, key_bits, np.arange(8))

    def test_accepts_numpy_integer_widths(self):
        cb = build_codebook([np.int64(2), np.uint8(1)], np.int32(1), seed=0)
        assert cb.message_bits == [2, 1] and cb.key_bits == 1
        assert all(type(b) is int for b in cb.message_bits)
        assert type(cb.key_bits) is int

    @pytest.mark.parametrize("position", [
        [0, 0, 1, 2],           # a duplicate entry
        [0, 1, 2, 4],           # a value equal to total
        [0, 1, 2, -1],          # negative: the scatter would still fill
        [0, 1, 2],              # too short
        [0, 1, 2, 3, 0],        # too long
        [[0, 1], [2, 3]],       # 2-D, of the right size
    ], ids=["duplicate", "total", "negative", "short", "long", "2d"])
    def test_rejects_non_permutation(self, position):
        with pytest.raises(ValueError):
            RbCodebook([1, 1], 1, np.array(position))

    @pytest.mark.parametrize("position", [
        np.array([0.5, 1.2, 2.9, 3.7]),      # read as [0 1 2 3] by a cast
        np.array([0.0, 1.0, 2.0, 3.0]),
        np.array([True, False, True, False]),
        [True, False, 2, 3],                 # read as [1 0 2 3] by a cast
        [0, 1, 2, 3.0],
        [0, 1, 2, "3"],
        np.array([0, 1, 2, 3], dtype=object),
    ], ids=["float_array", "integral_float_array", "bool_array",
            "bool_entries", "float_entry", "text_entry", "object_array"])
    def test_rejects_non_integer_position(self, position):
        with pytest.raises(ValueError, match="must be integers"):
            RbCodebook([1, 1], 1, position)

    @pytest.mark.parametrize("position", [
        [0, 1, 3, 2], [np.int64(0), np.uint8(1), 3, 2],
        np.array([0, 1, 3, 2], dtype=np.uint8),
        np.array([0, 1, 3, 2], dtype=np.int32)])
    def test_accepts_integer_position(self, position):
        cb = RbCodebook([1, 1], 1, position)
        assert cb.position.dtype == np.int64
        assert cb.position.tolist() == [0, 1, 3, 2]

    def test_inverse_is_argsort(self):
        for seed, widths in enumerate([[0], [1], [2, 3], [4, 0, 4],
                                       [5, 5, 5, 5]]):
            cb = build_codebook(widths, sum(widths) // 2, seed=seed)
            assert cb.position.dtype == np.int64
            assert cb.inverse.dtype == np.int32
            np.testing.assert_array_equal(cb.inverse,
                                          np.argsort(cb.position))

    def test_key_of_all_is_lazy_cached_and_narrow(self):
        for key_bits, dtype in ((0, np.uint8), (8, np.uint8),
                                (9, np.uint16), (16, np.uint16),
                                (17, np.uint32), (20, np.uint32)):
            cb = build_codebook([10, 10], key_bits, seed=key_bits)
            assert "key_of_all" not in vars(cb)
            key = cb.key_of_all
            assert key.dtype == dtype
            np.testing.assert_array_equal(key, cb.position >> cb.bin_bits)
            assert cb.key_of_all is key
            assert not key.flags.writeable


class TestDistill:
    def test_round_trip_bijection(self):
        cb = build_codebook([2, 2, 1], 3, seed=3)
        for flat in range(1 << cb.total_bits):
            msgs = cb.messages_from_flat(flat)
            assert invert(cb, distill(cb, msgs)) == msgs

    def test_parity_partition_key(self):
        cb = RbCodebook([1, 1], 1, np.array([0, 2, 3, 1]))
        for w1, w2 in itertools.product(range(2), repeat=2):
            assert distill(cb, (w1, w2)).k == w1 ^ w2

    def test_uniform_input_gives_uniform_key(self):
        cb = build_codebook([2, 2], 2, seed=8)
        counts = np.zeros(cb.num_bins, dtype=int)
        for a in range(4):
            for b in range(4):
                counts[distill(cb, (a, b)).k] += 1
        assert (counts == cb.bin_size).all()

    def test_out_of_range_message_is_hard_error(self):
        cb = build_codebook([1, 1], 1, seed=0)
        with pytest.raises(ValueError):
            distill(cb, (2, 0))
        with pytest.raises(ValueError):
            distill(cb, (0,))

    def test_invert_rejects_bad_index(self):
        cb = build_codebook([1, 1], 1, seed=0)
        with pytest.raises(ValueError):
            invert(cb, KeyIndex(k=2, k_tilde=0))

    @pytest.mark.parametrize("messages", [(1.7, 0), ("1", 0), (True, 0),
                                          (1.0, 0), (0, None)])
    def test_rejects_non_integer_message(self, messages):
        # A cast would read each of these as message 1 or 0.
        cb = build_codebook([1, 1], 1, seed=0)
        with pytest.raises(ValueError):
            distill(cb, messages)

    def test_accepts_numpy_integer_messages(self):
        cb = build_codebook([2, 3], 2, seed=6)
        assert (distill(cb, (np.int64(3), np.uint8(5)))
                == distill(cb, (3, 5)))

    @pytest.mark.parametrize("index", [KeyIndex(1.5, 0), KeyIndex(1.0, 0),
                                       KeyIndex(0, 0.5), KeyIndex(True, 0),
                                       KeyIndex("1", 0)])
    def test_invert_rejects_non_integer_index(self, index):
        cb = build_codebook([1, 1], 1, seed=0)
        with pytest.raises(ValueError):
            invert(cb, index)


class TestLayout:
    @pytest.mark.parametrize("widths", [[0], [1], [2, 3], [4, 0, 4],
                                        [1, 2, 3, 1]])
    def test_flat_index_is_concatenated_bits(self, widths):
        # Row-major over shape: the flat index is the messages' bits
        # written one after another, the first message most significant.
        cb = build_codebook(widths, 0, seed=0)
        assert cb.shape == tuple(2 ** b for b in widths)
        for msgs in itertools.product(*(range(2 ** b) for b in widths)):
            text = "".join(format(w, f"0{b}b") if b else ""
                           for w, b in zip(msgs, widths))
            flat = int(text or "0", 2)
            assert cb.flat_index(msgs) == flat
            assert cb.messages_from_flat(flat) == msgs
            assert all(type(w) is int for w in cb.messages_from_flat(flat))

    def test_rejects_negative_width(self):
        # Widths [3, -1] add up to a 2-bit space of 4 codewords; such a
        # codebook would then fail in distill with a negative shift.
        with pytest.raises(ValueError, match=">= 0"):
            RbCodebook([3, -1], 1, np.arange(4))

    def test_width_check_precedes_budget(self):
        # A bad width or key length is a ValueError even past the budget.
        with pytest.raises(ValueError):
            build_codebook([20, 20, -1], 1, seed=0)
        with pytest.raises(ValueError):
            build_codebook([13, 13], 27, seed=0)


class TestXorDistill:
    def test_bitwise_xor(self):
        key = xor_distill([int_to_bits_oracle(0b1010, 4),
                           int_to_bits_oracle(0b0110, 4)])
        np.testing.assert_array_equal(key, int_to_bits_oracle(0b1100, 4))

    def test_four_one_bit_messages(self):
        key = xor_distill([np.array([a]) for a in (1, 0, 1, 1)])
        np.testing.assert_array_equal(key, [1, 0])

    def test_odd_count_drops_last(self):
        key = xor_distill([np.array([1, 1]), np.array([0, 1]),
                           np.array([1, 0])])
        np.testing.assert_array_equal(key, [1, 0])

    def test_truncates_to_shorter(self):
        key = xor_distill([np.array([1, 0, 1]), np.array([1])])
        np.testing.assert_array_equal(key, [0])

    def test_rejects_single_message(self):
        with pytest.raises(ValueError):
            xor_distill([np.array([1])])

    def test_rate_gap_matches_structure(self):
        # Four equal 1-bit messages: XOR key has floor(M/2)=2 bits while
        # the binning key budget is M-1=3 bits.
        msgs = [np.array([1]), np.array([0]), np.array([0]), np.array([1])]
        assert xor_distill(msgs).size == 2
        cb = build_codebook([1, 1, 1, 1], 3, seed=0)
        assert cb.key_bits == 3
