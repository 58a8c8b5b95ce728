import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pinkey import rates

i_lists = st.lists(st.floats(min_value=0.0, max_value=16.0,
                             allow_nan=False), min_size=2, max_size=8)


class TestCapacity:
    def test_equal_values(self):
        assert rates.capacity([1.0, 1.0]) == 1.0

    def test_three_relays(self):
        assert rates.capacity([0.5, 1.0, 2.0]) == 1.5

    def test_useless_relay(self):
        assert rates.capacity([0.0, 3.0]) == 0.0

    def test_rejects_single_relay(self):
        with pytest.raises(ValueError):
            rates.capacity([1.0])

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            rates.capacity([1.0, -0.5])
        with pytest.raises(ValueError):
            rates.capacity([1.0, math.inf])
        with pytest.raises(ValueError):
            rates.capacity([1.0, math.nan])

    @given(i_lists)
    def test_both_forms_agree(self, vals):
        assert abs(rates.capacity(vals)
                   - rates.capacity_order_stat(vals)) <= 1e-12

    @given(i_lists, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, vals, rnd):
        shuffled = vals[:]
        rnd.shuffle(shuffled)
        assert rates.capacity(shuffled) == pytest.approx(
            rates.capacity(vals), abs=1e-12)

    @given(i_lists, st.integers(min_value=0, max_value=7),
           st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
    def test_monotone_in_each_input(self, vals, idx, bump):
        idx %= len(vals)
        bumped = vals[:]
        bumped[idx] += bump
        assert rates.capacity(bumped) >= rates.capacity(vals) - 1e-12


class TestCapacityArray:
    def test_rows_equal_scalar_calls_exactly(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for m in (2, 3, 5, 8, 13):
            batch = rng.uniform(0.0, 16.0, (200, m))
            batch[::7] = batch[::7, :1]  # rows of equal values (ties)
            got = rates.capacity(batch)
            assert got.shape == (200,)
            assert got.tolist() == [rates.capacity(row.tolist())
                                    for row in batch]

    def test_matches_left_to_right_sum_minus_max(self):
        # Python >= 3.12 compensates the builtin sum(), so the reference
        # adds the values one at a time.
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(200):
            vals = rng.uniform(0.0, 1.0, int(rng.integers(2, 12))).tolist()
            total = 0.0
            for v in vals:
                total += v
            assert rates.capacity(vals) == total - max(vals)

    def test_leading_axes_kept(self):
        batch = np.arange(24, dtype=float).reshape(2, 3, 4)
        got = rates.capacity(batch)
        assert got.shape == (2, 3)
        assert got[1, 2] == rates.capacity([20.0, 21.0, 22.0, 23.0])

    def test_single_instance_is_python_float(self):
        assert type(rates.capacity(np.array([0.5, 1.0, 2.0]))) is float
        assert type(rates.capacity([0.5, 1.0, 2.0])) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_bad_entries(self, bad):
        batch = np.ones((5, 9))
        batch[3, 6] = bad
        with pytest.raises(ValueError):
            rates.capacity(batch)

    @pytest.mark.parametrize("shape", [(4, 1), (4, 0), (1,), ()])
    def test_rejects_fewer_than_two_relays(self, shape):
        with pytest.raises(ValueError):
            rates.capacity(np.ones(shape))


class TestConverseBound:
    def test_symmetric_two_relays(self):
        res = rates.converse_bound([(1.0, 1.0), (1.0, 1.0)])
        assert res.bound == 1.0
        assert res.per_m_cuts == [1.0, 1.0]

    def test_three_relay_cuts(self):
        res = rates.converse_bound([(0.5, 0.6), (1.0, 1.2), (2.0, 2.5)])
        assert res.per_m_cuts == pytest.approx([3.0, 2.5, 1.5], abs=1e-12)
        assert res.bound == pytest.approx(1.5, abs=1e-12)

    def test_partition_rule(self):
        # Alice set gets strictly larger Alice-side MIs; ties go to Bob.
        res = rates.converse_bound([(2.0, 1.0), (1.0, 2.0), (1.5, 1.5)])
        alice_set, bob_set = res.partitions[2]
        assert alice_set == [0]
        assert bob_set == [1]
        tie_alice, tie_bob = res.partitions[0]
        assert 2 in tie_bob and 2 not in tie_alice

    def test_tightness_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(123))
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            pair_mis = [(rng.uniform(0, 4), rng.uniform(0, 4))
                        for _ in range(m)]
            i_vals = [min(a, b) for a, b in pair_mis]
            assert abs(rates.converse_bound(pair_mis).bound
                       - rates.capacity(i_vals)) <= 1e-12


class TestXorBaseline:
    def test_single_pair(self):
        assert rates.xor_baseline_rate([1.0, 1.0]) == 1.0

    def test_listed_pairing(self):
        assert rates.xor_baseline_rate([0.5, 1.0, 2.0, 2.0]) == 2.5

    def test_odd_relay_contributes_zero(self):
        assert rates.xor_baseline_rate([1.0, 1.0, 1.0]) == 1.0
        assert rates.capacity([1.0, 1.0, 1.0]) == 2.0

    def test_order_sensitive(self):
        assert rates.xor_baseline_rate([0.0, 1.0, 1.0, 0.0]) == 0.0
        assert rates.xor_baseline_rate([1.0, 1.0, 0.0, 0.0]) == 1.0

    @given(i_lists)
    def test_never_exceeds_capacity(self, vals):
        assert rates.xor_baseline_rate(vals) <= rates.capacity(vals) + 1e-12


class TestRateReport:
    def test_fields_consistent(self):
        rep = rates.rate_report([(0.5, 0.7), (1.0, 1.4), (2.0, 2.0)])
        assert rep.i_per_relay == [0.5, 1.0, 2.0]
        assert rep.i_sorted == [0.5, 1.0, 2.0]
        assert rep.capacity == rep.converse == 1.5
        assert rep.argmax_relay == 2
        assert 0.0 <= rep.xor_rate <= rep.capacity
        doc = rep.to_dict()
        assert doc["capacity"] == 1.5
