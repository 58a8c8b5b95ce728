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


@pytest.mark.parametrize("func", [rates.capacity, rates.capacity_order_stat,
                                  rates.xor_baseline_rate])
class TestRealInputsOnly:
    @pytest.mark.parametrize("bad", [
        ["3", "1"], [True, 2.0, 1.0], [1.0, None], [1.0, 2.0 + 0j],
        np.array(["3", "1"]), np.array([True, False, True]),
        np.array([1.0, 2.0], dtype=object)])
    def test_rejects_non_numbers(self, func, bad):
        with pytest.raises(ValueError):
            func(bad)

    def test_ints_read_as_floats(self, func):
        want = func([1.0, 2.0, 3.0])
        assert func([1, 2, 3]) == func(np.array([1, 2, 3])) == want
        assert func(np.array([1, 2, 3], dtype=np.uint8)) == want


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

    def test_tightness_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(123))
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            pair_mis = [(rng.uniform(0, 4), rng.uniform(0, 4))
                        for _ in range(m)]
            i_vals = [min(a, b) for a, b in pair_mis]
            assert abs(rates.converse_bound(pair_mis).bound
                       - rates.capacity(i_vals)) <= 1e-12


class TestConverseArray:
    def test_rows_equal_one_instance_calls_exactly(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for m in range(2, 14):
            batch = rng.uniform(0.0, 4.0, (100, m, 2))
            batch[::5, :, 1] = batch[::5, :1, 0]  # ties, within and across
            got = rates.converse_bound(batch)
            assert got.bound.shape == (100,)
            assert got.per_m_cuts.shape == (100, m)
            for row, bound, cuts in zip(batch, got.bound, got.per_m_cuts):
                one = rates.converse_bound(row.tolist())
                assert bound == one.bound
                assert cuts.tolist() == one.per_m_cuts
                i_vals = [min(a, b) for a, b in row.tolist()]
                total = 0.0
                for v in i_vals:
                    total += v
                assert one.per_m_cuts == [total - v for v in i_vals]

    def test_bound_equals_capacity_exactly(self):
        rng = np.random.Generator(np.random.PCG64(10))
        for m in (2, 7, 13):
            batch = rng.uniform(0.0, 1e6, (500, m, 2))
            i_vals = np.minimum(batch[..., 0], batch[..., 1])
            assert (rates.converse_bound(batch).bound
                    == rates.capacity(i_vals)).all()

    def test_zero_padded_relays_change_nothing(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for m in range(2, 9):
            pairs = rng.uniform(0.0, 4.0, (m, 2))
            padded = np.zeros((m + 3, 2))
            padded[:m] = pairs
            i_vals = np.minimum(pairs[:, 0], pairs[:, 1])
            i_padded = np.minimum(padded[:, 0], padded[:, 1])
            assert rates.capacity(i_padded) == rates.capacity(i_vals)
            assert (rates.converse_bound(padded).bound
                    == rates.converse_bound(pairs).bound)

    def test_one_instance_gives_float_and_list(self):
        for source in ([(0.5, 0.6), (1.0, 1.2)],
                       np.array([[0.5, 0.6], [1.0, 1.2]])):
            res = rates.converse_bound(source)
            assert type(res.bound) is float
            assert type(res.per_m_cuts) is list
            assert all(type(c) is float for c in res.per_m_cuts)

    def test_leading_axes_kept(self):
        res = rates.converse_bound(np.ones((2, 3, 4, 2)))
        assert res.bound.shape == (2, 3)
        assert res.per_m_cuts.shape == (2, 3, 4)

    @pytest.mark.parametrize("bad", [math.nan, -0.5])
    def test_rejects_bad_entries(self, bad):
        batch = np.ones((5, 3, 2))
        batch[2, 1, 0] = bad
        with pytest.raises(ValueError):
            rates.converse_bound(batch)

    @pytest.mark.parametrize("shape", [(4, 1, 2), (4, 3, 3), (2,), ()])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ValueError):
            rates.converse_bound(np.ones(shape))

    @pytest.mark.parametrize("func", [rates.converse_bound,
                                      rates.rate_report])
    @pytest.mark.parametrize("bad", [
        [("1", 1.0), (1.0, 1.0)], [(True, 1.0), (1.0, 1.0)],
        [(1.0, 1.0), (1.0, b"1")], np.array([["1", "1"], ["1", "1"]]),
        np.ones((2, 2), dtype=bool)])
    def test_rejects_non_numbers(self, func, bad):
        with pytest.raises(ValueError):
            func(bad)


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

    @pytest.mark.parametrize("shape", [(2, 2, 2), (3,)])
    def test_takes_one_instance_only(self, shape):
        with pytest.raises(ValueError):
            rates.rate_report(np.ones(shape))
