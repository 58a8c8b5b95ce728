import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

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

    # Finite values whose sum overflows gave inf, and inf minus the
    # converse's inf a NaN gap.
    def test_rejects_overflowing_total(self):
        with pytest.raises(ValueError, match="overflows"):
            rates.capacity([1.0, 1e308, 1e308])
        batch = np.ones((4, 3))
        batch[2] = [1.0, 1e308, 1e308]
        with pytest.raises(ValueError, match="overflows"):
            rates.capacity(batch)


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


def _max_flow_without(pairs, m):
    """A-B max-flow of the A-relay-B graph with relay m removed: node 0 is
    Alice, node 1 Bob, node 2 + i relay i, every edge both ways with the
    pair MI as its capacity."""
    rows, cols, caps = [], [], []
    for i, (i_a, i_b) in enumerate(pairs):
        if i != m:
            for u, v, c in ((0, 2 + i, i_a), (2 + i, 1, i_b)):
                rows += [u, v]
                cols += [v, u]
                caps += [c, c]
    nodes = 2 + len(pairs)
    graph = csr_matrix((np.array(caps, dtype=np.int32), (rows, cols)),
                       shape=(nodes, nodes))
    return maximum_flow(graph, 0, 1).flow_value


class TestConverseMaxFlowOracle:
    def test_cuts_equal_max_flow_without_each_relay(self):
        # Giving relay m's sources to Eve leaves the network without
        # relay m, whose min cut bounds the key; integer MIs make every
        # float sum exact, so the comparison is exact.
        rng = np.random.Generator(np.random.PCG64(2015))
        for _ in range(300):
            m = int(rng.integers(2, 7))
            pairs = rng.integers(0, 1000, size=(m, 2)).tolist()
            flows = [_max_flow_without(pairs, k) for k in range(m)]
            res = rates.converse_bound(pairs)
            assert res.per_m_cuts == flows
            assert res.bound == min(flows)


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

    def test_rejects_overflowing_total(self):
        pairs = [[1.0, 2.0], [1e308, 1e308], [1e308, 1e308]]
        with pytest.raises(ValueError, match="overflows"):
            rates.converse_bound(pairs)
        with pytest.raises(ValueError, match="overflows"):
            rates.converse_bound(np.array([pairs, np.ones((3, 2))]))
        with pytest.raises(ValueError, match="overflows"):
            rates.rate_report(pairs)

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

    def test_odd_relay_contributes_zero(self):
        assert rates.xor_baseline_rate([1.0, 1.0, 1.0]) == 1.0
        assert rates.capacity([1.0, 1.0, 1.0]) == 2.0

    def test_best_pairing_in_any_order(self):
        # The listed pairs (3, 0.1), (2.9, 0.2) would give 0.3; the best
        # pairs (3, 2.9), (0.2, 0.1) give 3.0, below the capacity 3.2.
        for vals in ([3.0, 0.1, 2.9, 0.2], [0.1, 0.2, 2.9, 3.0],
                     [2.9, 3.0, 0.1, 0.2]):
            assert rates.xor_baseline_rate(vals) == 3.0
        assert rates.capacity([3.0, 0.1, 2.9, 0.2]) == pytest.approx(3.2)
        assert rates.xor_baseline_rate([0.0, 1.0, 1.0, 0.0]) == 1.0
        assert rates.xor_baseline_rate([1.0, 1.0, 0.0, 0.0]) == 1.0
        # Listed pairs (0.5, 2.0), (1.0, 2.0) would give 1.5; the best
        # pairs (2.0, 2.0), (1.0, 0.5) give 2.5.
        assert rates.xor_baseline_rate([0.5, 2.0, 1.0, 2.0]) == 2.5

    def test_rejects_overflowing_sum(self):
        # Each pair minimum is finite; their sum is not.
        with pytest.raises(ValueError, match="overflows"):
            rates.xor_baseline_rate([1e308] * 4)
        assert rates.xor_baseline_rate([1e308] * 3) == 1e308

    @given(i_lists)
    def test_never_exceeds_capacity(self, vals):
        assert rates.xor_baseline_rate(vals) <= rates.capacity(vals) + 1e-12

    def test_rows_equal_sorted_loop_exactly(self):
        # _xor_pairs on a (K, M) array gives each row the float of a plain
        # loop over its values in descending order, adding the second of
        # each pair; xor_baseline_rate gives the same array, and a Python
        # float for one row.
        rng = np.random.Generator(np.random.PCG64(9))
        for m in (2, 3, 4, 7, 10):
            batch = rng.uniform(0.0, 16.0, (200, m))
            batch[::5] = batch[::5, :1]  # rows of equal values (ties)
            want = []
            for row in batch.tolist():
                desc = sorted(row, reverse=True)
                total = 0.0
                for j in range(1, m, 2):
                    total += desc[j]
                want.append(total)
            assert rates._xor_pairs(batch).tolist() == want
            assert rates.xor_baseline_rate(batch).tolist() == want
            got = [rates.xor_baseline_rate(row) for row in batch]
            assert got == want
            assert all(type(x) is float for x in got)


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
