import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from pinkey import wireless
from pinkey.errors import BudgetExceeded
from pinkey.wireless import (AllocationResult, WirelessConfig, key_rate,
                             mc_estimate_check, multiplexing_gain_sweep,
                             optimize_allocation, pairwise_rate,
                             uniform_config)


def _compositions(total, parts):
    """All ways to split total into `parts` positive integers."""
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[j + 1] - bounds[j] for j in range(parts))


def _exhaustive_oracle(m, block_len, power, noise_var, channel_vars):
    """Reference search: one validated config and one key_rate call per
    composition, the first strict maximum wins."""
    best, best_rate = None, -1.0
    for alloc in _compositions(block_len, m + 2):
        cfg = WirelessConfig(m=m, power=power, noise_var=noise_var,
                             channel_vars=channel_vars, block_len=block_len,
                             allocation=alloc)
        r = key_rate(cfg).r_key
        if r > best_rate:
            best, best_rate = alloc, r
    return AllocationResult(best, best_rate, "exhaustive")


class TestPairwiseRate:
    def test_direct_substitution(self):
        assert pairwise_rate(1, 1, 1.0, 1.0, 1.0) == pytest.approx(
            0.5 * math.log2(1.0 + 1.0 / 3.0))

    def test_vanishing_power(self):
        assert pairwise_rate(1, 1, 1e-12, 1.0, 1.0) < 1e-11

    def test_high_power_slope_is_half(self):
        # Doubling P twice (x4) adds about 0.5*log2(4) = 1 bit.
        gain = (pairwise_rate(1, 1, 4e6, 1.0, 1.0)
                - pairwise_rate(1, 1, 1e6, 1.0, 1.0))
        assert gain == pytest.approx(1.0, abs=1e-3)

    def test_rejects_nonpositive(self):
        for args in [(0, 1, 1, 1, 1), (1, 1, 0, 1, 1), (1, 1, 1, 0, 1),
                     (1, 1, 1, 1, 0)]:
            with pytest.raises(ValueError):
                pairwise_rate(*args)

    def test_partial_derivative_signs(self):
        # Strictly increasing in slots, power and channel variance;
        # strictly decreasing in noise, at 100 random points.
        rng = np.random.Generator(np.random.PCG64(10))
        for _ in range(100):
            t_i = int(rng.integers(1, 6))
            t_a = int(rng.integers(1, 6))
            p = float(rng.uniform(0.2, 8.0))
            d = float(rng.uniform(0.2, 4.0))
            v = float(rng.uniform(0.2, 4.0))
            base = pairwise_rate(t_i, t_a, p, d, v)
            assert pairwise_rate(t_i + 1, t_a, p, d, v) > base
            assert pairwise_rate(t_i, t_a + 1, p, d, v) > base
            assert pairwise_rate(t_i, t_a, p * 1.01, d, v) > base
            assert pairwise_rate(t_i, t_a, p, d, v * 1.01) > base
            assert pairwise_rate(t_i, t_a, p, d * 1.01, v) < base


class TestConfigValidation:
    def test_allocation_must_sum(self):
        with pytest.raises(ValueError):
            WirelessConfig(m=2, power=1.0, noise_var=1.0,
                           channel_vars=[(1, 1), (1, 1)], block_len=9,
                           allocation=(2, 2, 2, 2))

    def test_every_slot_nonempty(self):
        with pytest.raises(ValueError):
            WirelessConfig(m=2, power=1.0, noise_var=1.0,
                           channel_vars=[(1, 1), (1, 1)], block_len=6,
                           allocation=(0, 2, 2, 2))

    def test_rejects_single_relay(self):
        with pytest.raises(ValueError):
            WirelessConfig(m=1, power=1.0, noise_var=1.0,
                           channel_vars=[(1, 1)], block_len=3,
                           allocation=(1, 1, 1))

    @pytest.mark.parametrize("allocation,channel_vars", [
        ((2.9, 2, 2, 2), [(1, 1), (1, 1)]),
        ((2.0, 2, 2, 2), [(1, 1), (1, 1)]),
        ((True, 1, 3, 3), [(1, 1), (1, 1)]),
        (("2", 2, 2, 2), [(1, 1), (1, 1)]),
        ((2, 2, 2, 2), [("1", 1), (1, 1)]),
        ((2, 2, 2, 2), [(1, 1), (1.0, True)]),
        ((2, 2, 2, 2), [(1, 1), (1.0, None)])])
    def test_rejects_unconverted_values(self, allocation, channel_vars):
        with pytest.raises(ValueError):
            WirelessConfig(m=2, power=1.0, noise_var=1.0,
                           channel_vars=channel_vars, block_len=8,
                           allocation=allocation)

    def test_accepted_numbers_normalized(self):
        cfg = WirelessConfig(m=2, power=1.0, noise_var=1.0,
                             channel_vars=[(1, np.float32(0.5)), (2, 3)],
                             block_len=8,
                             allocation=(np.int64(2), 2, 2, np.uint8(2)))
        assert cfg.channel_vars == ((1.0, 0.5), (2.0, 3.0))
        assert all(type(v) is float for pair in cfg.channel_vars
                   for v in pair)
        assert all(type(t) is int for t in cfg.allocation)


class TestKeyRate:
    def test_symmetric_three_relays(self):
        cfg = uniform_config(3)
        report = key_rate(cfg)
        i_g = report.i_g[0]
        assert report.i_g == [i_g] * 3
        assert report.r_key == pytest.approx(2 * i_g / cfg.block_len)

    def test_two_capacity_forms_agree(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(50):
            m = int(rng.integers(2, 6))
            cfg = WirelessConfig(
                m=m, power=float(rng.uniform(0.5, 4)),
                noise_var=float(rng.uniform(0.5, 2)),
                channel_vars=[(rng.uniform(0.5, 2), rng.uniform(0.5, 2))
                              for _ in range(m)],
                block_len=2 * (m + 2),
                allocation=[2] * (m + 2))
            report = key_rate(cfg)
            alt = sum(sorted(report.i_g)[:-1]) / cfg.block_len
            assert abs(report.r_key - alt) <= 1e-12
            assert report.xor_r_key <= report.r_key + 1e-12

    def test_optimized_dominates_uniform(self):
        channel_vars = [(2.0, 0.5), (0.7, 1.5), (1.0, 1.0)]
        opt = optimize_allocation(3, 15, 2.0, 1.0, channel_vars)
        uniform = WirelessConfig(m=3, power=2.0, noise_var=1.0,
                                 channel_vars=channel_vars, block_len=15,
                                 allocation=[3] * 5)
        assert opt.r_key >= key_rate(uniform).r_key - 1e-12


class TestOptimizeAllocation:
    def test_symmetric_uniform_is_optimal(self):
        opt = optimize_allocation(2, 12, 1.0, 1.0, [(1, 1), (1, 1)])
        assert opt.method == "exhaustive"
        uniform = WirelessConfig(m=2, power=1.0, noise_var=1.0,
                                 channel_vars=[(1, 1), (1, 1)],
                                 block_len=12, allocation=[3, 3, 3, 3])
        assert opt.r_key == pytest.approx(key_rate(uniform).r_key, abs=1e-12)

    def test_composition_count(self):
        for m, block_len in [(2, 4), (2, 11), (3, 13), (4, 20), (5, 14),
                             (2, 257), (2, 258)]:
            rel, budget = wireless._relay_compositions(m, block_len)
            assert rel.dtype == budget.dtype == (
                np.uint8 if block_len <= 257 else np.uint16)
            assert rel.shape == (m, math.comb(block_len - 2, m))
            start = 0
            for r in range(block_len - 2, m - 1, -1):
                want = list(_compositions(r, m))
                stop = start + len(want)
                assert [tuple(c) for c in rel[:, start:stop].T.tolist()] \
                    == want
                assert (budget[start:stop] == r).all()
                start = stop
            assert start == rel.shape[1] == budget.size

    def test_budgets_wider_than_one_byte(self):
        # T=258 puts relay budgets up to 256 in two-byte slot counts.  The
        # allocation is the one a cut-point enumeration of all 2,796,160
        # compositions picks.
        channel_vars = [(0.7, 1.3), (1.9, 0.6)]
        got = optimize_allocation(2, 258, 5.0, 1.0, channel_vars)
        assert got.allocation == (59, 68, 60, 71)
        cfg = WirelessConfig(m=2, power=5.0, noise_var=1.0,
                             channel_vars=channel_vars, block_len=258,
                             allocation=got.allocation)
        assert got.r_key == key_rate(cfg).r_key

    def test_rate_table_mirror_equals_full_fill(self):
        m, block_len, power, noise_var = 3, 17, 7.3, 0.6
        channel_vars = ((0.3, 2.9), (1.7, 0.45), (3.1, 1.1))
        tab = wireless._rate_table(m, block_len, power, noise_var,
                                   channel_vars)
        longest = block_len - m - 1
        full = np.zeros_like(tab)
        for i, sides in enumerate(channel_vars):
            for side, var in enumerate(sides):
                for t_i in range(1, longest + 1):
                    for t_alpha in range(1, longest + 1):
                        full[i, side, t_i, t_alpha] = pairwise_rate(
                            t_i, t_alpha, power, noise_var, var)
        assert (tab == full).all()

    @pytest.mark.parametrize("case", range(30))
    def test_matches_reference_search(self, case):
        rng = np.random.Generator(np.random.PCG64(1000 + case))
        m = 5 if case >= 24 else int(rng.integers(2, 5))
        block_len = int(rng.integers(m + 2, 17))
        power = float(10.0 ** rng.uniform(-9, 9)) if case % 3 == 0 \
            else float(rng.uniform(0.2, 20.0))
        noise_var = float(rng.uniform(0.2, 4.0))
        if case % 4 == 0:  # all-equal variances: many tied allocations
            channel_vars = [(1.3, 1.3)] * m
        else:
            channel_vars = [(float(rng.uniform(0.05, 4.0)),
                             float(rng.uniform(0.05, 4.0)))
                            for _ in range(m)]
        got = optimize_allocation(m, block_len, power, noise_var,
                                  channel_vars)
        want = _exhaustive_oracle(m, block_len, power, noise_var,
                                  channel_vars)
        assert got.allocation == want.allocation
        assert got.r_key == want.r_key
        assert got.method == want.method == "exhaustive"
        assert type(got.r_key) is float
        assert all(type(t) is int for t in got.allocation)

    @pytest.mark.parametrize("power", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_matches_reference_at_extreme_symmetric_powers(self, power):
        channel_vars = [(1.0, 1.0)] * 3
        got = optimize_allocation(3, 12, power, 1.0, channel_vars)
        want = _exhaustive_oracle(3, 12, power, 1.0, channel_vars)
        assert (got.allocation, got.r_key, got.method) == \
            (want.allocation, want.r_key, want.method)

    def test_search_spans_several_chunks(self):
        # M=4, T=20: 27,132 allocations in 15 Alice-slot blocks; the
        # first block (3,060 rows) takes two chunks of up to 2048 rows.
        channel_vars = [(0.6, 1.8), (1.1, 0.9), (2.0, 0.7), (0.8, 0.8)]
        got = optimize_allocation(4, 20, 3.0, 1.0, channel_vars)
        want = _exhaustive_oracle(4, 20, 3.0, 1.0, channel_vars)
        assert (got.allocation, got.r_key) == (want.allocation, want.r_key)

    def test_ties_across_chunks_keep_first(self, monkeypatch):
        # All-equal variances tie many allocations, across Alice-slot
        # blocks and across chunks of 7 rows.
        monkeypatch.setattr(wireless, "_SCORE_CHUNK", 7)
        for m, block_len in [(3, 13), (4, 12), (2, 15)]:
            channel_vars = [(0.9, 0.9)] * m
            got = optimize_allocation(m, block_len, 2.0, 1.0, channel_vars)
            want = _exhaustive_oracle(m, block_len, 2.0, 1.0, channel_vars)
            assert (got.allocation, got.r_key) == \
                (want.allocation, want.r_key)

    @pytest.mark.parametrize("block_len, limit_mib", [(30, 1.5), (50, 6.0)])
    def test_working_memory(self, block_len, limit_mib):
        channel_vars = [(0.6, 1.8), (1.1, 0.9), (2.0, 0.7), (0.8, 0.8)]
        tracemalloc.start()
        try:
            optimize_allocation(4, block_len, 10.0, 1.0, channel_vars)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * (1 << 20)

    @pytest.mark.parametrize("power, noise_var, channel_vars", [
        (0.0, 1.0, [(1, 1), (1, 1)]),
        (-1.0, 1.0, [(1, 1), (1, 1)]),
        (1.0, 0.0, [(1, 1), (1, 1)]),
        (1.0, 1.0, [(1, 0), (1, 1)]),
        (1.0, 1.0, [(1, 1), (-2, 1)]),
        (math.nan, 1.0, [(1, 1), (1, 1)]),
        (1.0, 1.0, [(1, 1), (1, math.inf)]),
        (1.0, 1.0, [(1, 1)]),
        (1.0, 1.0, [(1, 1), ("1", 1)]),
        (1.0, 1.0, [(True, 1), (1, 1)]),
    ])
    def test_exhaustive_rejects_bad_inputs(self, power, noise_var,
                                           channel_vars):
        with pytest.raises(ValueError):
            optimize_allocation(2, 8, power, noise_var, channel_vars)

    def test_feeds_bottleneck_channel(self):
        # The strongest relay is excluded from the key rate, so slots go
        # to the weak bottleneck relay instead.
        opt = optimize_allocation(2, 10, 1.0, 1.0,
                                  [(1e-2, 1e-2), (1.0, 1.0)])
        assert opt.allocation[2] >= opt.allocation[3]

    def test_rejects_short_block(self):
        with pytest.raises(ValueError):
            optimize_allocation(3, 4, 1.0, 1.0, [(1, 1)] * 3)

    def test_over_budget_raises_before_any_table(self, monkeypatch):
        # M=2, T=400 has C(399, 3) = 10,507,399 compositions.
        def forbidden(*args):
            raise AssertionError("table built for an over-budget search")

        monkeypatch.setattr(wireless, "_rate_table", forbidden)
        monkeypatch.setattr(wireless, "_relay_compositions", forbidden)
        with pytest.raises(BudgetExceeded):
            optimize_allocation(2, 400, 1.0, 1.0, [(1, 1), (1, 1)])
        # M=4, T=69 (10,424,128) is the first M=4 block over the budget.
        with pytest.raises(BudgetExceeded):
            optimize_allocation(4, 69, 1.0, 1.0, [(1, 1)] * 4)

    def test_inputs_checked_before_budget(self):
        with pytest.raises(ValueError):
            optimize_allocation(2, 400, 0.0, 1.0, [(1, 1), (1, 1)])

    def test_budget_is_inclusive(self, monkeypatch):
        # M=3, T=12 has C(11, 4) = 330 compositions.
        monkeypatch.setattr(wireless, "_EXHAUSTIVE_LIMIT", 330)
        assert optimize_allocation(3, 12, 2.0, 1.0, [(1, 1)] * 3).method \
            == "exhaustive"
        monkeypatch.setattr(wireless, "_EXHAUSTIVE_LIMIT", 329)
        with pytest.raises(BudgetExceeded):
            optimize_allocation(3, 12, 2.0, 1.0, [(1, 1)] * 3)

    def test_exact_above_one_million_compositions(self):
        # M=4, T=45 has 1,086,008 compositions, all searched.
        args = (4, 45, 1.0, 1.0,
                [(0.52, 1.9), (0.63, 1.77), (1.05, 1.93), (1.1, 1.9)])
        assert math.comb(44, 5) == 1_086_008
        exact = optimize_allocation(*args)
        assert exact.method == "exhaustive"
        assert exact.allocation == (14, 4, 8, 9, 5, 5)
        cfg = WirelessConfig(m=4, power=1.0, noise_var=1.0,
                             channel_vars=args[4], block_len=45,
                             allocation=exact.allocation)
        assert exact.r_key == key_rate(cfg).r_key


class TestMultiplexingGain:
    def test_high_power_ratios(self):
        rows = multiplexing_gain_sweep(4, [1e3, 1e6, 1e8])
        assert rows[-1].rb_ratio == pytest.approx(3.0, abs=0.05)
        assert rows[-1].xor_ratio == pytest.approx(2.0, abs=0.05)

    def test_two_relays_both_ratios_one(self):
        rows = multiplexing_gain_sweep(2, [1e3, 1e8])
        assert rows[-1].rb_ratio == pytest.approx(1.0, abs=0.05)
        assert rows[-1].xor_ratio == pytest.approx(1.0, abs=0.05)

    def test_monotone_beyond_1e3(self):
        grid = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8]
        for m in (3, 5):
            ratios = [r.rb_ratio for r in multiplexing_gain_sweep(m, grid)]
            diffs = np.diff(ratios)
            assert (diffs <= 1e-9).all() or (diffs >= -1e-9).all()

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            multiplexing_gain_sweep(3, [])
        with pytest.raises(ValueError):
            multiplexing_gain_sweep(3, ["10", "100"])
        with pytest.raises(ValueError):
            multiplexing_gain_sweep(3, [10.0, 5.0])

    @pytest.mark.parametrize("grid", [[1.0, 10.0], [0.5, 10.0]])
    def test_rejects_power_at_most_one(self, grid):
        # r_s = log2(P)/(2T) is 0 at P=1 (division by zero) and negative
        # below it (negative ratios).
        with pytest.raises(ValueError):
            multiplexing_gain_sweep(3, grid)


class TestMcEstimateCheck:
    def test_matches_formula(self):
        cfg = uniform_config(3, power=2.0)
        res = mc_estimate_check(cfg, 1, 1_000_000, seed=42)
        assert not res.degenerate
        assert res.gap / res.formula_value < 0.02

    def test_energy_scaling_monotone(self):
        cfg1 = uniform_config(2, slot=1, power=1.0)
        cfg4 = uniform_config(2, slot=4, power=1.0)
        r1 = mc_estimate_check(cfg1, 0, 200_000, seed=1)
        r4 = mc_estimate_check(cfg4, 0, 200_000, seed=1)
        assert r4.mi_estimate > r1.mi_estimate
        assert r4.formula_value > r1.formula_value

    def test_degenerate_noiseless_flagged(self):
        cfg = WirelessConfig(m=2, power=1.0, noise_var=1e-30,
                             channel_vars=[(1, 1), (1, 1)], block_len=8,
                             allocation=[2, 2, 2, 2])
        res = mc_estimate_check(cfg, 0, 100_000, seed=0)
        assert res.degenerate

    def test_gap_shrinks_with_samples(self):
        # More samples shrink the average gap to the closed form.
        cfg = uniform_config(2, power=1.5)
        small = [mc_estimate_check(cfg, 0, 100_000, seed=s).gap
                 for s in range(20)]
        large = [mc_estimate_check(cfg, 0, 1_000_000, seed=s + 500).gap
                 for s in range(20)]
        assert np.mean(large) < 0.6 * np.mean(small)

    def test_rejects_bad_inputs(self):
        cfg = uniform_config(2)
        with pytest.raises(ValueError):
            mc_estimate_check(cfg, 0, 1000)
        with pytest.raises(ValueError):
            mc_estimate_check(cfg, 5, 100_000)
