import math
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from pinkey import rates, wireless
from pinkey.errors import BudgetExceeded
from pinkey.wireless import (AllocationResult, WirelessConfig, key_rate,
                             mc_estimate_check, multiplexing_gain_sweep,
                             optimize_allocation, uniform_config)


def _compositions(total, parts):
    """All ways to split total into `parts` positive integers."""
    for cuts in combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[j + 1] - bounds[j] for j in range(parts))


def _rate_oracle(t_i, t_a, p, d, v):
    """The closed-form pairwise rate in plain Python floats."""
    return 0.5 * math.log2(1.0 + t_i * t_a * p**2 * v**2
                           / (d**2 + (t_i + t_a) * d * v * p))


def _oracle_r_keys(m, block_len, power, noise_var, channel_vars):
    """Every composition in lexicographic order, with the r_key that the
    plain-Python rate of each (relay, side) and the capacity formula give
    it."""
    for alloc in _compositions(block_len, m + 2):
        t_a, t_b, *t_rel = alloc
        i_g = [min(_rate_oracle(t, t_a, power, noise_var, v_a),
                   _rate_oracle(t, t_b, power, noise_var, v_b))
               for t, (v_a, v_b) in zip(t_rel, channel_vars)]
        yield alloc, (sum(i_g) - max(i_g)) / block_len


def _exhaustive_oracle(m, block_len, power, noise_var, channel_vars):
    """Reference search: every composition scored by
    :func:`_oracle_r_keys`, the first strict maximum wins."""
    best, best_rate = None, -1.0
    for alloc, r in _oracle_r_keys(m, block_len, power, noise_var,
                                   channel_vars):
        if r > best_rate:
            best, best_rate = alloc, r
    return AllocationResult(best, best_rate, "exhaustive")


def _sweep_oracle(m, p_grid, slot, noise_var, channel_var):
    """The per-power loop: a validated config and a key_rate call for each
    power of a checked grid, as (power, rb_ratio, xor_ratio, r_key, r_s)."""
    rows = []
    for power in p_grid:
        cfg = uniform_config(m, slot=slot, power=power, noise_var=noise_var,
                             channel_var=channel_var)
        report = key_rate(cfg)
        r_s = math.log2(power) / (2.0 * cfg.block_len)
        rows.append((power, report.r_key / r_s, report.xor_r_key / r_s,
                     report.r_key, r_s))
    return rows


# Powers above this have a square that overflows a float.
_SQRT_MAX = math.sqrt(sys.float_info.max)

# The M=4, T=30 search of the CI console-script step.
_CI_VARS = [(0.6, 1.8), (1.1, 0.9), (2.0, 0.7), (0.8, 0.8)]


def _kernel_rate(t_i, t_alpha, power, noise_var, channel_var):
    """One pairwise rate from the rate kernel, as a Python float."""
    return float(wireless._rates(t_i, t_alpha, power, noise_var,
                                 channel_var))


def _pair_config(t_i, t_alpha, power, noise_var, channel_var):
    """The M=2 config that feeds the rate kernel these inputs for relay
    1 and Alice; every other slot and variance is 1."""
    return WirelessConfig(m=2, power=power, noise_var=noise_var,
                          channel_vars=[(channel_var, 1.0), (1.0, 1.0)],
                          block_len=int(t_i) + int(t_alpha) + 2,
                          allocation=(t_alpha, 1, t_i, 1))


class TestPairwiseRate:
    def test_direct_substitution(self):
        rate = _kernel_rate(1, 1, 1.0, 1.0, 1.0)
        assert rate == _rate_oracle(1, 1, 1.0, 1.0, 1.0)
        assert rate == pytest.approx(0.5 * math.log2(1.0 + 1.0 / 3.0))

    def test_vanishing_power(self):
        assert _kernel_rate(1, 1, 1e-12, 1.0, 1.0) < 1e-11

    def test_high_power_slope_is_half(self):
        # Doubling P twice (x4) adds about 0.5*log2(4) = 1 bit.
        gain = (_kernel_rate(1, 1, 4e6, 1.0, 1.0)
                - _kernel_rate(1, 1, 1e6, 1.0, 1.0))
        assert gain == pytest.approx(1.0, abs=1e-3)

    # The kernel trusts its inputs; the config that feeds it refuses
    # every input it must not see.
    def test_rejects_nonpositive(self):
        _pair_config(1, 1, 1, 1, 1)
        for args in [(0, 1, 1, 1, 1), (1, 1, 0, 1, 1), (1, 1, 1, 0, 1),
                     (1, 1, 1, 1, 0)]:
            with pytest.raises(ValueError):
                _pair_config(*args)

    @pytest.mark.parametrize("args", [
        (1, 1, math.nan, 1, 1), (1, 1, 1, math.inf, 1),
        (1, 1, 1, 1, math.nan), (True, 2, 1, 1, 1), (1.5, 2, 1, 1, 1),
        (1, 2.0, 1, 1, 1), ("1", 2, 1, 1, 1), (1, 2, "1", 1, 1),
        (1, 2, 1, True, 1)],
        ids=["nan-power", "inf-noise", "nan-channel", "bool-slot",
             "fractional-slot", "float-slot", "str-slot", "str-power",
             "bool-noise"])
    def test_rejects_unconverted_and_nonfinite(self, args):
        with pytest.raises(ValueError):
            _pair_config(*args)

    # 2**53 and up: float slot products are no longer exact.
    @pytest.mark.parametrize("t_i,t_alpha", [(2 ** 53, 1), (1, 10 ** 20),
                                             (2 ** 63, 2 ** 63)])
    def test_rejects_slots_past_2_to_53(self, t_i, t_alpha):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            _pair_config(t_i, t_alpha, 10.0, 1.0, 1.0)

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
            base = _kernel_rate(t_i, t_a, p, d, v)
            assert base == _rate_oracle(t_i, t_a, p, d, v)
            assert _kernel_rate(t_i + 1, t_a, p, d, v) > base
            assert _kernel_rate(t_i, t_a + 1, p, d, v) > base
            assert _kernel_rate(t_i, t_a, p * 1.01, d, v) > base
            assert _kernel_rate(t_i, t_a, p, d, v * 1.01) > base
            assert _kernel_rate(t_i, t_a, p, d * 1.01, v) < base

    @pytest.mark.parametrize("args", [
        (1, 1, 1e200, 1.0, 1.0), (1, 1, 1.0, 1e200, 1.0),
        (1, 1, 1.0, 1.0, 1e200), (2, 3, 1.0, 1e160, 1e-3)],
        ids=["power", "noise_var", "channel_var", "noise_var_small_rate"])
    def test_square_overflow_raises_value_error(self, args):
        with pytest.raises(ValueError, match="overflows"):
            wireless._rates(*args)
        with pytest.raises(ValueError, match="overflows"):
            wireless._rate_table(2, 6, *args[2:4], [(args[4], 1.0)] * 2)

    def test_square_overflow_in_every_entry_point(self):
        with pytest.raises(ValueError, match="overflows"):
            multiplexing_gain_sweep(2, [1e200])
        with pytest.raises(ValueError, match="overflows"):
            optimize_allocation(2, 8, 1e200, 1.0, [(1, 1), (1, 1)])
        with pytest.raises(ValueError, match="overflows"):
            optimize_allocation(2, 8, 1.0, 1.0, [(1, 1), (1e200, 1)])
        cfg = uniform_config(2, noise_var=1e200)
        with pytest.raises(ValueError, match="overflows"):
            key_rate(cfg)
        with pytest.raises(ValueError, match="overflows"):
            mc_estimate_check(cfg, 0, 100_000)


class TestConfigValidation:
    def test_allocation_must_sum(self):
        with pytest.raises(ValueError):
            WirelessConfig(m=2, power=1.0, noise_var=1.0,
                           channel_vars=[(1, 1), (1, 1)], block_len=9,
                           allocation=(2, 2, 2, 2))

    def test_allocation_length_is_m_plus_2(self):
        with pytest.raises(ValueError, match="allocation needs 4 slots"):
            WirelessConfig(m=2, power=1.0, noise_var=1.0,
                           channel_vars=[(1, 1), (1, 1)], block_len=6,
                           allocation=(2, 2, 2))

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

    # A slot of 10**20 made an object array in key_rate and crashed
    # with a numpy casting error.
    @pytest.mark.parametrize("allocation", [
        (2, 2, 2, 10 ** 20), (2 ** 53, 1, 1, 1),
        (2 ** 51, 2 ** 51, 2 ** 51, 2 ** 51)])
    def test_rejects_slots_and_block_len_past_2_to_53(self, allocation):
        with pytest.raises(ValueError, match=r"2\*\*53"):
            WirelessConfig(m=2, power=10.0, noise_var=1.0,
                           channel_vars=[(1, 1), (1, 1)],
                           block_len=sum(allocation), allocation=allocation)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            uniform_config(2, slot=10 ** 20, power=10.0)

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

    @pytest.mark.parametrize("field,value", [
        ("power", True), ("power", "1"), ("noise_var", True),
        ("noise_var", None), ("block_len", 8.0), ("block_len", True),
        ("m", 2.0), pytest.param("power", 10 ** 400, id="power-huge")])
    def test_rejects_non_numeric_scalars(self, field, value):
        kwargs = dict(m=2, power=1.0, noise_var=1.0,
                      channel_vars=[(1, 1), (1, 1)], block_len=8,
                      allocation=(2, 2, 2, 2))
        kwargs[field] = value
        with pytest.raises(ValueError):
            WirelessConfig(**kwargs)

    def test_accepts_numpy_scalars(self):
        cfg = WirelessConfig(m=np.int64(2), power=np.float64(1.0),
                             noise_var=np.float32(2.0),
                             channel_vars=[(1, 1), (1, 1)],
                             block_len=np.int32(8), allocation=(2, 2, 2, 2))
        assert key_rate(cfg).r_key > 0

    def test_accepted_numbers_normalized(self):
        cfg = WirelessConfig(m=2, power=1.0, noise_var=1.0,
                             channel_vars=[(1, np.float32(0.5)), (2, 3)],
                             block_len=8,
                             allocation=(np.int64(2), 2, 2, np.uint8(2)))
        assert cfg.channel_vars == ((1.0, 0.5), (2.0, 3.0))
        assert all(type(v) is float for pair in cfg.channel_vars
                   for v in pair)
        assert all(type(t) is int for t in cfg.allocation)

    def test_scalars_normalized(self):
        cfg = WirelessConfig(m=np.int64(2), power=3, noise_var=np.float32(2),
                             channel_vars=[(1, 1), (1, 1)],
                             block_len=np.int32(8), allocation=(2, 2, 2, 2))
        assert (cfg.m, cfg.block_len, cfg.power, cfg.noise_var) == \
            (2, 8, 3.0, 2.0)
        assert (type(cfg.m), type(cfg.block_len), type(cfg.power),
                type(cfg.noise_var)) == (int, int, float, float)


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

    def test_scores_without_revalidating(self, monkeypatch):
        # The kernel has checked the 2M rates; the public rate functions,
        # which check their input again, give the same floats.
        rng = np.random.Generator(np.random.PCG64(12))
        cfgs = []
        for m in (2, 3, 4, 5):
            cuts = sorted(rng.choice(np.arange(1, 20), m + 1,
                                     replace=False).tolist())
            cfgs.append(WirelessConfig(
                m=m, power=float(rng.uniform(0.5, 40)), noise_var=0.8,
                channel_vars=[(rng.uniform(0.1, 3), rng.uniform(0.1, 3))
                              for _ in range(m)],
                block_len=20, allocation=np.diff([0, *cuts, 20]).tolist()))
        want = [(rates.capacity(r.i_g) / 20,
                 rates.xor_baseline_rate(r.i_g) / 20)
                for r in map(key_rate, cfgs)]

        def forbidden(*args):
            raise AssertionError("key_rate re-validated its own rates")

        monkeypatch.setattr(rates, "capacity", forbidden)
        monkeypatch.setattr(rates, "xor_baseline_rate", forbidden)
        got = [key_rate(cfg) for cfg in cfgs]
        assert [(r.r_key, r.xor_r_key) for r in got] == want
        assert all(type(r.r_key) is type(r.xor_r_key) is float
                   for r in got)

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
            # the narrowest dtype that holds T-2, and the search's index
            # dtype: the one that holds gu.size - 1
            stride = block_len - m
            for dtype in (np.uint8 if block_len <= 257 else np.uint16,
                          np.min_scalar_type((stride - 1) * m * stride - 1)):
                rel = wireless._relay_compositions(m, block_len, dtype)
                assert rel.dtype == dtype
                assert rel.shape == (m, math.comb(block_len - 2, m))
                budget = rel.sum(axis=0)
                start = 0
                for r in range(block_len - 2, m - 1, -1):
                    want = list(_compositions(r, m))
                    stop = start + len(want)
                    assert [tuple(c)
                            for c in rel[:, start:stop].T.tolist()] == want
                    assert (budget[start:stop] == r).all()
                    start = stop
                assert start == rel.shape[1]

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
                        full[i, side, t_i, t_alpha] = _rate_oracle(
                            t_i, t_alpha, power, noise_var, var)
        assert (tab == full).all()

    @pytest.mark.parametrize("case", range(24))
    def test_rate_table_equals_scalar_rate(self, case):
        # Every entry, both triangles and the unused index 0 included, is
        # the float the plain-Python formula returns; so are the kernel's
        # one-pair calls at sampled slot pairs and key_rate's minima at a
        # random allocation.
        rng = np.random.Generator(np.random.PCG64(2000 + case))
        m = int(rng.integers(2, 6))
        block_len = int(rng.integers(m + 2, 41))
        power = float(10.0 ** rng.uniform(-9, 9))
        noise_var = float(10.0 ** rng.uniform(-1, 1))
        channel_vars = [(float(10.0 ** rng.uniform(-3, 3)),
                         float(10.0 ** rng.uniform(-3, 3)))
                        for _ in range(m)]
        tab = wireless._rate_table(m, block_len, power, noise_var,
                                   channel_vars)
        longest = block_len - m - 1
        assert tab.shape == (m, 2, longest + 1, longest + 1)
        assert (tab[..., 0, :] == 0).all() and (tab[..., :, 0] == 0).all()
        for i, sides in enumerate(channel_vars):
            for side, var in enumerate(sides):
                want = [[_rate_oracle(t_i, t_alpha, power, noise_var, var)
                         for t_alpha in range(1, longest + 1)]
                        for t_i in range(1, longest + 1)]
                assert tab[i, side, 1:, 1:].tolist() == want
                for t_i, t_alpha in rng.integers(1, longest + 1, (5, 2)):
                    assert _kernel_rate(int(t_i), int(t_alpha), power,
                                        noise_var, var) \
                        == want[t_i - 1][t_alpha - 1]
        cuts = sorted(rng.choice(np.arange(1, block_len), m + 1,
                                 replace=False).tolist())
        alloc = np.diff([0, *cuts, block_len]).tolist()
        cfg = WirelessConfig(m=m, power=power, noise_var=noise_var,
                             channel_vars=channel_vars, block_len=block_len,
                             allocation=alloc)
        assert key_rate(cfg).i_g == [
            min(_rate_oracle(t, alloc[0], power, noise_var, v_a),
                _rate_oracle(t, alloc[1], power, noise_var, v_b))
            for t, (v_a, v_b) in zip(alloc[2:], channel_vars)]

    def test_overflowing_rates_raise_before_scoring(self, monkeypatch):
        # P=1e154 squares to a finite 1e308, but the rates overflow to
        # inf; the one check of the finished table raises before the
        # relay compositions are built.
        def forbidden(*args):
            raise AssertionError("scoring started on a non-finite table")

        monkeypatch.setattr(wireless, "_relay_compositions", forbidden)
        with pytest.raises(ValueError, match="finite and >= 0: inf"):
            optimize_allocation(2, 8, 1e154, 1.0, [(1, 1), (1, 1)])

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

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_reference_on_small_grid(self, monkeypatch, m, tied):
        # Every T from M+2 to 14, in chunks of 7 columns, pins the t_B = 1
        # and t_B = T-M-t_A edges of each Alice-slot block, and that no
        # column reads a minima row an earlier t_A left behind.
        monkeypatch.setattr(wireless, "_SCORE_CHUNK", 7)
        rng = np.random.Generator(np.random.PCG64(3000 + m))
        for block_len in range(m + 2, 15):
            power = float(rng.uniform(0.2, 20.0))
            channel_vars = [(0.9, 0.9)] * m if tied else [
                (float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.05, 4.0)))
                for _ in range(m)]
            got = optimize_allocation(m, block_len, power, 1.0, channel_vars)
            want = _exhaustive_oracle(m, block_len, power, 1.0, channel_vars)
            assert got.allocation == want.allocation
            assert got.r_key == want.r_key

    @pytest.mark.parametrize("block_len", [183, 184])
    def test_matches_array_reference_across_index_dtypes(self, block_len):
        # The flat minima table of M=2 has (T-3)*2*(T-2) entries: T=183
        # indexes it with uint16, T=184 with uint32.  About 10^6
        # allocations each, scored here from plain-Python rates.
        assert ((block_len - 3) * 2 * (block_len - 2) - 1 <= 0xFFFF) \
            == (block_len == 183)
        power, noise_var = 6.0, 1.1
        channel_vars = [(0.7, 1.3), (1.9, 0.6)]
        longest = block_len - 3
        tab = np.zeros((2, 2, longest + 1, longest + 1))
        for i, sides in enumerate(channel_vars):
            for side, var in enumerate(sides):
                tab[i, side, 1:, 1:] = [
                    [_rate_oracle(t_i, t_alpha, power, noise_var, var)
                     for t_alpha in range(1, longest + 1)]
                    for t_i in range(1, longest + 1)]
        best, best_rate = None, -1.0
        for t_a in range(1, longest + 1):
            # rows t_B, columns t_1, both 1 .. T-t_A-2; t_2 is the rest
            t_b = np.arange(1, block_len - t_a - 1)[:, None]
            t_1 = t_b.T
            t_2 = block_len - t_a - t_b - t_1
            ok = t_2 >= 1
            t_2 = np.where(ok, t_2, 1)
            g1 = np.minimum(tab[0, 0, t_1, t_a], tab[0, 1, t_1, t_b])
            g2 = np.minimum(tab[1, 0, t_2, t_a], tab[1, 1, t_2, t_b])
            r_key = np.where(ok, (g1 + g2 - np.maximum(g1, g2)) / block_len,
                             -np.inf)
            j, k = np.unravel_index(np.argmax(r_key), r_key.shape)
            if r_key[j, k] > best_rate:
                best_rate = float(r_key[j, k])
                best = (t_a, j + 1, k + 1, block_len - t_a - j - k - 2)
        got = optimize_allocation(2, block_len, power, noise_var,
                                  channel_vars)
        assert (got.allocation, got.r_key) == (best, best_rate)

    @pytest.mark.parametrize("block_len, limit_mib",
                             [(30, 1.5), (50, 3.0), (68, 7.0)])
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

    @pytest.mark.parametrize("m, block_len", [
        (4.0, 30), ("4", 30), (True, 30), (4, True), (4, 30.0), (4, "30")],
        ids=["m-float", "m-str", "m-bool", "T-bool", "T-float", "T-str"])
    def test_rejects_non_integer_sizes(self, m, block_len):
        with pytest.raises(ValueError):
            optimize_allocation(m, block_len, 1.0, 1.0, [(1, 1)] * 4)

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


def _pruning_config(case):
    """Seeded (m, block_len, power, noise_var, channel_vars) number
    ``case`` of the pruned-search oracle tests."""
    rng = np.random.Generator(np.random.PCG64(4000 + case))
    m = int(rng.integers(2, 6))
    block_len = m + 2 if case % 13 == 0 else int(rng.integers(m + 2, 15))
    power = float(10.0 ** rng.uniform(-9, 9))
    noise_var = float(rng.uniform(0.2, 4.0))
    if case % 6 == 3:
        # every rate rounds to 0: x <= T^2 * 1e-18 < 2**-53 in 1 + x
        block_len = min(block_len, 10)
        power, noise_var = 1e-9, 1.0
        channel_vars = [(float(rng.uniform(0.05, 1.0)),
                         float(rng.uniform(0.05, 1.0))) for _ in range(m)]
    elif case % 5 == 0:  # all-equal variances: many tied allocations
        channel_vars = [(1.3, 1.3)] * m
    elif case % 7 == 0:  # two-valued variances: ties between relays
        channel_vars = [tuple(float(v) for v in rng.choice([0.5, 2.0], 2))
                        for _ in range(m)]
    elif case % 11 == 0:  # variances over 24 decades
        power = float(10.0 ** rng.uniform(-6, 6))
        channel_vars = [(float(10.0 ** rng.uniform(-12, 12)),
                         float(10.0 ** rng.uniform(-12, 12)))
                        for _ in range(m)]
    else:
        channel_vars = [(float(rng.uniform(0.05, 4.0)),
                         float(rng.uniform(0.05, 4.0))) for _ in range(m)]
    return m, block_len, power, noise_var, channel_vars


class TestPrunedSearch:
    def _check(self, m, block_len, power, noise_var, channel_vars):
        got = optimize_allocation(m, block_len, power, noise_var,
                                  channel_vars)
        want = _exhaustive_oracle(m, block_len, power, noise_var,
                                  channel_vars)
        assert (got.allocation, got.r_key, got.method) == \
            (want.allocation, want.r_key, want.method)
        # every allocation's r_key is at most its terminal pair's bound
        ub = wireless._pair_bounds(
            wireless._rate_table(m, block_len, power, noise_var,
                                 channel_vars), block_len)
        for (t_a, t_b, *_), r in _oracle_r_keys(m, block_len, power,
                                                noise_var, channel_vars):
            assert r <= ub[t_a, t_b]
        return got

    @pytest.mark.parametrize("first", range(0, 200, 20))
    def test_matches_oracle_and_bounds_hold(self, first):
        # 200 seeded configs, 20 per case: M 2-5, T from M+2 to 14,
        # ties, all-zero rates and variances over 24 decades.
        for case in range(first, first + 20):
            m, block_len, power, noise_var, channel_vars = \
                _pruning_config(case)
            got = self._check(m, block_len, power, noise_var, channel_vars)
            if power == 1e-9:  # every r_key is 0: the first one wins
                assert got.r_key == 0.0
                assert got.allocation == (1,) * (m + 1) + (block_len - m - 1,)
            if block_len == m + 2:
                assert got.allocation == (1,) * (m + 2)

    @pytest.mark.parametrize("block_len, power, channel_vars", [
        (5, 0.01, [(1e-6, 1e11), (100.0, 1.0)]),
        (8, 1000.0, [(1e7, 1e-11), (1e-6, 1e-5)]),
        (9, 1000.0, [(1e-9, 1e4), (1e3, 1e-5)]),
        (9, 100.0, [(1e3, 1e7), (1e-7, 1e-10)]),
    ])
    def test_bound_margin_scales_with_the_sum(self, block_len, power,
                                              channel_vars):
        # One relay's rate is large and the other's below its rounding,
        # so the sum less the largest carries an error of a few ulps of
        # the sum, not of the capacity.  A margin of 1e-9 of the capacity
        # alone lets the pair with the largest bound score above it,
        # and the search then returns a later tied allocation or none.
        self._check(2, block_len, power, 1.0, channel_vars)

    def test_bound_holds_where_the_table_falls(self):
        # Power and noise squares of one subnormal unit round the rate's
        # argument so coarsely that relay 0's rate falls from 20 to 21
        # slots at t_A = 1; a bound read at the most slots a relay can
        # hold then sits below (1, 1, 20, 2), so it must take the
        # running maximum over slots.
        args = (2, 24, 2e-162, 2e-162, [(1.0, 1.0), (1e6, 1e6)])
        tab = wireless._rate_table(*args)
        assert tab[0, 0, 21, 1] < tab[0, 0, 20, 1]
        self._check(*args)

    def test_ci_config_scores_under_60_percent(self, monkeypatch):
        # A search that stops pruning scores all C(29, 5) = 118,755
        # allocations; the bound leaves about 44% of them.
        rows = []
        capacity = rates._capacity

        def counting(vals):
            rows.append(vals.shape[0])
            return capacity(vals)

        monkeypatch.setattr(rates, "_capacity", counting)
        got = optimize_allocation(4, 30, 10.0, 1.0, _CI_VARS)
        assert sum(rows) < 0.6 * math.comb(29, 5)
        cfg = WirelessConfig(m=4, power=10.0, noise_var=1.0,
                             channel_vars=_CI_VARS, block_len=30,
                             allocation=got.allocation)
        monkeypatch.setattr(rates, "_capacity", capacity)
        assert got.r_key == key_rate(cfg).r_key


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
        with pytest.raises(ValueError, match="increasing"):
            multiplexing_gain_sweep(3, [10.0, 10.0])

    @pytest.mark.parametrize("m, slot", [
        (4.0, 2), ("4", 2), (True, 2), (4, 2.0), (4, True), (4, "2")],
        ids=["m-float", "m-str", "m-bool", "slot-float", "slot-bool",
             "slot-str"])
    def test_rejects_non_integer_m_and_slot(self, m, slot):
        with pytest.raises(ValueError):
            multiplexing_gain_sweep(m, [10.0, 100.0], slot=slot)
        with pytest.raises(ValueError):
            uniform_config(m, slot=slot)

    @pytest.mark.parametrize("grid", [[1.0, 10.0], [0.5, 10.0]])
    def test_rejects_power_at_most_one(self, grid):
        # r_s = log2(P)/(2T) is 0 at P=1 (division by zero) and negative
        # below it (negative ratios).
        with pytest.raises(ValueError):
            multiplexing_gain_sweep(3, grid)

    def test_equals_per_power_loop(self):
        rng = np.random.Generator(np.random.PCG64(25))
        outcomes = {"rows": 0, "finite": 0, "overflows": 0}
        for case in range(400):
            m, slot = int(rng.integers(2, 10)), int(rng.integers(1, 51))
            d, v = (float(x) for x in 10.0 ** rng.uniform(-6, 6, 2))
            # every fourth grid reaches past 1.34e154, where P^2 overflows
            top = (12, 150, 150, 160)[case % 4]
            grid = np.unique(10.0 ** rng.uniform(1e-3, top,
                                                 int(rng.integers(1, 13))))
            grid = grid.tolist()
            if grid[-1] > _SQRT_MAX:
                # every power is squared before any rate is computed, so
                # the overflow is reported even where the loop meets a
                # non-finite rate at a lower power first
                with pytest.raises(ValueError):
                    _sweep_oracle(m, grid, slot, d, v)
                with pytest.raises(ValueError, match="overflows"):
                    multiplexing_gain_sweep(m, grid, slot, d, v)
                outcomes["overflows"] += 1
                continue
            try:
                want = _sweep_oracle(m, grid, slot, d, v)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    multiplexing_gain_sweep(m, grid, slot, d, v)
                assert str(got.value) == str(exc)
                assert "finite and >= 0" in str(exc)
                outcomes["finite"] += 1
                continue
            rows = multiplexing_gain_sweep(m, grid, slot, d, v)
            got = [tuple(vars(row).values()) for row in rows]
            assert all(type(x) is float for row in got for x in row)
            assert ([[x.hex() for x in row] for row in got]
                    == [[x.hex() for x in row] for row in want])
            # and r_key and xor_r_key are the plain-float closed forms of
            # the M equal rates, independent of key_rate
            block_len = slot * (m + 2)
            for row in rows:
                i_g = [_rate_oracle(slot, slot, row.power, d, v)] * m
                total = 0.0
                for i in i_g:
                    total += i
                assert row.r_key == (total - max(i_g)) / block_len
                xor_total = 0.0
                for _ in range(m // 2):
                    xor_total += i_g[0]
                r_s = math.log2(row.power) / (2.0 * block_len)
                assert row.xor_ratio == (xor_total / block_len) / r_s
            outcomes["rows"] += 1
        assert min(outcomes.values()) > 0, outcomes

    @pytest.mark.parametrize("size", [1, 2, 7, 12, 1000])
    def test_one_config_and_one_kernel_call(self, monkeypatch, size):
        calls = {"config": 0, "rates": 0}
        config, kernel = wireless.WirelessConfig, wireless._rates

        def counting_config(**kwargs):
            calls["config"] += 1
            return config(**kwargs)

        def counting_rates(*args):
            calls["rates"] += 1
            return kernel(*args)

        monkeypatch.setattr(wireless, "WirelessConfig", counting_config)
        monkeypatch.setattr(wireless, "_rates", counting_rates)
        rows = multiplexing_gain_sweep(6, np.logspace(0.5, 12, size))
        assert len(rows) == size
        assert calls == {"config": 1, "rates": 1}

    def test_infinite_top_power_is_refused_by_the_config(self):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            multiplexing_gain_sweep(3, [10.0, math.inf])


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
        # The weaker of the two training energies decides: 1e-9 is above
        # 1e-12 of the relay's 1 but below 1e-12 of Alice's 10**6.
        cfg = WirelessConfig(m=2, power=1.0, noise_var=1e-9,
                             channel_vars=[(1, 1), (1, 1)],
                             block_len=10 ** 6 + 3,
                             allocation=[10 ** 6, 1, 1, 1])
        assert not mc_estimate_check(cfg, 0, 100_000, seed=0).degenerate

    def test_gap_shrinks_with_samples(self):
        # More samples shrink the average gap to the closed form.
        cfg = uniform_config(2, power=1.5)
        small = [mc_estimate_check(cfg, 0, 100_000, seed=s).gap
                 for s in range(20)]
        large = [mc_estimate_check(cfg, 0, 1_000_000, seed=s + 500).gap
                 for s in range(20)]
        assert np.mean(large) < 0.6 * np.mean(small)

    def test_bob_side(self):
        # Relay 0 sees Alice over a weak, short link and Bob over a
        # strong, long one, so the two sides' rates are far apart.
        cfg = WirelessConfig(m=2, power=2.0, noise_var=1.0,
                             channel_vars=[(0.5, 3.0), (1.0, 1.0)],
                             block_len=11, allocation=[1, 6, 2, 2])
        rate_a = _rate_oracle(2, 1, 2.0, 1.0, 0.5)
        rate_b = _rate_oracle(2, 6, 2.0, 1.0, 3.0)
        assert rate_b > 3.0 * rate_a
        res = mc_estimate_check(cfg, 0, 1_000_000, seed=7, side="B")
        assert not res.degenerate
        assert res.formula_value == rate_b
        assert res.gap / rate_b < 0.02
        assert abs(res.mi_estimate - rate_a) / rate_b > 0.5
        res_a = mc_estimate_check(cfg, 0, 1_000_000, seed=7, side="A")
        assert res_a.formula_value == rate_a
        assert res_a.gap / rate_a < 0.02

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_formula_value_is_the_oracle_rate(self, side):
        rng = np.random.Generator(np.random.PCG64(5 + (side == "B")))
        for _ in range(20):
            m = int(rng.integers(2, 6))
            cuts = sorted(rng.choice(np.arange(1, 30), m + 1,
                                     replace=False).tolist())
            alloc = np.diff([0, *cuts, 30]).tolist()
            power, noise_var, *flat = (10.0 ** rng.uniform(-6, 6, 2 * m + 2)
                                       ).tolist()
            channel_vars = list(zip(flat[::2], flat[1::2]))
            cfg = WirelessConfig(m=m, power=power, noise_var=noise_var,
                                 channel_vars=channel_vars, block_len=30,
                                 allocation=alloc)
            i = int(rng.integers(0, m))
            t_alpha = alloc[0] if side == "A" else alloc[1]
            var = channel_vars[i][0 if side == "A" else 1]
            res = mc_estimate_check(cfg, i, 100_000, seed=3, side=side)
            assert res.formula_value == _rate_oracle(
                alloc[2 + i], t_alpha, power, noise_var, var)
            assert type(res.formula_value) is float

    def test_rejects_bad_inputs(self):
        cfg = uniform_config(2)
        with pytest.raises(ValueError):
            mc_estimate_check(cfg, 0, 1000)
        for pair_index, samples in [(2, 100_000), (5, 100_000),
                                    (True, 100_000), (0.0, 100_000),
                                    (0, 100_000.0), (0, "100000")]:
            with pytest.raises(ValueError):
                mc_estimate_check(cfg, pair_index, samples)
        for side in ["C", "a", "", None, 0]:
            with pytest.raises(ValueError, match="side"):
                mc_estimate_check(cfg, 0, 100_000, side=side)
