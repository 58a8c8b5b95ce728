import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pinkey import distillation, infotools
from pinkey.distillation import RbCodebook, build_codebook
from pinkey.errors import BudgetExceeded, InvariantViolation
from pinkey.infotools import (JointPmf, LeakageAudit, empirical_mi,
                              exact_entropy, exact_mi)
from pinkey.model import binary_entropy


def uniform_pmf(shape):
    size = int(np.prod(shape))
    return JointPmf(np.full(shape, 1.0 / size))


class TestJointPmf:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointPmf([[0.5, -0.1], [0.3, 0.3]])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            JointPmf([0.5, 0.4])

    def test_rejects_over_budget(self):
        with pytest.raises(BudgetExceeded):
            JointPmf(np.broadcast_to(0.0, (1 << 25,)))

    def test_marginal_order(self):
        table = np.array([[0.1, 0.2], [0.3, 0.4]])
        pmf = JointPmf(table)
        np.testing.assert_allclose(pmf.marginal((1, 0)), table.T)


class TestExactEntropy:
    def test_uniform_two_bits(self):
        assert exact_entropy(uniform_pmf((4,)), (0,)) == pytest.approx(2.0)

    def test_deterministic(self):
        assert exact_entropy(JointPmf([1.0, 0.0, 0.0]), (0,)) == 0.0

    def test_hand_evaluated(self):
        assert exact_entropy(JointPmf([0.5, 0.25, 0.25]), (0,)) == \
            pytest.approx(1.5)

    def test_rejects_empty_subset(self):
        with pytest.raises(ValueError):
            exact_entropy(uniform_pmf((2,)), ())


class TestExactMi:
    def test_independent_bits(self):
        assert exact_mi(uniform_pmf((2, 2)), (0,), (1,)) == 0.0

    def test_identical_three_bit(self):
        table = np.zeros((8, 8))
        np.fill_diagonal(table, 1.0 / 8)
        assert exact_mi(JointPmf(table), (0,), (1,)) == pytest.approx(3.0)

    def test_dsbs_pmf(self):
        p = 0.11
        table = np.array([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])
        mi = exact_mi(JointPmf(table), (0,), (1,))
        assert mi == pytest.approx(0.5, abs=1e-3)
        assert mi == pytest.approx(1.0 - binary_entropy(p), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.Generator(np.random.PCG64(1))
        t = rng.random((4, 8))
        t /= t.sum()
        pmf = JointPmf(t)
        assert exact_mi(pmf, (0,), (1,)) == exact_mi(pmf, (1,), (0,))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            exact_mi(uniform_pmf((2, 2)), (0,), (0,))

    def test_chain_consistency(self):
        # I(X; Y, Z) = I(X; Y) + I(X; Z | Y) on a random 3-variable pmf.
        rng = np.random.Generator(np.random.PCG64(2))
        t = rng.random((4, 4, 4))
        t /= t.sum()
        pmf = JointPmf(t)
        lhs = exact_mi(pmf, (0,), (1, 2))
        cond = (exact_entropy(pmf, (0, 1)) + exact_entropy(pmf, (1, 2))
                - exact_entropy(pmf, (1,)) - exact_entropy(pmf, (0, 1, 2)))
        rhs = exact_mi(pmf, (0,), (1,)) + cond
        assert lhs == pytest.approx(rhs, abs=1e-9)


def parity_codebook():
    # Partition {00,11},{01,10}: bin index equals w1 XOR w2.
    return RbCodebook([1, 1], 1, np.array([0, 2, 3, 1]))


def first_bit_codebook():
    # Partition {00,01},{10,11}: bin index equals w1.
    return RbCodebook([1, 1], 1, np.array([0, 1, 2, 3]))


class TestLeakageAudit:
    def test_parity_partition_leaks_nothing(self):
        cb = parity_codebook()
        for m in (0, 1):
            assert infotools.leakage_audit(cb, m).mi_bits == 0.0

    def test_first_bit_partition_leaks_one_bit(self):
        cb = first_bit_codebook()
        assert infotools.leakage_audit(cb, 0).mi_bits == pytest.approx(1.0)
        assert infotools.leakage_audit(cb, 1).mi_bits == 0.0

    def test_mean_over_all_partitions(self):
        # All equal 2-bins-of-2 partitions of the 2x2 space.
        leaks = []
        for bin0 in itertools.combinations(range(4), 2):
            pos = np.empty(4, dtype=np.int64)
            rest = [w for w in range(4) if w not in bin0]
            for j, w in enumerate(bin0):
                pos[w] = j
            for j, w in enumerate(rest):
                pos[w] = 2 + j
            cb = RbCodebook([1, 1], 1, pos)
            leaks.append(infotools.leakage_audit(cb, 0).mi_bits)
        assert np.mean(leaks) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_decomposition_terms(self):
        cb = build_codebook([3, 2, 2], 4, seed=9)
        for m in range(3):
            audit = infotools.leakage_audit(cb, m)
            assert audit.h_wm == cb.message_bits[m]
            # H(W^M | K) equals the within-bin bits exactly.
            assert audit.h_all_given_key == cb.total_bits - cb.key_bits
            # Conditioning on W_m removes at most its own bits.
            assert audit.h_all_given_wm_key <= audit.h_all_given_key + 1e-12
            assert audit.h_all_given_wm_key >= \
                audit.h_all_given_key - audit.h_wm - 1e-12
            assert audit.decomposition_residual <= 1e-9
            # Data processing: leakage never exceeds H(W_m).
            assert audit.mi_bits <= audit.h_wm + 1e-12

    def test_transcript_adds_nothing_small_case(self):
        # Full enumeration including the XOR payload randomness: with both
        # pairwise keys uniform and independent, each payload masks the
        # common message with an independent one-time pad, so
        # I(K; W_m, F1, F2) equals I(K; W_m).
        cb = first_bit_codebook()
        table = np.zeros((2, 2, 2, 2))
        for wa1, wa2, wb1, wb2 in itertools.product(range(2), repeat=4):
            k = distillation.distill(cb, (wb1, wb2)).k
            f1, f2 = wa1 ^ wb1, wa2 ^ wb2
            table[k, wb1, f1, f2] += 1.0 / 16.0
        pmf = JointPmf(table)
        joint_mi = exact_mi(pmf, (0,), (1, 2, 3))
        assert joint_mi == pytest.approx(
            infotools.leakage_audit(cb, 0).mi_bits, abs=1e-12)

    def test_rejects_bad_relay(self):
        for relay in (2, 5, -1, True, 1.0, "1", None):
            with pytest.raises(ValueError):
                infotools.leakage_audit(parity_codebook(), relay)


def _leakage_oracle(codebook, relay):
    """The audit before it became one bincount: joint counts by
    ``np.add.at`` over index arrays, then the same entropy terms."""
    total = 1 << codebook.total_bits
    b_m = codebook.message_bits[relay]
    shift = sum(codebook.message_bits[relay + 1:])
    flat = np.arange(total, dtype=np.int64)
    w_m = (flat >> shift) & ((1 << b_m) - 1)
    k = codebook.position >> codebook.bin_bits
    counts = np.zeros((codebook.num_bins, 1 << b_m), dtype=np.int64)
    np.add.at(counts, (k, w_m), 1)
    mi = exact_mi(JointPmf(counts / total), (0,), (1,))
    h_wm = float(b_m)
    h_all_given_key = float(codebook.bin_bits)
    nz = counts[counts > 0]
    h_all_given_wm_key = float(np.sum((nz / total) * np.log2(nz)))
    residual = abs(mi - (h_wm - h_all_given_key + h_all_given_wm_key))
    return LeakageAudit(relay=relay, mi_bits=mi, h_wm=h_wm,
                        h_all_given_key=h_all_given_key,
                        h_all_given_wm_key=h_all_given_wm_key,
                        decomposition_residual=residual)


def _seeded_codebooks():
    rng = np.random.Generator(np.random.PCG64(11))
    for m in range(1, 6):
        for _ in range(8):
            widths = [int(b) for b in rng.integers(0, 4, m)]
            total = sum(widths)
            for key_bits in sorted({0, int(rng.integers(0, total + 1)),
                                    total}):
                yield build_codebook(widths, key_bits,
                                     seed=int(rng.integers(1 << 30)))
    yield build_codebook([3, 0, 2], 3, seed=1)     # a zero-width message
    yield build_codebook([0], 0, seed=2)           # total_bits = 0
    yield build_codebook([0, 0, 0], 0, seed=3)


class TestLeakageAuditOracle:
    def test_equals_add_at_oracle(self):
        cases = 0
        for cb in _seeded_codebooks():
            for m in range(len(cb.message_bits)):
                assert infotools.leakage_audit(cb, m) == \
                    _leakage_oracle(cb, m)
                cases += 1
        assert cases > 300

    def test_equals_oracle_at_two_to_the_twenty(self):
        cb = build_codebook([5, 5, 5, 5], 13, seed=4)
        for m in (0, 3):
            assert infotools.leakage_audit(cb, m) == _leakage_oracle(cb, m)

    def test_equals_oracle_on_wide_and_skewed_codebooks(self, monkeypatch):
        # Every relay, a zero-width one included, at the audit's own block
        # size and at 2^9 codewords.  Bins range from one codeword
        # (key_bits = total_bits: a block holds 2^15 or 2^9 bins) through
        # 2^7 and 2^13 codewords to bins wider than either block (2^16 and
        # 2^19 codewords, and key_bits 0: the whole space is one bin), which
        # are counted a block at a time into one row.
        blocks = (infotools._AUDIT_BLOCK, 1 << 9)
        for widths, key_bits in (([10, 10], 7), ([5, 5, 5, 5], 13),
                                 ([1, 19], 1), ([19, 1], 4), ([0, 20], 4),
                                 ([4, 4, 4, 4], 16), ([10, 10], 0)):
            cb = build_codebook(widths, key_bits, seed=sum(widths) + key_bits)
            for m in range(len(widths)):
                expected = _leakage_oracle(cb, m)
                for block in blocks:
                    monkeypatch.setattr(infotools, "_AUDIT_BLOCK", block)
                    assert infotools.leakage_audit(cb, m) == expected

    def test_equals_oracle_with_and_without_lookup_tables(self):
        # A count table with fewer nonzero counts than its largest count
        # is evaluated per count (a zero-width relay, key_bits 0); the
        # others gather from the p*log2 lookup tables.
        paths = set()
        for widths, key_bits in (([0, 20], 0), ([0, 20], 4), ([4, 6], 0),
                                 ([6, 4], 10), ([3, 0, 2], 0), ([0], 0)):
            cb = build_codebook(widths, key_bits, seed=key_bits + 1)
            shifts = np.cumsum([0] + widths[:0:-1])[::-1]
            for m in range(len(widths)):
                w_m = (np.arange(cb.position.size) >> shifts[m]) \
                    & ((1 << widths[m]) - 1)
                key = infotools.codebook_key_of_all(cb).astype(np.int64)
                counts = np.bincount((key << widths[m]) | w_m)
                nz = counts[counts > 0]
                paths.add(int(nz.max()) + 1 <= nz.size)
                assert infotools.leakage_audit(cb, m) == \
                    _leakage_oracle(cb, m)
        assert paths == {True, False}

    def test_entropy_terms_on_both_paths(self):
        # The same float expressions as the oracle, summed in C order, on
        # tables that take the lookup path (max + 1 <= nonzero count) and
        # the direct path.
        rng = np.random.Generator(np.random.PCG64(5))
        tables = [rng.integers(0, 6, size=(64, 16)),     # lookup
                  np.array([[1 << 12]]),                 # direct
                  np.array([[0, 5, 0], [3, 0, 8]]),      # direct
                  rng.integers(0, 40, size=(8, 4))]      # direct, max > 32
        for counts in tables:
            total = int(counts.sum())
            nz = counts[counts > 0]
            p = nz / total
            assert infotools._entropy_terms(nz, total) == (
                float(-np.sum(p * np.log2(p))),
                float(np.sum(p * np.log2(nz))))

    def test_table_budget_checked_before_counting(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("count table allocated over budget")

        cb = build_codebook([3, 3], 4, seed=0)
        monkeypatch.setattr(infotools, "BUDGET_BITS", 7)
        infotools.leakage_audit(cb, 0)          # 2^(3+4) cells: in budget
        monkeypatch.setattr(infotools, "BUDGET_BITS", 6)
        monkeypatch.setattr(infotools, "_bin_major_counts", forbidden)
        for m in (0, 1):
            with pytest.raises(BudgetExceeded):
                infotools.leakage_audit(cb, m)

    def test_memory_of_one_large_audit(self):
        # The audit reads the codebook's inverse in place and counts it in
        # blocks of 2^15 codewords, so the peak is the 2 MiB (K, W_m) count
        # table, its 2 MiB of nonzero counts and a block's buffers (about
        # 4.2 MiB at 2^20 codewords).  A 2 MiB key array per codebook, or
        # an 8 MiB int64 code per codeword, as a whole-codebook bincount
        # needs, would not fit under the bound.
        cb = build_codebook([5, 5, 5, 5], 13, seed=4)
        tracemalloc.start()
        try:
            infotools.leakage_audit(cb, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * (1 << 20)

    def test_audit_builds_no_key_array(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("audit built a per-codeword key array")

        cb = build_codebook([3, 0, 2], 3, seed=1)
        expected = [_leakage_oracle(cb, m) for m in range(3)]
        monkeypatch.setattr(infotools, "codebook_key_of_all", forbidden)
        assert [infotools.leakage_audit(cb, m) for m in range(3)] == expected

    def test_codebook_key_of_all_is_narrow(self):
        # The bin index of every codeword, in the narrowest unsigned dtype
        # that holds a key.  The audit does not read it; acceptance 4 and
        # perfbench's traced layer list do.
        for key_bits, dtype in ((0, np.uint8), (8, np.uint8),
                                (9, np.uint16), (16, np.uint16),
                                (17, np.uint32), (20, np.uint32)):
            cb = build_codebook([10, 10], key_bits, seed=key_bits)
            key = infotools.codebook_key_of_all(cb)
            assert key.dtype == dtype
            np.testing.assert_array_equal(key, cb.position >> cb.bin_bits)


class TestEmpiricalMi:
    def test_independent_bits_noise_floor(self):
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.integers(0, 2, 100_000)
        y = rng.integers(0, 2, 100_000)
        est = empirical_mi(x, y, bootstrap=200)
        assert abs(est.mi_bits) <= 0.01
        assert not est.unreliable

    def test_identical_bits(self):
        rng = np.random.Generator(np.random.PCG64(4))
        x = rng.integers(0, 2, 100_000)
        est = empirical_mi(x, x, bootstrap=200)
        assert est.mi_bits == pytest.approx(1.0, abs=0.01)
        assert est.ci_low <= est.mi_bits <= est.ci_high

    def test_dsbs_samples_match_analytic(self):
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.integers(0, 2, 100_000)
        y = x ^ (rng.random(100_000) < 0.11).astype(int)
        est = empirical_mi(x, y, bootstrap=200)
        assert est.mi_bits == pytest.approx(0.5, abs=0.02)

    def test_unreliable_flag(self):
        rng = np.random.Generator(np.random.PCG64(6))
        x = rng.integers(0, 200, 2000)
        y = rng.integers(0, 200, 2000)
        assert empirical_mi(x, y, bootstrap=10).unreliable
        # 1024 x 512 cells, over the 2**18 that one bootstrap chunk
        # draws: a chunk holds one resample
        x[0], y[0] = 1023, 511
        est = empirical_mi(x, y, bootstrap=3)
        assert est.unreliable and est.ci_low <= est.ci_high

    def test_unreliable_threshold_is_strict(self):
        # A 10 x 10 joint alphabet over 1,000 samples is exactly a tenth
        # of the sample count, which is still reliable; 11 x 10 is not.
        x = np.arange(1000) % 10
        y = np.arange(1000) // 100
        assert not empirical_mi(x, y, bootstrap=10).unreliable
        assert empirical_mi(np.minimum(x + y, 10), y,
                            bootstrap=10).unreliable

    def test_rejects_short_samples(self):
        with pytest.raises(ValueError):
            empirical_mi([0, 1] * 100, [0, 1] * 100)

    def test_rejects_no_bootstrap(self):
        with pytest.raises(ValueError):
            empirical_mi([0, 1] * 600, [0, 1] * 600, bootstrap=0)

    def test_one_bootstrap_resample(self):
        # One resample: the interval is that one estimate, on both ends.
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, 2000)
        est = empirical_mi(x, (x + rng.integers(0, 2, 2000)) % 3,
                           bootstrap=1)
        assert est.ci_low == est.ci_high

    # bootstrap=True ran one resample and 2.5 raised a bare TypeError.
    @pytest.mark.parametrize("bootstrap", [True, 2.5, "10", None])
    def test_rejects_non_integer_bootstrap(self, bootstrap):
        with pytest.raises(ValueError, match="bootstrap"):
            empirical_mi([0, 1] * 600, [0, 1] * 600, bootstrap=bootstrap)

    # 0.0 gave a zero-width interval; 2.0 and NaN failed inside np.quantile.
    @pytest.mark.parametrize("confidence", [0.0, 1.0, 2.0, -0.5,
                                            float("nan"), True, "0.9"])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            empirical_mi([0, 1] * 600, [0, 1] * 600, bootstrap=10,
                         confidence=confidence)

    def test_rejects_float_samples(self):
        # Truncated to integers, these floats would read as 1 bit of MI.
        x = np.random.Generator(np.random.PCG64(7)).uniform(0, 1.99, 2000)
        with pytest.raises(ValueError):
            empirical_mi(x, x, bootstrap=10)
        with pytest.raises(ValueError):
            empirical_mi(x.tolist(), x.astype(np.int64), bootstrap=10)

    @pytest.mark.parametrize("samples", [[True, False] * 600,
                                         np.array([True, False] * 600),
                                         ["0", "1"] * 600])
    def test_rejects_non_integer_samples(self, samples):
        with pytest.raises(ValueError):
            empirical_mi(samples, [0, 1] * 600, bootstrap=10)

    @staticmethod
    def _miller_madow_oracle(joint, k_x, k_y):
        # Exact MI of the empirical pmf plus the Miller-Madow term
        # (S_x + S_y - S_xy - 1) / (2 n ln 2), S the supports.
        n = joint.sum()
        pmf = JointPmf(joint.reshape(k_x, k_y) / n)
        supports = (np.count_nonzero(pmf.marginal([0]))
                    + np.count_nonzero(pmf.marginal([1]))
                    - np.count_nonzero(pmf.table) - 1)
        return (exact_mi(pmf, [0], [1])
                + supports / (2.0 * n * math.log(2)))

    def test_rowwise_mi_matches_plugin(self):
        # Every row of joint counts gives the exact MI of its empirical
        # pmf plus the Miller-Madow correction.
        rng = np.random.Generator(np.random.PCG64(8))
        k_x, k_y, n = 3, 5, 2000
        joint = rng.multinomial(n, rng.dirichlet([0.3] * (k_x * k_y)),
                                size=40)
        got = infotools._plugin_mi_rows(joint, k_x, k_y)
        for row, mi in zip(joint, got):
            assert mi == pytest.approx(
                self._miller_madow_oracle(row, k_x, k_y), abs=1e-12)

    def test_point_estimate_is_plugin_of_samples(self):
        rng = np.random.Generator(np.random.PCG64(9))
        x = rng.integers(0, 3, 5000)
        y = (x + (rng.random(5000) < 0.2)) % 3
        est = empirical_mi(x, y, bootstrap=50, seed=2)
        joint = np.bincount(x * 3 + y, minlength=9)
        assert est.mi_bits == pytest.approx(
            self._miller_madow_oracle(joint, 3, 3), abs=1e-12)
        assert est.ci_low <= est.mi_bits <= est.ci_high
