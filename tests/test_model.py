import math

import numpy as np
import pytest
from scipy import stats

from pinkey import model
from pinkey.model import (PairSource, PinInstance, ProtocolParams,
                          binary_entropy, pair_mutual_informations, sample)


def make_instance(pairs, n=4):
    return PinInstance(m=len(pairs), pairs=pairs, params=ProtocolParams(n=n))


class TestPairSource:
    def test_ideal_common_mi(self):
        assert PairSource.ideal_common(3, 2).mutual_informations() == (3.0, 2.0)

    def test_dsbs_mi_half_bit(self):
        ia, ib = PairSource.dsbs(0.11, 0.11).mutual_informations()
        # 1 - h2(0.11) = 0.5000 to three decimals
        assert ia == pytest.approx(0.5, abs=1e-3)
        assert ib == pytest.approx(0.5, abs=1e-3)

    def test_dsbs_extremes(self):
        ia, ib = PairSource.dsbs(0.5, 0.25).mutual_informations()
        assert ia == 0.0
        assert ib == pytest.approx(1.0 - binary_entropy(0.25))

    def test_invalid_crossover(self):
        with pytest.raises(ValueError):
            PairSource.dsbs(0.6, 0.1)
        with pytest.raises(ValueError):
            PairSource.dsbs(-0.1, 0.1)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            PairSource.ideal_common(-1, 0)
        # zero shared bits on a side is a valid (empty) pair
        assert PairSource.ideal_common(0, 0).mutual_informations() == (0, 0)

    @pytest.mark.parametrize("build", [
        lambda: PairSource.ideal_common(2.5, 1),
        lambda: PairSource.ideal_common(True, 1),
        lambda: PairSource.dsbs("0.1", 0.2),
        lambda: PairSource.dsbs(0.1, False),
        lambda: PairSource(mode="dsbs", crossover_a="0.1"),
        lambda: PairSource(mode="dsbs", crossover_b=False),
        lambda: PairSource.dsbs(10 ** 400, 0.1)])
    def test_constructors_reject_unconverted_values(self, build):
        # Nothing is coerced: 2.5 is not 2 bits, true is not 1 bit and a
        # string is not a probability.
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("mode,field,value", [
        ("dsbs", "bits_a", 9), ("dsbs", "bits_b", 1),
        ("ideal_common", "crossover_a", 0.4),
        ("ideal_common", "crossover_b", 1e-9)])
    def test_field_of_other_mode_rejected(self, mode, field, value):
        with pytest.raises(ValueError, match="other mode"):
            PairSource(mode=mode, **{field: value})

    def test_explicit_zeros_of_other_mode_accepted(self):
        ideal = PairSource(mode="ideal_common", bits_a=2, bits_b=1,
                           crossover_a=0.0, crossover_b=0)
        noisy = PairSource(mode="dsbs", crossover_a=0.1, crossover_b=0.2,
                           bits_a=0, bits_b=0)
        assert ideal == PairSource.ideal_common(2, 1)
        assert noisy == PairSource.dsbs(0.1, 0.2)


class TestInstanceValidation:
    def test_rejects_single_relay(self):
        with pytest.raises(ValueError):
            PinInstance(m=1, pairs=[PairSource.ideal_common(1, 1)],
                        params=ProtocolParams(n=1))

    def test_rejects_pair_count_mismatch(self):
        with pytest.raises(ValueError):
            PinInstance(m=3, pairs=[PairSource.ideal_common(1, 1)] * 2,
                        params=ProtocolParams(n=1))

    # These were accepted and failed only later, in sample.
    @pytest.mark.parametrize("pairs", [
        [1, 2], [PairSource.ideal_common(1, 1), (1, 1)],
        [PairSource.ideal_common(1, 1), {"mode": "ideal_common"}]])
    def test_rejects_pairs_that_are_not_pair_sources(self, pairs):
        with pytest.raises(ValueError, match="PairSource"):
            PinInstance(m=2, pairs=pairs)

    @pytest.mark.parametrize("m", [2.0, True, "2", None])
    def test_rejects_non_integer_relay_count(self, m):
        with pytest.raises(ValueError):
            PinInstance(m=m, pairs=[PairSource.ideal_common(1, 1)] * 2)

    def test_accepts_numpy_integer_relay_count(self):
        inst = PinInstance(m=np.int64(2),
                           pairs=[PairSource.ideal_common(1, 1)] * 2)
        assert type(inst.m) is int and inst.m == 2

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=0)
        with pytest.raises(ValueError):
            ProtocolParams(n=1, epsilon_bits=-1)

    @pytest.mark.parametrize("kwargs", [
        {"n": 2.5}, {"n": 2.0}, {"n": True}, {"n": "2"},
        {"n": 2, "epsilon_bits": True}, {"n": 2, "epsilon_bits": 1.0}])
    def test_rejects_non_integer_params(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)

    def test_accepts_numpy_integer_params(self):
        params = ProtocolParams(n=np.int64(3), epsilon_bits=np.uint8(0))
        assert (params.n, params.epsilon_bits) == (3, 0)

    def test_library_defaults(self):
        # One withheld key bit, and a one-symbol blocklength for an
        # instance built without parameters.
        assert ProtocolParams(n=5).epsilon_bits == 1
        inst = PinInstance(m=2, pairs=[PairSource.ideal_common(1, 1)] * 2)
        assert inst.params == ProtocolParams(n=1)


class TestSampling:
    def test_ideal_common_shared_exactly(self):
        inst = make_instance([PairSource.ideal_common(1, 1)] * 2, n=4)
        real = sample(inst, 7)
        for i in range(2):
            assert real.x_a[i].size == 4
            np.testing.assert_array_equal(real.x_a[i], real.x_relays[i][0])
            np.testing.assert_array_equal(real.x_b[i], real.x_relays[i][1])

    def test_zero_crossover_identical(self):
        inst = make_instance([PairSource.dsbs(0.0, 0.0)] * 2, n=8)
        real = sample(inst, 3)
        np.testing.assert_array_equal(real.x_a[0], real.x_relays[0][0])

    def test_half_crossover_agreement_rate(self):
        # Independent counting check of the law of large numbers.
        inst = make_instance([PairSource.dsbs(0.5, 0.5)] * 2, n=100_000)
        real = sample(inst, 11)
        agree = np.mean(real.x_a[0] == real.x_relays[0][0])
        assert agree == pytest.approx(0.5, abs=0.005)

    def test_deterministic_in_seed(self):
        inst = make_instance([PairSource.dsbs(0.2, 0.3),
                              PairSource.ideal_common(2, 1)], n=64)
        a = sample(inst, 42)
        b = sample(inst, 42)
        for i in range(2):
            np.testing.assert_array_equal(a.x_a[i], b.x_a[i])
            np.testing.assert_array_equal(a.x_b[i], b.x_b[i])
            np.testing.assert_array_equal(a.x_relays[i][0], b.x_relays[i][0])
        c = sample(inst, 43)
        assert any(not np.array_equal(a.x_a[i], c.x_a[i]) for i in range(2))

    def test_substream_isolation(self):
        # Changing pair 1's parameters leaves pair 0's bits untouched.
        base = make_instance([PairSource.dsbs(0.1, 0.1),
                              PairSource.dsbs(0.1, 0.1)], n=256)
        other = make_instance([PairSource.dsbs(0.1, 0.1),
                               PairSource.ideal_common(3, 3)], n=256)
        ra, rb = sample(base, 5), sample(other, 5)
        np.testing.assert_array_equal(ra.x_a[0], rb.x_a[0])
        np.testing.assert_array_equal(ra.x_relays[0][0], rb.x_relays[0][0])
        np.testing.assert_array_equal(ra.x_relays[0][1], rb.x_relays[0][1])

    def test_dsbs_joint_law_chi_squared(self):
        p = 0.2
        inst = make_instance([PairSource.dsbs(p, p)] * 2, n=100_000)
        real = sample(inst, 19)
        relay, term = real.x_relays[0][0], real.x_a[0]
        counts = np.bincount(2 * relay.astype(int) + term.astype(int),
                             minlength=4)
        expected = 100_000 * np.array([(1 - p) / 2, p / 2, p / 2,
                                       (1 - p) / 2])
        _, pvalue = stats.chisquare(counts, expected)
        assert pvalue > 0.01


def test_pair_mutual_informations():
    inst = make_instance([PairSource.ideal_common(3, 2),
                          PairSource.dsbs(0.5, 0.25)])
    mis = pair_mutual_informations(inst)
    assert mis[0] == (3.0, 2.0)
    assert mis[1][0] == 0.0
    assert mis[1][1] == pytest.approx(1.0 - binary_entropy(0.25))


def test_binary_entropy_endpoints():
    assert binary_entropy(0) == binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


@pytest.mark.parametrize("p", [True, False, "0.2", None, math.nan])
def test_binary_entropy_rejects_non_reals(p):
    with pytest.raises(ValueError):
        binary_entropy(p)
