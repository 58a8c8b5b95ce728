"""Instance builders and plain-Python oracles shared by the test modules."""

import numpy as np

from pinkey.model import PairSource, PinInstance, ProtocolParams


def ideal_instance(bit_pairs, n=1, epsilon_bits=1):
    pairs = [PairSource.ideal_common(a, b) for a, b in bit_pairs]
    return PinInstance(m=len(pairs), pairs=pairs,
                       params=ProtocolParams(n=n, epsilon_bits=epsilon_bits))


def dsbs_instance(crossovers, n):
    pairs = [PairSource.dsbs(p, p) for p in crossovers]
    return PinInstance(m=len(pairs), pairs=pairs,
                       params=ProtocolParams(n=n))


def int_to_bits_oracle(value, width):
    """Big-endian bits of ``value`` in ``width`` bits, as uint8."""
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)],
                    dtype=np.uint8)


def assert_round_robin(rounds, num_relays):
    """The documented schedule, worked out from the relay count alone:
    round indices strictly increase, and with period M+2 relay i (sender
    ``relay-{i+1}``) owns the rounds = i+1, Alice those = M+1 and Bob
    those = 0 (mod M+2)."""
    period = num_relays + 2
    owner = {f"relay-{i + 1}": i + 1 for i in range(num_relays)}
    owner.update(alice=num_relays + 1, bob=0)
    # Rounds are numbered from 1.
    indices = [0] + [rnd.index for rnd in rounds]
    assert all(a < b for a, b in zip(indices, indices[1:])), indices
    for rnd in rounds:
        assert rnd.index % period == owner[rnd.sender], (rnd.index,
                                                         rnd.sender)
