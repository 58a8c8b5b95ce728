"""Source models for the relay-assisted key network.

Each of the M relays shares one correlated pair of observations with Alice
and one with Bob; pairs are mutually independent.  Two concrete pair modes
are provided:

* ``ideal_common`` -- both ends of a pair see the same uniform bit string
  (``bits_a`` / ``bits_b`` bits per repetition).  Key agreement is exact, so
  the distillation stage can be audited in isolation.
* ``dsbs`` -- a doubly symmetric binary source: the relay holds a uniform
  bit, the terminal sees it through a symmetric flip with the given
  crossover probability.  This mode exercises real reconciliation.

Sampling uses one independent substream per (pair, side), so altering one
pair's parameters never perturbs another pair's realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import as_number

MODE_IDEAL = "ideal_common"
MODE_DSBS = "dsbs"

_SIDE_A = 0
_SIDE_B = 1


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable; ``p`` must be a real
    number in [0, 1] (a bool or a string raises ``ValueError``)."""
    p = as_number(float, p, "probability")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class PairSource:
    """Joint law of one correlated pair on each side of a relay."""

    mode: str
    bits_a: int = 0
    bits_b: int = 0
    crossover_a: float = 0.0
    crossover_b: float = 0.0

    def __post_init__(self):
        if self.mode not in (MODE_IDEAL, MODE_DSBS):
            raise ValueError(f"unknown pair mode: {self.mode!r}")
        ideal = self.mode == MODE_IDEAL
        bits = (self.bits_a, self.bits_b)
        crossovers = (self.crossover_a, self.crossover_b)
        own, other = (bits, crossovers) if ideal else (crossovers, bits)
        if any(other):
            raise ValueError(f"{self.mode} pair sets a field of the other "
                             f"mode: {other}")
        for v in own:
            as_number(int if ideal else float, v, f"{self.mode} pair field")
        if ideal and min(bits) < 0:
            raise ValueError("shared bit counts must be >= 0")
        if not ideal and not all(0.0 <= p <= 0.5 for p in crossovers):
            raise ValueError(f"crossover must lie in [0, 0.5]: {crossovers}")

    @classmethod
    def ideal_common(cls, bits_a: int, bits_b: int) -> "PairSource":
        return cls(mode=MODE_IDEAL, bits_a=bits_a, bits_b=bits_b)

    @classmethod
    def dsbs(cls, crossover_a: float, crossover_b: float) -> "PairSource":
        return cls(mode=MODE_DSBS, crossover_a=crossover_a,
                   crossover_b=crossover_b)

    def mutual_informations(self) -> Tuple[float, float]:
        """Per-repetition MI (bits) of the Alice-side and Bob-side pairs."""
        if self.mode == MODE_IDEAL:
            return float(self.bits_a), float(self.bits_b)
        return (1.0 - binary_entropy(self.crossover_a),
                1.0 - binary_entropy(self.crossover_b))


@dataclass(frozen=True)
class ProtocolParams:
    """Blocklength and rate slack for one protocol run.

    The rate slack materializes as a whole number of withheld key bits
    (``epsilon_bits``) so the equal-size bin partition stays exact.
    """

    n: int
    epsilon_bits: int = 1

    def __post_init__(self):
        as_number(int, self.n, "n")
        as_number(int, self.epsilon_bits, "epsilon_bits")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.epsilon_bits < 0:
            raise ValueError("epsilon_bits must be >= 0")


@dataclass(frozen=True)
class PinInstance:
    """Full network description: M relays, their pair sources, parameters."""

    m: int
    pairs: Tuple[PairSource, ...]
    params: ProtocolParams = field(default_factory=lambda: ProtocolParams(n=1))

    def __post_init__(self):
        object.__setattr__(self, "m", as_number(int, self.m, "relay count"))
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if self.m < 2:
            raise ValueError("the model requires at least two relays")
        if len(self.pairs) != self.m:
            raise ValueError(f"expected {self.m} pair sources, "
                             f"got {len(self.pairs)}")
        if not all(isinstance(p, PairSource) for p in self.pairs):
            raise ValueError("every pair must be a PairSource")


@dataclass
class SourceRealization:
    """One sampled block of n repetitions at every terminal.

    ``x_a[i]`` / ``x_b[i]`` are the terminal-side component sequences;
    ``x_relays[i]`` is the pair (Alice-side, Bob-side) held by relay i.
    """

    n: int
    x_a: List[np.ndarray]
    x_b: List[np.ndarray]
    x_relays: List[Tuple[np.ndarray, np.ndarray]]


def _substream(seed: int, pair_index: int, side: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(pair_index, side))
    return np.random.Generator(np.random.PCG64(ss))


def _sample_side(pair: PairSource, n: int, rng: np.random.Generator,
                 side: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return (terminal sequence, relay sequence) for one side of a pair."""
    if pair.mode == MODE_IDEAL:
        bits = pair.bits_a if side == _SIDE_A else pair.bits_b
        shared = rng.integers(0, 2, size=n * bits, dtype=np.uint8)
        return shared, shared.copy()
    crossover = pair.crossover_a if side == _SIDE_A else pair.crossover_b
    relay_seq = rng.integers(0, 2, size=n, dtype=np.uint8)
    flips = (rng.random(n) < crossover).astype(np.uint8)
    return relay_seq ^ flips, relay_seq


def sample(instance: PinInstance, seed: int) -> SourceRealization:
    """Sample n i.i.d. repetitions at Alice, Bob and every relay.

    Deterministic in (instance, seed); each (pair, side) draws from its own
    substream.
    """
    n = instance.params.n
    x_a, x_b, x_relays = [], [], []
    for i, pair in enumerate(instance.pairs):
        term_a, relay_a = _sample_side(pair, n, _substream(seed, i, _SIDE_A),
                                       _SIDE_A)
        term_b, relay_b = _sample_side(pair, n, _substream(seed, i, _SIDE_B),
                                       _SIDE_B)
        x_a.append(term_a)
        x_b.append(term_b)
        x_relays.append((relay_a, relay_b))
    return SourceRealization(n=n, x_a=x_a, x_b=x_b, x_relays=x_relays)


# Only the tests call this; it stays because perfbench's TRACED looks it up.
def pair_mutual_informations(instance: PinInstance) -> List[Tuple[float, float]]:
    """Closed-form (I_A_i, I_B_i) in bits for every relay pair."""
    return [pair.mutual_informations() for pair in instance.pairs]
