"""Key rates from fading-channel estimation in a relay network.

Every fading block of T symbols is split into M+2 training slots; each
node broadcasts a known constant-amplitude training sequence whose energy
is slot length times the per-symbol power budget.  Both ends of a link
form the linear MMSE estimate of the same reciprocal scalar Gaussian
gain; the mutual information between the two estimates is the pairwise
key rate, and the network key rate follows by applying the closed-form
capacity to the per-relay minima and normalizing by T.

Channels are real Gaussian.  A Monte Carlo estimation oracle
(:func:`mc_estimate_check`) validates the closed-form pairwise rate
independently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import rates
from .errors import BudgetExceeded

_EXHAUSTIVE_LIMIT = 10_000_000
_SCORE_CHUNK = 2048


def _as(kind: type, value, what: str):
    """``kind(value)`` for ``kind`` int or float; a boolean, or a value
    that is not integral (int) or real (float), raises ``ValueError``."""
    abc = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, abc):
        raise ValueError(f"{what} must be {abc.__name__.lower()}, "
                         f"got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class WirelessConfig:
    m: int
    power: float
    noise_var: float
    channel_vars: Tuple[Tuple[float, float], ...]  # (Alice-side, Bob-side)
    block_len: int
    allocation: Tuple[int, ...]  # (T_A, T_B, T_1, ..., T_M)

    def __post_init__(self):
        object.__setattr__(self, "channel_vars",
                           tuple((_as(float, a, "channel variance"),
                                  _as(float, b, "channel variance"))
                                 for a, b in self.channel_vars))
        object.__setattr__(self, "allocation",
                           tuple(_as(int, t, "training slot")
                                 for t in self.allocation))
        if self.m < 2:
            raise ValueError("at least two relays are required")
        if not (0 < self.power < math.inf and 0 < self.noise_var < math.inf):
            raise ValueError("power and noise variance must be finite "
                             "and > 0")
        if len(self.channel_vars) != self.m:
            raise ValueError(f"expected {self.m} channel variance pairs")
        if not all(0 < v < math.inf for pair in self.channel_vars
                   for v in pair):
            raise ValueError("channel variances must be finite and > 0")
        if len(self.allocation) != self.m + 2:
            raise ValueError(f"allocation needs {self.m + 2} slots")
        if any(t < 1 for t in self.allocation):
            raise ValueError("every training slot needs >= 1 symbol")
        if sum(self.allocation) != self.block_len:
            raise ValueError("training slots must sum to the block length")

    @property
    def t_a(self) -> int:
        return self.allocation[0]

    @property
    def t_b(self) -> int:
        return self.allocation[1]

    @property
    def t_relays(self) -> Tuple[int, ...]:
        return self.allocation[2:]


def uniform_config(m: int, slot: int = 2, power: float = 1.0,
                   noise_var: float = 1.0,
                   channel_var: float = 1.0) -> WirelessConfig:
    """Fully symmetric configuration: every slot and variance equal."""
    return WirelessConfig(m=m, power=power, noise_var=noise_var,
                          channel_vars=[(channel_var, channel_var)] * m,
                          block_len=slot * (m + 2),
                          allocation=[slot] * (m + 2))


def pairwise_rate(t_i: int, t_alpha: int, power: float, noise_var: float,
                  channel_var: float) -> float:
    """Closed-form pairwise key rate in bits per fading block.

    Equals 0.5*log2(1 + Ti*Ta*P^2*v^2 / (d^2 + (Ti+Ta)*d*v*P)) with v the
    channel variance and d the noise variance, i.e. the Gaussian MI
    between the two MMSE channel estimates.
    """
    if t_i <= 0 or t_alpha <= 0 or power <= 0 or noise_var <= 0 \
            or channel_var <= 0:
        raise ValueError("all arguments must be > 0")
    num = t_i * t_alpha * power ** 2 * channel_var ** 2
    den = noise_var ** 2 + (t_i + t_alpha) * noise_var * channel_var * power
    return 0.5 * math.log2(1.0 + num / den)


@dataclass
class WirelessRateReport:
    pairwise: List[Tuple[float, float]]  # (Alice-side, Bob-side) per relay
    i_g: List[float]                     # per-relay minima
    r_key: float                         # bits per channel use
    xor_r_key: float


def key_rate(config: WirelessConfig) -> WirelessRateReport:
    """Network key rate per channel use for one slot allocation."""
    pairwise = []
    for i in range(config.m):
        var_a, var_b = config.channel_vars[i]
        t_i = config.t_relays[i]
        pairwise.append((
            pairwise_rate(t_i, config.t_a, config.power, config.noise_var,
                          var_a),
            pairwise_rate(t_i, config.t_b, config.power, config.noise_var,
                          var_b),
        ))
    i_g = [min(a, b) for a, b in pairwise]
    return WirelessRateReport(
        pairwise=pairwise,
        i_g=i_g,
        r_key=rates.capacity(i_g) / config.block_len,
        xor_r_key=rates.xor_baseline_rate(i_g) / config.block_len,
    )


def _relay_compositions(m: int, block_len: int):
    """Relay slot counts of every allocation, grouped by relay budget.

    Returns ``(rel, budget)``.  Column c of the (M, C(T-2, M)) array
    ``rel`` is one way (t_1, ..., t_M) to give every relay at least one
    slot, and ``budget[c]`` is its total R.  Budgets run from T-2 down to
    M and each budget's compositions come in lexicographic order, so the
    columns with R <= K are the last C(K, M).  Both arrays use the
    narrowest unsigned dtype that holds T-2.

    Filled in place from the last relay up: the trailing q relays of the
    first C(top, q) columns hold every q-part composition of a budget of
    at most ``top`` in the same order.  The compositions of budget b are
    the (q-1)-part ones of budget at most b-1 (a suffix of the level
    below) led by the slots left over for relay M-q.
    """
    longest = block_len - m - 1
    dtype = np.min_scalar_type(block_len - 2)
    rel = np.empty((m, math.comb(block_len - 2, m)), dtype=dtype)
    rel[m - 1, :longest] = np.arange(longest, 0, -1)
    for q in range(2, m + 1):
        top, row = longest + q - 1, m - q
        head = math.comb(top - 1, q - 1)
        # lengths of the level-below blocks, budgets top-1 down to q-1
        counts = [math.comb(r - 1, q - 2) for r in range(top - 1, q - 2, -1)]
        pos = 0
        for b in range(top, q - 1, -1):
            n = math.comb(b - 1, q - 1)
            if pos:
                rel[row + 1:, pos:pos + n] = rel[row + 1:, head - n:head]
            rel[row, pos:pos + n] = np.repeat(
                np.arange(1, b - q + 2, dtype=dtype), counts[top - b:])
            pos += n
    budget = np.repeat(np.arange(block_len - 2, m - 1, -1, dtype=dtype),
                       [math.comb(b - 1, m - 1)
                        for b in range(block_len - 2, m - 1, -1)])
    return rel, budget


def _rate_table(m: int, block_len: int, power: float, noise_var: float,
                channel_vars) -> np.ndarray:
    """tab[i, side, t_i, t_alpha]: pairwise rate of relay i with Alice
    (side 0) or Bob (side 1) for every slot pair one allocation can hold.

    Filled by the scalar :func:`pairwise_rate`, so a lookup returns the
    very float :func:`key_rate` computes.  Index 0 is unused.  The rate
    is exactly symmetric in (t_i, t_alpha), whose product and sum are
    exact integers, so only t_i <= t_alpha is computed and the rest is
    mirrored.
    """
    longest = block_len - m - 1
    tab = np.zeros((m, 2, longest + 1, longest + 1))
    for i, sides in enumerate(channel_vars):
        for side, var in enumerate(sides):
            for t_i in range(1, longest + 1):
                for t_alpha in range(t_i, longest + 1):
                    tab[i, side, t_i, t_alpha] = pairwise_rate(
                        t_i, t_alpha, power, noise_var, var)
    below = np.tril_indices(longest + 1, -1)
    tab[..., below[0], below[1]] = tab[..., below[1], below[0]]
    return tab


@dataclass
class AllocationResult:
    allocation: Tuple[int, ...]
    r_key: float
    method: str  # always "exhaustive"; written to the output files


def optimize_allocation(m: int, block_len: int, power: float,
                        noise_var: float,
                        channel_vars: Sequence[Tuple[float, float]]
                        ) -> AllocationResult:
    """Best training-slot allocation for the network key rate.

    Exhaustive over all C(T-1, M+1) compositions of the block length T
    into M+2 positive slots.  After validating the inputs, raises
    :class:`BudgetExceeded` when that count is over 10^7, before any
    table is built.

    The exhaustive search validates the inputs once and tabulates the
    pairwise rate of every (relay, side, relay slot, terminal slot) with
    the scalar :func:`pairwise_rate` (M*(T-M-1)*(T-M) calls, the rate
    being symmetric in its two slot counts).  It builds the relay slot
    counts of every relay budget R = T-2, ..., M once (C(T-2, M) columns
    of narrow integers, descending R).  For Alice's slot count t_A, the
    allocations (t_A, t_B, t_1..t_M) are, in lexicographic order, the
    suffix with R <= T-t_A-1 and t_B = T-t_A-R; each suffix is scored in
    chunks of at most 2048 rows with one flat table lookup per side, one
    :func:`rates.capacity` call over the relay-major minima and one
    argmax, so every rate is the float :func:`key_rate` would return.
    Ties go to the first allocation in lexicographic order.  On a 2-core
    x86 machine M=4, T=30 (118,755 allocations) takes about 6 ms,
    T=40 (575,757) about 30 ms and T=68 (9,657,648) about 0.4 s, with
    tracemalloc peaks of 0.4, 0.7 and 4 MiB.
    """
    parts = m + 2
    if block_len < parts:
        raise ValueError(f"block length {block_len} cannot host "
                         f"{parts} nonempty slots")
    first = (1,) * (parts - 1) + (block_len - parts + 1,)
    config = WirelessConfig(m=m, power=power, noise_var=noise_var,
                            channel_vars=channel_vars, block_len=block_len,
                            allocation=first)  # validates the inputs once
    count = math.comb(block_len - 1, parts - 1)
    if count > _EXHAUSTIVE_LIMIT:
        raise BudgetExceeded(
            f"slot allocation of M={m}, T={block_len} has {count:,} "
            f"compositions, over the {_EXHAUSTIVE_LIMIT:,} budget")
    tab = _rate_table(m, block_len, power, noise_var, config.channel_vars)
    rel, budget = _relay_compositions(m, block_len)
    stride = tab.shape[-1]
    # flat index of tab[i, 0, 0, 0] per relay; side 1 adds stride**2
    base = (np.arange(m) * tab[0].size)[:, None]
    flat = tab.ravel()
    cols = rel.shape[1]
    best, best_rate = None, -1.0
    for t_a in range(1, block_len - m):
        # every (t_B, t_1..t_M) with this t_A: the budgets R <= T-t_A-1
        for lo in range(cols - math.comb(block_len - t_a - 1, m), cols,
                        _SCORE_CHUNK):
            hi = min(lo + _SCORE_CHUNK, cols)
            idx = np.multiply(rel[:, lo:hi], stride, dtype=np.intp)
            idx += base + t_a
            i_a = flat.take(idx)
            # tab[i, 1, t_i, t_B] lies stride**2 + t_B - t_A further on
            idx += np.subtract(block_len - 2 * t_a + stride * stride,
                               budget[lo:hi], dtype=np.intp)
            i_g = np.minimum(i_a, flat.take(idx), out=i_a)
            r_key = rates.capacity(i_g.T) / block_len
            j = int(np.argmax(r_key))
            if r_key[j] > best_rate:
                best_rate = float(r_key[j])
                best = (t_a, block_len - t_a - int(budget[lo + j]),
                        *rel[:, lo + j].tolist())
    return AllocationResult(best, best_rate, "exhaustive")


@dataclass
class SweepRow:
    power: float
    rb_ratio: float
    xor_ratio: float
    r_key: float
    r_s: float


def multiplexing_gain_sweep(m: int, p_grid: Sequence[float],
                            slot: int = 2, noise_var: float = 1.0,
                            channel_var: float = 1.0) -> List[SweepRow]:
    """Key rate over a power grid of powers P > 1, normalized by
    r_s = log2(P)/(2T).

    Uses the balanced symmetric family (equal slots and unit-ratio
    variances) so the high-power ratios converge to M-1 for the binning
    scheme and floor(M/2) for the XOR baseline.
    """
    p_grid = [_as(float, p, "grid power") for p in p_grid]
    if not p_grid or any(b <= a for a, b in zip(p_grid, p_grid[1:])):
        raise ValueError("power grid must be nonempty and increasing")
    if not all(p > 1.0 for p in p_grid):
        raise ValueError("every grid power must exceed 1: r_s = "
                         "log2(P)/(2T) is zero or negative otherwise")
    rows = []
    for power in p_grid:
        cfg = uniform_config(m, slot=slot, power=power, noise_var=noise_var,
                             channel_var=channel_var)
        report = key_rate(cfg)
        r_s = math.log2(power) / (2.0 * cfg.block_len)
        rows.append(SweepRow(power=power,
                             rb_ratio=report.r_key / r_s,
                             xor_ratio=report.xor_r_key / r_s,
                             r_key=report.r_key,
                             r_s=r_s))
    return rows


@dataclass
class McCheckResult:
    mi_estimate: float
    formula_value: float
    gap: float
    samples: int
    degenerate: bool  # noiseless limit; gap check not meaningful


def mc_estimate_check(config: WirelessConfig, pair_index: int,
                      samples: int, seed: int = 0,
                      side: str = "A") -> McCheckResult:
    """Monte Carlo validation of the closed-form pairwise rate.

    Simulates the reciprocal scalar gain per block, forms both ends'
    MMSE estimates from their noisy training observations, and computes
    the Gaussian MI from the sample correlation via -0.5*log2(1-rho^2).
    """
    if samples < 100_000:
        raise ValueError("need at least 1e5 samples")
    if not 0 <= pair_index < config.m:
        raise ValueError(f"pair index out of range: {pair_index}")
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B': {side!r}")
    var_h = config.channel_vars[pair_index][0 if side == "A" else 1]
    t_alpha = config.t_a if side == "A" else config.t_b
    t_i = config.t_relays[pair_index]
    e_relay = t_i * config.power       # relay training seen by the terminal
    e_term = t_alpha * config.power    # terminal training seen by the relay
    formula = pairwise_rate(t_i, t_alpha, config.power, config.noise_var,
                            var_h)

    degenerate = config.noise_var <= 1e-12 * var_h * min(e_relay, e_term)
    if degenerate:
        return McCheckResult(mi_estimate=math.inf, formula_value=formula,
                             gap=math.inf, samples=samples, degenerate=True)

    rng = np.random.Generator(np.random.PCG64(seed))
    h = rng.normal(0.0, math.sqrt(var_h), samples)
    noise_sd = math.sqrt(config.noise_var)
    # Matched-filter outputs, then MMSE scaling at each end.
    z_term = math.sqrt(e_relay) * h + rng.normal(0.0, noise_sd, samples)
    z_relay = math.sqrt(e_term) * h + rng.normal(0.0, noise_sd, samples)
    est_term = (math.sqrt(e_relay) * var_h
                / (e_relay * var_h + config.noise_var)) * z_term
    est_relay = (math.sqrt(e_term) * var_h
                 / (e_term * var_h + config.noise_var)) * z_relay
    rho = float(np.corrcoef(est_term, est_relay)[0, 1])
    mi = -0.5 * math.log2(max(1.0 - rho * rho, 1e-300))
    return McCheckResult(mi_estimate=mi, formula_value=formula,
                         gap=abs(mi - formula), samples=samples,
                         degenerate=False)
