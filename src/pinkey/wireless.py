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
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import rates
from .errors import BudgetExceeded, as_number

_EXHAUSTIVE_LIMIT = 10_000_000
# Slot counts and block lengths lie in [1, _MAX_SLOTS): below 2**53 the
# float slot products of _rates are exact products rounded once.
_MAX_SLOTS = 2 ** 53
_SCORE_CHUNK = 4096


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
                           tuple((as_number(float, a, "channel variance"),
                                  as_number(float, b, "channel variance"))
                                 for a, b in self.channel_vars))
        object.__setattr__(self, "allocation",
                           tuple(as_number(int, t, "training slot")
                                 for t in self.allocation))
        for field, kind, what in (("m", int, "m"),
                                  ("block_len", int, "block_len"),
                                  ("power", float, "power"),
                                  ("noise_var", float, "noise variance")):
            object.__setattr__(self, field,
                               as_number(kind, getattr(self, field), what))
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
        if not all(1 <= t < _MAX_SLOTS for t in self.allocation):
            raise ValueError("every training slot needs 1 to 2**53 - 1 "
                             "symbols")
        if not 1 <= self.block_len < _MAX_SLOTS:
            raise ValueError("block_len must lie in [1, 2**53)")
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
    """Fully symmetric configuration: every slot and variance equal.

    ``m`` and ``slot`` must be integers; a bool, a float or a string
    raises ``ValueError``.
    """
    m, slot = as_number(int, m, "m"), as_number(int, slot, "slot")
    return WirelessConfig(m=m, power=power, noise_var=noise_var,
                          channel_vars=[(channel_var, channel_var)] * m,
                          block_len=slot * (m + 2),
                          allocation=[slot] * (m + 2))


def _rates(t_i, t_alpha, power: float, noise_var: float,
           variances) -> np.ndarray:
    """Pairwise key rates 0.5*log2(1 + Ti*Ta*P^2*v^2 / (d^2 + (Ti+Ta)*d*v*P))
    in bits per fading block for integer slot counts ``t_i``, ``t_alpha``
    and channel variances v, broadcast together; d is the noise variance.

    The one evaluation of the formula: the squares are Python floats, the
    rest runs left to right and the log is ``math.log2`` per entry, so
    every entry is the float the scalar formula gives.  A square that
    overflows, or a rate that is not finite, raises ``ValueError``.
    """
    var = np.asarray(variances, dtype=float)
    try:
        p2, n2 = float(power) ** 2, float(noise_var) ** 2
        v2 = np.array([v ** 2 for v in var.ravel().tolist()]).reshape(
            var.shape)
    except OverflowError:
        raise ValueError("rate inputs must be finite: the square of the "
                         "power, a channel or the noise variance "
                         "overflows") from None
    with np.errstate(over="ignore", invalid="ignore"):
        # float slot products cannot wrap as int64 ones can, and for
        # slots below _MAX_SLOTS they are the exact products rounded once
        num = np.multiply(t_i, t_alpha, dtype=float) * p2 * v2
        den = n2 + np.add(t_i, t_alpha, dtype=float) * noise_var * var * power
        args = 1.0 + num / den
    rate = 0.5 * np.fromiter(map(math.log2, args.ravel().tolist()), float,
                             args.size)
    rates._check_finite(rate)
    return rate.reshape(args.shape)


def pairwise_rate(t_i: int, t_alpha: int, power: float, noise_var: float,
                  channel_var: float) -> float:
    """Closed-form pairwise key rate in bits per fading block (the Gaussian
    MI between the two MMSE channel estimates), computed by :func:`_rates`.

    Slot counts must be integers in [1, 2**53), the rest real, finite and
    > 0; a bool, a string, a fractional slot, NaN or inf raises
    ``ValueError``.
    """
    t_i, t_alpha = (as_number(int, t, "training slot")
                    for t in (t_i, t_alpha))
    reals = [as_number(float, x, "rate input")
             for x in (power, noise_var, channel_var)]
    if (not all(1 <= t < _MAX_SLOTS for t in (t_i, t_alpha))
            or not all(0 < x < math.inf for x in reals)):
        raise ValueError("slots must lie in [1, 2**53), power and variances "
                         "finite and > 0")
    return float(_rates(t_i, t_alpha, *reals))


@dataclass
class WirelessRateReport:
    i_g: List[float]                     # per-relay minima
    r_key: float                         # bits per channel use
    xor_r_key: float


def key_rate(config: WirelessConfig) -> WirelessRateReport:
    """Network key rate per channel use for one slot allocation.

    The 2M (relay, Alice or Bob side) pairwise rates come from one
    :func:`_rates` call; ``i_g`` holds each relay's smaller one.  The
    kernel has already checked them, so the capacity and the XOR-pair
    sum take them without a second check.
    """
    pair = _rates(np.array(config.t_relays)[:, None],
                  np.array([config.t_a, config.t_b]), config.power,
                  config.noise_var, config.channel_vars)
    i_g = pair.min(axis=1)
    listed = i_g.tolist()
    return WirelessRateReport(
        i_g=listed,
        r_key=float(rates._capacity(i_g)) / config.block_len,
        xor_r_key=rates._xor_pairs(listed) / config.block_len,
    )


def _relay_compositions(m: int, block_len: int):
    """Relay slot counts of every allocation, grouped by relay budget.

    Column c of the returned (M, C(T-2, M)) array is one way
    (t_1, ..., t_M) to give every relay at least one slot.  Its total, the
    relay budget R, runs from T-2 down to M and each budget's
    compositions come in lexicographic order, so the columns with R <= K
    are the last C(K, M).  The array uses the narrowest unsigned dtype
    that holds T-2.

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
    return rel


def _rate_table(m: int, block_len: int, power: float, noise_var: float,
                channel_vars) -> np.ndarray:
    """tab[i, side, t_i, t_alpha]: pairwise rate of relay i with Alice
    (side 0) or Bob (side 1) for every slot pair one allocation can hold.

    One :func:`_rates` call over the upper triangle t_i <= t_alpha for all
    2M variances, mirrored into the lower one (the rate is symmetric in
    its slot counts), so each entry is the float :func:`pairwise_rate`
    returns and the kernel has already rejected a non-finite one.  Index
    0 is unused.
    """
    longest = block_len - m - 1
    t_i, t_alpha = np.triu_indices(longest)
    t_i += 1
    t_alpha += 1
    rate = _rates(t_i, t_alpha, power, noise_var,
                  np.reshape(channel_vars, (m, 2, 1)))
    tab = np.zeros((m, 2, longest + 1, longest + 1))
    tab[..., t_i, t_alpha] = rate
    tab[..., t_alpha, t_i] = rate
    return tab


def _pair_bounds(tab: np.ndarray, block_len: int) -> np.ndarray:
    """ub[t_A, t_B]: a bound on the r_key of every allocation whose
    terminals hold t_A and t_B slots, -inf where no allocation does.

    The relays share R = T-t_A-t_B slots, so none holds more than
    top = R-M+1.  Relay i's rates at any t <= top are at most their
    running maxima over relay slots 1..top, so its minimum is at most
    g_i = min of the two running maxima; and the capacity, the sum of
    the M-1 smallest values, never falls when one value rises.  So the
    capacity of g bounds every allocation of the pair.  The running
    maximum makes this hold for the float table, which need not grow
    with the slot count when the squares are subnormal.  What rounding
    can still move is the sum less the largest value, by a few ulps of
    the sum on either side; the bound adds 1e-9 of the sum to cover
    that.
    """
    m, stride = tab.shape[0], tab.shape[-1]
    t_a, t_b = np.indices((stride, stride))
    pair = (t_a >= 1) & (t_b >= 1) & (t_a + t_b <= block_len - m)
    t_a, t_b = t_a[pair], t_b[pair]
    top = block_len - m + 1 - t_a - t_b
    cum = np.maximum.accumulate(tab, axis=2)
    g = np.minimum(cum[:, 0, top, t_a], cum[:, 1, top, t_b]).T
    total = rates._total(g)
    ub = np.full((stride, stride), -np.inf)
    ub[t_a, t_b] = (total - g.max(axis=1) + 1e-9 * total) / block_len
    return ub


@dataclass
class AllocationResult:
    allocation: Tuple[int, ...]
    r_key: float
    # always "exhaustive": every composition is scored or bounded below
    # an achieved r_key; written to the output files
    method: str


def optimize_allocation(m: int, block_len: int, power: float,
                        noise_var: float,
                        channel_vars: Sequence[Tuple[float, float]]
                        ) -> AllocationResult:
    """Best training-slot allocation for the network key rate.

    Exact over all C(T-1, M+1) compositions of the block length T into
    M+2 positive slots: each is scored, or bounded below an r_key that
    another allocation reaches.  ``m`` and ``block_len`` must be
    integers (a bool, a float or a string raises ``ValueError``).  After
    validating the inputs, raises :class:`BudgetExceeded` when that count
    is over 10^7, before any table is built.

    The search validates the inputs once and tabulates the pairwise
    rate of every (relay, side, relay slot, terminal slot) with the one
    rate kernel (:func:`_rate_table`), which raises ``ValueError`` on a
    non-finite rate.  It builds the relay slot counts of every relay budget
    R = T-2, ..., M once (C(T-2, M) columns of narrow integers,
    descending R).  For Alice's slot count t_A, the allocations
    (t_A, t_B, t_1..t_M) are, in lexicographic order, the suffix with
    R <= T-t_A-1 and t_B = T-t_A-R, so u = t_A+t_B-2 = T-2-R is fixed
    by the column.  Two tables turn each allocation's per-relay minima
    into one gather:

    - ``gu[u, i, t_i] = min(tab[i, 0, t_i, t_A], tab[i, 1, t_i, t_B])``,
      a (T-M-1, M, T-M) array whose rows u >= t_A-1, the ones t_A's
      suffix reads, are refreshed before t_A's columns are scored;
    - ``ridx[i, c] = u_c*M*(T-M) + i*(T-M) + t_{i,c}``, the flat index
      of column c's entries in ``gu``, built once in place in the
      narrowest unsigned dtype that holds ``gu.size - 1`` (uint16 for
      every M=4 search within the budget, and at M=2 up to T=183).

    A run of columns is scored in chunks of at most 4096 with one
    ``take``, the capacity formula over the relay-major minima and one
    argmax, so every rate is the float :func:`key_rate` would return.

    Pruning: :func:`_pair_bounds` bounds every terminal pair (t_A, t_B).
    The pair with the largest bound is scored first; its best r_key is
    the floor.  The scan then scores, in lexicographic order, only the
    runs of consecutive t_B of each t_A whose bound is >= the floor, and
    refreshes ``gu`` only for a t_A that has one.  A skipped allocation
    scores below the floor, so it can neither beat nor tie the best
    r_key, and the result is the first maximal allocation in
    lexicographic order, as a scan of every composition with a strict
    ``>`` returns.  At M=4, T=30 it scores about 44% of the allocations.

    On a 2-core x86 machine M=4, T=30 (118,755 allocations) takes about
    1.2 ms, T=40 (575,757) about 3.3 ms and T=68 (9,657,648) about
    35 ms, with tracemalloc peaks of 0.6, 1.3 and 8.9 MiB (at T=68 the
    index table is 5.5 MiB of it).
    """
    m = as_number(int, m, "m")
    block_len = as_number(int, block_len, "block_len")
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
    tab = _rate_table(m, block_len, config.power, config.noise_var,
                      config.channel_vars)
    ub = _pair_bounds(tab, block_len)
    rel = _relay_compositions(m, block_len)
    stride = tab.shape[-1]
    # per side, [t_alpha, i, t_i]: one terminal slot's rates, relay-major
    side_a, side_b = tab.transpose(1, 3, 0, 2)
    # gu[u, i, t_i] = min of relay i's two rates at u = t_A + t_B - 2
    gu = np.empty((stride - 1, m, stride))
    dtype = np.min_scalar_type(gu.size - 1)
    cols = rel.shape[1]
    ridx = rel.astype(dtype)
    ridx += (np.arange(m, dtype=dtype) * stride)[:, None]
    # budget R's columns: the last C(R, M) less the last C(R-1, M)
    for r in range(m, block_len - 1):
        ridx[:, cols - math.comb(r, m):cols - math.comb(r - 1, m)] += \
            (block_len - 2 - r) * m * stride
    g = gu.ravel()  # a view: every refresh of gu shows through

    def refresh(t_a):
        # rows u >= t_A - 1 (t_B = 1 .. T-M-t_A) are the ones t_A's
        # columns read; the rows below hold an earlier t_A's minima
        np.minimum(side_a[t_a], side_b[1:block_len - m - t_a + 1],
                   out=gu[t_a - 1:])

    def best_of(t_a, b_first, b_last):
        # first best column, and its r_key, of t_A's allocations with
        # t_B in [b_first, b_last]: the budgets R = T-t_A-t_B
        lo = cols - math.comb(block_len - t_a - b_first, m)
        hi = cols - math.comb(block_len - t_a - b_last - 1, m)
        col, rate = None, -1.0
        for c in range(lo, hi, _SCORE_CHUNK):
            r_key = rates._capacity(
                g.take(ridx[:, c:min(c + _SCORE_CHUNK, hi)]).T) / block_len
            j = int(np.argmax(r_key))
            if r_key[j] > rate:
                col, rate = c + j, float(r_key[j])
        return col, rate

    t_a, t_b = divmod(int(np.argmax(ub)), stride)
    refresh(t_a)
    floor = best_of(t_a, t_b, t_b)[1]
    # runs of consecutive t_B whose bound reaches the floor, in
    # lexicographic order: each is a (t_A, first t_B) edge and a
    # (t_A, last t_B + 1) edge
    t_as, b_edges = (e.reshape(-1, 2).tolist() for e in np.nonzero(
        np.diff(ub >= floor, axis=1, prepend=False, append=False)))
    best, best_rate, fresh = None, -1.0, t_a
    for (t_a, _), (b_first, b_end) in zip(t_as, b_edges):
        if t_a != fresh:
            refresh(t_a)
            fresh = t_a
        col, r_key = best_of(t_a, b_first, b_end - 1)
        if r_key > best_rate:
            best_rate, best = r_key, (t_a, col)
    t_a, col = best
    t_rel = rel[:, col].tolist()
    return AllocationResult((t_a, block_len - t_a - sum(t_rel), *t_rel),
                            best_rate, "exhaustive")


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
    scheme and floor(M/2) for the XOR baseline.  ``m`` and ``slot`` go
    through :func:`uniform_config`, so a non-integer one raises
    ``ValueError``.
    """
    p_grid = [as_number(float, p, "grid power") for p in p_grid]
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


# Only the tests call this; it stays because perfbench's TRACED looks it up.
def mc_estimate_check(config: WirelessConfig, pair_index: int,
                      samples: int, seed: int = 0,
                      side: str = "A") -> McCheckResult:
    """Monte Carlo validation of the closed-form pairwise rate.

    Simulates the reciprocal scalar gain per block, forms both ends'
    MMSE estimates from their noisy training observations, and computes
    the Gaussian MI from the sample correlation via -0.5*log2(1-rho^2).
    """
    pair_index = as_number(int, pair_index, "pair index")
    samples = as_number(int, samples, "sample count")
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
