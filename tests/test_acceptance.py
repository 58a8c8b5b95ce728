"""Acceptance suite: one test per criterion, each printing a verdict line."""

import itertools
import json
import math
import time

import numpy as np
import pytest

from pinkey import distillation, infotools, model, pipeline, protocol, rates, wireless
from pinkey.bitops import bits_to_int
from pinkey.cli import main
from pinkey.distillation import RbCodebook, build_codebook, distill, xor_distill
from pinkey.errors import ReconciliationFailure
from pinkey.model import PairSource, PinInstance, ProtocolParams


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def random_instances(count=1000, seed=2024):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(count):
        m = int(rng.integers(2, 7))
        out.append([(float(rng.uniform(0, 4)), float(rng.uniform(0, 4)))
                    for _ in range(m)])
    return out


def test_01_capacity_tightness():
    instances = random_instances()
    start = time.perf_counter()
    worst = 0.0
    for pair_mis in instances:
        i_vals = [min(a, b) for a, b in pair_mis]
        gap = abs(rates.capacity(i_vals)
                  - rates.converse_bound(pair_mis).bound)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    verdict(1, worst <= 1e-12 and elapsed < 1.0,
            f"capacity == cut bound on 1000 instances "
            f"(max gap {worst:.2e}, {elapsed:.3f}s)")


def test_02_capacity_forms_agree():
    worst = max(abs(rates.capacity([min(a, b) for a, b in inst])
                    - rates.capacity_order_stat([min(a, b) for a, b in inst]))
                for inst in random_instances())
    verdict(2, worst <= 1e-12,
            f"drop-the-max and order-statistic forms agree (max gap "
            f"{worst:.2e})")


def test_03_end_to_end_key_agreement():
    inst = PinInstance(
        m=2,
        pairs=[PairSource.ideal_common(2, 1), PairSource.ideal_common(1, 2)],
        params=ProtocolParams(n=2, epsilon_bits=1))
    mismatches = 0
    for seed in range(100):
        res = pipeline.run_once(inst, sample_seed=seed,
                                codebook_seed=7000 + seed)
        mismatches += int(not res.agreed)
    verdict(3, mismatches == 0,
            f"P(K_A != K_B) = 0 over 100 ideal-mode runs "
            f"({mismatches} mismatches)")


def test_04_key_uniformity():
    rng = np.random.Generator(np.random.PCG64(44))
    ok = True
    for _ in range(25):
        widths = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 5)))]
        key_bits = int(rng.integers(0, sum(widths) + 1))
        cb = build_codebook(widths, key_bits, seed=int(rng.integers(1 << 30)))
        counts = np.bincount(infotools.codebook_key_of_all(cb),
                             minlength=cb.num_bins)
        # Equal bin occupancy under uniform input means H(K) = key_bits
        # exactly.
        ok &= bool((counts == cb.bin_size).all())
    verdict(4, ok, "every codebook partitions into exactly equal bins "
                   "(H(K) = key budget)")


def test_05_leakage_decreases_with_budget():
    start = time.perf_counter()
    per_key_bit = []
    for b in (2, 4, 6, 8):
        key_bits = b - math.ceil(b / 4)
        maxima = []
        for c in range(100):
            cb = build_codebook([b, b], key_bits, seed=1000 * b + c)
            maxima.append(max(infotools.leakage_audit(cb, m).mi_bits
                              for m in (0, 1)))
        per_key_bit.append(float(np.mean(maxima)) / key_bits)
    decreasing = all(x > y for x, y in zip(per_key_bit, per_key_bit[1:]))
    small = per_key_bit[-1] < 0.05

    # Degenerate one-bit case with no withheld slack: enumerated
    # all-partitions oracle, computed without the audit code path.
    audit_leaks, oracle_leaks = [], []
    for bin0 in itertools.combinations(range(4), 2):
        pos = np.empty(4, dtype=np.int64)
        rest = [w for w in range(4) if w not in bin0]
        for j, w in enumerate(bin0):
            pos[w] = j
        for j, w in enumerate(rest):
            pos[w] = 2 + j
        cb = RbCodebook([1, 1], 1, pos)
        audit_leaks.append(infotools.leakage_audit(cb, 0).mi_bits)
        # Oracle: direct plug-in MI over the 4 equally likely codewords.
        joint = {}
        for w1, w2 in itertools.product(range(2), repeat=2):
            k = 0 if (w1 << 1 | w2) in bin0 else 1
            joint[(k, w1)] = joint.get((k, w1), 0) + 0.25
        pk = {k: sum(v for (kk, _), v in joint.items() if kk == k)
              for k in (0, 1)}
        pw = {w: sum(v for (_, ww), v in joint.items() if ww == w)
              for w in (0, 1)}
        oracle_leaks.append(sum(v * math.log2(v / (pk[k] * pw[w]))
                                for (k, w), v in joint.items() if v > 0))
    degenerate_ok = (abs(np.mean(audit_leaks) - 1.0 / 3.0) <= 1e-12
                     and np.allclose(audit_leaks, oracle_leaks, atol=1e-12))
    elapsed = time.perf_counter() - start
    verdict(5, decreasing and small and degenerate_ok and elapsed < 300,
            f"mean per-key-bit leakage {['%.4f' % x for x in per_key_bit]} "
            f"strictly decreasing, < 0.05 at b=8; degenerate mean "
            f"{np.mean(audit_leaks):.6f} == 1/3 ({elapsed:.1f}s)")


def test_06_xor_baseline():
    # Zero leakage on all equal-length exhaustive cases (<= 16 total bits).
    exhaustive_ok = True
    for m, b in [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]:
        size = 1 << b
        keys = np.array([bits_to_int(xor_distill(
            [np.array([(w >> (b * (m - 1 - i) + b - 1 - j)) & 1
                       for j in range(b)], dtype=np.uint8)
             for i in range(m)]))
            for w in range(1 << (m * b))])
        for relay in range(m):
            shift = b * (m - 1 - relay)
            w_m = (np.arange(1 << (m * b)) >> shift) & (size - 1)
            counts = np.zeros((keys.max() + 1, size))
            np.add.at(counts, (keys, w_m), 1)
            pmf = infotools.JointPmf(counts / counts.sum())
            exhaustive_ok &= infotools.exact_mi(pmf, (0,), (1,)) <= 1e-12

    dominated = all(
        rates.xor_baseline_rate([min(a, b) for a, b in inst])
        <= rates.capacity([min(a, b) for a, b in inst]) + 1e-12
        for inst in random_instances())

    msgs = [np.array([1]), np.array([0]), np.array([0]), np.array([1])]
    gap_ok = (xor_distill(msgs).size == 2
              and pipeline.key_bits_for([1, 1, 1, 1], 0) == 3)
    verdict(6, exhaustive_ok and dominated and gap_ok,
            "XOR key leaks nothing exhaustively, never beats the binning "
            "rate, and shows the floor(M/2) vs M-1 gap at M=4")


def test_07_wireless_formula_mc_validation():
    rng = np.random.Generator(np.random.PCG64(777))
    worst = 0.0
    start = time.perf_counter()
    for _ in range(10):
        m = 2
        alloc = [int(rng.integers(1, 5)) for _ in range(m + 2)]
        cfg = wireless.WirelessConfig(
            m=m, power=float(rng.uniform(1.0, 8.0)),
            noise_var=float(rng.uniform(0.5, 1.5)),
            channel_vars=[(float(rng.uniform(0.5, 2.0)),
                           float(rng.uniform(0.5, 2.0))) for _ in range(m)],
            block_len=sum(alloc), allocation=alloc)
        res = wireless.mc_estimate_check(cfg, int(rng.integers(m)),
                                         1_000_000,
                                         seed=int(rng.integers(1 << 30)))
        worst = max(worst, res.gap / res.formula_value)
    elapsed = time.perf_counter() - start
    verdict(7, worst <= 0.02 and elapsed < 600,
            f"Monte Carlo estimate within 2% of the closed form on 10 "
            f"configs (worst {worst:.4f}, {elapsed:.1f}s)")


def test_08_multiplexing_gains():
    ok = True
    detail = []
    for m in (2, 3, 4, 6):
        row = wireless.multiplexing_gain_sweep(m, [1e6, 1e8])[-1]
        ok &= abs(row.rb_ratio - (m - 1)) <= 0.05
        ok &= abs(row.xor_ratio - m // 2) <= 0.05
        detail.append(f"M={m}: {row.rb_ratio:.3f}/{row.xor_ratio:.3f}")
    verdict(8, ok, "high-power ratios reach M-1 and floor(M/2) "
                   f"({'; '.join(detail)})")


def test_09_reconciliation_sanity():
    rng = np.random.Generator(np.random.PCG64(99))
    relay = rng.integers(0, 2, 7, dtype=np.uint8)
    singles = 0
    for pos in range(7):
        term = relay.copy()
        term[pos] ^= 1
        res = protocol.reconcile_pair(term, relay, 0.1)
        singles += bool(res.kept_mask.all()
                        and np.array_equal(res.key_terminal, res.key_relay))
    doubles = 0
    for p1, p2 in itertools.combinations(range(7), 2):
        term = relay.copy()
        term[p1] ^= 1
        term[p2] ^= 1
        doubles += not protocol.reconcile_pair(term, relay, 0.1).kept_mask.any()
    verdict(9, singles == 7 and doubles == 21,
            f"single flips corrected {singles}/7, double flips flagged "
            f"{doubles}/21")


def test_10_reproducibility(tmp_path):
    config = {
        "seed": 12,
        "protocol": {
            "m": 2,
            "pairs": [{"mode": "ideal_common", "bits_a": 2, "bits_b": 1},
                      {"mode": "ideal_common", "bits_a": 1, "bits_b": 2}],
            "n": 2, "epsilon_bits": 1, "trials": 10},
        "wireless": {"m": 4, "power_grid": [1e3, 1e6, 1e8]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = []
    for run in range(2):
        o1 = tmp_path / f"p{run}.json"
        o2 = tmp_path / f"w{run}.csv"
        assert main(["protocol", "--config", str(cfg), "--out", str(o1)]) == 0
        assert main(["wireless", "--config", str(cfg), "--out", str(o2)]) == 0
        outputs.append((o1.read_bytes(), o2.read_bytes()))
    verdict(10, outputs[0] == outputs[1],
            "identical config+seed gives byte-identical reports")
