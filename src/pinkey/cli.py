"""Batch front-end: config ingestion, experiment orchestration, output.

One JSON config file carries per-command sections; flags override config
fields (precedence: flag > config > default).  Identical config and seed
produce byte-identical output files.

Exit codes: 0 success, 2 config error, 3 enumeration budget exceeded,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from multiprocessing import Pool
from typing import List, Optional, Sequence

import numpy as np

from . import distillation, infotools, pipeline, rates, wireless
from .errors import (BudgetExceeded, ConfigError, InvariantViolation,
                     ReconciliationFailure)
from .model import PairSource, PinInstance, ProtocolParams

_SECTIONS = {"seed", "capacity", "protocol", "wireless", "sweep"}


def _check_keys(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(config, _SECTIONS, "config root")
    return config


def _config_int(value, what: str) -> int:
    """``value`` itself if it is a JSON integer; a fraction, a string or
    a boolean is a config error, never truncated or coerced."""
    # bool is an int subclass, but JSON true is not a number.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _check_seed(seed) -> int:
    if _config_int(seed, "seed") < 0:
        raise ConfigError(f"seed must be a non-negative integer, "
                          f"got {seed!r}")
    return seed


def _config_digest(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _section(config: dict, name: str) -> dict:
    if name not in config:
        raise ConfigError(f"config lacks a '{name}' section")
    block = config[name]
    if not isinstance(block, dict):
        raise ConfigError(f"'{name}' section must be a JSON object")
    return block


def _parse_pairs(raw) -> List[PairSource]:
    if not isinstance(raw, list):
        raise ConfigError("'pairs' must be a list")
    pairs = []
    for i, entry in enumerate(raw):
        _check_keys(entry, {"mode", "bits_a", "bits_b", "crossover_a",
                            "crossover_b"}, f"pairs[{i}]")
        try:
            pairs.append(PairSource(**entry))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"pairs[{i}]: {exc}") from exc
    return pairs


def _write(out: Optional[str], text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(out: Optional[str], digest: str, seed: int,
               results: dict) -> None:
    doc = {"config_digest": digest, "seed": seed, "results": results}
    _write(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _tightness_sweep(block: dict, seed: int, where: str) -> dict:
    """Capacity against the converse bound on ``count`` random instances.

    Instance t draws its relay count M uniform on [m_min, m_max] and M
    (Alice-side, Bob-side) MI pairs uniform on [0, i_max) from
    PCG64(seed + t).  The instances are zero-padded to m_max relays,
    which changes neither rate, and both rates are evaluated once over
    the whole (count, m_max, 2) array.
    """
    count = _config_int(block.get("count", 1000), f"{where}.count")
    m_min = _config_int(block.get("m_min", 2), f"{where}.m_min")
    m_max = _config_int(block.get("m_max", 6), f"{where}.m_max")
    try:
        i_max = float(block.get("i_max", 4.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if (m_min < 2 or m_max < m_min or count < 1
            or not 0.0 < i_max < math.inf):
        raise ConfigError(f"invalid {where} bounds")
    pair_mis = np.zeros((count, m_max, 2))
    for t in range(count):
        rng = np.random.Generator(np.random.PCG64(seed + t))
        m = int(rng.integers(m_min, m_max + 1))
        pair_mis[t, :m] = rng.uniform(0.0, i_max, size=(m, 2))
    i_vals = np.minimum(pair_mis[..., 0], pair_mis[..., 1])
    gaps = np.abs(rates.capacity(i_vals)
                  - rates.converse_bound(pair_mis).bound)
    return {"count": count,
            "tightness_failures": int(np.count_nonzero(gaps > 1e-12)),
            "max_gap": float(gaps.max())}


def _leakage_task(args) -> float:
    message_bits, key_bits, seed = args
    codebook = distillation.build_codebook(message_bits, key_bits, seed)
    return max(infotools.leakage_audit(codebook, m).mi_bits
               for m in range(len(message_bits)))


def _map(jobs: int, func, tasks: list) -> list:
    """``[func(t) for t in tasks]``, over a pool of at most ``jobs``
    workers and never more workers than tasks.  Tasks are handed out one
    at a time, so a caller that lists its longest tasks first leaves no
    worker idle on a long tail."""
    workers = min(jobs, len(tasks))
    if workers > 1:
        with Pool(workers) as pool:
            return pool.map(func, tasks, chunksize=1)
    return [func(t) for t in tasks]


def run_capacity(config: dict, seed: int, out: Optional[str]) -> None:
    block = _section(config, "capacity")
    _check_keys(block, {"pair_mis", "random_sweep"}, "capacity")
    results: dict = {}
    if "pair_mis" in block:
        try:
            report = rates.rate_report(block["pair_mis"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"capacity.pair_mis: {exc}") from exc
        results["report"] = report.to_dict()
        results["tightness_gap"] = abs(report.capacity - report.converse)
    if "random_sweep" in block:
        sweep = block["random_sweep"]
        _check_keys(sweep, {"count", "m_min", "m_max", "i_max"},
                    "capacity.random_sweep")
        results["random_sweep"] = _tightness_sweep(sweep, seed,
                                                   "capacity.random_sweep")
    if not results:
        raise ConfigError("capacity section needs 'pair_mis' or "
                          "'random_sweep'")
    _emit_json(out, _config_digest(config), seed, results)


def run_protocol(config: dict, seed: int, out: Optional[str]) -> None:
    block = _section(config, "protocol")
    _check_keys(block, {"m", "pairs", "n", "epsilon_bits", "trials"},
                "protocol")
    try:
        instance = PinInstance(
            m=_config_int(block["m"], "protocol.m"),
            pairs=_parse_pairs(block["pairs"]),
            params=ProtocolParams(
                n=_config_int(block.get("n", 1), "protocol.n"),
                epsilon_bits=_config_int(block.get("epsilon_bits", 1),
                                         "protocol.epsilon_bits"),
                seed=seed),
        )
        trials = _config_int(block.get("trials", 1), "protocol.trials")
    except KeyError as exc:
        raise ConfigError(f"protocol section missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"protocol section: {exc}") from exc
    if trials < 1:
        raise ConfigError("trials must be >= 1")

    mismatches = 0
    failures = 0
    leakage_max: List[float] = []
    rates_seen: List[List[float]] = []
    first_digest = None
    key_bits = None
    # Trials whose common messages were cut to fit the codebook, with
    # the message bits they kept and had.
    cut_trials = cut_kept = cut_full = 0
    for t in range(trials):
        try:
            result = pipeline.run_once(instance, sample_seed=seed + t,
                                       codebook_seed=seed + 10_000 + t)
        except ReconciliationFailure:
            failures += 1
            continue
        if first_digest is None:
            first_digest = result.transcript.digest()
            key_bits = result.key_bits
        mismatches += int(not result.agreed)
        if result.truncated:
            cut_trials += 1
            cut_kept += sum(result.message_bits)
            cut_full += sum(w.size for w in result.keys.common)
        rates_seen.append(result.keys.rates)
        if result.leakage is not None:
            leakage_max.append(max(a.mi_bits for a in result.leakage))
    completed = trials - failures
    if cut_trials:
        print(f"note: {cut_trials} of {completed} completed trials cut "
              f"their common messages to fit the codebook budget, "
              f"keeping {cut_kept} of {cut_full} bits", file=sys.stderr)
    results = {
        "trials": trials,
        "completed": completed,
        "reconciliation_failures": failures,
        "p_key_mismatch": (mismatches / completed) if completed else None,
        "key_bits": key_bits,
        "mean_achieved_rates": (np.mean(rates_seen, axis=0).tolist()
                                if rates_seen else None),
        "mean_max_leakage_bits": (float(np.mean(leakage_max))
                                  if leakage_max else None),
        "transcript_digest": first_digest,
    }
    _emit_json(out, _config_digest(config), seed, results)


def run_wireless(config: dict, seed: int, out: Optional[str],
                 fmt: str) -> None:
    block = _section(config, "wireless")
    _check_keys(block, {"m", "block_len", "power_grid", "slot", "noise_var",
                        "channel_var", "optimize", "power", "channel_vars"},
                "wireless")
    if "m" not in block:
        raise ConfigError("wireless section missing 'm'")
    p_grid = block.get("power_grid", [])
    if not isinstance(p_grid, list) or not p_grid:
        raise ConfigError("wireless.power_grid must be a nonempty list")
    opt = None
    try:
        m = _config_int(block["m"], "wireless.m")
        slot = _config_int(block.get("slot", 2), "wireless.slot")
        noise_var = float(block.get("noise_var", 1.0))
        channel_var = float(block.get("channel_var", 1.0))
        rows = wireless.multiplexing_gain_sweep(m, p_grid, slot=slot,
                                                noise_var=noise_var,
                                                channel_var=channel_var)
        if block.get("optimize", False):
            opt = wireless.optimize_allocation(
                m, _config_int(block.get("block_len", slot * (m + 2)),
                               "wireless.block_len"),
                float(block.get("power", 1.0)), noise_var,
                block.get("channel_vars", [[channel_var, channel_var]] * m),
                seed=seed)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"wireless section: {exc}") from exc

    digest = _config_digest(config)
    if fmt == "csv":
        lines = [f"# config_digest={digest}", f"# seed={seed}"]
        if opt:
            lines.append(f"# allocation={list(opt.allocation)} "
                         f"r_key={opt.r_key!r} method={opt.method}")
        lines.append("P,rb_ratio,xor_ratio,r_key,r_s")
        for row in rows:
            lines.append(f"{row.power!r},{row.rb_ratio!r},"
                         f"{row.xor_ratio!r},{row.r_key!r},{row.r_s!r}")
        _write(out, "\n".join(lines) + "\n")
    else:
        results = {"sweep": [vars(r) for r in rows]}
        if opt:
            results["allocation"] = {"allocation": list(opt.allocation),
                                     "r_key": opt.r_key,
                                     "method": opt.method}
        _emit_json(out, digest, seed, results)


def run_sweep(config: dict, seed: int, out: Optional[str],
              jobs: int) -> None:
    block = _section(config, "sweep")
    _check_keys(block, {"kind", "count", "m_min", "m_max", "i_max", "m",
                        "bits_per_message", "epsilon_den", "codebooks"},
                "sweep")
    kind = block.get("kind")
    if kind == "tightness":
        results = {"kind": kind, **_tightness_sweep(block, seed, "sweep")}
    elif kind == "leakage":
        m = _config_int(block.get("m", 2), "sweep.m")
        budgets = block.get("bits_per_message", [2, 4, 6, 8])
        if not isinstance(budgets, list):
            raise ConfigError("sweep.bits_per_message must be a list")
        budgets = [_config_int(b, "sweep.bits_per_message[]")
                   for b in budgets]
        codebooks = _config_int(block.get("codebooks", 100),
                                "sweep.codebooks")
        if m < 2 or codebooks < 1 or not budgets or min(budgets) < 0:
            raise ConfigError("invalid leakage sweep parameters")
        if m * max(budgets) > distillation.ENUM_BUDGET_BITS:
            raise BudgetExceeded(
                f"leakage sweep needs 2^{m * max(budgets)} codewords per "
                f"codebook, over the 2^{distillation.ENUM_BUDGET_BITS} "
                f"budget")
        key_bits = [pipeline.key_bits_for([b] * m, -(-b // 4))
                    for b in budgets]
        # One pool for the whole sweep, widest codebooks first; the
        # maxima come back in task order and are regrouped by budget.
        widest_first = sorted(range(len(budgets)), key=lambda i: -budgets[i])
        tasks = [([budgets[i]] * m, key_bits[i],
                  seed + 100_000 * budgets[i] + c)
                 for i in widest_first for c in range(codebooks)]
        maxima = _map(jobs, _leakage_task, tasks)
        means = [0.0] * len(budgets)
        for rank, i in enumerate(widest_first):
            means[i] = float(np.mean(
                maxima[rank * codebooks:(rank + 1) * codebooks]))
        table = [{"bits_per_message": b, "key_bits": k,
                  "mean_max_leakage_bits": mean,
                  "per_key_bit": mean / k if k else None}
                 for b, k, mean in zip(budgets, key_bits, means)]
        results = {"kind": kind, "m": m, "codebooks": codebooks,
                   "table": table}
    else:
        raise ConfigError(f"sweep.kind must be 'tightness' or 'leakage', "
                          f"got {kind!r}")
    _emit_json(out, _config_digest(config), seed, results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinkey",
        description="Cooperative private-key generation: rates, protocol "
                    "simulation, secrecy audits, wireless sweeps.")
    parser.add_argument("command",
                        choices=["capacity", "protocol", "wireless", "sweep"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the config seed")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the leakage sweep")
    parser.add_argument("--format", choices=["json", "csv"], default=None,
                        help="output format (wireless defaults to csv)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        seed = _check_seed(args.seed if args.seed is not None
                           else config.get("seed", 0))
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if args.command == "capacity":
            run_capacity(config, seed, args.out)
        elif args.command == "protocol":
            run_protocol(config, seed, args.out)
        elif args.command == "wireless":
            run_wireless(config, seed, args.out, args.format or "csv")
        else:
            run_sweep(config, seed, args.out, args.jobs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
