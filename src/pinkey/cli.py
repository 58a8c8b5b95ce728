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
import sys
from multiprocessing import Pool
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import distillation, infotools, pipeline, rates, wireless
from .errors import (BudgetExceeded, ConfigError, InvariantViolation,
                     ReconciliationFailure)
from .model import PairSource, PinInstance, ProtocolParams

_SECTIONS = {"seed", "capacity", "protocol", "wireless", "sweep"}


def _check_keys(block: dict, allowed: set, where: str) -> None:
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


def random_pair_mis(rng: np.random.Generator, m_min: int, m_max: int,
                    i_max: float) -> List[Tuple[float, float]]:
    """One random instance: per-relay MI pairs uniform on [0, i_max]."""
    m = int(rng.integers(m_min, m_max + 1))
    return [(float(rng.uniform(0.0, i_max)), float(rng.uniform(0.0, i_max)))
            for _ in range(m)]


def _tightness_task(args) -> float:
    seed, m_min, m_max, i_max = args
    rng = np.random.Generator(np.random.PCG64(seed))
    pair_mis = random_pair_mis(rng, m_min, m_max, i_max)
    i_vals = [min(a, b) for a, b in pair_mis]
    return abs(rates.capacity(i_vals) - rates.converse_bound(pair_mis).bound)


def _leakage_task(args) -> float:
    message_bits, key_bits, seed = args
    codebook = distillation.build_codebook(message_bits, key_bits, seed)
    return max(infotools.leakage_audit(codebook, m).mi_bits
               for m in range(len(message_bits)))


def _map(jobs: int, func, tasks: list) -> list:
    if jobs > 1:
        with Pool(jobs) as pool:
            return pool.map(func, tasks)
    return [func(t) for t in tasks]


def run_capacity(config: dict, seed: int, out: Optional[str],
                 jobs: int) -> None:
    block = _section(config, "capacity")
    _check_keys(block, {"pair_mis", "random_sweep"}, "capacity")
    results: dict = {}
    if "pair_mis" in block:
        try:
            report = rates.rate_report(block["pair_mis"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"capacity.pair_mis: {exc}") from exc
        results["report"] = report.to_dict()
        results["tightness_gap"] = abs(report.capacity - report.converse)
    if "random_sweep" in block:
        sweep = block["random_sweep"]
        _check_keys(sweep, {"count", "m_min", "m_max", "i_max"},
                    "capacity.random_sweep")
        count = int(sweep.get("count", 1000))
        m_min = int(sweep.get("m_min", 2))
        m_max = int(sweep.get("m_max", 6))
        i_max = float(sweep.get("i_max", 4.0))
        if m_min < 2 or m_max < m_min or count < 1:
            raise ConfigError("invalid random_sweep bounds")
        gaps = _map(jobs, _tightness_task,
                    [(seed + t, m_min, m_max, i_max) for t in range(count)])
        results["random_sweep"] = {
            "count": count,
            "tightness_failures": int(sum(g > 1e-12 for g in gaps)),
            "max_gap": max(gaps),
        }
    if not results:
        raise ConfigError("capacity section needs 'pair_mis' or "
                          "'random_sweep'")
    _emit_json(out, _config_digest(config), seed, results)


def run_protocol(config: dict, seed: int, out: Optional[str],
                 jobs: int) -> None:
    block = _section(config, "protocol")
    _check_keys(block, {"m", "pairs", "n", "epsilon_bits", "trials"},
                "protocol")
    try:
        instance = PinInstance(
            m=int(block["m"]),
            pairs=_parse_pairs(block["pairs"]),
            params=ProtocolParams(n=int(block.get("n", 1)),
                                  epsilon_bits=int(block.get("epsilon_bits",
                                                             1)),
                                  seed=seed),
        )
    except KeyError as exc:
        raise ConfigError(f"protocol section missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"protocol section: {exc}") from exc
    trials = int(block.get("trials", 1))
    if trials < 1:
        raise ConfigError("trials must be >= 1")

    mismatches = 0
    failures = 0
    leakage_max: List[float] = []
    rates_seen: List[List[float]] = []
    first_digest = None
    key_bits = None
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
        rates_seen.append(result.achieved_rates)
        if result.leakage is not None:
            leakage_max.append(max(a.mi_bits for a in result.leakage))
    completed = trials - failures
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


def run_wireless(config: dict, seed: int, out: Optional[str], jobs: int,
                 fmt: str) -> None:
    block = _section(config, "wireless")
    _check_keys(block, {"m", "block_len", "power_grid", "slot", "noise_var",
                        "channel_var", "optimize", "power", "channel_vars",
                        "allocation", "mc_samples"}, "wireless")
    if "m" not in block:
        raise ConfigError("wireless section missing 'm'")
    p_grid = block.get("power_grid", [])
    if not isinstance(p_grid, list) or not p_grid:
        raise ConfigError("wireless.power_grid must be a nonempty list")
    opt = None
    try:
        m = int(block["m"])
        slot = int(block.get("slot", 2))
        noise_var = float(block.get("noise_var", 1.0))
        channel_var = float(block.get("channel_var", 1.0))
        rows = wireless.multiplexing_gain_sweep(m, p_grid, slot=slot,
                                                noise_var=noise_var,
                                                channel_var=channel_var)
        if block.get("optimize", False):
            opt = wireless.optimize_allocation(
                m, int(block.get("block_len", slot * (m + 2))),
                float(block.get("power", 1.0)), noise_var,
                block.get("channel_vars", [[channel_var, channel_var]] * m),
                seed=seed)
    except (TypeError, ValueError) as exc:
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
        count = int(block.get("count", 1000))
        m_min = int(block.get("m_min", 2))
        m_max = int(block.get("m_max", 6))
        i_max = float(block.get("i_max", 4.0))
        if m_min < 2 or m_max < m_min or count < 1:
            raise ConfigError("invalid sweep bounds")
        gaps = _map(jobs, _tightness_task,
                    [(seed + t, m_min, m_max, i_max) for t in range(count)])
        results = {"kind": kind, "count": count,
                   "tightness_failures": int(sum(g > 1e-12 for g in gaps)),
                   "max_gap": max(gaps)}
    elif kind == "leakage":
        m = int(block.get("m", 2))
        budgets = block.get("bits_per_message", [2, 4, 6, 8])
        codebooks = int(block.get("codebooks", 100))
        if m < 2 or codebooks < 1 or not budgets:
            raise ConfigError("invalid leakage sweep parameters")
        table = []
        for b in budgets:
            b = int(b)
            key_bits = pipeline.key_bits_for([b] * m, -(-b // 4))
            tasks = [([b] * m, key_bits, seed + 100_000 * b + c)
                     for c in range(codebooks)]
            maxima = _map(jobs, _leakage_task, tasks)
            table.append({"bits_per_message": b, "key_bits": key_bits,
                          "mean_max_leakage_bits": float(np.mean(maxima)),
                          "per_key_bit": float(np.mean(maxima)) / key_bits
                          if key_bits else None})
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
                        help="worker processes for sweeps")
    parser.add_argument("--format", choices=["json", "csv"], default=None,
                        help="output format (wireless defaults to csv)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(config.get("seed",
                                                                      0))
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        if args.command == "capacity":
            run_capacity(config, seed, args.out, args.jobs)
        elif args.command == "protocol":
            run_protocol(config, seed, args.out, args.jobs)
        elif args.command == "wireless":
            run_wireless(config, seed, args.out, args.jobs,
                         args.format or "csv")
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
