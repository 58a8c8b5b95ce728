"""Batch front-end: config ingestion, experiment orchestration, output.

One JSON config file carries per-command sections; flags override config
fields (precedence: flag > config > default).  :func:`main` reads the
command's section, and each ``run_*`` turns it into a results dict that
:func:`main` writes as JSON (or, for ``wireless``, CSV).  Identical config
and seed produce byte-identical output files.

Exit codes: 0 success, 2 config error, 3 enumeration or array budget
exceeded, 4 internal invariant violation (a NaN or infinite result
included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import distillation, infotools, pipeline, rates, wireless
from .errors import (BudgetExceeded, ConfigError, InvariantViolation,
                     ReconciliationFailure)
from .model import PairSource, PinInstance, ProtocolParams

_REQUIRED = object()

# Every key of every config block, once, as (type, default).  A type is
# int, float, bool, str or dict (a section, read by its own command), a
# one-element list for a list of that type, or the name of another block.
# A default is _REQUIRED, None for a part the command then skips, or a
# function of the values read before it.  A sweep section is read against
# the block named by its kind.
_TIGHTNESS = {"count": (int, 1000), "m_min": (int, 2), "m_max": (int, 6),
              "i_max": (float, 4.0)}
# Cells of the tightness sweep's padded array (the scale of the audit's
# table budget), and of the slice of it evaluated at once.
_TIGHTNESS_CELLS = 1 << 24
_TIGHTNESS_CHUNK_CELLS = 1 << 18
_BLOCKS = {
    "root": {"seed": (int, 0), "capacity": (dict, None),
             "protocol": (dict, None), "wireless": (dict, None),
             "sweep": (dict, None)},
    "capacity": {"pair_mis": ([[float]], _REQUIRED)},
    "protocol": {"m": (int, _REQUIRED), "pairs": (["pair"], _REQUIRED),
                 "n": (int, 1), "epsilon_bits": (int, 1), "trials": (int, 1)},
    "pair": {"mode": (str, _REQUIRED), "bits_a": (int, 0), "bits_b": (int, 0),
             "crossover_a": (float, 0.0), "crossover_b": (float, 0.0)},
    "wireless": {"m": (int, _REQUIRED), "power_grid": ([float], _REQUIRED),
                 "slot": (int, 2), "noise_var": (float, 1.0),
                 "channel_var": (float, 1.0), "optimize": (bool, False),
                 # Read by the optimizer only: None without it.
                 "block_len": (int, lambda w: w["slot"] * (w["m"] + 2)
                               if w["optimize"] else None),
                 "power": (float, lambda w: 1.0 if w["optimize"] else None),
                 "channel_vars": ([[float]],
                                  lambda w: [[w["channel_var"]] * 2] * w["m"]
                                  if w["optimize"] else None)},
    "tightness": {"kind": (str, _REQUIRED), **_TIGHTNESS},
    "leakage": {"kind": (str, _REQUIRED), "m": (int, 2),
                "bits_per_message": ([int], [2, 4, 6, 8]),
                "codebooks": (int, 100)},
}

# Exit code and stderr prefix of each error a command reports.
_EXITS = {ConfigError: (2, "config error"),
          BudgetExceeded: (3, "budget exceeded"),
          InvariantViolation: (4, "invariant violation")}

_NAMES = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string", dict: "a JSON object"}


def _read(block, name: str, where: str) -> dict:
    """The values of config block ``block`` typed by ``_BLOCKS[name]``,
    defaults filled in; ``where`` names the block in errors."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    table = _BLOCKS[name]
    unknown = set(block) - set(table)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    values = {}
    for key, (kind, default) in table.items():
        if key in block:
            values[key] = _value(block[key], kind,
                                 key if name == "root" else f"{where}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{where} lacks '{key}'")
        else:
            values[key] = default(values) if callable(default) else default
    return values


def _value(value, kind, where: str):
    if isinstance(kind, str):
        return _read(value, kind, where)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_value(v, kind[0], f"{where}[{i}]")
                for i, v in enumerate(value)]
    # bool is an int subclass, but JSON true is not a number.
    if (not isinstance(value, (int, float) if kind is float else kind)
            or isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{where} must be {_NAMES[kind]}, got {value!r}")
    if kind is not float:
        return value
    # json reads 1e400 as inf, and the integer 10**400 has no float.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number")
    return float(value)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _config_digest(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _tightness_sweep(block: dict, seed: int) -> dict:
    """Capacity against the converse bound on ``count`` random instances.

    One PCG64(seed) stream draws every relay count M uniform on [m_min,
    m_max], then m_max MI pairs per instance uniform on [0, i_max), the
    ones past relay M zeroed.  The pairs are drawn and both rates
    evaluated over slices of the (count, m_max, 2) array of at most 2^18
    cells, in stream order, so memory stays flat in ``count``; a whole
    array over 2^24 cells raises ``BudgetExceeded`` before any draw.
    Both rates subtract from one left-to-right total, and fl(total - x)
    is monotone in x, so every gap is exactly 0.
    """
    count, m_min, m_max, i_max = (block[key] for key in _TIGHTNESS)
    if m_min < 2 or m_max < m_min or count < 1 or i_max <= 0.0:
        raise ConfigError("invalid tightness sweep bounds")
    if count * m_max * 2 > _TIGHTNESS_CELLS:
        raise BudgetExceeded(
            f"tightness sweep pads {count} instances to {m_max} relays: "
            f"{count * m_max * 2:,} cells, over the 2^24 budget")
    rng = np.random.Generator(np.random.PCG64(seed))
    m = rng.integers(m_min, m_max + 1, size=count)
    chunk = max(_TIGHTNESS_CHUNK_CELLS // (m_max * 2), 1)
    failures, max_gap = 0, 0.0
    for lo in range(0, count, chunk):
        m_chunk = m[lo:lo + chunk]
        pair_mis = rng.uniform(0.0, i_max, size=(m_chunk.size, m_max, 2))
        pair_mis[np.arange(m_max) >= m_chunk[:, None]] = 0.0
        try:
            gaps = np.abs(rates.capacity(pair_mis.min(axis=-1))
                          - rates.converse_bound(pair_mis).bound)
        except ValueError as exc:
            raise ConfigError(f"tightness sweep: {exc}") from exc
        failures += int(np.count_nonzero(gaps > 1e-12))
        max_gap = max(max_gap, float(gaps.max()))
    return {"count": count, "tightness_failures": failures,
            "max_gap": max_gap}


def _leakage_task(args) -> float:
    message_bits, key_bits, seed = args
    codebook = distillation.build_codebook(message_bits, key_bits, seed)
    return max(infotools.leakage_audit(codebook, m).mi_bits
               for m in range(len(message_bits)))


def _map(jobs: int, func, tasks: list) -> list:
    """``[func(t) for t in tasks]``, over a pool of at most ``jobs``
    workers and never more workers than tasks.  Tasks are handed out one
    at a time, so a caller that lists its longest tasks first leaves no
    worker idle on a long tail.  multiprocessing is imported here, so the
    commands that run no pool never pay for importing it."""
    workers = min(jobs, len(tasks))
    if workers > 1:
        from multiprocessing import Pool
        with Pool(workers) as pool:
            return pool.map(func, tasks, chunksize=1)
    return [func(t) for t in tasks]


def run_capacity(block: dict, seed: int, jobs: int) -> dict:
    try:
        report = rates.rate_report(block["pair_mis"])
    except ValueError as exc:
        raise ConfigError(f"capacity.pair_mis: {exc}") from exc
    return {"report": report.to_dict(),
            "tightness_gap": abs(report.capacity - report.converse)}


def run_protocol(block: dict, seed: int, jobs: int) -> dict:
    try:
        instance = PinInstance(
            m=block["m"], pairs=[PairSource(**p) for p in block["pairs"]],
            params=ProtocolParams(n=block["n"],
                                  epsilon_bits=block["epsilon_bits"]))
    except ValueError as exc:
        raise ConfigError(f"protocol section: {exc}") from exc
    trials = block["trials"]
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
    return {
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


def run_wireless(block: dict, seed: int, jobs: int) -> dict:
    # The optimizer's keys default to None without "optimize": true (see
    # _BLOCKS), so a value there was written by the config.
    unread = sorted(key for key in ("block_len", "power", "channel_vars")
                    if block[key] is not None)
    if unread and not block["optimize"]:
        raise ConfigError(f"wireless keys {unread} need 'optimize': true")
    try:
        rows = wireless.multiplexing_gain_sweep(
            block["m"], block["power_grid"], slot=block["slot"],
            noise_var=block["noise_var"], channel_var=block["channel_var"])
        results = {"sweep": [vars(r) for r in rows]}
        if block["optimize"]:
            opt = wireless.optimize_allocation(
                block["m"], block["block_len"], block["power"],
                block["noise_var"], block["channel_vars"])
            results["allocation"] = {"allocation": list(opt.allocation),
                                     "r_key": opt.r_key,
                                     "method": opt.method}
    except ValueError as exc:
        raise ConfigError(f"wireless section: {exc}") from exc
    return results


def _wireless_csv(digest: str, seed: int, results: dict) -> str:
    lines = [f"# config_digest={digest}", f"# seed={seed}"]
    opt = results.get("allocation")
    if opt:
        lines.append(f"# allocation={opt['allocation']} "
                     f"r_key={opt['r_key']!r} method={opt['method']}")
    lines.append("P,rb_ratio,xor_ratio,r_key,r_s")
    lines += [",".join(repr(row[key]) for key in
                       ("power", "rb_ratio", "xor_ratio", "r_key", "r_s"))
              for row in results["sweep"]]
    return "\n".join(lines) + "\n"


def run_sweep(block: dict, seed: int, jobs: int) -> dict:
    kind = block["kind"]
    if kind == "tightness":
        return {"kind": kind, **_tightness_sweep(block, seed)}
    m, budgets, codebooks = (block["m"], block["bits_per_message"],
                             block["codebooks"])
    if m < 2 or codebooks < 1 or not budgets or min(budgets) < 0:
        raise ConfigError("invalid leakage sweep parameters")
    if m * max(budgets) > distillation.ENUM_BUDGET_BITS:
        raise BudgetExceeded(
            f"leakage sweep needs 2^{m * max(budgets)} codewords per "
            f"codebook, over the 2^{distillation.ENUM_BUDGET_BITS} budget")
    key_bits = [pipeline.key_bits_for([b] * m, -(-b // 4)) for b in budgets]
    # One pool for the whole sweep, widest codebooks first; the maxima
    # come back in task order and are regrouped by budget.
    widest_first = sorted(range(len(budgets)), key=lambda i: -budgets[i])
    tasks = [([budgets[i]] * m, key_bits[i], seed + 100_000 * budgets[i] + c)
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
    return {"kind": kind, "m": m, "codebooks": codebooks, "table": table}


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
                        help="wireless output format (default csv)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Read the command's config section, run it and write its results:
    the one path from a config to an output file for every command."""
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        seed = _read(config, "root", "config root")["seed"]
        if args.seed is not None:
            seed = args.seed
        if seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, "
                              f"got {seed!r}")
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        name = args.command
        if args.format is not None and name != "wireless":
            raise ConfigError("--format applies only to wireless")
        block = config.get(name)
        if block is None:
            raise ConfigError(f"config lacks a '{name}' section")
        table = block.get("kind") if name == "sweep" else name
        if name == "sweep" and table not in ("tightness", "leakage"):
            raise ConfigError(f"sweep.kind must be 'tightness' or "
                              f"'leakage', got {table!r}")
        # Looked up at call time, so a wrapper set on this module runs.
        results = globals()[f"run_{name}"](_read(block, table, name), seed,
                                           args.jobs)
        digest = _config_digest(config)
        if name == "wireless" and args.format != "json":
            text = _wireless_csv(digest, seed, results)
        else:
            doc = {"config_digest": digest, "seed": seed, "results": results}
            try:
                text = json.dumps(doc, indent=2, sort_keys=True,
                                  allow_nan=False) + "\n"
            except ValueError as exc:
                raise InvariantViolation(f"{name} results: {exc}") from exc
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write --out: {exc}") from exc
        else:
            sys.stdout.write(text)
    except tuple(_EXITS) as exc:
        code, what = _EXITS[type(exc)]
        print(f"{what}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
