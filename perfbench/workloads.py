"""The four benchmark workloads: CLI inputs made from a seed, the units of
work a command attempts, and the checks on its output.

Input sizes are fixed; the seed only picks values that leave the work
unchanged (sampling and codebook seeds, which side of a pair is larger,
crossovers, channel variances).  ``smoke`` swaps in tiny sizes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List

POWER_GRID = [1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # pinkey subcommand
    jobs: int
    unit: str               # one item of work, for items_per_s
    why: str
    make_config: Callable[[int, bool], dict]
    dominant: tuple         # spans predicted to cover >= 90% of a command
    kernel: str = "mixed"   # calibration kernel: the kinds of work it does
    # How strongly the command's time follows the kernel's: calibrated
    # time is raw time * (reference kernel / kernel) ** elasticity.
    elasticity: float = 1.0

    def argv(self, config_path: str, out_path: str) -> List[str]:
        argv = [self.command, "--config", config_path, "--out", out_path,
                "--jobs", str(self.jobs)]
        if self.command == "wireless":
            argv += ["--format", "json"]
        return argv


def _protocol_ideal(seed: int, smoke: bool) -> dict:
    rng = random.Random(seed)
    m, width = (3, 2) if smoke else (4, 5)
    pairs = []
    for _ in range(m):
        # The common message is the smaller side: always `width` bits, so
        # the codebook has 2^(m*width) codewords whatever the seed.
        wider = width + rng.randrange(3)
        a, b = (width, wider) if rng.random() < 0.5 else (wider, width)
        pairs.append({"mode": "ideal_common", "bits_a": a, "bits_b": b})
    return {"seed": seed, "protocol": {
        "m": m, "pairs": pairs, "n": 1, "epsilon_bits": 2,
        "trials": 2 if smoke else 4}}


def _protocol_dsbs(seed: int, smoke: bool) -> dict:
    rng = random.Random(seed)
    m = 2 if smoke else 3
    pairs = [{"mode": "dsbs",
              "crossover_a": round(rng.uniform(0.01, 0.05), 4),
              "crossover_b": round(rng.uniform(0.01, 0.05), 4)}
             for _ in range(m)]
    return {"seed": seed, "protocol": {
        "m": m, "pairs": pairs, "n": 70 if smoke else 7000,
        "epsilon_bits": 1, "trials": 2}}


def _sweep_leakage(seed: int, smoke: bool) -> dict:
    return {"seed": seed, "sweep": {
        "kind": "leakage", "m": 2,
        "bits_per_message": [2, 4] if smoke else [2, 4, 6, 8, 10],
        "codebooks": 3 if smoke else 100}}


def _wireless_optimize(seed: int, smoke: bool) -> dict:
    rng = random.Random(seed)
    m, block_len = (2, 8) if smoke else (4, 30)
    channel_vars = [[round(rng.uniform(0.5, 2.0), 4),
                     round(rng.uniform(0.5, 2.0), 4)] for _ in range(m)]
    return {"seed": seed, "wireless": {
        "m": m, "block_len": block_len, "optimize": True, "power": 10.0,
        "channel_vars": channel_vars,
        "power_grid": POWER_GRID[:2] if smoke else POWER_GRID}}


WORKLOADS = {w.name: w for w in (
    Workload("protocol-ideal", "protocol", 1, "trials",
             "M=4 ideal pairs, 5-bit messages: a 2^20 codebook and a "
             "per-relay leakage audit in every trial",
             _protocol_ideal, ("distillation", "infotools")),
    Workload("protocol-dsbs", "protocol", 1, "trials",
             "M=3 noisy pairs at n=7000: six Hamming reconciliations and "
             "Toeplitz hashes per trial, no audit",
             _protocol_dsbs, ("protocol.reconcile_pair",)),
    Workload("sweep-leakage", "sweep", 2, "codebooks",
             "500 codebooks of 4 to 20 bits audited over a two-process "
             "pool",
             _sweep_leakage, ("distillation", "infotools"), elasticity=0.5),
    Workload("wireless-optimize", "wireless", 1, "allocations",
             "exhaustive slot allocation, M=4 T=30, plus a 7-point power "
             "sweep; no bit-level layer runs",
             _wireless_optimize, ("wireless",), "python"),
)}


def items(workload: Workload, config: dict) -> int:
    """Units of work one command attempts."""
    if workload.command == "protocol":
        return int(config["protocol"]["trials"])
    if workload.command == "sweep":
        block = config["sweep"]
        return len(block["bits_per_message"]) * int(block["codebooks"])
    block = config["wireless"]
    return math.comb(block["block_len"] - 1, block["m"] + 1)


def failed_units(workload: Workload, doc: dict) -> int:
    """Units of one command's parsed output that did not end: protocol
    trials that raised ``ReconciliationFailure``.  A sweep or wireless
    command fails only as a whole."""
    if workload.command != "protocol":
        return 0
    return int(doc["results"]["reconciliation_failures"])


def mismatched_units(workload: Workload, doc: dict) -> int:
    """Protocol trials of one command's parsed output that completed with
    disagreeing keys.  They ran to the end, so they are measured (in
    ``fail_frac`` and ``pipeline.key_mismatch_frac``), not counted as
    failed operations."""
    if workload.command != "protocol":
        return 0
    res = doc["results"]
    return round((res["p_key_mismatch"] or 0.0) * res["completed"])


def _near_uniform(block_len: int, parts: int) -> tuple:
    base, extra = divmod(block_len, parts)
    return tuple(base + (1 if i < extra else 0) for i in range(parts))


def check(workload: Workload, config: dict, doc: dict) -> List[str]:
    """Problems with one command's parsed output; empty when it is
    correct.  Known protocol defects (noisy-path key mismatch) are
    counted by :func:`mismatched_units`, not checked here."""
    res = doc["results"]
    problems = []
    if doc.get("seed") != config["seed"]:
        problems.append(f"output seed {doc.get('seed')} != {config['seed']}")
    if workload.command == "protocol":
        trials = config["protocol"]["trials"]
        if res["completed"] + res["reconciliation_failures"] != trials:
            problems.append("completed + failures != trials")
        if workload.name == "protocol-ideal":
            if res["completed"] != trials:
                problems.append(f"{res['reconciliation_failures']} ideal "
                                f"trials failed to reconcile")
            if res["p_key_mismatch"] != 0.0:
                problems.append(f"ideal keys disagree: p_key_mismatch="
                                f"{res['p_key_mismatch']}")
    elif workload.command == "sweep":
        block = config["sweep"]
        got = [row["bits_per_message"] for row in res["table"]]
        if got != block["bits_per_message"]:
            problems.append(f"sweep rows {got} != requested budgets")
        for row in res["table"]:
            if not 0.0 <= row["mean_max_leakage_bits"] <= row["key_bits"]:
                problems.append(f"leakage {row['mean_max_leakage_bits']} "
                                f"outside [0, key_bits] at "
                                f"b={row['bits_per_message']}")
    else:
        problems += _check_allocation(config["wireless"], res)
    return problems


def _check_allocation(block: dict, res: dict) -> List[str]:
    from pinkey import wireless
    opt = res["allocation"]
    m, block_len = block["m"], block["block_len"]

    def rate(allocation) -> float:
        return wireless.key_rate(wireless.WirelessConfig(
            m=m, power=block["power"], noise_var=1.0,
            channel_vars=block["channel_vars"], block_len=block_len,
            allocation=allocation)).r_key

    problems = []
    if opt["method"] != "exhaustive":
        problems.append(f"method {opt['method']!r}, expected exhaustive")
    again = rate(opt["allocation"])
    if abs(again - opt["r_key"]) > 1e-12 * max(1.0, abs(again)):
        problems.append(f"key_rate at the returned allocation is {again!r},"
                        f" not r_key={opt['r_key']!r}")
    uniform = rate(_near_uniform(block_len, m + 2))
    if opt["r_key"] < uniform:
        problems.append(f"r_key {opt['r_key']!r} below the uniform "
                        f"allocation's {uniform!r}")
    if len(res["sweep"]) != len(block["power_grid"]):
        problems.append("power sweep row count differs from the grid")
    return problems
