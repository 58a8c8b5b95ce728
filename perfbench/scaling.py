#!/usr/bin/env python3
"""Scaling-grid report (not gated): wall time and peak memory of single
layer calls as the input grows.

    python3 perfbench/scaling.py            # the full grid, a few minutes

Every point runs in a fresh child process, so its peak resident set is its
own.  ``rss_mb`` is the child's peak; ``rss_delta_mb`` subtracts the peak
reached after imports and input construction.  Results are printed as a
table and written to ``.perfbench/scaling.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

GRIDS = {
    "reconcile_pair": ("n", [700, 1400, 3500, 7000, 14000]),
    "build_codebook": ("codebook_bits", [16, 18, 20, 22, 24]),
    "leakage_audit": ("codebook_bits", [16, 18, 20, 22, 24]),
    "optimize_allocation": ("T", [20, 25, 30, 35, 40]),
    "empirical_mi": ("samples", [100_000]),
    "leakage_sweep": ("jobs", [1, 2]),
}


def _peak_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def point(kind: str, size: int) -> dict:
    """Child process: build the inputs, then time one call."""
    sys.path.insert(0, SRC)
    import numpy as np

    from pinkey import (cli, distillation, infotools, protocol, wireless)
    rng = np.random.Generator(np.random.PCG64(size))
    if kind == "reconcile_pair":
        relay = rng.integers(0, 2, size, dtype=np.uint8)
        term = relay ^ (rng.random(size) < 0.05).astype(np.uint8)
        call = lambda: protocol.reconcile_pair(term, relay, 0.05)  # noqa
    elif kind in ("build_codebook", "leakage_audit"):
        bits = [size // 2, size - size // 2]
        key_bits = bits[0] - 1
        call = lambda: distillation.build_codebook(bits, key_bits, 1)  # noqa
        if kind == "leakage_audit":
            codebook = call()
            call = lambda: infotools.leakage_audit(codebook, 0)  # noqa
    elif kind == "optimize_allocation":
        call = lambda: wireless.optimize_allocation(  # noqa
            4, size, 10.0, 1.0, [(1.0, 1.0)] * 4)
    elif kind == "empirical_mi":
        x = rng.integers(0, 4, size)
        y = (x + rng.integers(0, 2, size)) % 4
        call = lambda: infotools.empirical_mi(x, y, bootstrap=1000)  # noqa
    elif kind == "leakage_sweep":
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        path = os.path.join(ROOT, ".perfbench", "scaling-sweep.json")
        with open(path, "w") as fh:
            json.dump({"seed": 1, "sweep": {
                "kind": "leakage", "m": 2, "codebooks": 100,
                "bits_per_message": [2, 4, 6, 8, 10]}}, fh)
        call = lambda: cli.main(["sweep", "--config", path, "--jobs",  # noqa
                                 str(size), "--out", path + ".out"])
    else:
        raise ValueError(f"unknown grid {kind!r}")
    base = _peak_mb()
    t0 = time.perf_counter()
    call()
    seconds = time.perf_counter() - t0
    peak = _peak_mb()
    return {"seconds": seconds, "rss_mb": peak, "rss_delta_mb": peak - base}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--point", nargs=2, metavar=("KIND", "SIZE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(point(args.point[0], int(args.point[1]))))
        return 0
    if not os.path.isfile(os.path.join(SRC, "pinkey", "cli.py")):
        print(f"scaling: no pinkey source under {SRC}", file=sys.stderr)
        return 2
    rows = []
    print(f"{'layer call':<22}{'input':<16}{'seconds':>10}{'rss MB':>10}"
          f"{'delta MB':>10}")
    for kind, (label, sizes) in GRIDS.items():
        for size in sizes:
            proc = subprocess.run([sys.executable, __file__, "--point", kind,
                                   str(size)], capture_output=True,
                                  text=True, cwd=ROOT)
            if proc.returncode:
                print(proc.stderr, file=sys.stderr)
                return 1
            row = {"kind": kind, label: size,
                   **json.loads(proc.stdout.strip().split("\n")[-1])}
            rows.append(row)
            print(f"{kind:<22}{f'{label}={size}':<16}{row['seconds']:>10.3f}"
                  f"{row['rss_mb']:>10.1f}{row['rss_delta_mb']:>10.1f}",
                  flush=True)
    out = os.path.join(ROOT, ".perfbench", "scaling.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(rows, fh, indent=1)
    print(f"written to {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
