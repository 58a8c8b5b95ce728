"""Byte-identity gate: the CLI output for the benchmark's workload configs
must hash to the sha256 recorded in ``perfbench/digests.json``.

Refactors and optimizations keep results byte-identical; a change that
alters an output on purpose says so and records new digests with
``perfbench/run.py --record-digests``.
"""

import hashlib
import json
import os
import sys

import pytest

from pinkey import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(PERFBENCH, "digests.json")) as _fh:
    DIGESTS = json.load(_fh)

CASES = [(name, seed)
         for name in ("protocol-ideal", "protocol-dsbs", "wireless-optimize")
         for seed in range(4)] + [("sweep-leakage", 0)]


@pytest.mark.parametrize("name,seed", CASES)
def test_output_matches_recorded_digest(name, seed, tmp_path):
    workload = WORKLOADS[name]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.make_config(seed, False)))
    out_path = tmp_path / "out"
    assert cli.main(workload.argv(str(config_path), str(out_path))) == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == DIGESTS[name][str(seed)]
