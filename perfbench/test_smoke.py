"""Tests of the benchmark itself, at smoke sizes.

    python -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import scaling  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_matches_the_metric_tables():
    spec = _spec()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER


def test_smoke_runs_every_workload_in_both_modes():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", "all", "--smoke", "--seed", "3",
                      "--seconds", "0", "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= len(spec["workloads"])
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            prefix = w["name"] + "."
            got = {k[len(prefix):]: v["unit"]
                   for k, v in result["metrics"].items()
                   if k.startswith(prefix)}
            assert got == wanted, w["name"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "protocol-ideal", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_and_busy_time_of_nested_spans():
    tracer = layers.Tracer()
    # cli.main [0, 10] > pipeline.run_once [1, 9] > protocol.agree_keys
    # [2, 5] and protocol.agree_keys [6, 8]; the second nests
    # protocol.reconcile_pair [6.5, 7.5].
    for name, start, end, parent in [
            ("cli.main", 0, 10, -1), ("pipeline.run_once", 1, 9, 0),
            ("protocol.agree_keys", 2, 5, 1), ("protocol.agree_keys", 6, 8, 1),
            ("protocol.reconcile_pair", 6.5, 7.5, 3)]:
        tracer.name_id.append(tracer.name_index(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.trial.append(-1)
    a = layers.analyse(tracer)
    assert a["cli.self_s"] == 2.0
    assert a["pipeline.self_s"] == 3.0
    assert a["protocol.agree_keys.calls"] == 2.0
    assert a["protocol.agree_keys.busy_s"] == 5.0
    assert a["protocol.agree_keys.self_s"] == 4.0
    assert a["protocol.busy_s"] == 5.0  # reconcile_pair nests inside
    assert layers.group_busy_s(tracer, ["protocol.reconcile_pair"]) == 1.0
    assert layers.group_busy_s(tracer, ["pipeline", "protocol"]) == 8.0


def test_instruments_restore_the_package():
    from pinkey import cli, protocol
    before = (protocol.reconcile_pair, cli._map)
    counts = layers.Counts()
    with layers.Instruments(counts, layers.Tracer()):
        assert protocol.reconcile_pair is not before[0]
        result = protocol.reconcile_pair(np.zeros(14, dtype=np.uint8),
                                         np.zeros(14, dtype=np.uint8), 0.0)
    assert (protocol.reconcile_pair, cli._map) == before
    assert counts["protocol.blocks"] == 2
    assert counts["protocol.hash_matrix_bytes"] == (
        2 * result.raw_bits * result.key_terminal.size)


def test_scaling_points_at_small_sizes():
    for kind, size in [("reconcile_pair", 700), ("build_codebook", 8),
                       ("leakage_audit", 8), ("optimize_allocation", 8)]:
        row = scaling.point(kind, size)
        assert row["seconds"] > 0, kind
        assert row["rss_mb"] >= row["rss_delta_mb"] >= 0, kind


def test_failed_counts_reconciliation_failures_not_key_mismatches():
    doc = {"results": {"reconciliation_failures": 1, "completed": 4,
                       "p_key_mismatch": 0.5}}
    dsbs = workloads.WORKLOADS["protocol-dsbs"]
    assert workloads.failed_units(dsbs, doc) == 1
    assert workloads.mismatched_units(dsbs, doc) == 2
    doc["results"].update(completed=0, p_key_mismatch=None)
    assert workloads.mismatched_units(dsbs, doc) == 0
    sweep = workloads.WORKLOADS["sweep-leakage"]
    assert workloads.failed_units(sweep, {"results": {}}) == 0
    assert workloads.mismatched_units(sweep, {"results": {}}) == 0


def test_calibration_repeats_the_kernel_for_a_long_command():
    for jobs, kind in ((1, "python"), (2, "mixed")):
        calibration = run.Calibration(jobs, kind)
        try:
            assert len(calibration.time(0.0)) == 1
            times = calibration.time(0.25)
        finally:
            calibration.close()
        assert sum(times) >= 0.25 and len(times) >= 2
