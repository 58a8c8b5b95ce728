#!/usr/bin/env python3
"""pinkey benchmark: runs one workload through ``pinkey.cli.main`` in this
process, checks the outputs, and prints a report whose last line is one
JSON object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload protocol-ideal --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke --seconds 1 --trace 1

Run it from the repository root; it imports pinkey from ``src/`` and
writes configs, CLI outputs and span files under ``.perfbench/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 9
DOMINANCE = 0.9
# Seconds each calibration kernel takes on the 2-core box this benchmark
# was written on, in a quiet phase.  Timings are reported at that speed.
CAL_REF_S = {"mixed": 0.09, "python": 0.027}
CAL_SHARE = 4  # a command of t seconds is followed by t/4 s of kernels
# Seconds a --setup-reference process takes on the same box, in a quiet
# phase.  Set-up times are reported at that speed.
SETUP_REF_S = 0.18

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("protocol.reconcile_pair.calls", "count"),
    ("protocol.reconcile_pair.busy_s", "s"),
    ("protocol.hash_matrix_bytes", "bytes"),
    ("protocol.blocks", "count"),
    ("protocol.kept_block_frac", "ratio"),
    ("protocol.dropped_bits", "bits"),
    ("protocol.public_bits.alice", "bits"),
    ("protocol.public_bits.bob", "bits"),
    ("protocol.public_bits.relays", "bits"),
    ("protocol.recon_fail.short_block", "count"),
    ("protocol.recon_fail.no_key_bits", "count"),
    ("protocol.recon_fail.other", "count"),
    ("protocol.agree_keys.self_s", "s"),
    ("protocol.xor_broadcast.busy_s", "s"),
    ("protocol.self_s", "s"),
    ("model.sample.calls", "count"),
    ("model.sample.busy_s", "s"),
    ("model.bits_sampled", "bits"),
    ("model.self_s", "s"),
    ("pipeline.run_once.calls", "count"),
    ("pipeline.run_once.self_s", "s"),
    ("pipeline.truncated_frac", "ratio"),
    ("pipeline.message_bit_keep_frac", "ratio"),
    ("pipeline.bits_cut", "bits"),
    ("pipeline.audits_skipped", "count"),
    ("pipeline.key_bits", "bits"),
    ("pipeline.key_mismatch_frac", "ratio"),
    ("pipeline.self_s", "s"),
    ("distillation.build_codebook.calls", "count"),
    ("distillation.build_codebook.busy_s", "s"),
    ("distillation.codewords", "count"),
    ("distillation.codebook_bytes", "bytes"),
    ("distillation.distill.busy_s", "s"),
    ("distillation.xor_distill.busy_s", "s"),
    ("distillation.self_s", "s"),
    ("infotools.leakage_audit.calls", "count"),
    ("infotools.leakage_audit.busy_s", "s"),
    ("infotools.audited_codewords", "count"),
    ("infotools.max_decomposition_residual", "bits"),
    ("infotools.max_leakage_bits", "bits"),
    ("infotools.self_s", "s"),
    ("wireless.optimize_allocation.busy_s", "s"),
    ("wireless.compositions", "count"),
    ("wireless.key_rate.calls", "count"),
    ("wireless.key_rate.busy_s", "s"),
    ("wireless.multiplexing_gain_sweep.busy_s", "s"),
    ("wireless.exhaustive_frac", "ratio"),
    ("wireless.r_key", "bits/use"),
    ("wireless.self_s", "s"),
    ("rates.capacity.calls", "count"),
    ("rates.capacity.busy_s", "s"),
    ("rates.xor_baseline_rate.calls", "count"),
    ("rates.xor_baseline_rate.busy_s", "s"),
    ("rates.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.parallel_efficiency", "ratio"),
    ("cli.fail_frac", "ratio"),
    ("cli.digest_changed", "count"),
    ("trace.dominant_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
]


# ------------------------------------------------------------ set-up probe

def setup_probe(argv) -> None:
    """Child process: run the CLI until its first call into a layer other
    than cli, say so on stdout, and exit at once."""
    sys.path[:0] = [SRC, HERE]
    import importlib

    import layers

    def first_layer_call(*args, **kwargs):
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)

    for layer, names in layers.TRACED.items():
        if layer != "cli":
            module = importlib.import_module(f"pinkey.{layer}")
            for name in names:
                setattr(module, name, first_layer_call)
    from pinkey import cli
    cli.main(argv)
    os._exit(3)


def setup_reference() -> None:
    """Child process: the fixed part of a probe's start, this file's
    imports and numpy's, then say so on stdout and exit at once."""
    import numpy  # noqa: F401
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    os._exit(0)


def _seconds_to_ready(args) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, *args],
                          stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait()
    if line.strip() != b"ready":
        raise RuntimeError(f"{args[0]} ended with code {proc.returncode} "
                           f"before it was ready")
    return t1 - t0


def measure_setup(argv, repeats: int) -> list:
    """Per repeat, seconds from process start to the first layer call,
    over the seconds a reference process takes to import numpy, timed
    just before it.  Process start drifts with the host's load in other
    ways than computing does, so set-up is calibrated by a process
    start."""
    return [_seconds_to_ready(["--setup-probe", *argv])
            / _seconds_to_ready(["--setup-reference"])
            for _ in range(repeats)]


# ------------------------------------------------------------ calibration
# The machine's speed drifts by a third over minutes (neighbours on a
# shared host), and no statistic of raw times inside one run removes a
# drift that outlasts the run.  So every command and set-up probe is timed
# next to a fixed kernel and scaled by the kernel's speed relative to
# CAL_REF_S: seconds at the reference speed.

def calibration_kernel(kind: str) -> float:
    """Seconds of a fixed piece of work.  "python" is a pure-Python loop,
    like the wireless search.  "mixed" adds the other kinds of work the
    bit-level workloads do: numpy passes over a 2^20-element array, and
    filling a fresh 40 MB array (page faults, as for the Toeplitz
    matrices and the largest codebooks)."""
    import numpy as np
    t0 = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    if kind == "mixed":
        a = np.arange(1 << 20, dtype=np.int64) * 2654435761 % (1 << 31)
        for _ in range(3):
            np.bincount((a ^ (a >> 3)) & 0xFFFFF, minlength=1 << 20)
            np.sort(a[:1 << 17])
        np.ones(5_000_000).sum()
    return time.perf_counter() - t0


class Calibration:
    """`jobs` idle worker processes that time the kernel on demand, all at
    once, as many as the command keeps busy.  They stay alive until
    :meth:`close`, so the resident set of the run, read before that,
    leaves them out."""

    def __init__(self, jobs: int, kind: str):
        self.kinds = [kind] * jobs
        self.pool = multiprocessing.get_context("fork").Pool(jobs)
        self.time(0.0)  # warm-up: import numpy in the workers

    def _once(self) -> float:
        return statistics.fmean(self.pool.map(
            calibration_kernel, self.kinds, chunksize=1))

    def time(self, at_least: float) -> list:
        """Kernel times, repeated until they add up to `at_least` seconds
        (at least one), so that a long command is compared with more than
        one short kernel."""
        times = [self._once()]
        while sum(times) < at_least:
            times.append(self._once())
        return times

    def close(self) -> None:
        self.pool.close()
        self.pool.join()


# ------------------------------------------------------------ commands

@dataclass
class Command:
    """One timed CLI invocation and what it left behind."""

    wall: float
    rc: Optional[int]
    error: Optional[str]        # traceback of an exception the CLI raised
    output: Optional[bytes]
    counts: dict
    tracer: object              # layers.Tracer, or None when untraced

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.error is None


def run_command(argv, trace: bool) -> Command:
    import layers
    from pinkey import cli
    out_path = argv[argv.index("--out") + 1]
    counts = layers.Counts()
    tracer = layers.Tracer() if trace else None
    rc, error = None, None
    if os.path.exists(out_path):
        os.remove(out_path)
    with layers.Instruments(counts, tracer):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash fails this command, not the benchmark
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    output = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            output = fh.read()
    return Command(wall, rc, error, output, counts, tracer)


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(cmd: Command, a: dict, dominant) -> dict:
    """Per-layer metrics of one traced command, given its span analysis."""
    import layers
    c = cmd.counts
    trials = c["pipeline.trials"]
    done = trials - sum(c[f"protocol.recon_fail.{r}"]
                        for r in layers.REASONS)
    v = {
        "protocol.hash_matrix_bytes": c["protocol.hash_matrix_bytes"],
        "protocol.blocks": c["protocol.blocks"],
        "protocol.kept_block_frac": _ratio(c["protocol.kept_blocks"],
                                           c["protocol.blocks"]),
        "protocol.dropped_bits": c["protocol.dropped_bits"],
        "model.bits_sampled": c["model.bits_sampled"],
        "pipeline.truncated_frac": _ratio(c["pipeline.truncated"], done),
        "pipeline.message_bit_keep_frac": _ratio(
            c["pipeline.message_bits"], c["pipeline.full_message_bits"]),
        "pipeline.bits_cut": c["pipeline.bits_cut"],
        "pipeline.audits_skipped": c["pipeline.audits_skipped"],
        "pipeline.key_bits": _ratio(c["pipeline.key_bits"], done),
        "pipeline.key_mismatch_frac": _ratio(c["pipeline.key_mismatches"],
                                             done),
        "distillation.codewords": c["distillation.codewords"],
        "distillation.codebook_bytes": c["distillation.codebook_bytes"],
        "infotools.audited_codewords": c["infotools.audited_codewords"],
        "infotools.max_decomposition_residual":
            c["infotools.max_decomposition_residual"],
        "infotools.max_leakage_bits": c["infotools.max_leakage_bits"],
        "wireless.compositions": c["wireless.compositions"],
        "wireless.exhaustive_frac": _ratio(c["wireless.exhaustive"],
                                           c["wireless.optimize_calls"]),
        "wireless.r_key": c["wireless.r_key"],
        "trace.dominant_frac": _ratio(
            layers.group_busy_s(cmd.tracer, dominant), cmd.wall),
        "trace.wall_s": cmd.wall,
        "trace.spans": a["spans"],
    }
    for sender in ("alice", "bob", "relays"):
        v[f"protocol.public_bits.{sender}"] = c[
            f"protocol.public_bits.{sender}"]
    for reason in layers.REASONS:
        v[f"protocol.recon_fail.{reason}"] = c[f"protocol.recon_fail.{reason}"]
    for name, _ in PER_LAYER:
        v.setdefault(name, a.get(name, 0.0))  # no span: 0
    return v


# ------------------------------------------------------------ one workload

def _digest_record() -> dict:
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            return json.load(fh)
    return {}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> int:
    import workloads
    wl = workloads.WORKLOADS[name]
    config, argv = write_config(wl, seed, smoke)
    n_items = workloads.items(wl, config)
    problems = []

    # Keep the run on as many CPUs as the command keeps busy, so that the
    # calibration kernel runs on the same CPU as the command it calibrates.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:wl.jobs])
    sys.path.insert(0, SRC)
    if not smoke:  # warm-up: load lazy imports and fill caches
        _, warm_argv = write_config(wl, seed, True)
        run_command(warm_argv, False)

    # Untraced runs time the calibration kernel before the first command
    # and after each one, for 1/CAL_SHARE of the command's time.
    calibration = None if trace else Calibration(wl.jobs, wl.kernel)
    cals = [calibration.time(0.0)] if calibration else []
    run_start = time.perf_counter()
    deadline = run_start + seconds
    plain, traced = [], []
    # Set-up probes (untraced runs only) are spread over the run, one due
    # every seconds/probes.  A burst of probes sees one moment of the
    # machine's load; its median spread 2.4 times wider across runs.
    probes = 0 if trace else 3 if smoke else SETUP_REPEATS
    setup_ratios = []
    while True:
        while len(setup_ratios) < probes and time.perf_counter() >= (
                run_start + len(setup_ratios) * seconds / probes):
            setup_ratios += measure_setup(argv, 1)
        plain.append(run_command(argv, False))
        if trace:
            traced.append(run_command(argv, True))
        else:
            cals.append(calibration.time(plain[-1].wall / CAL_SHARE))
        step = _median([c.wall for c in plain]) * (
            1 + (0 if trace else 1 / CAL_SHARE)) + _median(
            [c.wall for c in traced])
        if time.perf_counter() + step > deadline:
            break
    setup_ratios += measure_setup(argv, probes - len(setup_ratios))
    replay = None
    if trace and wl.jobs > 1:
        # Layer busy times of a pooled run: the same tasks in-process.
        out = argv.index("--out") + 1
        replay_argv = [*argv[:out], argv[out] + ".jobs1", "--jobs", "1"]
        replay = run_command(replay_argv, True)

    commands = plain + traced + ([replay] if replay else [])
    attempted = n_items * len(commands)
    failed = mismatched = 0
    docs = []
    for cmd in commands:
        if not cmd.ok:
            failed += n_items
            problems.append(f"command failed: rc={cmd.rc} "
                            f"{(cmd.error or '').strip()[-400:]}")
            continue
        doc = json.loads(cmd.output)
        docs.append(doc)
        failed += workloads.failed_units(wl, doc)
        mismatched += workloads.mismatched_units(wl, doc)
        problems += workloads.check(wl, config, doc)
    digests = {hashlib.sha256(c.output).hexdigest()
               for c in commands if c.ok}
    if len(digests) > 1:
        problems.append(f"reruns of one config gave {len(digests)} "
                        f"different outputs")
    digest_changed = 0
    digest_note = "no digest recorded for this seed"
    recorded = None if smoke else _digest_record().get(name, {}).get(
        str(seed))
    if recorded and digests:
        digest_changed = int(digests != {recorded})
        digest_note = ("output sha256 matches the recorded digest"
                       if not digest_changed else
                       f"OUTPUT CHANGED: sha256 {sorted(digests)[0]} != "
                       f"recorded {recorded}")

    # Quality figures, from CLI outputs and outcome hooks.
    ok_counts = [c.counts for c in commands if c.ok]
    quality = {}
    if wl.command == "protocol":
        done = sum(d["results"]["completed"] for d in docs)
        quality["key_bits"] = (_ratio(sum(c["pipeline.key_bits"]
                                          for c in ok_counts), done), "bits")
    quality["fail_frac"] = ((failed + mismatched) / attempted, "ratio")
    if wl.name in ("protocol-ideal", "sweep-leakage"):
        quality["max_leakage_bits"] = (max(
            [c["infotools.max_leakage_bits"] for c in ok_counts] or [0.0]),
            "bits")
    if wl.command == "wireless" and docs:
        quality["r_key"] = (docs[0]["results"]["allocation"]["r_key"],
                            "bits/use")

    walls = [c.wall for c in plain]
    # Read before the calibration workers are reaped, which leaves them out.
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if calibration:
        calibration.close()
    print(f"perfbench {name} seed={seed} trace={int(trace)} "
          f"smoke={int(smoke)} commands={len(plain)}"
          f"{f'+{len(traced)} traced' if trace else ''} "
          f"{wl.unit}/command={n_items}")
    if not trace:
        # The median command over the mean kernel of the run (see
        # "Calibration" in README.md).
        kernels = [t for times in cals for t in times]
        speed = CAL_REF_S[wl.kernel] / statistics.fmean(kernels)
        wall_ref = _median(walls) * speed ** wl.elasticity
        metrics = {
            "setup_s": SETUP_REF_S * _median(setup_ratios),
            "wall_s": wall_ref,
            "items_per_s": n_items / wall_ref,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = dict(END_TO_END)
        notes = {"setup_s": f"median of {len(setup_ratios)} calibrated "
                            f"set-ups",
                 "wall_s": f"median of {len(walls)} commands, calibrated "
                           f"(raw median {_median(walls):.6g} s)",
                 "items_per_s": f"{wl.unit} per calibrated second",
                 "peak_rss_mb": "largest resident set of any process"}
        print(f"  machine speed: {speed:.3f} of the reference (mean of "
              f"{len(kernels)} kernels, {statistics.fmean(kernels):.4f} s "
              f"each)")
        for key, value in metrics.items():
            print(f"  {key:<18} {value:<14.6g} {units[key]:<9} "
                  f"{notes[key]}")
        for key, (value, unit) in quality.items():
            print(f"  {key:<18} {value:<14.6g} {unit:<9} quality")
    else:
        metrics = traced_metrics(wl, plain, traced, replay)
        metrics["cli.fail_frac"] = quality["fail_frac"][0]
        metrics["cli.digest_changed"] = float(digest_changed)
        units = dict(PER_LAYER)
        for key, value in metrics.items():
            print(f"  {key:<42} {value:<14.6g} {units[key]}")
        dom = metrics["trace.dominant_frac"]
        print(f"  dominance: {'+'.join(wl.dominant)} covers {dom:.1%} of "
              f"the command (predicted >= {DOMINANCE:.0%}: "
              f"{'yes' if dom >= DOMINANCE else 'NO'})")
        import layers
        span_file = os.path.join(WORK, f"trace-{name}.npz")
        layers.save(span_file, [c.tracer for c in traced]
                    + ([replay.tracer] if replay else []), run_start)
        print(f"  spans written to {os.path.relpath(span_file, ROOT)}")
    print(f"  digest: {digest_note}")
    for problem in dict.fromkeys(problems):
        print(f"  CHECK FAILED: {problem}")
    if not problems:
        print("  checks: all passed")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


def traced_metrics(wl, plain, traced, replay) -> dict:
    """Median over traced commands of every per-layer metric."""
    ok = [c for c in traced if c.ok]
    if not ok:
        return {name: 0.0 for name, _ in PER_LAYER}
    import layers
    analysed = [layers.analyse(c.tracer) for c in ok]
    # Fastest against fastest, as for wall_s.
    plain_wall = min(c.wall for c in plain)
    overhead = min(c.wall for c in traced) - plain_wall
    extra = {
        "trace.overhead_s": overhead,
        "trace.overhead_frac": _ratio(overhead, plain_wall),
        "cli.parallel_efficiency": 0.0,
        "cli.self_s": _median([a["cli.self_s"] for a in analysed]),
    }
    source = list(zip(ok, analysed))
    if replay is not None and replay.ok:
        pool_wall = _median([a.get("cli._map.busy_s", 0.0)
                             for a in analysed])
        replay_a = layers.analyse(replay.tracer)
        extra["cli.parallel_efficiency"] = _ratio(
            replay_a.get("cli._leakage_task.busy_s", 0.0),
            wl.jobs * pool_wall)
        source = [(replay, replay_a)]
    per_cmd = [layer_values(c, a, wl.dominant) for c, a in source]
    values = {name: _median([v[name] for v in per_cmd])
              for name, _ in PER_LAYER}
    values.update(extra)
    return values


# ------------------------------------------------------------ all workloads

def run_all(args) -> int:
    import workloads
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace",
                str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        sys.stdout.write("\n".join(lines[:-1] if result else lines) + "\n")
        if result is None or proc.returncode not in (0, 1):
            print(f"  {name}: no result (exit code {proc.returncode})")
            correct = False
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def write_config(wl, seed: int, smoke: bool):
    """Config file and output path of one workload and seed."""
    os.makedirs(WORK, exist_ok=True)
    tag = f"{wl.name}-{seed}{'-smoke' if smoke else ''}"
    config = wl.make_config(seed, smoke)
    config_path = os.path.join(WORK, f"{tag}.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1)
    return config, wl.argv(config_path, os.path.join(WORK, f"{tag}.out"))


def record_digests(first: int, last: int, names) -> int:
    """Run each workload once per seed and store its output's sha256."""
    import workloads
    sys.path.insert(0, SRC)
    table = _digest_record()
    for name in names:
        wl = workloads.WORKLOADS[name]
        entry = table.setdefault(name, {})
        for seed in range(first, last + 1):
            config, argv = write_config(wl, seed, False)
            cmd = run_command(argv, False)
            problems = workloads.check(wl, config, json.loads(cmd.output)) \
                if cmd.ok else [f"rc={cmd.rc} {cmd.error}"]
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            entry[str(seed)] = hashlib.sha256(cmd.output).hexdigest()
            print(f"{name} seed {seed}: {entry[str(seed)]}", flush=True)
        with open(DIGESTS, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--setup-probe"]:
        setup_probe(argv[1:])
    if argv[:1] == ["--setup-reference"]:
        setup_reference()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (the default)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="how long to keep repeating the command")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input sizes, for testing the benchmark")
    parser.add_argument("--record-digests", metavar="FIRST-LAST",
                        help="store output digests for this seed range in "
                             "perfbench/digests.json instead of measuring")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pinkey", "cli.py")):
        print(f"perfbench: no pinkey source under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    if args.record_digests:
        first, _, last = args.record_digests.partition("-")
        return record_digests(int(first), int(last or first), names)
    if args.seed is None or args.seconds is None:
        parser.error("--seed and --seconds are required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
