"""Outside-in instrumentation of the pinkey layers.

The package is never edited: :class:`Instruments` replaces module
attributes such as ``protocol.reconcile_pair`` with wrappers and puts the
originals back on exit.  Calls between pinkey modules go through module
attributes (``pipeline`` calls ``protocol.agree_keys``, ``agree_keys``
calls its module global ``reconcile_pair``), so the wrappers see them.

Two things ride on a wrapper:

* an outcome hook, which reads the return value or exception and adds to
  a :class:`Counts` (public bits per sender, blocks kept, truncation,
  failure reasons, ...), and
* optionally a span in a :class:`Tracer`: name, start, end, parent span
  and trial id, kept in flat arrays and analysed after the command.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

LAYERS = ("model", "protocol", "distillation", "infotools", "rates",
          "wireless", "pipeline", "cli")

# Functions whose calls become spans.  wireless.pairwise_rate is left out:
# it runs 2*M times per key_rate call, and a wrapper would cost more than
# its body.  cli._map and cli._leakage_task mark the worker-pool boundary.
TRACED = {
    "model": ("sample", "pair_mutual_informations"),
    "protocol": ("agree_keys", "reconcile_pair", "xor_payloads",
                 "xor_broadcast", "alice_common", "bob_common"),
    "distillation": ("build_codebook", "distill", "invert", "xor_distill"),
    "infotools": ("leakage_audit", "codebook_key_of_all", "exact_mi",
                  "empirical_mi"),
    "rates": ("capacity", "capacity_order_stat", "xor_baseline_rate",
              "converse_bound", "rate_report"),
    "wireless": ("optimize_allocation", "key_rate",
                 "multiplexing_gain_sweep", "mc_estimate_check"),
    "pipeline": ("run_once", "key_bits_for"),
    "cli": ("main", "run_capacity", "run_protocol", "run_wireless",
            "run_sweep", "_map", "_leakage_task"),
}

# A call to one of these, outside any other unit, opens a new trial id:
# a protocol trial, one audited codebook, or one evaluated allocation.
UNIT_ROOTS = frozenset({"pipeline.run_once", "cli._leakage_task",
                        "wireless.key_rate"})

RESIDUAL_LIMIT = 1e-9


class Counts(dict):
    """Named counters; missing names read as 0."""

    def __missing__(self, key):
        return 0

    def hi(self, key, value) -> None:
        """Keep the largest value seen under ``key``."""
        self[key] = max(self.get(key, value), value)


# ---------------------------------------------------------------- hooks
# Each hook reads one layer's return value (or exception) into Counts.

def _on_sample(c: Counts, args, result) -> None:
    c["model.bits_sampled"] += sum(
        x.size for x in result.x_a + result.x_b) + sum(
        a.size + b.size for a, b in result.x_relays)


def _on_reconcile(c: Counts, args, result) -> None:
    c["protocol.blocks"] += int(result.kept_mask.size)
    c["protocol.kept_blocks"] += int(result.kept_mask.sum())
    c["protocol.dropped_bits"] += int(result.dropped_bits)
    # Two hashes per call (terminal and relay copy), each a dense
    # (output bits x raw bits) uint8 matrix.
    c["protocol.hash_matrix_bytes"] += (2 * int(result.raw_bits)
                                        * int(result.key_terminal.size))


def _sender_class(sender: str) -> str:
    return "relays" if sender.startswith("relay-") else sender


def _on_run_once(c: Counts, args, result) -> None:
    full = sum(int(w.size) for w in result.keys.common)
    kept = sum(result.message_bits)
    c["pipeline.trials"] += 1
    c["pipeline.full_message_bits"] += full
    c["pipeline.message_bits"] += kept
    c["pipeline.bits_cut"] += full - kept
    c["pipeline.truncated"] += int(result.truncated)
    c["pipeline.key_bits"] += result.key_bits
    c["pipeline.key_mismatches"] += int(not result.agreed)
    c["pipeline.audits_skipped"] += int(result.leakage is None)
    for rnd in result.transcript.rounds:
        c["protocol.public_bits." + _sender_class(rnd.sender)] += int(
            rnd.payload.size)


FAILURE_REASONS = {"shorter than one code block": "short_block",
                   "no key bits survived": "no_key_bits"}
REASONS = (*FAILURE_REASONS.values(), "other")


def failure_reason(exc: BaseException) -> str:
    text = str(exc)
    for needle, label in FAILURE_REASONS.items():
        if needle in text:
            return label
    return "other"


def _on_run_once_error(c: Counts, args, exc: BaseException) -> None:
    from pinkey.errors import ReconciliationFailure
    c["pipeline.trials"] += 1
    if isinstance(exc, ReconciliationFailure):
        c["protocol.recon_fail." + failure_reason(exc)] += 1
    else:
        c["pipeline.trial_exceptions"] += 1


def _on_build_codebook(c: Counts, args, result) -> None:
    c["distillation.codewords"] += 1 << result.total_bits
    c["distillation.codebook_bytes"] += (result.position.nbytes
                                         + result.inverse.nbytes)


def _on_leakage_audit(c: Counts, args, result) -> None:
    c["infotools.audited_codewords"] += 1 << args[0].total_bits
    c.hi("infotools.max_decomposition_residual",
         result.decomposition_residual)
    c.hi("infotools.max_leakage_bits", result.mi_bits)
    if not result.decomposition_residual <= RESIDUAL_LIMIT:
        # Fails the command the way the CLI reports any broken invariant
        # (exit code 4), also inside forked pool workers.
        from pinkey.errors import InvariantViolation
        raise InvariantViolation(
            f"leakage audit decomposition residual "
            f"{result.decomposition_residual!r} exceeds {RESIDUAL_LIMIT}")


def _on_map(c: Counts, args, result) -> None:
    if getattr(args[1], "__name__", "") == "_leakage_task" and result:
        c.hi("infotools.max_leakage_bits", max(result))


def _on_optimize(c: Counts, args, result) -> None:
    m, block_len = args[0], args[1]
    c["wireless.optimize_calls"] += 1
    c["wireless.compositions"] += math.comb(block_len - 1, m + 1)
    c["wireless.exhaustive"] += int(result.method == "exhaustive")
    c.hi("wireless.r_key", result.r_key)


ON_RETURN: Dict[str, Callable] = {
    "model.sample": _on_sample,
    "protocol.reconcile_pair": _on_reconcile,
    "pipeline.run_once": _on_run_once,
    "distillation.build_codebook": _on_build_codebook,
    "infotools.leakage_audit": _on_leakage_audit,
    "cli._map": _on_map,
    "wireless.optimize_allocation": _on_optimize,
}
ON_RAISE: Dict[str, Callable] = {"pipeline.run_once": _on_run_once_error}


# ---------------------------------------------------------------- spans

class Tracer:
    """Spans of one command, in flat arrays indexed by span number.

    A span's parent is the span open when it started (-1 at top level);
    its trial is the unit (see UNIT_ROOTS) it ran in, or -1.
    """

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.stack: List[int] = []
        self.current_trial = -1     # >= 0 while a unit is open
        self.trials = 0

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "trial": np.frombuffer(self.trial, dtype=np.int32)}


def _spanned(func, qualname: str, tracer: Tracer):
    nid = tracer.name_index(qualname)
    is_root = qualname in UNIT_ROOTS
    clock = time.perf_counter
    stack = tracer.stack

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        idx = len(tracer.start)
        opens_unit = is_root and tracer.current_trial < 0
        if opens_unit:
            tracer.current_trial = tracer.trials
            tracer.trials += 1
        tracer.name_id.append(nid)
        tracer.parent.append(stack[-1] if stack else -1)
        tracer.trial.append(tracer.current_trial)
        tracer.end.append(0.0)
        stack.append(idx)
        tracer.start.append(clock())
        try:
            return func(*args, **kwargs)
        finally:
            tracer.end[idx] = clock()
            stack.pop()
            if opens_unit:
                tracer.current_trial = -1
    return wrapper


def _observed(func, on_return, on_raise, counts: Counts):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            result = func(*args, **kwargs)
        except Exception as exc:
            if on_raise is not None:
                on_raise(counts, args, exc)
            raise
        if on_return is not None:
            on_return(counts, args, result)
        return result
    return wrapper


class Instruments:
    """Context manager that wraps layer functions for one command.

    Without a tracer only the functions that have outcome hooks are
    wrapped, and no clock is read.
    """

    def __init__(self, counts: Counts, tracer: Optional[Tracer] = None):
        self.counts = counts
        self.tracer = tracer
        self._saved: List[tuple] = []

    def __enter__(self) -> "Instruments":
        import importlib
        for layer, names in TRACED.items():
            module = importlib.import_module(f"pinkey.{layer}")
            for name in names:
                qualname = f"{layer}.{name}"
                on_return = ON_RETURN.get(qualname)
                on_raise = ON_RAISE.get(qualname)
                if self.tracer is None and on_return is None \
                        and on_raise is None:
                    continue
                original = getattr(module, name)
                func = original
                # The span sits inside the hook, so hook time is not
                # charged to the function it observes.
                if self.tracer is not None:
                    func = _spanned(func, qualname, self.tracer)
                if on_return is not None or on_raise is not None:
                    func = _observed(func, on_return, on_raise, self.counts)
                self._saved.append((module, name, original))
                setattr(module, name, func)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


# ------------------------------------------------------------- analysis

def _outermost(parent: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Spans with no ancestor in the same group (group id < 0: none)."""
    inside = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            return ~inside & (group >= 0)
        safe = np.where(live, anc, 0)
        inside |= live & (group[safe] == group) & (group >= 0)
        anc = np.where(live, parent[safe], -1)


def analyse(tracer: Tracer) -> Dict[str, float]:
    """Per-function calls/busy/self seconds and per-layer self/busy
    seconds for one command's spans."""
    a = tracer.arrays()
    out: Dict[str, float] = {"spans": float(len(tracer))}
    if not len(tracer):
        return out
    name_id, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    names = tracer.names
    layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in names])
    layer = layer_of_name[name_id]
    top_fn = _outermost(parent, name_id)
    for i, name in enumerate(names):
        sel = name_id == i
        out[f"{name}.calls"] = float(sel.sum())
        out[f"{name}.busy_s"] = float(dur[sel & top_fn].sum())
        out[f"{name}.self_s"] = float(self_s[sel].sum())
    top_layer = _outermost(parent, layer)
    for j, lname in enumerate(LAYERS):
        sel = layer == j
        out[f"{lname}.self_s"] = float(self_s[sel].sum())
        out[f"{lname}.busy_s"] = float(dur[sel & top_layer].sum())
    return out


def group_busy_s(tracer: Tracer, prefixes: Iterable[str]) -> float:
    """Time covered by spans named by any prefix ("wireless" or
    "protocol.reconcile_pair"), counting nested spans once."""
    if not len(tracer):
        return 0.0
    a = tracer.arrays()
    prefixes = tuple(prefixes)
    hit = np.array([any(n == p or n.startswith(p + ".") for p in prefixes)
                    for n in tracer.names])
    group = np.where(hit[a["name_id"]], 0, -1)
    top = _outermost(a["parent"], group)
    return float((a["end"] - a["start"])[top].sum())


def save(path: str, tracers: List[Tracer], origin: float) -> None:
    """Write every command's spans to one .npz file.  Times are seconds
    from ``origin``; ``command`` numbers the command of each span and
    ``parent`` indexes the concatenated arrays."""
    names: Dict[str, int] = {}
    cols = {k: [] for k in ("name", "start", "end", "parent", "trial",
                            "command")}
    base = 0
    for cmd, tracer in enumerate(tracers):
        if not len(tracer):
            continue
        a = tracer.arrays()
        remap = np.array([names.setdefault(n, len(names))
                          for n in tracer.names])
        cols["name"].append(remap[a["name_id"]])
        cols["start"].append(a["start"] - origin)
        cols["end"].append(a["end"] - origin)
        cols["parent"].append(np.where(a["parent"] >= 0,
                                       a["parent"] + base, -1))
        cols["trial"].append(a["trial"])
        cols["command"].append(np.full(len(tracer), cmd, dtype=np.int32))
        base += len(tracer)
    arrays = {k: np.concatenate(v) if v else np.zeros(0)
              for k, v in cols.items()}
    np.savez(path, names=np.array(list(names) or [""]), **arrays)
